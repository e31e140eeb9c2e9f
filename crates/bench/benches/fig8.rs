//! Regenerates both panels of Fig. 8 (BFA accuracy degradation with
//! and without DRAM-Locker), then benchmarks a defended hammer attempt
//! through the unified scenario pipeline. The artifact prints once,
//! outside the measured closure.

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};

use dlk_bench::print_once;
use dlk_sim::{AttackSpec, Budget, DefenseSpec, Scenario, VictimSpec};
use dlk_xlayer::experiments::{fig8, Fidelity};

static ARTIFACT: Once = Once::new();

fn bench_fig8(c: &mut Criterion) {
    print_once(&ARTIFACT, || {
        fig8::run(Fidelity::Full).iter().map(fig8::Fig8Panel::render).collect::<Vec<_>>().join("\n")
    });

    let mut group = c.benchmark_group("fig8");
    group.sample_size(20);
    group.bench_function("denied_hammer_campaign", |b| {
        let mut run = Scenario::builder()
            .label("fig8-kernel")
            .victim(VictimSpec::row(20, 0xA5))
            .attack(AttackSpec::Hammer { bit: 5 })
            .defense(DefenseSpec::locker_adjacent())
            .budget(Budget { max_activations: 64, check_interval: 8, iterations: 1 })
            .build()
            .expect("scenario builds");
        b.iter(|| run.run().expect("defended campaign runs"))
    });
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
