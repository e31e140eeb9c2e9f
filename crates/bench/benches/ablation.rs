//! Ablations of DRAM-Locker's design choices (DESIGN.md §6):
//!
//! - re-lock interval (paper: 1k R/W) — swap churn vs exposure;
//! - lock target (adjacent rows vs the data rows themselves) —
//!   unlock frequency under victim traffic;
//! - free-pool size — swap availability;
//! - scheduling policy (FCFS vs FR-FCFS) under a locked-row mix.
//!
//! The victim-workload ablations run through the unified scenario
//! pipeline: a scenario with no attack, whose controller the bench
//! drives with a benign victim mix before the run reports. The artifact
//! prints once, outside the measured closures. The scheduling group
//! benches the raw request queue (a primitive, not a scenario).

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};

use dlk_bench::print_once;
use dlk_locker::{LockTarget, LockerConfig};
use dlk_memctrl::{MemCtrlConfig, MemRequest, MemoryController, SchedulingPolicy};
use dlk_sim::{DefenseSpec, Scenario, VictimSpec};

static ARTIFACT: Once = Once::new();

/// Returns (redirects, denies, mean latency) for one configuration.
fn victim_workload(relock_interval: u64, target: LockTarget) -> (u64, u64, f64) {
    let config = LockerConfig { relock_interval, ..LockerConfig::default() };
    let mut run = Scenario::builder()
        .label("ablation")
        // Protect rows 10..12 (data) -> locks depend on the policy.
        .victim(VictimSpec::row_span(10, 2, 0xA5))
        .defense(DefenseSpec::Locker { config, target, radius: 1 })
        .build()
        .expect("scenario builds");
    // Victim workload: 2000 reads, mostly data rows 10/11; every 10th
    // touches the locked neighbour row 9. The report's controller
    // statistics are snapshotted after it, before the integrity probe.
    let ctrl = run.controller_mut();
    let row_bytes = ctrl.geometry().row_bytes as u64;
    for index in 0..2_000u64 {
        let row = if index % 10 == 0 { 9 } else { 10 + index % 2 };
        ctrl.service(MemRequest::read(row * row_bytes, 1)).expect("workload runs");
    }
    let report = run.run().expect("scenario runs");
    (report.controller.redirected, report.controller.denied, report.controller.mean_latency())
}

fn bench_ablation(c: &mut Criterion) {
    print_once(&ARTIFACT, || {
        let mut out = String::from("== Ablations ==\n");
        out.push_str("relock_interval -> (redirects, denies, mean latency cycles)\n");
        for interval in [100u64, 1_000, 10_000] {
            let (redirects, denies, mean) = victim_workload(interval, LockTarget::AdjacentRows);
            out.push_str(&format!(
                "  interval {interval:>6}: redirects {redirects:>5}, denies {denies:>4}, mean {mean:.1}\n"
            ));
        }
        out.push_str("lock target policy (victim workload cost)\n");
        for (label, target) in [
            ("adjacent-rows", LockTarget::AdjacentRows),
            ("data-rows", LockTarget::DataRows),
            ("both", LockTarget::Both),
        ] {
            let (redirects, denies, mean) = victim_workload(1_000, target);
            out.push_str(&format!(
                "  {label:<14}: redirects {redirects:>5}, denies {denies:>4}, mean {mean:.1}\n"
            ));
        }
        out
    });

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::FrFcfs] {
        group.bench_function(format!("scheduling_{policy:?}"), |b| {
            let config = MemCtrlConfig { policy, ..MemCtrlConfig::tiny_for_tests() };
            let mut ctrl = MemoryController::new(config);
            let row_bytes = ctrl.geometry().row_bytes as u64;
            b.iter(|| {
                for index in 0..64u64 {
                    // Two interleaved row streams: FR-FCFS batches hits.
                    let row = if index % 2 == 0 { 3 } else { 4 };
                    ctrl.submit(MemRequest::read(row * row_bytes + index % 8, 1));
                }
                ctrl.run_to_completion().expect("drain")
            })
        });
    }
    group.bench_function("swap_vs_relock_interval_100", |b| {
        b.iter(|| victim_workload(100, LockTarget::AdjacentRows))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
