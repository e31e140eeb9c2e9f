//! `artifacts`: the paper's Fig. 8 and Table II at Full fidelity plus the
//! catalog's `cnn-bfa-vs-dram-locker` scenario, on one thread. The DNN
//! chain does nearly all the work here and the memory chain almost none.
//! `artifacts-resnet20` is the same workload without Fig. 8's VGG-11
//! panel, whose check fails at seed: every model it runs is a ResNet-20.

use std::time::Duration;

use dram_locker::attacks::{BfaConfig, BitSearch};
use dram_locker::defenses::training::binary::{BinaryWeight, CapacityScale, RaBnn};
use dram_locker::defenses::training::transforms::{PiecewiseClustering, WeightReconstruction};
use dram_locker::defenses::training::{baseline_entry, dram_locker_entry, TableTwoEntry};
use dram_locker::dnn::models::{self, ModelKind, Victim};
use dram_locker::dnn::Tensor;
use dram_locker::sim::{GeometrySpec, RunReport, Scenario, ScenarioSpec};
use dram_locker::xlayer::experiments::fig8::{self, Fig8Panel};

use crate::checks;
use crate::gen;
use crate::report::{median, metric, Metric, Tally};
use crate::spans::Ctx;
use crate::Section;

/// A Fig. 8 panel: model, panel label, metric key.
pub type Panel = (ModelKind, &'static str, &'static str);

/// Fig. 8's panels, ResNet-20 first.
pub const FIG8_PANELS: [Panel; 2] = [
    (ModelKind::Resnet20, "ResNet-20 / CIFAR-10", "resnet20"),
    (ModelKind::Vgg11, "VGG-11 / CIFAR-100", "vgg11"),
];
/// Fig. 8's attack iterations and its victims' seed (`xlayer::experiments::fig8`).
const FIG8_ITERATIONS: usize = 100;
const FIG8_MODEL_SEED: u64 = 42;
/// Fig. 8's weight image base and evaluation batch.
const FIG8_WEIGHT_BASE: u64 = 0x400;
const FIG8_EVAL_BATCH: usize = 128;
/// Table II at Full fidelity (`xlayer::experiments::table2::entries`):
/// victim seed, attack sample, flip budget and the locker's attempts.
const TABLE2_SEED: u64 = 7;
const TABLE2_SAMPLE: usize = 64;
const TABLE2_BUDGET: usize = 250;
const TABLE2_LOCKER_ATTEMPTS: usize = 1150;
const CNN_SEED: u64 = 42;

type Row = (&'static str, fn(&Victim) -> TableTwoEntry);

/// Table II's seven rows, in the paper's order, each through its public
/// `evaluate`/`*_entry` call.
const TABLE2_ROWS: [Row; 7] = [
    ("baseline", |v| baseline_entry(v, TABLE2_SAMPLE, TABLE2_BUDGET)),
    ("clustering", |v| PiecewiseClustering::default().evaluate(v, TABLE2_SAMPLE, TABLE2_BUDGET)),
    ("binary", |v| BinaryWeight.evaluate(v, TABLE2_SAMPLE, TABLE2_BUDGET)),
    ("capacity", |v| CapacityScale::default().evaluate(v, TABLE2_SAMPLE, TABLE2_BUDGET)),
    ("reconstruction", |v| {
        WeightReconstruction::default().evaluate(v, TABLE2_SAMPLE, TABLE2_BUDGET)
    }),
    ("rabnn", |v| RaBnn::default().evaluate(v, TABLE2_SAMPLE, TABLE2_BUDGET)),
    ("dram_locker", |v| dram_locker_entry(v, TABLE2_SAMPLE, TABLE2_LOCKER_ATTEMPTS)),
];

pub struct Artifacts {
    fig8_panels: &'static [Panel],
    train: Duration,
    cnn_spec: ScenarioSpec,
    fig8: Vec<Duration>,
    table2: Vec<Duration>,
    cnn: Vec<Duration>,
    panel_times: Vec<(&'static str, Duration)>,
    row_times: Vec<(&'static str, Duration)>,
    panels: Vec<Fig8Panel>,
    cnn_report: Option<RunReport>,
}

/// Trains every victim the workload uses (the first `ModelKind::victim`
/// calls) and builds the CNN scenario once as warm-up.
pub fn setup(seed: u64, fig8_panels: &'static [Panel]) -> Artifacts {
    let (_, train) = Ctx::root(None).time("dnn.train", |_| {
        for (kind, _, _) in fig8_panels {
            kind.victim(FIG8_MODEL_SEED);
        }
        ModelKind::Resnet20Cnn.victim(CNN_SEED);
        models::victim_resnet20_cifar10(TABLE2_SEED);
    });
    let cnn_spec = gen::cnn_bfa_spec(seed);
    Scenario::from_spec(&cnn_spec).expect("the catalog's CNN scenario builds");
    Artifacts {
        fig8_panels,
        train,
        cnn_spec,
        fig8: Vec::new(),
        table2: Vec::new(),
        cnn: Vec::new(),
        panel_times: Vec::new(),
        row_times: Vec::new(),
        panels: Vec::new(),
        cnn_report: None,
    }
}

impl Section for Artifacts {
    fn pass(&mut self, ctx: Ctx, tally: &mut Tally) {
        let ((), fig8_took) = ctx.time("xlayer.fig8", |ctx| {
            self.panels.clear();
            self.panel_times.clear();
            for (i, &(kind, label, key)) in self.fig8_panels.iter().enumerate() {
                let (panel, took) =
                    ctx.with_op(i as u64).time(&format!("xlayer.fig8.{key}"), |_| {
                        fig8::run_panel(kind, label, FIG8_ITERATIONS)
                    });
                tally.op(checks::fig8_locker_margin(&panel));
                self.panels.push(panel);
                self.panel_times.push((key, took));
            }
        });
        let ((), table2_took) = ctx.time("defenses.table2", |ctx| {
            let victim = models::victim_resnet20_cifar10(TABLE2_SEED);
            self.row_times.clear();
            for (i, (key, row)) in TABLE2_ROWS.into_iter().enumerate() {
                let (entry, took) = ctx
                    .with_op(10 + i as u64)
                    .time(&format!("defenses.table2.{key}"), |_| row(&victim));
                self.row_times.push((key, took));
                tally.op(if key == "dram_locker" {
                    checks::table2_locker_row(&entry)
                } else {
                    Ok(())
                });
            }
        });
        let (report, cnn_took) = ctx.with_op(20).time("sim.cnn_bfa", |ctx| {
            let (run, _) = ctx.time("sim.build", |_| Scenario::from_spec(&self.cnn_spec));
            run.and_then(|mut run| ctx.time("sim.run", |_| run.run()).0)
        });
        tally.op(report.as_ref().map(|_| ()).map_err(|e| format!("cnn-bfa-vs-dram-locker: {e}")));
        self.cnn_report = report.ok();
        self.fig8.push(fig8_took);
        self.table2.push(table2_took);
        self.cnn.push(cnn_took);
    }

    fn check(&mut self, _tally: &mut Tally) {}

    fn figures(&self) -> Vec<Metric> {
        let secs =
            |d: &[Duration]| median(&d.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
        let drop = self.panels.iter().map(checks::fig8_locker_drop_pp).sum::<f64>()
            / self.panels.len().max(1) as f64;
        vec![
            metric("fig8_s", secs(&self.fig8), "s"),
            metric("table2_s", secs(&self.table2), "s"),
            metric("cnn_bfa_s", secs(&self.cnn), "s"),
            metric("locker_acc_drop_pp", drop, "pp"),
        ]
    }

    fn claims(&self) -> Vec<Metric> {
        self.panels
            .iter()
            .zip(self.fig8_panels)
            .map(|(panel, (_, _, key))| {
                metric(format!("fig8.{key}.locker_margin_pp"), checks::fig8_margin_pp(panel), "pp")
            })
            .collect()
    }

    fn layers(&mut self, _tally: &mut Tally) -> Vec<Metric> {
        let mut out = vec![metric("dnn.train_s", self.train.as_secs_f64(), "s")];
        for (key, took) in &self.panel_times {
            out.push(metric(format!("xlayer.fig8.{key}_s"), took.as_secs_f64(), "s"));
        }
        for (key, took) in &self.row_times {
            out.push(metric(format!("defenses.table2.{key}_s"), took.as_secs_f64(), "s"));
        }
        let victims: Vec<Victim> =
            self.fig8_panels.iter().map(|(kind, _, _)| kind.victim(FIG8_MODEL_SEED)).collect();
        out.push(metric("attacks.bfa_step_ms", bfa_step_ms(&victims), "ms"));
        out.push(metric("dnn.forward_us_per_sample", forward_us_per_sample(&victims), "us"));
        out.push(metric("dnn.gemm_gflops", gemm_gflops(), "GFLOP/s"));
        let cnn = ModelKind::Resnet20Cnn.victim(CNN_SEED);
        out.push(metric(
            "dnn.conv_forward_us_per_sample",
            forward_us_per_sample(std::slice::from_ref(&cnn)),
            "us",
        ));
        let landed = self
            .cnn_report
            .as_ref()
            .map_or(0.0, |r| r.landed_flips as f64 / r.target_bits.len().max(1) as f64);
        out.push(metric("attacks.landed_frac", landed, "frac"));
        out
    }

    fn geometries(&self) -> Vec<(String, u64)> {
        let tiny = GeometrySpec::Tiny.config().dram.geometry.capacity_bytes();
        let mut out: Vec<(String, u64)> = Vec::new();
        let mut add = |name: &str, ops: u64| match out.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 += ops,
            None => out.push((name.to_owned(), ops)),
        };
        // Fig. 8 deploys onto the paper geometry when the image outgrows
        // the tiny device, as `xlayer::experiments::fig8` decides.
        for (kind, _, _) in self.fig8_panels {
            let image_end =
                FIG8_WEIGHT_BASE + kind.victim(FIG8_MODEL_SEED).model.total_weights() as u64;
            add(if image_end <= tiny { "tiny" } else { "paper" }, 1);
        }
        add("none", TABLE2_ROWS.len() as u64);
        add(self.cnn_spec.geometry.token(), 1);
        out
    }
}

/// Milliseconds per `BitSearch::next_flip` on each Fig. 8 victim's
/// evaluation batch, applying each chosen flip before the next search.
fn bfa_step_ms(victims: &[Victim]) -> f64 {
    const STEPS: usize = 4;
    let mut total = Duration::ZERO;
    for victim in victims {
        let (x, y) = victim.dataset.test_sample(FIG8_EVAL_BATCH, 0);
        let mut model = victim.model.clone();
        let mut search = BitSearch::new(BfaConfig::default());
        for _ in 0..STEPS {
            let (flip, took) =
                Ctx::root(None).time("attacks.bfa_step", |_| search.next_flip(&model, &x, &y));
            total += took;
            if let Some(flip) = flip {
                model.flip_bit(flip).expect("the search returns valid bits");
            }
        }
    }
    total.as_secs_f64() * 1e3 / (STEPS * victims.len()) as f64
}

/// Microseconds per sample of a forward pass over the evaluation batch,
/// median of several repeats.
fn forward_us_per_sample(victims: &[Victim]) -> f64 {
    const REPEATS: usize = 15;
    let mut samples = Vec::new();
    for victim in victims {
        let (x, _) = victim.dataset.test_sample(FIG8_EVAL_BATCH, 0);
        for _ in 0..REPEATS {
            let (out, took) = Ctx::root(None).time("dnn.forward", |_| victim.model.forward(&x));
            std::hint::black_box(out.expect("evaluation batch fits the model"));
            samples.push(took.as_secs_f64() * 1e6 / FIG8_EVAL_BATCH as f64);
        }
    }
    median(&samples)
}

/// `matmul_transpose` throughput on the CNN victims' im2col shape.
fn gemm_gflops() -> f64 {
    let (m, k, n) = (64, 128, 32);
    let a = Tensor::randn(m, k, 11);
    let b = Tensor::randn(n, k, 12);
    let mut samples = Vec::new();
    for _ in 0..200 {
        let (out, took) = Ctx::root(None).time("dnn.gemm", |_| {
            std::hint::black_box(&a).matmul_transpose(std::hint::black_box(&b))
        });
        std::hint::black_box(out.expect("shapes agree"));
        samples.push((2 * m * k * n) as f64 / took.as_secs_f64() / 1e9);
    }
    median(&samples)
}
