//! `sweep`: a seeded grid of tiny-geometry catalog variants, parsed from
//! grid text and run on a 2-worker `SweepRunner` as `dlk sweep` does.
//! Jobs last a few milliseconds, so spec parsing, scenario build, the
//! tracker defenses and the work-stealing queue make up the cost.
//! `sweep-catalog-seeds` is the same grid with the randomized defenses
//! (rrs, srs, shadow) left at their catalog seeds: on a few reseeded
//! ones they fail to contain the hammer at seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dram_locker::obs::Registry;
use dram_locker::sim::{RunReport, Scenario, ScenarioSpec, SweepRunner};

use crate::checks;
use crate::gen::{self, Family, GridSpec, Rng};
use crate::report::{median, metric, percentile, Metric, Tally};
use crate::spans::Ctx;
use crate::Section;

/// Specs per grid pass.
pub const GRID_SPECS: usize = 1600;
/// Worker threads: the host's two vCPUs.
pub const WORKERS: usize = 2;

pub struct Sweep {
    grid: Vec<GridSpec>,
    text: String,
    runner: SweepRunner,
    pass_times: Vec<f64>,
    job_ms: Vec<f64>,
    last_reports: Vec<Option<RunReport>>,
    traced: Option<TracedPass>,
}

/// Timings of the last traced pass, per job.
struct TracedPass {
    parse: Duration,
    pass: Duration,
    build_ns: Vec<u64>,
    run_ns: Vec<u64>,
    job_ns: Vec<u64>,
    busy_frac: f64,
}

/// Generates the grid (reseeding the randomized defenses or not) and its
/// text, then runs one spec of every catalog
/// entry the grid draws from, which trains their victims.
pub fn setup(seed: u64, reseed_defenses: bool) -> Sweep {
    let grid = gen::sweep_grid(&mut Rng::new(seed), GRID_SPECS, reseed_defenses);
    let text = gen::grid_text(&grid);
    for family in Family::ALL {
        for name in family.entries() {
            let spec = dram_locker::sim::find(name).expect("family entries are catalog names").spec;
            Scenario::from_spec(&spec).and_then(|mut run| run.run()).expect("catalog entries run");
        }
    }
    Sweep {
        grid,
        text,
        runner: SweepRunner::with_threads(WORKERS),
        pass_times: Vec::new(),
        job_ms: Vec::new(),
        last_reports: Vec::new(),
        traced: None,
    }
}

fn slots(n: usize) -> Arc<Vec<AtomicU64>> {
    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect())
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Section for Sweep {
    fn pass(&mut self, ctx: Ctx, tally: &mut Tally) {
        let n = self.grid.len();
        let (job_ns, build_ns, run_ns) = (slots(n), slots(n), slots(n));
        let registry = Registry::new();
        let ((parse, outcomes), pass) = ctx.time("sim.sweep_pass", |ctx| {
            let (specs, parse) =
                ctx.time("sim.parse", |_| ScenarioSpec::list_from_text(&self.text));
            let specs = match specs {
                Ok(specs) if specs.len() == n => Arc::new(specs),
                Ok(specs) => {
                    return (
                        parse,
                        Err(format!("grid text parsed into {} specs, not {n}", specs.len())),
                    )
                }
                Err(e) => return (parse, Err(format!("grid text does not parse: {e}"))),
            };
            let runner = if ctx.tracer.is_some() {
                self.runner.clone().observe(&registry)
            } else {
                self.runner.clone()
            };
            let (jobs, builds, runs, job_tracer) = (
                Arc::clone(&job_ns),
                Arc::clone(&build_ns),
                Arc::clone(&run_ns),
                ctx.tracer.cloned(),
            );
            let families: Arc<Vec<&'static str>> =
                Arc::new(self.grid.iter().map(|job| job.family.name()).collect());
            let parent = ctx.parent;
            let outcomes = runner.run_fn(n, move |i| {
                let job_ctx = Ctx { tracer: job_tracer.as_ref(), parent, op: i as u64 };
                let (report, took) = job_ctx.time("sim.job", |ctx| {
                    let (run, built) = ctx.time("sim.build", |_| Scenario::from_spec(&specs[i]));
                    builds[i].store(nanos(built), Ordering::Relaxed);
                    run.and_then(|mut run| {
                        let (report, ran) =
                            ctx.time(&format!("attacks.{}.run", families[i]), |_| run.run());
                        runs[i].store(nanos(ran), Ordering::Relaxed);
                        report
                    })
                });
                jobs[i].store(nanos(took), Ordering::Relaxed);
                report
            });
            (parse, Ok(outcomes))
        });
        self.pass_times.push(pass.as_secs_f64());
        let outcomes = match outcomes {
            Ok(outcomes) => outcomes,
            Err(error) => {
                for _ in 0..n {
                    tally.op(Err(error.clone()));
                }
                self.last_reports = vec![None; n];
                return;
            }
        };
        self.last_reports.clear();
        for (job, outcome) in self.grid.iter().zip(outcomes) {
            let result = match &outcome.report {
                Ok(report) => checks::verdict(job.expected, &job.spec.label, report),
                Err(e) => Err(format!("{}: {e}", job.spec.label)),
            };
            tally.op(result);
            self.last_reports.push(outcome.report.ok());
        }
        let load = |slots: &Arc<Vec<AtomicU64>>| -> Vec<u64> {
            slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
        };
        let job_ns = load(&job_ns);
        self.job_ms.extend(job_ns.iter().map(|&ns| ns as f64 / 1e6));
        if ctx.tracer.is_some() {
            let counter = |name: &str| registry.counter(name).get() as f64;
            let busy = counter("sweep.worker_busy_ns");
            let idle = counter("sweep.worker_idle_ns");
            self.traced = Some(TracedPass {
                parse,
                pass,
                build_ns: load(&build_ns),
                run_ns: load(&run_ns),
                job_ns,
                busy_frac: busy / (busy + idle).max(1.0),
            });
        }
    }

    /// Every report of the last parallel pass must equal the serial
    /// runner's report for the same spec.
    fn check(&mut self, tally: &mut Tally) {
        let specs: Vec<ScenarioSpec> = self.grid.iter().map(|job| job.spec.clone()).collect();
        let serial = SweepRunner::serial().run_jobs(&specs);
        for ((job, parallel), serial) in self.grid.iter().zip(&self.last_reports).zip(serial) {
            if let (Some(parallel), Ok(serial)) = (parallel, &serial.report) {
                if let Err(error) = checks::same_report(&job.spec.label, parallel, serial) {
                    tally.fail(error);
                }
            }
        }
    }

    fn figures(&self) -> Vec<Metric> {
        let pass = median(&self.pass_times);
        vec![
            metric("specs_per_s", self.grid.len() as f64 / pass, "1/s"),
            metric("job_p50_ms", percentile(&self.job_ms, 50.0), "ms"),
            metric("job_p95_ms", percentile(&self.job_ms, 95.0), "ms"),
        ]
    }

    fn layers(&mut self, _tally: &mut Tally) -> Vec<Metric> {
        let Some(t) = &self.traced else { return Vec::new() };
        let n = self.grid.len() as f64;
        let us = |ns: u64| ns as f64 / 1e3;
        let mean_us = |values: &[u64]| us(values.iter().sum::<u64>()) / values.len().max(1) as f64;
        let jobs_total: u64 = t.job_ns.iter().sum();
        let sched_ns = (WORKERS as f64 * (t.pass - t.parse).as_nanos() as f64) - jobs_total as f64;
        let mut out = vec![
            metric("sim.parse_us_per_spec", t.parse.as_secs_f64() * 1e6 / n, "us"),
            metric("sim.build_us_per_spec", mean_us(&t.build_ns), "us"),
            metric("sim.run_us_per_spec", mean_us(&t.run_ns), "us"),
            metric("sim.sweep_busy_frac", t.busy_frac, "frac"),
            metric("sim.sweep_sched_us_per_job", sched_ns / 1e3 / n, "us"),
        ];
        let mut by_family: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut by_defense: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (job, &ns) in self.grid.iter().zip(&t.run_ns) {
            let attack = job.spec.attack.as_ref().map_or("none", |a| a.token());
            by_family.entry(family_metric(job.family, attack)).or_default().push(ns);
            if job.family == Family::Hammer {
                if let [defense] = job.spec.defenses.as_slice() {
                    by_defense.entry(defense.name()).or_default().push(ns);
                }
            }
        }
        for (family, runs) in by_family {
            out.push(metric(format!("attacks.{family}.run_us"), mean_us(&runs), "us"));
        }
        for (defense, runs) in by_defense {
            out.push(metric(format!("defenses.{defense}.run_us"), mean_us(&runs), "us"));
        }
        out
    }

    fn geometries(&self) -> Vec<(String, u64)> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for job in &self.grid {
            *out.entry(format!("{}/{}", job.spec.geometry.token(), job.spec.engine))
                .or_default() += 1;
        }
        out.into_iter().collect()
    }

    fn denials(&self) -> (u64, u64) {
        self.last_reports.iter().flatten().fold((0, 0), |(denied, total), r| {
            (denied + r.controller.denied, total + r.controller.denied + r.controller.served)
        })
    }
}

/// The per-attack metric key: the attack families of the per-layer metrics, with
/// the CNN weight-fetch replay reported under its own attack token.
fn family_metric(family: Family, attack: &'static str) -> &'static str {
    match family {
        Family::CnnInference => attack,
        other => other.name(),
    }
}
