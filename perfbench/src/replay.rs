//! `replay` and `replay-ddr4`: seeded multi-tenant traces replayed through
//! `Scenario` + `AttackSpec::trace` on `sharded(2)`, once undefended and
//! once under DRAM-Locker. The memory chain does all the work and the
//! DNN sits idle. Half the traces carry an attacker's hammer loop, which
//! the locker denies; the other half are trusted and read the locked
//! rows, which the locker SWAPs and redirects. The two halves of a
//! trusted trace isolate the locker's cost.

use std::time::Duration;

use dram_locker::sim::{EngineConfig, GeometrySpec, RunReport, Scenario, ScenarioSpec};

use crate::checks;
use crate::gen::{self, ReplayInput, ReplayShape, Rng};
use crate::ladder;
use crate::report::{median, metric, Metric, Tally};
use crate::spans::Ctx;
use crate::Section;

/// Traces per pass (half attack, half trusted) and operations per trace.
pub const TRACES: usize = 8;
pub const TRACE_OPS: usize = 40_000;

/// One replay operation: a trace, defended or not.
struct Replay {
    trusted: bool,
    locked: bool,
    spec: ScenarioSpec,
    report: Option<RunReport>,
}

pub struct ReplayWorkload {
    shape: ReplayShape,
    inputs: Vec<ReplayInput>,
    replays: Vec<Replay>,
    /// Per pass: requests and host seconds of the completed replays.
    passes: Vec<(u64, Duration)>,
}

/// Generates the traces and replays each once, both halves, as warm-up
/// (a failure here shows up again in the timed passes).
pub fn setup(seed: u64, geometry: GeometrySpec) -> ReplayWorkload {
    let shape = ReplayShape::of(geometry);
    let mut rng = Rng::new(seed);
    let inputs: Vec<ReplayInput> = (0..TRACES / 2)
        .flat_map(|_| {
            let attack = gen::replay_input(&mut rng, &shape, TRACE_OPS);
            [attack, gen::trusted_input(&mut rng, &shape, TRACE_OPS)]
        })
        .collect();
    let replays: Vec<Replay> = inputs
        .iter()
        .flat_map(|input| {
            [false, true].map(|locked| Replay {
                trusted: !input.trace.untrusted,
                locked,
                spec: input.spec(&shape, EngineConfig::sharded(gen::REPLAY_CHANNELS), locked),
                report: None,
            })
        })
        .collect();
    for replay in &replays {
        let _ = Scenario::from_spec(&replay.spec).and_then(|mut run| run.run());
    }
    ReplayWorkload { shape, inputs, replays, passes: Vec::new() }
}

impl ReplayWorkload {
    fn completed(&self) -> impl Iterator<Item = (&Replay, &RunReport)> {
        self.replays.iter().filter_map(|r| r.report.as_ref().map(|report| (r, report)))
    }
}

impl Section for ReplayWorkload {
    fn pass(&mut self, ctx: Ctx, tally: &mut Tally) {
        let mut requests = 0;
        let mut host = Duration::ZERO;
        for (i, replay) in self.replays.iter_mut().enumerate() {
            let ctx = ctx.with_op(i as u64);
            let (result, _) = ctx.time("sim.replay", |ctx| {
                let (run, _) = ctx.time("sim.build", |_| Scenario::from_spec(&replay.spec));
                run.map(|mut run| ctx.time("sim.run", |_| run.run()))
            });
            let result = match result {
                Ok((Ok(report), took)) => {
                    requests += report.requests;
                    host += took;
                    let check = match (replay.trusted, replay.locked) {
                        (false, false) => checks::undefended_harmed(&report),
                        (false, true) => checks::locked_intact(&report),
                        // Trusted requests may touch the locked rows, so
                        // only service is checked, not the victims.
                        (true, true) => checks::locker_served_trusted(&report),
                        (true, false) => Ok(()),
                    };
                    replay.report = Some(report);
                    check
                }
                Ok((Err(e), _)) | Err(e) => {
                    replay.report = None;
                    Err(format!("{}: {e}", replay.spec.label))
                }
            };
            tally.op(result);
        }
        self.passes.push((requests, host));
    }

    /// Each completed `sharded(2)` report must equal the `serial-ref(2)`
    /// report on the same trace.
    fn check(&mut self, tally: &mut Tally) {
        for replay in &self.replays {
            let Some(report) = &replay.report else { continue };
            let spec = ScenarioSpec {
                engine: EngineConfig::serial_reference(gen::REPLAY_CHANNELS),
                ..replay.spec.clone()
            };
            let reference = Scenario::from_spec(&spec).and_then(|mut run| run.run());
            let result = match reference {
                Ok(reference) => checks::same_report(&replay.spec.label, report, &reference),
                Err(e) => Err(format!("{} on serial-ref: {e}", replay.spec.label)),
            };
            if let Err(error) = result {
                tally.fail(error);
            }
        }
    }

    /// Completed replays only; absent when none completed.
    fn figures(&self) -> Vec<Metric> {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .filter(|(requests, _)| *requests > 0)
            .map(|(requests, host)| *requests as f64 / host.as_secs_f64() / 1e6)
            .collect();
        if rates.is_empty() {
            return Vec::new();
        }
        let (mut cycles, mut requests) = (0u64, 0u64);
        for (_, report) in self.completed() {
            cycles += report.cycles;
            requests += report.requests;
        }
        let mut out = vec![
            metric("sim_mreq_per_s", median(&rates), "Mreq/s"),
            metric("sim_cycles_per_req", cycles as f64 / requests.max(1) as f64, "cycles"),
        ];
        // The locker's cost: cycles of a trusted trace under DRAM-Locker
        // over the same trace undefended. (On an attack trace the locker
        // also drops the hammer loop's accesses, which saves cycles.)
        let (mut locked, mut open) = (0u64, 0u64);
        for pair in self.replays.chunks(2).filter(|pair| pair[0].trusted) {
            if let [undefended, defended] = pair {
                if let (Some(u), Some(d)) = (&undefended.report, &defended.report) {
                    open += u.cycles;
                    locked += d.cycles;
                }
            }
        }
        if open > 0 {
            out.push(metric(
                "locker_cycle_overhead_pct",
                (locked as f64 / open as f64 - 1.0) * 100.0,
                "%",
            ));
        }
        out
    }

    /// Victims harmed under DRAM-Locker by trusted traffic: the locker
    /// lets trusted requests reach the locked rows through SWAPs, and
    /// each SWAP and relock activates the locked row next to the victim.
    fn claims(&self) -> Vec<Metric> {
        let victims: Vec<bool> = self
            .completed()
            .filter(|(replay, _)| replay.trusted && replay.locked)
            .flat_map(|(_, report)| report.victims.iter().map(|v| v.data_intact == Some(false)))
            .collect();
        if victims.is_empty() {
            return Vec::new();
        }
        let harmed = victims.iter().filter(|&&harmed| harmed).count();
        vec![metric(
            "trusted_locked.victims_harmed_frac",
            harmed as f64 / victims.len() as f64,
            "frac",
        )]
    }

    /// The memory-chain ladder over this workload's traces (tiny
    /// geometry only: the ladder's controllers are built bare).
    fn layers(&mut self, tally: &mut Tally) -> Vec<Metric> {
        if self.shape.geometry != GeometrySpec::Tiny {
            return Vec::new();
        }
        match ladder::run(&self.shape, &self.inputs) {
            Ok(ladder) => ladder.metrics(),
            Err(error) => {
                tally.fail(error);
                Vec::new()
            }
        }
    }

    fn geometries(&self) -> Vec<(String, u64)> {
        vec![(
            format!("{}/{}", self.shape.geometry.token(), EngineConfig::sharded(2)),
            self.replays.len() as u64,
        )]
    }

    fn denials(&self) -> (u64, u64) {
        self.completed().fold((0, 0), |(denied, total), (_, r)| {
            (denied + r.controller.denied, total + r.controller.denied + r.controller.served)
        })
    }
}
