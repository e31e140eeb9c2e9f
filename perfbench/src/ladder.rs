//! The memory-chain ladder: the replay traces served rung by rung, each
//! rung one layer up the stack, so each layer's cost is its rung minus
//! the rung below. Rungs: `DramDevice` accesses on the decoded trace →
//! `MemoryController::service` → the same controller with the
//! DRAM-Locker hook → `ShardedEngine::replay` on `sharded(2)` →
//! `ScenarioRun::run`.

use std::time::{Duration, Instant};

use dram_locker::dram::{CommandKind, DramDevice, RowAddr};
use dram_locker::engine::TraceReplay;
use dram_locker::locker::{DramLocker, LockerConfig};
use dram_locker::memctrl::{AddressMapper, MemCtrlConfig, MemRequest, MemoryController, TraceOp};
use dram_locker::sim::{ChannelRouter, EngineConfig, Scenario, ShardedEngine};

use crate::alloc;
use crate::gen::{ReplayInput, ReplayShape, REPLAY_CHANNELS, VICTIM_ROW};
use crate::report::{median, metric, Metric};

/// Ladder repeats; each rung reports the median of its repeats.
const REPEATS: usize = 3;

/// One trace operation decoded to its channel, local address and row.
struct Decoded {
    channel: usize,
    local: u64,
    row: RowAddr,
    col: usize,
    op: TraceOp,
}

/// Host time of a rung, split by request kind when timed per request.
#[derive(Default, Clone, Copy)]
struct KindTimes {
    read: Duration,
    write: Duration,
}

#[derive(Default)]
pub struct Ladder {
    requests: u64,
    reads: u64,
    writes: u64,
    dram: Vec<Duration>,
    ctrl: Vec<Duration>,
    locked: Vec<Duration>,
    engine: Vec<Duration>,
    sim: Vec<Duration>,
    dram_kinds: KindTimes,
    ctrl_kinds: KindTimes,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
    ctrl_allocs: u64,
    rw_seen: u64,
    lock_hits: u64,
    swaps: u64,
    shard_skew: f64,
}

fn median_ns(samples: &[Duration], per: u64) -> f64 {
    median(&samples.iter().map(|d| d.as_nanos() as f64).collect::<Vec<_>>()) / per.max(1) as f64
}

impl Ladder {
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.requests;
        let per_kind = |t: Duration, count: u64| t.as_nanos() as f64 / count.max(1) as f64;
        let dram = median_ns(&self.dram, n);
        let ctrl = median_ns(&self.ctrl, n);
        let engine = median_ns(&self.engine, n);
        vec![
            metric("dram.ns_per_access", dram, "ns"),
            metric(
                "dram.row_hit_frac",
                self.row_hits as f64 / (self.row_hits + self.row_misses).max(1) as f64,
                "frac",
            ),
            metric("dram.refs_per_kreq", self.refreshes as f64 * 1e3 / n.max(1) as f64, "1/kreq"),
            metric(
                "memctrl.read_ns_per_req",
                per_kind(self.ctrl_kinds.read, self.reads)
                    - per_kind(self.dram_kinds.read, self.reads),
                "ns",
            ),
            metric(
                "memctrl.write_ns_per_req",
                per_kind(self.ctrl_kinds.write, self.writes)
                    - per_kind(self.dram_kinds.write, self.writes),
                "ns",
            ),
            metric("memctrl.allocs_per_req", self.ctrl_allocs as f64 / n.max(1) as f64, "count"),
            metric("locker.ns_per_req", median_ns(&self.locked, n) - ctrl, "ns"),
            metric(
                "locker.probe_hit_frac",
                self.lock_hits as f64 / self.rw_seen.max(1) as f64,
                "frac",
            ),
            metric(
                "locker.swaps_per_kreq",
                self.swaps as f64 * 1e3 / self.rw_seen.max(1) as f64,
                "1/kreq",
            ),
            metric("engine.ns_per_req", engine - ctrl, "ns"),
            metric("engine.shard_skew", self.shard_skew, "ratio"),
            metric("sim.replay_ns_per_req", median_ns(&self.sim, n) - engine, "ns"),
        ]
    }
}

fn decode(shape: &ReplayShape, input: &ReplayInput) -> Vec<Decoded> {
    let config = shape.geometry.config();
    let mapper = AddressMapper::new(config.dram.geometry, config.scheme);
    let router = ChannelRouter::new(REPLAY_CHANNELS, &mapper);
    input
        .trace
        .ops()
        .iter()
        .map(|op| {
            let addr = match op {
                TraceOp::Read { addr, .. } | TraceOp::Write { addr, .. } => *addr,
            };
            let (channel, local) = router.to_local(addr);
            let (row, col) = mapper.to_dram(local).expect("generated addresses map");
            Decoded { channel, local, row, col, op: op.clone() }
        })
        .collect()
}

fn requests(decoded: &[Decoded], untrusted: bool) -> Vec<(usize, MemRequest)> {
    decoded
        .iter()
        .map(|d| {
            let request = match &d.op {
                TraceOp::Read { len, .. } => MemRequest::read(d.local, *len),
                TraceOp::Write { payload, .. } => MemRequest::write(d.local, payload.clone()),
            };
            (d.channel, if untrusted { request.untrusted() } else { request })
        })
        .collect()
}

/// A controller per channel carrying DRAM-Locker, locking the rows
/// adjacent to each channel's row victim as the scenario's
/// `locker_adjacent` plan does.
fn locked_controllers(config: MemCtrlConfig, row_bytes: u64) -> Vec<MemoryController> {
    (0..REPLAY_CHANNELS)
        .map(|_| {
            let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
            for row in [VICTIM_ROW - 1, VICTIM_ROW + 1] {
                locker
                    .lock_phys_range(row * row_bytes, (row + 1) * row_bytes)
                    .expect("victim neighbours are inside the device");
            }
            MemoryController::with_hook(config, Box::new(locker))
        })
        .collect()
}

fn serve(
    ctrls: &mut [MemoryController],
    requests: Vec<(usize, MemRequest)>,
) -> Result<Duration, String> {
    let start = Instant::now();
    for (channel, request) in requests {
        ctrls[channel].service(request).map_err(|e| format!("ladder controller: {e}"))?;
    }
    Ok(start.elapsed())
}

/// Serves every decoded op once more, timing each request, to split a
/// rung's cost between reads and writes.
fn per_kind<E: std::fmt::Display>(
    decoded: &[Decoded],
    mut serve_one: impl FnMut(&Decoded) -> Result<(), E>,
) -> Result<KindTimes, String> {
    let mut times = KindTimes::default();
    for d in decoded {
        let start = Instant::now();
        serve_one(d).map_err(|e| format!("ladder: {e}"))?;
        let took = start.elapsed();
        match d.op {
            TraceOp::Read { .. } => times.read += took,
            TraceOp::Write { .. } => times.write += took,
        }
    }
    Ok(times)
}

/// Runs every rung over every trace, `REPEATS` times.
pub fn run(shape: &ReplayShape, inputs: &[ReplayInput]) -> Result<Ladder, String> {
    let config = shape.geometry.config();
    let decoded: Vec<Vec<Decoded>> = inputs.iter().map(|input| decode(shape, input)).collect();
    let mut ladder = Ladder::default();
    for d in decoded.iter().flatten() {
        ladder.requests += 1;
        match d.op {
            TraceOp::Read { .. } => ladder.reads += 1,
            TraceOp::Write { .. } => ladder.writes += 1,
        }
    }
    for repeat in 0..REPEATS {
        let first = repeat == 0;
        let (mut dram, mut ctrl, mut locked, mut engine, mut sim) = Default::default();
        for (input, ops) in inputs.iter().zip(&decoded) {
            let untrusted = input.trace.untrusted;
            let mut devices: Vec<DramDevice> =
                (0..REPLAY_CHANNELS).map(|_| DramDevice::new(config.dram)).collect();
            let start = Instant::now();
            for d in ops {
                let device = &mut devices[d.channel];
                match &d.op {
                    TraceOp::Read { len, .. } => device.access_read(d.row, d.col, *len).map(drop),
                    TraceOp::Write { payload, .. } => {
                        device.access_write(d.row, d.col, payload).map(drop)
                    }
                }
                .map_err(|e| format!("ladder device: {e}"))?;
            }
            dram += start.elapsed();
            if first {
                for device in &devices {
                    let stats = device.stats();
                    ladder.row_hits += stats.row_buffer_hits;
                    ladder.row_misses += stats.row_buffer_misses;
                    ladder.refreshes += stats.count(CommandKind::Ref);
                }
            }

            let mut ctrls: Vec<MemoryController> =
                (0..REPLAY_CHANNELS).map(|_| MemoryController::new(config)).collect();
            let reqs = requests(ops, untrusted);
            let allocs = alloc::allocations();
            ctrl += serve(&mut ctrls, reqs)?;
            if first {
                ladder.ctrl_allocs += alloc::allocations() - allocs;
            }

            let mut lockers = locked_controllers(config, shape.row_bytes);
            locked += serve(&mut lockers, requests(ops, untrusted))?;
            if first {
                for ctrl in &lockers {
                    let stats = ctrl
                        .hook()
                        .as_any()
                        .and_then(|hook| hook.downcast_ref::<DramLocker>())
                        .map(|locker| *locker.stats())
                        .expect("the mounted hook is DRAM-Locker");
                    ladder.rw_seen += stats.rw_seen;
                    ladder.lock_hits += stats.denies + stats.redirects;
                    ladder.swaps += stats.swaps;
                }
            }

            let mut sharded = ShardedEngine::new(EngineConfig::sharded(REPLAY_CHANNELS), config)
                .map_err(|e| format!("ladder engine: {e}"))?;
            let start = Instant::now();
            sharded
                .replay(TraceReplay::new(&input.trace))
                .map_err(|e| format!("ladder engine: {e}"))?;
            engine += start.elapsed();
            if first {
                let load: Vec<u64> = sharded
                    .shards()
                    .iter()
                    .map(|shard| shard.stats().served + shard.stats().denied)
                    .collect();
                let mean = load.iter().sum::<u64>() as f64 / load.len() as f64;
                let max = load.iter().copied().max().unwrap_or(0) as f64;
                ladder.shard_skew += max / mean.max(1.0) / inputs.len() as f64;
            }

            let spec = input.spec(shape, EngineConfig::sharded(REPLAY_CHANNELS), false);
            let mut run =
                Scenario::from_spec(&spec).map_err(|e| format!("ladder scenario: {e}"))?;
            let start = Instant::now();
            run.run().map_err(|e| format!("ladder scenario: {e}"))?;
            sim += start.elapsed();

            if first {
                let mut devices: Vec<DramDevice> =
                    (0..REPLAY_CHANNELS).map(|_| DramDevice::new(config.dram)).collect();
                let dram_kinds = per_kind(ops, |d| {
                    let device = &mut devices[d.channel];
                    match &d.op {
                        TraceOp::Read { len, .. } => {
                            device.access_read(d.row, d.col, *len).map(drop)
                        }
                        TraceOp::Write { payload, .. } => {
                            device.access_write(d.row, d.col, payload).map(drop)
                        }
                    }
                })?;
                let mut ctrls: Vec<MemoryController> =
                    (0..REPLAY_CHANNELS).map(|_| MemoryController::new(config)).collect();
                let mut reqs = requests(ops, untrusted).into_iter();
                let ctrl_kinds = per_kind(ops, |_| {
                    let (channel, request) = reqs.next().expect("one request per decoded op");
                    ctrls[channel].service(request).map(drop)
                })?;
                ladder.dram_kinds.read += dram_kinds.read;
                ladder.dram_kinds.write += dram_kinds.write;
                ladder.ctrl_kinds.read += ctrl_kinds.read;
                ladder.ctrl_kinds.write += ctrl_kinds.write;
            }
        }
        ladder.dram.push(dram);
        ladder.ctrl.push(ctrl);
        ladder.locked.push(locked);
        ladder.engine.push(engine);
        ladder.sim.push(sim);
    }
    Ok(ladder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{replay_input, trusted_input, Rng};
    use dram_locker::sim::{GeometrySpec, RunReport};

    fn locked_report(shape: &ReplayShape, input: &ReplayInput) -> RunReport {
        let spec = input.spec(shape, EngineConfig::sharded(REPLAY_CHANNELS), true);
        Scenario::from_spec(&spec).and_then(|mut run| run.run()).expect("replay runs")
    }

    #[test]
    fn locked_rung_denies_what_the_locked_scenario_denies() {
        let shape = ReplayShape::of(GeometrySpec::Tiny);
        let input = replay_input(&mut Rng::new(8), &shape, 4_000);
        let ladder = run(&shape, std::slice::from_ref(&input)).expect("the ladder runs");
        let report = locked_report(&shape, &input);
        assert!(report.denied > 0);
        assert_eq!(ladder.lock_hits, report.denied);
        assert_eq!(ladder.swaps, 0, "an untrusted trace never unlocks a row");
        assert_eq!(ladder.requests, report.requests);
        assert_eq!(ladder.refreshes, 0, "the tiny geometry never refreshes");
    }

    #[test]
    fn locked_rung_swaps_and_redirects_a_trusted_trace() {
        let shape = ReplayShape::of(GeometrySpec::Tiny);
        let input = trusted_input(&mut Rng::new(8), &shape, 4_000);
        let ladder = run(&shape, std::slice::from_ref(&input)).expect("the ladder runs");
        let report = locked_report(&shape, &input);
        assert_eq!(report.denied, 0);
        assert!(ladder.swaps > 0);
        assert_eq!(ladder.lock_hits, report.controller.redirected);
    }
}
