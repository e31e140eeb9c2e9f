//! `ShardedEngine::replay` and `run_to_completion` share one drain
//! loop. For every `Workload` generator and a multi-tenant interleave
//! of them, on serial-reference and sharded engines of 1, 2 and 4
//! channels, under both scheduling policies, two identical engines —
//! one replaying the trace, one submitting it and draining with
//! `run_to_completion` — must agree: the replay's tally equals the
//! drained completions' count and denials, and the engine snapshots
//! are equal.

use dlk_dram::{DramDevice, RowAddr};
use dlk_engine::{EngineConfig, ReplayTally, ShardedEngine, Trace, TraceReplay, Workload};
use dlk_memctrl::{
    DefenseHook, HookAction, MemCtrlConfig, MemRequest, MemoryController, SchedulingPolicy,
};

/// Row size of the tiny test geometry, in bytes.
const ROW_BYTES: u64 = 64;
/// Capacity of one tiny channel, so every trace fits even one channel.
const SPAN: u64 = 256 * ROW_BYTES;

/// Denies untrusted requests to even local rows: the hook-deny path,
/// which charges only the check latency and advances the device.
struct DenyUntrustedEvenRows;

impl DefenseHook for DenyUntrustedEvenRows {
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        _dram: &mut DramDevice,
    ) -> HookAction {
        if request.untrusted && target.row.is_multiple_of(2) {
            HookAction::Deny
        } else {
            HookAction::Allow
        }
    }

    fn check_latency(&self) -> u64 {
        2
    }

    fn name(&self) -> &str {
        "deny-untrusted-even-rows"
    }
}

fn workloads() -> Vec<(&'static str, Trace)> {
    let sequential = Workload::Sequential { base: 0, len: 8, count: 1_500 };
    let strided = Workload::Strided { base: 4, stride: 200, len: 4, count: 80 };
    let chase = Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 2_000, seed: 5 };
    let hammer =
        Workload::HammerLoop { addr_a: 10 * ROW_BYTES, addr_b: 16 * ROW_BYTES, iterations: 500 };
    let mut mix = Workload::multi_tenant(&[
        sequential.clone(),
        strided.clone(),
        chase.clone(),
        hammer.clone(),
    ]);
    // An interleave carries one trust level; make the mix attacker-issued
    // so its hammer rows meet the hook's denials.
    mix.untrusted = true;
    vec![
        ("sequential", sequential.trace()),
        ("strided", strided.trace()),
        ("pointer-chase", chase.trace()),
        ("hammer-loop", hammer.trace()),
        ("multi-tenant", mix),
    ]
}

fn engine(config: EngineConfig, policy: SchedulingPolicy) -> ShardedEngine {
    let ctrl_config = MemCtrlConfig { policy, ..MemCtrlConfig::tiny_for_tests() };
    ShardedEngine::with_controllers(config, |_| {
        MemoryController::with_hook(ctrl_config, Box::new(DenyUntrustedEvenRows))
    })
    .expect("engine builds")
}

#[test]
fn replay_tally_matches_run_to_completion_on_every_workload() {
    let mut denials_seen = 0;
    for (name, trace) in workloads() {
        for channels in [1, 2, 4] {
            for config in
                [EngineConfig::serial_reference(channels), EngineConfig::sharded(channels)]
            {
                for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::FrFcfs] {
                    let case = format!("{name} on {config} with {policy:?}");

                    let mut replayed = engine(config, policy);
                    let tally = replayed.replay(TraceReplay::new(&trace)).expect(&case);

                    let mut drained = engine(config, policy);
                    for request in trace.requests() {
                        drained.submit(request);
                    }
                    let outcome = drained.run_to_completion().expect(&case);

                    let expected =
                        ReplayTally { requests: outcome.len() as u64, denied: outcome.denied() };
                    assert_eq!(tally, expected, "{case}");
                    assert_eq!(tally.requests, trace.len() as u64, "{case}");
                    assert_eq!(replayed.snapshot(), drained.snapshot(), "{case}");
                    denials_seen += tally.denied;
                }
            }
        }
    }
    assert!(denials_seen > 0, "the hook must deny part of the untrusted traffic");
}
