//! Exact pins on deterministic costs: device cycles, serviced
//! requests, decoded µops, SWAPs, redirects and heap allocations per
//! serviced request. None of these depends on the host, so each is
//! `assert_eq!`ed to an exact value and any change to the simulated
//! memory chain's cost shows up here as a failing test, never as
//! wall-clock noise. Wall-clock is measured by `perfbench/` instead.
//!
//! When a change moves one of these numbers on purpose, update the pin
//! in the same change and say why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dram_locker::dram::{DramConfig, DramDevice, RowAddr};
use dram_locker::engine::{EngineConfig, ShardedEngine, TraceReplay, Workload};
use dram_locker::locker::{
    CompiledProgram, DramLocker, LockTarget, LockerConfig, MicroExecutor, MicroProgram, RegFile,
};
use dram_locker::memctrl::{MemCtrlConfig, MemRequest, MemoryController, Trace};
use dram_locker::sim::{DefenseSpec, Scenario, VictimSpec};

thread_local! {
    /// Allocations made by the current thread. Const-initialised with
    /// no destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts allocations per
/// thread, so concurrently running tests do not see each other's.
struct Counting;

fn count_alloc() {
    let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded from our caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Row size of the tiny test geometry, in bytes.
const ROW_BYTES: u64 = 64;

/// The sharding trace: three pointer chasers and a streaming pass
/// confined to the single-channel capacity (256 tiny rows), so the
/// same global trace is valid on every engine width.
fn sharding_trace() -> Trace {
    const SPAN: u64 = 256 * ROW_BYTES;
    Workload::multi_tenant(&[
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 9 },
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 10 },
        Workload::PointerChase { base: 0, span: SPAN, len: 8, count: 12_000, seed: 11 },
        Workload::Sequential { base: 0, len: 8, count: 2_000 },
    ])
}

/// Device cycles (max over channels) and serviced requests of the
/// sharding trace on a fresh `channels`-wide engine.
fn sharded_replay(channels: usize) -> (u64, u64) {
    let mut engine =
        ShardedEngine::new(EngineConfig::sharded(channels), MemCtrlConfig::tiny_for_tests())
            .expect("engine builds");
    engine.replay(TraceReplay::new(&sharding_trace())).expect("replay runs");
    let snapshot = engine.snapshot();
    (snapshot.cycles, snapshot.controller.served)
}

#[test]
fn sharded_replay_cycles_and_requests() {
    assert_eq!(sharded_replay(1), (1_938_848, 38_000));
    assert_eq!(sharded_replay(2), (1_038_823, 38_000));
    assert_eq!(sharded_replay(4), (511_746, 38_000));
}

/// The lock-policy ablation: a locker scenario protecting data rows
/// 10..12, driven with 2 000 trusted reads (every tenth one touching
/// the neighbour row 9) before the run reports. Returns the report's
/// `(redirected, denied, total_latency)`.
fn ablation(relock_interval: u64, target: LockTarget) -> (u64, u64, u64) {
    let config = LockerConfig { relock_interval, ..LockerConfig::default() };
    let mut run = Scenario::builder()
        .label("ablation")
        .victim(VictimSpec::row_span(10, 2, 0xA5))
        .defense(DefenseSpec::Locker { config, target, radius: 1 })
        .build()
        .expect("scenario builds");
    let ctrl = run.controller_mut();
    let row_bytes = ctrl.geometry().row_bytes as u64;
    for index in 0..2_000u64 {
        let row = if index % 10 == 0 { 9 } else { 10 + index % 2 };
        ctrl.service(MemRequest::read(row * row_bytes, 1)).expect("workload runs");
    }
    let report = run.run().expect("scenario runs");
    let stats = report.controller;
    (stats.redirected, stats.denied, stats.total_latency)
}

#[test]
fn ablation_relock_interval() {
    let got = [100, 1_000, 10_000].map(|interval| ablation(interval, LockTarget::AdjacentRows));
    assert_eq!(got, [(200, 0, 111_540), (200, 0, 111_954), (200, 0, 111_977)]);
}

#[test]
fn ablation_lock_target() {
    let got = [LockTarget::AdjacentRows, LockTarget::DataRows, LockTarget::Both]
        .map(|target| ablation(1_000, target));
    assert_eq!(got, [(200, 0, 111_954), (1_800, 0, 111_885), (2_000, 0, 111_862)]);
}

/// The paper's SWAP micro-program decodes to four µops (three AAP
/// copies and `done`) and costs a fixed number of tiny-DRAM cycles.
#[test]
fn swap_program_uops_and_cycles() {
    let words = MicroProgram::swap(0, 1, 2).assemble();
    let program = CompiledProgram::from_words(&words).expect("canonical SWAP");
    assert_eq!(program.len(), 4);

    let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
    let mut regs = RegFile::new();
    regs.bind_row(0, RowAddr::new(0, 0, 1));
    regs.bind_row(1, RowAddr::new(0, 0, 2));
    regs.bind_row(2, RowAddr::new(0, 0, 3));
    let report = MicroExecutor::new().run_compiled(&program, &mut regs, &mut dram).expect("runs");
    assert_eq!((report.steps, report.copies, report.cycles), (4, 3, 165));
}

/// Rows 3..6 locked by DRAM-Locker, or no defense at all.
fn controller(locked: bool) -> MemoryController {
    let config = MemCtrlConfig::tiny_for_tests();
    if !locked {
        return MemoryController::new(config);
    }
    let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
    locker.lock_phys_range(3 * ROW_BYTES, 6 * ROW_BYTES).expect("lock rows 3..6");
    MemoryController::with_hook(config, Box::new(locker))
}

/// One trusted replay (a pointer chase over rows 0..32, so it reads
/// the locked rows) serviced request by request. Returns the device
/// cycles, the locker's SWAPs and the controller's redirects.
fn trusted_replay(locked: bool) -> (u64, u64, u64) {
    let mut ctrl = controller(locked);
    let trace =
        Workload::PointerChase { base: 0, span: 32 * ROW_BYTES, len: 8, count: 4_000, seed: 7 }
            .trace();
    for request in trace.requests() {
        let done = ctrl.service(request).expect("trusted read serves");
        assert!(!done.denied, "a trusted read is never denied");
    }
    let swaps = ctrl
        .hook()
        .as_any()
        .and_then(|hook| hook.downcast_ref::<DramLocker>())
        .map_or(0, |locker| locker.stats().swaps);
    (ctrl.dram().stats().cycles, swaps, ctrl.stats().redirected)
}

#[test]
fn trusted_replay_under_locker_vs_undefended() {
    assert_eq!(trusted_replay(false), (214_276, 0, 0));
    assert_eq!(trusted_replay(true), (217_741, 12, 401));
}

/// Heap allocations inside one steady-state `service` call: a served
/// read, a served write and a read the locker denies. The request is
/// built and the completion dropped outside the counted region.
#[test]
fn allocations_per_service_call() {
    let mut ctrl = controller(true);
    // Warm the touched rows so first-touch storage is not counted.
    ctrl.service(MemRequest::write(0, vec![1; 8])).expect("warm write");
    ctrl.service(MemRequest::read(0, 8)).expect("warm read");
    ctrl.service(MemRequest::read(4 * ROW_BYTES, 8).untrusted()).expect("warm deny");

    let read = MemRequest::read(0, 8);
    let (read_allocs, done) = allocations(|| ctrl.service(read));
    assert!(!done.expect("read serves").denied);

    let write = MemRequest::write(0, vec![2; 8]);
    let (write_allocs, done) = allocations(|| ctrl.service(write));
    assert!(!done.expect("write serves").denied);

    let denied = MemRequest::read(4 * ROW_BYTES, 8).untrusted();
    let (denied_allocs, done) = allocations(|| ctrl.service(denied));
    assert!(done.expect("denied read completes").denied);

    // The served read's one allocation is its returned data buffer.
    assert_eq!((read_allocs, write_allocs, denied_allocs), (1, 0, 0));
}

/// Heap allocations inside one steady-state `submit` + `step` on the
/// queued path: a served write and a read the locker denies. The
/// request is built and the completion dropped outside the counted
/// region; the scheduler reads the banks' open rows in place.
#[test]
fn allocations_per_queued_step() {
    let mut ctrl = controller(true);
    // Warm the touched rows and the queue's buffer.
    ctrl.submit(MemRequest::write(0, vec![1; 8]));
    ctrl.submit(MemRequest::read(4 * ROW_BYTES, 8).untrusted());
    ctrl.run_to_completion().expect("warm-up drains");

    let write = MemRequest::write(0, vec![2; 8]);
    let (write_allocs, done) = allocations(|| {
        ctrl.submit(write);
        ctrl.step()
    });
    assert!(!done.expect("write serves").expect("one queued").denied);

    let denied = MemRequest::read(4 * ROW_BYTES, 8).untrusted();
    let (denied_allocs, done) = allocations(|| {
        ctrl.submit(denied);
        ctrl.step()
    });
    assert!(done.expect("denied read completes").expect("one queued").denied);

    assert_eq!((write_allocs, denied_allocs), (0, 0));
}
