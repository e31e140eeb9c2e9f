//! Parity pins for request servicing: immediate
//! `MemoryController::service` and the queued `submit` →
//! `run_to_completion` loop must be behaviourally identical — same
//! completions, same statistics, same device state — because both run
//! through the one `prepare`/`service_mapped` head and the FCFS queue
//! preserves submission order.

use dram_locker::locker::{DramLocker, LockerConfig};
use dram_locker::memctrl::{
    ControllerStats, MemCtrlConfig, MemRequest, MemoryController, RequestKind,
};

/// Deterministic xorshift for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A randomized but always-mappable request mix: reads and writes
/// across every row, a slice of untrusted requests into an
/// OS-protected range (→ os_faults), and traffic into locker-locked
/// rows (→ denials).
fn request_mix(seed: u64, count: usize, row_bytes: u64, total_rows: u64) -> Vec<MemRequest> {
    let mut rng = Rng(seed | 1);
    (0..count)
        .map(|_| {
            let row = rng.next() % total_rows;
            let offset = rng.next() % (row_bytes - 8);
            let addr = row * row_bytes + offset;
            let len = 1 + (rng.next() % 8) as usize;
            let request = if rng.next().is_multiple_of(4) {
                MemRequest::write(addr, vec![(rng.next() & 0xFF) as u8; len])
            } else {
                MemRequest::read(addr, len)
            };
            if rng.next().is_multiple_of(3) {
                request.untrusted()
            } else {
                request
            }
        })
        .collect()
}

/// Builds a controller with an OS-protected range and a DRAM-Locker
/// hook with a few locked rows, so the mix exercises every completion
/// flavour (served, os-faulted, denied).
fn controller_under_test() -> MemoryController {
    let config = MemCtrlConfig::tiny_for_tests();
    let row_bytes = config.dram.geometry.row_bytes as u64;
    let mut locker = DramLocker::new(LockerConfig::default(), config.dram.geometry);
    locker.lock_phys_range(3 * row_bytes, 16 * row_bytes).expect("lock rows 3..16");
    let mut ctrl = MemoryController::with_hook(config, Box::new(locker));
    ctrl.os_protect_range(32 * row_bytes, 64 * row_bytes);
    ctrl
}

fn outcome(stats: &ControllerStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        stats.served,
        stats.denied,
        stats.redirected,
        stats.os_faults,
        stats.reads,
        stats.writes,
        stats.total_latency,
    )
}

#[test]
fn queued_loop_stats_identical_to_per_request_service() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let mut per_request = controller_under_test();
        let mut queued = controller_under_test();
        let geometry = per_request.geometry();
        let mix = request_mix(seed, 400, geometry.row_bytes as u64, geometry.total_rows());

        let mut singles = Vec::with_capacity(mix.len());
        for request in &mix {
            singles.push(per_request.service(request.clone()).expect("mappable"));
        }
        // Drain the same requests in uneven chunks so drain boundaries
        // land mid-pattern.
        let mut drained = Vec::with_capacity(mix.len());
        for chunk in mix.chunks(7) {
            for request in chunk {
                queued.submit(request.clone());
            }
            drained.extend(queued.run_to_completion().expect("mappable"));
        }

        assert_eq!(singles.len(), drained.len());
        for (single, queued) in singles.iter().zip(&drained) {
            assert_eq!(single.request.id, queued.request.id, "same request stream");
            assert_eq!(single.denied, queued.denied, "denial parity for {}", single.request);
            assert_eq!(single.latency, queued.latency, "latency parity for {}", single.request);
            assert_eq!(single.data, queued.data, "data parity for {}", single.request);
        }
        assert_eq!(
            outcome(per_request.stats()),
            outcome(queued.stats()),
            "stats diverged for seed {seed}"
        );
        assert_eq!(per_request.dram().stats(), queued.dram().stats(), "device diverged");
        // The mix must actually exercise all three completion paths,
        // or the parity claim is vacuous.
        let stats = per_request.stats();
        assert!(stats.served > 0, "mix never reached the device");
        assert!(stats.os_faults > 0, "mix never OS-faulted");
        assert!(stats.denied > 0, "mix never hit a locked row");
    }
}

#[test]
fn queued_read_data_matches_prior_writes() {
    let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
    let row_bytes = ctrl.geometry().row_bytes as u64;
    for i in 0..8 {
        ctrl.submit(MemRequest::write(i * row_bytes, vec![i as u8 + 1; 4]));
    }
    ctrl.run_to_completion().expect("writes");
    for i in 0..8 {
        ctrl.submit(MemRequest::read(i * row_bytes, 4));
    }
    let done = ctrl.run_to_completion().expect("reads");
    for (i, completed) in done.iter().enumerate() {
        assert_eq!(completed.request.kind, RequestKind::Read);
        assert_eq!(completed.data.as_deref(), Some(&[i as u8 + 1; 4][..]));
    }
}
