//! The memory controller.
//!
//! Accepts [`MemRequest`]s, schedules them, consults the installed
//! [`DefenseHook`], and drives the [`DramDevice`]. Denied requests are
//! *skipped*: no DRAM command is issued and only the hook's check
//! latency is charged — matching the paper's observation that invalid
//! (locked-row) instructions cost nothing downstream.

use serde::{Deserialize, Serialize};

use dlk_dram::{DramConfig, DramDevice, DramGeometry, RowAddr};

use crate::error::MemCtrlError;
use crate::interpose::{DefenseHook, HookAction, NoDefense};
use crate::mapping::{AddressMapper, MappingScheme};
use crate::metrics::CtrlMetrics;
use crate::request::{MemRequest, RequestKind};
use crate::scheduler::{RequestQueue, SchedulingPolicy};

/// Configuration of a [`MemoryController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemCtrlConfig {
    /// DRAM device configuration.
    pub dram: DramConfig,
    /// Address interleaving scheme.
    pub scheme: MappingScheme,
    /// Request scheduling policy.
    pub policy: SchedulingPolicy,
}

impl Default for MemCtrlConfig {
    fn default() -> Self {
        Self {
            dram: DramConfig::default(),
            scheme: MappingScheme::BankSequential,
            policy: SchedulingPolicy::Fcfs,
        }
    }
}

impl MemCtrlConfig {
    /// Small configuration for unit tests.
    pub fn tiny_for_tests() -> Self {
        Self {
            dram: DramConfig::tiny_for_tests(),
            scheme: MappingScheme::BankSequential,
            policy: SchedulingPolicy::Fcfs,
        }
    }
}

/// One row of the per-kind action table: how a request kind touches
/// the device and which statistics it bumps. Indexed by
/// [`RequestKind::index`], this replaces the per-request match
/// dispatch that used to sit in the servicing hot loop.
struct KindAction {
    /// `true` if the DRAM access is a read returning data.
    is_read: bool,
    /// Increment applied to [`ControllerStats::reads`].
    reads: u64,
    /// Increment applied to [`ControllerStats::writes`].
    writes: u64,
}

/// The flat action table consulted by [`MemoryController::service_mapped`]
/// — the one servicing tail shared by `service` and the queued `step`
/// loop.
const KIND_ACTIONS: [KindAction; RequestKind::COUNT] = [
    KindAction { is_read: true, reads: 1, writes: 0 },
    KindAction { is_read: false, reads: 0, writes: 1 },
];

/// A served (or skipped) request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: MemRequest,
    /// `true` if the defense denied the access (skipped instruction).
    pub denied: bool,
    /// Cycles from de-queue to completion, including hook latency.
    pub latency: u64,
    /// Data returned for reads that were served.
    pub data: Option<Vec<u8>>,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Requests served against DRAM.
    pub served: u64,
    /// Requests denied by the defense hook.
    pub denied: u64,
    /// Requests redirected by the defense hook.
    pub redirected: u64,
    /// Untrusted requests rejected by OS page protection (virtual
    /// memory isolation — before any hardware defense is consulted).
    pub os_faults: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Sum of request latencies in cycles.
    pub total_latency: u64,
}

impl ControllerStats {
    /// Mean latency per completed request in cycles. Returns `0.0`
    /// (never `NaN`) when no request completed — e.g. an empty-trace
    /// replay.
    pub fn mean_latency(&self) -> f64 {
        let total = self.served + self.denied;
        if total == 0 {
            0.0
        } else {
            self.total_latency as f64 / total as f64
        }
    }

    /// Fraction of requests the defense denied, in `[0, 1]`. Returns
    /// `0.0` (never `NaN`) when no request completed.
    pub fn denial_rate(&self) -> f64 {
        let total = self.served + self.denied;
        if total == 0 {
            0.0
        } else {
            self.denied as f64 / total as f64
        }
    }

    /// Accumulates another channel's statistics into this one — the
    /// shard-merge primitive of the sharded execution engine. Field
    /// order is fixed, so merging shard stats in channel order is
    /// deterministic.
    pub fn merge(&mut self, other: &ControllerStats) {
        self.served += other.served;
        self.denied += other.denied;
        self.redirected += other.redirected;
        self.os_faults += other.os_faults;
        self.reads += other.reads;
        self.writes += other.writes;
        self.total_latency += other.total_latency;
    }
}

/// The memory controller: queue + mapper + defense hook + DRAM device.
///
/// # Example
///
/// ```
/// use dlk_memctrl::{MemoryController, MemCtrlConfig, MemRequest};
///
/// # fn main() -> Result<(), dlk_memctrl::MemCtrlError> {
/// let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
/// ctrl.submit(MemRequest::write(0, vec![42]));
/// ctrl.submit(MemRequest::read(0, 1));
/// let done = ctrl.run_to_completion()?;
/// assert_eq!(done[1].data.as_deref(), Some(&[42u8][..]));
/// # Ok(())
/// # }
/// ```
pub struct MemoryController {
    dram: DramDevice,
    mapper: AddressMapper,
    queue: RequestQueue,
    hook: Box<dyn DefenseHook>,
    stats: ControllerStats,
    metrics: CtrlMetrics,
    /// Physical byte ranges untrusted processes cannot touch (the OS's
    /// virtual-memory isolation of victim-owned pages).
    os_protected: Vec<(u64, u64)>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mapper", &self.mapper)
            .field("pending", &self.queue.len())
            .field("hook", &self.hook.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryController {
    /// Creates a controller with no defense installed.
    pub fn new(config: MemCtrlConfig) -> Self {
        Self::with_hook(config, Box::new(NoDefense))
    }

    /// Creates a controller with a defense hook installed.
    pub fn with_hook(config: MemCtrlConfig, hook: Box<dyn DefenseHook>) -> Self {
        let dram = DramDevice::new(config.dram);
        let mapper = AddressMapper::new(config.dram.geometry, config.scheme);
        Self {
            dram,
            mapper,
            queue: RequestQueue::new(config.policy),
            hook,
            stats: ControllerStats::default(),
            metrics: CtrlMetrics::new(),
            os_protected: Vec::new(),
        }
    }

    /// Marks the physical byte range `[start, end)` as owned by the
    /// victim: untrusted requests inside it fault at the OS level
    /// (page permissions), before any hardware defense is consulted.
    /// An attacker can therefore only *activate* rows it owns — the
    /// premise of the paper's MLaaS threat model.
    pub fn os_protect_range(&mut self, start: u64, end: u64) {
        self.os_protected.push((start, end));
    }

    fn os_faults(&self, request: &MemRequest) -> bool {
        request.untrusted
            && self.os_protected.iter().any(|&(start, end)| {
                request.addr < end && request.addr + request.len as u64 > start
            })
    }

    /// Replaces the defense hook, returning the old one.
    pub fn set_hook(&mut self, hook: Box<dyn DefenseHook>) -> Box<dyn DefenseHook> {
        std::mem::replace(&mut self.hook, hook)
    }

    /// The installed hook.
    pub fn hook(&self) -> &dyn DefenseHook {
        self.hook.as_ref()
    }

    /// Mutable access to the installed hook (e.g. to inspect or update
    /// a DRAM-Locker lock table mid-run).
    pub fn hook_mut(&mut self) -> &mut dyn DefenseHook {
        self.hook.as_mut()
    }

    /// The DRAM geometry.
    pub fn geometry(&self) -> DramGeometry {
        *self.dram.geometry()
    }

    /// The address mapper.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The DRAM device (read-only).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable access to the DRAM device (fault injection, inspection).
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        &mut self.dram
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The local metrics this controller has recorded.
    pub fn metrics(&self) -> &CtrlMetrics {
        &self.metrics
    }

    /// Folds everything recorded since the last export into `registry`
    /// under `<prefix>.*` (see [`CtrlMetrics::export_into`]). Delta
    /// export: repeated calls never double-count, and controllers of
    /// different shards exporting to one prefix aggregate.
    pub fn export_obs(&mut self, registry: &dlk_obs::Registry, prefix: &str) {
        self.metrics.export_into(registry, prefix);
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request.
    pub fn submit(&mut self, request: MemRequest) {
        match self.mapper.to_dram(request.addr) {
            Ok((row, _)) => self.queue.push_mapped(request, row),
            // Defer the error to service time so the caller sees it.
            Err(_) => self.queue.push(request),
        }
    }

    /// Serves the next scheduled request, if any.
    ///
    /// # Errors
    ///
    /// Returns an error for unmappable addresses or row-spanning
    /// requests; the DRAM device state is unchanged in that case.
    pub fn step(&mut self) -> Result<Option<CompletedRequest>, MemCtrlError> {
        let banks: Vec<Option<RowAddr>> =
            (0..self.geometry().banks).map(|b| self.dram.open_row_of(b)).collect();
        let Some(request) = self.queue.pop(|bank| banks.get(bank as usize).copied().flatten())
        else {
            return Ok(None);
        };
        self.service(request).map(Some)
    }

    /// The shared validation head of every servicing path: the OS
    /// page-protection fault comes first (before any address
    /// validation — an untrusted request into a protected range is
    /// denied, never an error), then address mapping and the
    /// row-boundary check. `Ok(None)` means the request OS-faults.
    ///
    /// # Errors
    ///
    /// Returns an error for unmappable addresses or row-spanning
    /// requests.
    fn prepare(&self, request: &MemRequest) -> Result<Option<(RowAddr, usize)>, MemCtrlError> {
        if self.os_faults(request) {
            return Ok(None);
        }
        let (row, col) = self.mapper.to_dram(request.addr)?;
        if col + request.len > self.geometry().row_bytes {
            return Err(MemCtrlError::SpansRowBoundary { addr: request.addr, len: request.len });
        }
        Ok(Some((row, col)))
    }

    /// Completes an OS-faulting request: denied, zero latency, no
    /// device access.
    fn complete_os_fault(&mut self, request: MemRequest) -> CompletedRequest {
        self.stats.os_faults += 1;
        self.metrics.os_faults += 1;
        CompletedRequest { request, denied: true, latency: 0, data: None }
    }

    /// Serves one request immediately, bypassing the queue.
    ///
    /// # Errors
    ///
    /// Returns an error for unmappable addresses or row-spanning
    /// requests.
    pub fn service(&mut self, request: MemRequest) -> Result<CompletedRequest, MemCtrlError> {
        match self.prepare(&request)? {
            None => Ok(self.complete_os_fault(request)),
            Some((row, col)) => self.service_mapped(request, row, col),
        }
    }

    /// The one servicing tail behind [`MemoryController::service`] and
    /// the queued step loop: hook consultation, the per-kind
    /// action-table dispatch and the DRAM access for an
    /// already-validated request.
    fn service_mapped(
        &mut self,
        request: MemRequest,
        row: RowAddr,
        col: usize,
    ) -> Result<CompletedRequest, MemCtrlError> {
        let mut latency = self.hook.check_latency();
        let action = self.hook.before_access(&request, row, &mut self.dram);
        let (row, col) = match action {
            HookAction::Allow => (row, col),
            HookAction::Deny => {
                self.stats.denied += 1;
                self.stats.total_latency += latency;
                self.metrics.denied += 1;
                self.metrics.record_latency(request.kind, latency);
                self.dram.advance(latency);
                return Ok(CompletedRequest { request, denied: true, latency, data: None });
            }
            HookAction::Redirect(new_row) => {
                self.stats.redirected += 1;
                self.metrics.redirected += 1;
                (new_row, col)
            }
        };
        let kind = &KIND_ACTIONS[request.kind.index()];
        let (data, access) = if kind.is_read {
            let (data, access) = self.dram.access_read(row, col, request.len)?;
            (Some(data), access)
        } else {
            (None, self.dram.access_write(row, col, &request.payload)?)
        };
        latency += access.cycles;
        if access.activated {
            self.hook.on_activate(row, &mut self.dram);
        }
        self.stats.reads += kind.reads;
        self.stats.writes += kind.writes;
        self.stats.served += 1;
        self.stats.total_latency += latency;
        self.metrics.served += 1;
        self.metrics.record_latency(request.kind, latency);
        Ok(CompletedRequest { request, denied: false, latency, data })
    }

    /// Serves every queued request in scheduling order.
    ///
    /// # Errors
    ///
    /// Stops at the first failing request.
    pub fn run_to_completion(&mut self) -> Result<Vec<CompletedRequest>, MemCtrlError> {
        let mut done = Vec::with_capacity(self.queue.len());
        while let Some(completed) = self.step()? {
            done.push(completed);
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        ctrl.submit(MemRequest::write(0x10, vec![9, 8, 7]));
        ctrl.submit(MemRequest::read(0x10, 3));
        let done = ctrl.run_to_completion().unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].data.as_deref(), Some(&[9u8, 8, 7][..]));
        assert_eq!(ctrl.stats().served, 2);
        assert!(ctrl.stats().mean_latency() > 0.0);
    }

    #[test]
    fn row_spanning_request_rejected() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes;
        let req = MemRequest::read(row_bytes as u64 - 1, 2);
        assert!(matches!(ctrl.service(req), Err(MemCtrlError::SpansRowBoundary { .. })));
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let capacity = ctrl.mapper().capacity();
        ctrl.submit(MemRequest::read(capacity, 1));
        assert!(ctrl.run_to_completion().is_err());
    }

    struct DenyAll;
    impl DefenseHook for DenyAll {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Deny
        }
        fn check_latency(&self) -> u64 {
            3
        }
        fn name(&self) -> &str {
            "deny-all"
        }
    }

    #[test]
    fn denied_requests_skip_dram() {
        let mut ctrl =
            MemoryController::with_hook(MemCtrlConfig::tiny_for_tests(), Box::new(DenyAll));
        ctrl.submit(MemRequest::read(0, 1));
        let done = ctrl.run_to_completion().unwrap();
        assert!(done[0].denied);
        assert_eq!(done[0].latency, 3);
        assert_eq!(ctrl.stats().denied, 1);
        assert_eq!(ctrl.stats().served, 0);
        assert_eq!(ctrl.dram().stats().total_activations(), 0);
    }

    struct RedirectTo(RowAddr);
    impl DefenseHook for RedirectTo {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Redirect(self.0)
        }
        fn name(&self) -> &str {
            "redirect"
        }
    }

    #[test]
    fn redirected_request_reads_other_row_same_column() {
        let mut ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        let row_bytes = ctrl.geometry().row_bytes as u64;
        // Write 0xEE at row 4, column 0x10.
        ctrl.submit(MemRequest::write(4 * row_bytes + 0x10, vec![0xEE]));
        ctrl.run_to_completion().unwrap();
        ctrl.set_hook(Box::new(RedirectTo(RowAddr::new(0, 0, 4))));
        // Read row 0 column 0x10 — redirected to row 4, same column.
        let done = ctrl.service(MemRequest::read(0x10, 1)).unwrap();
        assert_eq!(done.data.as_deref(), Some(&[0xEEu8][..]));
        assert_eq!(ctrl.stats().redirected, 1);
    }

    struct CountActs(std::sync::Arc<std::sync::atomic::AtomicU64>);
    impl DefenseHook for CountActs {
        fn before_access(
            &mut self,
            _request: &MemRequest,
            _target: RowAddr,
            _dram: &mut DramDevice,
        ) -> HookAction {
            HookAction::Allow
        }
        fn on_activate(&mut self, _row: RowAddr, _dram: &mut DramDevice) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn name(&self) -> &str {
            "count"
        }
    }

    #[test]
    fn hook_observes_activations_not_row_hits() {
        let acts = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ctrl = MemoryController::with_hook(
            MemCtrlConfig::tiny_for_tests(),
            Box::new(CountActs(acts.clone())),
        );
        // Same row twice: one activation, one row-buffer hit.
        ctrl.submit(MemRequest::read(0, 1));
        ctrl.submit(MemRequest::read(8, 1));
        ctrl.run_to_completion().unwrap();
        assert_eq!(acts.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    /// With auto-refresh on, a refresh that falls due mid-stream is
    /// caught up before an access, never between its PRE/ACT/RD/WR:
    /// every request is served, reads see the last write, and the hook
    /// sees exactly the activations the device performed.
    #[test]
    fn auto_refresh_never_interrupts_an_access() {
        let mut config = MemCtrlConfig::tiny_for_tests();
        config.dram.auto_refresh = true;
        config.dram.timing.trefi = 2_000;
        config.dram.timing.trefw = 20_000;
        // No RowHammer flips: the shadow copy checks the refresh path only.
        config.dram.hammer.trh = u64::MAX;
        let acts = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ctrl = MemoryController::with_hook(config, Box::new(CountActs(acts.clone())));
        let row_bytes = ctrl.geometry().row_bytes as u64;
        let span = 8 * row_bytes;
        let mut shadow = vec![0u8; span as usize];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..2_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = state >> 33;
            let addr = (draw % 8) * row_bytes + (draw / 8) % (row_bytes - 4);
            let at = addr as usize..addr as usize + 4;
            if (draw >> 24) & 1 == 0 {
                let payload = (i as u32).to_le_bytes().to_vec();
                shadow[at].copy_from_slice(&payload);
                ctrl.service(MemRequest::write(addr, payload)).unwrap();
            } else {
                let done = ctrl.service(MemRequest::read(addr, 4)).unwrap();
                assert_eq!(done.data.as_deref(), Some(&shadow[at]), "request {i}");
            }
        }
        let dram = ctrl.dram().stats();
        assert!(dram.count(dlk_dram::CommandKind::Ref) > 0, "refresh must fall due mid-stream");
        assert!(dram.row_buffer_hits > 0, "the stream must mix row hits and misses");
        assert_eq!(
            acts.load(std::sync::atomic::Ordering::Relaxed),
            dram.count(dlk_dram::CommandKind::Act)
        );
    }

    /// Immediate `service` and the queued `submit`/`run_to_completion`
    /// loop share one servicing tail: under FCFS they give identical
    /// completions, statistics and device state.
    #[test]
    fn service_matches_the_queued_loop() {
        let requests: Vec<MemRequest> = (0..40u64)
            .flat_map(|i| {
                [
                    MemRequest::write(i * 96 % 4096, vec![i as u8, (i + 1) as u8]),
                    MemRequest::read(i * 96 % 4096, 2),
                    MemRequest::read(i * 64 % 4096, 1).untrusted(),
                ]
            })
            .collect();
        let mut immediate = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        immediate.os_protect_range(0, 256);
        let mut queued = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        queued.os_protect_range(0, 256);

        let one_by_one: Vec<CompletedRequest> =
            requests.iter().map(|r| immediate.service(r.clone()).unwrap()).collect();
        for request in &requests {
            queued.submit(request.clone());
        }
        let drained = queued.run_to_completion().unwrap();

        let observable = |done: &CompletedRequest| {
            (done.request.addr, done.denied, done.latency, done.data.clone())
        };
        assert_eq!(
            one_by_one.iter().map(observable).collect::<Vec<_>>(),
            drained.iter().map(observable).collect::<Vec<_>>(),
        );
        assert_eq!(immediate.stats(), queued.stats());
        assert_eq!(immediate.dram().stats(), queued.dram().stats());
        assert!(immediate.stats().os_faults > 0, "the mix must OS-fault");
    }

    #[test]
    fn metrics_record_serves_denies_and_faults() {
        let registry = dlk_obs::Registry::new();
        let mut ctrl =
            MemoryController::with_hook(MemCtrlConfig::tiny_for_tests(), Box::new(DenyAll));
        ctrl.os_protect_range(0, 64);
        ctrl.service(MemRequest::read(0, 1)).unwrap(); // denied by hook
        ctrl.service(MemRequest::read(0, 1).untrusted()).unwrap(); // OS fault
        ctrl.set_hook(Box::new(NoDefense));
        ctrl.service(MemRequest::write(128, vec![1])).unwrap(); // served
        ctrl.export_obs(&registry, "memctrl");
        assert_eq!(registry.counter("memctrl.denied").get(), 1);
        assert_eq!(registry.counter("memctrl.os_faults").get(), 1);
        assert_eq!(registry.counter("memctrl.served").get(), 1);
        let reads = registry.histogram("memctrl.latency_cycles.read");
        let writes = registry.histogram("memctrl.latency_cycles.write");
        // The OS fault never reaches the latency histograms.
        assert_eq!(reads.count(), 1);
        assert_eq!(writes.count(), 1);
        assert_eq!(reads.max(), 3); // DenyAll's check latency
        assert!(writes.max() > 0);
    }

    #[test]
    fn debug_impl_mentions_hook_name() {
        let ctrl = MemoryController::new(MemCtrlConfig::tiny_for_tests());
        assert!(format!("{ctrl:?}").contains("none"));
    }

    #[test]
    fn idle_stats_report_zero_not_nan() {
        let stats = ControllerStats::default();
        assert_eq!(stats.mean_latency(), 0.0);
        assert_eq!(stats.denial_rate(), 0.0);
        assert!(!stats.mean_latency().is_nan());
    }

    #[test]
    fn merge_accumulates_every_field() {
        let a = ControllerStats {
            served: 1,
            denied: 2,
            redirected: 3,
            os_faults: 4,
            reads: 5,
            writes: 6,
            total_latency: 7,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            ControllerStats {
                served: 2,
                denied: 4,
                redirected: 6,
                os_faults: 8,
                reads: 10,
                writes: 12,
                total_latency: 14,
            }
        );
        assert!((b.denial_rate() - 4.0 / 6.0).abs() < 1e-12);
    }
}
