//! `dlk-obs` — zero-dependency observability for the DRAM-Locker stack.
//!
//! Everything the simulator's layers need to report what they are
//! doing at runtime, with nothing the hot path can't afford:
//!
//! - [`Counter`] / [`Gauge`]: relaxed-atomic scalars (a bare
//!   `fetch_add` on the record path — safe inside the memory
//!   controller's per-request service loop).
//! - [`Histogram`]: a 65-bucket log2 histogram with lock-free
//!   [`Histogram::record`], online [`Histogram::merge`] (the streaming
//!   aggregation primitive fleet-level simulation needs), and
//!   `p50/p95/p99/max` estimates accurate to one power of two.
//!   [`LocalHistogram`] is its non-atomic single-owner twin for
//!   `&mut self` hot paths, flushed via [`Histogram::absorb`] deltas.
//! - [`Span`]: an RAII wall-clock timer feeding a histogram, plus
//!   [`SpanRecorder`]/[`SpanTree`] for the `dlk run --trace` span tree.
//! - [`TimeSeries`] / [`Sampler`]: the temporal layer — a
//!   fixed-capacity ring of timestamped samples with windowed
//!   `rate()`/`mean()`/EWMA, filled by snapshotting a registry on a
//!   caller-driven tick (histogram deltas absorbed per tick), so
//!   "what happened over the last N seconds" costs O(capacity) no
//!   matter how long the daemon runs. `dlk serve` heartbeats and
//!   `dlk top` render these.
//! - [`Registry`]: a clonable name → metric table with plain-text and
//!   schema-v2 JSON exposition ([`Registry::write_json`] is atomic,
//!   tmp + rename, the same discipline as the serve daemon's
//!   `results.csv`).
//! - [`json`]: the shared hand-written JSON writer/validator behind
//!   every schema-v2 document (registry dumps, `metrics.json`
//!   heartbeats), which `dlk bench diff` compares.
//!
//! The crate depends on `std` only, by construction: every other crate
//! in the workspace (including `dlk-memctrl` underneath the uISA hot
//! path) can pull it in without dragging anything else along.

pub mod hist;
pub mod json;
pub mod metric;
pub mod registry;
pub mod series;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot, LocalHistogram, Span};
pub use metric::{Counter, Gauge};
pub use registry::{Metric, Registry};
pub use series::{Sample, Sampler, TimeSeries};
pub use span::{SpanId, SpanRecorder, SpanTree};
