//! # dlk-engine — sharded multi-channel execution with trace replay
//!
//! The execution layer between the Scenario API and the memory
//! controller: one [`ChannelShard`] per DRAM channel (its own
//! [`MemoryController`](dlk_memctrl::MemoryController), device and
//! mounted defense chain), a [`ChannelRouter`] distributing global
//! physical addresses across shards at row granularity, and a
//! [`ShardedEngine`] that steps all shards — serially in channel order,
//! or in parallel on scoped threads — and merges statistics,
//! completions and flip outcomes deterministically.
//!
//! ```text
//!                    ┌────────────────────────────┐
//!   MemRequest ────► │ ChannelRouter (row % n)    │
//!                    └─────┬──────┬──────┬────────┘
//!                      ch0 ▼  ch1 ▼  ch2 ▼   …      one scoped thread each
//!                    ┌───────┐┌───────┐┌───────┐
//!                    │ Shard ││ Shard ││ Shard │     controller + device
//!                    │  + hook chain per channel │   + lock-table slice
//!                    └─────┬──────┬──────┬──────┘
//!                          ▼      ▼      ▼
//!                     deterministic merge (channel-id order)
//! ```
//!
//! **Determinism guarantee.** Shards share no state, and every merge —
//! [`DrainOutcome::merged`], [`ReplayTally`], [`EngineSnapshot`], error
//! selection — is performed in channel-id order. A
//! [`sharded`](EngineConfig::sharded) run is therefore bit-identical to
//! its [`serial_reference`](EngineConfig::serial_reference); threads
//! change wall-clock time only.
//!
//! The replay frontend feeds recorded or generated [`Trace`]s through
//! the router: [`Workload`] generates the synthetic patterns
//! (sequential, strided, pointer-chase, hammer loop, multi-tenant
//! interleave), [`TraceReplay`] streams any trace — including one
//! parsed from a trace file via
//! [`Trace::from_text`](dlk_memctrl::Trace::from_text). A replay keeps
//! only a [`ReplayTally`] of requests and denials; submit the trace and
//! call [`ShardedEngine::run_to_completion`] when the completions
//! themselves (read data, per-request latency) are needed.
//!
//! ```
//! use dlk_engine::{EngineConfig, ShardedEngine, TraceReplay, Workload};
//! use dlk_memctrl::MemCtrlConfig;
//!
//! # fn main() -> Result<(), dlk_engine::EngineError> {
//! let mut engine =
//!     ShardedEngine::new(EngineConfig::sharded(2), MemCtrlConfig::tiny_for_tests())?;
//! let trace = Workload::Sequential { base: 0, len: 8, count: 64 }.trace();
//! let tally = engine.replay(TraceReplay::new(&trace))?;
//! assert_eq!((tally.requests, tally.denied), (64, 0));
//! // Row interleaving spread the stream over both shards.
//! assert!(engine.snapshot().per_channel.iter().all(|s| s.served > 0));
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod engine;
pub mod error;
pub mod replay;
pub mod route;
pub mod shard;
pub mod workload;

pub use crate::config::EngineConfig;
pub use crate::engine::{DrainOutcome, EngineMetrics, EngineSnapshot, ReplayTally, ShardedEngine};
pub use crate::error::EngineError;
pub use crate::replay::{ChainedReplay, ReplaySource, TraceReplay};
pub use crate::route::ChannelRouter;
pub use crate::shard::ChannelShard;
pub use crate::workload::Workload;

pub use dlk_memctrl::Trace;
