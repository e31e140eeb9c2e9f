//! # dlk-bench — structural diff of schema-v2 documents
//!
//! [`diff`] aligns two [`dlk_obs::json`] documents by section and
//! member name and reports each numeric field's change; `dlk bench
//! diff old.json new.json` is its command-line front end. Deterministic
//! quantities (device cycles, allocations per request, decoded µops)
//! are pinned exactly by the facade's `tests/exact_pins.rs`, and
//! wall-clock is measured by the `perfbench/` benchmark.

pub mod diff;
