//! # dlk-sim — the unified Scenario API
//!
//! One builder-driven pipeline for every attack/defense experiment in
//! the workspace:
//!
//! ```text
//! Scenario::builder()
//!     .geometry(..)   // MemCtrlConfig (device + mapping + scheduling)
//!     .victim(..)     // raw rows, a deployed model, or a paged model
//!     .attack(..)     // an `AttackSpec`
//!     .defense(..)    // a `DefenseSpec`, stackable
//!     .budget(..)     // activations / iterations
//!     .build()?       // deploys victims, mounts defenses
//!     .run()?         // -> RunReport
//! ```
//!
//! Attacks are plain data: a built run executes its [`AttackSpec`]
//! directly — RowHammer (`Hammer`, `RowProbe`), the bit-flip attack
//! (`ProgressiveBfa`, `BfaHammer`), random flips (`RandomFlip`), the
//! page-table attack (`PageTable`) and benign traffic
//! (`InferenceStream`, `WeightFetch` and the replays). Defenses are
//! plain data too: each [`DefenseSpec`] variant — DRAM-Locker and every
//! baseline in `dlk-defenses` — [mounts](DefenseSpec::mount) straight
//! onto the controller as a `DefenseHook`, and several stack into a
//! [`HookChain`]. The unified [`RunReport`] carries accuracy deltas,
//! denied/landed flips, cycles, energy and per-defense action counts
//! (each hook's `DefenseHook::actions`).
//!
//! ## Paper-figure → catalog map
//!
//! [`catalog()`] enumerates the named attack × defense scenarios; each
//! maps to a paper artifact:
//!
//! | Catalog scenario | Paper artifact |
//! |------------------|----------------|
//! | `hammer-vs-none` | Fig. 4 premise (undefended flip) |
//! | `hammer-vs-dram-locker` | Fig. 4(d) lock-table denial |
//! | `hammer-vs-{graphene,hydra,twice,counter-per-row,rrs,srs}` | Table I baselines |
//! | `hammer-vs-shadow` | Fig. 7 closest competitor |
//! | `bfa-vs-none` / `bfa-vs-dram-locker` | Fig. 8 accuracy curves |
//! | `cnn-bfa-vs-none` / `cnn-bfa-vs-dram-locker` | Fig. 8 on the ResNet-20-shaped CNN |
//! | `cnn-bfa-hammer-vs-dram-locker` | Fig. 4(d) against conv kernels |
//! | `cnn-inference-2ch[-vs-dram-locker]` | CNN weight fetch on the sharded engine |
//! | `random-vs-none` | Fig. 1(a) random baseline |
//! | `pta-vs-none` / `pta-vs-dram-locker` | §V page-table attack |
//! | `inference-vs-dram-locker` | Table II prose (victim overhead) |
//!
//! ```
//! use dlk_sim::catalog;
//!
//! let entry = dlk_sim::find("hammer-vs-dram-locker").unwrap();
//! let report = entry.scenario().build().unwrap().run().unwrap();
//! assert!(report.fully_denied());
//! assert!(catalog().len() >= 6);
//! ```
//!
//! ## Specs and sweeps
//!
//! Every scenario is *data*: a [`ScenarioSpec`] with enum-keyed
//! [`AttackSpec`]/[`DefenseSpec`]/[`VictimSpec`] parts, a line-oriented
//! [`to_text`](ScenarioSpec::to_text)/[`from_text`](ScenarioSpec::from_text)
//! codec (the on-disk spec-file format) and
//! [`Scenario::from_spec`] as the one construction path. Grids expand
//! through [`sweep::SweepGrid`], execute on worker threads through
//! [`sweep::SweepRunner`] (results deterministic, bit-identical to
//! serial) and export through [`metrics::Table`]:
//!
//! ```
//! use dlk_sim::sweep::{SweepGrid, SweepRunner};
//! use dlk_sim::{metrics, DefenseSpec};
//!
//! let specs = SweepGrid::over(dlk_sim::find("hammer-vs-none").unwrap().spec)
//!     .defenses([vec![], vec![DefenseSpec::locker_adjacent()]])
//!     .expand();
//! let reports = SweepRunner::parallel().run_reports(&specs).unwrap();
//! println!("{}", metrics::Table::from_reports(&reports).to_csv());
//! ```

mod attack;
pub mod catalog;
pub mod chain;
pub mod error;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod victim;

pub use crate::catalog::{catalog, find, CatalogEntry, Expected};
pub use crate::chain::HookChain;
pub use crate::error::SimError;
pub use crate::report::{MitigationReport, RunReport, VictimReport};
pub use crate::scenario::{Budget, Scenario, ScenarioBuilder, ScenarioRun};
pub use crate::spec::{AttackSpec, DefenseSpec, GeometrySpec, ScenarioSpec};
pub use crate::sweep::{JobError, JobOutcome, JobStatus, SweepGrid, SweepResult, SweepRunner};
pub use crate::victim::{DeployedVictim, VictimSpec};

pub use dlk_dnn::models::ModelKind;
pub use dlk_engine::{ChannelRouter, EngineConfig, ShardedEngine, Workload};
/// The observability layer, re-exported so front-ends (the `dlk` CLI,
/// the serve daemon) can build registries and span recorders without a
/// direct `dlk-obs` dependency.
pub use dlk_obs as obs;
