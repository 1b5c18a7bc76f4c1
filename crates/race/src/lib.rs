//! # owl-race
//!
//! Data-race detection front-ends for the OWL concurrency-attack
//! framework (Rust reproduction of *"Understanding and Detecting
//! Concurrency Attacks"*, DSN 2018).
//!
//! The paper integrates two detectors — TSan for applications and SKI
//! for kernels — and augments them with adhoc-synchronization
//! annotations (§5.1) and a corrupted-address watchlist that records
//! the first read after a write-write race (§6.3). This crate provides
//! the same surface over [`owl_vm`] traces:
//!
//! * [`HbDetector`] — vector-clock happens-before detection (TSan's
//!   theory), with [`HbAnnotation`] support and read hints. It runs on
//!   FastTrack-style epoch shadow cells by default; the original full
//!   vector-clock backend is selectable as a differential oracle via
//!   [`HbBackend`], and the predictive backends (`syncp`, `syncrev`)
//!   additionally report witness-validated races reachable by
//!   reordering the observed trace (see [`PredictStats`]);
//! * [`LocksetDetector`] — an Eraser-style baseline used by the
//!   benches to put the report flood in context;
//! * [`explore`] — a PCT/random schedule-exploration driver (SKI's
//!   regime), aggregating deduplicated [`RaceReport`]s across seeds.
//!   The seed sweep fans out over [`ExplorerConfig::workers`] threads
//!   with a deterministic merge: any worker count yields byte-identical
//!   results.
//!
//! ## Example
//!
//! ```
//! use owl_ir::{ModuleBuilder, Type};
//! use owl_race::{explore, ExplorerConfig};
//!
//! // A program with a racy flag.
//! let mut mb = ModuleBuilder::new("demo");
//! let flag = mb.global("flag", 1, Type::I64);
//! let worker = mb.declare_func("worker", 1);
//! let main = mb.declare_func("main", 0);
//! {
//!     let mut b = mb.build_func(worker);
//!     let a = b.global_addr(flag);
//!     b.store(a, 1);
//!     b.ret(None);
//! }
//! {
//!     let mut b = mb.build_func(main);
//!     let t = b.thread_create(worker, 0);
//!     let a = b.global_addr(flag);
//!     b.load(a, Type::I64);
//!     b.thread_join(t);
//!     b.ret(None);
//! }
//! let module = mb.finish();
//!
//! let result = explore(&module, main, &[], &ExplorerConfig::default());
//! assert_eq!(result.reports.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atomicity;
mod epoch;
mod explorer;
mod hb;
mod lockset;
mod predict;
mod report;
mod vc;

pub use atomicity::{AtomicityDetector, AtomicityPattern, AtomicityReport};
pub use epoch::EpochStats;
pub use explorer::{
    executions_until, explore, explore_with_deadline, site_pairs, ExploreResult, ExploreStrategy,
    ExplorerConfig, StreamConfig,
};
pub use hb::{global_name_for_addr, HbAnnotation, HbBackend, HbConfig, HbDetector};
pub use lockset::LocksetDetector;
pub use predict::PredictStats;
pub use report::{Access, RaceReport};
pub use vc::VectorClock;
