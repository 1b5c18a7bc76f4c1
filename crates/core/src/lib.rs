//! # owl
//!
//! **OWL: directed concurrency-attack detection** — a Rust
//! reproduction of *"Understanding and Detecting Concurrency Attacks"*
//! (Gu, Gan, Zhao, Ning, Cui, Yang — DSN 2018).
//!
//! Concurrency bugs that corrupt memory can be *weaponized*: a data
//! race in Libsafe bypasses its stack-overflow checks, a race in the
//! Linux `uselib()` path yields kernel code execution, a race in
//! MySQL's `FLUSH PRIVILEGES` escalates privileges. The paper's
//! quantitative study shows why existing detectors miss these attacks:
//! 94.3% of their reports are benign, and the vulnerable few need
//! *different, subtle inputs* to turn a bug into an attack.
//!
//! OWL's answer is to extract hints from the reports themselves and
//! direct everything downstream at the remaining, likely vulnerable
//! inputs and schedules (Figure 3 of the paper):
//!
//! ```text
//!  detector ──► adhoc-sync hints ──► annotate + re-detect
//!      └──► race verifier (thread-specific breakpoints)
//!               └──► Algorithm 1: bug-to-attack propagation
//!                        └──► vulnerability verifier
//! ```
//!
//! This crate is the orchestrator. The substrates live in sibling
//! crates: [`owl_ir`] (SSA IR), [`owl_vm`] (concurrent interpreter),
//! [`owl_race`] (detectors), [`owl_static`] (static analyses),
//! [`owl_verify`] (dynamic verifiers), and [`owl_corpus`] (models of
//! the studied programs).
//!
//! ## Example
//!
//! ```
//! use owl::{evaluate_program, OwlConfig};
//!
//! let libsafe = owl_corpus::program("Libsafe").expect("corpus program");
//! let eval = evaluate_program(&libsafe, &OwlConfig::quick());
//! assert!(eval.attacks[0].detected(), "the Figure-1 attack is found");
//! assert!(eval.result.stats.reduction_ratio() >= 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod campaign;
mod config;
mod eval;
pub mod journal;
pub mod json;
pub mod metrics;
mod pipeline;
pub mod queue;
#[cfg(unix)]
pub mod serve;

pub use audit::{AlertKind, AuditAlert, AuditOutcome, PathAuditor};
pub use campaign::{
    backoff_delay, campaign_fingerprint, run_campaign, CampaignConfig, CampaignFault,
    CampaignOutcome, CampaignSummary, ProgramOutcome, ProgramStatus,
};
pub use config::OwlConfig;
pub use eval::{evaluate_program, AttackOutcome, ProgramEvaluation};
pub use journal::{
    Journal, JournalError, JournalKilled, JournalRecord, JournalSink, ProgramSummary,
    RecoveryReport, SharedJournal,
};
pub use metrics::{Histogram, MetricsRecorder, SpanRecord};
pub use pipeline::{
    Finding, Owl, PipelineError, PipelineHealth, PipelineResult, PipelineStats, Quarantined, Stage,
    StageHealth,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use owl_corpus;
pub use owl_ir;
pub use owl_race;
pub use owl_static;
pub use owl_verify;
pub use owl_vm;
