//! Durable run journal: append-only, checksummed JSONL.
//!
//! Detection campaigns are long and crash-prone — a panic, a deadline
//! abort, or a plain `kill -9` must not cost hours of completed
//! verification work. The journal records one line per *completed
//! pipeline unit* (a report verified, a finding analyzed, a report
//! quarantined, a program finished or given up on), so a killed run
//! can resume from the last durably-recorded unit instead of starting
//! over.
//!
//! Lines become durable in groups: [`Journal::append_batch`] writes
//! any number of records and pays one fsync for all of them. The
//! pipeline commits a program's stage-3 verdicts in the runs the
//! verifier pool has already finished (at most 128 records each),
//! flushing whenever the next verdict is still being computed, and
//! its stage-4/5 findings in one batch at the end. A kill therefore loses, for each program in
//! flight, at most the finished but uncommitted units of its current
//! stage; everything committed survives.
//!
//! ## Line format
//!
//! ```text
//! {"crc":"<16 lowercase hex>","rec":<record JSON>}\n
//! ```
//!
//! The checksum is FNV-1a/64 over the exact bytes of the record JSON
//! (the canonical form emitted by [`crate::json`]). It is verified
//! byte-for-byte on open, so any in-place corruption — not just torn
//! writes — is detected.
//!
//! ## Recovery policy
//!
//! [`Journal::open`] scans the file line by line. The first line that
//! fails — torn (no trailing newline), syntactically broken, checksum
//! mismatch, or an undecodable record — marks the corruption point:
//! everything from there to EOF is discarded and the file is truncated
//! back to the last valid record. Recovery is automatic and quantified:
//! the [`RecoveryReport`] carries the discarded byte and record counts,
//! which the pipeline surfaces in
//! [`crate::PipelineHealth::journal_discarded_bytes`] /
//! [`crate::PipelineHealth::journal_discarded_records`].
//!
//! ## Kill points
//!
//! For crash testing, [`Journal::set_kill_after`] arms a hard kill
//! point: once the `n`-th record is appended the journal panics with a
//! [`JournalKilled`] payload (tagged [`owl_vm::FaultKind::JournalKill`]).
//! A kill that lands inside a batch writes and fsyncs the batch only
//! up to that record, so exactly `n` whole records are on disk — as if
//! the batches were committed one record at a time and the process
//! died right after the `n`-th fsync. The campaign supervisor
//! deliberately re-raises this payload instead of catching it, so it
//! behaves like a real `SIGKILL` landing right after an fsync — the
//! worst moment that still must lose nothing already committed.

use crate::json::{self, Json};
use crate::pipeline::{PipelineError, PipelineResult, Stage};
use owl_ir::{FuncId, InstId, InstRef, VulnClass};
use owl_race::RaceReport;
use owl_static::{DepKind, VulnReport};
use owl_verify::{AbortCause, VerifyOutcome};
use owl_vm::FaultKind;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Panic payload of an armed journal kill point (see
/// [`Journal::set_kill_after`]). Supervisors must re-raise it: it
/// simulates the process dying, not a recoverable stage failure.
/// It lives in [`owl_vm`] beside [`owl_vm::FaultKind::JournalKill`]
/// and is re-exported here.
pub use owl_vm::JournalKilled;

/// What `Journal::open` found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records that survived validation.
    pub valid_records: u64,
    /// Corrupt or torn records discarded from the tail.
    pub discarded_records: u64,
    /// Bytes truncated off the file.
    pub discarded_bytes: u64,
}

impl RecoveryReport {
    /// Whether anything had to be repaired.
    pub fn recovered(&self) -> bool {
        self.discarded_bytes > 0
    }
}

/// Errors from opening or appending to a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A fresh (non-resume) campaign was pointed at a journal that
    /// already holds records.
    NotResumable {
        /// The journal path.
        path: PathBuf,
        /// Records already present.
        records: u64,
    },
    /// The journal was written by a campaign with a different
    /// configuration or program list.
    ConfigMismatch {
        /// Fingerprint recorded in the journal.
        recorded: String,
        /// Fingerprint of the current configuration.
        current: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotResumable { path, records } => write!(
                f,
                "journal {} already holds {records} record(s); pass --resume to continue it",
                path.display()
            ),
            JournalError::ConfigMismatch { recorded, current } => write!(
                f,
                "journal was written with a different campaign configuration \
                 (recorded fingerprint {recorded}, current {current})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// FNV-1a 64-bit — small, dependency-free, and plenty for torn-write
/// and bit-rot detection on a line-sized payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable identity of one race report within a program — the unit
/// key completed work is journaled under. Built from the normalized
/// site pair plus the racing address and global, so distinct races
/// that share a site pair still get distinct keys.
pub fn unit_key(report: &RaceReport) -> String {
    let (a, b) = report.key();
    format!(
        "{a}|{b}|{:#x}|{}",
        report.addr,
        report.global_name.as_deref().unwrap_or("-")
    )
}

/// One dynamically-verified vulnerability hint, as journaled: the full
/// static [`VulnReport`] (so resume can rebuild the finding) plus the
/// deterministic slice of its stage-5 verification.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedVuln {
    /// The stage-4 hint.
    pub report: VulnReport,
    /// Whether the site was dynamically reached.
    pub reached: bool,
    /// Stage-5 verdict.
    pub verdict: VerifyOutcome,
    /// Verification executions performed.
    pub attempts: u64,
    /// Faults injected across those executions.
    pub injected_faults: u64,
}

/// One hint row of a [`ProgramSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct HintSummary {
    /// Vulnerable-site class.
    pub class: VulnClass,
    /// Dependence kind.
    pub dep: DepKind,
    /// Whether the site was dynamically reached.
    pub reached: bool,
}

/// One vulnerable finding row of a [`ProgramSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct FindingSummary {
    /// Racy global (or the address, hex-formatted, when unnamed).
    pub global: String,
    /// The finding's hints.
    pub hints: Vec<HintSummary>,
}

/// The deterministic, journal-resident summary of one finished
/// program: exactly the data the consolidated campaign summary is
/// rebuilt from. Deliberately excludes wall-clock times and cache
/// counters, which legitimately differ between a fresh and a resumed
/// run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramSummary {
    /// Raw detector reports.
    pub raw_reports: usize,
    /// Adhoc synchronizations annotated.
    pub adhoc_syncs: usize,
    /// Reports after the post-annotation re-run.
    pub post_annotation_reports: usize,
    /// Reports the race verifier eliminated.
    pub verifier_eliminated: usize,
    /// Reports surviving verification.
    pub remaining: usize,
    /// Findings with at least one vulnerability hint.
    pub vulnerable: usize,
    /// Faults injected across all stages.
    pub injected_faults: u64,
    /// Units quarantined across all stages.
    pub quarantined: u64,
    /// The vulnerable findings.
    pub findings: Vec<FindingSummary>,
}

impl ProgramSummary {
    /// Extracts the deterministic summary from a pipeline result.
    pub fn from_result(result: &PipelineResult) -> Self {
        let findings = result
            .vulnerable_findings()
            .map(|f| FindingSummary {
                global: f
                    .race
                    .global_name
                    .clone()
                    .unwrap_or_else(|| format!("{:#x}", f.race.addr)),
                hints: f
                    .vulns
                    .iter()
                    .zip(&f.vuln_verifications)
                    .map(|(vr, vv)| HintSummary {
                        class: vr.class,
                        dep: vr.dep,
                        reached: vv.reached,
                    })
                    .collect(),
            })
            .collect();
        ProgramSummary {
            raw_reports: result.stats.raw_reports,
            adhoc_syncs: result.stats.adhoc_syncs,
            post_annotation_reports: result.stats.post_annotation_reports,
            verifier_eliminated: result.stats.verifier_eliminated,
            remaining: result.stats.remaining,
            vulnerable: result.stats.vulnerable,
            injected_faults: result.health.total_injected_faults(),
            quarantined: result.health.total_quarantined(),
            findings,
        }
    }
}

/// One durably-recorded pipeline unit.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// Campaign header: written once when the journal is created.
    CampaignStarted {
        /// Fingerprint of the campaign configuration (resume refuses a
        /// journal written under a different one).
        fingerprint: String,
        /// Program names, in execution order.
        programs: Vec<String>,
    },
    /// Stage 3 completed for one report (confirmed or eliminated).
    ReportVerified {
        /// Program name.
        program: String,
        /// Unit key ([`unit_key`]).
        key: String,
        /// Racy global, when named.
        global: Option<String>,
        /// Whether the race was confirmed (else eliminated).
        confirmed: bool,
        /// Verification attempts spent.
        attempts: u64,
        /// Faults injected during verification.
        injected_faults: u64,
    },
    /// Stages 4–5 completed for one confirmed report.
    FindingAnalyzed {
        /// Program name.
        program: String,
        /// Unit key ([`unit_key`]).
        key: String,
        /// Racy global, when named.
        global: Option<String>,
        /// The hints with their dynamic verifications.
        vulns: Vec<RecordedVuln>,
    },
    /// A unit was pulled out of the pipeline; preserves the full typed
    /// error (stage, cause, attempt count).
    Quarantined {
        /// Program name.
        program: String,
        /// Unit key, when the quarantine is report-scoped.
        key: Option<String>,
        /// Racy global, when named.
        global: Option<String>,
        /// Why it was quarantined.
        error: PipelineError,
        /// Verification attempts the unit spent before quarantine.
        attempts: u64,
        /// Faults injected into the unit before quarantine.
        injected_faults: u64,
    },
    /// A program ran to completion; carries the data the campaign
    /// summary is rebuilt from.
    ProgramFinished {
        /// Program name.
        program: String,
        /// Campaign attempts used (1 = first try).
        attempts: u64,
        /// Deterministic result summary.
        summary: ProgramSummary,
    },
    /// A program exhausted its retry budget and was abandoned; the
    /// campaign degrades gracefully and moves on.
    ProgramQuarantined {
        /// Program name.
        program: String,
        /// Campaign attempts spent before giving up.
        attempts: u64,
        /// The last attempt's failure.
        error: PipelineError,
    },
    /// A completed analysis result in the `owl serve` result store,
    /// keyed by the `(program, config)` fingerprint. Duplicate
    /// submissions are answered from this record without re-running
    /// any pipeline stage.
    ResultCached {
        /// [`crate::campaign::campaign_fingerprint`] of the single
        /// program plus its configuration.
        fingerprint: String,
        /// Program name.
        program: String,
        /// Deterministic result summary.
        summary: ProgramSummary,
    },
}

impl JournalRecord {
    /// The program this record belongs to (`None` for the header).
    pub fn program(&self) -> Option<&str> {
        match self {
            JournalRecord::CampaignStarted { .. } => None,
            JournalRecord::ReportVerified { program, .. }
            | JournalRecord::FindingAnalyzed { program, .. }
            | JournalRecord::Quarantined { program, .. }
            | JournalRecord::ProgramFinished { program, .. }
            | JournalRecord::ProgramQuarantined { program, .. }
            | JournalRecord::ResultCached { program, .. } => Some(program),
        }
    }
}

// ---------------------------------------------------------------------
// Enum <-> string codecs (stable names; changing one invalidates old
// journals, so bump the fingerprint story in DESIGN.md if you must).
// ---------------------------------------------------------------------

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Detect => "detect",
        Stage::AdhocSync => "adhoc-sync",
        Stage::RaceVerify => "race-verify",
        Stage::VulnAnalyze => "vuln-analyze",
        Stage::VulnVerify => "vuln-verify",
    }
}

fn parse_stage(s: &str) -> Option<Stage> {
    Some(match s {
        "detect" => Stage::Detect,
        "adhoc-sync" => Stage::AdhocSync,
        "race-verify" => Stage::RaceVerify,
        "vuln-analyze" => Stage::VulnAnalyze,
        "vuln-verify" => Stage::VulnVerify,
        _ => return None,
    })
}

fn cause_name(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::DeadlineExceeded => "deadline-exceeded",
        AbortCause::StepBudgetExhausted => "step-budget-exhausted",
        AbortCause::Panicked => "panicked",
        AbortCause::MemoryBudget => "memory-budget",
    }
}

fn parse_cause(s: &str) -> Option<AbortCause> {
    Some(match s {
        "deadline-exceeded" => AbortCause::DeadlineExceeded,
        "step-budget-exhausted" => AbortCause::StepBudgetExhausted,
        "panicked" => AbortCause::Panicked,
        "memory-budget" => AbortCause::MemoryBudget,
        _ => return None,
    })
}

fn class_name(class: VulnClass) -> &'static str {
    match class {
        VulnClass::MemoryOp => "memory-op",
        VulnClass::NullDeref => "null-deref",
        VulnClass::PrivilegeOp => "privilege-op",
        VulnClass::FileOp => "file-op",
        VulnClass::ExecOp => "exec-op",
    }
}

fn parse_class(s: &str) -> Option<VulnClass> {
    Some(match s {
        "memory-op" => VulnClass::MemoryOp,
        "null-deref" => VulnClass::NullDeref,
        "privilege-op" => VulnClass::PrivilegeOp,
        "file-op" => VulnClass::FileOp,
        "exec-op" => VulnClass::ExecOp,
        _ => return None,
    })
}

fn dep_name(dep: DepKind) -> &'static str {
    match dep {
        DepKind::DataDep => "data-dep",
        DepKind::CtrlDep => "ctrl-dep",
    }
}

fn parse_dep(s: &str) -> Option<DepKind> {
    Some(match s {
        "data-dep" => DepKind::DataDep,
        "ctrl-dep" => DepKind::CtrlDep,
        _ => return None,
    })
}

fn encode_iref(r: InstRef) -> Json {
    Json::Arr(vec![
        Json::UInt(r.func.0 as u64),
        Json::UInt(r.inst.0 as u64),
    ])
}

fn decode_iref(v: &Json) -> Option<InstRef> {
    let a = v.as_arr()?;
    if a.len() != 2 {
        return None;
    }
    Some(InstRef {
        func: FuncId(u32::try_from(a[0].as_u64()?).ok()?),
        inst: InstId(u32::try_from(a[1].as_u64()?).ok()?),
    })
}

fn encode_irefs(rs: &[InstRef]) -> Json {
    Json::Arr(rs.iter().map(|r| encode_iref(*r)).collect())
}

fn decode_irefs(v: &Json) -> Option<Vec<InstRef>> {
    v.as_arr()?.iter().map(decode_iref).collect()
}

fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::str(s.clone()),
        None => Json::Null,
    }
}

fn decode_opt_str(v: Option<&Json>) -> Option<Option<String>> {
    match v? {
        Json::Null => Some(None),
        Json::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

/// Encodes a [`PipelineError`] (shared with the CLI's `--json` output).
pub fn encode_error(error: &PipelineError) -> Json {
    match error {
        PipelineError::Panicked { stage, message } => Json::obj([
            ("kind", Json::str("panicked")),
            ("stage", Json::str(stage_name(*stage))),
            ("message", Json::str(message.clone())),
        ]),
        PipelineError::StageDeadline { stage } => Json::obj([
            ("kind", Json::str("stage-deadline")),
            ("stage", Json::str(stage_name(*stage))),
        ]),
        PipelineError::VerifierAborted {
            stage,
            cause,
            attempts,
        } => Json::obj([
            ("kind", Json::str("verifier-aborted")),
            ("stage", Json::str(stage_name(*stage))),
            ("cause", Json::str(cause_name(*cause))),
            ("attempts", Json::UInt(*attempts)),
        ]),
        PipelineError::InvalidEntry { reason } => Json::obj([
            ("kind", Json::str("invalid-entry")),
            ("reason", Json::str(reason.clone())),
        ]),
    }
}

fn decode_error(v: &Json) -> Option<PipelineError> {
    let stage = || parse_stage(v.get("stage")?.as_str()?);
    Some(match v.get("kind")?.as_str()? {
        "panicked" => PipelineError::Panicked {
            stage: stage()?,
            message: v.get("message")?.as_str()?.to_string(),
        },
        "stage-deadline" => PipelineError::StageDeadline { stage: stage()? },
        "verifier-aborted" => PipelineError::VerifierAborted {
            stage: stage()?,
            cause: parse_cause(v.get("cause")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()?,
        },
        "invalid-entry" => PipelineError::InvalidEntry {
            reason: v.get("reason")?.as_str()?.to_string(),
        },
        _ => return None,
    })
}

fn encode_verdict(v: VerifyOutcome) -> Json {
    match v {
        VerifyOutcome::Confirmed => Json::obj([("kind", Json::str("confirmed"))]),
        VerifyOutcome::Unconfirmed => Json::obj([("kind", Json::str("unconfirmed"))]),
        VerifyOutcome::Aborted { cause, attempts } => Json::obj([
            ("kind", Json::str("aborted")),
            ("cause", Json::str(cause_name(cause))),
            ("attempts", Json::UInt(attempts)),
        ]),
    }
}

fn decode_verdict(v: &Json) -> Option<VerifyOutcome> {
    Some(match v.get("kind")?.as_str()? {
        "confirmed" => VerifyOutcome::Confirmed,
        "unconfirmed" => VerifyOutcome::Unconfirmed,
        "aborted" => VerifyOutcome::Aborted {
            cause: parse_cause(v.get("cause")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()?,
        },
        _ => return None,
    })
}

/// Encodes a [`RecordedVuln`] (shared with the CLI's `--json` output).
pub fn encode_vuln(v: &RecordedVuln) -> Json {
    Json::obj([
        (
            "report",
            Json::obj([
                ("site", encode_iref(v.report.site)),
                ("class", Json::str(class_name(v.report.class))),
                ("dep", Json::str(dep_name(v.report.dep))),
                ("source", encode_iref(v.report.source)),
                ("branches", encode_irefs(&v.report.branches)),
                ("path_branches", encode_irefs(&v.report.path_branches)),
                ("chain", encode_irefs(&v.report.chain)),
            ]),
        ),
        ("reached", Json::Bool(v.reached)),
        ("verdict", encode_verdict(v.verdict)),
        ("attempts", Json::UInt(v.attempts)),
        ("faults", Json::UInt(v.injected_faults)),
    ])
}

fn decode_vuln(v: &Json) -> Option<RecordedVuln> {
    let r = v.get("report")?;
    Some(RecordedVuln {
        report: VulnReport {
            site: decode_iref(r.get("site")?)?,
            class: parse_class(r.get("class")?.as_str()?)?,
            dep: parse_dep(r.get("dep")?.as_str()?)?,
            source: decode_iref(r.get("source")?)?,
            branches: decode_irefs(r.get("branches")?)?,
            path_branches: decode_irefs(r.get("path_branches")?)?,
            chain: decode_irefs(r.get("chain")?)?,
        },
        reached: v.get("reached")?.as_bool()?,
        verdict: decode_verdict(v.get("verdict")?)?,
        attempts: v.get("attempts")?.as_u64()?,
        injected_faults: v.get("faults")?.as_u64()?,
    })
}

/// Encodes a [`ProgramSummary`] (shared with the CLI's `--json`
/// output).
pub fn encode_summary(s: &ProgramSummary) -> Json {
    Json::obj([
        ("raw", Json::UInt(s.raw_reports as u64)),
        ("adhoc", Json::UInt(s.adhoc_syncs as u64)),
        ("annotated", Json::UInt(s.post_annotation_reports as u64)),
        ("eliminated", Json::UInt(s.verifier_eliminated as u64)),
        ("remaining", Json::UInt(s.remaining as u64)),
        ("vulnerable", Json::UInt(s.vulnerable as u64)),
        ("faults", Json::UInt(s.injected_faults)),
        ("quarantined", Json::UInt(s.quarantined)),
        (
            "findings",
            Json::Arr(
                s.findings
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("global", Json::str(f.global.clone())),
                            (
                                "hints",
                                Json::Arr(
                                    f.hints
                                        .iter()
                                        .map(|h| {
                                            Json::obj([
                                                ("class", Json::str(class_name(h.class))),
                                                ("dep", Json::str(dep_name(h.dep))),
                                                ("reached", Json::Bool(h.reached)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`ProgramSummary`] produced by [`encode_summary`] (shared
/// with the `owl serve` wire protocol).
pub fn decode_summary(v: &Json) -> Option<ProgramSummary> {
    let findings = v
        .get("findings")?
        .as_arr()?
        .iter()
        .map(|f| {
            Some(FindingSummary {
                global: f.get("global")?.as_str()?.to_string(),
                hints: f
                    .get("hints")?
                    .as_arr()?
                    .iter()
                    .map(|h| {
                        Some(HintSummary {
                            class: parse_class(h.get("class")?.as_str()?)?,
                            dep: parse_dep(h.get("dep")?.as_str()?)?,
                            reached: h.get("reached")?.as_bool()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ProgramSummary {
        raw_reports: v.get("raw")?.as_usize()?,
        adhoc_syncs: v.get("adhoc")?.as_usize()?,
        post_annotation_reports: v.get("annotated")?.as_usize()?,
        verifier_eliminated: v.get("eliminated")?.as_usize()?,
        remaining: v.get("remaining")?.as_usize()?,
        vulnerable: v.get("vulnerable")?.as_usize()?,
        injected_faults: v.get("faults")?.as_u64()?,
        quarantined: v.get("quarantined")?.as_u64()?,
        findings,
    })
}

/// Encodes a [`crate::PipelineHealth`] (shared with the CLI's `--json`
/// output). Wall-clock fields are deliberately omitted — health JSON
/// stays deterministic for equal seeds.
pub fn encode_health(h: &crate::PipelineHealth) -> Json {
    let stage = |s: &crate::StageHealth| {
        Json::obj([
            ("attempts", Json::UInt(s.attempts)),
            ("retries", Json::UInt(s.retries)),
            ("faults", Json::UInt(s.injected_faults)),
            ("deadline_hits", Json::UInt(s.deadline_hits)),
            ("panics", Json::UInt(s.panics)),
            ("quarantined", Json::UInt(s.quarantined)),
        ])
    };
    Json::obj([
        ("detect", stage(&h.detect)),
        ("race_verify", stage(&h.race_verify)),
        ("vuln_analyze", stage(&h.vuln_analyze)),
        ("vuln_verify", stage(&h.vuln_verify)),
        ("summary_cache_hits", Json::UInt(h.summary_cache_hits)),
        ("summary_cache_misses", Json::UInt(h.summary_cache_misses)),
        (
            "journal_discarded_bytes",
            Json::UInt(h.journal_discarded_bytes),
        ),
        (
            "journal_discarded_records",
            Json::UInt(h.journal_discarded_records),
        ),
        ("detector_suppressed", Json::UInt(h.detector_suppressed)),
        (
            "detector_reports_dropped",
            Json::UInt(h.detector_reports_dropped),
        ),
        (
            "elision_sites_thread_local",
            Json::UInt(h.elision_sites_thread_local),
        ),
        (
            "elision_sites_lock_dominated",
            Json::UInt(h.elision_sites_lock_dominated),
        ),
        (
            "elision_sites_read_only",
            Json::UInt(h.elision_sites_read_only),
        ),
        ("elision_events_elided", Json::UInt(h.elision_events_elided)),
        ("shadow_cells_gced", Json::UInt(h.shadow_cells_gced)),
        (
            "units_aborted_mem_budget",
            Json::UInt(h.units_aborted_mem_budget),
        ),
        ("predict_candidates", Json::UInt(h.predict_candidates)),
        ("predict_witnessed", Json::UInt(h.predict_witnessed)),
        (
            "predict_witness_rejected",
            Json::UInt(h.predict_witness_rejected),
        ),
        (
            "predict_reversal_races",
            Json::UInt(h.predict_reversal_races),
        ),
        ("units_forked", Json::UInt(h.units_forked)),
        ("prefix_steps_saved", Json::UInt(h.prefix_steps_saved)),
        ("schedules_deduped", Json::UInt(h.schedules_deduped)),
        ("snapshot_bytes", Json::UInt(h.snapshot_bytes)),
    ])
}

fn encode_record(rec: &JournalRecord) -> Json {
    match rec {
        JournalRecord::CampaignStarted {
            fingerprint,
            programs,
        } => Json::obj([
            ("t", Json::str("campaign-started")),
            ("fingerprint", Json::str(fingerprint.clone())),
            (
                "programs",
                Json::Arr(programs.iter().map(|p| Json::str(p.clone())).collect()),
            ),
        ]),
        JournalRecord::ReportVerified {
            program,
            key,
            global,
            confirmed,
            attempts,
            injected_faults,
        } => Json::obj([
            ("t", Json::str("report-verified")),
            ("program", Json::str(program.clone())),
            ("key", Json::str(key.clone())),
            ("global", opt_str(global)),
            ("confirmed", Json::Bool(*confirmed)),
            ("attempts", Json::UInt(*attempts)),
            ("faults", Json::UInt(*injected_faults)),
        ]),
        JournalRecord::FindingAnalyzed {
            program,
            key,
            global,
            vulns,
        } => Json::obj([
            ("t", Json::str("finding-analyzed")),
            ("program", Json::str(program.clone())),
            ("key", Json::str(key.clone())),
            ("global", opt_str(global)),
            ("vulns", Json::Arr(vulns.iter().map(encode_vuln).collect())),
        ]),
        JournalRecord::Quarantined {
            program,
            key,
            global,
            error,
            attempts,
            injected_faults,
        } => Json::obj([
            ("t", Json::str("quarantined")),
            ("program", Json::str(program.clone())),
            ("key", opt_str(key)),
            ("global", opt_str(global)),
            ("error", encode_error(error)),
            ("attempts", Json::UInt(*attempts)),
            ("faults", Json::UInt(*injected_faults)),
        ]),
        JournalRecord::ProgramFinished {
            program,
            attempts,
            summary,
        } => Json::obj([
            ("t", Json::str("program-finished")),
            ("program", Json::str(program.clone())),
            ("attempts", Json::UInt(*attempts)),
            ("summary", encode_summary(summary)),
        ]),
        JournalRecord::ProgramQuarantined {
            program,
            attempts,
            error,
        } => Json::obj([
            ("t", Json::str("program-quarantined")),
            ("program", Json::str(program.clone())),
            ("attempts", Json::UInt(*attempts)),
            ("error", encode_error(error)),
        ]),
        JournalRecord::ResultCached {
            fingerprint,
            program,
            summary,
        } => Json::obj([
            ("t", Json::str("result-cached")),
            ("fingerprint", Json::str(fingerprint.clone())),
            ("program", Json::str(program.clone())),
            ("summary", encode_summary(summary)),
        ]),
    }
}

fn decode_record(v: &Json) -> Option<JournalRecord> {
    let program = || Some(v.get("program")?.as_str()?.to_string());
    Some(match v.get("t")?.as_str()? {
        "campaign-started" => JournalRecord::CampaignStarted {
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            programs: v
                .get("programs")?
                .as_arr()?
                .iter()
                .map(|p| Some(p.as_str()?.to_string()))
                .collect::<Option<Vec<_>>>()?,
        },
        "report-verified" => JournalRecord::ReportVerified {
            program: program()?,
            key: v.get("key")?.as_str()?.to_string(),
            global: decode_opt_str(v.get("global"))?,
            confirmed: v.get("confirmed")?.as_bool()?,
            attempts: v.get("attempts")?.as_u64()?,
            injected_faults: v.get("faults")?.as_u64()?,
        },
        "finding-analyzed" => JournalRecord::FindingAnalyzed {
            program: program()?,
            key: v.get("key")?.as_str()?.to_string(),
            global: decode_opt_str(v.get("global"))?,
            vulns: v
                .get("vulns")?
                .as_arr()?
                .iter()
                .map(decode_vuln)
                .collect::<Option<Vec<_>>>()?,
        },
        "quarantined" => JournalRecord::Quarantined {
            program: program()?,
            key: decode_opt_str(v.get("key"))?,
            global: decode_opt_str(v.get("global"))?,
            error: decode_error(v.get("error")?)?,
            attempts: v.get("attempts")?.as_u64()?,
            injected_faults: v.get("faults")?.as_u64()?,
        },
        "program-finished" => JournalRecord::ProgramFinished {
            program: program()?,
            attempts: v.get("attempts")?.as_u64()?,
            summary: decode_summary(v.get("summary")?)?,
        },
        "program-quarantined" => JournalRecord::ProgramQuarantined {
            program: program()?,
            attempts: v.get("attempts")?.as_u64()?,
            error: decode_error(v.get("error")?)?,
        },
        "result-cached" => JournalRecord::ResultCached {
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            program: program()?,
            summary: decode_summary(v.get("summary")?)?,
        },
        _ => return None,
    })
}

const LINE_PREFIX: &[u8] = b"{\"crc\":\"";
const LINE_MID: &[u8] = b"\",\"rec\":";

/// Formats one journal line (without the trailing newline the writer
/// appends).
fn format_line(rec: &JournalRecord) -> String {
    let payload = encode_record(rec).to_json_string();
    let crc = fnv1a64(payload.as_bytes());
    format!("{{\"crc\":\"{crc:016x}\",\"rec\":{payload}}}")
}

/// Validates one newline-stripped journal line: prefix shape, checksum
/// over the exact payload bytes, then record decode.
fn parse_line(line: &[u8]) -> Result<JournalRecord, String> {
    if !line.starts_with(LINE_PREFIX) {
        return Err("missing crc prefix".to_string());
    }
    let rest = &line[LINE_PREFIX.len()..];
    if rest.len() < 16 + LINE_MID.len() + 1 {
        return Err("line too short".to_string());
    }
    let (crc_hex, rest) = rest.split_at(16);
    let crc_hex = std::str::from_utf8(crc_hex).map_err(|_| "crc not ASCII".to_string())?;
    let crc = u64::from_str_radix(crc_hex, 16).map_err(|_| "crc not hex".to_string())?;
    if !rest.starts_with(LINE_MID) {
        return Err("malformed line frame".to_string());
    }
    let rest = &rest[LINE_MID.len()..];
    if rest.last() != Some(&b'}') {
        return Err("missing closing brace".to_string());
    }
    let payload = &rest[..rest.len() - 1];
    if fnv1a64(payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload not UTF-8".to_string())?;
    let value = json::parse(payload).map_err(|e| e.to_string())?;
    decode_record(&value).ok_or_else(|| "unknown or malformed record".to_string())
}

/// An open, recovered, append-only run journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    records: Vec<JournalRecord>,
    recovery: RecoveryReport,
    appends: u64,
    fsyncs: u64,
    kill_after: Option<u64>,
    killed: bool,
}

impl Journal {
    /// Opens (creating if absent) and recovers a journal: every line is
    /// re-validated — frame, checksum, record decode — and the file is
    /// truncated back to the last valid record if a torn or corrupt
    /// tail is found.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut valid_end = 0usize;
        while pos < bytes.len() {
            let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                break; // torn tail: no newline before EOF
            };
            let line = &bytes[pos..pos + nl];
            match parse_line(line) {
                Ok(rec) => {
                    records.push(rec);
                    pos += nl + 1;
                    valid_end = pos;
                }
                Err(_) => break, // first corrupt line: discard the rest
            }
        }

        let discarded = &bytes[valid_end..];
        let discarded_records = if discarded.is_empty() {
            0
        } else {
            let terminated = discarded.iter().filter(|&&b| b == b'\n').count() as u64;
            let torn_tail = u64::from(*discarded.last().expect("non-empty") != b'\n');
            terminated + torn_tail
        };
        let recovery = RecoveryReport {
            valid_records: records.len() as u64,
            discarded_records,
            discarded_bytes: discarded.len() as u64,
        };
        if recovery.recovered() {
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        Ok(Journal {
            file,
            path,
            records,
            fsyncs: u64::from(recovery.recovered()),
            recovery,
            appends: 0,
            kill_after: None,
            killed: false,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every valid record, recovered plus appended, in file order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// What open-time recovery found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Appends completed by this handle (not counting recovered
    /// records).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// `sync_data` calls made by this handle: one per non-empty
    /// [`Journal::append_batch`], plus one if open-time recovery
    /// truncated a damaged tail.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Arms a hard kill point: panic with [`JournalKilled`] right after
    /// the `n`-th successful append (1-based). `None` disarms.
    pub fn set_kill_after(&mut self, n: Option<u64>) {
        self.kill_after = n;
    }

    /// Durably appends one record: write, flush, fsync — the record is
    /// on disk before this returns. A batch of one through
    /// [`Journal::append_batch`], so it shares the kill-point rules.
    pub fn append(&mut self, rec: JournalRecord) -> Result<(), JournalError> {
        self.append_batch(vec![rec])
    }

    /// Durably appends a batch of records with **one** fsync — the
    /// group-commit path. Every record still occupies its own
    /// checksummed line (the on-disk format is identical to repeated
    /// [`Journal::append`] calls), but the batch shares a single
    /// `write + flush + sync_data`, so a committer paying one fsync
    /// latency can persist every record queued behind it.
    ///
    /// The armed kill point keeps its exact semantics: if the `n`-th
    /// append lands *inside* this batch, only the records up to and
    /// including the `n`-th are written (each one whole), the prefix is
    /// fsync'd, and the journal panics with [`JournalKilled`] — so
    /// "kill after n appends" still means *exactly n records on disk*,
    /// and a batch interrupted by the kill recovers to a clean
    /// record boundary, never a torn line.
    ///
    /// Once the armed kill point has fired, the journal is dead: any
    /// later append panics with [`JournalKilled`] *before* touching the
    /// file, so concurrent workers racing past a kill cannot write a
    /// single byte beyond the `n`-th record. That is what keeps "kill
    /// after n appends" meaning *exactly n records on disk* even under
    /// a multi-worker campaign.
    pub fn append_batch(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        if recs.is_empty() {
            return Ok(());
        }
        if self.killed {
            std::panic::panic_any(JournalKilled {
                appends: self.appends,
                kind: FaultKind::JournalKill,
            });
        }
        // Does the armed kill point land inside this batch?
        let kill_at = self
            .kill_after
            .and_then(|n| n.checked_sub(self.appends))
            .filter(|&k| k >= 1 && k <= recs.len() as u64);
        let write_n = kill_at.map_or(recs.len(), |k| k as usize);
        let mut buf = String::new();
        for rec in &recs[..write_n] {
            buf.push_str(&format_line(rec));
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        for rec in recs.into_iter().take(write_n) {
            self.records.push(rec);
        }
        self.appends += write_n as u64;
        if kill_at.is_some() {
            self.killed = true;
            std::panic::panic_any(JournalKilled {
                appends: self.appends,
                kind: FaultKind::JournalKill,
            });
        }
        Ok(())
    }

    /// The terminal record for `program` (finished or quarantined), if
    /// the campaign already completed it.
    pub fn program_terminal(&self, program: &str) -> Option<&JournalRecord> {
        self.records.iter().find(|r| match r {
            JournalRecord::ProgramFinished { program: p, .. }
            | JournalRecord::ProgramQuarantined { program: p, .. } => p == program,
            _ => false,
        })
    }
}

/// Where the pipeline checkpoints completed units. `Journal` is the
/// single-owner implementation; [`SharedJournal`] serializes the same
/// operations across campaign workers.
///
/// `program_records` returns an owned snapshot rather than borrowing
/// the record stream because a shared sink's records live behind a
/// lock that cannot be held across a whole pipeline run.
pub trait JournalSink {
    /// Durably appends a batch of records with one fsync, same
    /// contract as [`Journal::append_batch`] — including the armed
    /// kill point, which cuts the batch on a record boundary.
    fn append_batch_records(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError>;

    /// Snapshot of the records already journaled for `program`, in
    /// file order.
    fn program_records(&self, program: &str) -> Vec<JournalRecord>;

    /// What open-time recovery found.
    fn recovery_report(&self) -> RecoveryReport;
}

impl JournalSink for Journal {
    fn append_batch_records(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.append_batch(recs)
    }

    fn program_records(&self, program: &str) -> Vec<JournalRecord> {
        self.records
            .iter()
            .filter(|r| r.program() == Some(program))
            .cloned()
            .collect()
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.recovery.clone()
    }
}

/// A [`Journal`] behind `Arc<Mutex<_>>`: the serialized writer the
/// parallel campaign hands to every worker. Appends take the lock for
/// the full write+fsync, so records never interleave mid-line and the
/// on-disk order is exactly the lock-acquisition order.
///
/// Locking is poison-tolerant: an armed kill point panics *while
/// holding the lock* (that is the point — it simulates dying mid-run),
/// and the surviving workers must still be able to observe the killed
/// flag rather than deadlock or spuriously panic on `PoisonError`.
#[derive(Clone, Debug)]
pub struct SharedJournal {
    inner: std::sync::Arc<std::sync::Mutex<Journal>>,
}

impl SharedJournal {
    /// Wraps an opened, validated journal for shared use.
    pub fn new(journal: Journal) -> Self {
        SharedJournal {
            inner: std::sync::Arc::new(std::sync::Mutex::new(journal)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Serialized [`Journal::append`].
    pub fn append(&self, rec: JournalRecord) -> Result<(), JournalError> {
        self.lock().append(rec)
    }

    /// Serialized [`Journal::append_batch`] — one fsync for the whole
    /// batch.
    pub fn append_batch(&self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.lock().append_batch(recs)
    }

    /// Snapshot of every record, in file order.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.lock().records().to_vec()
    }

    /// What open-time recovery found.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery().clone()
    }

    /// Appends completed through this shared handle.
    pub fn appends(&self) -> u64 {
        self.lock().appends()
    }

    /// `sync_data` calls made through this shared handle (see
    /// [`Journal::fsyncs`]).
    pub fn fsyncs(&self) -> u64 {
        self.lock().fsyncs()
    }
}

impl JournalSink for SharedJournal {
    fn append_batch_records(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
        self.append_batch(recs)
    }

    fn program_records(&self, program: &str) -> Vec<JournalRecord> {
        self.lock()
            .records()
            .iter()
            .filter(|r| r.program() == Some(program))
            .cloned()
            .collect()
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.recovery()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owl-journal-test-{}-{tag}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::CampaignStarted {
                fingerprint: "abc123".into(),
                programs: vec!["Libsafe".into(), "SSDB".into()],
            },
            JournalRecord::ReportVerified {
                program: "Libsafe".into(),
                key: "@f1:%2|@f3:%4|0x1000|dying".into(),
                global: Some("dying".into()),
                confirmed: true,
                attempts: 3,
                injected_faults: 1,
            },
            JournalRecord::Quarantined {
                program: "Libsafe".into(),
                key: Some("@f1:%2|@f3:%4|0x1008|-".into()),
                global: None,
                error: PipelineError::VerifierAborted {
                    stage: Stage::RaceVerify,
                    cause: AbortCause::StepBudgetExhausted,
                    attempts: 7,
                },
                attempts: 7,
                injected_faults: 2,
            },
            JournalRecord::ProgramFinished {
                program: "Libsafe".into(),
                attempts: 1,
                summary: ProgramSummary {
                    raw_reports: 2,
                    adhoc_syncs: 0,
                    post_annotation_reports: 2,
                    verifier_eliminated: 0,
                    remaining: 2,
                    vulnerable: 1,
                    injected_faults: 1,
                    quarantined: 1,
                    findings: vec![FindingSummary {
                        global: "dying".into(),
                        hints: vec![HintSummary {
                            class: VulnClass::MemoryOp,
                            dep: DepKind::CtrlDep,
                            reached: true,
                        }],
                    }],
                },
            },
        ]
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        let recs = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            for r in &recs {
                j.append(r.clone()).unwrap();
            }
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), recs.as_slice());
        assert!(!j.recovery().recovered());
        assert_eq!(j.recovery().valid_records, recs.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp_path("torn");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Truncate the last record mid-line (no trailing newline).
        let cut = full.len() - 10;
        std::fs::write(&path, &full[..cut]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records().len(), sample_records().len() - 1);
        assert_eq!(j.recovery().discarded_records, 1);
        assert!(j.recovery().discarded_bytes > 0);
        // The file itself was repaired.
        let repaired = std::fs::read(&path).unwrap();
        assert!(full.starts_with(&repaired));
        assert_eq!(*repaired.last().unwrap(), b'\n');
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checksum_discards_from_there() {
        let path = tmp_path("crc");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte inside the second record's line.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let idx = first_nl + 40;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        // Only the header survives: the corrupt record and everything
        // after it are discarded.
        assert_eq!(j.records().len(), 1);
        assert_eq!(j.recovery().discarded_records, 3);
        assert_eq!(
            j.recovery().discarded_bytes,
            (bytes.len() - first_nl - 1) as u64
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_point_fires_after_nth_append() {
        let path = tmp_path("kill");
        let mut j = Journal::open(&path).unwrap();
        j.set_kill_after(Some(2));
        j.append(sample_records().remove(0)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.append(sample_records().remove(1))
        }))
        .expect_err("kill point must fire");
        let killed = err
            .downcast_ref::<JournalKilled>()
            .expect("payload is JournalKilled");
        assert_eq!(killed.appends, 2);
        assert_eq!(killed.kind, FaultKind::JournalKill);
        // Both appends are durably on disk — the "crash" lost nothing.
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.records().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_batch_round_trips_and_matches_per_record_format() {
        let batch_path = tmp_path("batch");
        let single_path = tmp_path("single");
        let recs = sample_records();
        {
            let mut j = Journal::open(&batch_path).unwrap();
            j.append_batch(recs.clone()).unwrap();
            j.append_batch(Vec::new()).unwrap();
            assert_eq!(j.appends(), recs.len() as u64);
            assert_eq!(j.fsyncs(), 1, "one fsync per non-empty batch");
        }
        {
            let mut j = Journal::open(&single_path).unwrap();
            for r in &recs {
                j.append(r.clone()).unwrap();
            }
            assert_eq!(j.fsyncs(), recs.len() as u64, "one fsync per append");
        }
        // Byte-identical to per-record appends: one line per record,
        // same checksummed frame.
        assert_eq!(
            std::fs::read(&batch_path).unwrap(),
            std::fs::read(&single_path).unwrap()
        );
        let j = Journal::open(&batch_path).unwrap();
        assert_eq!(j.records(), recs.as_slice());
        assert!(!j.recovery().recovered());
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&single_path);
    }

    #[test]
    fn kill_point_mid_batch_leaves_exactly_n_records() {
        let path = tmp_path("batch-kill");
        let mut j = Journal::open(&path).unwrap();
        j.set_kill_after(Some(3));
        j.append(sample_records().remove(0)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            j.append_batch(sample_records()[1..].to_vec())
        }))
        .expect_err("kill point lands inside the batch");
        let killed = err
            .downcast_ref::<JournalKilled>()
            .expect("payload is JournalKilled");
        assert_eq!(killed.appends, 3);
        // Exactly three whole records on disk — the batch was cut at
        // the kill point on a clean record boundary.
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.records(), &sample_records()[..3]);
        assert!(!j2.recovery().recovered(), "no torn line to repair");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_batch_tail_truncates_to_a_record_boundary() {
        let path = tmp_path("batch-torn");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append_batch(sample_records()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash that tore the final record of the batch.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), &sample_records()[..sample_records().len() - 1]);
        assert_eq!(j.recovery().discarded_records, 1);
        let repaired = std::fs::read(&path).unwrap();
        assert!(full.starts_with(&repaired));
        assert_eq!(*repaired.last().unwrap(), b'\n');
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn result_cached_record_round_trips() {
        let path = tmp_path("result-cached");
        let rec = JournalRecord::ResultCached {
            fingerprint: "deadbeefdeadbeef".into(),
            program: "Libsafe".into(),
            summary: ProgramSummary {
                raw_reports: 3,
                remaining: 1,
                vulnerable: 1,
                ..ProgramSummary::default()
            },
        };
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(rec.clone()).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records(), &[rec]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
