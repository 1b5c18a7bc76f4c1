//! The OWL pipeline (paper Figure 3), run under a supervisor.
//!
//! 1. A concurrency bug detector runs over the program's workloads and
//!    produces raw race reports.
//! 2. The static adhoc-synchronization detector extracts benign
//!    **schedule** hints from those reports; the program is annotated
//!    and the detector re-runs, shrinking the report set.
//! 3. The dynamic race verifier checks each surviving report by
//!    catching the race "in the racing moment"; unverifiable reports
//!    are eliminated.
//! 4. The static vulnerability analyzer (Algorithm 1) chases each
//!    verified corrupted read to the five vulnerable-site classes,
//!    producing vulnerable **input** hints.
//! 5. The dynamic vulnerability verifier re-runs the program against
//!    candidate inputs and checks whether each hinted site is actually
//!    reachable (and the attack realizable).
//!
//! ## Supervision
//!
//! Real detection campaigns run for hours over flaky programs; one
//! pathological report must not take the whole run down. The pipeline
//! therefore supervises stages 3–5 per report: panics are caught and
//! the offending report is moved to [`PipelineResult::quarantined`]
//! with a typed [`PipelineError`]; an optional per-stage wall-clock
//! deadline ([`OwlConfig::stage_deadline`]) quarantines whatever a
//! stage did not get to; verifications that abort (see
//! [`owl_verify::VerifyOutcome`]) are quarantined rather than silently
//! counted as eliminations. [`PipelineHealth`] summarizes attempts,
//! retries, injected faults, deadline hits, and panics per stage.

use crate::config::OwlConfig;
use crate::journal::{unit_key, JournalError, JournalRecord, JournalSink, RecordedVuln};
use owl_ir::analysis::{CallGraph, PointsTo};
use owl_ir::{FuncId, Module};
use owl_race::{explore_with_deadline, ExplorerConfig, HbAnnotation, RaceReport};
use owl_static::{
    AdhocSyncDetector, ElisionPrepass, SummaryCache, VulnAnalyzer, VulnReport, VulnStats,
};
use owl_verify::{
    AbortCause, RaceVerification, RaceVerifier, VerifyOutcome, VulnVerification, VulnVerifier,
};
use owl_vm::ProgramInput;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Table-3-shaped stage counters for one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// R.R. — raw race reports from the detector.
    pub raw_reports: usize,
    /// A.S. — adhoc synchronizations statically identified and
    /// annotated.
    pub adhoc_syncs: usize,
    /// Reports produced by the post-annotation detector re-run.
    pub post_annotation_reports: usize,
    /// R.V.E. — reports the dynamic race verifier could not confirm.
    pub verifier_eliminated: usize,
    /// R. — reports remaining after verification.
    pub remaining: usize,
    /// Races whose corrupted read reaches a vulnerable site (OWL's
    /// final, security-relevant reports).
    pub vulnerable: usize,
    /// Wall-clock spent in the static vulnerability analyzer.
    pub analysis_time: Duration,
    /// Number of reports analyzed (denominator for the average cost).
    pub analysis_count: usize,
    /// Aggregated traversal counters from Algorithm 1.
    pub analysis_work: VulnStats,
    /// Wall-clock spent in detection (both runs).
    pub detect_time: Duration,
    /// Wall-clock spent purely in dynamic race detection (stage 1's
    /// raw sweep plus stage 2's post-annotation re-run) — the explorer
    /// share of [`PipelineStats::detect_time`].
    pub race_detect_time: Duration,
    /// Wall-clock spent in stage 2's static adhoc-synchronization
    /// identification.
    pub static_analysis_time: Duration,
    /// Wall-clock spent in dynamic verification (races + vulns).
    pub verify_time: Duration,
    /// Wall-clock spent in stage 3 (dynamic race verification) alone.
    pub race_verify_time: Duration,
    /// Wall-clock spent in stage 5 (dynamic vulnerability
    /// verification) alone.
    pub vuln_verify_time: Duration,
    /// Wall-clock spent solving the check-elision pre-pass (zero when
    /// [`crate::OwlConfig::elide`] is off).
    pub elision_solve_time: Duration,
}

impl PipelineStats {
    /// Fraction of raw reports pruned before a developer sees them.
    pub fn reduction_ratio(&self) -> f64 {
        if self.raw_reports == 0 {
            return 0.0;
        }
        1.0 - (self.remaining as f64 / self.raw_reports as f64)
    }

    /// Average static-analysis cost per analyzed report.
    pub fn avg_analysis_cost(&self) -> Duration {
        if self.analysis_count == 0 {
            return Duration::ZERO;
        }
        self.analysis_time / self.analysis_count as u32
    }
}

/// A supervised pipeline stage (used to tag errors and health).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stages 1–2: detection and the post-annotation re-run.
    Detect,
    /// Stage 2's static adhoc-synchronization identification.
    AdhocSync,
    /// Stage 3: dynamic race verification.
    RaceVerify,
    /// Stage 4: static vulnerability analysis (Algorithm 1).
    VulnAnalyze,
    /// Stage 5: dynamic vulnerability verification.
    VulnVerify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Detect => f.write_str("detect"),
            Stage::AdhocSync => f.write_str("adhoc-sync"),
            Stage::RaceVerify => f.write_str("race-verify"),
            Stage::VulnAnalyze => f.write_str("vuln-analyze"),
            Stage::VulnVerify => f.write_str("vuln-verify"),
        }
    }
}

/// Why a report (or the whole run) was quarantined instead of flowing
/// through the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// A stage panicked while processing the report; the supervisor
    /// caught the unwind.
    Panicked {
        /// The stage that panicked.
        stage: Stage,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The per-stage wall-clock deadline expired before the stage got
    /// to this report.
    StageDeadline {
        /// The stage whose deadline expired.
        stage: Stage,
    },
    /// A dynamic verifier gave up without a meaningful answer.
    VerifierAborted {
        /// The verification stage that aborted.
        stage: Stage,
        /// Why it aborted.
        cause: AbortCause,
        /// Attempts it completed before aborting.
        attempts: u64,
    },
    /// The pipeline's entry function cannot be executed at all, so no
    /// stage ran.
    InvalidEntry {
        /// What is wrong with the entry.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Panicked { stage, message } => {
                write!(f, "{stage} stage panicked: {message}")
            }
            PipelineError::StageDeadline { stage } => {
                write!(f, "{stage} stage deadline expired")
            }
            PipelineError::VerifierAborted {
                stage,
                cause,
                attempts,
            } => write!(f, "{stage} aborted after {attempts} attempt(s): {cause}"),
            PipelineError::InvalidEntry { reason } => {
                write!(f, "invalid entry function: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A race report the supervisor pulled out of the pipeline together
/// with the reason.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// The report that was being processed.
    pub race: RaceReport,
    /// Why it was quarantined.
    pub error: PipelineError,
}

/// Supervision counters for one stage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageHealth {
    /// Work units attempted (executions for detection, verification
    /// attempts for the verifiers, reports for the analyzer).
    pub attempts: u64,
    /// Attempts beyond the first per report (the retry-with-reseed
    /// budget actually spent).
    pub retries: u64,
    /// Faults the VM's fault plan injected during this stage.
    pub injected_faults: u64,
    /// Times a wall-clock deadline cut this stage short.
    pub deadline_hits: u64,
    /// Panics the supervisor caught in this stage.
    pub panics: u64,
    /// Reports quarantined out of this stage.
    pub quarantined: u64,
}

/// Per-stage [`StageHealth`] for a whole pipeline run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineHealth {
    /// Stages 1–2 (detection runs, both sweeps).
    pub detect: StageHealth,
    /// Stage 3 (dynamic race verification).
    pub race_verify: StageHealth,
    /// Stage 4 (static vulnerability analysis).
    pub vuln_analyze: StageHealth,
    /// Stage 5 (dynamic vulnerability verification).
    pub vuln_verify: StageHealth,
    /// Stage-4 summary-cache hits: memoized callee walks replayed
    /// instead of recomputed (across reports and worker threads).
    pub summary_cache_hits: u64,
    /// Stage-4 summary-cache misses: callee walks actually computed.
    pub summary_cache_misses: u64,
    /// Wall-clock spent solving the whole-module points-to analysis
    /// (done once per stage-4 entry, shared by every report).
    pub points_to_solve: Duration,
    /// Bytes the run journal's open-time recovery truncated off a
    /// torn or corrupt tail (zero when no journal was used or the
    /// journal was clean).
    pub journal_discarded_bytes: u64,
    /// Records discarded by the run journal's open-time recovery.
    pub journal_discarded_records: u64,
    /// Race observations the detector suppressed because they matched
    /// an adhoc-synchronization annotation, summed over both detection
    /// sweeps. (Live runs only — not journaled.)
    pub detector_suppressed: u64,
    /// Observations of new site pairs the detector dropped because the
    /// report cap was full. Non-zero means the raw report set is
    /// truncated. (Live runs only — not journaled.)
    pub detector_reports_dropped: u64,
    /// Access sites the check-elision pre-pass proved thread-local.
    pub elision_sites_thread_local: u64,
    /// Access sites the pre-pass proved lock-dominated.
    pub elision_sites_lock_dominated: u64,
    /// Access sites the pre-pass proved read-only-shared.
    pub elision_sites_read_only: u64,
    /// Data-access events whose epoch shadow-memory work was skipped
    /// at elided sites, summed over both detection sweeps.
    pub elision_events_elided: u64,
    /// Shadow cells the detectors' thread-exit/free GC reclaimed.
    /// (Live runs only — not journaled.)
    pub shadow_cells_gced: u64,
    /// Detection units aborted with a typed memory-budget verdict
    /// because a predictive backend's buffered trace outgrew
    /// `--max-trace-mem`. Always zero under the epoch and reference
    /// backends, which buffer no trace. Reconstructed on resume from
    /// quarantine records.
    pub units_aborted_mem_budget: u64,
    /// Conflicting access pairs the predictive detection backends
    /// submitted to the witness machinery, summed over both detection
    /// sweeps. Zero for non-predictive backends. (Live runs only —
    /// not journaled.)
    pub predict_candidates: u64,
    /// Predicted-race candidates with a validated witness reordering.
    /// (Live runs only — not journaled.)
    pub predict_witnessed: u64,
    /// Predicted-race candidates rejected by the closure, scheduler,
    /// or witness validator. (Live runs only — not journaled.)
    pub predict_witness_rejected: u64,
    /// Witnessed predicted races that required reversing a
    /// lock-acquire order (`syncrev` backend only). (Live runs only —
    /// not journaled.)
    pub predict_reversal_races: u64,
    /// Detection units the explorer launched from a mid-run snapshot
    /// instead of instruction zero (prefix-sharing fork mode), summed
    /// over both sweeps. Zero under `--no-fork`. (Live runs only —
    /// not journaled.)
    pub units_forked: u64,
    /// VM steps detection units did not re-execute thanks to prefix
    /// sharing. Zero under `--no-fork`. (Live runs only — not
    /// journaled.)
    pub prefix_steps_saved: u64,
    /// Detection units whose realized schedule collapsed to an
    /// already-run signature, so their outcome was reused without
    /// executing the VM. Zero under `--no-fork`. (Live runs only —
    /// not journaled.)
    pub schedules_deduped: u64,
    /// Estimated bytes of machine state captured by per-input
    /// snapshots (heap payloads are CoW-shared). Zero under
    /// `--no-fork`. (Live runs only — not journaled.)
    pub snapshot_bytes: u64,
}

impl PipelineHealth {
    /// All faults injected across every stage.
    pub fn total_injected_faults(&self) -> u64 {
        self.detect.injected_faults
            + self.race_verify.injected_faults
            + self.vuln_analyze.injected_faults
            + self.vuln_verify.injected_faults
    }

    /// All reports quarantined across every stage.
    pub fn total_quarantined(&self) -> u64 {
        self.detect.quarantined
            + self.race_verify.quarantined
            + self.vuln_analyze.quarantined
            + self.vuln_verify.quarantined
    }

    /// All panics caught across every stage.
    pub fn total_panics(&self) -> u64 {
        self.detect.panics
            + self.race_verify.panics
            + self.vuln_analyze.panics
            + self.vuln_verify.panics
    }

    /// Accumulates another run's counters into this one — the daemon's
    /// watchdog folds every completed request's health into one
    /// service-wide view.
    pub fn merge(&mut self, other: &PipelineHealth) {
        for (mine, theirs) in [
            (&mut self.detect, &other.detect),
            (&mut self.race_verify, &other.race_verify),
            (&mut self.vuln_analyze, &other.vuln_analyze),
            (&mut self.vuln_verify, &other.vuln_verify),
        ] {
            mine.attempts += theirs.attempts;
            mine.retries += theirs.retries;
            mine.injected_faults += theirs.injected_faults;
            mine.deadline_hits += theirs.deadline_hits;
            mine.panics += theirs.panics;
            mine.quarantined += theirs.quarantined;
        }
        self.summary_cache_hits += other.summary_cache_hits;
        self.summary_cache_misses += other.summary_cache_misses;
        self.points_to_solve += other.points_to_solve;
        self.journal_discarded_bytes += other.journal_discarded_bytes;
        self.journal_discarded_records += other.journal_discarded_records;
        self.detector_suppressed += other.detector_suppressed;
        self.detector_reports_dropped += other.detector_reports_dropped;
        self.elision_sites_thread_local += other.elision_sites_thread_local;
        self.elision_sites_lock_dominated += other.elision_sites_lock_dominated;
        self.elision_sites_read_only += other.elision_sites_read_only;
        self.elision_events_elided += other.elision_events_elided;
        self.shadow_cells_gced += other.shadow_cells_gced;
        self.units_aborted_mem_budget += other.units_aborted_mem_budget;
        self.predict_candidates += other.predict_candidates;
        self.predict_witnessed += other.predict_witnessed;
        self.predict_witness_rejected += other.predict_witness_rejected;
        self.predict_reversal_races += other.predict_reversal_races;
        self.units_forked += other.units_forked;
        self.prefix_steps_saved += other.prefix_steps_saved;
        self.schedules_deduped += other.schedules_deduped;
        self.snapshot_bytes += other.snapshot_bytes;
    }
}

/// Renders a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One verified race together with its bug-to-attack analysis.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The race report (post-annotation).
    pub race: RaceReport,
    /// Dynamic race verification evidence.
    pub verification: RaceVerification,
    /// Vulnerable input hints from Algorithm 1 (may be empty for
    /// verified-but-benign races).
    pub vulns: Vec<VulnReport>,
    /// Dynamic vulnerability verifications, parallel to `vulns`.
    pub vuln_verifications: Vec<VulnVerification>,
}

impl Finding {
    /// Whether any hinted site was dynamically reached.
    pub fn any_site_reached(&self) -> bool {
        self.vuln_verifications.iter().any(|v| v.reached)
    }
}

/// Everything the pipeline produced for one program.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Program name.
    pub program: String,
    /// Stage counters (Table 3 row).
    pub stats: PipelineStats,
    /// Annotations applied after stage 2.
    pub annotations: Vec<HbAnnotation>,
    /// Verified races with their analyses (stage 3–5 output).
    pub findings: Vec<Finding>,
    /// Reports the supervisor pulled out of the pipeline (panics,
    /// deadline expiries, aborted verifications).
    pub quarantined: Vec<Quarantined>,
    /// Supervision counters per stage.
    pub health: PipelineHealth,
    /// A run-level error that prevented the pipeline from running at
    /// all (currently only [`PipelineError::InvalidEntry`]).
    pub error: Option<PipelineError>,
}

impl PipelineResult {
    /// Findings that carry at least one vulnerable input hint — OWL's
    /// final reports (Table 2's last column).
    pub fn vulnerable_findings(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| !f.vulns.is_empty())
    }

    /// The finding covering a given racy global, if any.
    pub fn finding_on(&self, global: &str) -> Option<&Finding> {
        self.findings
            .iter()
            .find(|f| f.race.global_name.as_deref() == Some(global) && !f.vulns.is_empty())
            .or_else(|| {
                self.findings
                    .iter()
                    .find(|f| f.race.global_name.as_deref() == Some(global))
            })
    }

    /// An empty result carrying only a run-level error.
    fn failed(name: &str, error: PipelineError) -> Self {
        PipelineResult {
            program: name.to_string(),
            stats: PipelineStats::default(),
            annotations: Vec::new(),
            findings: Vec::new(),
            quarantined: Vec::new(),
            health: PipelineHealth::default(),
            error: Some(error),
        }
    }
}

/// The OWL pipeline bound to one program.
#[derive(Debug)]
pub struct Owl<'m> {
    module: &'m Module,
    entry: FuncId,
    config: OwlConfig,
}

impl<'m> Owl<'m> {
    /// Creates a pipeline for `module`, starting at `entry`.
    pub fn new(module: &'m Module, entry: FuncId, config: OwlConfig) -> Self {
        Owl {
            module,
            entry,
            config,
        }
    }

    /// Pipeline with default configuration.
    pub fn with_defaults(module: &'m Module, entry: FuncId) -> Self {
        Self::new(module, entry, OwlConfig::default())
    }

    /// Checks that the entry function can actually be executed, so the
    /// VM constructor cannot panic deep inside a stage.
    fn validate_entry(&self) -> Result<(), PipelineError> {
        let f = self.module.func(self.entry);
        if !f.is_internal {
            return Err(PipelineError::InvalidEntry {
                reason: format!("`{}` is external (no body to execute)", f.name),
            });
        }
        if f.num_params != 0 {
            return Err(PipelineError::InvalidEntry {
                reason: format!(
                    "`{}` takes {} parameter(s); the entry must take none",
                    f.name, f.num_params
                ),
            });
        }
        Ok(())
    }

    /// Runs the full pipeline.
    ///
    /// * `workloads` drive detection (all of them).
    /// * `workloads[0]` (the primary workload) drives race
    ///   verification, reproducing the paper's one-input verification
    ///   regime (§5.2).
    /// * `extra_inputs` are additional candidate inputs (e.g. suspected
    ///   exploit inputs) the vulnerability verifier sweeps on top of
    ///   the workloads.
    pub fn run(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        if let Err(e) = self.validate_entry() {
            return PipelineResult::failed(name, e);
        }
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth::default();
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        let (annotations, reports) =
            match self.detect_and_annotate(workloads, &mut stats, &mut health) {
                Ok(out) => out,
                Err(error) => {
                    return PipelineResult {
                        program: name.to_string(),
                        stats,
                        annotations: Vec::new(),
                        findings: Vec::new(),
                        quarantined,
                        health,
                        error: Some(error),
                    };
                }
            };
        let findings = self.verify_and_analyze(
            &reports,
            workloads,
            extra_inputs,
            &mut stats,
            &mut health,
            &mut quarantined,
        );

        PipelineResult {
            program: name.to_string(),
            stats,
            annotations,
            findings,
            quarantined,
            health,
            error: None,
        }
    }

    /// Stages 1–2: raw detection, adhoc-synchronization annotation,
    /// and the post-annotation re-run. Shared by [`Owl::run`] and
    /// [`Owl::run_with_journal`]; fully deterministic for a fixed
    /// configuration (seeded explorer, seeded fault plan), which is
    /// what makes it safe to re-execute on resume instead of
    /// journaling its reports.
    ///
    /// Returns a [`PipelineError::VerifierAborted`] with
    /// [`AbortCause::MemoryBudget`] when any exploration unit's
    /// predictive trace buffer outgrew `--max-trace-mem` — the unit's
    /// reports were discarded, so continuing to the verifiers would
    /// verify an incomplete report set.
    fn detect_and_annotate(
        &self,
        workloads: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
    ) -> Result<(Vec<HbAnnotation>, Vec<RaceReport>), PipelineError> {
        let deadline = self.config.stage_deadline;

        // Stage 0 (optional): check-elision pre-pass. Installs the
        // proved-race-free site set in *both* sweeps' configs so the
        // VM stamps their events and the epoch detector skips its
        // shadow work there. Purely an optimization: report streams
        // are byte-identical with it on or off.
        let mut detect_cfg = self.config.detect.clone();
        if self.config.elide {
            let pre = ElisionPrepass::run(self.module, self.entry);
            let es = pre.stats();
            stats.elision_solve_time = pre.solve_time();
            health.elision_sites_thread_local += es.thread_local as u64;
            health.elision_sites_lock_dominated += es.lock_dominated as u64;
            health.elision_sites_read_only += es.read_only as u64;
            detect_cfg.elided_sites = Some(pre.elided_sites());
        }

        // Stage 1: raw detection.
        let t0 = Instant::now();
        let raw = explore_with_deadline(self.module, self.entry, workloads, &detect_cfg, deadline);
        let raw_detect = t0.elapsed();
        stats.raw_reports = raw.reports.len();
        health.detect.attempts += raw.runs;
        health.detect.injected_faults += raw.injected_faults;
        health.detect.deadline_hits += raw.deadline_hit as u64;
        absorb_sweep_health(health, &raw);
        if raw.units_aborted_mem_budget > 0 {
            stats.detect_time = t0.elapsed();
            return Err(PipelineError::VerifierAborted {
                stage: Stage::Detect,
                cause: AbortCause::MemoryBudget,
                attempts: raw.units_aborted_mem_budget,
            });
        }

        // Stage 2: adhoc-synchronization hints + annotate + re-detect.
        let t_static = Instant::now();
        let adhoc = AdhocSyncDetector::new(self.module);
        let annotations: Vec<HbAnnotation> = adhoc
            .detect(&raw.reports)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
        stats.static_analysis_time = t_static.elapsed();
        stats.adhoc_syncs = annotations.len();
        let annotated_cfg = ExplorerConfig {
            annotations: annotations.clone(),
            ..detect_cfg
        };
        let t_rerun = Instant::now();
        let reduced =
            explore_with_deadline(self.module, self.entry, workloads, &annotated_cfg, deadline);
        stats.race_detect_time = raw_detect + t_rerun.elapsed();
        stats.post_annotation_reports = reduced.reports.len();
        health.detect.attempts += reduced.runs;
        health.detect.injected_faults += reduced.injected_faults;
        health.detect.deadline_hits += reduced.deadline_hit as u64;
        absorb_sweep_health(health, &reduced);
        if reduced.units_aborted_mem_budget > 0 {
            stats.detect_time = t0.elapsed();
            return Err(PipelineError::VerifierAborted {
                stage: Stage::Detect,
                cause: AbortCause::MemoryBudget,
                attempts: reduced.units_aborted_mem_budget,
            });
        }
        health.detector_suppressed += (raw.suppressed + reduced.suppressed) as u64;
        health.elision_events_elided += raw.events_elided + reduced.events_elided;
        let dropped = raw.reports_dropped + reduced.reports_dropped;
        health.detector_reports_dropped += dropped as u64;
        if dropped > 0 {
            eprintln!(
                "detect: report cap truncated {dropped} race observation(s); \
                 raise HbConfig::max_reports to keep them"
            );
        }
        stats.detect_time = t0.elapsed();
        Ok((annotations, reduced.reports))
    }

    /// Runs the full pipeline with checkpoint/resume against a run
    /// journal.
    ///
    /// Stages 1–2 are seeded-deterministic and cheap relative to the
    /// dynamic verifiers, so they re-execute on every call; stages 3–5
    /// are journaled per unit. A unit whose record is already in the
    /// journal is **replayed** — its recorded verdict and health
    /// contribution are restored without executing anything — and
    /// live units are group-committed: one write + flush + fsync per
    /// [`JournalSink::append_batch_records`] batch. Stage 3 verifies
    /// reports across all cores but commits their records in report
    /// order: a finished verdict joins the open batch once every
    /// report before it is done, and the batch is committed whenever
    /// the next verdict is still running (just before the committer
    /// would wait), when it holds 128 records, and when the stage
    /// ends. Stages 4–5 commit all of the program's live findings in
    /// one batch when they end. Killing the process at any point
    /// therefore loses, for this program, at most the live units of
    /// its current stage not yet committed — in stage 3 the open
    /// batch, the verdicts in flight on the workers and those that
    /// finished behind a still-running earlier report; in stages 4–5
    /// every live unit of the stage. A rerun with the same journal
    /// picks up exactly where the record stream ends and produces the
    /// same deterministic summary an uninterrupted run would have.
    ///
    /// Journal recovery counters ([`JournalSink::recovery_report`])
    /// are surfaced
    /// in the result's [`PipelineHealth::journal_discarded_bytes`] and
    /// [`PipelineHealth::journal_discarded_records`].
    ///
    /// Stages 1–2 honor [`OwlConfig::stage_deadline`] as usual, but
    /// the journaled stages 3–5 deliberately do not: wall-clock cuts
    /// are inherently non-deterministic and would break byte-identical
    /// resume. Campaign runs bound stage work with the verifiers'
    /// seeded step budgets instead.
    pub fn run_with_journal<J: JournalSink>(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        journal: &mut J,
    ) -> Result<PipelineResult, JournalError> {
        self.run_journaled(name, workloads, extra_inputs, journal, fan_out_width)
    }

    /// [`Owl::run_with_journal`] with the stage-3 width chosen by
    /// `stage3_width` from the number of live reports.
    fn run_journaled<J: JournalSink>(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        journal: &mut J,
        stage3_width: impl Fn(usize) -> usize,
    ) -> Result<PipelineResult, JournalError> {
        if let Err(e) = self.validate_entry() {
            return Ok(PipelineResult::failed(name, e));
        }
        let recovery = journal.recovery_report();
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth {
            journal_discarded_bytes: recovery.discarded_bytes,
            journal_discarded_records: recovery.discarded_records,
            ..PipelineHealth::default()
        };
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        let (annotations, reports) =
            match self.detect_and_annotate(workloads, &mut stats, &mut health) {
                Ok(out) => out,
                Err(error) => {
                    return Ok(PipelineResult {
                        program: name.to_string(),
                        stats,
                        annotations: Vec::new(),
                        findings: Vec::new(),
                        quarantined,
                        health,
                        error: Some(error),
                    });
                }
            };
        let program_records = journal.program_records(name);
        let mut index = ResumeIndex::for_program(&program_records, name);
        let tv = Instant::now();
        let t3 = Instant::now();

        // Stage 3, journaled: resolve every recorded verdict first (in
        // report order, so equal keys consume their records in journal
        // order), fan the rest out, and commit in report order — each
        // live verdict joins the open batch the moment it and every
        // report before it are done, and the batch is committed just
        // before the committer would wait for a verdict still running,
        // or once it holds `STAGE3_BATCH_MAX` records.
        let replays: Vec<Option<VerifyUnit>> = reports
            .iter()
            .map(|report| index.next_verify(&unit_key(report)))
            .collect();
        let live: Vec<&RaceReport> = reports
            .iter()
            .zip(&replays)
            .filter(|(_, replay)| replay.is_none())
            .map(|(report, _)| report)
            .collect();
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        let width = stage3_width(live.len());
        self.verify_in_order(
            &workloads[0],
            &live,
            width,
            Committer::Journals,
            |results| {
                let mut batch = Vec::new();
                for (report, replay) in reports.iter().zip(replays) {
                    let (unit, verification) = match replay {
                        Some(unit) => (unit, None),
                        None => {
                            let result = match results.next_ready() {
                                Some(result) => result,
                                None => {
                                    commit(journal, &mut batch)?;
                                    results.next().expect("one stage-3 result per live report")
                                }
                            };
                            let (unit, verification) = VerifyUnit::live(result);
                            batch.push(unit.record(name, unit_key(report), report));
                            if batch.len() == STAGE3_BATCH_MAX {
                                commit(journal, &mut batch)?;
                            }
                            (unit, verification)
                        }
                    };
                    absorb_race_unit(
                        report,
                        unit,
                        verification,
                        &mut stats,
                        &mut health,
                        &mut verified,
                        &mut quarantined,
                    );
                }
                commit(journal, &mut batch)
            },
        )?;
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();

        // Stages 4–5, journaled per confirmed report: static analysis
        // plus dynamic vulnerability verification form one unit, so a
        // finding is either fully recorded or re-derived from scratch.
        // The live units' records are committed in one batch at the
        // end of the stage.
        let needs_live = verified
            .iter()
            .any(|(race, _)| !index.has_analyze(&unit_key(race)));
        let vuln_cfg = &self.config.vuln;
        let mut analyzer = needs_live.then(|| {
            let tp = Instant::now();
            let points_to = vuln_cfg
                .points_to
                .then(|| Arc::new(PointsTo::new(self.module)));
            health.points_to_solve += tp.elapsed();
            let callgraph = vuln_cfg.summaries.then(|| {
                Arc::new(match &points_to {
                    Some(p) => CallGraph::with_points_to(self.module, p),
                    None => CallGraph::new(self.module),
                })
            });
            let cache = vuln_cfg.summaries.then(|| Arc::new(SummaryCache::new()));
            VulnAnalyzer::with_shared(self.module, vuln_cfg.clone(), points_to, callgraph, cache)
        });
        let vuln_verifier = VulnVerifier::new(self.module, self.config.vuln_verify.clone());
        let mut candidates: Vec<ProgramInput> = workloads.to_vec();
        candidates.extend_from_slice(extra_inputs);
        let mut findings = Vec::new();
        let mut batch = Vec::new();
        for (race, verification) in verified {
            let key = unit_key(&race);
            if let Some(replay) = index.next_analyze(&key) {
                match replay {
                    AnalyzeReplay::Finding(vulns) => {
                        health.vuln_analyze.attempts += 1;
                        let mut reports = Vec::with_capacity(vulns.len());
                        let mut verifications = Vec::with_capacity(vulns.len());
                        for rv in vulns {
                            health.vuln_verify.attempts += rv.attempts;
                            health.vuln_verify.retries += rv.attempts.saturating_sub(1);
                            health.vuln_verify.injected_faults += rv.injected_faults;
                            if let VerifyOutcome::Aborted { cause, attempts } = rv.verdict {
                                let error = PipelineError::VerifierAborted {
                                    stage: Stage::VulnVerify,
                                    cause,
                                    attempts,
                                };
                                apply_quarantine_health(&mut health.vuln_verify, &error);
                                quarantined.push(Quarantined {
                                    race: race.clone(),
                                    error,
                                });
                            }
                            verifications.push(replayed_vuln_verification(&rv));
                            reports.push(rv.report);
                        }
                        findings.push(Finding {
                            race,
                            verification,
                            vulns: reports,
                            vuln_verifications: verifications,
                        });
                    }
                    AnalyzeReplay::Quarantined { error } => {
                        health.vuln_analyze.attempts += 1;
                        apply_quarantine_health(&mut health.vuln_analyze, &error);
                        quarantined.push(Quarantined { race, error });
                    }
                }
                continue;
            }

            // Live stage 4.
            health.vuln_analyze.attempts += 1;
            let analyzer = analyzer
                .as_mut()
                .expect("analyzer built whenever a live unit exists");
            let read_info = race
                .read_access()
                .map(|read| (read.site, read.stack.to_vec()));
            let vulns = match read_info {
                Some((site, stack)) => {
                    let ta = Instant::now();
                    let analyzed =
                        catch_unwind(AssertUnwindSafe(|| analyzer.analyze(site, &stack)));
                    stats.analysis_time += ta.elapsed();
                    match analyzed {
                        Ok((reports, work)) => {
                            stats.analysis_count += 1;
                            stats.analysis_work.insts_visited += work.insts_visited;
                            stats.analysis_work.funcs_entered += work.funcs_entered;
                            reports
                        }
                        Err(payload) => {
                            let error = PipelineError::Panicked {
                                stage: Stage::VulnAnalyze,
                                message: panic_message(payload),
                            };
                            batch.push(JournalRecord::Quarantined {
                                program: name.to_string(),
                                key: Some(key),
                                global: race.global_name.clone(),
                                error: error.clone(),
                                attempts: 0,
                                injected_faults: 0,
                            });
                            apply_quarantine_health(&mut health.vuln_analyze, &error);
                            quarantined.push(Quarantined { race, error });
                            continue;
                        }
                    }
                }
                None => Vec::new(),
            };

            // Live stage 5 over this finding's hints.
            let t5 = Instant::now();
            let mut recorded = Vec::with_capacity(vulns.len());
            let mut verifications = Vec::with_capacity(vulns.len());
            for vr in &vulns {
                let v = match catch_unwind(AssertUnwindSafe(|| {
                    vuln_verifier.verify(self.entry, &candidates, vr)
                })) {
                    Ok(v) => v,
                    Err(payload) => {
                        health.vuln_verify.panics += 1;
                        health.vuln_verify.quarantined += 1;
                        quarantined.push(Quarantined {
                            race: race.clone(),
                            error: PipelineError::Panicked {
                                stage: Stage::VulnVerify,
                                message: panic_message(payload),
                            },
                        });
                        aborted_vuln_verification(AbortCause::Panicked, 0)
                    }
                };
                health.vuln_verify.attempts += v.attempts;
                health.vuln_verify.retries += v.attempts.saturating_sub(1);
                health.vuln_verify.injected_faults += v.injected_faults;
                if let VerifyOutcome::Aborted { cause, attempts } = v.verdict {
                    if cause != AbortCause::Panicked {
                        let error = PipelineError::VerifierAborted {
                            stage: Stage::VulnVerify,
                            cause,
                            attempts,
                        };
                        apply_quarantine_health(&mut health.vuln_verify, &error);
                        quarantined.push(Quarantined {
                            race: race.clone(),
                            error,
                        });
                    }
                }
                recorded.push(RecordedVuln {
                    report: vr.clone(),
                    reached: v.reached,
                    verdict: v.verdict,
                    attempts: v.attempts,
                    injected_faults: v.injected_faults,
                });
                verifications.push(v);
            }
            stats.vuln_verify_time += t5.elapsed();
            batch.push(JournalRecord::FindingAnalyzed {
                program: name.to_string(),
                key,
                global: race.global_name.clone(),
                vulns: recorded,
            });
            findings.push(Finding {
                race,
                verification,
                vulns,
                vuln_verifications: verifications,
            });
        }
        commit(journal, &mut batch)?;
        stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
        stats.verify_time += tv.elapsed();

        Ok(PipelineResult {
            program: name.to_string(),
            stats,
            annotations,
            findings,
            quarantined,
            health,
            error: None,
        })
    }

    /// Runs the pipeline with an **atomicity-violation** front-end
    /// instead of the race detector — the CTrigger/AVIO integration the
    /// paper lists as future work (§8.3). Atomicity reports are
    /// converted to race-shaped access pairs, and the verification and
    /// analysis stages run unchanged.
    pub fn run_atomicity(
        &self,
        name: &str,
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
    ) -> PipelineResult {
        if let Err(e) = self.validate_entry() {
            return PipelineResult::failed(name, e);
        }
        let mut stats = PipelineStats::default();
        let mut health = PipelineHealth::default();
        let mut quarantined = Vec::new();
        let default_workloads = [ProgramInput::empty()];
        let workloads: &[ProgramInput] = if workloads.is_empty() {
            &default_workloads
        } else {
            workloads
        };

        // Detection: sweep schedules feeding the atomicity detector.
        let t0 = Instant::now();
        let mut detector = owl_race::AtomicityDetector::new();
        for input in workloads {
            for k in 0..self.config.detect.runs_per_input {
                let seed = self.config.detect.base_seed + k;
                let mut sched = owl_vm::RandomScheduler::new(seed);
                let vm = owl_vm::Vm::new(
                    self.module,
                    self.entry,
                    input.clone(),
                    self.config.detect.run_config.clone(),
                );
                let outcome = vm.run(&mut sched, &mut detector);
                health.detect.attempts += 1;
                health.detect.injected_faults += outcome.injected_faults.len() as u64;
            }
        }
        let atomicity_reports = detector.finish(self.module);
        stats.raw_reports = atomicity_reports.len();
        stats.post_annotation_reports = atomicity_reports.len();
        stats.detect_time = t0.elapsed();
        // The atomicity front-end has no static-annotation stage: all
        // of detection is dynamic.
        stats.race_detect_time = stats.detect_time;

        // Stage 3 (atomicity flavour): the racing-moment check does not
        // apply — both accesses may be individually lock-protected, so
        // they can never be co-suspended. CTrigger-style verification
        // instead re-executes and confirms the unserializable
        // interleaving re-manifests.
        //
        // Attempt k of every report runs the same execution — seed
        // `base_seed + k` on the primary input, no breakpoints — so each
        // seed runs at most once per call: `seed_runs[k]` holds that
        // run's report keys and injected-fault count, filled lazily as
        // far as the reports need.
        let tv = Instant::now();
        let t3 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let mut processed = 0u64;
        let primary = &workloads[0];
        let mut seed_runs: Vec<(Vec<_>, u64)> = Vec::new();
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        for report in &atomicity_reports {
            if let Some(d) = self.config.stage_deadline {
                if !stage_expired && processed > 0 && stage_start.elapsed() >= d {
                    stage_expired = true;
                    health.race_verify.deadline_hits += 1;
                }
            }
            if stage_expired {
                health.race_verify.quarantined += 1;
                quarantined.push(Quarantined {
                    race: report.as_race_report(),
                    error: PipelineError::StageDeadline {
                        stage: Stage::RaceVerify,
                    },
                });
                continue;
            }
            processed += 1;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut confirmed = false;
                let mut attempts = 0u64;
                let mut faults = 0u64;
                for k in 0..self.config.race_verify.max_schedules {
                    attempts = k + 1;
                    if seed_runs.len() as u64 == k {
                        let mut re = owl_race::AtomicityDetector::new();
                        let mut sched =
                            owl_vm::RandomScheduler::new(self.config.race_verify.base_seed + k);
                        let vm = owl_vm::Vm::new(
                            self.module,
                            self.entry,
                            primary.clone(),
                            self.config.race_verify.run_config.clone(),
                        );
                        let outcome = vm.run(&mut sched, &mut re);
                        let keys = re.reports().iter().map(|r| r.key()).collect();
                        seed_runs.push((keys, outcome.injected_faults.len() as u64));
                    }
                    let (keys, seed_faults) = &seed_runs[k as usize];
                    faults += seed_faults;
                    if keys.contains(&report.key()) {
                        confirmed = true;
                        break;
                    }
                }
                (confirmed, attempts, faults)
            }));
            match attempt {
                Ok((confirmed, attempts, faults)) => {
                    health.race_verify.attempts += attempts;
                    health.race_verify.retries += attempts.saturating_sub(1);
                    health.race_verify.injected_faults += faults;
                    if confirmed {
                        verified.push((
                            report.as_race_report(),
                            RaceVerification {
                                confirmed: true,
                                verdict: VerifyOutcome::Confirmed,
                                attempts,
                                hints: None,
                                outcome: None,
                                injected_faults: faults,
                            },
                        ));
                    } else {
                        stats.verifier_eliminated += 1;
                    }
                }
                Err(payload) => {
                    health.race_verify.panics += 1;
                    health.race_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: report.as_race_report(),
                        error: PipelineError::Panicked {
                            stage: Stage::RaceVerify,
                            message: panic_message(payload),
                        },
                    });
                }
            }
        }
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();
        let mut findings =
            self.analyze_findings(verified, &mut stats, &mut health, &mut quarantined);
        self.verify_vuln_sites(
            &mut findings,
            workloads,
            extra_inputs,
            &mut stats,
            &mut health,
            &mut quarantined,
        );
        stats.verify_time += tv.elapsed();

        PipelineResult {
            program: name.to_string(),
            stats,
            annotations: Vec::new(),
            findings,
            quarantined,
            health,
            error: None,
        }
    }

    /// Stages 3–5, shared by all detector front-ends: dynamic race
    /// verification on the primary workload, Algorithm 1 on each
    /// verified report, dynamic vulnerability verification over the
    /// candidate inputs. Each report is supervised: panics and aborted
    /// verifications quarantine the report instead of taking the run
    /// down.
    fn verify_and_analyze(
        &self,
        reports: &[RaceReport],
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
    ) -> Vec<Finding> {
        let tv = Instant::now();

        // Stage 3: dynamic race verification (primary workload). A
        // stage deadline counts processed reports in order, so it keeps
        // the serial (width-1, lazily verifying) path.
        let t3 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let mut processed = 0u64;
        let mut verified: Vec<(RaceReport, RaceVerification)> = Vec::new();
        let all: Vec<&RaceReport> = reports.iter().collect();
        let width = match self.config.stage_deadline {
            Some(_) => 1,
            None => fan_out_width(all.len()),
        };
        self.verify_in_order(&workloads[0], &all, width, Committer::Verifies, |results| {
            for report in reports {
                if let Some(d) = self.config.stage_deadline {
                    if !stage_expired && processed > 0 && stage_start.elapsed() >= d {
                        stage_expired = true;
                        health.race_verify.deadline_hits += 1;
                    }
                }
                if stage_expired {
                    health.race_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: report.clone(),
                        error: PipelineError::StageDeadline {
                            stage: Stage::RaceVerify,
                        },
                    });
                    continue;
                }
                processed += 1;
                let result = results.next().expect("one stage-3 result per report");
                let (unit, verification) = VerifyUnit::live(result);
                absorb_race_unit(
                    report,
                    unit,
                    verification,
                    stats,
                    health,
                    &mut verified,
                    quarantined,
                );
            }
        });
        stats.remaining = verified.len();
        stats.race_verify_time += t3.elapsed();
        let mut findings = self.analyze_findings(verified, stats, health, quarantined);
        self.verify_vuln_sites(
            &mut findings,
            workloads,
            extra_inputs,
            stats,
            health,
            quarantined,
        );
        stats.verify_time += tv.elapsed();
        findings
    }

    /// The stage-3 fan-out shared by [`Owl::run`] and
    /// [`Owl::run_with_journal`]: race-verifies `reports` on the
    /// primary input across `width` workers and hands `consume` their
    /// results **in report order**, each as soon as it and every result
    /// before it are finished. `Err` carries the message of a panic
    /// caught inside that report's verification, so a panic
    /// quarantines only its own report.
    ///
    /// Scoped threads claim report indices from a shared counter. A
    /// calling thread that [`Committer::Verifies`] is one of the
    /// `width` workers: it claims from the same counter whenever
    /// `consume` asks for a result nobody has finished. Each verdict
    /// depends only on its report (the verifier's breakpoints and seeds
    /// come from the report and the config), so every width yields the
    /// same results in the same order. At width 1 a verifying caller
    /// spawns no thread and report `i` runs only when `consume` asks
    /// for it, which is what a stage deadline needs. When `consume`
    /// returns or unwinds, unclaimed reports are abandoned and the
    /// spawned workers exit after their current report.
    fn verify_in_order<R>(
        &self,
        primary: &ProgramInput,
        reports: &[&RaceReport],
        width: usize,
        committer: Committer,
        consume: impl FnOnce(&mut InOrder<'_, Result<RaceVerification, String>>) -> R,
    ) -> R {
        let verifier = RaceVerifier::new(self.module, self.config.race_verify.clone());
        let verify = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                verifier.verify(self.entry, primary, reports[i])
            }))
            .map_err(panic_message)
        };
        let n = reports.len();
        let spawn = match committer {
            Committer::Verifies => width.saturating_sub(1),
            Committer::Journals => width.max(1),
        };
        // The claim counter publishes no data (results travel over the
        // channel or stay on the calling thread), so its operations are
        // `Relaxed`.
        let claim = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for _ in 0..spawn {
                let (tx, claim, verify) = (tx.clone(), &claim, &verify);
                s.spawn(move || loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, verify(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let _abandon = AbandonRest { claim: &claim, n };
            consume(&mut InOrder {
                claim: &claim,
                verify: matches!(committer, Committer::Verifies).then_some(&verify),
                rx,
                pending: BTreeMap::new(),
                next: 0,
                n,
            })
        })
    }

    /// Stage 4: static vulnerability analysis on each verified report,
    /// supervised. An analyzer panic quarantines the report and
    /// rebuilds the analyzer (its memoization may be poisoned).
    ///
    /// Module-level state — the points-to solution, the refined call
    /// graph, and the summary cache — is built once here and shared by
    /// every per-report analyzer. When no per-stage deadline is
    /// configured the reports are independent, so they fan out across
    /// worker threads; each worker has its own analyzer but all share
    /// the one summary cache, so a callee summarized by one worker
    /// replays for free on the others. Results land in per-report
    /// slots, keeping finding order and every counter deterministic.
    fn analyze_findings(
        &self,
        verified: Vec<(RaceReport, RaceVerification)>,
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
    ) -> Vec<Finding> {
        let stage_start = Instant::now();
        let vuln_cfg = &self.config.vuln;
        let tp = Instant::now();
        let points_to = vuln_cfg
            .points_to
            .then(|| Arc::new(PointsTo::new(self.module)));
        health.points_to_solve += tp.elapsed();
        let callgraph = vuln_cfg.summaries.then(|| {
            Arc::new(match &points_to {
                Some(p) => CallGraph::with_points_to(self.module, p),
                None => CallGraph::new(self.module),
            })
        });
        let cache = vuln_cfg.summaries.then(|| Arc::new(SummaryCache::new()));
        let make_analyzer = || {
            VulnAnalyzer::with_shared(
                self.module,
                vuln_cfg.clone(),
                points_to.clone(),
                callgraph.clone(),
                cache.clone(),
            )
        };

        let mut findings = Vec::new();
        let parallel = self.config.stage_deadline.is_none() && verified.len() >= 2;
        if parallel {
            let n = verified.len();
            let workers = fan_out_width(n);
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<ReportAnalysis>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let verified_ref = &verified;
            let next_ref = &next;
            let slots_ref = &slots;
            let make_ref = &make_analyzer;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(move || {
                        let mut analyzer = make_ref();
                        loop {
                            let i = next_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (race, _) = &verified_ref[i];
                            let out = match race.read_access().map(|r| (r.site, r.stack.to_vec())) {
                                Some((site, stack)) => {
                                    let ta = Instant::now();
                                    let analyzed = catch_unwind(AssertUnwindSafe(|| {
                                        analyzer.analyze(site, &stack)
                                    }));
                                    let elapsed = ta.elapsed();
                                    match analyzed {
                                        Ok((reports, work)) => ReportAnalysis::Analyzed {
                                            reports,
                                            work,
                                            elapsed,
                                        },
                                        Err(payload) => {
                                            // Internal caches may be
                                            // poisoned mid-walk.
                                            analyzer = make_ref();
                                            ReportAnalysis::Panicked(panic_message(payload))
                                        }
                                    }
                                }
                                None => ReportAnalysis::NoRead,
                            };
                            *slots_ref[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                        }
                    });
                }
            });
            for ((race, verification), slot) in verified.into_iter().zip(slots) {
                health.vuln_analyze.attempts += 1;
                let out = slot
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every slot is filled before the scope ends");
                match out {
                    ReportAnalysis::Analyzed {
                        reports,
                        work,
                        elapsed,
                    } => {
                        stats.analysis_time += elapsed;
                        stats.analysis_count += 1;
                        stats.analysis_work.insts_visited += work.insts_visited;
                        stats.analysis_work.funcs_entered += work.funcs_entered;
                        findings.push(Finding {
                            race,
                            verification,
                            vulns: reports,
                            vuln_verifications: Vec::new(),
                        });
                    }
                    ReportAnalysis::NoRead => findings.push(Finding {
                        race,
                        verification,
                        vulns: Vec::new(),
                        vuln_verifications: Vec::new(),
                    }),
                    ReportAnalysis::Panicked(message) => {
                        health.vuln_analyze.panics += 1;
                        health.vuln_analyze.quarantined += 1;
                        quarantined.push(Quarantined {
                            race,
                            error: PipelineError::Panicked {
                                stage: Stage::VulnAnalyze,
                                message,
                            },
                        });
                    }
                }
            }
        } else {
            let mut stage_expired = false;
            let mut analyzer = make_analyzer();
            for (race, verification) in verified {
                if let Some(d) = self.config.stage_deadline {
                    if !stage_expired && !findings.is_empty() && stage_start.elapsed() >= d {
                        stage_expired = true;
                        health.vuln_analyze.deadline_hits += 1;
                    }
                }
                if stage_expired {
                    health.vuln_analyze.quarantined += 1;
                    quarantined.push(Quarantined {
                        race,
                        error: PipelineError::StageDeadline {
                            stage: Stage::VulnAnalyze,
                        },
                    });
                    continue;
                }
                health.vuln_analyze.attempts += 1;
                let read_info = race
                    .read_access()
                    .map(|read| (read.site, read.stack.to_vec()));
                let vulns = match read_info {
                    Some((site, stack)) => {
                        let ta = Instant::now();
                        let analyzed =
                            catch_unwind(AssertUnwindSafe(|| analyzer.analyze(site, &stack)));
                        stats.analysis_time += ta.elapsed();
                        match analyzed {
                            Ok((reports, work)) => {
                                stats.analysis_count += 1;
                                stats.analysis_work.insts_visited += work.insts_visited;
                                stats.analysis_work.funcs_entered += work.funcs_entered;
                                reports
                            }
                            Err(payload) => {
                                health.vuln_analyze.panics += 1;
                                health.vuln_analyze.quarantined += 1;
                                quarantined.push(Quarantined {
                                    race,
                                    error: PipelineError::Panicked {
                                        stage: Stage::VulnAnalyze,
                                        message: panic_message(payload),
                                    },
                                });
                                analyzer = make_analyzer();
                                continue;
                            }
                        }
                    }
                    None => Vec::new(),
                };
                findings.push(Finding {
                    race,
                    verification,
                    vulns,
                    vuln_verifications: Vec::new(),
                });
            }
        }
        if let Some(c) = &cache {
            health.summary_cache_hits += c.hits();
            health.summary_cache_misses += c.misses();
        }
        stats.vulnerable = findings.iter().filter(|f| !f.vulns.is_empty()).count();
        findings
    }

    /// Stage 5: dynamic vulnerability verification over candidate
    /// inputs (workloads + suspected exploit inputs), supervised. A
    /// panicking or aborting verification is recorded as a synthesized
    /// aborted [`VulnVerification`] so `vuln_verifications` stays
    /// parallel to `vulns`, and the finding's race is quarantined.
    fn verify_vuln_sites(
        &self,
        findings: &mut [Finding],
        workloads: &[ProgramInput],
        extra_inputs: &[ProgramInput],
        stats: &mut PipelineStats,
        health: &mut PipelineHealth,
        quarantined: &mut Vec<Quarantined>,
    ) {
        let t5 = Instant::now();
        let stage_start = Instant::now();
        let mut stage_expired = false;
        let mut processed = 0u64;
        let vuln_verifier = VulnVerifier::new(self.module, self.config.vuln_verify.clone());
        let mut candidates: Vec<ProgramInput> = workloads.to_vec();
        candidates.extend_from_slice(extra_inputs);
        for f in findings.iter_mut() {
            for vr in &f.vulns {
                if let Some(d) = self.config.stage_deadline {
                    if !stage_expired && processed > 0 && stage_start.elapsed() >= d {
                        stage_expired = true;
                        health.vuln_verify.deadline_hits += 1;
                    }
                }
                if stage_expired {
                    health.vuln_verify.quarantined += 1;
                    quarantined.push(Quarantined {
                        race: f.race.clone(),
                        error: PipelineError::StageDeadline {
                            stage: Stage::VulnVerify,
                        },
                    });
                    f.vuln_verifications
                        .push(aborted_vuln_verification(AbortCause::DeadlineExceeded, 0));
                    continue;
                }
                processed += 1;
                match catch_unwind(AssertUnwindSafe(|| {
                    vuln_verifier.verify(self.entry, &candidates, vr)
                })) {
                    Ok(v) => {
                        health.vuln_verify.attempts += v.attempts;
                        health.vuln_verify.retries += v.attempts.saturating_sub(1);
                        health.vuln_verify.injected_faults += v.injected_faults;
                        if let VerifyOutcome::Aborted { cause, attempts } = v.verdict {
                            if cause == AbortCause::DeadlineExceeded {
                                health.vuln_verify.deadline_hits += 1;
                            }
                            health.vuln_verify.quarantined += 1;
                            quarantined.push(Quarantined {
                                race: f.race.clone(),
                                error: PipelineError::VerifierAborted {
                                    stage: Stage::VulnVerify,
                                    cause,
                                    attempts,
                                },
                            });
                        }
                        f.vuln_verifications.push(v);
                    }
                    Err(payload) => {
                        health.vuln_verify.panics += 1;
                        health.vuln_verify.quarantined += 1;
                        quarantined.push(Quarantined {
                            race: f.race.clone(),
                            error: PipelineError::Panicked {
                                stage: Stage::VulnVerify,
                                message: panic_message(payload),
                            },
                        });
                        f.vuln_verifications
                            .push(aborted_vuln_verification(AbortCause::Panicked, 0));
                    }
                }
            }
        }
        stats.vuln_verify_time += t5.elapsed();
    }
}

/// One stage-3 unit's outcome: what its journal record holds, and
/// what a resume replays instead of re-running the race verifier.
enum VerifyUnit {
    /// The verifier reached a verdict (confirmed or eliminated).
    Verdict {
        confirmed: bool,
        attempts: u64,
        injected_faults: u64,
    },
    /// The unit was quarantined.
    Quarantined {
        error: PipelineError,
        attempts: u64,
        injected_faults: u64,
    },
}

impl VerifyUnit {
    /// The unit a live verification produced, plus the verification
    /// itself when it confirmed the race (its hints and outcome are
    /// not journaled). `Err` carries a caught panic's message.
    fn live(result: Result<RaceVerification, String>) -> (Self, Option<RaceVerification>) {
        match result {
            Ok(v) => match v.verdict {
                VerifyOutcome::Confirmed | VerifyOutcome::Unconfirmed => {
                    let confirmed = v.verdict == VerifyOutcome::Confirmed;
                    let unit = VerifyUnit::Verdict {
                        confirmed,
                        attempts: v.attempts,
                        injected_faults: v.injected_faults,
                    };
                    (unit, confirmed.then_some(v))
                }
                VerifyOutcome::Aborted { cause, attempts } => {
                    let unit = VerifyUnit::Quarantined {
                        error: PipelineError::VerifierAborted {
                            stage: Stage::RaceVerify,
                            cause,
                            attempts,
                        },
                        attempts: v.attempts,
                        injected_faults: v.injected_faults,
                    };
                    (unit, None)
                }
            },
            Err(message) => {
                let unit = VerifyUnit::Quarantined {
                    error: PipelineError::Panicked {
                        stage: Stage::RaceVerify,
                        message,
                    },
                    attempts: 0,
                    injected_faults: 0,
                };
                (unit, None)
            }
        }
    }

    /// The journal record for this unit of `program`.
    fn record(&self, program: &str, key: String, report: &RaceReport) -> JournalRecord {
        match self {
            VerifyUnit::Verdict {
                confirmed,
                attempts,
                injected_faults,
            } => JournalRecord::ReportVerified {
                program: program.to_string(),
                key,
                global: report.global_name.clone(),
                confirmed: *confirmed,
                attempts: *attempts,
                injected_faults: *injected_faults,
            },
            VerifyUnit::Quarantined {
                error,
                attempts,
                injected_faults,
            } => JournalRecord::Quarantined {
                program: program.to_string(),
                key: Some(key),
                global: report.global_name.clone(),
                error: error.clone(),
                attempts: *attempts,
                injected_faults: *injected_faults,
            },
        }
    }
}

/// A recorded stage-4/5 unit, ready to replay instead of re-running
/// the analyzer and vulnerability verifier.
enum AnalyzeReplay {
    /// Analysis completed; each hint carries its stage-5 verification.
    Finding(Vec<RecordedVuln>),
    /// The unit was quarantined (stage-4 panic).
    Quarantined { error: PipelineError },
}

/// Per-unit lookup of everything the journal already recorded for one
/// program. Records for equal unit keys are consumed in journal order,
/// which matches processing order because reports are handled in
/// deterministic detector order on every run.
struct ResumeIndex {
    verify: HashMap<String, VecDeque<VerifyUnit>>,
    analyze: HashMap<String, VecDeque<AnalyzeReplay>>,
}

impl ResumeIndex {
    fn for_program(records: &[JournalRecord], program: &str) -> Self {
        let mut verify: HashMap<String, VecDeque<VerifyUnit>> = HashMap::new();
        let mut analyze: HashMap<String, VecDeque<AnalyzeReplay>> = HashMap::new();
        for rec in records {
            if rec.program() != Some(program) {
                continue;
            }
            match rec {
                JournalRecord::ReportVerified {
                    key,
                    confirmed,
                    attempts,
                    injected_faults,
                    ..
                } => {
                    verify
                        .entry(key.clone())
                        .or_default()
                        .push_back(VerifyUnit::Verdict {
                            confirmed: *confirmed,
                            attempts: *attempts,
                            injected_faults: *injected_faults,
                        });
                }
                JournalRecord::FindingAnalyzed { key, vulns, .. } => {
                    analyze
                        .entry(key.clone())
                        .or_default()
                        .push_back(AnalyzeReplay::Finding(vulns.clone()));
                }
                JournalRecord::Quarantined {
                    key: Some(key),
                    error,
                    attempts,
                    injected_faults,
                    ..
                } => match error {
                    PipelineError::Panicked {
                        stage: Stage::VulnAnalyze,
                        ..
                    } => {
                        analyze.entry(key.clone()).or_default().push_back(
                            AnalyzeReplay::Quarantined {
                                error: error.clone(),
                            },
                        );
                    }
                    _ => {
                        verify
                            .entry(key.clone())
                            .or_default()
                            .push_back(VerifyUnit::Quarantined {
                                error: error.clone(),
                                attempts: *attempts,
                                injected_faults: *injected_faults,
                            });
                    }
                },
                _ => {}
            }
        }
        ResumeIndex { verify, analyze }
    }

    fn next_verify(&mut self, key: &str) -> Option<VerifyUnit> {
        self.verify.get_mut(key)?.pop_front()
    }

    fn next_analyze(&mut self, key: &str) -> Option<AnalyzeReplay> {
        self.analyze.get_mut(key)?.pop_front()
    }

    fn has_analyze(&self, key: &str) -> bool {
        self.analyze.get(key).is_some_and(|q| !q.is_empty())
    }
}

/// Folds one exploration sweep's detector, memory-budget, prediction
/// and fork counters into the pipeline health report.
fn absorb_sweep_health(health: &mut PipelineHealth, sweep: &owl_race::ExploreResult) {
    health.shadow_cells_gced += sweep.shadow_cells_gced;
    health.units_aborted_mem_budget += sweep.units_aborted_mem_budget;
    health.predict_candidates += sweep.predict_candidates;
    health.predict_witnessed += sweep.predict_witnessed;
    health.predict_witness_rejected += sweep.predict_witness_rejected;
    health.predict_reversal_races += sweep.predict_reversal_races;
    health.units_forked += sweep.units_forked;
    health.prefix_steps_saved += sweep.prefix_steps_saved;
    health.schedules_deduped += sweep.schedules_deduped;
    health.snapshot_bytes += sweep.snapshot_bytes;
}

/// Worker count for a fan-out over `n` independent units: one per
/// available core, never more than there are units.
fn fan_out_width(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
}

/// What the calling thread does while a stage-3 fan-out runs.
#[derive(Clone, Copy, Debug)]
enum Committer {
    /// It only folds results in memory, so it verifies too: it is one
    /// of the `width` workers.
    Verifies,
    /// It journals the results, committing every finished run of them
    /// with one fsync'd batch before it waits for the next, so `width`
    /// spawned threads verify beside it. (Letting it verify as well
    /// made the default-settings corpus campaign about 25% slower on
    /// a 2-core host: its appends then wait behind its own reports.)
    Journals,
}

/// Stage-3 results in report order, reassembled from the workers'
/// completion order. Asked for a result nobody has finished, it
/// verifies the next unclaimed report itself when it has a `verify`;
/// otherwise, or once every report is claimed, it waits for the
/// spawned workers.
struct InOrder<'a, T> {
    claim: &'a AtomicUsize,
    verify: Option<&'a (dyn Fn(usize) -> T + Sync)>,
    rx: mpsc::Receiver<(usize, T)>,
    /// Results that finished ahead of an earlier report.
    pending: BTreeMap<usize, T>,
    next: usize,
    n: usize,
}

impl<T> InOrder<'_, T> {
    /// The next result in report order if it is already finished,
    /// without verifying or waiting: results the workers have sent so
    /// far are moved into `pending` first. `None` means the caller
    /// would have to wait (or that every result was taken).
    fn next_ready(&mut self) -> Option<T> {
        while let Ok((i, item)) = self.rx.try_recv() {
            self.pending.insert(i, item);
        }
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }
}

impl<T> Iterator for InOrder<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.next == self.n {
            return None;
        }
        let item = loop {
            if let Some(item) = self.pending.remove(&self.next) {
                break item;
            }
            let claimed = self.verify.and_then(|verify| {
                let i = self.claim.fetch_add(1, Ordering::Relaxed);
                (i < self.n).then(|| (i, verify(i)))
            });
            let (i, item) = if let Some(done) = claimed {
                done
            } else {
                self.rx
                    .recv()
                    .expect("a worker sends every report it claims before exiting")
            };
            self.pending.insert(i, item);
        };
        self.next += 1;
        Some(item)
    }
}

/// The most stage-3 records one commit carries: a batch closes here
/// even when more verdicts are ready, so a commit writes at most about
/// 30 KB. Unbounded, Linux's ~600 ready verdicts went out as one 130 KB
/// write, buffered whole here and in any reader tailing the journal,
/// and `corpus-campaign` peak RSS over 30 s runs was 4–13% higher than
/// with this bound. The bound costs a few fsyncs per corpus campaign.
const STAGE3_BATCH_MAX: usize = 128;

/// Commits `batch` to `journal` with one fsync and leaves it empty.
/// An empty batch writes nothing.
fn commit<J: JournalSink>(
    journal: &mut J,
    batch: &mut Vec<JournalRecord>,
) -> Result<(), JournalError> {
    if batch.is_empty() {
        return Ok(());
    }
    journal.append_batch_records(std::mem::take(batch))
}

/// On drop (return or unwind), marks every unclaimed unit as claimed,
/// so the fan-out's workers stop after their current unit.
struct AbandonRest<'a> {
    claim: &'a AtomicUsize,
    n: usize,
}

impl Drop for AbandonRest<'_> {
    fn drop(&mut self) {
        self.claim.fetch_max(self.n, Ordering::Relaxed);
    }
}

/// Folds one stage-3 unit, live or replayed, into the run: its health
/// contribution, and the report's place among the verified, the
/// eliminated or the quarantined. A replayed confirmation carries no
/// live `verification`; its deterministic slice is rebuilt.
fn absorb_race_unit(
    report: &RaceReport,
    unit: VerifyUnit,
    verification: Option<RaceVerification>,
    stats: &mut PipelineStats,
    health: &mut PipelineHealth,
    verified: &mut Vec<(RaceReport, RaceVerification)>,
    quarantined: &mut Vec<Quarantined>,
) {
    match unit {
        VerifyUnit::Verdict {
            confirmed,
            attempts,
            injected_faults,
        } => {
            health.race_verify.attempts += attempts;
            health.race_verify.retries += attempts.saturating_sub(1);
            health.race_verify.injected_faults += injected_faults;
            if confirmed {
                let v = verification
                    .unwrap_or_else(|| replayed_race_verification(attempts, injected_faults));
                verified.push((report.clone(), v));
            } else {
                stats.verifier_eliminated += 1;
            }
        }
        VerifyUnit::Quarantined {
            error,
            attempts,
            injected_faults,
        } => {
            health.race_verify.attempts += attempts;
            health.race_verify.retries += attempts.saturating_sub(1);
            health.race_verify.injected_faults += injected_faults;
            apply_quarantine_health(&mut health.race_verify, &error);
            quarantined.push(Quarantined {
                race: report.clone(),
                error,
            });
        }
    }
}

/// Folds a quarantine's secondary effects (panic/deadline counters plus
/// the quarantine count itself) into a stage's health — identical for
/// live and replayed units, which is what keeps resumed health totals
/// equal to an uninterrupted run's.
fn apply_quarantine_health(stage: &mut StageHealth, error: &PipelineError) {
    stage.quarantined += 1;
    match error {
        PipelineError::Panicked { .. } => stage.panics += 1,
        PipelineError::VerifierAborted {
            cause: AbortCause::DeadlineExceeded,
            ..
        } => stage.deadline_hits += 1,
        _ => {}
    }
}

/// A stage-3 verification reconstructed from the journal. Dynamic
/// evidence (hints, execution outcome) is not journaled, so only the
/// deterministic slice survives a resume.
fn replayed_race_verification(attempts: u64, injected_faults: u64) -> RaceVerification {
    RaceVerification {
        confirmed: true,
        verdict: VerifyOutcome::Confirmed,
        attempts,
        hints: None,
        outcome: None,
        injected_faults,
    }
}

/// A stage-5 verification reconstructed from the journal.
fn replayed_vuln_verification(rv: &RecordedVuln) -> VulnVerification {
    VulnVerification {
        reached: rv.reached,
        verdict: rv.verdict,
        attempts: rv.attempts,
        triggering_input: None,
        branches_hit: Vec::new(),
        diverged_branches: Vec::new(),
        outcome: None,
        triggered_violation: None,
        injected_faults: rv.injected_faults,
    }
}

/// Outcome of analyzing one verified report in stage 4 (the unit a
/// parallel worker writes into its result slot).
enum ReportAnalysis {
    /// Algorithm 1 completed.
    Analyzed {
        reports: Vec<VulnReport>,
        work: VulnStats,
        elapsed: Duration,
    },
    /// The race report carries no read access to start from.
    NoRead,
    /// The analyzer panicked; the message is the rendered payload.
    Panicked(String),
}

/// A placeholder verification for a vuln the supervisor could not
/// verify (stage deadline or panic); keeps `vuln_verifications`
/// parallel to `vulns`.
fn aborted_vuln_verification(cause: AbortCause, attempts: u64) -> VulnVerification {
    VulnVerification {
        reached: false,
        verdict: VerifyOutcome::Aborted { cause, attempts },
        attempts,
        triggering_input: None,
        branches_hit: Vec::new(),
        diverged_branches: Vec::new(),
        outcome: None,
        triggered_violation: None,
        injected_faults: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    /// A minimal vulnerable program: racy flag guards an exec, plus one
    /// adhoc sync and one benign racy counter.
    fn tiny_program() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("tiny");
        let flag = mb.global("flag", 1, Type::I64);
        let counter = mb.global("counter", 1, Type::I64);
        let aflag = mb.global("aflag", 1, Type::I64);
        let setter = mb.declare_func("setter", 1);
        let handler = mb.declare_func("handler", 1);
        let spinner = mb.declare_func("spinner", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(setter);
            let fa = b.global_addr(flag);
            b.store(fa, 1);
            let ca = b.global_addr(counter);
            let v = b.load(ca, Type::I64);
            let v2 = b.add(v, 1);
            b.store(ca, v2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(handler);
            let fa = b.global_addr(flag);
            let v = b.load(fa, Type::I64);
            let fire = b.block();
            let out = b.block();
            b.br(v, fire, out);
            b.switch_to(fire);
            b.exec(42);
            b.jmp(out);
            b.switch_to(out);
            let ca = b.global_addr(counter);
            let c = b.load(ca, Type::I64);
            let c2 = b.add(c, 1);
            b.store(ca, c2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(spinner);
            let aa = b.global_addr(aflag);
            let head = b.block();
            let exit = b.block();
            b.jmp(head);
            b.switch_to(head);
            let v = b.load(aa, Type::I64);
            b.br(v, exit, head);
            b.switch_to(exit);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(setter, 0);
            let t2 = b.thread_create(handler, 0);
            let t3 = b.thread_create(spinner, 0);
            let aa = b.global_addr(aflag);
            b.store(aa, 1);
            b.thread_join(t1);
            b.thread_join(t2);
            b.thread_join(t3);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m
            .func_by_name("main")
            .expect("tiny_program declares a main function");
        (m, main_id)
    }

    #[test]
    fn pipeline_finds_the_vulnerable_race() {
        let (m, main) = tiny_program();
        let owl = Owl::new(&m, main, OwlConfig::quick());
        let result = owl.run("tiny", &[ProgramInput::empty()], &[]);
        assert!(result.stats.raw_reports >= 2, "{:?}", result.stats);
        assert_eq!(result.stats.adhoc_syncs, 1, "the spinner is adhoc");
        assert!(
            result.stats.post_annotation_reports < result.stats.raw_reports
                || result.stats.adhoc_syncs == 0,
            "annotation should reduce reports"
        );
        let flag_finding = result
            .finding_on("flag")
            .expect("flag race must survive the pipeline");
        assert!(!flag_finding.vulns.is_empty(), "exec hint expected");
        assert!(flag_finding.any_site_reached(), "exec site reachable");
        // The benign counter race survives verification but carries no
        // vulnerability.
        if let Some(c) = result.finding_on("counter") {
            assert!(c.vulns.is_empty(), "counter is benign: {:?}", c.vulns);
        }
        // A clean run quarantines nothing and catches no panics.
        assert!(result.quarantined.is_empty(), "{:?}", result.quarantined);
        assert_eq!(result.health.total_panics(), 0);
        assert_eq!(result.health.total_injected_faults(), 0);
        assert!(result.error.is_none());
        assert!(result.health.detect.attempts > 0);
        assert!(result.health.race_verify.attempts > 0);
    }

    /// The stage-3 fan-out hands back the same results in report order
    /// at every width, whatever the calling thread does: verdicts,
    /// attempts, injected faults and hints, across the whole corpus
    /// under a fault plan.
    #[test]
    fn stage3_fan_out_is_width_invariant() {
        let cfg = OwlConfig::quick().with_fault_plan(owl_vm::FaultPlan::uniform(11, 0.01));
        for p in owl_corpus::all_programs() {
            let owl = Owl::new(&p.module, p.entry, cfg.clone());
            let (_, reports) = owl
                .detect_and_annotate(
                    &p.workloads,
                    &mut PipelineStats::default(),
                    &mut PipelineHealth::default(),
                )
                .expect("corpus detection runs within budget");
            let live: Vec<&RaceReport> = reports.iter().collect();
            let at_width = |width, committer| {
                owl.verify_in_order(&p.workloads[0], &live, width, committer, |results| {
                    results
                        .map(|r| {
                            let v = r.expect("corpus verification does not panic");
                            (v.verdict, v.attempts, v.injected_faults, v.hints)
                        })
                        .collect::<Vec<_>>()
                })
            };
            let serial = at_width(1, Committer::Verifies);
            assert_eq!(serial.len(), reports.len(), "{}", p.name);
            for width in [1, 2, 4] {
                for committer in [Committer::Verifies, Committer::Journals] {
                    assert_eq!(
                        at_width(width, committer),
                        serial,
                        "{} at width {width}, {committer:?}",
                        p.name
                    );
                }
            }
        }
    }

    /// A sink that keeps every committed batch instead of writing it.
    #[derive(Default)]
    struct RecordingSink {
        batches: Vec<Vec<JournalRecord>>,
    }

    impl JournalSink for RecordingSink {
        fn append_batch_records(&mut self, recs: Vec<JournalRecord>) -> Result<(), JournalError> {
            self.batches.push(recs);
            Ok(())
        }

        fn program_records(&self, _program: &str) -> Vec<JournalRecord> {
            Vec::new()
        }

        fn recovery_report(&self) -> crate::journal::RecoveryReport {
            Default::default()
        }
    }

    /// Group commit changes only where the fsyncs fall: at stage-3
    /// width 1 and 4, a journaled run's batches concatenate to exactly
    /// the program's records in a real campaign journal, no batch is
    /// empty, no stage-3 batch exceeds [`STAGE3_BATCH_MAX`], and the
    /// stage-4/5 records arrive in one final batch.
    #[test]
    fn group_commit_batches_concatenate_to_the_campaign_journal() {
        let cfg = OwlConfig::quick().with_fault_plan(owl_vm::FaultPlan::uniform(11, 0.01));
        let programs = owl_corpus::all_programs();
        let path = std::env::temp_dir().join(format!("owl-batches-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let campaign = crate::campaign::CampaignConfig::new(cfg.clone());
        crate::campaign::run_campaign(&path, &programs, &campaign, false)
            .expect("corpus campaign completes");
        let journal = crate::journal::Journal::open(&path).expect("campaign journal reopens");
        let stage45 = |r: &JournalRecord| {
            matches!(
                r,
                JournalRecord::FindingAnalyzed { .. }
                    | JournalRecord::Quarantined {
                        error: PipelineError::Panicked {
                            stage: Stage::VulnAnalyze,
                            ..
                        },
                        ..
                    }
            )
        };
        for p in &programs {
            let expected: Vec<JournalRecord> = journal
                .records()
                .iter()
                .filter(|r| r.program() == Some(p.name))
                .filter(|r| {
                    !matches!(
                        r,
                        JournalRecord::ProgramFinished { .. }
                            | JournalRecord::ProgramQuarantined { .. }
                    )
                })
                .cloned()
                .collect();
            let owl = Owl::new(&p.module, p.entry, cfg.clone());
            for w in [1, 4] {
                let mut sink = RecordingSink::default();
                let width = |n: usize| n.min(w);
                owl.run_journaled(p.name, &p.workloads, &p.exploit_inputs, &mut sink, width)
                    .expect("a recording sink never fails");
                let batches = sink.batches;
                assert!(
                    batches.iter().all(|b| !b.is_empty()),
                    "{} width {w}",
                    p.name
                );
                assert_eq!(batches.concat(), expected, "{} width {w}", p.name);
                assert!(
                    batches
                        .iter()
                        .all(|b| b.len() <= STAGE3_BATCH_MAX || b.iter().any(stage45)),
                    "{} width {w}: a stage-3 batch exceeds the bound",
                    p.name
                );
                let with_findings: Vec<&Vec<JournalRecord>> =
                    batches.iter().filter(|b| b.iter().any(stage45)).collect();
                let n45 = expected.iter().filter(|r| stage45(r)).count();
                if n45 == 0 {
                    assert!(with_findings.is_empty(), "{}", p.name);
                    continue;
                }
                assert_eq!(with_findings.len(), 1, "{} width {w}", p.name);
                assert!(
                    std::ptr::eq(with_findings[0], batches.last().unwrap()),
                    "{}: stage-4/5 batch comes last",
                    p.name
                );
                assert_eq!(with_findings[0].len(), n45, "{} width {w}", p.name);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_ratios_behave() {
        let mut s = PipelineStats::default();
        assert_eq!(s.reduction_ratio(), 0.0);
        s.raw_reports = 100;
        s.remaining = 6;
        assert!((s.reduction_ratio() - 0.94).abs() < 1e-9);
        assert_eq!(s.avg_analysis_cost(), Duration::ZERO);
    }

    #[test]
    fn external_entry_is_rejected_up_front() {
        let mut mb = ModuleBuilder::new("bad");
        let ext = mb.declare_external("ext_main", 0);
        let m = mb.finish();
        let owl = Owl::with_defaults(&m, ext);
        let result = owl.run("bad", &[], &[]);
        assert!(
            matches!(result.error, Some(PipelineError::InvalidEntry { .. })),
            "{:?}",
            result.error
        );
        assert!(result.findings.is_empty());
        let atom = owl.run_atomicity("bad", &[], &[]);
        assert!(matches!(
            atom.error,
            Some(PipelineError::InvalidEntry { .. })
        ));
    }

    #[test]
    fn parameterized_entry_is_rejected_up_front() {
        let mut mb = ModuleBuilder::new("bad2");
        let f = mb.declare_func("entry", 2);
        {
            let mut b = mb.build_func(f);
            b.ret(None);
        }
        let m = mb.finish();
        let owl = Owl::with_defaults(&m, f);
        let result = owl.run("bad2", &[], &[]);
        let err = result.error.expect("entry with params must be rejected");
        assert!(err.to_string().contains("parameter"), "{err}");
    }

    #[test]
    fn pipeline_error_displays_name_stage_and_cause() {
        let e = PipelineError::VerifierAborted {
            stage: Stage::RaceVerify,
            cause: AbortCause::DeadlineExceeded,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("race-verify"), "{s}");
        assert!(s.contains("deadline"), "{s}");
        let p = PipelineError::Panicked {
            stage: Stage::VulnAnalyze,
            message: "boom".into(),
        };
        assert!(p.to_string().contains("vuln-analyze"));
        assert!(p.to_string().contains("boom"));
    }
}
