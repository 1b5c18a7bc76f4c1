//! The dynamic race verifier (paper §5.2).
//!
//! Race detectors over-report; OWL verifies each surviving report by
//! catching the race "in the racing moment": thread-specific
//! breakpoints halt a thread arriving at one racing instruction until a
//! *different* thread arrives at the other racing instruction with the
//! *same* address. Only then is the race real. The verifier then prints
//! security hints — the racing instructions, the values they are about
//! to read/write, and the variable's type — and can release the
//! threads in a chosen order to let the corruption actually happen
//! (the "bug order"), which the vulnerability verifier builds on.
//!
//! Livelocks caused by suspensions are resolved by the VM's automatic
//! oldest-suspension release, mirroring the paper's "temporarily
//! releasing one of the currently triggered breakpoints".
//!
//! Most attempts never reach either racing instruction, and a
//! breakpoint no thread reaches changes nothing: such an attempt is
//! the plain run of its seed. The verifier runs each seed's plain
//! execution once per program, records the sites it reaches
//! ([`owl_vm::ReachSet`]), and accounts every attempt whose racing
//! instructions are both outside that set from the recorded run
//! instead of executing it. Verdicts are unchanged (DESIGN.md §18).

use crate::verdict::{AbortCause, VerifyOutcome};
use owl_ir::{FuncId, InstRef, Module, Type};
use owl_race::RaceReport;
use owl_vm::{
    BreakDecision, BreakWorld, Breakpoint, Controller, ExecOutcome, ExitStatus, ProgramInput,
    RandomScheduler, ReachSet, RunConfig, Snapshot, Suspension, ThreadId, Vm,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Which racing instruction should execute first once the race is
/// caught.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaceOrder {
    /// The write executes first (the "bug order" — the read observes
    /// the corrupted value).
    #[default]
    WriteFirst,
    /// The read executes first (the benign order).
    ReadFirst,
}

/// One side of the confirmed race, as observed at the breakpoint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccessHint {
    /// The racing instruction.
    pub site: InstRef,
    /// The thread that arrived.
    pub tid: ThreadId,
    /// Whether this side writes.
    pub is_write: bool,
    /// Value about to be written (writes only).
    pub value_to_write: Option<i64>,
    /// Value currently in memory (what a read would observe).
    pub current_value: Option<i64>,
    /// Static type at the site.
    pub ty: Type,
}

/// The verifier's security hints (§5.2): "the racing instructions from
/// source code, the value they're about to read and write and the type
/// of the variable".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SecurityHints {
    /// The racing address.
    pub addr: u64,
    /// Global variable name, when resolvable.
    pub global_name: Option<String>,
    /// The side that was already suspended when the partner arrived.
    pub waiting: AccessHint,
    /// The side whose arrival confirmed the race.
    pub arriving: AccessHint,
    /// Whether the race can produce a NULL pointer dereference: a
    /// pointer-typed location about to hold (or already holding) NULL.
    pub null_pointer_risk: bool,
}

/// Result of verifying one race report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RaceVerification {
    /// Whether both racing instructions were caught simultaneously on
    /// the same address. (Kept for compatibility; equals
    /// `verdict.is_confirmed()`.)
    pub confirmed: bool,
    /// Three-way verdict: confirmed, unconfirmed, or aborted without
    /// a meaningful answer.
    pub verdict: VerifyOutcome,
    /// Schedules tried.
    pub attempts: u64,
    /// Hints captured at the racing moment (when confirmed).
    pub hints: Option<SecurityHints>,
    /// Outcome of the confirming execution (violations included).
    pub outcome: Option<ExecOutcome>,
    /// Total faults the VM's [`owl_vm::FaultPlan`] injected across all
    /// attempts.
    pub injected_faults: u64,
}

/// Verifier configuration.
#[derive(Clone, Debug)]
pub struct RaceVerifyConfig {
    /// Maximum schedules to try before declaring the report
    /// unverifiable. Each attempt reseeds the scheduler
    /// (`base_seed + attempt`).
    pub max_schedules: u64,
    /// First scheduler seed.
    pub base_seed: u64,
    /// Release order after confirmation.
    pub order: RaceOrder,
    /// VM limits (the per-attempt *step* deadline is
    /// `run_config.max_steps`).
    pub run_config: RunConfig,
    /// Wall-clock budget for the whole attempt loop, checked between
    /// attempts; expiry yields [`VerifyOutcome::Aborted`] with
    /// [`AbortCause::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl Default for RaceVerifyConfig {
    fn default() -> Self {
        RaceVerifyConfig {
            max_schedules: 20,
            base_seed: 100,
            order: RaceOrder::WriteFirst,
            run_config: RunConfig::default(),
            deadline: None,
        }
    }
}

/// Seeds past this many are never probed: their attempts always
/// execute. Bounds the probe table for huge `max_schedules`.
const MAX_PROBED_SEEDS: u64 = 1024;

/// The plain run of one scheduler seed — no breakpoints — on the
/// verifier's bound input: what an attempt of that seed contributes to
/// the verdict when its breakpoints are never reached.
#[derive(Debug)]
struct SeedProbe {
    /// Every site a thread arrived at.
    reach: ReachSet,
    /// Whether the run ended in [`ExitStatus::StepLimit`].
    step_limit: bool,
    /// Faults the plan injected.
    faults: u64,
}

/// Dynamic race verifier.
///
/// One verifier serves every report of a program and may be shared
/// across threads: the per-seed probes are computed at most once, by
/// whichever `verify` call first needs them.
#[derive(Debug)]
pub struct RaceVerifier<'m> {
    module: &'m Module,
    config: RaceVerifyConfig,
    /// The `(entry, input)` the probes describe: the first pair
    /// [`RaceVerifier::verify`] is called with. Calls with any other
    /// pair execute every attempt.
    probed: OnceLock<(FuncId, ProgramInput)>,
    /// Probe of seed `base_seed + k` at index `k`.
    probes: Vec<OnceLock<SeedProbe>>,
    /// Attempts that executed rather than being accounted from a
    /// probe.
    executed: AtomicU64,
}

struct RvController {
    site_a: InstRef,
    site_b: InstRef,
    /// Site preferred to execute first once confirmed.
    first_site: Option<InstRef>,
    confirmed: Option<SecurityHints>,
}

impl RvController {
    fn hint_of(s: &Suspension) -> Option<AccessHint> {
        let a = s.access?;
        Some(AccessHint {
            site: s.site,
            tid: s.tid,
            is_write: a.is_write,
            value_to_write: a.value_to_write,
            current_value: a.current_value,
            ty: a.ty,
        })
    }
}

impl Controller for RvController {
    fn on_break(&mut self, world: &mut BreakWorld<'_>, hit: &Suspension) -> BreakDecision {
        if self.confirmed.is_some() {
            return BreakDecision::Continue;
        }
        let Some(acc) = hit.access else {
            return BreakDecision::Continue;
        };
        // A partner is a *different thread* suspended at the *other*
        // racing site touching the *same address*.
        let partner = world.suspended.iter().find(|(tid, s)| {
            **tid != hit.tid
                && s.site != hit.site
                && (s.site == self.site_a || s.site == self.site_b)
                && s.access.map(|a| a.addr) == Some(acc.addr)
        });
        if let Some((&ptid, psusp)) = partner {
            // Caught in the racing moment.
            let waiting = Self::hint_of(psusp);
            let arriving = Self::hint_of(hit);
            if let (Some(waiting), Some(arriving)) = (waiting, arriving) {
                let null_risk = (waiting.ty.is_pointer() || arriving.ty.is_pointer())
                    && (waiting.value_to_write == Some(0)
                        || arriving.value_to_write == Some(0)
                        || waiting.current_value == Some(0)
                        || arriving.current_value == Some(0));
                self.confirmed = Some(SecurityHints {
                    addr: acc.addr,
                    global_name: None,
                    waiting,
                    arriving,
                    null_pointer_risk: null_risk,
                });
            }
            // Disarm: the verification is done; let the program run the
            // chosen order out.
            for bp in world.breakpoints.iter_mut() {
                bp.enabled = false;
            }
            let hit_first = match self.first_site {
                Some(f) => hit.site == f,
                None => true,
            };
            if hit_first {
                // The arriving side executes now; the partner follows.
                world.resume.push(ptid);
                BreakDecision::Continue
            } else {
                // Partner first; the arriving thread stays suspended and
                // is released by the VM's stall resolution (or keeps its
                // turn once the partner has gone through).
                world.resume.push(ptid);
                BreakDecision::Suspend
            }
        } else {
            // Wait here for a partner.
            BreakDecision::Suspend
        }
    }

    fn on_stall(&mut self, _world: &mut BreakWorld<'_>) -> Option<ThreadId> {
        None // default: VM releases the oldest suspension (§5.2)
    }
}

impl<'m> RaceVerifier<'m> {
    /// Creates a verifier over `module`.
    pub fn new(module: &'m Module, config: RaceVerifyConfig) -> Self {
        let probed_seeds = config.max_schedules.min(MAX_PROBED_SEEDS) as usize;
        RaceVerifier {
            module,
            config,
            probed: OnceLock::new(),
            probes: (0..probed_seeds).map(|_| OnceLock::new()).collect(),
            executed: AtomicU64::new(0),
        }
    }

    /// Verifier with default configuration.
    pub fn with_defaults(module: &'m Module) -> Self {
        Self::new(module, RaceVerifyConfig::default())
    }

    /// Attempts to catch `report`'s race in the racing moment, trying
    /// up to `max_schedules` seeds.
    pub fn verify(
        &self,
        entry: FuncId,
        input: &ProgramInput,
        report: &RaceReport,
    ) -> RaceVerification {
        let write_site = if report.first.is_write {
            report.first.site
        } else {
            report.second.site
        };
        let read_site = if !report.first.is_write {
            Some(report.first.site)
        } else if !report.second.is_write {
            Some(report.second.site)
        } else {
            None
        };
        let first_site = match self.config.order {
            RaceOrder::WriteFirst => Some(write_site),
            RaceOrder::ReadFirst => read_site,
        };
        let probes = self.probes_for(entry, input);
        // Every executed attempt starts from the same step-0 machine:
        // build it (memory image, fault plan, both breakpoints) on the
        // first one and resume a CoW copy per attempt. The pause point
        // is step 0, not the first concurrent step: a breakpoint armed
        // in the single-threaded prefix can already suspend and stall
        // there.
        let mut base: Option<Snapshot> = None;
        let start = Instant::now();
        let mut injected_faults = 0u64;
        let mut all_step_limit = true;
        for k in 0..self.config.max_schedules {
            if let Some(d) = self.config.deadline {
                if k > 0 && start.elapsed() >= d {
                    return RaceVerification {
                        confirmed: false,
                        verdict: VerifyOutcome::Aborted {
                            cause: AbortCause::DeadlineExceeded,
                            attempts: k,
                        },
                        attempts: k,
                        hints: None,
                        outcome: None,
                        injected_faults,
                    };
                }
            }
            let seed = self.config.base_seed + k;
            // An attempt whose plain run reaches neither racing
            // instruction is that plain run: account it, don't run it.
            if let Some(probe) = probes.get(k as usize) {
                let probe = probe.get_or_init(|| self.probe(entry, input, seed));
                if !probe.reach.contains(report.first.site)
                    && !probe.reach.contains(report.second.site)
                {
                    injected_faults += probe.faults;
                    all_step_limit &= probe.step_limit;
                    continue;
                }
            }
            self.executed.fetch_add(1, Ordering::Relaxed);
            let base = base.get_or_insert_with(|| {
                let mut vm = Vm::new(
                    self.module,
                    entry,
                    input.clone(),
                    self.config.run_config.clone(),
                );
                vm.add_breakpoint(Breakpoint::at(report.first.site));
                vm.add_breakpoint(Breakpoint::at(report.second.site));
                vm.snapshot()
            });
            let mut controller = RvController {
                site_a: report.first.site,
                site_b: report.second.site,
                first_site,
                confirmed: None,
            };
            let vm = Vm::resume(self.module, base.clone());
            let mut sched = RandomScheduler::new(seed);
            let outcome = vm.run_controlled(&mut sched, &mut owl_vm::NullSink, &mut controller);
            injected_faults += outcome.injected_faults.len() as u64;
            all_step_limit &= outcome.status == ExitStatus::StepLimit;
            if let Some(mut hints) = controller.confirmed {
                hints.global_name =
                    owl_race::global_name_for_addr(self.module, hints.addr).map(str::to_string);
                return RaceVerification {
                    confirmed: true,
                    verdict: VerifyOutcome::Confirmed,
                    attempts: k + 1,
                    hints: Some(hints),
                    outcome: Some(outcome),
                    injected_faults,
                };
            }
        }
        // The budget ran dry. If no attempt ever ran to completion the
        // verifier established nothing — abort rather than report a
        // (misleading) elimination.
        let verdict = if all_step_limit && self.config.max_schedules > 0 {
            VerifyOutcome::Aborted {
                cause: AbortCause::StepBudgetExhausted,
                attempts: self.config.max_schedules,
            }
        } else {
            VerifyOutcome::Unconfirmed
        };
        RaceVerification {
            confirmed: false,
            verdict,
            attempts: self.config.max_schedules,
            hints: None,
            outcome: None,
            injected_faults,
        }
    }

    /// The probe table, if this verifier's probes describe `(entry,
    /// input)`; the first call binds them to its pair.
    fn probes_for(&self, entry: FuncId, input: &ProgramInput) -> &[OnceLock<SeedProbe>] {
        let (probed_entry, probed_input) = self.probed.get_or_init(|| (entry, input.clone()));
        if *probed_entry == entry && probed_input == input {
            &self.probes
        } else {
            &[]
        }
    }

    /// Runs `seed`'s plain execution: the attempt's machine without
    /// its breakpoints. Breakpoints are what differ between reports,
    /// so one probe serves every report; an attempt that reaches
    /// neither of its sites never matches a breakpoint and stays in
    /// lockstep with this run, step for step and draw for draw.
    fn probe(&self, entry: FuncId, input: &ProgramInput, seed: u64) -> SeedProbe {
        let vm = Vm::new(
            self.module,
            entry,
            input.clone(),
            self.config.run_config.clone(),
        );
        let mut sched = RandomScheduler::new(seed);
        let (outcome, reach) = vm.run_recording_reach(&mut sched, &mut owl_vm::NullSink);
        SeedProbe {
            reach,
            step_limit: outcome.status == ExitStatus::StepLimit,
            faults: outcome.injected_faults.len() as u64,
        }
    }

    /// Attempts executed so far rather than accounted from a probe.
    #[cfg(test)]
    pub(crate) fn executed_attempts(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Renders the §5.2 hint block for a verification.
    pub fn format_hints(&self, v: &RaceVerification) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(h) = &v.hints else {
            return match v.verdict {
                VerifyOutcome::Aborted { cause, attempts } => {
                    format!("race verification ABORTED after {attempts} schedule(s): {cause}\n")
                }
                _ => format!("race not verified after {} schedules\n", v.attempts),
            };
        };
        let name = h
            .global_name
            .clone()
            .unwrap_or_else(|| format!("{:#x}", h.addr));
        let _ = writeln!(out, "race VERIFIED on `{name}` (attempt {}):", v.attempts);
        for (label, a) in [("waiting", &h.waiting), ("arriving", &h.arriving)] {
            let _ = writeln!(
                out,
                "  {label}: {} {} at {} — about to {} (current value {:?}, type {})",
                a.tid,
                if a.is_write { "write" } else { "read" },
                self.module.format_loc(a.site),
                match a.value_to_write {
                    Some(v) => format!("write {v}"),
                    None => "read".to_string(),
                },
                a.current_value,
                a.ty,
            );
        }
        if h.null_pointer_risk {
            let _ = writeln!(out, "  hint: NULL pointer dereference possible");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};
    use owl_race::{HbConfig, HbDetector};
    use owl_vm::RoundRobin;

    /// Writer stores NULL to a pointer-typed global; main reads it.
    fn ptr_race_module() -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("pr");
        let fp = mb.global_init("f_op", 1, vec![1], Type::Ptr);
        let w = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(fp);
            b.store(a, 0); // NULL
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            let a = b.global_addr(fp);
            b.load(a, Type::Ptr);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    fn first_report(m: &Module, main: FuncId) -> RaceReport {
        let mut det = HbDetector::new(HbConfig::default());
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.finish(m).remove(0)
    }

    #[test]
    fn verifies_real_race_with_hints() {
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::with_defaults(&m);
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(v.confirmed, "race should be verifiable");
        let hints = v.hints.as_ref().expect("hints");
        assert_eq!(hints.global_name.as_deref(), Some("f_op"));
        assert!(
            hints.null_pointer_risk,
            "storing NULL into a pointer must be flagged: {hints:?}"
        );
        let text = verifier.format_hints(&v);
        assert!(text.contains("VERIFIED"));
        assert!(text.contains("NULL pointer"));
    }

    #[test]
    fn ordered_accesses_do_not_verify() {
        // Build a module where the same two sites exist but are ordered
        // by a join — the "race" can never be caught in the moment.
        let mut mb = ModuleBuilder::new("ord");
        let g = mb.global("g", 1, Type::I64);
        let w = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(w);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(w, 0);
            b.thread_join(t); // join *before* the read: ordered
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        // Hand-craft a (bogus) report over the ordered pair.
        let store_site = InstRef::new(m.func_by_name("writer").unwrap(), owl_ir::InstId(1));
        let load_site = InstRef::new(main_id, owl_ir::InstId(3));
        let fake = |site, is_write| owl_race::Access {
            tid: ThreadId(0),
            site,
            stack: std::sync::Arc::from(vec![].into_boxed_slice()),
            is_write,
            value: 0,
            ty: Type::I64,
        };
        let report = RaceReport {
            addr: owl_vm::mem::GLOBAL_BASE,
            global_name: Some("g".into()),
            first: fake(store_site, true),
            second: fake(load_site, false),
            read_hint: None,
        };
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                max_schedules: 5,
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main_id, &ProgramInput::empty(), &report);
        assert!(!v.confirmed);
        assert_eq!(v.verdict, VerifyOutcome::Unconfirmed);
        assert_eq!(v.attempts, 5);
        assert_eq!(v.injected_faults, 0);
        assert!(verifier.format_hints(&v).contains("not verified"));
    }

    #[test]
    fn zero_deadline_aborts_after_first_attempt() {
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        // An already-expired deadline is noticed between attempts, so
        // exactly one attempt runs: it either confirms (the check never
        // fires) or the verifier aborts with attempts == 1.
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                deadline: Some(Duration::from_secs(0)),
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        if !v.confirmed {
            assert_eq!(
                v.verdict,
                VerifyOutcome::Aborted {
                    cause: AbortCause::DeadlineExceeded,
                    attempts: 1,
                }
            );
            assert!(verifier.format_hints(&v).contains("ABORTED"));
        }
    }

    #[test]
    fn starved_step_budget_aborts() {
        // With a step budget too small to even spawn the second thread,
        // every attempt ends in StepLimit: the verifier must abort, not
        // claim the race was eliminated.
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                max_schedules: 4,
                run_config: owl_vm::RunConfig {
                    max_steps: 2,
                    ..owl_vm::RunConfig::default()
                },
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(!v.confirmed);
        assert_eq!(
            v.verdict,
            VerifyOutcome::Aborted {
                cause: AbortCause::StepBudgetExhausted,
                attempts: 4,
            }
        );
    }

    /// The pre-snapshot attempt loop: a fresh `Vm::new` (memory image,
    /// fault plan, breakpoints) per attempt. Returns the verdict, the
    /// attempts, the hints and the confirming outcome.
    fn fresh_vm_per_attempt(
        verifier: &RaceVerifier<'_>,
        entry: FuncId,
        input: &ProgramInput,
        report: &RaceReport,
    ) -> (
        VerifyOutcome,
        u64,
        Option<SecurityHints>,
        Option<ExecOutcome>,
    ) {
        let cfg = &verifier.config;
        let write_site = if report.first.is_write {
            report.first.site
        } else {
            report.second.site
        };
        let mut all_step_limit = true;
        for k in 0..cfg.max_schedules {
            let mut controller = RvController {
                site_a: report.first.site,
                site_b: report.second.site,
                first_site: Some(write_site),
                confirmed: None,
            };
            let mut vm = Vm::new(
                verifier.module,
                entry,
                input.clone(),
                cfg.run_config.clone(),
            );
            vm.add_breakpoint(Breakpoint::at(report.first.site));
            vm.add_breakpoint(Breakpoint::at(report.second.site));
            let mut sched = RandomScheduler::new(cfg.base_seed + k);
            let outcome = vm.run_controlled(&mut sched, &mut owl_vm::NullSink, &mut controller);
            all_step_limit &= outcome.status == ExitStatus::StepLimit;
            if let Some(mut hints) = controller.confirmed {
                hints.global_name =
                    owl_race::global_name_for_addr(verifier.module, hints.addr).map(str::to_string);
                return (VerifyOutcome::Confirmed, k + 1, Some(hints), Some(outcome));
            }
        }
        let verdict = if all_step_limit && cfg.max_schedules > 0 {
            VerifyOutcome::Aborted {
                cause: AbortCause::StepBudgetExhausted,
                attempts: cfg.max_schedules,
            }
        } else {
            VerifyOutcome::Unconfirmed
        };
        (verdict, cfg.max_schedules, None, None)
    }

    /// Resuming every attempt from one step-0 snapshot changes nothing:
    /// over every corpus program's detector reports, under a fault
    /// plan, `verify` matches a fresh VM per attempt.
    #[test]
    fn step0_snapshot_matches_fresh_vm_per_attempt() {
        let run_config = RunConfig {
            fault: owl_vm::FaultPlan::uniform(11, 0.01),
            ..RunConfig::default()
        };
        let detect = owl_race::ExplorerConfig {
            runs_per_input: 6,
            run_config: run_config.clone(),
            ..owl_race::ExplorerConfig::default()
        };
        let verifier_cfg = RaceVerifyConfig {
            max_schedules: 4,
            run_config,
            ..RaceVerifyConfig::default()
        };
        let mut confirmed = 0;
        for p in owl_corpus::all_programs() {
            let reports = owl_race::explore(&p.module, p.entry, &p.workloads, &detect).reports;
            let verifier = RaceVerifier::new(&p.module, verifier_cfg.clone());
            let input = &p.workloads[0];
            for report in &reports {
                let v = verifier.verify(p.entry, input, report);
                let fresh = fresh_vm_per_attempt(&verifier, p.entry, input, report);
                assert_eq!(
                    (v.verdict, v.attempts, v.hints, v.outcome),
                    fresh,
                    "{} report on {:?}",
                    p.name,
                    report.global_name
                );
                confirmed += usize::from(v.confirmed);
            }
        }
        assert!(confirmed > 0, "the corpus confirms some races");
    }

    /// The pipeline's stage-3 input for `p`: the detector's reports
    /// after the adhoc-synchronization annotation re-run (stages 1–2 of
    /// `owl::Owl::run` under `owl::OwlConfig`'s explorer settings; the
    /// elision pre-pass is left out because it never changes a report).
    fn annotated_reports(
        p: &owl_corpus::CorpusProgram,
        runs_per_input: u64,
        run_config: &RunConfig,
    ) -> Vec<RaceReport> {
        let detect = owl_race::ExplorerConfig {
            runs_per_input,
            expected_steps: 4_000,
            run_config: run_config.clone(),
            ..owl_race::ExplorerConfig::default()
        };
        let raw = owl_race::explore(&p.module, p.entry, &p.workloads, &detect);
        let annotations = owl_static::AdhocSyncDetector::new(&p.module)
            .detect(&raw.reports)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
        let annotated = owl_race::ExplorerConfig {
            annotations,
            ..detect
        };
        owl_race::explore(&p.module, p.entry, &p.workloads, &annotated).reports
    }

    /// Reach pruning changes no verdict on the pipeline's real stage-3
    /// input: post-annotation reports on the primary input, at the
    /// default (12 runs, 8 schedules) and quick (6 runs, 4 schedules)
    /// budgets, with and without a fault plan. Every result matches a
    /// fresh VM per attempt; injected-fault totals match the same
    /// verifier called with an input its probes are not bound to
    /// (which executes every attempt); and pruning does fire — most of
    /// Linux's attempts never execute.
    #[test]
    fn reach_pruning_matches_fresh_vm_per_attempt_on_annotated_reports() {
        for (runs_per_input, max_schedules) in [(12, 8), (6, 4)] {
            for fault in [
                owl_vm::FaultPlan::none(),
                owl_vm::FaultPlan::uniform(11, 0.01),
            ] {
                let faulty = fault != owl_vm::FaultPlan::none();
                let run_config = RunConfig {
                    fault,
                    ..RunConfig::default()
                };
                let cfg = RaceVerifyConfig {
                    max_schedules,
                    run_config: run_config.clone(),
                    ..RaceVerifyConfig::default()
                };
                let mut confirmed = 0;
                for p in owl_corpus::all_programs() {
                    let reports = annotated_reports(&p, runs_per_input, &run_config);
                    let verifier = RaceVerifier::new(&p.module, cfg.clone());
                    let input = &p.workloads[0];
                    let unbound = input.clone().with_label("not the probed input");
                    let (mut attempts, mut executed) = (0, 0);
                    for report in &reports {
                        let before = verifier.executed_attempts();
                        let v = verifier.verify(p.entry, input, report);
                        executed += verifier.executed_attempts() - before;
                        attempts += v.attempts;
                        let what = format!(
                            "{} report on {:?}, {max_schedules} schedules, faults {faulty}",
                            p.name, report.global_name
                        );
                        if faulty {
                            let before = verifier.executed_attempts();
                            let every = verifier.verify(p.entry, &unbound, report);
                            let ran = verifier.executed_attempts() - before;
                            assert_eq!(ran, every.attempts, "{what}");
                            assert_eq!(v.injected_faults, every.injected_faults, "{what}");
                        }
                        let fresh = fresh_vm_per_attempt(&verifier, p.entry, input, report);
                        assert_eq!((v.verdict, v.attempts, v.hints, v.outcome), fresh, "{what}");
                        confirmed += usize::from(v.confirmed);
                    }
                    if p.name == "Linux" {
                        assert!(
                            executed * 2 < attempts,
                            "Linux executed {executed} of {attempts} attempts"
                        );
                    }
                }
                assert!(confirmed > 0, "the corpus confirms some races");
            }
        }
    }

    #[test]
    fn write_first_order_realizes_corruption() {
        // After confirmation with WriteFirst, the read must observe the
        // written value; the confirming run's outcome proves execution
        // completed.
        let (m, main) = ptr_race_module();
        let report = first_report(&m, main);
        let verifier = RaceVerifier::new(
            &m,
            RaceVerifyConfig {
                order: RaceOrder::WriteFirst,
                ..RaceVerifyConfig::default()
            },
        );
        let v = verifier.verify(main, &ProgramInput::empty(), &report);
        assert!(v.confirmed);
        let outcome = v.outcome.expect("outcome");
        assert_eq!(outcome.status, owl_vm::ExitStatus::Finished);
    }
}
