//! Deterministic fault injection.
//!
//! A seeded [`FaultPlan`] rides along in [`crate::RunConfig`] and lets
//! the VM perturb an execution in controlled, reproducible ways:
//! memory operations fail spuriously, condition waits wake without a
//! signal, scheduler picks are replaced by delays, breakpoint hits are
//! dropped, and the step budget is exhausted early. Every injection is
//! recorded as a [`FaultRecord`] in
//! [`crate::ExecOutcome::injected_faults`] (and, where an instruction
//! site exists, as an [`crate::EventKind::Fault`] trace event), so a
//! chaos run can always account for what the harness did to it.
//!
//! A plan with all rates at zero never draws from its RNG and never
//! perturbs anything: execution is bit-identical to a run without the
//! fault layer.

use crate::event::ThreadId;
use owl_ir::InstRef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What kinds of fault the VM can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A load or store failed as if the memory subsystem returned
    /// [`crate::mem::MemError`]-style wild access.
    MemFault,
    /// A thread asleep on a condition variable was woken without a
    /// signal (the POSIX spurious wakeup the paper's ad-hoc loops
    /// guard against).
    SpuriousWakeup,
    /// The scheduler's pick was replaced by a delay, perturbing the
    /// interleaving.
    SchedDelay,
    /// A matching breakpoint hit was silently dropped (the verifier
    /// never hears about it).
    DroppedBreakpoint,
    /// The step budget was cut short of `max_steps`.
    StepExhaustion,
    /// A hard kill fired right after a journal append — the
    /// crash-recovery harness's simulated `SIGKILL` (injected by the
    /// journal layer, never by the VM itself).
    JournalKill,
}

/// Panic payload of an armed durability kill point (the journal's
/// `set_kill_after`). It simulates the process dying right after an
/// fsync — supervisors must re-raise it rather than retry, exactly as
/// they would not survive a real `SIGKILL`. Defined here, beside
/// [`FaultKind::JournalKill`], and shared by every layer that persists
/// checksummed records: the campaign journal and the daemon's result
/// store.
#[derive(Debug)]
pub struct JournalKilled {
    /// Appends completed before the kill fired.
    pub appends: u64,
    /// The fault kind this injection is tagged with
    /// ([`FaultKind::JournalKill`]).
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::MemFault => "mem-fault",
            FaultKind::SpuriousWakeup => "spurious-wakeup",
            FaultKind::SchedDelay => "sched-delay",
            FaultKind::DroppedBreakpoint => "dropped-breakpoint",
            FaultKind::StepExhaustion => "step-exhaustion",
            FaultKind::JournalKill => "journal-kill",
        };
        f.write_str(s)
    }
}

/// One injected fault, with as much provenance as was available at the
/// injection point.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Which fault fired.
    pub kind: FaultKind,
    /// Step at which it fired.
    pub step: u64,
    /// Affected thread, when one exists (step exhaustion has none).
    pub tid: Option<ThreadId>,
    /// Instruction the affected thread was at, when resolvable.
    pub site: Option<InstRef>,
}

/// A seeded, per-execution fault-injection plan.
///
/// Rates are probabilities in `[0, 1]`, evaluated independently at
/// each opportunity (per memory access, per scheduler pick, per
/// breakpoint hit, ...). The default plan is [`FaultPlan::none`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed; equal seeds and equal programs give equal injections.
    pub seed: u64,
    /// Probability a `Load`/`Store` fails with a wild-access fault.
    pub mem_fault_rate: f64,
    /// Per-loop-iteration probability of waking one condition-waiting
    /// thread without a signal.
    pub spurious_wakeup_rate: f64,
    /// Probability a scheduler pick is replaced by a delay.
    pub sched_delay_rate: f64,
    /// How long (in steps) an injected delay lasts.
    pub sched_delay_steps: u64,
    /// Probability a matching breakpoint hit is dropped.
    pub drop_breakpoint_rate: f64,
    /// Probability (drawn once per run) that the step budget is cut
    /// to `step_exhaustion_fraction * max_steps`.
    pub step_exhaustion_rate: f64,
    /// Fraction of `max_steps` that survives a step-exhaustion fault.
    pub step_exhaustion_fraction: f64,
    /// When set, injections only fire inside this `[start, end)` step
    /// window (step exhaustion is exempt: it is a run-level fault).
    pub window: Option<(u64, u64)>,
}

impl FaultPlan {
    /// The no-op plan: nothing ever fires, no RNG is consumed.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            mem_fault_rate: 0.0,
            spurious_wakeup_rate: 0.0,
            sched_delay_rate: 0.0,
            sched_delay_steps: 0,
            drop_breakpoint_rate: 0.0,
            step_exhaustion_rate: 0.0,
            step_exhaustion_fraction: 1.0,
            window: None,
        }
    }

    /// A plan firing every fault kind at the same `rate`, seeded with
    /// `seed`. Delays last 50 steps; step exhaustion halves the
    /// budget.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            mem_fault_rate: rate,
            spurious_wakeup_rate: rate,
            sched_delay_rate: rate,
            sched_delay_steps: 50,
            drop_breakpoint_rate: rate,
            step_exhaustion_rate: rate,
            step_exhaustion_fraction: 0.5,
            window: None,
        }
    }

    /// Whether every rate is zero (the plan can never perturb a run).
    pub fn is_none(&self) -> bool {
        self.mem_fault_rate == 0.0
            && self.spurious_wakeup_rate == 0.0
            && self.sched_delay_rate == 0.0
            && self.drop_breakpoint_rate == 0.0
            && self.step_exhaustion_rate == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Live injection state for one execution. `Clone` captures the RNG
/// mid-stream, so a [`crate::Snapshot`] resumes drawing exactly where
/// the snapshotted run left off.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: StdRng,
    /// Everything injected so far, in injection order.
    pub(crate) records: Vec<FaultRecord>,
    /// Premature step budget, when a step-exhaustion fault was drawn.
    pub(crate) cutoff: Option<u64>,
}

impl FaultState {
    /// Seeds the RNG and draws the run-level step-exhaustion fault.
    pub(crate) fn new(plan: FaultPlan, max_steps: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let cutoff = if plan.step_exhaustion_rate > 0.0
            && rng.gen_bool(plan.step_exhaustion_rate.clamp(0.0, 1.0))
        {
            Some((max_steps as f64 * plan.step_exhaustion_fraction.clamp(0.0, 1.0)) as u64)
        } else {
            None
        };
        FaultState {
            plan,
            rng,
            records: Vec::new(),
            cutoff,
        }
    }

    /// Core draw: does a fault with probability `rate` fire at `step`?
    ///
    /// Zero rates (and steps outside the plan's window) short-circuit
    /// before touching the RNG, so a no-op plan stays bit-identical to
    /// no plan at all.
    fn fire(&mut self, rate: f64, step: u64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if let Some((start, end)) = self.plan.window {
            if step < start || step >= end {
                return false;
            }
        }
        self.rng.gen_bool(rate.clamp(0.0, 1.0))
    }

    pub(crate) fn fire_mem(&mut self, step: u64) -> bool {
        self.fire(self.plan.mem_fault_rate, step)
    }

    pub(crate) fn fire_wakeup(&mut self, step: u64) -> bool {
        self.fire(self.plan.spurious_wakeup_rate, step)
    }

    pub(crate) fn fire_sched_delay(&mut self, step: u64) -> bool {
        self.fire(self.plan.sched_delay_rate, step)
    }

    pub(crate) fn fire_drop_bp(&mut self, step: u64) -> bool {
        self.fire(self.plan.drop_breakpoint_rate, step)
    }

    /// Appends a record of an injection that just happened.
    pub(crate) fn record(
        &mut self,
        kind: FaultKind,
        step: u64,
        tid: Option<ThreadId>,
        site: Option<InstRef>,
    ) {
        self.records.push(FaultRecord {
            kind,
            step,
            tid,
            site,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let mut st = FaultState::new(FaultPlan::none(), 1000);
        assert!(st.cutoff.is_none());
        for step in 0..10_000 {
            assert!(!st.fire_mem(step));
            assert!(!st.fire_wakeup(step));
            assert!(!st.fire_sched_delay(step));
            assert!(!st.fire_drop_bp(step));
        }
        assert!(st.records.is_empty());
    }

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<bool> = {
            let mut st = FaultState::new(FaultPlan::uniform(7, 0.3), 1000);
            (0..200).map(|s| st.fire_mem(s)).collect()
        };
        let b: Vec<bool> = {
            let mut st = FaultState::new(FaultPlan::uniform(7, 0.3), 1000);
            (0..200).map(|s| st.fire_mem(s)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<bool> = {
            let mut st = FaultState::new(FaultPlan::uniform(8, 0.3), 1000);
            (0..200).map(|s| st.fire_mem(s)).collect()
        };
        assert_ne!(a, c, "different seeds should eventually diverge");
    }

    #[test]
    fn window_gates_injections() {
        let mut plan = FaultPlan::uniform(3, 1.0);
        plan.window = Some((10, 20));
        plan.step_exhaustion_rate = 0.0;
        let mut st = FaultState::new(plan, 1000);
        assert!(!st.fire_mem(9));
        assert!(st.fire_mem(10));
        assert!(st.fire_mem(19));
        assert!(!st.fire_mem(20));
    }

    #[test]
    fn exhaustion_cutoff_scales_budget() {
        let st = FaultState::new(FaultPlan::uniform(1, 1.0), 1000);
        assert_eq!(st.cutoff, Some(500));
    }
}
