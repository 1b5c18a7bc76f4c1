//! Three-way verification verdicts.
//!
//! A dynamic verification used to be bool-shaped: confirmed or not.
//! Under fault injection and supervised execution that is not enough —
//! a verifier that ran out of wall-clock, or whose every attempt hit
//! the VM step budget, did *not* establish "unconfirmed"; it failed to
//! complete. [`VerifyOutcome`] keeps those cases distinct so the
//! pipeline supervisor can quarantine aborted verifications instead of
//! silently counting them as eliminations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a verification aborted before spending its whole attempt
/// budget meaningfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortCause {
    /// The wall-clock deadline expired between attempts.
    DeadlineExceeded,
    /// Every attempt exhausted the VM step budget — no execution ever
    /// ran to completion, so nothing was established either way.
    StepBudgetExhausted,
    /// The verifier panicked and a supervisor caught it (the verdict
    /// is synthesized by the supervisor, not the verifier itself).
    Panicked,
    /// A predictive backend's buffered trace outgrew the configured
    /// memory budget (`--max-trace-mem`). The unit stops recording and
    /// aborts with this typed verdict instead of letting the buffer
    /// grow without bound; campaigns quarantine it and continue.
    MemoryBudget,
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::DeadlineExceeded => f.write_str("deadline exceeded"),
            AbortCause::StepBudgetExhausted => f.write_str("step budget exhausted"),
            AbortCause::Panicked => f.write_str("verifier panicked"),
            AbortCause::MemoryBudget => f.write_str("memory budget exceeded"),
        }
    }
}

/// The three-way result of a verification attempt budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerifyOutcome {
    /// The property was established (race caught in the racing moment;
    /// vulnerable site reached).
    Confirmed,
    /// The full attempt budget ran without establishing the property.
    Unconfirmed,
    /// The verification gave up without a meaningful answer.
    Aborted {
        /// Why it gave up.
        cause: AbortCause,
        /// Attempts completed before giving up.
        attempts: u64,
    },
}

impl VerifyOutcome {
    /// Whether the property was established.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, VerifyOutcome::Confirmed)
    }

    /// Whether the verification gave up without an answer.
    pub fn is_aborted(&self) -> bool {
        matches!(self, VerifyOutcome::Aborted { .. })
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyOutcome::Confirmed => f.write_str("confirmed"),
            VerifyOutcome::Unconfirmed => f.write_str("unconfirmed"),
            VerifyOutcome::Aborted { cause, attempts } => {
                write!(f, "aborted after {attempts} attempt(s): {cause}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(VerifyOutcome::Confirmed.is_confirmed());
        assert!(!VerifyOutcome::Unconfirmed.is_confirmed());
        let ab = VerifyOutcome::Aborted {
            cause: AbortCause::DeadlineExceeded,
            attempts: 3,
        };
        assert!(ab.is_aborted());
        assert!(!ab.is_confirmed());
    }

    #[test]
    fn display_names_the_cause() {
        let s = VerifyOutcome::Aborted {
            cause: AbortCause::StepBudgetExhausted,
            attempts: 7,
        }
        .to_string();
        assert!(s.contains("7"));
        assert!(s.contains("step budget"));
    }
}
