//! Resource budgets for automaton construction.
//!
//! Subset construction is the exponential step of the §4.6 pipeline: a
//! Thompson NFA with `n` states can blow up to `2^n` DFA subsets. An
//! [`AutomataBudget`] bounds that blow-up (and the eventually-periodic
//! steady-state iteration of §4.7) so a caller gets a typed
//! [`AutomataError`] back instead of an unbounded computation. All limits
//! default to "unlimited", so budget-free call sites keep their exact
//! semantics.

use std::fmt;
use std::time::Instant;

/// Resource limits applied by the `*_checked` automaton entry points.
///
/// A default-constructed budget is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutomataBudget {
    /// Maximum number of Thompson NFA states. Construction is linear in the
    /// regex size, so this is checked after building (the work to discover a
    /// violation is proportional to the limit, not exponential).
    pub max_nfa_states: Option<usize>,
    /// Maximum number of DFA states construction may materialize. The
    /// direct builder ([`Dfa::from_window_patterns_checked`](crate::Dfa::from_window_patterns_checked))
    /// checks its `2^(width+1) - 1` states arithmetically before building;
    /// subset construction counts subsets as it discovers them. Also caps
    /// the length of the reachable-subset sequence walked by steady-state
    /// reduction.
    pub max_dfa_states: Option<usize>,
    /// Wall-clock deadline; long-running loops poll it and abort with
    /// [`AutomataError::DeadlineExpired`].
    pub deadline: Option<Instant>,
}

impl AutomataBudget {
    /// A budget with every limit disabled.
    #[must_use]
    pub fn unlimited() -> Self {
        AutomataBudget::default()
    }

    /// Errors with [`AutomataError::DeadlineExpired`] if the deadline passed.
    pub(crate) fn check_deadline(&self, stage: &'static str) -> Result<(), AutomataError> {
        match self.deadline {
            Some(deadline) if Instant::now() > deadline => {
                Err(AutomataError::DeadlineExpired { stage })
            }
            _ => Ok(()),
        }
    }
}

/// An automaton construction was aborted because it would exceed its
/// [`AutomataBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AutomataError {
    /// Thompson construction produced more NFA states than allowed.
    NfaStates {
        /// States the construction produced.
        generated: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Subset construction (or steady-state iteration) grew past the
    /// allowed DFA state count.
    DfaStates {
        /// States materialized when the limit was hit.
        generated: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline expired inside the named stage.
    DeadlineExpired {
        /// The construction stage that observed the expiry.
        stage: &'static str,
    },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::NfaStates { generated, limit } => write!(
                f,
                "Thompson construction produced {generated} NFA states, budget allows {limit}"
            ),
            AutomataError::DfaStates { generated, limit } => write!(
                f,
                "DFA construction reached {generated} states, budget allows {limit}"
            ),
            AutomataError::DeadlineExpired { stage } => {
                write!(f, "automaton deadline expired during {stage}")
            }
        }
    }
}

impl std::error::Error for AutomataError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_is_unlimited() {
        let b = AutomataBudget::default();
        assert_eq!(b, AutomataBudget::unlimited());
        assert!(b.check_deadline("test").is_ok());
    }

    #[test]
    fn expired_deadline_is_detected() {
        let b = AutomataBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..AutomataBudget::default()
        };
        assert_eq!(
            b.check_deadline("subset"),
            Err(AutomataError::DeadlineExpired { stage: "subset" })
        );
    }

    #[test]
    fn errors_display() {
        let e = AutomataError::NfaStates {
            generated: 12,
            limit: 8,
        };
        assert!(e.to_string().contains("12"));
        let e = AutomataError::DfaStates {
            generated: 300,
            limit: 256,
        };
        assert!(e.to_string().contains("300"));
    }
}
