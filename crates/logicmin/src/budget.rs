//! Resource budgets for logic minimization.
//!
//! Both minimizers have exponential worst cases: Quine–McCluskey seeds its
//! merge table with every on and don't-care minterm (`O(2^width)`) and the
//! covering step branch-and-bounds over cyclic cores. A [`MinimizeBudget`]
//! bounds those blow-ups so a caller — ultimately a design service fed
//! untrusted traces — gets a typed [`BudgetError`] back instead of an
//! unbounded computation. All limits default to "unlimited", so
//! budget-free call sites keep their exact semantics.

use std::fmt;
use std::time::Instant;

/// Resource limits applied by the `*_checked` minimizer entry points.
///
/// A default-constructed budget is unlimited. Limits are checked *before*
/// the corresponding expensive phase runs whenever the cost can be computed
/// up front (minterm enumeration), and incrementally otherwise (prime
/// merging, covering search, wall clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeBudget {
    /// Maximum number of minterms the minimizer may enumerate explicitly.
    /// For exact QM this bounds the seed set (on-set plus all don't-cares,
    /// i.e. `2^width - |off|`); for the heuristic it bounds the explicit
    /// on/off sets.
    pub max_minterms: Option<usize>,
    /// Maximum number of implicants the prime-implicant computation may
    /// hold. Checked first against the seed count (`2^width - |off|`); the
    /// dense prime table (up to
    /// [`DENSE_TABLE_MAX_WIDTH`](crate::qm::DENSE_TABLE_MAX_WIDTH)
    /// variables) then counts every implicant it finds, and the merge loop
    /// counts generated primes plus the current merge frontier.
    pub max_primes: Option<usize>,
    /// Maximum number of branch-and-bound nodes the exact covering step may
    /// visit (its analogue of Petrick product terms) before falling back to
    /// the deterministic greedy cover. Exceeding this limit degrades the
    /// cover quality but never fails the call.
    pub max_cover_nodes: Option<usize>,
    /// Wall-clock deadline. Exact phases past the deadline abort with
    /// [`BudgetError::DeadlineExpired`]; the covering search instead falls
    /// back to greedy selection.
    pub deadline: Option<Instant>,
}

impl MinimizeBudget {
    /// A budget with every limit disabled.
    #[must_use]
    pub fn unlimited() -> Self {
        MinimizeBudget::default()
    }

    /// Errors with [`BudgetError::DeadlineExpired`] if the deadline passed.
    pub(crate) fn check_deadline(&self, stage: &'static str) -> Result<(), BudgetError> {
        match self.deadline {
            Some(deadline) if Instant::now() > deadline => {
                Err(BudgetError::DeadlineExpired { stage })
            }
            _ => Ok(()),
        }
    }

    /// `true` when the deadline (if any) has passed.
    pub(crate) fn deadline_expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() > deadline)
    }
}

/// A minimization was aborted because it would exceed its
/// [`MinimizeBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetError {
    /// The function requires enumerating more minterms than allowed.
    Minterms {
        /// Minterms the minimizer would have to enumerate.
        required: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Prime-implicant generation grew past the allowed cube count.
    Primes {
        /// Cubes alive when the limit was hit.
        generated: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline expired inside the named stage.
    DeadlineExpired {
        /// The minimization stage that observed the expiry.
        stage: &'static str,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Minterms { required, limit } => write!(
                f,
                "minimization needs {required} explicit minterms, budget allows {limit}"
            ),
            BudgetError::Primes { generated, limit } => write!(
                f,
                "prime implicant generation reached {generated} cubes, budget allows {limit}"
            ),
            BudgetError::DeadlineExpired { stage } => {
                write!(f, "minimization deadline expired during {stage}")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_is_unlimited() {
        let b = MinimizeBudget::default();
        assert_eq!(b, MinimizeBudget::unlimited());
        assert!(b.max_minterms.is_none());
        assert!(b.check_deadline("test").is_ok());
    }

    #[test]
    fn expired_deadline_is_detected() {
        let b = MinimizeBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..MinimizeBudget::default()
        };
        assert!(b.deadline_expired());
        assert_eq!(
            b.check_deadline("primes"),
            Err(BudgetError::DeadlineExpired { stage: "primes" })
        );
    }

    #[test]
    fn errors_display() {
        let e = BudgetError::Minterms {
            required: 1024,
            limit: 512,
        };
        assert!(e.to_string().contains("1024"));
        let e = BudgetError::Primes {
            generated: 99,
            limit: 64,
        };
        assert!(e.to_string().contains("99"));
    }
}
