//! Design-flow resource budgets and the graceful-degradation report.
//!
//! A [`DesignBudget`] caps the expensive stages of the §4 pipeline (logic
//! minimization and automaton construction) and optionally the wall clock.
//! When a stage would exceed the budget, the [`Designer`](crate::Designer)
//! does not fail outright: it walks a *degradation ladder* — heuristic
//! minimizer, then shorter history orders, then a plain saturating counter
//! — and records each step taken in a [`Degradation`] report attached to
//! the returned design.

use fsmgen_automata::AutomataBudget;
use fsmgen_logicmin::MinimizeBudget;
use std::fmt;
use std::time::Instant;

/// Resource limits for one design-flow run. A default-constructed budget is
/// unlimited, making the budgeted flow identical to the plain one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignBudget {
    /// Maximum DFA states before minimization. The designer builds the
    /// shift-register machine of the cover, which has `2^(N+1) - 1` states
    /// at history order N, so this is checked arithmetically before the
    /// machine is built (it also caps the steady-state reduction
    /// iteration).
    pub max_dfa_states: Option<usize>,
    /// Maximum Thompson NFA states.
    pub max_nfa_states: Option<usize>,
    /// Maximum minterms the logic minimizer may enumerate explicitly.
    pub max_minterms: Option<usize>,
    /// Maximum implicants the exact minimizer may find while generating
    /// primes. Checked first against the seed count (every minterm outside
    /// the off-set); up to 12 history bits the dense prime table then
    /// counts every implicant it finds, wider orders count the cubes alive
    /// in one merge level (exact minimizer only).
    pub max_primes: Option<usize>,
    /// Maximum branch-and-bound nodes in the exact covering step before it
    /// degrades (internally, without error) to greedy selection.
    pub max_cover_nodes: Option<usize>,
    /// Wall-clock deadline for the whole run.
    pub deadline: Option<Instant>,
}

impl DesignBudget {
    /// A budget with every limit disabled.
    #[must_use]
    pub fn unlimited() -> Self {
        DesignBudget::default()
    }

    /// `true` when no limit is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == DesignBudget::default()
    }

    /// The logic-minimization slice of this budget.
    #[must_use]
    pub fn minimize_budget(&self) -> MinimizeBudget {
        MinimizeBudget {
            max_minterms: self.max_minterms,
            max_primes: self.max_primes,
            max_cover_nodes: self.max_cover_nodes,
            deadline: self.deadline,
        }
    }

    /// The automaton-construction slice of this budget.
    #[must_use]
    pub fn automata_budget(&self) -> AutomataBudget {
        AutomataBudget {
            max_nfa_states: self.max_nfa_states,
            max_dfa_states: self.max_dfa_states,
            deadline: self.deadline,
        }
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rung {
    /// The exact minimizer was replaced by the Espresso-style heuristic.
    HeuristicMinimizer,
    /// The history order was reduced to the contained value.
    ReducedOrder(usize),
    /// The design fell back to a 2-bit saturating counter (no history
    /// window at all).
    SaturatingCounter,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::HeuristicMinimizer => f.write_str("heuristic minimizer"),
            Rung::ReducedOrder(n) => write!(f, "history order reduced to {n}"),
            Rung::SaturatingCounter => f.write_str("saturating-counter fallback"),
        }
    }
}

/// One recorded fallback: which rung was taken and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationStep {
    /// The ladder rung the designer fell to.
    pub rung: Rung,
    /// The pipeline stage whose failure triggered the fallback.
    pub stage: &'static str,
    /// Human-readable failure description (typically the budget error).
    pub reason: String,
}

impl fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {}: {})", self.rung, self.stage, self.reason)
    }
}

/// The degradation report attached to every [`Design`](crate::Design): the
/// ordered list of ladder rungs the designer had to take. Empty when the
/// requested configuration fit the budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    steps: Vec<DegradationStep>,
}

impl Degradation {
    /// Reconstructs a report from recorded steps — the deserialization
    /// path (e.g. the farm's persistent cache snapshots). The designer
    /// itself records steps internally; this does not validate that the
    /// sequence is one the ladder could actually produce.
    #[must_use]
    pub fn from_steps(steps: Vec<DegradationStep>) -> Self {
        Degradation { steps }
    }

    /// `true` when at least one fallback was taken.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.steps.is_empty()
    }

    /// The recorded fallbacks, in the order they were taken.
    #[must_use]
    pub fn steps(&self) -> &[DegradationStep] {
        &self.steps
    }

    /// The final rung reached, or `None` for an undegraded design.
    #[must_use]
    pub fn final_rung(&self) -> Option<Rung> {
        self.steps.last().map(|s| s.rung)
    }

    pub(crate) fn record(&mut self, rung: Rung, stage: &'static str, reason: String) {
        self.steps.push(DegradationStep {
            rung,
            stage,
            reason,
        });
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return f.write_str("no degradation");
        }
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = DesignBudget::default();
        assert!(b.is_unlimited());
        assert_eq!(b.minimize_budget(), MinimizeBudget::unlimited());
        assert_eq!(b.automata_budget(), AutomataBudget::unlimited());
    }

    #[test]
    fn budget_slices_carry_limits() {
        let b = DesignBudget {
            max_dfa_states: Some(64),
            max_minterms: Some(512),
            ..DesignBudget::default()
        };
        assert!(!b.is_unlimited());
        assert_eq!(b.automata_budget().max_dfa_states, Some(64));
        assert_eq!(b.minimize_budget().max_minterms, Some(512));
    }

    #[test]
    fn degradation_report_accumulates() {
        let mut d = Degradation::default();
        assert!(!d.is_degraded());
        assert_eq!(d.to_string(), "no degradation");
        d.record(
            Rung::HeuristicMinimizer,
            "minimize",
            "too many primes".into(),
        );
        d.record(Rung::ReducedOrder(4), "minimize", "still too many".into());
        assert!(d.is_degraded());
        assert_eq!(d.steps().len(), 2);
        assert_eq!(d.final_rung(), Some(Rung::ReducedOrder(4)));
        let text = d.to_string();
        assert!(text.contains("heuristic minimizer"));
        assert!(text.contains("reduced to 4"));
    }
}
