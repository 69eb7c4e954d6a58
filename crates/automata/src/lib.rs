//! Finite automata machinery for FSM predictor design.
//!
//! Implements the back half of Sherwood & Calder's design flow (ISCA 2001,
//! §4.5–4.7): regular expressions over the binary alphabet, Thompson NFA
//! construction, subset construction to a DFA, Hopcroft minimization,
//! start-state (steady-state) reduction, and a runnable Moore-machine
//! predictor.
//!
//! The design flow builds its DFA with [`Dfa::from_window_patterns`], a
//! shift register over the cover's fixed-width patterns, which minimizes to
//! the same machine as the subset construction at a fraction of the cost.
//! Thompson's NFA and the subset construction stay as the general path
//! (arbitrary regexes, [`compile_patterns`]) and as its test oracle.
//!
//! # Examples
//!
//! Reproducing Figure 1 of the paper end to end — the language "anything
//! ending in `1x` or `x1`" becomes a 5-state minimal DFA whose start-up
//! states are then removed, leaving the 3-state steady predictor:
//!
//! ```
//! use fsmgen_automata::{Dfa, MoorePredictor, Nfa, Regex};
//!
//! let lang = Regex::ending_in(vec![
//!     Regex::pattern(&[Some(true), None]),  // 1x
//!     Regex::pattern(&[None, Some(true)]),  // x1
//! ]);
//! let with_startup = Dfa::from_nfa(&Nfa::from_regex(&lang)).minimized();
//! assert_eq!(with_startup.num_states(), 5);
//! let steady = with_startup.steady_state_reduced();
//! assert_eq!(steady.num_states(), 3);
//!
//! let mut predictor = MoorePredictor::new(steady);
//! predictor.update(true);
//! predictor.update(true);
//! assert!(predictor.predict()); // history 11 is in the predict-1 set
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
mod dfa;
mod moore;
mod nfa;
mod ops;
mod patterns;
mod regex;
mod serial;
mod window;

pub use budget::{AutomataBudget, AutomataError};
pub use dfa::Dfa;
pub use moore::MoorePredictor;
pub use nfa::Nfa;
pub use patterns::{parse_pattern, parse_pattern_list, pattern_to_string, ParsePatternError};
pub use regex::Regex;
pub use serial::{machine_from_table, machine_to_table, ParseMachineError};
pub use window::MAX_WINDOW_WIDTH;

/// One-call convenience running the whole §4.5–4.7 pipeline: patterns →
/// regex → NFA → DFA → Hopcroft minimization → start-state reduction.
///
/// Each pattern is a fixed-length history template, oldest bit first, with
/// `None` meaning "either bit" (the `x` of the paper's figures).
///
/// Returns the steady-state Moore machine. An empty pattern list produces
/// the one-state always-predict-0 machine.
///
/// # Examples
///
/// ```
/// use fsmgen_automata::compile_patterns;
///
/// // Figure 6's machine: predict 1 on histories matching 1x.
/// let fsm = compile_patterns(&[vec![Some(true), None]]);
/// assert_eq!(fsm.num_states(), 4);
/// ```
#[must_use]
pub fn compile_patterns(patterns: &[Vec<Option<bool>>]) -> Dfa {
    match compile_patterns_checked(patterns, &AutomataBudget::unlimited()) {
        Ok(dfa) => dfa,
        Err(_) => unreachable!("unlimited budgets never abort"),
    }
}

/// [`compile_patterns`] under an [`AutomataBudget`]: every stage of the
/// pipeline (Thompson construction, subset construction, Hopcroft
/// minimization, steady-state reduction) enforces the budget's limits and
/// deadline, so pathological pattern sets abort with a typed error instead
/// of exhausting memory or time.
///
/// # Errors
///
/// Returns an [`AutomataError`] naming the violated limit.
pub fn compile_patterns_checked(
    patterns: &[Vec<Option<bool>>],
    budget: &AutomataBudget,
) -> Result<Dfa, AutomataError> {
    if patterns.is_empty() {
        return Ok(Dfa::from_parts(vec![[0, 0]], vec![false], 0));
    }
    let alts: Vec<Regex> = patterns.iter().map(|p| Regex::pattern(p)).collect();
    let lang = Regex::ending_in(alts);
    let nfa = Nfa::from_regex_checked(&lang, budget)?;
    Dfa::from_nfa_checked(&nfa, budget)?
        .minimized_checked(budget)?
        .steady_state_reduced_checked(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_patterns_empty_is_constant_zero() {
        let fsm = compile_patterns(&[]);
        assert_eq!(fsm.num_states(), 1);
        assert!(!fsm.output(0));
    }

    #[test]
    fn compile_patterns_figure7() {
        let fsm = compile_patterns(&[
            vec![Some(false), None, Some(true), None],
            vec![Some(false), None, None, Some(true), None],
        ]);
        assert_eq!(fsm.num_states(), 11);
    }

    #[test]
    fn checked_with_generous_budget_matches_unlimited() {
        let patterns = vec![
            vec![Some(false), None, Some(true), None],
            vec![Some(false), None, None, Some(true), None],
        ];
        let budget = AutomataBudget {
            max_nfa_states: Some(10_000),
            max_dfa_states: Some(10_000),
            deadline: None,
        };
        let checked = compile_patterns_checked(&patterns, &budget).unwrap();
        assert_eq!(checked, compile_patterns(&patterns));
    }

    #[test]
    fn nfa_state_budget_rejects_large_pattern_sets() {
        let patterns = vec![vec![Some(true); 16]; 8];
        let budget = AutomataBudget {
            max_nfa_states: Some(8),
            ..AutomataBudget::default()
        };
        assert!(matches!(
            compile_patterns_checked(&patterns, &budget),
            Err(AutomataError::NfaStates { .. })
        ));
    }

    #[test]
    fn dfa_state_budget_caps_subset_construction() {
        let patterns = vec![
            vec![Some(true), None, None, None, None, None, None, Some(true)],
            vec![
                Some(false),
                Some(true),
                None,
                None,
                None,
                None,
                Some(false),
                None,
            ],
        ];
        let budget = AutomataBudget {
            max_dfa_states: Some(4),
            ..AutomataBudget::default()
        };
        assert!(matches!(
            compile_patterns_checked(&patterns, &budget),
            Err(AutomataError::DfaStates { .. })
        ));
    }

    #[test]
    fn expired_deadline_aborts_compilation() {
        use std::time::{Duration, Instant};
        let budget = AutomataBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..AutomataBudget::default()
        };
        assert!(matches!(
            compile_patterns_checked(&[vec![Some(true), None]], &budget),
            Err(AutomataError::DeadlineExpired { .. })
        ));
    }
}
