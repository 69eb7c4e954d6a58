//! Direct construction of the predictor DFA from fixed-width history
//! patterns.
//!
//! The §4.5 language of a cover is "the last N outcomes match some cube".
//! A shift register accepts it without going through Thompson's NFA and
//! the subset construction: the machine remembers how many bits it has
//! seen so far (up to N) and those bits. Hopcroft minimization of this
//! machine yields exactly the table that minimizing the subset
//! construction yields, because the minimal DFA of a language is unique
//! and [`Dfa::minimized`] numbers its states canonically.

use crate::budget::{AutomataBudget, AutomataError};
use crate::dfa::Dfa;

/// Widest window [`Dfa::from_window_patterns`] builds: the machine has
/// `2^(width+1) - 1` states, which must fit the `u32` state ids.
pub const MAX_WINDOW_WIDTH: usize = 24;

impl Dfa {
    /// Builds the shift-register DFA accepting every string of at least
    /// `width` bits whose last `width` bits match one of `patterns` — the
    /// language of `Regex::ending_in` over the same patterns.
    ///
    /// Each pattern is a history template of exactly `width` positions,
    /// oldest bit first, with `None` meaning "either bit". The machine has
    /// `2^(width+1) - 1` states: state `(k, bits)` has seen `k ≤ width`
    /// bits, and outputs 1 when `k = width` and `bits` match a pattern.
    /// States are numbered in breadth-first order from the start state.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WINDOW_WIDTH`], or if a
    /// pattern's length differs from `width`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsmgen_automata::{Dfa, Nfa, Regex};
    ///
    /// // Figure 1: anything ending in 1x or x1.
    /// let patterns = vec![vec![Some(true), None], vec![None, Some(true)]];
    /// let direct = Dfa::from_window_patterns(2, &patterns);
    /// assert_eq!(direct.num_states(), 7);
    ///
    /// let re = Regex::ending_in(patterns.iter().map(|p| Regex::pattern(p)).collect());
    /// let subset = Dfa::from_nfa(&Nfa::from_regex(&re));
    /// assert_eq!(direct.minimized(), subset.minimized());
    /// ```
    #[must_use]
    pub fn from_window_patterns(width: usize, patterns: &[Vec<Option<bool>>]) -> Self {
        match Dfa::from_window_patterns_checked(width, patterns, &AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::from_window_patterns`] under an [`AutomataBudget`]. The state
    /// count `2^(width+1) - 1` is known in advance, so `max_dfa_states` is
    /// checked arithmetically before anything is built.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DfaStates`] when the machine would exceed
    /// `max_dfa_states`, or [`AutomataError::DeadlineExpired`] when the
    /// budget's deadline has already passed.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Dfa::from_window_patterns`].
    pub fn from_window_patterns_checked(
        width: usize,
        patterns: &[Vec<Option<bool>>],
        budget: &AutomataBudget,
    ) -> Result<Self, AutomataError> {
        assert!(
            (1..=MAX_WINDOW_WIDTH).contains(&width),
            "window width must be in 1..={MAX_WINDOW_WIDTH}, got {width}"
        );
        let states = (1usize << (width + 1)) - 1;
        if let Some(limit) = budget.max_dfa_states {
            if states > limit {
                return Err(AutomataError::DfaStates {
                    generated: states,
                    limit,
                });
            }
        }
        budget.check_deadline("direct construction")?;

        // accept[w] for every full window w, where bit i of w is the
        // outcome i steps back (bit 0 is the newest). Pattern position j,
        // oldest first, is therefore bit width-1-j.
        let full = (1u32 << width) - 1;
        let mut accept_window = vec![false; 1 << width];
        for pattern in patterns {
            assert_eq!(
                pattern.len(),
                width,
                "every pattern must span the {width}-bit window"
            );
            let (mut care, mut value) = (0u32, 0u32);
            for (j, bit) in pattern.iter().enumerate() {
                if let Some(b) = bit {
                    let at = 1 << (width - 1 - j);
                    care |= at;
                    if *b {
                        value |= at;
                    }
                }
            }
            // Enumerate every window the pattern matches: the submasks of
            // its free positions, or-ed onto its fixed bits.
            let free = full & !care;
            let mut sub = free;
            loop {
                accept_window[(value | sub) as usize] = true;
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & free;
            }
        }

        // State (k, bits) is numbered 2^k - 1 + bits, so a filling state s
        // steps to 2s + 1 + b and the full states 2^width - 1 .. states-1
        // shift their window.
        let first_full = (1u32 << width) - 1;
        let mut transitions = Vec::with_capacity(states);
        let mut accept = Vec::with_capacity(states);
        for s in 0..first_full {
            transitions.push([2 * s + 1, 2 * s + 2]);
            accept.push(false);
        }
        for bits in 0..=full {
            let shifted = (bits << 1) & full;
            transitions.push([first_full + shifted, first_full + (shifted | 1)]);
            accept.push(accept_window[bits as usize]);
        }
        fsmgen_obs::counter("dfa", "direct_states", states as u64);
        Ok(Dfa::from_parts(transitions, accept, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::regex::Regex;

    fn subset_machine(patterns: &[Vec<Option<bool>>]) -> Dfa {
        let re = Regex::ending_in(patterns.iter().map(|p| Regex::pattern(p)).collect());
        Dfa::from_nfa(&Nfa::from_regex(&re))
    }

    #[test]
    fn figure7_matches_subset_construction() {
        // 0x1x | 0xx1x written over a common 5-bit window.
        let patterns = vec![
            vec![None, Some(false), None, Some(true), None],
            vec![Some(false), None, None, Some(true), None],
        ];
        let direct = Dfa::from_window_patterns(5, &patterns);
        assert_eq!(direct.num_states(), 63);
        let subset = subset_machine(&patterns);
        assert_eq!(direct.minimized(), subset.minimized());
        assert_eq!(
            direct.minimized().steady_state_reduced(),
            subset.minimized().steady_state_reduced()
        );
    }

    #[test]
    fn short_strings_are_rejected() {
        // The universal pattern still needs a full window.
        let dfa = Dfa::from_window_patterns(3, &[vec![None; 3]]);
        assert!(!dfa.accepts([true, true]));
        assert!(dfa.accepts([false, false, false]));
    }

    #[test]
    fn no_patterns_accept_nothing() {
        let dfa = Dfa::from_window_patterns(2, &[]);
        assert!(dfa.outputs().iter().all(|&a| !a));
        assert_eq!(dfa.minimized().num_states(), 1);
    }

    #[test]
    fn state_budget_is_checked_before_building() {
        let budget = AutomataBudget {
            max_dfa_states: Some(14),
            ..AutomataBudget::default()
        };
        assert_eq!(
            Dfa::from_window_patterns_checked(3, &[vec![Some(true), None, None]], &budget),
            Err(AutomataError::DfaStates {
                generated: 15,
                limit: 14
            })
        );
        let budget = AutomataBudget {
            max_dfa_states: Some(15),
            ..AutomataBudget::default()
        };
        assert!(
            Dfa::from_window_patterns_checked(3, &[vec![Some(true), None, None]], &budget).is_ok()
        );
    }

    #[test]
    fn expired_deadline_aborts() {
        use std::time::{Duration, Instant};
        let budget = AutomataBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..AutomataBudget::default()
        };
        assert!(matches!(
            Dfa::from_window_patterns_checked(2, &[vec![Some(true), None]], &budget),
            Err(AutomataError::DeadlineExpired { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn mismatched_pattern_width_panics() {
        let _ = Dfa::from_window_patterns(3, &[vec![Some(true)]]);
    }
}
