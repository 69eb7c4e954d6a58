//! Property-based tests tying the automata pipeline together: for random
//! regular expressions and random pattern sets, every stage (NFA, DFA,
//! minimized DFA, steady-reduced DFA) must agree on the language, and the
//! predictor semantics must match a brute-force history check.

use fsmgen_automata::{
    compile_patterns, machine_from_table, machine_to_table, Dfa, MoorePredictor, Nfa, Regex,
};
use proptest::prelude::*;

/// Strategy for small random regexes.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::zero()),
        Just(Regex::one()),
        Just(Regex::any_bit()),
        Just(Regex::Epsilon),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Strategy for history pattern sets: up to 3 patterns of length 1..=5.
fn patterns_strategy() -> impl Strategy<Value = Vec<Vec<Option<bool>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
            1..=5,
        ),
        1..=3,
    )
}

fn to_bits(v: u32, len: usize) -> Vec<bool> {
    (0..len).map(|i| v >> i & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_stages_agree(re in regex_strategy()) {
        let nfa = Nfa::from_regex(&re);
        let dfa = Dfa::from_nfa(&nfa);
        let min = dfa.minimized();
        prop_assert!(min.equivalent(&dfa));
        prop_assert!(min.num_states() <= dfa.num_states());
        for len in 0..=6usize {
            for v in 0..(1u32 << len) {
                let input = to_bits(v, len);
                let expect = re.matches(&input);
                prop_assert_eq!(nfa.accepts(&input), expect, "nfa on {:?}", input);
                prop_assert_eq!(dfa.accepts(input.iter().copied()), expect, "dfa on {:?}", input);
                prop_assert_eq!(min.accepts(input.iter().copied()), expect, "min on {:?}", input);
            }
        }
    }

    #[test]
    fn minimization_is_canonical(re in regex_strategy()) {
        let min = Dfa::from_nfa(&Nfa::from_regex(&re)).minimized();
        let min2 = min.minimized();
        prop_assert_eq!(min.num_states(), min2.num_states());
        prop_assert!(min.equivalent(&min2));
    }

    /// True minimality: in the Hopcroft output, every pair of states is
    /// distinguishable by some input string (checked by refining the
    /// output partition to a fixpoint).
    #[test]
    fn minimized_states_pairwise_distinguishable(re in regex_strategy()) {
        let min = Dfa::from_nfa(&Nfa::from_regex(&re)).minimized();
        let n = min.num_states();
        // classes[s] starts as the output bit; refine until stable.
        let mut classes: Vec<usize> = (0..n as u32)
            .map(|s| usize::from(min.output(s)))
            .collect();
        loop {
            let mut signatures: std::collections::BTreeMap<(usize, usize, usize), usize> =
                std::collections::BTreeMap::new();
            let mut next: Vec<usize> = Vec::with_capacity(n);
            for s in 0..n as u32 {
                let sig = (
                    classes[s as usize],
                    classes[min.step(s, false) as usize],
                    classes[min.step(s, true) as usize],
                );
                let id = signatures.len();
                next.push(*signatures.entry(sig).or_insert(id));
            }
            if next == classes {
                break;
            }
            classes = next;
        }
        let distinct: std::collections::BTreeSet<usize> = classes.iter().copied().collect();
        prop_assert_eq!(
            distinct.len(), n,
            "minimized machine has equivalent states: {:?}", classes
        );
    }

    /// Text-table serialization round-trips any machine exactly, and the
    /// boolean machine operations respect set algebra on random pattern
    /// machines.
    #[test]
    fn serialization_and_ops(patterns in patterns_strategy()) {
        let fsm = compile_patterns(&patterns);
        let back = machine_from_table(&machine_to_table(&fsm)).expect("round trip");
        prop_assert_eq!(&back, &fsm);
        // De Morgan: complement of union == intersection of complements.
        let other = compile_patterns(&[patterns[0].clone()]);
        let lhs = fsm.union(&other).complemented().minimized();
        let rhs = fsm
            .complemented()
            .intersection(&other.complemented())
            .minimized();
        prop_assert!(lhs.equivalent(&rhs));
    }

    #[test]
    fn steady_reduction_never_grows(re in regex_strategy()) {
        let min = Dfa::from_nfa(&Nfa::from_regex(&re)).minimized();
        let red = min.steady_state_reduced();
        prop_assert!(red.num_states() <= min.num_states());
    }

    #[test]
    fn predictor_matches_history_semantics(patterns in patterns_strategy()) {
        // compile_patterns builds "ends in one of these patterns"; after the
        // longest pattern length has streamed in, the prediction must equal
        // a direct check of the trailing window from ANY starting state.
        let max_len = patterns.iter().map(Vec::len).max().unwrap_or(0);
        let fsm = compile_patterns(&patterns);
        let mut predictor = MoorePredictor::new(fsm);

        // Deterministic pseudo-random input stream.
        let mut state = 0x9E37_79B9_u32;
        let mut history: Vec<bool> = Vec::new();
        for step in 0..200usize {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let bit = state >> 16 & 1 == 1;
            predictor.update(bit);
            history.push(bit);
            if history.len() >= max_len && step >= max_len {
                let expect = patterns.iter().any(|p| {
                    let tail = &history[history.len() - p.len()..];
                    p.iter().zip(tail).all(|(want, &got)| want.is_none_or(|w| w == got))
                });
                prop_assert_eq!(predictor.predict(), expect,
                    "step {} history tail {:?}", step, &history[history.len().saturating_sub(6)..]);
            }
        }
    }

    #[test]
    fn steady_reduction_preserves_long_behaviour(patterns in patterns_strategy()) {
        let max_len = patterns.iter().map(Vec::len).max().unwrap_or(0);
        let alts: Vec<Regex> = patterns.iter().map(|p| Regex::pattern(p)).collect();
        let lang = Regex::ending_in(alts);
        let min = Dfa::from_nfa(&Nfa::from_regex(&lang)).minimized();
        let red = min.steady_state_reduced();
        for len in max_len..=(max_len + 3) {
            for v in 0..(1u32 << len.min(10)) {
                let input = to_bits(v, len);
                prop_assert_eq!(
                    min.accepts(input.iter().copied()),
                    red.accepts(input.iter().copied()),
                    "input {:?}", input
                );
            }
        }
    }
}

/// Strategy for covers over one window: a width of 1..=10 and 1..=6
/// patterns of exactly that width, as the design flow writes them.
fn window_cover_strategy() -> impl Strategy<Value = (usize, Vec<Vec<Option<bool>>>)> {
    (1usize..=10).prop_flat_map(|width| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
                width,
            ),
            1..=6,
        )
        .prop_map(move |patterns| (width, patterns))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The direct shift-register machine and the Thompson + subset
    /// construction machine minimize to the same table, before and after
    /// steady-state reduction.
    #[test]
    fn direct_machine_matches_subset_construction((width, patterns) in window_cover_strategy()) {
        let direct = Dfa::from_window_patterns(width, &patterns);
        prop_assert_eq!(direct.num_states(), (1usize << (width + 1)) - 1);
        let lang = Regex::ending_in(patterns.iter().map(|p| Regex::pattern(p)).collect());
        let subset = Dfa::from_nfa(&Nfa::from_regex(&lang));
        let (direct_min, subset_min) = (direct.minimized(), subset.minimized());
        prop_assert_eq!(&direct_min, &subset_min, "patterns {:?}", patterns);
        prop_assert_eq!(
            direct_min.steady_state_reduced(),
            subset_min.steady_state_reduced(),
            "patterns {:?}", patterns
        );
    }
}
