//! Property-based tests for the logic minimizers: on randomly generated
//! incompletely specified functions, both engines must produce correct
//! covers, and minimized covers must never cost more than the trivial
//! one-cube-per-minterm cover.

use fsmgen_logicmin::{
    minimize,
    qm::{prime_implicants, prime_implicants_merged_checked},
    verify_cover, Algorithm, Cover, Cube, FunctionSpec, MinimizeBudget,
};
use proptest::prelude::*;

/// Strategy: a width and a per-minterm classification (0=off, 1=on, 2=dc).
fn spec_strategy() -> impl Strategy<Value = FunctionSpec> {
    (2usize..=7).prop_flat_map(|width| {
        proptest::collection::vec(0u8..3, 1 << width).prop_map(move |kinds| {
            let on = kinds
                .iter()
                .enumerate()
                .filter_map(|(m, &k)| (k == 1).then_some(m as u32));
            let off = kinds
                .iter()
                .enumerate()
                .filter_map(|(m, &k)| (k == 0).then_some(m as u32));
            FunctionSpec::from_sets(width, on, off).expect("disjoint by construction")
        })
    })
}

/// Strategy: a width of 1..=10 and a per-minterm classification drawn
/// with one of three don't-care densities (none-ish, a third, most), so
/// both dense Markov-style specs and sparse ones come up.
fn wide_spec_strategy() -> impl Strategy<Value = FunctionSpec> {
    (1usize..=10, 0u8..3).prop_flat_map(|(width, density)| {
        proptest::collection::vec(0u8..8, 1 << width).prop_map(move |draws| {
            // Draws below `dc` are don't-cares; the rest split on parity.
            let dc = [1, 3, 7][usize::from(density)];
            let kind = |d: u8| match d {
                d if d < dc => 2,
                d => d % 2,
            };
            let on = draws
                .iter()
                .enumerate()
                .filter_map(|(m, &d)| (kind(d) == 1).then_some(m as u32));
            let off = draws
                .iter()
                .enumerate()
                .filter_map(|(m, &d)| (kind(d) == 0).then_some(m as u32));
            FunctionSpec::from_sets(width, on, off).expect("disjoint by construction")
        })
    })
}

/// The merge-loop primes of `spec`, the reference for the dense table.
fn merged_primes(spec: &FunctionSpec) -> Vec<Cube> {
    prime_implicants_merged_checked(spec, &MinimizeBudget::unlimited())
        .expect("unlimited budgets never abort")
}

/// A fixed pseudo-random spec: `specified` of every 8 minterms are on or
/// off (by an LCG), the rest don't-cares.
fn lcg_spec(width: usize, specified: u32, seed: u32) -> FunctionSpec {
    let mut state = seed;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for m in 0..1u32 << width {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let draw = state >> 24;
        if draw % 8 < specified {
            if draw & 0x80 != 0 {
                on.push(m);
            } else {
                off.push(m);
            }
        }
    }
    FunctionSpec::from_sets(width, on, off).expect("disjoint by construction")
}

#[test]
fn dense_table_matches_merge_loop_at_widths_11_and_12() {
    for (width, specified, seed) in [(11, 7, 1), (11, 5, 2), (12, 7, 3)] {
        let spec = lcg_spec(width, specified, seed);
        let primes = prime_implicants(&spec);
        assert!(!primes.is_empty());
        assert_eq!(primes, merged_primes(&spec), "width {width} seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense ternary table finds exactly the merge loop's primes, in
    /// the same sorted order.
    #[test]
    fn dense_table_primes_match_merge_loop(spec in wide_spec_strategy()) {
        prop_assert_eq!(prime_implicants(&spec), merged_primes(&spec));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_cover_is_correct(spec in spec_strategy()) {
        let cover = minimize(&spec, Algorithm::Exact);
        prop_assert_eq!(verify_cover(&spec, &cover), Ok(()));
    }

    #[test]
    fn heuristic_cover_is_correct(spec in spec_strategy()) {
        let cover = minimize(&spec, Algorithm::Heuristic);
        prop_assert_eq!(verify_cover(&spec, &cover), Ok(()));
    }

    #[test]
    fn exact_never_beaten_by_trivial_cover(spec in spec_strategy()) {
        let cover = minimize(&spec, Algorithm::Exact);
        prop_assert!(cover.len() <= spec.on_set().len());
    }

    #[test]
    fn heuristic_close_to_exact(spec in spec_strategy()) {
        let exact = minimize(&spec, Algorithm::Exact);
        let heur = minimize(&spec, Algorithm::Heuristic);
        // The heuristic is allowed slack but must stay in the same ballpark.
        prop_assert!(heur.len() <= exact.len().max(1) * 2,
            "heuristic {} vs exact {}", heur.len(), exact.len());
    }

    #[test]
    fn primes_cover_all_on_minterms(spec in spec_strategy()) {
        let primes = prime_implicants(&spec);
        for &m in spec.on_set() {
            prop_assert!(primes.iter().any(|p| p.covers_minterm(m)),
                "on minterm {m:b} not covered by any prime");
        }
        // And no prime touches the off-set.
        for p in &primes {
            for &m in spec.off_set() {
                prop_assert!(!p.covers_minterm(m));
            }
        }
    }

    #[test]
    fn cube_supercube_contains_both(a in 0u32..256, b in 0u32..256) {
        let ca = Cube::from_minterm(a, 8);
        let cb = Cube::from_minterm(b, 8);
        let sup = ca.supercube(&cb);
        prop_assert!(sup.covers_cube(&ca));
        prop_assert!(sup.covers_cube(&cb));
        prop_assert!(sup.covers_minterm(a));
        prop_assert!(sup.covers_minterm(b));
    }

    #[test]
    fn cube_minterms_match_covers(mask in 0u32..64, bits in 0u32..64) {
        let cube = Cube::new(mask & 0x3f, bits);
        let listed: std::collections::BTreeSet<u32> = cube.minterms(6).collect();
        for m in 0..64u32 {
            prop_assert_eq!(listed.contains(&m), cube.covers_minterm(m));
        }
        prop_assert_eq!(listed.len() as u64, cube.minterm_count(6));
    }

    #[test]
    fn cover_covers_cube_agrees_with_minterm_enumeration(
        terms in proptest::collection::vec((0u32..16, 0u32..16), 1..5),
        probe_mask in 0u32..16,
        probe_bits in 0u32..16,
    ) {
        let cover = Cover::from_cubes(
            4,
            terms.into_iter().map(|(m, b)| Cube::new(m & 0xf, b)).collect(),
        );
        let probe = Cube::new(probe_mask & 0xf, probe_bits);
        let expected = probe.minterms(4).all(|m| cover.covers_minterm(m));
        prop_assert_eq!(cover.covers_cube(&probe), expected);
    }
}
