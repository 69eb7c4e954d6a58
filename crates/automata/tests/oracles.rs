//! Differential tests of `Dfa::minimized` and `Dfa::steady_state_reduced`
//! against naive reference algorithms over arbitrary DFAs (not only the
//! shift-register machines the designer builds): random tables with
//! unreachable states, machines whose outputs are all equal, and
//! permutation machines whose reachable-set sequence cycles with a period
//! longer than one.

use fsmgen_automata::Dfa;
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Renumbers the states reachable from `start` in BFS order (bit 0 before
/// bit 1), the canonical numbering `Dfa::trimmed` uses.
fn bfs_renumbered(transitions: &[[u32; 2]], accept: &[bool], start: u32) -> Dfa {
    let mut map: BTreeMap<u32, u32> = BTreeMap::from([(start, 0)]);
    let mut order = vec![start];
    let mut queue = VecDeque::from([start]);
    while let Some(s) = queue.pop_front() {
        for t in transitions[s as usize] {
            if let Entry::Vacant(slot) = map.entry(t) {
                slot.insert(order.len() as u32);
                order.push(t);
                queue.push_back(t);
            }
        }
    }
    let trans = order
        .iter()
        .map(|&s| {
            let [t0, t1] = transitions[s as usize];
            [map[&t0], map[&t1]]
        })
        .collect();
    let acc = order.iter().map(|&s| accept[s as usize]).collect();
    Dfa::from_parts(trans, acc, 0)
}

/// Moore's algorithm: refine the output partition by the signature
/// `(block, block∘δ0, block∘δ1)` until the block count stops growing, then
/// build the quotient and BFS-renumber it.
fn moore_minimized(dfa: &Dfa) -> Dfa {
    let dfa = bfs_renumbered(dfa.transitions(), dfa.outputs(), dfa.start());
    let rows = dfa.transitions();
    let mut block: Vec<u32> = dfa.outputs().iter().map(|&a| u32::from(a)).collect();
    let mut count = block.iter().collect::<BTreeSet<_>>().len();
    loop {
        let mut ids: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
        let next: Vec<u32> = rows
            .iter()
            .enumerate()
            .map(|(s, &[t0, t1])| {
                let sig = (block[s], block[t0 as usize], block[t1 as usize]);
                let fresh = ids.len() as u32;
                *ids.entry(sig).or_insert(fresh)
            })
            .collect();
        block = next;
        if ids.len() == count {
            break;
        }
        count = ids.len();
    }
    let mut trans = vec![[0u32; 2]; count];
    let mut acc = vec![false; count];
    for (s, &[t0, t1]) in rows.iter().enumerate() {
        trans[block[s] as usize] = [block[t0 as usize], block[t1 as usize]];
        acc[block[s] as usize] = dfa.outputs()[s];
    }
    bfs_renumbered(&trans, &acc, block[dfa.start() as usize])
}

/// The reachable-set iteration `S₀ = {start}`, `Sₖ₊₁ = δ(Sₖ, {0,1})` on
/// `BTreeSet`s: the core is the union over the cycle, renumbered in
/// ascending state order.
fn reference_steady_state(dfa: &Dfa) -> Dfa {
    let trimmed = dfa.trimmed();
    let mut seen: BTreeMap<BTreeSet<u32>, usize> = BTreeMap::new();
    let mut sequence: Vec<BTreeSet<u32>> = Vec::new();
    let mut current = BTreeSet::from([trimmed.start()]);
    let cycle_start = loop {
        if let Some(&at) = seen.get(&current) {
            break at;
        }
        seen.insert(current.clone(), sequence.len());
        let next = current
            .iter()
            .flat_map(|&s| [trimmed.step(s, false), trimmed.step(s, true)])
            .collect();
        sequence.push(std::mem::replace(&mut current, next));
    };
    let core: Vec<u32> = sequence[cycle_start..]
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let index = |s: u32| core.binary_search(&s).expect("core is closed") as u32;
    let trans = core
        .iter()
        .map(|&s| [index(trimmed.step(s, false)), index(trimmed.step(s, true))])
        .collect();
    let acc = core.iter().map(|&s| trimmed.output(s)).collect();
    Dfa::from_parts(trans, acc, 0)
}

/// Arbitrary DFAs of 1–300 states: random rows and start, and outputs
/// that are either random or all equal.
fn arbitrary_dfa() -> impl Strategy<Value = Dfa> {
    (1usize..=300)
        .prop_flat_map(|n| {
            let outputs = prop_oneof![
                proptest::collection::vec(any::<bool>(), n),
                any::<bool>().prop_map(move |b| vec![b; n]),
            ];
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), n),
                outputs,
                0..n as u32,
            )
        })
        .prop_map(|(rows, outputs, start)| {
            let rows = rows.into_iter().map(|(t0, t1)| [t0, t1]).collect();
            Dfa::from_parts(rows, outputs, start)
        })
}

/// Machines whose bits act as permutations, so every state lies on a cycle
/// and the reachable-set sequence is periodic from the start, often with a
/// period longer than one. Bit 1 is either a second random permutation or
/// the same one (a pure rotation of singletons).
fn permutation_dfa() -> impl Strategy<Value = Dfa> {
    (1usize..=64)
        .prop_flat_map(|n| {
            // A permutation: the states sorted by random keys.
            let perm = move || {
                proptest::collection::vec(any::<u64>(), n).prop_map(|keys| {
                    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
                    perm.sort_by_key(|&s| keys[s as usize]);
                    perm
                })
            };
            (
                perm(),
                prop_oneof![perm().prop_map(Some), Just(None)],
                proptest::collection::vec(any::<bool>(), n),
                0..n as u32,
            )
        })
        .prop_map(|(p0, p1, outputs, start)| {
            let p1 = p1.unwrap_or_else(|| p0.clone());
            let rows = p0.iter().zip(&p1).map(|(&a, &b)| [a, b]).collect();
            Dfa::from_parts(rows, outputs, start)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hopcroft_matches_moore_refinement(dfa in prop_oneof![arbitrary_dfa(), permutation_dfa()]) {
        let min = dfa.minimized();
        prop_assert_eq!(&min, &moore_minimized(&dfa));
        prop_assert_eq!(&min.minimized(), &min);
        prop_assert!(min.equivalent(&dfa));
    }

    #[test]
    fn steady_state_matches_reference_iteration(
        dfa in prop_oneof![arbitrary_dfa(), permutation_dfa()],
    ) {
        prop_assert_eq!(dfa.steady_state_reduced(), reference_steady_state(&dfa));
        let min = dfa.minimized();
        prop_assert_eq!(min.steady_state_reduced(), reference_steady_state(&min));
    }
}

#[test]
fn rotation_has_a_long_reachable_set_cycle() {
    // Both bits rotate 0 → 1 → … → 6 → 0, so Sₖ = {k mod 7}: the sequence
    // cycles with period 7 and the core is every state.
    let rows = (0..7u32).map(|s| [(s + 1) % 7, (s + 1) % 7]).collect();
    let outputs = (0..7).map(|s| s % 3 == 0).collect();
    let dfa = Dfa::from_parts(rows, outputs, 4);
    let reduced = dfa.steady_state_reduced();
    assert_eq!(reduced.num_states(), 7);
    assert_eq!(reduced, reference_steady_state(&dfa));
}
