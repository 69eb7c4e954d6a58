//! Deterministic finite automata over the binary alphabet: subset
//! construction, Hopcroft minimization and start-state (steady-state)
//! reduction (§4.6–4.7 of the paper).

use crate::budget::{AutomataBudget, AutomataError};
use crate::nfa::Nfa;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A complete deterministic finite automaton over the binary alphabet.
///
/// Every state has exactly one successor per input bit, so the automaton
/// doubles as a Moore machine: the per-state output is its accepting flag,
/// which for predictor languages means "the input consumed so far ends in a
/// predict-1 pattern".
///
/// # Examples
///
/// ```
/// use fsmgen_automata::{Dfa, Nfa, Regex};
///
/// // The paper's §4.5 language: anything ending in 1x or x1.
/// let re = Regex::ending_in(vec![
///     Regex::pattern(&[Some(true), None]),
///     Regex::pattern(&[None, Some(true)]),
/// ]);
/// let dfa = Dfa::from_nfa(&Nfa::from_regex(&re)).minimized();
/// assert!(dfa.accepts([true, false]));  // "10"
/// assert!(!dfa.accepts([false, false])); // "00"
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    /// `transitions[s][b]` = successor of state `s` on input bit `b`.
    transitions: Vec<[u32; 2]>,
    /// Per-state accepting flag (the Moore output).
    accept: Vec<bool>,
    start: u32,
}

impl Dfa {
    /// Builds a DFA directly from parts.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, `accept` has a different length, the
    /// start state is out of range, or any transition targets a missing
    /// state.
    #[must_use]
    pub fn from_parts(transitions: Vec<[u32; 2]>, accept: Vec<bool>, start: u32) -> Self {
        assert!(!transitions.is_empty(), "a DFA needs at least one state");
        assert_eq!(
            transitions.len(),
            accept.len(),
            "accept flags must match state count"
        );
        let n = transitions.len() as u32;
        assert!(start < n, "start state {start} out of range");
        for (s, t) in transitions.iter().enumerate() {
            assert!(
                t[0] < n && t[1] < n,
                "state {s} has a transition out of range"
            );
        }
        Dfa {
            transitions,
            accept,
            start,
        }
    }

    /// Subset construction (§4.6): converts an NFA into an equivalent
    /// complete DFA. A non-accepting sink state is added if some subset has
    /// no successors.
    #[must_use]
    pub fn from_nfa(nfa: &Nfa) -> Self {
        match Dfa::from_nfa_checked(nfa, &AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::from_nfa`] under an [`AutomataBudget`]: subset construction
    /// aborts as soon as it materializes more than `max_dfa_states` subsets
    /// or the deadline passes. This is the exponential step of the
    /// pipeline, so the limit is enforced incrementally — the work done
    /// before a violation is proportional to the limit.
    ///
    /// # Errors
    ///
    /// Returns an [`AutomataError`] naming the violated limit.
    pub fn from_nfa_checked(nfa: &Nfa, budget: &AutomataBudget) -> Result<Self, AutomataError> {
        let start_set = nfa.epsilon_closure(&BTreeSet::from([nfa.start()]));
        let mut index: BTreeMap<BTreeSet<u32>, u32> = BTreeMap::new();
        let mut order: Vec<BTreeSet<u32>> = Vec::new();
        let mut queue: VecDeque<BTreeSet<u32>> = VecDeque::new();

        index.insert(start_set.clone(), 0);
        order.push(start_set.clone());
        queue.push_back(start_set);

        let mut transitions: Vec<[u32; 2]> = Vec::new();
        while let Some(set) = queue.pop_front() {
            budget.check_deadline("subset construction")?;
            let mut row = [0u32; 2];
            for bit in [false, true] {
                let next = nfa.epsilon_closure(&nfa.step(&set, bit));
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = order.len() as u32;
                        if let Some(limit) = budget.max_dfa_states {
                            if order.len() + 1 > limit {
                                return Err(AutomataError::DfaStates {
                                    generated: order.len() + 1,
                                    limit,
                                });
                            }
                        }
                        index.insert(next.clone(), id);
                        order.push(next.clone());
                        queue.push_back(next);
                        id
                    }
                };
                row[usize::from(bit)] = id;
            }
            transitions.push(row);
        }
        let accept: Vec<bool> = order.iter().map(|s| s.contains(&nfa.accept())).collect();
        fsmgen_obs::counter("dfa", "subset_states", transitions.len() as u64);
        Ok(Dfa {
            transitions,
            accept,
            start: 0,
        })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Successor of `state` on input `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn step(&self, state: u32, bit: bool) -> u32 {
        self.transitions[state as usize][usize::from(bit)]
    }

    /// The Moore output (accepting flag) of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn output(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// The raw transition table (`[on-0, on-1]` per state).
    #[must_use]
    pub fn transitions(&self) -> &[[u32; 2]] {
        &self.transitions
    }

    /// The raw per-state outputs.
    #[must_use]
    pub fn outputs(&self) -> &[bool] {
        &self.accept
    }

    /// Runs the DFA over `input` from the start state and reports whether
    /// the final state accepts.
    #[must_use]
    pub fn accepts<I: IntoIterator<Item = bool>>(&self, input: I) -> bool {
        let mut s = self.start;
        for b in input {
            s = self.step(s, b);
        }
        self.accept[s as usize]
    }

    /// Removes states unreachable from the start state, renumbering in BFS
    /// order (so results are canonical for equal automata).
    // expect() is fine here: the BFS maps every successor of a visited
    // state when it is discovered, so by construction the lookups below
    // only ever see mapped states.
    #[allow(clippy::expect_used)]
    #[must_use]
    pub fn trimmed(&self) -> Dfa {
        let mut map: Vec<Option<u32>> = vec![None; self.num_states()];
        let mut order: Vec<u32> = Vec::new();
        let mut queue = VecDeque::from([self.start]);
        map[self.start as usize] = Some(0);
        order.push(self.start);
        while let Some(s) = queue.pop_front() {
            for bit in [false, true] {
                let t = self.step(s, bit);
                if map[t as usize].is_none() {
                    map[t as usize] = Some(order.len() as u32);
                    order.push(t);
                    queue.push_back(t);
                }
            }
        }
        let transitions: Vec<[u32; 2]> = order
            .iter()
            .map(|&s| {
                [
                    map[self.step(s, false) as usize].expect("reachable"),
                    map[self.step(s, true) as usize].expect("reachable"),
                ]
            })
            .collect();
        let accept: Vec<bool> = order.iter().map(|&s| self.accept[s as usize]).collect();
        Dfa {
            transitions,
            accept,
            start: 0,
        }
    }

    /// Hopcroft's partition-refinement minimization (§4.6): removes
    /// unreachable states and merges indistinguishable ones. The result is
    /// the canonical minimal DFA for the language.
    #[must_use]
    pub fn minimized(&self) -> Dfa {
        match self.minimized_checked(&AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::minimized`] under an [`AutomataBudget`]. Hopcroft refinement
    /// is polynomial, so only the deadline applies; it is polled once per
    /// splitter taken off the worklist.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DeadlineExpired`] when the deadline passes
    /// mid-refinement.
    pub fn minimized_checked(&self, budget: &AutomataBudget) -> Result<Dfa, AutomataError> {
        let trimmed = self.trimmed();
        let n = trimmed.num_states();

        // Predecessor lists per bit in CSR form: the states with a
        // `bit`-transition into `s` are
        // `preds[bit][pred_at[bit][s]..pred_at[bit][s + 1]]`.
        let mut pred_at: [Vec<u32>; 2] = [vec![0; n + 1], vec![0; n + 1]];
        for row in &trimmed.transitions {
            for bit in 0..2 {
                pred_at[bit][row[bit] as usize + 1] += 1;
            }
        }
        for at in &mut pred_at {
            for s in 0..n {
                at[s + 1] += at[s];
            }
        }
        let mut preds: [Vec<u32>; 2] = [vec![0; n], vec![0; n]];
        let mut fill: [Vec<u32>; 2] = [pred_at[0][..n].to_vec(), pred_at[1][..n].to_vec()];
        for (s, row) in trimmed.transitions.iter().enumerate() {
            for bit in 0..2 {
                let slot = &mut fill[bit][row[bit] as usize];
                preds[bit][*slot as usize] = s as u32;
                *slot += 1;
            }
        }

        // The partition: `elems` is a permutation of the states grouped by
        // block, block `b` occupying `elems[first[b]..end[b]]`; `loc[s]` is
        // the position of `s` in `elems`. While a splitter is processed,
        // the marked states of block `b` are moved to the front of its
        // range, `elems[first[b]..first[b] + marked[b]]`. The initial
        // partition puts the non-accepting states before the accepting ones.
        let mut elems: Vec<u32> = (0..n as u32)
            .filter(|&s| !trimmed.accept[s as usize])
            .collect();
        let rejecting = elems.len() as u32;
        elems.extend((0..n as u32).filter(|&s| trimmed.accept[s as usize]));
        let mut loc: Vec<u32> = vec![0; n];
        for (i, &s) in elems.iter().enumerate() {
            loc[s as usize] = i as u32;
        }
        let (mut first, mut end, mut block_of): (Vec<u32>, Vec<u32>, Vec<u32>) =
            if rejecting == 0 || rejecting == n as u32 {
                (vec![0], vec![n as u32], vec![0; n])
            } else {
                let block_of = trimmed.accept.iter().map(|&a| u32::from(a)).collect();
                (vec![0, rejecting], vec![rejecting, n as u32], block_of)
            };
        let mut marked: Vec<u32> = vec![0; first.len()];

        // With two initial blocks, refining against the smaller one on both
        // bits suffices (classic Hopcroft). A single block splits nothing.
        let mut worklist: Vec<(u32, usize)> = Vec::new();
        if first.len() == 2 {
            let smaller = u32::from(end[1] - first[1] < end[0] - first[0]);
            worklist.extend([(smaller, 0), (smaller, 1)]);
        }

        let mut splitter_states: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        while let Some((splitter, bit)) = worklist.pop() {
            budget.check_deadline("hopcroft refinement")?;
            // Mark every state with a `bit`-transition into the splitter.
            // The splitter's members are copied out first, since marking
            // reorders the range of any block it touches.
            splitter_states.clear();
            splitter_states.extend_from_slice(
                &elems[first[splitter as usize] as usize..end[splitter as usize] as usize],
            );
            for &s in &splitter_states {
                let (lo, hi) = (pred_at[bit][s as usize], pred_at[bit][s as usize + 1]);
                for &p in &preds[bit][lo as usize..hi as usize] {
                    let b = block_of[p as usize] as usize;
                    let boundary = first[b] + marked[b];
                    let at = loc[p as usize];
                    if at < boundary {
                        continue; // already marked
                    }
                    if marked[b] == 0 {
                        touched.push(b as u32);
                    }
                    let other = elems[boundary as usize];
                    elems.swap(at as usize, boundary as usize);
                    loc[other as usize] = at;
                    loc[p as usize] = boundary;
                    marked[b] += 1;
                }
            }
            // Split every block the marking crossed. The smaller half gets
            // the new id and is queued on both bits: if the old block was
            // pending it still is (and now names the larger half), and if
            // it was not, the smaller half is the one Hopcroft adds.
            for b in touched.drain(..) {
                let b = b as usize;
                let (lo, hi, m) = (first[b], end[b], marked[b]);
                marked[b] = 0;
                if m == hi - lo {
                    continue;
                }
                let new_id = first.len() as u32;
                let (new_lo, new_hi) = if m <= hi - lo - m {
                    first[b] = lo + m;
                    (lo, lo + m)
                } else {
                    end[b] = lo + m;
                    (lo + m, hi)
                };
                for &s in &elems[new_lo as usize..new_hi as usize] {
                    block_of[s as usize] = new_id;
                }
                first.push(new_lo);
                end.push(new_hi);
                marked.push(0);
                worklist.extend([(new_id, 0), (new_id, 1)]);
            }
        }

        // Build the quotient automaton, renumbered in BFS order from the
        // start block for canonical output.
        let quotient_start = block_of[trimmed.start as usize];
        let (q_trans, q_accept): (Vec<[u32; 2]>, Vec<bool>) = first
            .iter()
            .map(|&at| {
                let rep = elems[at as usize];
                (
                    [
                        block_of[trimmed.step(rep, false) as usize],
                        block_of[trimmed.step(rep, true) as usize],
                    ],
                    trimmed.accept[rep as usize],
                )
            })
            .unzip();
        let minimized = Dfa {
            transitions: q_trans,
            accept: q_accept,
            start: quotient_start,
        }
        .trimmed();
        fsmgen_obs::counter(
            "hopcroft",
            "minimized_states",
            minimized.num_states() as u64,
        );
        Ok(minimized)
    }

    /// Start-state reduction (§4.7): removes *start-up states* — states only
    /// visited while the history register is still filling — keeping just
    /// the steady-state core. "There can be up to 2^N start-up states, and
    /// they typically account for around one half of all states."
    ///
    /// The steady-state core is the set of states still visited at
    /// arbitrarily late times. It is computed by iterating the one-step
    /// image of the reachable-set sequence `S₀ = {start}`,
    /// `Sₖ₊₁ = δ(Sₖ, {0,1})` until the (eventually periodic) sequence
    /// cycles, and taking the union over the cycle. The new start state is
    /// the lowest-numbered state in the core.
    ///
    /// As the paper notes, this changes behaviour only on a bounded number
    /// of short strings; every string long enough to fill the history is
    /// classified identically (asserted by tests and the property suite).
    #[must_use]
    pub fn steady_state_reduced(&self) -> Dfa {
        match self.steady_state_reduced_checked(&AutomataBudget::unlimited()) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("unlimited budgets never abort"),
        }
    }

    /// [`Dfa::steady_state_reduced`] under an [`AutomataBudget`]: the
    /// reachable-subset sequence is eventually periodic but its transient
    /// plus cycle can in principle be exponential in the state count, so
    /// its length is capped by `max_dfa_states` and the deadline is polled
    /// each step.
    ///
    /// # Errors
    ///
    /// Returns an [`AutomataError`] naming the violated limit.
    pub fn steady_state_reduced_checked(
        &self,
        budget: &AutomataBudget,
    ) -> Result<Dfa, AutomataError> {
        let trimmed = self.trimmed();
        // Each reachable set Sₖ is a bitset over the trimmed states.
        let words = trimmed.num_states().div_ceil(64);
        // `seen` maps each set of the sequence to its step.
        let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut current: Vec<u64> = vec![0; words];
        current[trimmed.start as usize / 64] |= 1 << (trimmed.start % 64);
        let cycle_start = loop {
            if let Some(&at) = seen.get(&current) {
                break at;
            }
            budget.check_deadline("steady-state iteration")?;
            if let Some(limit) = budget.max_dfa_states {
                if seen.len() + 1 > limit {
                    return Err(AutomataError::DfaStates {
                        generated: seen.len() + 1,
                        limit,
                    });
                }
            }
            let mut next = vec![0u64; words];
            for s in bit_members(&current) {
                for t in trimmed.transitions[s as usize] {
                    next[t as usize / 64] |= 1 << (t % 64);
                }
            }
            let step = seen.len();
            seen.insert(std::mem::replace(&mut current, next), step);
        };
        let mut core: Vec<u64> = vec![0; words];
        for (set, _) in seen.iter().filter(|&(_, &at)| at >= cycle_start) {
            for (c, w) in core.iter_mut().zip(set) {
                *c |= w;
            }
        }
        debug_assert!(core.iter().any(|&w| w != 0));

        // Renumber: keep only core states, start at the lowest-numbered one.
        let order: Vec<u32> = bit_members(&core).collect();
        let mut map: Vec<u32> = vec![0; trimmed.num_states()];
        for (i, &s) in order.iter().enumerate() {
            map[s as usize] = i as u32;
        }
        let transitions: Vec<[u32; 2]> = order
            .iter()
            .map(|&s| {
                let [t0, t1] = trimmed.transitions[s as usize];
                [map[t0 as usize], map[t1 as usize]]
            })
            .collect();
        let accept: Vec<bool> = order.iter().map(|&s| trimmed.accept[s as usize]).collect();
        fsmgen_obs::counter("reduce", "steady_states", transitions.len() as u64);
        Ok(Dfa {
            transitions,
            accept,
            start: 0,
        })
    }

    /// `true` when the two DFAs accept the same language, decided by BFS
    /// over the product automaton.
    #[must_use]
    pub fn equivalent(&self, other: &Dfa) -> bool {
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut queue = VecDeque::from([(self.start, other.start)]);
        seen.insert((self.start, other.start));
        while let Some((a, b)) = queue.pop_front() {
            if self.accept[a as usize] != other.accept[b as usize] {
                return false;
            }
            for bit in [false, true] {
                let pair = (self.step(a, bit), other.step(b, bit));
                if seen.insert(pair) {
                    queue.push_back(pair);
                }
            }
        }
        true
    }

    /// Graphviz DOT rendering in the style of the paper's figures: each
    /// state is labelled `sN [output]`, edges are labelled with the input
    /// bit, and the start state is marked with an `init` arrow.
    #[must_use]
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  init [shape=none, label=\"init\"];");
        let _ = writeln!(out, "  init -> s{};", self.start);
        for (s, &acc) in self.accept.iter().enumerate() {
            let _ = writeln!(
                out,
                "  s{s} [shape=circle, label=\"s{s}\\n[{}]\"];",
                u8::from(acc)
            );
        }
        for (s, row) in self.transitions.iter().enumerate() {
            if row[0] == row[1] {
                let _ = writeln!(out, "  s{s} -> s{} [label=\"-\"];", row[0]);
            } else {
                let _ = writeln!(out, "  s{s} -> s{} [label=\"0\"];", row[0]);
                let _ = writeln!(out, "  s{s} -> s{} [label=\"1\"];", row[1]);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The members of a bitset held as 64-bit words, in ascending order.
fn bit_members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                (i * 64) as u32 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn dfa_for(re: &Regex) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(re))
    }

    #[test]
    fn subset_construction_matches_nfa() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(true), None]),
            Regex::pattern(&[None, Some(true)]),
        ]);
        let nfa = Nfa::from_regex(&re);
        let dfa = Dfa::from_nfa(&nfa);
        for len in 0..=10usize {
            for v in 0..(1u32 << len.min(16)) {
                let input: Vec<bool> = (0..len).map(|i| v >> i & 1 == 1).collect();
                assert_eq!(dfa.accepts(input.iter().copied()), nfa.accepts(&input));
            }
        }
    }

    #[test]
    fn minimization_preserves_language_and_shrinks() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(false), None, Some(true), None]),
            Regex::pattern(&[Some(false), None, None, Some(true), None]),
        ]);
        let dfa = dfa_for(&re);
        let min = dfa.minimized();
        assert!(min.num_states() <= dfa.num_states());
        assert!(min.equivalent(&dfa));
        // Minimizing twice is idempotent in size.
        assert_eq!(min.minimized().num_states(), min.num_states());
    }

    #[test]
    fn paper_figure1_state_counts() {
        // The §4.2 trace t yields predict-1 histories {01, 10, 11} at N=2.
        // Figure 1: the minimized machine has 5 states including start-up
        // states; removing them leaves 3 states.
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(true), None]),
            Regex::pattern(&[None, Some(true)]),
        ]);
        let min = dfa_for(&re).minimized();
        assert_eq!(min.num_states(), 5, "with start-up states");
        let reduced = min.steady_state_reduced();
        assert_eq!(reduced.num_states(), 3, "after start state removal");
    }

    #[test]
    fn steady_state_reduction_preserves_long_string_behaviour() {
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(true), None]),
            Regex::pattern(&[None, Some(true)]),
        ]);
        let min = dfa_for(&re).minimized();
        let reduced = min.steady_state_reduced();
        // For every string of length >= N (2 here), classification agrees.
        for len in 2..=10usize {
            for v in 0..(1u32 << len) {
                let input: Vec<bool> = (0..len).map(|i| v >> i & 1 == 1).collect();
                assert_eq!(
                    min.accepts(input.iter().copied()),
                    reduced.accepts(input.iter().copied()),
                    "input {input:?}"
                );
            }
        }
    }

    #[test]
    fn figure6_pattern_from_any_state() {
        // Figure 6: the ijpeg FSM capturing "1x" — from ANY state, applying
        // 1 then anything lands on an output-1 state; 0 then anything lands
        // on output-0.
        let re = Regex::ending_in(vec![Regex::pattern(&[Some(true), None])]);
        let fsm = dfa_for(&re).minimized().steady_state_reduced();
        assert_eq!(fsm.num_states(), 4, "paper shows a 4-state machine");
        for s in 0..fsm.num_states() as u32 {
            for second in [false, true] {
                let end1 = fsm.step(fsm.step(s, true), second);
                assert!(fsm.output(end1), "1x must predict 1 from state {s}");
                let end0 = fsm.step(fsm.step(s, false), second);
                assert!(!fsm.output(end0), "0x must predict 0 from state {s}");
            }
        }
    }

    #[test]
    fn figure7_pattern_from_any_state() {
        // Figure 7: the gs FSM capturing 0x1x | 0xx1x (11 states in the
        // paper). From any state, traversing a matching pattern ends on 1.
        let re = Regex::ending_in(vec![
            Regex::pattern(&[Some(false), None, Some(true), None]),
            Regex::pattern(&[Some(false), None, None, Some(true), None]),
        ]);
        let fsm = dfa_for(&re).minimized().steady_state_reduced();
        assert_eq!(fsm.num_states(), 11, "paper shows an 11-state machine");
        // Check the 4-bit pattern property from every state.
        for s in 0..fsm.num_states() as u32 {
            for v in 0..16u32 {
                let walk = [v & 8 != 0, v & 4 != 0, v & 2 != 0, v & 1 != 0];
                let mut cur = s;
                for b in walk {
                    cur = fsm.step(cur, b);
                }
                let matches_0x1x = !walk[0] && walk[2];
                if matches_0x1x {
                    assert!(fsm.output(cur), "0x1x from state {s} must predict 1");
                }
            }
        }
    }

    #[test]
    fn trimmed_removes_unreachable() {
        let dfa = Dfa::from_parts(
            vec![[0, 1], [1, 0], [2, 2]], // state 2 unreachable
            vec![false, true, true],
            0,
        );
        let t = dfa.trimmed();
        assert_eq!(t.num_states(), 2);
        assert!(t.equivalent(&dfa));
    }

    #[test]
    fn equivalence_detects_difference() {
        let a = dfa_for(&Regex::ending_in(vec![Regex::pattern(&[Some(true)])]));
        let b = dfa_for(&Regex::ending_in(vec![Regex::pattern(&[Some(false)])]));
        assert!(!a.equivalent(&b));
        assert!(a.equivalent(&a));
    }

    #[test]
    fn dot_output_contains_all_states() {
        let re = Regex::ending_in(vec![Regex::pattern(&[Some(true), None])]);
        let fsm = dfa_for(&re).minimized().steady_state_reduced();
        let dot = fsm.to_dot("fig6");
        assert!(dot.starts_with("digraph fig6 {"));
        for s in 0..fsm.num_states() {
            assert!(dot.contains(&format!("s{s} [shape=circle")));
        }
    }

    #[test]
    fn steady_state_sequence_length_is_budgeted() {
        // Both bits rotate 0 → 1 → … → 6 → 0, so the reachable-set sequence
        // {0}, {1}, …, {6} has 7 distinct sets before it repeats.
        let rows = (0..7u32).map(|s| [(s + 1) % 7, (s + 1) % 7]).collect();
        let dfa = Dfa::from_parts(rows, vec![false; 7], 0);
        let budget = |limit| AutomataBudget {
            max_dfa_states: Some(limit),
            ..AutomataBudget::unlimited()
        };
        for limit in [1, 3, 6] {
            assert_eq!(
                dfa.steady_state_reduced_checked(&budget(limit)),
                Err(AutomataError::DfaStates {
                    generated: limit + 1,
                    limit
                })
            );
        }
        let reduced = dfa.steady_state_reduced_checked(&budget(7)).unwrap();
        assert_eq!(reduced.num_states(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn from_parts_rejects_empty() {
        let _ = Dfa::from_parts(vec![], vec![], 0);
    }

    #[test]
    fn sud_counter_as_dfa_roundtrip() {
        // A 2-bit saturating counter expressed as a DFA: states 0..=3,
        // predict taken when >= 2.
        let trans: Vec<[u32; 2]> = (0u32..4)
            .map(|s| [s.saturating_sub(1), (s + 1).min(3)])
            .collect();
        let accept = vec![false, false, true, true];
        let dfa = Dfa::from_parts(trans, accept, 0);
        // The 2-bit counter is already minimal and steady.
        assert_eq!(dfa.minimized().num_states(), 4);
        assert_eq!(dfa.steady_state_reduced().num_states(), 4);
    }
}
