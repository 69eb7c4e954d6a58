//! Nth-order Markov models of binary behaviour (§4.2 of the paper).
//!
//! "An Nth order Markov Model is a table of size 2^N which contains
//! P[1 | last N inputs] for each of the possible 2^N last N inputs in the
//! trace." The table is stored sparsely: "since the number of global
//! histories that a given branch might see ... is small compared to the 2^N
//! possible histories, the Markov Models can be compressed down
//! significantly by only storing non-zero entries" (§7.3).

use fsmgen_traces::BitTrace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Maximum history order, matching the paper's observation that nothing
/// beyond N = 10 was needed (we allow some headroom).
pub const MAX_ORDER: usize = 16;

/// Occurrence counts for one history pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryCounts {
    /// Times the history was followed by a 0.
    pub zeros: u64,
    /// Times the history was followed by a 1.
    pub ones: u64,
}

impl HistoryCounts {
    /// Total observations of the history.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.zeros + self.ones
    }

    /// Empirical `P[1 | history]`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the history was never observed; callers
    /// iterate observed histories only.
    #[must_use]
    pub fn prob_one(&self) -> f64 {
        debug_assert!(self.total() > 0);
        self.ones as f64 / self.total() as f64
    }
}

/// A sparse Nth-order Markov model over a binary alphabet.
///
/// # Examples
///
/// Reproducing the §4.2 table for the paper's example trace:
///
/// ```
/// use fsmgen::MarkovModel;
/// use fsmgen_traces::BitTrace;
///
/// let t: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
/// let model = MarkovModel::from_bit_trace(2, &t)?;
/// assert_eq!(model.prob_one(0b00), Some(2.0 / 5.0)); // P[1|00] = 2/5
/// assert_eq!(model.prob_one(0b01), Some(3.0 / 5.0)); // P[1|01] = 3/5
/// assert_eq!(model.prob_one(0b10), Some(3.0 / 4.0)); // P[1|10] = 3/4
/// # Ok::<(), fsmgen::DesignError>(())
/// ```
///
/// Histories are packed with the most recent outcome in bit 0 and the
/// oldest in bit `order-1`, so a pattern written oldest-bit-first (as the
/// paper does) reads off directly as a binary number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkovModel {
    order: usize,
    table: BTreeMap<u32, HistoryCounts>,
}

impl MarkovModel {
    /// Creates an empty model of the given order (history length).
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or exceeds [`MAX_ORDER`].
    #[must_use]
    pub fn new(order: usize) -> Self {
        assert!(
            order > 0 && order <= MAX_ORDER,
            "Markov order must be in 1..={MAX_ORDER}, got {order}"
        );
        MarkovModel {
            order,
            table: BTreeMap::new(),
        }
    }

    /// Builds a model by sliding an `order`-bit history window over a
    /// trace. Only positions where the full history is defined contribute,
    /// matching the paper's handling of start-up bits.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::TraceTooShort`] if the trace cannot fill the
    /// history even once.
    ///
    /// [`DesignError::TraceTooShort`]: crate::DesignError::TraceTooShort
    pub fn from_bit_trace(order: usize, trace: &BitTrace) -> Result<Self, crate::DesignError> {
        if trace.len() <= order {
            return Err(crate::DesignError::TraceTooShort {
                len: trace.len(),
                order,
            });
        }
        let mut model = MarkovModel::new(order);
        // Count into a dense 2^order table (1 MiB at MAX_ORDER), then move
        // the observed rows into the sparse table in ascending order, which
        // `BTreeMap` bulk-builds in linear time.
        let mask = (1u32 << order) - 1;
        let mut dense: Vec<[u64; 2]> = vec![[0; 2]; 1 << order];
        let mut bits = trace.iter();
        let mut history = bits
            .by_ref()
            .take(order)
            .fold(0u32, |h, bit| h << 1 | u32::from(bit));
        for bit in bits {
            dense[history as usize][usize::from(bit)] += 1;
            history = (history << 1 | u32::from(bit)) & mask;
        }
        model.table = dense
            .iter()
            .enumerate()
            .filter(|(_, &[zeros, ones])| zeros + ones > 0)
            .map(|(h, &[zeros, ones])| (h as u32, HistoryCounts { zeros, ones }))
            .collect();
        Ok(model)
    }

    /// Rebuilds a model from bulk `(history, counts)` pairs — the
    /// deserialization path (e.g. the farm's persistent cache snapshots).
    /// Unlike repeated [`MarkovModel::observe`] calls this is O(entries),
    /// not O(observations), and it never panics: invalid input is a typed
    /// error so callers decoding untrusted bytes can reject it.
    ///
    /// # Errors
    ///
    /// Returns a message when `order` is outside `1..=MAX_ORDER`, a
    /// history does not fit in `order` bits, a history repeats, or an
    /// entry has zero observations.
    pub fn from_counts(
        order: usize,
        counts: impl IntoIterator<Item = (u32, HistoryCounts)>,
    ) -> Result<Self, String> {
        if order == 0 || order > MAX_ORDER {
            return Err(format!(
                "Markov order must be in 1..={MAX_ORDER}, got {order}"
            ));
        }
        let mut table = BTreeMap::new();
        for (history, c) in counts {
            if order < 32 && history >= (1u32 << order) {
                return Err(format!("history {history:#b} wider than order {order}"));
            }
            if c.total() == 0 {
                return Err(format!("history {history:#b} has zero observations"));
            }
            if table.insert(history, c).is_some() {
                return Err(format!("duplicate history {history:#b}"));
            }
        }
        Ok(MarkovModel { order, table })
    }

    /// Records one observation: `history` (most recent outcome in bit 0)
    /// was followed by `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if `history` does not fit in the model's order.
    pub fn observe(&mut self, history: u32, outcome: bool) {
        assert!(
            self.order == 32 || history < (1u32 << self.order),
            "history {history:#b} wider than order {}",
            self.order
        );
        let counts = self.table.entry(history).or_default();
        if outcome {
            counts.ones += 1;
        } else {
            counts.zeros += 1;
        }
    }

    /// The model's history length.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Counts for one history, or `None` if it never occurred.
    #[must_use]
    pub fn counts(&self, history: u32) -> Option<HistoryCounts> {
        self.table.get(&history).copied()
    }

    /// `P[1 | history]`, or `None` if the history never occurred.
    #[must_use]
    pub fn prob_one(&self, history: u32) -> Option<f64> {
        self.table.get(&history).map(HistoryCounts::prob_one)
    }

    /// Iterates over `(history, counts)` for every observed history, in
    /// ascending history order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, HistoryCounts)> + '_ {
        self.table.iter().map(|(&h, &c)| (h, c))
    }

    /// Number of distinct observed histories (the sparse table size).
    #[must_use]
    pub fn observed_histories(&self) -> usize {
        self.table.len()
    }

    /// Total number of observations across all histories.
    #[must_use]
    pub fn total_observations(&self) -> u64 {
        self.table.values().map(HistoryCounts::total).sum()
    }

    /// Returns a lower-order projection of this model: every history is
    /// truncated to its `new_order` most recent outcomes (bit 0 holds the
    /// most recent outcome, so truncation is a mask) and the counts of
    /// histories that collapse together are summed.
    ///
    /// This is what the degradation ladder uses to retry a design with a
    /// shorter history window without re-reading the trace: the projection
    /// of the order-N model equals the model built from the trace at the
    /// lower order, up to the `N - new_order` extra warm-up observations
    /// the shorter window would have captured.
    ///
    /// # Panics
    ///
    /// Panics if `new_order` is zero or exceeds the current order.
    #[must_use]
    pub fn reduced(&self, new_order: usize) -> MarkovModel {
        assert!(
            new_order > 0 && new_order <= self.order,
            "reduced order must be in 1..={}, got {new_order}",
            self.order
        );
        if new_order == self.order {
            return self.clone();
        }
        let mask = (1u32 << new_order) - 1;
        let mut reduced = MarkovModel::new(new_order);
        for (h, c) in self.iter() {
            let e = reduced.table.entry(h & mask).or_default();
            e.zeros += c.zeros;
            e.ones += c.ones;
        }
        reduced
    }

    /// Total observations that were followed by a 1, across all histories.
    #[must_use]
    pub fn total_ones(&self) -> u64 {
        self.table.values().map(|c| c.ones).sum()
    }

    /// Merges another model's counts into this one (used to build the
    /// aggregate, cross-trained models of §6.3).
    ///
    /// # Panics
    ///
    /// Panics if the orders differ.
    pub fn merge(&mut self, other: &MarkovModel) {
        assert_eq!(
            self.order, other.order,
            "cannot merge Markov models of different orders"
        );
        for (h, c) in other.iter() {
            let e = self.table.entry(h).or_default();
            e.zeros += c.zeros;
            e.ones += c.ones;
        }
    }

    /// Renders the table in the paper's `P[1|hh] = a/b` style (histories
    /// written oldest bit first).
    #[must_use]
    pub fn display_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (h, c) in self.iter() {
            let pattern: String = (0..self.order)
                .rev()
                .map(|i| if h >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            let _ = writeln!(out, "P[1|{pattern}] = {}/{}", c.ones, c.total());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_trace() -> BitTrace {
        "0000 1000 1011 1101 1110 1111".parse().unwrap()
    }

    #[test]
    fn paper_section_4_2_table() {
        // The paper's second-order table: P[1|00]=2/5, P[1|01]=3/5,
        // P[1|10]=3/4, P[1|11]=6/8. Paper patterns are written oldest bit
        // first, so "01" (0 then 1) is index 0b10 in our packing.
        let m = MarkovModel::from_bit_trace(2, &paper_trace()).unwrap();
        let get = |pattern: &str| {
            let idx = pattern
                .chars()
                .fold(0u32, |acc, c| acc << 1 | u32::from(c == '1'));
            // pattern is oldest-first; oldest ends up in the high bit,
            // which matches HistoryRegister's packing.
            m.counts(idx).unwrap()
        };
        let c00 = get("00");
        assert_eq!((c00.ones, c00.total()), (2, 5));
        let c01 = get("01");
        assert_eq!((c01.ones, c01.total()), (3, 5));
        let c10 = get("10");
        assert_eq!((c10.ones, c10.total()), (3, 4));
        let c11 = get("11");
        assert_eq!((c11.ones, c11.total()), (6, 8));
    }

    #[test]
    fn too_short_trace_rejected() {
        let t: BitTrace = "01".parse().unwrap();
        assert!(matches!(
            MarkovModel::from_bit_trace(2, &t),
            Err(crate::DesignError::TraceTooShort { len: 2, order: 2 })
        ));
    }

    #[test]
    fn sparse_storage() {
        let mut m = MarkovModel::new(10);
        m.observe(0b11_1111_1111, true);
        m.observe(0, false);
        assert_eq!(m.observed_histories(), 2);
        assert_eq!(m.total_observations(), 2);
        assert_eq!(m.prob_one(5), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MarkovModel::new(2);
        a.observe(0b01, true);
        let mut b = MarkovModel::new(2);
        b.observe(0b01, false);
        b.observe(0b10, true);
        a.merge(&b);
        let c = a.counts(0b01).unwrap();
        assert_eq!((c.ones, c.zeros), (1, 1));
        assert_eq!(a.observed_histories(), 2);
    }

    #[test]
    fn reduced_model_matches_direct_construction() {
        // Projecting the order-3 model down to order 2 must agree with the
        // order-2 model built from the same trace on every shared history
        // (the direct model additionally sees one earlier warm-up position).
        let t = paper_trace();
        let m3 = MarkovModel::from_bit_trace(3, &t).unwrap();
        let m2 = MarkovModel::from_bit_trace(2, &t).unwrap();
        let r2 = m3.reduced(2);
        assert_eq!(r2.order(), 2);
        // Totals: the order-3 window starts one bit later, so the projected
        // model has exactly one fewer observation.
        assert_eq!(r2.total_observations() + 1, m2.total_observations());
        for (h, rc) in r2.iter() {
            let dc = m2.counts(h).unwrap();
            assert!(rc.ones <= dc.ones && rc.zeros <= dc.zeros, "history {h:b}");
        }
    }

    #[test]
    fn reduced_to_same_order_is_identity() {
        let m = MarkovModel::from_bit_trace(2, &paper_trace()).unwrap();
        assert_eq!(m.reduced(2), m);
    }

    #[test]
    #[should_panic(expected = "reduced order must be")]
    fn reduced_rejects_widening() {
        let m = MarkovModel::new(2);
        let _ = m.reduced(3);
    }

    #[test]
    fn total_ones_counts() {
        let mut m = MarkovModel::new(2);
        m.observe(0, true);
        m.observe(0, true);
        m.observe(1, false);
        assert_eq!(m.total_ones(), 2);
        assert_eq!(m.total_observations(), 3);
    }

    #[test]
    #[should_panic(expected = "different orders")]
    fn merge_order_mismatch_panics() {
        let mut a = MarkovModel::new(2);
        a.merge(&MarkovModel::new(3));
    }

    #[test]
    fn display_table_format() {
        let m = MarkovModel::from_bit_trace(2, &paper_trace()).unwrap();
        let text = m.display_table();
        assert!(text.contains("P[1|00] = 2/5"));
        assert!(text.contains("P[1|11] = 6/8"));
    }
}
