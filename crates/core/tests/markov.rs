//! Differential test of `MarkovModel::from_bit_trace` against the
//! observation loop it replaces: slide a `HistoryRegister` over the trace
//! and `observe` each outcome once the register is full.

use fsmgen::{DesignError, MarkovModel, MAX_ORDER};
use fsmgen_traces::{BitTrace, HistoryRegister};
use proptest::prelude::*;

fn observed_model(order: usize, trace: &BitTrace) -> MarkovModel {
    let mut model = MarkovModel::new(order);
    let mut history = HistoryRegister::new(order);
    for bit in trace {
        if history.is_full() {
            model.observe(history.value(), bit);
        }
        history.push(bit);
    }
    model
}

/// An order in `1..=MAX_ORDER` and a trace of `order + 1` to `order + 3000`
/// bits, each 1 with a per-trace probability, so both sparse and dense
/// tables (and histories seen many times) occur.
fn order_and_trace() -> impl Strategy<Value = (usize, BitTrace)> {
    (1usize..=MAX_ORDER, 1usize..=3000, 0u32..=100).prop_flat_map(|(order, extra, percent)| {
        proptest::collection::vec(0u32..100, order + extra).prop_map(move |draws| {
            let trace: BitTrace = draws.iter().map(|&d| d < percent).collect();
            (order, trace)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_counts_match_observation_loop((order, trace) in order_and_trace()) {
        let dense = MarkovModel::from_bit_trace(order, &trace).expect("trace fills the history");
        let observed = observed_model(order, &trace);
        prop_assert_eq!(dense.iter().collect::<Vec<_>>(), observed.iter().collect::<Vec<_>>());
        prop_assert_eq!(dense.total_observations(), observed.total_observations());
        prop_assert_eq!(dense.total_observations(), (trace.len() - order) as u64);
        prop_assert_eq!(dense.observed_histories(), observed.observed_histories());
        prop_assert_eq!(dense, observed);
    }
}

#[test]
fn shortest_traces_match_observation_loop() {
    for order in 1..=MAX_ORDER {
        for bits in [true, false] {
            let trace: BitTrace = (0..=order).map(|i| bits ^ (i % 3 == 0)).collect();
            let dense = MarkovModel::from_bit_trace(order, &trace).expect("order + 1 bits");
            assert_eq!(dense.total_observations(), 1);
            assert_eq!(dense, observed_model(order, &trace));
        }
    }
}

#[test]
fn traces_no_longer_than_the_order_are_too_short() {
    for order in 1..=MAX_ORDER {
        for len in 0..=order {
            let trace: BitTrace = (0..len).map(|i| i % 2 == 0).collect();
            assert!(
                matches!(
                    MarkovModel::from_bit_trace(order, &trace),
                    Err(DesignError::TraceTooShort { len: l, order: o }) if l == len && o == order
                ),
                "order {order}, len {len}"
            );
        }
    }
}
