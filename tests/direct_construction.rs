//! The design flow builds its DFA straight from the cover and generates
//! primes from a dense ternary table. Both replace a textbook step of the
//! paper's flow (§4.4 Quine–McCluskey merging, §4.6 Thompson NFA plus
//! subset construction) that stays in the library as the reference. On
//! every branch-suite benchmark at the histories the benchmarks use, the
//! fast path and the reference path must give identical machines and
//! identical primes.

use fsmgen_suite::automata::{Dfa, Nfa};
use fsmgen_suite::core::Designer;
use fsmgen_suite::logicmin::qm::{prime_implicants, prime_implicants_merged_checked};
use fsmgen_suite::logicmin::MinimizeBudget;
use fsmgen_suite::traces::BitTrace;
use fsmgen_suite::workloads::{BranchBenchmark, Input};

/// Taken bits per trace.
const TRACE_BITS: usize = 20_000;

fn taken_bits(bench: BranchBenchmark) -> BitTrace {
    bench
        .trace(Input::TRAIN, TRACE_BITS)
        .iter()
        .take(TRACE_BITS)
        .map(|e| e.taken)
        .collect()
}

/// Designs `bench` at every history and checks both replacements against
/// their reference.
fn check_against_reference(bench: BranchBenchmark) {
    let trace = taken_bits(bench);
    for history in [6, 8, 9, 10] {
        let design = Designer::new(history)
            .design_from_trace(&trace)
            .expect("20,000 bits fill any history");
        let what = format!("{} at h={history}", bench.name());
        assert!(!design.degradation().is_degraded(), "{what} degraded");

        let spec = design.pattern_sets().spec();
        let merged = prime_implicants_merged_checked(spec, &MinimizeBudget::unlimited())
            .expect("unlimited budgets never abort");
        assert_eq!(prime_implicants(spec), merged, "primes of {what}");

        let regex = design.regex().expect("branch-suite covers are not empty");
        let subset = Dfa::from_nfa(&Nfa::from_regex(regex)).minimized();
        assert_eq!(
            design.minimized_with_startup(),
            &subset,
            "machine with start-up states of {what}"
        );
        assert_eq!(
            design.fsm(),
            &subset.steady_state_reduced(),
            "steady-state machine of {what}"
        );
    }
}

#[test]
fn compress_matches_reference() {
    check_against_reference(BranchBenchmark::Compress);
}

#[test]
fn gs_matches_reference() {
    check_against_reference(BranchBenchmark::Gs);
}

#[test]
fn gsm_matches_reference() {
    check_against_reference(BranchBenchmark::Gsm);
}

#[test]
fn g721_matches_reference() {
    check_against_reference(BranchBenchmark::G721);
}

#[test]
fn ijpeg_matches_reference() {
    check_against_reference(BranchBenchmark::Ijpeg);
}

#[test]
fn vortex_matches_reference() {
    check_against_reference(BranchBenchmark::Vortex);
}

#[test]
fn the_tests_above_cover_the_whole_suite() {
    use BranchBenchmark::{Compress, Gs, Gsm, Ijpeg, Vortex, G721};
    let checked = [Compress, Gs, Gsm, G721, Ijpeg, Vortex];
    assert!(BranchBenchmark::ALL.iter().all(|b| checked.contains(b)));
}
