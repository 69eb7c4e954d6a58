//! Integration tests asserting the paper's §6/§7 *qualitative* claims hold
//! on the synthetic substrate — who wins, roughly by how much, and where
//! the crossovers fall. Absolute numbers differ from the paper (our
//! workloads are synthetic models; see DESIGN.md), but these shapes are
//! the reproduction targets recorded in EXPERIMENTS.md.

use fsmgen_suite::bpred::{
    simulate, Combining, CustomTrainer, Gshare, LocalGlobalChooser, XScaleBtb,
};
use fsmgen_suite::core::Designer;
use fsmgen_suite::experiments::fig2::{best_coverage_at_accuracy, run_panel, Fig2Config};
use fsmgen_suite::experiments::fig4::{self, Fig4Config};
use fsmgen_suite::vpred::{
    per_entry_correctness_model, run_confidence, FsmConfidence, RecoveryModel, TwoDeltaStride,
};
use fsmgen_suite::workloads::{BranchBenchmark, Input, ValueBenchmark};

const TRACE: usize = 40_000;

fn custom_curve(bench: BranchBenchmark, max: usize) -> (f64, Vec<f64>) {
    let train = bench.trace(Input::TRAIN, TRACE);
    let eval = bench.trace(Input::EVAL, TRACE);
    let base = simulate(&mut XScaleBtb::xscale(), &eval).miss_rate();
    let designs = CustomTrainer::paper_default().train(&train, max);
    let curve = (1..=designs.len())
        .map(|k| simulate(&mut designs.architecture(k), &eval).miss_rate())
        .collect();
    (base, curve)
}

#[test]
fn customs_reduce_miss_rate_on_every_benchmark() {
    // §7.5: "for all programs the misprediction rate decreases as we
    // devote more and more chip area to the prediction of branches."
    for bench in BranchBenchmark::ALL {
        let (base, curve) = custom_curve(bench, 6);
        let best = curve.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            best < base,
            "{bench}: customs ({best:.3}) must beat XScale ({base:.3})"
        );
    }
}

#[test]
fn compress_benefit_comes_from_one_branch() {
    // §7.5: "For the program compress all of the benefit comes from the
    // state machine for one branch ... Adding more FSM predictors simply
    // increases the area with little to no improvement."
    let (base, curve) = custom_curve(BranchBenchmark::Compress, 6);
    let first_gain = base - curve[0];
    let rest_gain = curve[0] - curve.last().copied().unwrap();
    assert!(first_gain > 0.0, "one FSM must help");
    assert!(
        rest_gain < first_gain * 0.25,
        "additional FSMs should add little: first {first_gain:.4}, rest {rest_gain:.4}"
    );
}

#[test]
fn compress_moderate_lgc_beats_customs() {
    // §7.5: "Moderate table sizes of a LGC can outperform our customized
    // predictors" on compress, because the dominant branch wants local
    // history.
    let eval = BranchBenchmark::Compress.trace(Input::EVAL, TRACE);
    let lgc = simulate(&mut LocalGlobalChooser::new(512, 10, 4096), &eval).miss_rate();
    let (_, curve) = custom_curve(BranchBenchmark::Compress, 6);
    let best_custom = curve.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        lgc < best_custom,
        "LGC ({lgc:.3}) must beat customs ({best_custom:.3}) on compress"
    );
}

#[test]
fn global_correlation_benchmarks_beat_every_table() {
    // §7.5: "The best results are seen for ijpeg and gsm ... the
    // misprediction rate is far below that of even the largest table we
    // examined", and similarly strong results for vortex.
    for bench in [
        BranchBenchmark::Ijpeg,
        BranchBenchmark::Gsm,
        BranchBenchmark::Vortex,
    ] {
        let eval = bench.trace(Input::EVAL, TRACE);
        let best_table = [
            simulate(&mut Gshare::new(1 << 12), &eval).miss_rate(),
            simulate(&mut Gshare::new(1 << 16), &eval).miss_rate(),
            simulate(&mut Combining::new(1024, 1 << 12, 1024), &eval).miss_rate(),
            simulate(&mut LocalGlobalChooser::new(512, 10, 1 << 12), &eval).miss_rate(),
            simulate(&mut LocalGlobalChooser::new(1024, 10, 1 << 14), &eval).miss_rate(),
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        let (_, curve) = custom_curve(bench, 8);
        let best_custom = curve.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            best_custom < best_table,
            "{bench}: customs ({best_custom:.3}) must beat every table ({best_table:.3})"
        );
    }
}

#[test]
fn custom_same_and_diff_are_close() {
    // §7.5: "there is little to no difference between custom-diff and
    // custom-same", i.e. the behaviour transfers across inputs.
    for bench in [BranchBenchmark::Gsm, BranchBenchmark::Vortex] {
        let eval = bench.trace(Input::EVAL, TRACE);
        let trainer = CustomTrainer::paper_default();
        let same = trainer.train(&eval, 6);
        let diff = trainer.train(&bench.trace(Input::TRAIN, TRACE), 6);
        let k = same.len().min(diff.len());
        let m_same = simulate(&mut same.architecture(k), &eval).miss_rate();
        let m_diff = simulate(&mut diff.architecture(k), &eval).miss_rate();
        assert!(
            (m_same - m_diff).abs() < 0.03,
            "{bench}: same {m_same:.3} vs diff {m_diff:.3} should be close"
        );
    }
}

#[test]
fn fsm_confidence_dominates_sud_on_hard_benchmark() {
    // §6.4 headline (gcc): at 80% target accuracy the FSM estimator covers
    // far more correct predictions than any SUD configuration.
    let panel = run_panel(
        ValueBenchmark::Gcc,
        &Fig2Config {
            trace_len: 30_000,
            histories: vec![4, 8],
            thresholds: vec![0.5, 0.7, 0.9],
            cache_file: None,
        },
    );
    let sud = best_coverage_at_accuracy(&panel.sud, 0.78).unwrap_or(0.0);
    let fsm = panel
        .fsm
        .values()
        .filter_map(|c| best_coverage_at_accuracy(c, 0.78))
        .fold(0.0f64, f64::max);
    assert!(
        fsm > sud + 0.10,
        "FSM coverage ({fsm:.2}) must clearly beat SUD ({sud:.2}) at 78%+ accuracy"
    );
}

#[test]
fn fsm_confidence_converges_with_sud_at_extreme_accuracy() {
    // §6.4: "our automatically generated FSM predictors converge with the
    // saturating up-down counter results for extremely high accuracy
    // requirements" — both families end up with low coverage there.
    let panel = run_panel(
        ValueBenchmark::Groff,
        &Fig2Config {
            trace_len: 30_000,
            histories: vec![8],
            thresholds: vec![0.99],
            cache_file: None,
        },
    );
    if let Some(extreme) = panel.fsm[&8].first() {
        if let Some(cov) = extreme.coverage {
            assert!(
                cov < 0.6,
                "extreme-threshold FSM coverage should collapse, got {cov:.2}"
            );
        }
    }
}

#[test]
fn recovery_model_shapes_the_operating_point() {
    // §6.2: squash recovery needs "a very accurate SUD counter ... but
    // this resulted in low coverage", while re-execution recovery "did
    // not have to be as accurate" and favours coverage. The same FSM
    // family reproduces that: the conservative design wins under squash,
    // the liberal one under re-execution.
    let train = ValueBenchmark::Gcc.trace(Input::TRAIN, 30_000);
    let eval = ValueBenchmark::Gcc.trace(Input::EVAL, 30_000);

    let run_at = |threshold: f64| {
        let model = per_entry_correctness_model(&mut TwoDeltaStride::paper_default(), &train, 8);
        let design = Designer::new(8)
            .prob_threshold(threshold)
            .design_from_model(model)
            .expect("non-empty model");
        let mut table = TwoDeltaStride::paper_default();
        let mut est = FsmConfidence::per_entry(table.len(), design.into_fsm(), "rc");
        run_confidence(&mut table, &mut est, &eval)
    };
    let liberal = run_at(0.5);
    let conservative = run_at(0.95);
    // Sanity: the two operating points are genuinely different.
    assert!(conservative.confident < liberal.confident);

    let squash = RecoveryModel::squash();
    let reexec = RecoveryModel::reexecute();
    assert!(
        squash.net_cycles(&conservative) > squash.net_cycles(&liberal),
        "squash: conservative {} vs liberal {}",
        squash.net_cycles(&conservative),
        squash.net_cycles(&liberal)
    );
    assert!(
        reexec.net_cycles(&liberal) > reexec.net_cycles(&conservative),
        "re-exec: liberal {} vs conservative {}",
        reexec.net_cycles(&liberal),
        reexec.net_cycles(&conservative)
    );
}

/// Figure 4 on the quick population: `(states, area, fitted area)` per
/// sample.
fn fig4_quick() -> Vec<(usize, f64, f64)> {
    let result = fig4::run(&Fig4Config::quick());
    let model = result.model();
    result
        .samples
        .iter()
        .map(|s| (s.states, s.area, model.estimate(s.states)))
        .collect()
}

#[test]
fn fig4_area_is_close_to_linear_in_states() {
    let points = fig4_quick();
    assert!(points.len() >= 20, "only {} samples", points.len());
    // Band: within 10% of the largest sampled area of the fitted line.
    let band = 0.10 * points.iter().map(|p| p.1).fold(0.0, f64::max);
    let inside = points
        .iter()
        .filter(|(_, area, fit)| (area - fit).abs() <= band)
        .count();
    let share = inside as f64 / points.len() as f64;
    assert!(
        share >= 0.8,
        "only {inside} of {} samples lie within {band:.1} of the line",
        points.len()
    );
    // And the line explains most of the variance.
    let mean = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    let residual: f64 = points.iter().map(|(_, a, f)| (a - f).powi(2)).sum();
    let total: f64 = points.iter().map(|(_, a, _)| (a - mean).powi(2)).sum();
    let r2 = 1.0 - residual / total;
    assert!(r2 >= 0.8, "R^2 of the linear fit is {r2:.3}");
}

#[test]
fn fig4_some_large_machines_sit_well_below_the_line() {
    let points = fig4_quick();
    // The sample furthest below the line, in area...
    let (states, area, fit) = points
        .iter()
        .copied()
        .min_by(|a, b| (a.1 - a.2).total_cmp(&(b.1 - b.2)))
        .expect("samples");
    // ...is one of the largest quarter of machines by state count...
    let mut sizes: Vec<usize> = points.iter().map(|p| p.0).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let top_quarter = sizes[sizes.len() / 4];
    assert!(
        states >= top_quarter,
        "furthest below the line is a {states}-state machine; the largest quarter starts at {top_quarter}"
    );
    // ...and costs well under what the line predicts for its size.
    assert!(
        area < 0.6 * fit,
        "{states}-state machine: area {area:.1} against {fit:.1} on the line"
    );
}
