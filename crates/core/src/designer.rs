//! The end-to-end design flow (§4): trace → Markov model → pattern sets →
//! minimized cover → regular expression → minimized, steady-state Moore
//! predictor.
//!
//! The flow runs under an optional [`DesignBudget`]. When a stage would
//! exceed the budget, the designer walks a *degradation ladder* instead of
//! failing: first the exact minimizer is swapped for the Espresso-style
//! heuristic, then the history order is reduced one bit at a time, and as a
//! last resort the design collapses to a 2-bit saturating counter. Every
//! fallback is recorded in the [`Degradation`] report on the returned
//! [`Design`], so `design_from_trace` returns a usable predictor for any
//! budget and any trace (set [`Designer::degrade`] to `false` to get a
//! typed [`DesignError::BudgetExceeded`] instead).

use crate::budget::{Degradation, DesignBudget, Rung};
use crate::failpoints::{self, FailAction};
use crate::markov::MarkovModel;
use crate::patterns::{PatternConfig, PatternSets};
use crate::DesignError;
use fsmgen_automata::{Dfa, MoorePredictor, Nfa, Regex};
use fsmgen_logicmin::{minimize, minimize_checked, Algorithm, Cover};
use fsmgen_obs as obs;
use fsmgen_traces::BitTrace;

/// Configures one run of the automated design flow.
///
/// Construct with [`Designer::new`] and adjust via the builder-style
/// methods, then call [`Designer::design_from_trace`] or
/// [`Designer::design_from_model`].
///
/// # Examples
///
/// Designing the paper's running example end to end (Figure 1):
///
/// ```
/// use fsmgen::Designer;
/// use fsmgen_traces::BitTrace;
///
/// let t: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
/// let design = Designer::new(2).design_from_trace(&t)?;
/// assert_eq!(design.fsm().num_states(), 3); // Figure 1, right side
/// assert_eq!(design.pre_reduction_states(), 5); // Figure 1, left side
/// # Ok::<(), fsmgen::DesignError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Designer {
    history: usize,
    pattern_config: PatternConfig,
    algorithm: Algorithm,
    budget: DesignBudget,
    degrade: bool,
}

impl Designer {
    /// Creates a designer using `history` bits of history (the Markov
    /// order N), the paper's default pattern configuration (threshold 1/2,
    /// 1% don't-cares) and the exact minimizer.
    ///
    /// # Panics
    ///
    /// Panics if `history` is zero or exceeds
    /// [`MAX_ORDER`](crate::MAX_ORDER).
    #[must_use]
    pub fn new(history: usize) -> Self {
        assert!(
            history > 0 && history <= crate::MAX_ORDER,
            "history must be in 1..={}, got {history}",
            crate::MAX_ORDER
        );
        Designer {
            history,
            pattern_config: PatternConfig::default(),
            algorithm: Algorithm::default(),
            budget: DesignBudget::unlimited(),
            degrade: true,
        }
    }

    /// Sets the pattern-definition configuration.
    #[must_use]
    pub fn pattern_config(mut self, config: PatternConfig) -> Self {
        self.pattern_config = config;
        self
    }

    /// Sets the probability threshold for the predict-1 set (keeps the
    /// current don't-care fraction).
    #[must_use]
    pub fn prob_threshold(mut self, threshold: f64) -> Self {
        self.pattern_config.prob_threshold = threshold;
        self
    }

    /// Sets the don't-care demotion fraction (keeps the current threshold).
    #[must_use]
    pub fn dont_care_fraction(mut self, fraction: f64) -> Self {
        self.pattern_config.dont_care_fraction = fraction;
        self
    }

    /// Sets the logic-minimization algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the resource budget for the whole flow. The default budget is
    /// unlimited.
    #[must_use]
    pub fn budget(mut self, budget: DesignBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables the degradation ladder (on by default). With
    /// degradation off, the first budget violation surfaces as
    /// [`DesignError::BudgetExceeded`] instead of triggering a fallback.
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// The configured history length.
    #[must_use]
    pub fn history(&self) -> usize {
        self.history
    }

    /// The configured resource budget.
    #[must_use]
    pub fn design_budget(&self) -> &DesignBudget {
        &self.budget
    }

    /// The configured pattern-definition settings.
    #[must_use]
    pub fn pattern_settings(&self) -> &PatternConfig {
        &self.pattern_config
    }

    /// The configured logic-minimization algorithm.
    #[must_use]
    pub fn minimize_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// `true` when the degradation ladder is enabled.
    #[must_use]
    pub fn degrade_enabled(&self) -> bool {
        self.degrade
    }

    /// Runs the full flow on a 0/1 behaviour trace.
    ///
    /// With degradation enabled (the default), any budget exhaustion is
    /// absorbed by the fallback ladder and reported via
    /// [`Design::degradation`], so this returns a usable predictor for any
    /// budget and any trace long enough to fill the history window.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::TraceTooShort`] if the trace cannot fill the
    /// history window, [`DesignError::BadConfig`] for invalid pattern
    /// configuration, [`DesignError::EmptyModel`] if no history was
    /// observed, [`DesignError::BudgetExceeded`] when degradation is
    /// disabled and the budget was hit, or [`DesignError::Internal`] for
    /// hard stage failures (including injected faults).
    pub fn design_from_trace(&self, trace: &BitTrace) -> Result<Design, DesignError> {
        let _root = obs::span("design");
        let model = {
            let _stage = obs::span("markov");
            let model = MarkovModel::from_bit_trace(self.history, trace)?;
            obs::counter("markov", "histories", model.observed_histories() as u64);
            obs::counter("markov", "observations", model.total_observations());
            model
        };
        self.design_from_model_inner(model)
    }

    /// Runs the flow from an already-built Markov model (e.g. a per-branch
    /// model keyed on global history, or a merged cross-training model).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::BadConfig`] for invalid pattern
    /// configuration, [`DesignError::EmptyModel`] if the model has no
    /// observations, [`DesignError::OrderTooLarge`] if the order exceeds
    /// the minimizer's width limit, [`DesignError::BudgetExceeded`] when
    /// degradation is disabled and the budget was hit, or
    /// [`DesignError::Internal`] for hard stage failures.
    pub fn design_from_model(&self, model: MarkovModel) -> Result<Design, DesignError> {
        let _root = obs::span("design");
        self.design_from_model_inner(model)
    }

    /// Shared ladder body for both public entry points; runs under the
    /// caller's already-open `design` root span so nesting depth stays
    /// uniform regardless of the entry point.
    fn design_from_model_inner(&self, model: MarkovModel) -> Result<Design, DesignError> {
        self.pattern_config
            .validate()
            .map_err(DesignError::BadConfig)?;
        if model.total_observations() == 0 {
            return Err(DesignError::EmptyModel);
        }
        if model.order() != self.history {
            return Err(DesignError::OrderMismatch {
                designer: self.history,
                model: model.order(),
            });
        }
        if model.order() > fsmgen_logicmin::MAX_VARS {
            return Err(DesignError::OrderTooLarge {
                order: model.order(),
                max: fsmgen_logicmin::MAX_VARS,
            });
        }

        // The degradation ladder: configured algorithm → heuristic
        // minimizer → shorter history orders → saturating counter. Each
        // budget failure drops one rung; hard failures surface immediately.
        let mut degradation = Degradation::default();
        let mut algorithm = self.algorithm;
        let mut current = model.clone();
        loop {
            match self.attempt(&current, algorithm) {
                Ok(stages) => {
                    let effective_history = current.order();
                    return Ok(stages.into_design(model, degradation, effective_history));
                }
                Err(StageFailure::Hard { stage, reason }) => {
                    return Err(DesignError::Internal { stage, reason });
                }
                Err(StageFailure::Budget { stage, reason }) => {
                    if !self.degrade {
                        return Err(DesignError::BudgetExceeded { stage, reason });
                    }
                    if !matches!(algorithm, Algorithm::Heuristic) {
                        algorithm = Algorithm::Heuristic;
                        obs::rung(&Rung::HeuristicMinimizer.to_string(), stage, &reason);
                        degradation.record(Rung::HeuristicMinimizer, stage, reason);
                    } else if current.order() > 1 {
                        let shorter = current.order() - 1;
                        current = current.reduced(shorter);
                        obs::rung(&Rung::ReducedOrder(shorter).to_string(), stage, &reason);
                        degradation.record(Rung::ReducedOrder(shorter), stage, reason);
                    } else {
                        obs::rung(&Rung::SaturatingCounter.to_string(), stage, &reason);
                        degradation.record(Rung::SaturatingCounter, stage, reason);
                        return match self.counter_attempt(&model) {
                            Ok(stages) => Ok(stages.into_design(model, degradation, 0)),
                            Err(
                                StageFailure::Hard { stage, reason }
                                | StageFailure::Budget { stage, reason },
                            ) => Err(DesignError::Internal { stage, reason }),
                        };
                    }
                }
            }
        }
    }

    /// One pass of the §4.3–4.7 pipeline over `model` with `algorithm`,
    /// under the configured budget and the active failpoints.
    fn attempt(
        &self,
        model: &MarkovModel,
        algorithm: Algorithm,
    ) -> Result<AttemptStages, StageFailure> {
        let order = model.order();

        // §4.3 pattern definition.
        consult_failpoint("patterns")?;
        let sets = {
            let _stage = obs::span("patterns");
            PatternSets::from_model(model, &self.pattern_config).map_err(|e| {
                StageFailure::Hard {
                    stage: "patterns",
                    reason: e.to_string(),
                }
            })?
        };
        obs::counter("patterns", "predict_one", sets.spec().on_set().len() as u64);
        obs::counter(
            "patterns",
            "predict_zero",
            sets.spec().off_set().len() as u64,
        );

        // §4.4 pattern compression.
        consult_failpoint("minimize")?;
        let cover = {
            let _stage = obs::span("minimize");
            minimize_checked(sets.spec(), algorithm, &self.budget.minimize_budget()).map_err(
                |e| StageFailure::Budget {
                    stage: "minimize",
                    reason: e.to_string(),
                },
            )?
        };
        obs::counter("minimize", "cubes_out", cover.len() as u64);
        obs::counter("minimize", "literals_out", u64::from(cover.literal_count()));

        // §4.5 regular expression building. Cube variable i is the outcome
        // i steps back, so the oldest position of a written pattern is
        // variable order-1.
        let (patterns, regex) = {
            let _stage = obs::span("regex");
            let patterns: Vec<Vec<Option<bool>>> = cover
                .cubes()
                .iter()
                .map(|cube| (0..order).rev().map(|var| cube.var(var)).collect())
                .collect();
            obs::counter("regex", "patterns", patterns.len() as u64);
            let regex = if patterns.is_empty() {
                None
            } else {
                Some(Regex::ending_in(
                    patterns.iter().map(|p| Regex::pattern(p)).collect(),
                ))
            };
            (patterns, regex)
        };

        // §4.6 FSM creation + Hopcroft, §4.7 start-state reduction.
        let automata_budget = self.budget.automata_budget();
        let (minimized, fsm) = match &regex {
            None => {
                let constant = Dfa::from_parts(vec![[0, 0]], vec![false], 0);
                (constant.clone(), constant)
            }
            Some(re) => {
                // Thompson's NFA is kept for its `max_nfa_states` check; the
                // DFA is built straight from the patterns instead of by
                // subset construction, and minimizes to the same machine.
                consult_failpoint("nfa")?;
                {
                    let _stage = obs::span("nfa");
                    Nfa::from_regex_checked(re, &automata_budget).map_err(budget_failure("nfa"))?;
                }
                consult_failpoint("dfa")?;
                let dfa = {
                    let _stage = obs::span("dfa");
                    Dfa::from_window_patterns_checked(order, &patterns, &automata_budget)
                        .map_err(budget_failure("dfa"))?
                };
                consult_failpoint("hopcroft")?;
                let minimized = {
                    let _stage = obs::span("hopcroft");
                    dfa.minimized_checked(&automata_budget)
                        .map_err(budget_failure("hopcroft"))?
                };
                consult_failpoint("reduce")?;
                let fsm = {
                    let _stage = obs::span("reduce");
                    minimized
                        .steady_state_reduced_checked(&automata_budget)
                        .map_err(budget_failure("reduce"))?
                };
                (minimized, fsm)
            }
        };

        Ok(AttemptStages {
            sets,
            cover,
            regex,
            minimized,
            fsm,
        })
    }

    /// The bottom rung: a 2-bit saturating counter (the "what you would
    /// have built by hand" predictor), biased toward the trace's majority
    /// outcome. Uses no minimizer and no automaton construction, so it
    /// cannot exceed any budget.
    fn counter_attempt(&self, model: &MarkovModel) -> Result<AttemptStages, StageFailure> {
        consult_failpoint("counter")?;
        let _stage = obs::span("counter");
        // Keep the order-1 projection's pattern sets and cover so the
        // design still reports §4.3/§4.4 artifacts (width 1: trivial cost).
        let reduced = model.reduced(1);
        let sets = PatternSets::from_model(&reduced, &self.pattern_config).map_err(|e| {
            StageFailure::Hard {
                stage: "counter",
                reason: e.to_string(),
            }
        })?;
        let cover = minimize(sets.spec(), Algorithm::Heuristic);

        let transitions: Vec<[u32; 2]> = (0u32..4)
            .map(|s| [s.saturating_sub(1), (s + 1).min(3)])
            .collect();
        let accept = vec![false, false, true, true];
        let biased_taken = model.total_ones() * 2 >= model.total_observations();
        let start = if biased_taken { 3 } else { 0 };
        let fsm = Dfa::from_parts(transitions, accept, start);
        Ok(AttemptStages {
            sets,
            cover,
            regex: None,
            minimized: fsm.clone(),
            fsm,
        })
    }
}

/// Why one ladder attempt failed.
enum StageFailure {
    /// The stage exceeded the budget — the ladder may continue.
    Budget { stage: &'static str, reason: String },
    /// The stage failed outright — surfaces as [`DesignError::Internal`].
    Hard { stage: &'static str, reason: String },
}

/// Maps an automata budget error into a stage failure for `stage`.
fn budget_failure<E: std::fmt::Display>(stage: &'static str) -> impl FnOnce(E) -> StageFailure {
    move |e| StageFailure::Budget {
        stage,
        reason: e.to_string(),
    }
}

/// Consults the failpoint registry for `stage` and converts a fired action
/// into the corresponding stage failure.
fn consult_failpoint(stage: &'static str) -> Result<(), StageFailure> {
    match failpoints::fire(stage) {
        None => Ok(()),
        Some(FailAction::BudgetExceeded) => Err(StageFailure::Budget {
            stage,
            reason: format!("injected budget fault at {stage}"),
        }),
        Some(FailAction::Error) => Err(StageFailure::Hard {
            stage,
            reason: format!("injected fault at {stage}"),
        }),
    }
}

/// The intermediate artifacts of one successful ladder attempt.
struct AttemptStages {
    sets: PatternSets,
    cover: Cover,
    regex: Option<Regex>,
    minimized: Dfa,
    fsm: Dfa,
}

impl AttemptStages {
    fn into_design(
        self,
        model: MarkovModel,
        degradation: Degradation,
        effective_history: usize,
    ) -> Design {
        Design {
            model,
            sets: self.sets,
            cover: self.cover,
            regex: self.regex,
            minimized: self.minimized,
            fsm: self.fsm,
            degradation,
            effective_history,
        }
    }
}

/// The output of one design-flow run, retaining every intermediate
/// artifact so callers can inspect or report any stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    model: MarkovModel,
    sets: PatternSets,
    cover: Cover,
    regex: Option<Regex>,
    minimized: Dfa,
    fsm: Dfa,
    degradation: Degradation,
    effective_history: usize,
}

impl Design {
    /// Reassembles a design from its stage artifacts — the
    /// deserialization path (e.g. the farm's persistent cache snapshots).
    ///
    /// The designer itself builds designs through the pipeline; this
    /// constructor trusts the caller that the artifacts belong together
    /// (it performs no cross-stage consistency checks), so decoded
    /// designs round-trip every accessor bit-identically.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn from_parts(
        model: MarkovModel,
        sets: PatternSets,
        cover: Cover,
        regex: Option<Regex>,
        minimized: Dfa,
        fsm: Dfa,
        degradation: Degradation,
        effective_history: usize,
    ) -> Self {
        Design {
            model,
            sets,
            cover,
            regex,
            minimized,
            fsm,
            degradation,
            effective_history,
        }
    }

    /// The Markov model the design was derived from (§4.2).
    #[must_use]
    pub fn model(&self) -> &MarkovModel {
        &self.model
    }

    /// The predict-1 / predict-0 / don't-care partition (§4.3).
    #[must_use]
    pub fn pattern_sets(&self) -> &PatternSets {
        &self.sets
    }

    /// The minimized sum-of-products cover of the predict-1 set (§4.4).
    #[must_use]
    pub fn cover(&self) -> &Cover {
        &self.cover
    }

    /// The regular expression for the predict-1 language (§4.5), or `None`
    /// when the cover is empty (an always-predict-0 design).
    #[must_use]
    pub fn regex(&self) -> Option<&Regex> {
        self.regex.as_ref()
    }

    /// The Hopcroft-minimized machine before start-state removal
    /// (Figure 1, left).
    #[must_use]
    pub fn minimized_with_startup(&self) -> &Dfa {
        &self.minimized
    }

    /// State count before start-state reduction.
    #[must_use]
    pub fn pre_reduction_states(&self) -> usize {
        self.minimized.num_states()
    }

    /// The final steady-state predictor machine (Figure 1, right).
    #[must_use]
    pub fn fsm(&self) -> &Dfa {
        &self.fsm
    }

    /// Instantiates a runnable predictor on the final machine.
    #[must_use]
    pub fn predictor(&self) -> MoorePredictor {
        MoorePredictor::new(self.fsm.clone())
    }

    /// The degradation report: which fallback rungs, if any, the designer
    /// took to fit the budget. Empty for an undegraded design.
    #[must_use]
    pub fn degradation(&self) -> &Degradation {
        &self.degradation
    }

    /// The history order the final machine was actually built from. Equal
    /// to the configured history for an undegraded design, smaller after an
    /// order-reduction rung, and `0` for the saturating-counter fallback
    /// (which uses no history window).
    #[must_use]
    pub fn effective_history(&self) -> usize {
        self.effective_history
    }

    /// Consumes the design, returning the final machine.
    #[must_use]
    pub fn into_fsm(self) -> Dfa {
        self.fsm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_trace() -> BitTrace {
        "0000 1000 1011 1101 1110 1111".parse().unwrap()
    }

    #[test]
    fn full_paper_walkthrough() {
        let designer = Designer::new(2).dont_care_fraction(0.0);
        let design = designer.design_from_trace(&paper_trace()).unwrap();

        // §4.4: the cover is (x1) + (1x).
        assert_eq!(design.cover().len(), 2);
        assert_eq!(design.cover().literal_count(), 2);

        // §4.5: regex is {0|1}* over the two patterns.
        let re = design.regex().unwrap().to_string();
        assert!(re.starts_with("{0|1}*"), "regex was {re}");

        // Figure 1: 5 states with start-up, 3 after reduction.
        assert_eq!(design.pre_reduction_states(), 5);
        assert_eq!(design.fsm().num_states(), 3);

        // Steady-state behaviour: predict 1 unless the last two bits were
        // both 0.
        let mut p = design.predictor();
        for (bits, expect) in [
            ([false, false], false),
            ([false, true], true),
            ([true, false], true),
            ([true, true], true),
        ] {
            // Walk in from every state by feeding the two bits.
            for warmup in 0..3u32 {
                let mut q = p.fresh_instance();
                for _ in 0..warmup {
                    q.update(true);
                }
                for b in bits {
                    q.update(b);
                }
                assert_eq!(q.predict(), expect, "bits {bits:?} warmup {warmup}");
            }
            p = p.fresh_instance();
        }
    }

    #[test]
    fn always_taken_trace_designs_constant_predictor() {
        let t: BitTrace = "1111 1111 1111 1111".parse().unwrap();
        let design = Designer::new(2).design_from_trace(&t).unwrap();
        // Only history 11 is observed and it predicts 1; everything else is
        // a don't-care, so the cover collapses to the universal cube and
        // the machine to a single always-1 state.
        assert_eq!(design.fsm().num_states(), 1);
        assert!(design.fsm().output(0));
    }

    #[test]
    fn always_not_taken_trace() {
        let t: BitTrace = "0000 0000 0000".parse().unwrap();
        let design = Designer::new(2).design_from_trace(&t).unwrap();
        assert_eq!(design.fsm().num_states(), 1);
        assert!(!design.fsm().output(0));
        assert!(design.regex().is_none());
    }

    #[test]
    fn alternating_trace_learns_alternation() {
        let t: BitTrace = "0101 0101 0101 0101 0101".parse().unwrap();
        let design = Designer::new(2).design_from_trace(&t).unwrap();
        let mut p = design.predictor();
        // After seeing ...01 the predictor should say 0; after ...10, 1.
        p.update(false);
        p.update(true);
        assert!(!p.predict());
        p.update(false);
        assert!(p.predict());
    }

    #[test]
    fn errors_are_reported() {
        let designer = Designer::new(4);
        let tiny: BitTrace = "01".parse().unwrap();
        assert!(matches!(
            designer.design_from_trace(&tiny),
            Err(DesignError::TraceTooShort { .. })
        ));

        let designer = Designer::new(2).prob_threshold(2.0);
        assert!(matches!(
            designer.design_from_trace(&paper_trace()),
            Err(DesignError::BadConfig(_))
        ));

        let model = MarkovModel::new(3);
        assert!(matches!(
            Designer::new(3).design_from_model(model),
            Err(DesignError::EmptyModel)
        ));

        let mut model = MarkovModel::new(3);
        model.observe(0, true);
        assert!(matches!(
            Designer::new(2).design_from_model(model),
            Err(DesignError::OrderMismatch {
                designer: 2,
                model: 3
            })
        ));
    }

    #[test]
    fn unlimited_budget_reports_no_degradation() {
        let design = Designer::new(2)
            .budget(DesignBudget::unlimited())
            .design_from_trace(&paper_trace())
            .unwrap();
        assert!(!design.degradation().is_degraded());
        assert_eq!(design.effective_history(), 2);
    }

    #[test]
    fn tight_minterm_budget_degrades_but_still_designs() {
        // max_minterms = 1 is impossible for any order ≥ 1 spec, so the
        // ladder must run all the way down to the counter.
        let budget = DesignBudget {
            max_minterms: Some(1),
            ..DesignBudget::default()
        };
        let design = Designer::new(4)
            .budget(budget)
            .design_from_trace(&paper_trace())
            .unwrap();
        assert!(design.degradation().is_degraded());
        assert_eq!(
            design.degradation().final_rung(),
            Some(Rung::SaturatingCounter)
        );
        assert_eq!(design.effective_history(), 0);
        // The counter is still a usable 4-state predictor.
        assert_eq!(design.fsm().num_states(), 4);
        // The paper trace is majority ones, so the counter starts taken.
        let p = design.predictor();
        assert!(p.predict());
    }

    #[test]
    fn tight_dfa_budget_reduces_order() {
        // Enough room for the minimizer, but only a few DFA states: the
        // ladder should shorten the history until the machine fits.
        let budget = DesignBudget {
            max_dfa_states: Some(3),
            ..DesignBudget::default()
        };
        let t: BitTrace = "0011 0011 0011 0011 0011 0011 0011 0011".parse().unwrap();
        let design = Designer::new(6)
            .budget(budget)
            .design_from_trace(&t)
            .unwrap();
        assert!(design.degradation().is_degraded());
        assert!(design.effective_history() < 6);
        assert!(design.fsm().num_states() <= 3);
    }

    #[test]
    fn degrade_disabled_returns_budget_error() {
        let budget = DesignBudget {
            max_minterms: Some(1),
            ..DesignBudget::default()
        };
        let err = Designer::new(4)
            .budget(budget)
            .degrade(false)
            .design_from_trace(&paper_trace())
            .unwrap_err();
        assert!(matches!(
            err,
            DesignError::BudgetExceeded {
                stage: "minimize",
                ..
            }
        ));
    }

    #[test]
    fn order_too_large_is_reported() {
        // MAX_ORDER tracks the minimizer width, so build the model directly
        // at an unsupported order to hit the guard.
        let too_wide = fsmgen_logicmin::MAX_VARS + 1;
        if too_wide > crate::MAX_ORDER {
            // Constructor guard already prevents this; the error variant is
            // covered for forward-compat when MAX_ORDER outgrows MAX_VARS.
            return;
        }
        let t: BitTrace = "01".repeat(64).parse().unwrap();
        let err = Designer::new(too_wide).design_from_trace(&t).unwrap_err();
        assert!(matches!(err, DesignError::OrderTooLarge { .. }));
    }

    #[test]
    fn history_sweep_monotone_knowledge() {
        // A trace with period-4 structure: longer histories should never
        // produce a predictor worse (on the training trace itself) than
        // shorter ones.
        let t: BitTrace = "0011 0011 0011 0011 0011 0011 0011 0011".parse().unwrap();
        let mut prev_acc = 0.0;
        for n in 2..=6 {
            let design = Designer::new(n).design_from_trace(&t).unwrap();
            let mut p = design.predictor();
            let mut correct = 0;
            let mut total = 0;
            for (i, bit) in t.iter().enumerate() {
                if i >= n {
                    total += 1;
                    if p.predict() == bit {
                        correct += 1;
                    }
                }
                p.update(bit);
            }
            let acc = correct as f64 / total as f64;
            assert!(
                acc + 1e-9 >= prev_acc,
                "accuracy dropped from {prev_acc} to {acc} at n={n}"
            );
            prev_acc = acc;
        }
        assert!(
            prev_acc > 0.9,
            "period-4 trace should be almost perfectly predictable"
        );
    }
}
