//! Deterministic fault injection for the design pipeline.
//!
//! A *failpoint* forces a named pipeline stage to fail on demand so the
//! degradation ladder and error paths can be exercised end to end without
//! crafting pathological inputs for every stage. The facility is modeled on
//! the `fail` crate but is dependency-free and thread-local: each test
//! thread configures its own failures and cannot perturb others.
//!
//! Stages consulted by [`Designer`](crate::Designer):
//! `"patterns"`, `"minimize"`, `"nfa"`, `"dfa"`, `"hopcroft"`, `"reduce"`,
//! `"counter"`. The `fsmgen-farm` batch engine additionally consults
//! `"farm-worker"` once per job, from whichever worker thread picked the
//! job up, and the `fsmgen-serve` design service consults `"serve-conn"`
//! once per accepted connection (a fired failpoint drops the connection
//! before any frame is read, counted as an injected fault in the serve
//! metrics).
//!
//! # Thread-local vs. global registries
//!
//! [`configure`] arms a failpoint for the *current thread* only — the right
//! scope for single-threaded pipeline tests, which may run concurrently in
//! one test binary. Multi-threaded consumers (the farm's worker pool)
//! never run pipeline stages on the configuring thread, so a second,
//! process-wide registry exists: [`configure_global`] /
//! [`clear_global`] arm failpoints visible from *every* thread, and
//! [`clear_global_stage`] disarms one stage without touching the others. [`fire`]
//! consults the thread-local registry first, then the global one; a
//! counted global failpoint decrements atomically under its lock, so
//! `count = 1` fires on exactly one worker across the whole process.
//!
//! The whole module is gated on the `failpoints` cargo feature (on by
//! default). With the feature off, [`fire`] compiles to a constant `None`
//! and the configuration functions are no-ops, so production builds can
//! drop the machinery entirely.
//!
//! # Examples
//!
//! ```
//! use fsmgen::failpoints;
//!
//! // Make the minimizer report budget exhaustion twice, then recover.
//! failpoints::configure_from_spec("minimize=budget:2").unwrap();
//! if cfg!(feature = "failpoints") {
//!     assert!(failpoints::fire("minimize").is_some());
//!     assert!(failpoints::fire("minimize").is_some());
//!     assert!(failpoints::fire("minimize").is_none());
//! }
//! failpoints::clear();
//! ```

use std::fmt;

/// What a fired failpoint makes the stage report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The stage pretends its resource budget was exceeded, which makes the
    /// designer take the next degradation rung.
    BudgetExceeded,
    /// The stage reports a hard internal error.
    Error,
}

impl fmt::Display for FailAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailAction::BudgetExceeded => f.write_str("budget"),
            FailAction::Error => f.write_str("error"),
        }
    }
}

#[cfg(feature = "failpoints")]
mod enabled {
    use super::FailAction;
    use std::cell::RefCell;
    use std::sync::Mutex;

    struct Failpoint {
        stage: String,
        action: FailAction,
        /// Remaining fires; `None` means unlimited.
        remaining: Option<u32>,
    }

    thread_local! {
        static REGISTRY: RefCell<Vec<Failpoint>> = const { RefCell::new(Vec::new()) };
    }

    /// Process-wide registry, consulted by [`fire`] after the thread-local
    /// one. Lock poisoning is survivable here: the registry holds plain
    /// data, so a panicking configurator cannot leave it inconsistent.
    static GLOBAL: Mutex<Vec<Failpoint>> = Mutex::new(Vec::new());

    fn with_global<R>(f: impl FnOnce(&mut Vec<Failpoint>) -> R) -> R {
        let mut guard = GLOBAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Arms `stage` to fail with `action`. `count` limits how many times it
    /// fires (`None` = every time until [`clear`]); a later call for the
    /// same stage replaces the earlier one.
    pub fn configure(stage: &str, action: FailAction, count: Option<u32>) {
        REGISTRY.with_borrow_mut(|reg| {
            reg.retain(|fp| fp.stage != stage);
            reg.push(Failpoint {
                stage: stage.to_owned(),
                action,
                remaining: count,
            });
        });
    }

    /// Arms `stage` to fail with `action` on *any* thread in the process.
    /// Semantics otherwise match [`configure`]; a counted global failpoint
    /// is consumed atomically, so `count = 1` fires exactly once across
    /// all worker threads.
    pub fn configure_global(stage: &str, action: FailAction, count: Option<u32>) {
        with_global(|reg| {
            reg.retain(|fp| fp.stage != stage);
            reg.push(Failpoint {
                stage: stage.to_owned(),
                action,
                remaining: count,
            });
        });
    }

    /// Parses one spec and hands every entry to `apply`.
    fn parse_spec(
        spec: &str,
        mut apply: impl FnMut(&str, FailAction, Option<u32>),
    ) -> Result<(), String> {
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (stage, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint entry '{entry}' is missing '='"))?;
            let (action, count) = match rhs.split_once(':') {
                Some((action, count)) => {
                    let n: u32 = count
                        .parse()
                        .map_err(|_| format!("failpoint count '{count}' is not a number"))?;
                    (action, Some(n))
                }
                None => (rhs, None),
            };
            let action = match action {
                "budget" => FailAction::BudgetExceeded,
                "error" => FailAction::Error,
                other => {
                    return Err(format!(
                        "failpoint action '{other}' must be 'budget' or 'error'"
                    ))
                }
            };
            if stage.is_empty() {
                return Err(format!("failpoint entry '{entry}' has an empty stage"));
            }
            apply(stage, action, count);
        }
        Ok(())
    }

    /// Arms failpoints from a compact spec string: a comma-separated list
    /// of `stage=action` or `stage=action:count` entries, where action is
    /// `budget` or `error`. Example: `"minimize=budget:2,dfa=error"`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn configure_from_spec(spec: &str) -> Result<(), String> {
        parse_spec(spec, configure)
    }

    /// Like [`configure_from_spec`] but arms the process-wide registry, so
    /// the failpoints fire on worker threads too (the farm's
    /// `"farm-worker"` stage needs this).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn configure_from_spec_global(spec: &str) -> Result<(), String> {
        parse_spec(spec, configure_global)
    }

    /// Disarms every failpoint on this thread.
    pub fn clear() {
        REGISTRY.with_borrow_mut(Vec::clear);
    }

    /// Disarms every process-wide failpoint.
    pub fn clear_global() {
        with_global(Vec::clear);
    }

    /// Disarms the process-wide failpoint for `stage` only, leaving other
    /// stages armed — for callers that share the process with other users
    /// of the global registry (parallel tests, for one).
    pub fn clear_global_stage(stage: &str) {
        with_global(|reg| reg.retain(|fp| fp.stage != stage));
    }

    fn consume(reg: &mut [Failpoint], stage: &str) -> Option<FailAction> {
        let fp = reg.iter_mut().find(|fp| fp.stage == stage)?;
        match &mut fp.remaining {
            Some(0) => None,
            Some(n) => {
                *n -= 1;
                Some(fp.action)
            }
            None => Some(fp.action),
        }
    }

    /// Consults the thread-local registry, then the process-wide one, for
    /// `stage`: returns the armed action and consumes one fire, or `None`
    /// when the stage is not armed (or its fire count is spent).
    #[must_use]
    pub fn fire(stage: &str) -> Option<FailAction> {
        REGISTRY
            .with_borrow_mut(|reg| consume(reg, stage))
            .or_else(|| with_global(|reg| consume(reg, stage)))
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::{
    clear, clear_global, clear_global_stage, configure, configure_from_spec,
    configure_from_spec_global, configure_global, fire,
};

#[cfg(not(feature = "failpoints"))]
mod disabled {
    use super::FailAction;

    /// No-op: the `failpoints` feature is disabled.
    pub fn configure(_stage: &str, _action: FailAction, _count: Option<u32>) {}

    /// No-op: the `failpoints` feature is disabled.
    pub fn configure_global(_stage: &str, _action: FailAction, _count: Option<u32>) {}

    /// No-op: the `failpoints` feature is disabled. Specs still parse so
    /// CLI flags behave consistently, but nothing is armed.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn configure_from_spec(_spec: &str) -> Result<(), String> {
        Ok(())
    }

    /// No-op: the `failpoints` feature is disabled.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn configure_from_spec_global(_spec: &str) -> Result<(), String> {
        Ok(())
    }

    /// No-op: the `failpoints` feature is disabled.
    pub fn clear() {}

    /// No-op: the `failpoints` feature is disabled.
    pub fn clear_global() {}

    /// No-op: the `failpoints` feature is disabled.
    pub fn clear_global_stage(_stage: &str) {}

    /// Always `None`: the `failpoints` feature is disabled.
    #[must_use]
    pub fn fire(_stage: &str) -> Option<FailAction> {
        None
    }
}

#[cfg(not(feature = "failpoints"))]
pub use disabled::{
    clear, clear_global, clear_global_stage, configure, configure_from_spec,
    configure_from_spec_global, configure_global, fire,
};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_stage_never_fires() {
        clear();
        assert_eq!(fire("minimize"), None);
    }

    #[test]
    fn counted_fires_are_consumed() {
        clear();
        configure("dfa", FailAction::BudgetExceeded, Some(2));
        assert_eq!(fire("dfa"), Some(FailAction::BudgetExceeded));
        assert_eq!(fire("dfa"), Some(FailAction::BudgetExceeded));
        assert_eq!(fire("dfa"), None);
        clear();
    }

    #[test]
    fn unlimited_fires_until_cleared() {
        clear();
        configure("nfa", FailAction::Error, None);
        for _ in 0..10 {
            assert_eq!(fire("nfa"), Some(FailAction::Error));
        }
        clear();
        assert_eq!(fire("nfa"), None);
    }

    #[test]
    fn spec_parsing() {
        clear();
        configure_from_spec("minimize=budget:1, dfa=error").unwrap();
        assert_eq!(fire("minimize"), Some(FailAction::BudgetExceeded));
        assert_eq!(fire("minimize"), None);
        assert_eq!(fire("dfa"), Some(FailAction::Error));
        assert_eq!(fire("dfa"), Some(FailAction::Error));
        clear();
    }

    #[test]
    fn spec_errors_are_reported() {
        assert!(configure_from_spec("nonsense").is_err());
        assert!(configure_from_spec("stage=explode").is_err());
        assert!(configure_from_spec("stage=budget:lots").is_err());
        assert!(configure_from_spec("=budget").is_err());
        clear();
    }

    #[test]
    fn global_failpoints_fire_on_other_threads() {
        // A stage name no other test uses, so parallel test threads
        // consulting the shared global registry are not perturbed.
        configure_global("global-smoke", FailAction::Error, Some(2));
        let seen = std::thread::spawn(|| fire("global-smoke"))
            .join()
            .expect("worker thread");
        assert_eq!(seen, Some(FailAction::Error));
        assert_eq!(fire("global-smoke"), Some(FailAction::Error));
        assert_eq!(fire("global-smoke"), None);
        // Only this test's stage: a full clear_global would disarm the
        // stage a concurrently running test armed and has not fired yet.
        clear_global_stage("global-smoke");
    }

    #[test]
    fn global_spec_arms_process_wide() {
        configure_from_spec_global("global-spec-smoke=budget:1").unwrap();
        let seen = std::thread::spawn(|| fire("global-spec-smoke"))
            .join()
            .expect("worker thread");
        assert_eq!(seen, Some(FailAction::BudgetExceeded));
        assert_eq!(fire("global-spec-smoke"), None);
        clear_global_stage("global-spec-smoke");
    }

    #[test]
    fn reconfiguring_replaces() {
        clear();
        configure("reduce", FailAction::Error, None);
        configure("reduce", FailAction::BudgetExceeded, Some(1));
        assert_eq!(fire("reduce"), Some(FailAction::BudgetExceeded));
        assert_eq!(fire("reduce"), None);
        clear();
    }
}
