//! Trace checkers: executable counterparts of the paper's specification
//! automata.
//!
//! A [`Checker`] replays a global trace against a centralized spec
//! automaton (Figs. 2–7). For each observed external action it verifies
//! that a corresponding spec transition is enabled and applies its effect;
//! if no transition is enabled the trace is **not** a trace of the spec and
//! a [`Violation`] is reported. This turns the paper's refinement proofs
//! into a model-based testing oracle.

use crate::trace::TraceEntry;
use std::fmt;

/// A safety (or end-of-run liveness) violation found by a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the spec automaton the trace violates, e.g.
    /// `"WV_RFIFO:SPEC"`; one checker may judge several.
    pub checker: String,
    /// Step at which the violation occurred (`None` for end-of-run checks).
    pub step: Option<u64>,
    /// Human-readable description: which precondition failed and why.
    pub message: String,
}

impl Violation {
    /// Creates a violation tied to a specific trace step.
    pub fn at_step(checker: &str, step: u64, message: impl Into<String>) -> Self {
        Violation { checker: checker.to_string(), step: Some(step), message: message.into() }
    }

    /// Creates an end-of-run violation (used by liveness checks).
    pub fn at_end(checker: &str, message: impl Into<String>) -> Self {
        Violation { checker: checker.to_string(), step: None, message: message.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(s) => write!(f, "[{}] step {}: {}", self.checker, s, self.message),
            None => write!(f, "[{}] end of run: {}", self.checker, self.message),
        }
    }
}

impl std::error::Error for Violation {}

/// A spec automaton replayed over a trace.
///
/// Implementations keep the spec's state; [`Checker::observe`] attempts the
/// spec transition matching the event and errors if it is not enabled.
/// [`Checker::finish`] runs once at the end of the trace, for properties
/// that can only be judged on the complete run (transitional-set
/// consistency, liveness under stabilization).
pub trait Checker {
    /// Observes one trace entry.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] if no spec transition is enabled for the
    /// event in the checker's current state.
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation>;

    /// Judges end-of-trace conditions.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] if a whole-run property fails.
    fn finish(&mut self) -> Result<(), Violation> {
        Ok(())
    }
}

/// Runs a set of checkers over a trace, collecting every violation.
#[derive(Default)]
pub struct CheckSet {
    checkers: Vec<Box<dyn Checker>>,
    violations: Vec<Violation>,
}

impl CheckSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CheckSet::default()
    }

    /// Adds a checker.
    pub fn add(&mut self, checker: impl Checker + 'static) -> &mut Self {
        self.checkers.push(Box::new(checker));
        self
    }

    /// Adds a checker mid-run, first replaying the already-recorded
    /// `entries` into it (violations found during replay are retained).
    /// This makes attach time irrelevant: the checker judges the whole
    /// trace as if it had been present from the start.
    pub fn add_with_history(
        &mut self,
        mut checker: impl Checker + 'static,
        entries: &[TraceEntry],
    ) -> &mut Self {
        for e in entries {
            if let Err(v) = checker.observe(e) {
                self.violations.push(v);
            }
        }
        self.checkers.push(Box::new(checker));
        self
    }

    /// Feeds one entry to every checker, retaining violations.
    pub fn observe(&mut self, entry: &TraceEntry) {
        for c in &mut self.checkers {
            if let Err(v) = c.observe(entry) {
                self.violations.push(v);
            }
        }
    }

    /// Runs the end-of-trace checks.
    pub fn finish(&mut self) {
        for c in &mut self.checkers {
            if let Err(v) = c.finish() {
                self.violations.push(v);
            }
        }
    }

    /// Replays an entire trace (observe every entry, then finish) and
    /// returns all violations found.
    pub fn run(&mut self, entries: &[TraceEntry]) -> &[Violation] {
        for e in entries {
            self.observe(e);
        }
        self.finish();
        self.violations()
    }

    /// Violations accumulated so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no checker has rejected the trace.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable report if any violation was found. Intended
    /// for tests.
    ///
    /// # Panics
    ///
    /// Panics if violations were recorded.
    #[track_caller]
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let report: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            panic!("spec violations:\n{}", report.join("\n"));
        }
    }
}

impl fmt::Debug for CheckSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckSet")
            .field("checkers", &self.checkers.len())
            .field("violations", &self.violations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use vsgm_types::{AppMsg, Event, ProcessId};

    /// Toy checker: rejects any trace with more than `limit` sends.
    struct MaxSends {
        limit: usize,
        seen: usize,
    }

    const MAX_SENDS: &str = "MAX_SENDS";

    impl Checker for MaxSends {
        fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
            if matches!(entry.event, Event::Send { .. }) {
                self.seen += 1;
                if self.seen > self.limit {
                    return Err(Violation::at_step(MAX_SENDS, entry.step, "too many sends"));
                }
            }
            Ok(())
        }
        fn finish(&mut self) -> Result<(), Violation> {
            if self.seen == 0 {
                return Err(Violation::at_end(MAX_SENDS, "no sends at all"));
            }
            Ok(())
        }
    }

    fn send_entry(step: u64) -> TraceEntry {
        TraceEntry {
            step,
            time: SimTime::ZERO,
            event: Event::Send { p: ProcessId::new(1), msg: AppMsg::from("x") },
        }
    }

    #[test]
    fn clean_run() {
        let mut set = CheckSet::new();
        set.add(MaxSends { limit: 2, seen: 0 });
        set.run(&[send_entry(0), send_entry(1)]);
        assert!(set.is_clean());
        set.assert_clean();
    }

    #[test]
    fn violation_is_reported_with_step() {
        let mut set = CheckSet::new();
        set.add(MaxSends { limit: 1, seen: 0 });
        let violations = set.run(&[send_entry(0), send_entry(1)]).to_vec();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].step, Some(1));
        assert!(violations[0].to_string().contains("MAX_SENDS"));
    }

    #[test]
    fn finish_violation_has_no_step() {
        let mut set = CheckSet::new();
        set.add(MaxSends { limit: 1, seen: 0 });
        set.run(&[]);
        assert_eq!(set.violations()[0].step, None);
        assert!(set.violations()[0].to_string().contains("end of run"));
    }

    #[test]
    #[should_panic(expected = "spec violations")]
    fn assert_clean_panics_on_violation() {
        let mut set = CheckSet::new();
        set.add(MaxSends { limit: 0, seen: 0 });
        set.run(&[send_entry(0)]);
        set.assert_clean();
    }

    #[test]
    fn multiple_checkers_all_observe() {
        let mut set = CheckSet::new();
        set.add(MaxSends { limit: 0, seen: 0 });
        set.add(MaxSends { limit: 10, seen: 0 });
        set.run(&[send_entry(0)]);
        // First checker trips, second stays clean.
        assert_eq!(set.violations().len(), 1);
    }
}
