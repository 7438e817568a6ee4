//! Recorded execution traces of external actions.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use vsgm_types::{Event, ProcessId};

/// One step of an execution trace: an external action, the step counter at
/// which it occurred, and the simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Global step counter (total order over all events in the run).
    pub step: u64,
    /// Simulated time at which the action occurred.
    pub time: SimTime,
    /// The external action.
    pub event: Event,
}

/// A global execution trace: the totally ordered sequence of external
/// actions a run produced (§2, "a trace is a subsequence of an execution
/// consisting solely of the automaton's external actions").
///
/// ```
/// use vsgm_ioa::{Trace, SimTime};
/// use vsgm_types::{Event, ProcessId, AppMsg};
///
/// let mut t = Trace::new();
/// t.record(SimTime::ZERO, Event::Send { p: ProcessId::new(1), msg: AppMsg::from("m") });
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.entries()[0].step, 0);
/// ```
///
/// A long-lived host can hand the recorded entries over with
/// [`Trace::drain`] and keep recording: step numbers and [`Trace::len`]
/// stay absolute, while [`Trace::entries`] and everything derived from it
/// cover the entries since the last drain — the whole run for a trace
/// nobody drains.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Entries recorded since the last drain.
    entries: Vec<TraceEntry>,
    /// Entries handed over by [`Trace::drain`] so far: the step of
    /// `entries[0]`.
    base: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event at the given simulated time, assigning the next
    /// step number, and returns the entry's step.
    pub fn record(&mut self, time: SimTime, event: Event) -> u64 {
        let step = self.len() as u64;
        self.entries.push(TraceEntry { step, time, event });
        step
    }

    /// The entries recorded since the last [`Trace::drain`], in order
    /// (all of them if the trace was never drained).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of events recorded over the whole run, drained ones
    /// included: the step the next entry gets.
    pub fn len(&self) -> usize {
        self.base as usize + self.entries.len()
    }

    /// Whether nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands the retained entries over, oldest first, and keeps counting:
    /// the next recorded entry continues the step numbering. The buffer's
    /// allocation is kept for the next burst.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TraceEntry> {
        self.base += self.entries.len() as u64;
        self.entries.drain(..)
    }

    /// Projection onto the actions of a single process (the per-process
    /// subsequence used by local properties such as Local Monotonicity).
    pub fn at_process(&self, p: ProcessId) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter().filter(move |e| e.event.process() == p)
    }

    /// Projection onto the application-facing interface (what remains
    /// visible after the §5 composition hides internal actions).
    pub fn application_facing(&self) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter().filter(|e| e.event.is_application_facing())
    }

    /// Counts retained events per [`Event::kind`] name.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for e in &self.entries {
            *out.entry(e.event.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Serializes the retained entries as JSON lines (one entry per
    /// line), suitable for archiving failing runs.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&serde_json::to_string(e).expect("trace entries are serializable"));
            out.push('\n');
        }
        out
    }

    /// Parses a trace back from [`Trace::to_json_lines`] output. Step
    /// numbering continues from the first parsed entry, so a piece of a
    /// drained trace reloads with its absolute positions.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if any line fails to parse.
    pub fn from_json_lines(s: &str) -> Result<Trace, serde_json::Error> {
        let mut entries: Vec<TraceEntry> = Vec::new();
        for line in s.lines().filter(|l| !l.trim().is_empty()) {
            entries.push(serde_json::from_str(line)?);
        }
        let base = entries.first().map_or(0, |e| e.step);
        Ok(Trace { entries, base })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::{AppMsg, View};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, Event::Send { p: p(1), msg: AppMsg::from("a") });
        t.record(
            SimTime::from_micros(3),
            Event::Deliver { p: p(2), q: p(1), msg: AppMsg::from("a") },
        );
        t.record(SimTime::from_micros(5), Event::Live { p: p(1), set: Default::default() });
        t
    }

    #[test]
    fn record_assigns_sequential_steps() {
        let t = sample_trace();
        let steps: Vec<u64> = t.entries().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn drain_hands_entries_over_and_steps_continue() {
        let mut t = sample_trace();
        let drained: Vec<TraceEntry> = t.drain().collect();
        assert_eq!(drained.iter().map(|e| e.step).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(t.entries().is_empty());
        assert_eq!(t.len(), 3, "len stays absolute");
        let step = t.record(SimTime::from_micros(7), Event::Crash { p: p(2) });
        assert_eq!(step, 3);
        assert_eq!(t.entries()[0].step, 3);
        // A drained piece reloads at its absolute position.
        let piece = Trace::from_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!((piece.len(), piece.entries().len()), (4, 1));
    }

    #[test]
    fn process_projection() {
        let t = sample_trace();
        let at1: Vec<_> = t.at_process(p(1)).collect();
        assert_eq!(at1.len(), 2); // Send + Live
        let at2: Vec<_> = t.at_process(p(2)).collect();
        assert_eq!(at2.len(), 1); // Deliver occurs at the receiver
    }

    #[test]
    fn application_projection_hides_net_events() {
        let t = sample_trace();
        let app: Vec<_> = t.application_facing().collect();
        assert_eq!(app.len(), 2);
    }

    #[test]
    fn kind_counts_tally() {
        let t = sample_trace();
        let counts = t.kind_counts();
        assert_eq!(counts["send"], 1);
        assert_eq!(counts["deliver"], 1);
        assert_eq!(counts["co_rfifo.live"], 1);
    }

    #[test]
    fn json_lines_roundtrip() {
        let mut t = sample_trace();
        t.record(
            SimTime::from_micros(9),
            Event::GcsView { p: p(1), view: View::initial(p(1)), transitional: Default::default() },
        );
        let s = t.to_json_lines();
        let back = Trace::from_json_lines(&s).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.entries()[3].event, t.entries()[3].event);
    }

    #[test]
    fn from_json_lines_skips_blank_lines() {
        let t = sample_trace();
        let padded = format!("\n{}\n\n", t.to_json_lines());
        assert_eq!(Trace::from_json_lines(&padded).unwrap().len(), 3);
    }

    #[test]
    fn from_json_lines_rejects_garbage() {
        assert!(Trace::from_json_lines("not json").is_err());
    }
}
