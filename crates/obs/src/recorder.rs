//! The recording interface threaded through the protocol layers.

use crate::event::{ObsEvent, ObsRecord};
use crate::journal::Journal;
use crate::registry::{names, Registry};
use vsgm_ioa::SimTime;
use vsgm_types::{ProcessId, StartChangeId};

/// Sink for protocol observations.
///
/// Every method has a no-op default body, so the disabled path (the
/// [`NoopRecorder`]) costs a virtual call that immediately returns — no
/// allocation, no formatting, no branching in the instrumented layers.
/// Instrumented code takes `&mut dyn Recorder` and calls unconditionally.
pub trait Recorder {
    /// Advances the recorder's notion of simulated time; subsequent
    /// events are stamped with `now`. Called by the simulation driver —
    /// the protocol automata themselves are time-free.
    fn advance_time(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Records a protocol event at `pid`, grouped into the view-change
    /// span `cid` when applicable.
    fn event(&mut self, pid: ProcessId, cid: Option<StartChangeId>, event: ObsEvent) {
        let _ = (pid, cid, event);
    }

    /// Adds `delta` to the counter `name`.
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value`.
    fn gauge(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Records `value` into the histogram `name`.
    fn observe(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Accounts one point-to-point send of `bytes` wire bytes of a
    /// message with `tag`.
    fn traffic(&mut self, tag: &'static str, bytes: u64) {
        let _ = (tag, bytes);
    }
}

/// The disabled recorder: every hook inherits the empty default body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A bare [`Registry`] is a metrics-only recorder: events bump their
/// counters, but no journal is kept and time is ignored.
impl Recorder for Registry {
    fn event(&mut self, _pid: ProcessId, _cid: Option<StartChangeId>, event: ObsEvent) {
        self.incr(event.counter_name(), 1);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.incr(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        self.set_gauge(name, value);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        Registry::observe(self, name, value);
    }

    fn traffic(&mut self, tag: &'static str, bytes: u64) {
        self.record_traffic(tag, bytes);
    }
}

/// The enabled recorder: appends every event to a [`Journal`], mirrors
/// events and metrics into a [`Registry`], and derives span metrics
/// (sync-round latency) as spans close.
#[derive(Debug, Clone, Default)]
pub struct ObsRecorder {
    journal: Journal,
    registry: Registry,
    now: SimTime,
    step: u64,
    open_spans: std::collections::BTreeMap<(ProcessId, StartChangeId), SimTime>,
}

impl ObsRecorder {
    /// Creates an empty recorder at time zero.
    pub fn new() -> Self {
        ObsRecorder::default()
    }

    /// The recorded journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The recorder's current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl Recorder for ObsRecorder {
    fn advance_time(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    fn event(&mut self, pid: ProcessId, cid: Option<StartChangeId>, event: ObsEvent) {
        let step = self.step;
        self.step += 1;
        self.journal.push(ObsRecord { pid, step, time: self.now, cid, event });
        self.registry.incr(event.counter_name(), 1);
        if let Some(c) = cid {
            // Exhaustive over the observability vocabulary: each variant
            // either opens (or extends) the view-change span keyed by its
            // cid, or closes it. A new variant must decide its role here.
            match event {
                ObsEvent::ViewInstalled => {
                    // Close the span: derive the sync-round latency. The
                    // open time falls back to the install time itself for
                    // spans whose opening was never observed (e.g. a
                    // recorder attached mid-run).
                    let opened = self.open_spans.remove(&(pid, c)).unwrap_or(self.now);
                    self.registry.observe(
                        names::SYNC_ROUND_LATENCY_US,
                        self.now.saturating_sub(opened).as_micros(),
                    );
                }
                ObsEvent::StartChangeRecv
                | ObsEvent::SyncSent
                | ObsEvent::SyncRecv
                | ObsEvent::CutAgreed
                | ObsEvent::BlockRequested
                | ObsEvent::BlockOk
                | ObsEvent::ForwardSent
                | ObsEvent::MsgSent
                | ObsEvent::MsgDelivered
                | ObsEvent::RecoveryReset
                | ObsEvent::BatchFlushed
                | ObsEvent::InvariantViolated
                | ObsEvent::CorruptionInjected
                | ObsEvent::AuditFailed
                | ObsEvent::AuditReconciled => {
                    self.open_spans.entry((pid, c)).or_insert(self.now);
                }
            }
        }
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.registry.incr(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        self.registry.set_gauge(name, value);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.registry.observe(name, value);
    }

    fn traffic(&mut self, tag: &'static str, bytes: u64) {
        self.registry.record_traffic(tag, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let mut r = NoopRecorder;
        r.advance_time(SimTime::from_micros(5));
        r.event(p(1), None, ObsEvent::MsgSent);
        r.counter("x", 1);
        r.traffic("app_msg", 10);
    }

    #[test]
    fn obs_recorder_stamps_time_and_steps() {
        let mut r = ObsRecorder::new();
        r.advance_time(SimTime::from_micros(3));
        r.event(p(1), None, ObsEvent::MsgSent);
        r.advance_time(SimTime::from_micros(9));
        r.event(p(2), None, ObsEvent::MsgDelivered);
        let recs = r.journal().records();
        assert_eq!(recs[0].step, 0);
        assert_eq!(recs[1].step, 1);
        assert_eq!(recs[0].time, SimTime::from_micros(3));
        assert_eq!(recs[1].time, SimTime::from_micros(9));
        assert_eq!(r.registry().counter(ObsEvent::MsgSent.counter_name()), 1);
    }

    #[test]
    fn time_never_moves_backwards() {
        let mut r = ObsRecorder::new();
        r.advance_time(SimTime::from_micros(10));
        r.advance_time(SimTime::from_micros(4));
        assert_eq!(r.now(), SimTime::from_micros(10));
    }

    #[test]
    fn invariant_violation_is_journalled_and_counted() {
        let mut r = ObsRecorder::new();
        let cid = Some(StartChangeId::new(7));
        r.event(p(1), cid, ObsEvent::InvariantViolated);
        assert_eq!(r.journal().count(ObsEvent::InvariantViolated), 1);
        assert_eq!(
            r.registry().counter(ObsEvent::InvariantViolated.counter_name()),
            1
        );
        // A violation observed during a change opens the span (so the
        // journal shows which round went wrong) without closing it.
        let h = r.registry().histogram(names::SYNC_ROUND_LATENCY_US);
        assert!(h.is_none_or(|h| h.count() == 0));
    }

    #[test]
    fn span_close_derives_sync_round_latency() {
        let mut r = ObsRecorder::new();
        let cid = Some(StartChangeId::new(1));
        r.advance_time(SimTime::from_micros(100));
        r.event(p(1), cid, ObsEvent::StartChangeRecv);
        r.event(p(1), cid, ObsEvent::SyncSent);
        r.advance_time(SimTime::from_micros(250));
        r.event(p(1), cid, ObsEvent::ViewInstalled);
        let h = r.registry().histogram(names::SYNC_ROUND_LATENCY_US).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 150);
        let spans = r.journal().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].latency(), Some(SimTime::from_micros(150)));
    }
}
