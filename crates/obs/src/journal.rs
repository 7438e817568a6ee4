//! View-change spans, folded over a trace.

use std::collections::BTreeMap;
use vsgm_ioa::{SimTime, TraceEntry};
use vsgm_types::{Event, NetMsg, ProcessId, StartChangeId};

/// One view-change span at one end-point: opened by
/// `MbrshpStartChange{p, cid}`, closed by `p`'s next `GcsView`.
///
/// `StartChangeId`s are only *locally* unique (§3.1), so the span key is
/// the pair `(pid, cid)`. A cascaded start_change opens a new span and
/// leaves the one it supersedes open for good — an obsolete view proposal
/// the algorithm skipped — and so does a `Crash` of `pid` mid-change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeSpan {
    /// End-point the span belongs to.
    pub pid: ProcessId,
    /// The local start-change id keying the span.
    pub cid: StartChangeId,
    /// Trace step of the opening `MbrshpStartChange`.
    pub start_step: u64,
    /// Simulated time of the opening `MbrshpStartChange`.
    pub start_time: SimTime,
    /// Trace step of the closing `GcsView`, if the span completed.
    pub installed_step: Option<u64>,
    /// Simulated time of the closing `GcsView`, if the span completed.
    pub installed_time: Option<SimTime>,
    /// Synchronization messages this end-point sent within the span:
    /// one per distinct cid, however many frames carried it.
    pub syncs_sent: u64,
    /// Peer synchronization messages this end-point received within the
    /// span (each entry from another sender in a `sync_agg` counts).
    pub syncs_recv: u64,
    /// Block requests issued within the span.
    pub blocks: u64,
}

impl ViewChangeSpan {
    /// Whether the span closed with a view install.
    pub fn complete(&self) -> bool {
        self.installed_time.is_some()
    }

    /// The sync-round latency `start_change → view install` (`None` while
    /// the span is open).
    pub fn latency(&self) -> Option<SimTime> {
        self.installed_time.map(|t| t.saturating_sub(self.start_time))
    }
}

/// A process's open span: its index in the fold's output, and the cid of
/// the last own sync counted into it.
struct Open {
    span: usize,
    synced: Option<StartChangeId>,
}

/// Every view-change span in `entries`, in order of opening.
///
/// A sync counts as sent by `p` when `p` multicasts it: a `sync_msg`
/// `NetSend` — slim sync sends two frames per sync, counted once — or,
/// at a §9 aggregation leader, the `sync_agg` `NetSend` carrying its own
/// entry. A sync with no destination — a change to `p` alone, or a
/// leader's buffered sync it never flushed — is no send, and is not
/// counted. A sync counts as received by `p` on a `NetDeliver` to `p`.
/// Either counts only while `p` has a span open, as does a `Block`.
pub fn spans<'a>(entries: impl IntoIterator<Item = &'a TraceEntry>) -> Vec<ViewChangeSpan> {
    let mut spans: Vec<ViewChangeSpan> = Vec::new();
    let mut open: BTreeMap<ProcessId, Open> = BTreeMap::new();
    for e in entries {
        match &e.event {
            Event::MbrshpStartChange { p, cid, .. } => {
                open.insert(*p, Open { span: spans.len(), synced: None });
                spans.push(ViewChangeSpan {
                    pid: *p,
                    cid: *cid,
                    start_step: e.step,
                    start_time: e.time,
                    installed_step: None,
                    installed_time: None,
                    syncs_sent: 0,
                    syncs_recv: 0,
                    blocks: 0,
                });
            }
            Event::GcsView { p, .. } => {
                if let Some(s) = open.remove(p).and_then(|o| spans.get_mut(o.span)) {
                    s.installed_step = Some(e.step);
                    s.installed_time = Some(e.time);
                }
            }
            Event::Crash { p } => {
                open.remove(p);
            }
            Event::Block { p } => {
                if let Some(s) = open.get(p).and_then(|o| spans.get_mut(o.span)) {
                    s.blocks += 1;
                }
            }
            Event::NetSend { p, msg, .. } => {
                let own = match msg {
                    NetMsg::Sync(payload) => Some(payload.cid),
                    NetMsg::SyncAgg(entries) => {
                        entries.iter().find(|(sender, _)| sender == p).map(|(_, pl)| pl.cid)
                    }
                    _ => None,
                };
                if let (Some(cid), Some(o)) = (own, open.get_mut(p)) {
                    if o.synced != Some(cid) {
                        o.synced = Some(cid);
                        if let Some(s) = spans.get_mut(o.span) {
                            s.syncs_sent += 1;
                        }
                    }
                }
            }
            Event::NetDeliver { q, msg, .. } => {
                let n = match msg {
                    NetMsg::Sync(_) => 1,
                    NetMsg::SyncAgg(entries) => {
                        entries.iter().filter(|(sender, _)| sender != q).count() as u64
                    }
                    _ => 0,
                };
                if let Some(s) = open.get(q).and_then(|o| spans.get_mut(o.span)) {
                    s.syncs_recv += n;
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::Trace;
    use vsgm_types::{Cut, ProcSet, SyncPayload, View};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn start(p: ProcessId, cid: u64) -> Event {
        Event::MbrshpStartChange { p, cid: StartChangeId::new(cid), set: ProcSet::new() }
    }

    fn install(p: ProcessId) -> Event {
        Event::GcsView { p, view: View::initial(p), transitional: ProcSet::new() }
    }

    fn sync(cid: u64) -> NetMsg {
        NetMsg::Sync(SyncPayload { cid: StartChangeId::new(cid), view: None, cut: Cut::new() })
    }

    fn trace(events: impl IntoIterator<Item = (u64, Event)>) -> Trace {
        let mut t = Trace::new();
        for (us, e) in events {
            t.record(SimTime::from_micros(us), e);
        }
        t
    }

    #[test]
    fn spans_open_close_and_count() {
        let t = trace([
            (10, start(p(1), 1)),
            (11, Event::Block { p: p(1) }),
            (12, Event::NetSend { p: p(1), set: ProcSet::new(), msg: sync(1) }),
            // Slim sync's second frame is the same sync.
            (12, Event::NetSend { p: p(1), set: ProcSet::new(), msg: sync(1) }),
            (20, Event::NetDeliver { p: p(2), q: p(1), msg: sync(3) }),
            (21, install(p(1))),
            (30, Event::NetDeliver { p: p(2), q: p(1), msg: sync(3) }),
        ]);
        let spans = spans(t.entries());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.complete());
        assert_eq!((s.start_step, s.installed_step), (0, Some(5)));
        assert_eq!(s.latency(), Some(SimTime::from_micros(11)));
        assert_eq!((s.syncs_sent, s.syncs_recv, s.blocks), (1, 1, 1));
    }

    #[test]
    fn cascaded_start_changes_leave_incomplete_spans() {
        let t = trace([(0, start(p(1), 1)), (5, start(p(1), 2)), (9, install(p(1)))]);
        let spans = spans(t.entries());
        assert_eq!(spans.len(), 2);
        assert!(!spans[0].complete() && spans[0].latency().is_none());
        assert_eq!(spans[1].latency(), Some(SimTime::from_micros(4)));
    }

    #[test]
    fn spans_are_keyed_per_process() {
        let t = trace([(0, start(p(1), 1)), (0, start(p(2), 1)), (7, install(p(1)))]);
        let spans = spans(t.entries());
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].pid, spans[0].complete()), (p(1), true));
        assert_eq!((spans[1].pid, spans[1].complete()), (p(2), false));
    }

    #[test]
    fn an_aggregation_leader_sends_its_sync_inside_its_sync_agg() {
        let payload =
            |cid| SyncPayload { cid: StartChangeId::new(cid), view: None, cut: Cut::new() };
        let agg = NetMsg::SyncAgg(vec![(p(1), payload(1)), (p(2), payload(4))]);
        let t = trace([
            (0, start(p(1), 1)),
            (0, start(p(3), 2)),
            (1, Event::NetSend { p: p(1), set: ProcSet::new(), msg: agg.clone() }),
            (2, Event::NetDeliver { p: p(1), q: p(3), msg: agg }),
        ]);
        let spans = spans(t.entries());
        assert_eq!((spans[0].syncs_sent, spans[0].syncs_recv), (1, 0));
        assert_eq!((spans[1].syncs_sent, spans[1].syncs_recv), (0, 2));
    }

    #[test]
    fn json_lines_roundtrip_shape() {
        let t = trace([(3, start(p(1), 4)), (8, install(p(1)))]);
        let back = Trace::from_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!(spans(back.entries()), spans(t.entries()));
        assert_eq!(spans(back.entries())[0].latency(), Some(SimTime::from_micros(5)));
    }
}
