//! Trace digests for experiments.

use std::collections::BTreeMap;
use vsgm_ioa::{SimTime, Trace};
use vsgm_types::{Event, ProcessId, View};

/// Aggregate numbers extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Application sends.
    pub sends: u64,
    /// Application deliveries.
    pub delivers: u64,
    /// View installations (GCS → application), total across processes.
    pub views: u64,
    /// Block requests issued.
    pub blocks: u64,
    /// Block acknowledgements from the application.
    pub block_oks: u64,
    /// Synchronization messages sent (`sync_msg` plus leader-relayed
    /// `sync_agg`), counted once per multicast.
    pub syncs: u64,
    /// Forwarded message copies sent, counted once per multicast.
    pub forwards: u64,
    /// Per-process count of installed views.
    pub views_per_proc: BTreeMap<ProcessId, u64>,
}

impl Summary {
    /// Digests a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut s = Summary::default();
        for e in trace.entries() {
            match &e.event {
                Event::Send { .. } => s.sends += 1,
                Event::Deliver { .. } => s.delivers += 1,
                Event::GcsView { p, .. } => {
                    s.views += 1;
                    *s.views_per_proc.entry(*p).or_insert(0) += 1;
                }
                Event::Block { .. } => s.blocks += 1,
                Event::BlockOk { .. } => s.block_oks += 1,
                Event::NetSend { msg, .. } => match msg.tag() {
                    "sync_msg" | "sync_agg" => s.syncs += 1,
                    "fwd_msg" => s.forwards += 1,
                    _ => {}
                },
                _ => {}
            }
        }
        s
    }
}

/// The simulated time at which every member of `view` had installed it
/// (`None` if someone never did), measured from trace step `from_step`.
pub fn install_completion(trace: &Trace, view: &View, from_step: u64) -> Option<SimTime> {
    let mut latest: Option<SimTime> = None;
    let mut installed = 0usize;
    for e in trace.entries().iter().filter(|e| e.step >= from_step) {
        if let Event::GcsView { view: v, .. } = &e.event {
            if v == view {
                installed += 1;
                latest = Some(latest.map_or(e.time, |t: SimTime| t.max(e.time)));
            }
        }
    }
    (installed == view.len()).then(|| latest.expect("installed > 0"))
}

/// The step of the first event matching `pred` at or after `from_step`.
pub fn first_step_where(
    trace: &Trace,
    from_step: u64,
    mut pred: impl FnMut(&Event) -> bool,
) -> Option<u64> {
    trace
        .entries()
        .iter()
        .filter(|e| e.step >= from_step)
        .find(|e| pred(&e.event))
        .map(|e| e.step)
}

/// Counts application deliveries in the step window `[lo, hi)`.
pub fn deliveries_in_window(trace: &Trace, lo: u64, hi: u64) -> u64 {
    trace
        .entries()
        .iter()
        .filter(|e| e.step >= lo && e.step < hi && matches!(e.event, Event::Deliver { .. }))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::{AppMsg, ProcSet};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample() -> (Trace, View) {
        let mut t = Trace::new();
        let v = View::initial(p(1));
        t.record(SimTime::from_micros(1), Event::Send { p: p(1), msg: AppMsg::from("a") });
        t.record(
            SimTime::from_micros(2),
            Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("a") },
        );
        t.record(SimTime::from_micros(3), Event::Block { p: p(1) });
        t.record(SimTime::from_micros(4), Event::BlockOk { p: p(1) });
        t.record(
            SimTime::from_micros(5),
            Event::NetSend {
                p: p(1),
                set: ProcSet::new(),
                msg: vsgm_types::NetMsg::Sync(vsgm_types::SyncPayload {
                    cid: vsgm_types::StartChangeId::ZERO,
                    view: Some(v.clone()),
                    cut: vsgm_types::Cut::new(),
                }),
            },
        );
        t.record(
            SimTime::from_micros(6),
            Event::NetSend {
                p: p(1),
                set: ProcSet::new(),
                msg: vsgm_types::NetMsg::Fwd(vsgm_types::FwdPayload {
                    origin: p(1),
                    view: v.clone(),
                    index: 0,
                    msg: AppMsg::from("a"),
                }),
            },
        );
        t.record(
            SimTime::from_micros(9),
            Event::GcsView { p: p(1), view: v.clone(), transitional: ProcSet::new() },
        );
        (t, v)
    }

    #[test]
    fn summary_counts() {
        let (t, _) = sample();
        let s = Summary::from_trace(&t);
        assert_eq!(s.sends, 1);
        assert_eq!(s.delivers, 1);
        assert_eq!(s.views, 1);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.block_oks, 1);
        assert_eq!(s.syncs, 1);
        assert_eq!(s.forwards, 1);
        assert_eq!(s.views_per_proc[&p(1)], 1);
    }

    #[test]
    fn install_completion_none_when_a_member_never_installs() {
        // A two-member view of which only p1 records an install: the
        // completion time is undefined.
        let v2 = View::new(
            vsgm_types::ViewId::new(1, 1),
            [p(1), p(2)],
            [
                (p(1), vsgm_types::StartChangeId::new(1)),
                (p(2), vsgm_types::StartChangeId::new(1)),
            ],
        );
        let mut t = Trace::new();
        t.record(
            SimTime::from_micros(4),
            Event::GcsView { p: p(1), view: v2.clone(), transitional: ProcSet::new() },
        );
        assert_eq!(install_completion(&t, &v2, 0), None);
        // Once p2 installs too, completion is the later of the two times.
        t.record(
            SimTime::from_micros(7),
            Event::GcsView { p: p(2), view: v2.clone(), transitional: ProcSet::new() },
        );
        assert_eq!(install_completion(&t, &v2, 0), Some(SimTime::from_micros(7)));
    }

    #[test]
    fn journal_and_trace_digests_agree_on_a_real_run() {
        use crate::sim::{procs, procs_of, Sim, SimOptions};
        use vsgm_obs::names;
        let mut sim =
            Sim::new_paper(3, vsgm_core::Config::default(), SimOptions::default());
        sim.enable_obs();
        sim.reconfigure(&procs(3));
        sim.send(p(1), AppMsg::from("m1"));
        sim.send(p(2), AppMsg::from("m2"));
        sim.run_to_quiescence();
        sim.reconfigure(&procs_of(&[1, 2]));
        sim.run_to_quiescence();
        let reg = sim.take_obs().expect("obs on");
        let s = Summary::from_trace(sim.trace());
        // The trace's digest and the end-points' registry counts agree:
        // one record per fact, two readings of it.
        let counted = [
            names::EP_MSGS_SENT,
            names::EP_MSGS_DELIVERED,
            names::EP_VIEWS_INSTALLED,
            names::EP_BLOCKS,
            names::EP_SYNCS_SENT,
            names::EP_FORWARDS_SENT,
        ]
        .map(|n| reg.counter(n));
        assert_eq!(counted, [s.sends, s.delivers, s.views, s.blocks, s.syncs, s.forwards]);
        assert!(s.syncs > 0, "view changes must sync: {s:?}");
        assert!(s.views > 0);
    }

    #[test]
    fn install_completion_time() {
        let (t, v) = sample();
        assert_eq!(install_completion(&t, &v, 0), Some(SimTime::from_micros(9)));
        // From a step after the install: nobody installs ⇒ None.
        assert_eq!(install_completion(&t, &v, 7), None);
    }

    #[test]
    fn window_counting() {
        let (t, _) = sample();
        assert_eq!(deliveries_in_window(&t, 0, 4), 1);
        assert_eq!(deliveries_in_window(&t, 2, 4), 0);
        assert_eq!(
            first_step_where(&t, 0, |e| matches!(e, Event::Block { .. })),
            Some(2)
        );
    }
}
