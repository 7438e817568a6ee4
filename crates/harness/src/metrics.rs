//! Trace queries for experiments.

use vsgm_ioa::{SimTime, Trace};
use vsgm_types::{Event, View};

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
    trace.entries().iter().filter(|e| e.step >= from_step).find(|e| pred(&e.event)).map(|e| e.step)
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
    use vsgm_types::{AppMsg, ProcSet, ProcessId};

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
    fn install_completion_none_when_a_member_never_installs() {
        // A two-member view of which only p1 records an install: the
        // completion time is undefined.
        let v2 = View::new(
            vsgm_types::ViewId::new(1, 1),
            [p(1), p(2)],
            [(p(1), vsgm_types::StartChangeId::new(1)), (p(2), vsgm_types::StartChangeId::new(1))],
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
        assert_eq!(first_step_where(&t, 0, |e| matches!(e, Event::Block { .. })), Some(2));
    }
}
