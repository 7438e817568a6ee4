//! `SELF:SPEC` — the Self Delivery property (Fig. 7).

use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Event, ProcessId, VecMap};

/// Checker for the Self Delivery safety property (Fig. 7): an end-point
/// must not install a new view before delivering to its own application
/// every message that application sent in the current view
/// (`last_dlvrd[p][p] = LastIndexOf(msgs[p][current_view[p]])`).
#[derive(Debug, Default)]
pub struct SelfDeliverySpec {
    /// Messages sent by `p` in its current view.
    sent: VecMap<ProcessId, u64>,
    /// Own messages delivered back to `p` in its current view.
    delivered_own: VecMap<ProcessId, u64>,
}

impl SelfDeliverySpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        SelfDeliverySpec::default()
    }
}

impl Checker for SelfDeliverySpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        match &entry.event {
            Event::Send { p, .. } => {
                *self.sent.entry(*p).or_insert(0) += 1;
                Ok(())
            }
            Event::Deliver { p, q, .. } if p == q => {
                *self.delivered_own.entry(*p).or_insert(0) += 1;
                Ok(())
            }
            Event::GcsView { p, view, .. } => {
                let sent = self.sent.get(p).copied().unwrap_or(0);
                let dlvrd = self.delivered_own.get(p).copied().unwrap_or(0);
                if sent != dlvrd {
                    return Err(Violation::at_step(
                        "SELF:SPEC",
                        entry.step,
                        format!(
                            "view_{p}({view}): Self Delivery violated, {p} sent {sent} \
                             messages in its current view but self-delivered only {dlvrd}"
                        ),
                    ));
                }
                self.sent.insert(*p, 0);
                self.delivered_own.insert(*p, 0);
                Ok(())
            }
            Event::Recover { p } => {
                // Fresh incarnation: counters restart (§8).
                self.sent.insert(*p, 0);
                self.delivered_own.insert(*p, 0);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{AppMsg, StartChangeId, View, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn view(epoch: u64) -> View {
        View::new(ViewId::new(epoch, 0), [p(1)], [(p(1), StartChangeId::new(epoch))])
    }

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = SelfDeliverySpec::new();
        trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect()
    }

    #[test]
    fn view_after_self_delivery_accepted() {
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("a") },
            Event::GcsView { p: p(1), view: view(1), transitional: Default::default() },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn view_with_undelivered_own_message_rejected() {
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            Event::GcsView { p: p(1), view: view(1), transitional: Default::default() },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("Self Delivery"), "{violations:?}");
    }

    #[test]
    fn counters_reset_on_view() {
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("a") },
            Event::GcsView { p: p(1), view: view(1), transitional: Default::default() },
            Event::Send { p: p(1), msg: AppMsg::from("b") },
            Event::Deliver { p: p(1), q: p(1), msg: AppMsg::from("b") },
            Event::GcsView { p: p(1), view: view(2), transitional: Default::default() },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn other_processes_deliveries_do_not_count() {
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            Event::Deliver { p: p(2), q: p(1), msg: AppMsg::from("a") },
            Event::GcsView { p: p(1), view: view(1), transitional: Default::default() },
        ]);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn recovery_clears_pending_obligation() {
        // Messages sent before a crash need not be self-delivered by the
        // fresh incarnation (§8 — no stable storage).
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("lost") },
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            Event::GcsView { p: p(1), view: view(1), transitional: Default::default() },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
