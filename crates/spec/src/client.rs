//! `CLIENT:SPEC` — the blocking application client (Fig. 12) and the
//! block-handshake discipline of the `GCS` automaton (Fig. 11).

use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Event, ProcessId, VecMap};

/// Block-handshake status, shared between a GCS end-point and its client
/// (they agree on it — Invariant 6.11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BlockStatus {
    #[default]
    Unblocked,
    Requested,
    Blocked,
}

/// Checker for the blocking-client contract:
///
/// * `block_p()` is only issued while `block_status = unblocked`
///   (Fig. 11 precondition);
/// * `block_ok_p()` is only issued while `block_status = requested`
///   (Fig. 12 precondition);
/// * the application does not `send` while blocked (Fig. 12);
/// * a delivered view unblocks.
#[derive(Debug, Default)]
pub struct ClientSpec {
    status: VecMap<ProcessId, BlockStatus>,
}

impl ClientSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        ClientSpec::default()
    }

    fn status(&self, p: ProcessId) -> BlockStatus {
        self.status.get(&p).copied().unwrap_or_default()
    }
}

impl Checker for ClientSpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        match &entry.event {
            Event::Block { p } => {
                if self.status(*p) != BlockStatus::Unblocked {
                    return Err(Violation::at_step(
                        "CLIENT:SPEC",
                        step,
                        format!("block_{p}: issued while block_status = {:?}", self.status(*p)),
                    ));
                }
                self.status.insert(*p, BlockStatus::Requested);
                Ok(())
            }
            Event::BlockOk { p } => {
                if self.status(*p) != BlockStatus::Requested {
                    return Err(Violation::at_step(
                        "CLIENT:SPEC",
                        step,
                        format!("block_ok_{p}: issued while block_status = {:?}", self.status(*p)),
                    ));
                }
                self.status.insert(*p, BlockStatus::Blocked);
                Ok(())
            }
            Event::Send { p, .. } => {
                if self.status(*p) == BlockStatus::Blocked {
                    return Err(Violation::at_step(
                        "CLIENT:SPEC",
                        step,
                        format!("send_{p}: application sent while blocked"),
                    ));
                }
                Ok(())
            }
            Event::GcsView { p, .. } => {
                self.status.insert(*p, BlockStatus::Unblocked);
                Ok(())
            }
            Event::Recover { p } => {
                self.status.insert(*p, BlockStatus::Unblocked);
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

    fn run(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = ClientSpec::new();
        trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect()
    }

    fn a_view() -> View {
        View::new(ViewId::new(1, 0), [p(1)], [(p(1), StartChangeId::new(1))])
    }

    #[test]
    fn handshake_accepted() {
        let violations = run(vec![
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            Event::Block { p: p(1) },
            Event::BlockOk { p: p(1) },
            Event::GcsView { p: p(1), view: a_view(), transitional: Default::default() },
            Event::Send { p: p(1), msg: AppMsg::from("b") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn send_while_blocked_rejected() {
        let violations = run(vec![
            Event::Block { p: p(1) },
            Event::BlockOk { p: p(1) },
            Event::Send { p: p(1), msg: AppMsg::from("x") },
        ]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("while blocked"));
    }

    #[test]
    fn send_while_merely_requested_allowed() {
        // Fig. 12: the client may keep sending until it answers block_ok.
        let violations =
            run(vec![Event::Block { p: p(1) }, Event::Send { p: p(1), msg: AppMsg::from("x") }]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn double_block_rejected() {
        let violations = run(vec![Event::Block { p: p(1) }, Event::Block { p: p(1) }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("block_"));
    }

    #[test]
    fn spurious_block_ok_rejected() {
        let violations = run(vec![Event::BlockOk { p: p(1) }]);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn view_unblocks() {
        let violations = run(vec![
            Event::Block { p: p(1) },
            Event::BlockOk { p: p(1) },
            Event::GcsView { p: p(1), view: a_view(), transitional: Default::default() },
            Event::Block { p: p(1) }, // a fresh cycle may start
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn recovery_resets_to_unblocked() {
        let violations = run(vec![
            Event::Block { p: p(1) },
            Event::BlockOk { p: p(1) },
            Event::Crash { p: p(1) },
            Event::Recover { p: p(1) },
            Event::Send { p: p(1), msg: AppMsg::from("x") },
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
