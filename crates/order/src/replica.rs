//! State-machine replication with transitional-set-driven state transfer —
//! the application pattern §4.1.2 motivates, packaged as a library.
//!
//! > "When a new view forms, such applications must exchange special
//! > messages in order to synchronize members of the new view. A group
//! > communication system that supports Virtual Synchrony allows
//! > processes to avoid such costly exchange among processes that
//! > continue together from one view to the next."
//!
//! [`Replica`] runs a deterministic [`StateMachine`] over the
//! [`TotalOrder`] layer. On every view change it uses
//! the **transitional set** exactly as the paper intends: members that
//! moved together need no synchronization; if anyone else is present, the
//! smallest-id member of the transitional set multicasts one snapshot,
//! and receivers adopt it only when it is ahead of their own history
//! (tracked by an applied-operations counter).

use crate::{OrderedMsg, TotalOrder};
use serde::{Deserialize, Serialize};
use vsgm_types::{AppMsg, ProcSet, ProcessId, View};

/// A deterministic application state machine.
pub trait StateMachine {
    /// Applies one command (commands arrive in the same total order at
    /// every replica).
    fn apply(&mut self, cmd: &[u8]);
    /// Serializes the current state.
    fn snapshot(&self) -> Vec<u8>;
    /// Replaces the current state with a snapshot.
    fn restore(&mut self, snapshot: &[u8]);
}

/// Replica-to-replica wire format (rides inside GCS application
/// payloads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ReplicaWire {
    /// A total-order layer message (command or sequencer reference).
    Order(Vec<u8>),
    /// A state snapshot from the transitional-set donor.
    Snapshot {
        /// Number of commands the donor had applied.
        applied: u64,
        /// The serialized state.
        data: Vec<u8>,
    },
}

/// One replica of a totally ordered, virtually synchronous state machine.
///
/// Feed it the GCS application events; multicast whatever it returns.
///
/// ```
/// use vsgm_order::{LogMachine, Replica};
/// use vsgm_types::{ProcessId, View};
///
/// let p1 = ProcessId::new(1);
/// let mut r = Replica::new(p1, LogMachine::default());
/// let v = View::initial(p1);
/// r.on_view(&v, v.members());
/// let wire = r.submit(b"set x=1".to_vec());
/// // Multicast `wire` through the GCS; the echo applies the command:
/// r.on_deliver(p1, &wire);
/// assert_eq!(r.applied(), 1);
/// assert_eq!(r.machine().log, vec![b"set x=1".to_vec()]);
/// ```
#[derive(Debug)]
pub struct Replica<M: StateMachine> {
    pid: ProcessId,
    order: TotalOrder,
    machine: M,
    applied: u64,
}

impl<M: StateMachine> Replica<M> {
    /// Creates a replica around an initial state machine.
    pub fn new(pid: ProcessId, machine: M) -> Self {
        Replica { pid, order: TotalOrder::new(pid), machine, applied: 0 }
    }

    /// The wrapped state machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Number of commands applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Wraps a command for multicast through the GCS.
    pub fn submit(&self, cmd: impl Into<Vec<u8>>) -> AppMsg {
        let inner = self.order.submit(cmd.into());
        encode(&ReplicaWire::Order(inner.as_bytes().to_vec()))
    }

    /// Feeds one GCS delivery. Returns any message that must be
    /// multicast in response (the sequencer's ordering references).
    pub fn on_deliver(&mut self, from: ProcessId, msg: &AppMsg) -> Option<AppMsg> {
        match decode(msg) {
            Some(ReplicaWire::Order(raw)) => {
                let (ordered, announce) = self.order.on_deliver(from, &AppMsg::from(raw));
                self.apply_all(ordered);
                announce.map(|a| encode(&ReplicaWire::Order(a.as_bytes().to_vec())))
            }
            Some(ReplicaWire::Snapshot { applied, data }) => {
                if applied > self.applied {
                    self.machine.restore(&data);
                    self.applied = applied;
                }
                None
            }
            None => None,
        }
    }

    /// Feeds a GCS view change. Flushes the total-order backlog (identical
    /// across the transitional set, by Virtual Synchrony) and, when the
    /// view contains members outside the transitional set, has the
    /// smallest transitional member donate one snapshot.
    ///
    /// On a merge of several components, each component's smallest
    /// transitional member donates; the `applied` counter arbitrates, so
    /// everyone converges on the longest history. (Applications that need
    /// a different merge policy — e.g. primary-partition — replace this
    /// layer's donor rule.)
    pub fn on_view(&mut self, view: &View, transitional: &ProcSet) -> Option<AppMsg> {
        let flushed = self.order.on_view(view, transitional);
        self.apply_all(flushed);
        let donor = transitional.iter().next().copied();
        let everyone_moved_together = transitional.len() == view.len();
        if !everyone_moved_together && donor == Some(self.pid) {
            return Some(encode(&ReplicaWire::Snapshot {
                applied: self.applied,
                data: self.machine.snapshot(),
            }));
        }
        None
    }

    fn apply_all(&mut self, msgs: Vec<OrderedMsg>) {
        for m in msgs {
            self.machine.apply(&m.payload);
            self.applied += 1;
        }
    }
}

fn encode(w: &ReplicaWire) -> AppMsg {
    AppMsg::from(serde_json::to_vec(w).expect("ReplicaWire is serializable"))
}

fn decode(msg: &AppMsg) -> Option<ReplicaWire> {
    serde_json::from_slice(msg.as_bytes()).ok()
}

/// A tiny ready-made [`StateMachine`]: an append-only log of commands
/// (useful for tests and as a template).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogMachine {
    /// Every applied command, in order.
    pub log: Vec<Vec<u8>>,
}

impl StateMachine for LogMachine {
    fn apply(&mut self, cmd: &[u8]) {
        self.log.push(cmd.to_vec());
    }
    fn snapshot(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("LogMachine is serializable")
    }
    fn restore(&mut self, snapshot: &[u8]) {
        *self = serde_json::from_slice(snapshot).expect("snapshot produced by LogMachine");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vsgm_types::{StartChangeId, ViewId};

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn view(epoch: u64, members: &[u64]) -> View {
        View::new(
            ViewId::new(epoch, 0),
            members.iter().map(|&i| p(i)),
            members.iter().map(|&i| (p(i), StartChangeId::new(epoch))),
        )
    }

    /// Instant GCS: multicasts reach every replica in the same per-sender
    /// order, and responses are re-multicast until quiescence.
    fn broadcast(
        replicas: &mut BTreeMap<ProcessId, Replica<LogMachine>>,
        from: ProcessId,
        msg: AppMsg,
    ) {
        let mut queue = vec![(from, msg)];
        while let Some((sender, m)) = queue.pop() {
            let ids: Vec<ProcessId> = replicas.keys().copied().collect();
            for id in ids {
                if let Some(resp) = replicas.get_mut(&id).unwrap().on_deliver(sender, &m) {
                    queue.push((id, resp));
                }
            }
        }
    }

    fn group(members: &[u64], epoch: u64) -> BTreeMap<ProcessId, Replica<LogMachine>> {
        let v = view(epoch, members);
        let t: ProcSet = members.iter().map(|&i| p(i)).collect();
        members
            .iter()
            .map(|&i| {
                let mut r = Replica::new(p(i), LogMachine::default());
                assert!(r.on_view(&v, &t).is_none(), "nobody needs transfer at bootstrap");
                (p(i), r)
            })
            .collect()
    }

    #[test]
    fn replicas_apply_identical_logs() {
        let mut replicas = group(&[1, 2, 3], 1);
        for (i, cmd) in [(2u64, "a"), (1, "b"), (3, "c")] {
            let m = replicas[&p(i)].submit(cmd.as_bytes().to_vec());
            broadcast(&mut replicas, p(i), m);
        }
        let reference = replicas[&p(1)].machine().clone();
        assert_eq!(reference.log.len(), 3);
        for (id, r) in &replicas {
            assert_eq!(r.machine(), &reference, "replica {id} diverged");
            assert_eq!(r.applied(), 3);
        }
    }

    #[test]
    fn joiner_gets_snapshot_from_min_transitional_member() {
        let mut replicas = group(&[1, 2], 1);
        let m = replicas[&p(1)].submit(b"history".to_vec());
        broadcast(&mut replicas, p(1), m);
        // p3 joins with empty state.
        replicas.insert(p(3), Replica::new(p(3), LogMachine::default()));
        let v2 = view(2, &[1, 2, 3]);
        let t_old: ProcSet = [p(1), p(2)].into_iter().collect();
        let t_new: ProcSet = [p(3)].into_iter().collect();
        let mut snapshots = Vec::new();
        for (id, r) in replicas.iter_mut() {
            let t = if *id == p(3) { &t_new } else { &t_old };
            if let Some(s) = r.on_view(&v2, t) {
                snapshots.push((*id, s));
            }
        }
        // One donor per merge component: p1 = min({1,2}) and p3 = min({3}).
        let donors: Vec<ProcessId> = snapshots.iter().map(|(d, _)| *d).collect();
        assert_eq!(donors, vec![p(1), p(3)]);
        for (donor, snap) in snapshots {
            broadcast(&mut replicas, donor, snap);
        }
        // The applied counter arbitrates: p3 adopts p1's longer history,
        // p1/p2 ignore p3's empty snapshot.
        assert_eq!(replicas[&p(3)].machine().log, vec![b"history".to_vec()]);
        assert_eq!(replicas[&p(3)].applied(), 1);
        assert_eq!(replicas[&p(1)].applied(), 1);
    }

    #[test]
    fn members_that_moved_together_skip_transfer() {
        let mut replicas = group(&[1, 2, 3], 1);
        let m = replicas[&p(2)].submit(b"x".to_vec());
        broadcast(&mut replicas, p(2), m);
        // Everyone moves together: T = view.set ⇒ no snapshot at all.
        let v2 = view(2, &[1, 2, 3]);
        let t: ProcSet = [p(1), p(2), p(3)].into_iter().collect();
        for r in replicas.values_mut() {
            assert!(r.on_view(&v2, &t).is_none(), "§4.1.2: no exchange needed");
        }
    }

    #[test]
    fn stale_snapshot_never_regresses_state() {
        let mut fresh = Replica::new(p(1), LogMachine::default());
        let v = view(1, &[1]);
        let t: ProcSet = [p(1)].into_iter().collect();
        fresh.on_view(&v, &t);
        let m = fresh.submit(b"newer".to_vec());
        // Self-deliver through the instant broadcast.
        let mut replicas: BTreeMap<ProcessId, Replica<LogMachine>> =
            [(p(1), fresh)].into_iter().collect();
        broadcast(&mut replicas, p(1), m);
        let before = replicas[&p(1)].machine().clone();
        // A snapshot claiming LESS history arrives: ignored.
        let stale =
            encode(&ReplicaWire::Snapshot { applied: 0, data: LogMachine::default().snapshot() });
        replicas.get_mut(&p(1)).unwrap().on_deliver(p(9), &stale);
        assert_eq!(replicas[&p(1)].machine(), &before);
    }

    #[test]
    fn log_machine_snapshot_roundtrip() {
        let mut m = LogMachine::default();
        m.apply(b"one");
        m.apply(b"two");
        let snap = m.snapshot();
        let mut n = LogMachine::default();
        n.restore(&snap);
        assert_eq!(m, n);
    }
}
