//! **vsgm-order** — totally ordered multicast on top of the virtually
//! synchronous FIFO service.
//!
//! The paper provides FIFO multicast "since FIFO is a basic service upon
//! which one can build stronger services. For example, the totally
//! ordered multicast algorithm of \[13\] is implemented atop a service that
//! satisfies the `WV_RFIFO` specification" (§4.1.1). This crate is that
//! layering: a sequencer-based total order protocol whose correctness
//! across view changes comes directly from Virtual Synchrony and
//! Transitional Sets.
//!
//! # Protocol
//!
//! Within a view, the member with the smallest id is the *sequencer*.
//! Every payload is multicast through the GCS as a [`Wrapper::Data`]
//! message; the sequencer assigns global positions by multicasting
//! [`Wrapper::Order`] references `(sender, per-sender index)` as it
//! delivers data messages. Everyone delivers payloads in `Order`
//! sequence (the sequencer's own delivery order).
//!
//! On a view change the GCS guarantees (Virtual Synchrony) that all
//! members transitioning together delivered the *same set* of data
//! messages; those not yet covered by an `Order` are therefore identical
//! everywhere in the transitional set, and every member deterministically
//! flushes them — sorted by `(sender, index)` — before touching the new
//! view's traffic. No extra agreement round is needed: exactly the
//! application pattern Virtual Synchrony exists to enable (§4.1.2).
//!
//! The layer is transport-free: feed it the GCS's application-facing
//! events, multicast whatever it returns.

#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "outside P1: an ordering layer for experiments; expects and indexes state invariants"
)]

pub mod causal;
pub mod replica;

pub use causal::{CausalDelivery, CausalMsg, CausalOrder};
pub use replica::{LogMachine, Replica, StateMachine};

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use vsgm_types::{AppMsg, ProcSet, ProcessId, View};

/// The wire format this layer encodes into GCS application payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wrapper {
    /// An application payload awaiting ordering.
    Data(Vec<u8>),
    /// Sequencer-assigned positions: `(sender, 1-based per-sender index)`
    /// pairs, in global delivery order.
    Order(Vec<(ProcessId, u64)>),
}

impl Wrapper {
    /// Encodes into a GCS payload.
    ///
    /// # Panics
    ///
    /// Never panics: the type is always serializable.
    pub fn encode(&self) -> AppMsg {
        AppMsg::from(serde_json::to_vec(self).expect("Wrapper is serializable"))
    }

    /// Decodes from a GCS payload.
    ///
    /// # Errors
    ///
    /// Returns the JSON error for foreign/corrupt payloads.
    pub fn decode(msg: &AppMsg) -> Result<Wrapper, serde_json::Error> {
        serde_json::from_slice(msg.as_bytes())
    }
}

/// A payload delivered in total order.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedMsg {
    /// The original sender.
    pub from: ProcessId,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// The total-order layer for one group member.
#[derive(Debug)]
pub struct TotalOrder {
    pid: ProcessId,
    view_members: ProcSet,
    /// Data messages delivered from the GCS this view, per sender, by
    /// 1-based index (GCS FIFO makes indices implicit).
    data: BTreeMap<ProcessId, Vec<Vec<u8>>>,
    /// Global positions announced by the sequencer, not yet flushed.
    order: VecDeque<(ProcessId, u64)>,
    /// Next per-sender index to be ordered by *us* when we are sequencer.
    seq_next: BTreeMap<ProcessId, u64>,
    /// Next per-sender index already released to the application.
    released: BTreeMap<ProcessId, u64>,
}

impl TotalOrder {
    /// Creates the layer for `pid`, alone in its initial view.
    pub fn new(pid: ProcessId) -> Self {
        TotalOrder {
            pid,
            view_members: [pid].into_iter().collect(),
            data: BTreeMap::new(),
            order: VecDeque::new(),
            seq_next: BTreeMap::new(),
            released: BTreeMap::new(),
        }
    }

    /// The current sequencer: the smallest member id.
    pub fn sequencer(&self) -> ProcessId {
        *self.view_members.iter().next().expect("view contains self")
    }

    /// Whether this member is the sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.sequencer() == self.pid
    }

    /// Wraps an application payload for multicast through the GCS.
    pub fn submit(&self, payload: impl Into<Vec<u8>>) -> AppMsg {
        Wrapper::Data(payload.into()).encode()
    }

    /// Feeds one GCS delivery. Returns the payloads now deliverable in
    /// total order, plus any `Order` message the sequencer must multicast
    /// (via the GCS) in response.
    pub fn on_deliver(&mut self, from: ProcessId, msg: &AppMsg) -> (Vec<OrderedMsg>, Option<AppMsg>) {
        match Wrapper::decode(msg) {
            Ok(Wrapper::Data(payload)) => {
                self.data.entry(from).or_default().push(payload);
                let mut announce = None;
                if self.is_sequencer() {
                    let next = self.seq_next.entry(from).or_insert(1);
                    let idx = *next;
                    *next += 1;
                    self.order.push_back((from, idx));
                    announce = Some(Wrapper::Order(vec![(from, idx)]).encode());
                }
                (self.release(), announce)
            }
            Ok(Wrapper::Order(entries)) => {
                if from == self.sequencer() && from != self.pid {
                    self.order.extend(entries);
                }
                (self.release(), None)
            }
            Err(_) => (Vec::new(), None), // foreign payload: not ours to order
        }
    }

    /// Feeds a GCS view change. Virtual Synchrony lets every member of
    /// the transitional set flush the identical un-ordered backlog
    /// deterministically; returns those flushed payloads (in the agreed
    /// order) and resets per-view state.
    pub fn on_view(&mut self, view: &View, _transitional: &ProcSet) -> Vec<OrderedMsg> {
        // Release whatever the sequencer had ordered first.
        let mut out = self.release();
        // Deterministic flush of the rest: sorted by (sender, index).
        let mut leftovers: Vec<(ProcessId, u64)> = Vec::new();
        for (sender, msgs) in &self.data {
            let done = self.released.get(sender).copied().unwrap_or(0);
            for idx in (done + 1)..=(msgs.len() as u64) {
                leftovers.push((*sender, idx));
            }
        }
        leftovers.sort_unstable();
        for (sender, idx) in leftovers {
            let payload = self.data[&sender][(idx - 1) as usize].clone();
            out.push(OrderedMsg { from: sender, payload });
        }
        // Fresh view: counters restart (GCS delivery indices restart too).
        self.view_members = view.members().clone();
        self.data.clear();
        self.order.clear();
        self.seq_next.clear();
        self.released.clear();
        out
    }

    /// Releases every ordered position whose data has arrived, in order.
    fn release(&mut self) -> Vec<OrderedMsg> {
        let mut out = Vec::new();
        while let Some((sender, idx)) = self.order.front().copied() {
            let available = self.data.get(&sender).map_or(0, |v| v.len() as u64);
            if idx > available {
                break; // data not here yet; FIFO says it will be
            }
            self.order.pop_front();
            let expected = self.released.get(&sender).copied().unwrap_or(0) + 1;
            debug_assert_eq!(idx, expected, "sequencer references are dense per sender");
            self.released.insert(sender, idx);
            out.push(OrderedMsg {
                from: sender,
                payload: self.data[&sender][(idx - 1) as usize].clone(),
            });
        }
        out
    }

    /// Number of data messages buffered but not yet released.
    pub fn backlog(&self) -> usize {
        let total: usize = self.data.values().map(Vec::len).sum();
        let released: u64 = self.released.values().copied().sum();
        total - released as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Simulates GCS FIFO delivery of the same messages to several
    /// TotalOrder layers, with the sequencer's Order messages fed back.
    fn run_group(members: &[u64], sends: &[(u64, &str)]) -> Vec<Vec<OrderedMsg>> {
        let v = view(1, members);
        let mut layers: Vec<TotalOrder> = members
            .iter()
            .map(|&i| {
                let mut t = TotalOrder::new(p(i));
                t.on_view(&v, &v.members().clone());
                t
            })
            .collect();
        let mut outputs: Vec<Vec<OrderedMsg>> = vec![Vec::new(); members.len()];
        // GCS delivers every data message to every member (same per-sender
        // FIFO order); sequencer's Order messages are delivered to all
        // right after it produces them (FIFO from the sequencer).
        for (sender, payload) in sends {
            let wrapped = Wrapper::Data(payload.as_bytes().to_vec()).encode();
            let mut announce = None;
            for (k, layer) in layers.iter_mut().enumerate() {
                let (out, ann) = layer.on_deliver(p(*sender), &wrapped);
                outputs[k].extend(out);
                if ann.is_some() {
                    announce = ann;
                }
            }
            if let Some(order_msg) = announce {
                let seq = *members.iter().min().unwrap();
                for (k, layer) in layers.iter_mut().enumerate() {
                    let (out, none) = layer.on_deliver(p(seq), &order_msg);
                    assert!(none.is_none());
                    outputs[k].extend(out);
                }
            }
        }
        outputs
    }

    #[test]
    fn all_members_deliver_same_total_order() {
        let outs = run_group(&[1, 2, 3], &[(2, "a"), (3, "b"), (2, "c"), (1, "d")]);
        assert_eq!(outs[0].len(), 4);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn sequencer_is_min_member() {
        let mut t = TotalOrder::new(p(5));
        let v = view(1, &[3, 5, 9]);
        t.on_view(&v, &v.members().clone());
        assert_eq!(t.sequencer(), p(3));
        assert!(!t.is_sequencer());
    }

    #[test]
    fn order_before_data_is_buffered() {
        // A follower receives the sequencer's Order before the data
        // message (different channels): it must wait.
        let v = view(1, &[1, 2, 3]);
        let mut follower = TotalOrder::new(p(3));
        follower.on_view(&v, &v.members().clone());
        let order = Wrapper::Order(vec![(p(2), 1)]).encode();
        let (out, _) = follower.on_deliver(p(1), &order);
        assert!(out.is_empty(), "data missing: nothing released");
        let data = Wrapper::Data(b"x".to_vec()).encode();
        let (out, _) = follower.on_deliver(p(2), &data);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, b"x");
    }

    #[test]
    fn order_from_non_sequencer_ignored() {
        let v = view(1, &[1, 2, 3]);
        let mut t = TotalOrder::new(p(3));
        t.on_view(&v, &v.members().clone());
        let bogus = Wrapper::Order(vec![(p(2), 1)]).encode();
        t.on_deliver(p(2), &bogus); // p2 is not the sequencer
        let data = Wrapper::Data(b"x".to_vec()).encode();
        let (out, _) = t.on_deliver(p(2), &data);
        assert!(out.is_empty(), "bogus order must not release anything");
    }

    #[test]
    fn view_change_flushes_unordered_backlog_deterministically() {
        let v1 = view(1, &[1, 2, 3]);
        let v2 = view(2, &[2, 3]);
        // Members 2 and 3 both delivered the same data (VS guarantee) but
        // never saw an Order for it (sequencer 1 died).
        let mk = |i: u64| {
            let mut t = TotalOrder::new(p(i));
            t.on_view(&v1, &v1.members().clone());
            let (o1, _) = t.on_deliver(p(3), &Wrapper::Data(b"b".to_vec()).encode());
            let (o2, _) = t.on_deliver(p(2), &Wrapper::Data(b"a".to_vec()).encode());
            assert!(o1.is_empty() && o2.is_empty());
            t
        };
        let mut t2 = mk(2);
        let mut t3 = mk(3);
        let trans: ProcSet = [p(2), p(3)].into_iter().collect();
        let f2 = t2.on_view(&v2, &trans);
        let f3 = t3.on_view(&v2, &trans);
        assert_eq!(f2, f3, "flush order must agree");
        assert_eq!(f2.len(), 2);
        // Deterministic (sender, index) order: p2's message before p3's.
        assert_eq!(f2[0].from, p(2));
        assert_eq!(f2[1].from, p(3));
        // New sequencer.
        assert_eq!(t2.sequencer(), p(2));
        assert!(t2.is_sequencer());
    }

    #[test]
    fn backlog_tracks_unreleased() {
        let v = view(1, &[1, 2]);
        let mut t = TotalOrder::new(p(2));
        t.on_view(&v, &v.members().clone());
        t.on_deliver(p(1), &Wrapper::Data(b"x".to_vec()).encode());
        assert_eq!(t.backlog(), 1);
        let (out, _) = t.on_deliver(p(1), &Wrapper::Order(vec![(p(1), 1)]).encode());
        assert_eq!(out.len(), 1);
        assert_eq!(t.backlog(), 0);
    }

    #[test]
    fn foreign_payloads_ignored() {
        let mut t = TotalOrder::new(p(1));
        let (out, ann) = t.on_deliver(p(2), &AppMsg::from("not json"));
        assert!(out.is_empty() && ann.is_none());
    }

    #[test]
    fn wrapper_roundtrip() {
        let w = Wrapper::Order(vec![(p(1), 3), (p(2), 1)]);
        let enc = w.encode();
        assert_eq!(Wrapper::decode(&enc).unwrap(), w);
    }
}
