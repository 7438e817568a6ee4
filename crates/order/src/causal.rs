//! Causally ordered multicast on top of the within-view FIFO service.
//!
//! The second classic strengthening (§4.1.1 names FIFO as "a basic
//! service upon which one can build stronger services"): deliver messages
//! respecting the happened-before relation. Each message carries a vector
//! timestamp of how many messages from every member the sender had
//! delivered when it sent; a receiver holds a message until its own
//! deliveries dominate that vector. Per-sender FIFO comes from the GCS,
//! so the sender's own component needs no buffering logic.
//!
//! Across view changes, Virtual Synchrony guarantees that members moving
//! together delivered the same message set; since causal predecessors of
//! any committed message are committed too (the committing member had
//! delivered them), every buffered dependency resolves before the view —
//! the layer just resets its clocks per view.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vsgm_types::{AppMsg, ProcSet, ProcessId, View};

/// The wire format: payload plus the sender's delivery vector at send
/// time (excluding the sender's own component, which per-sender FIFO
/// already enforces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalMsg {
    /// `deps[q]` = number of `q`'s messages the sender had delivered.
    pub deps: BTreeMap<ProcessId, u64>,
    /// The application payload.
    pub payload: Vec<u8>,
}

impl CausalMsg {
    /// Encodes into a GCS payload.
    pub fn encode(&self) -> AppMsg {
        AppMsg::from(serde_json::to_vec(self).expect("CausalMsg is serializable"))
    }

    /// Decodes from a GCS payload.
    ///
    /// # Errors
    ///
    /// Returns the JSON error for foreign/corrupt payloads.
    pub fn decode(msg: &AppMsg) -> Result<CausalMsg, serde_json::Error> {
        serde_json::from_slice(msg.as_bytes())
    }
}

/// A causally delivered payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalDelivery {
    /// Original sender.
    pub from: ProcessId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// The causal-order layer for one group member.
#[derive(Debug)]
pub struct CausalOrder {
    pid: ProcessId,
    /// Messages delivered (released) per sender, this view.
    delivered: BTreeMap<ProcessId, u64>,
    /// Buffered messages whose dependencies are not yet satisfied, per
    /// sender in FIFO order: `(deps, payload)`.
    pending: BTreeMap<ProcessId, Vec<CausalMsg>>,
}

impl CausalOrder {
    /// Creates the layer for `pid`.
    pub fn new(pid: ProcessId) -> Self {
        CausalOrder { pid, delivered: BTreeMap::new(), pending: BTreeMap::new() }
    }

    /// Wraps a payload for multicast, stamping the current delivery
    /// vector.
    pub fn submit(&self, payload: impl Into<Vec<u8>>) -> AppMsg {
        let mut deps = self.delivered.clone();
        deps.remove(&self.pid); // own component enforced by FIFO
        CausalMsg { deps, payload: payload.into() }.encode()
    }

    /// Feeds one GCS delivery; returns everything now causally
    /// deliverable (possibly including earlier buffered messages).
    pub fn on_deliver(&mut self, from: ProcessId, msg: &AppMsg) -> Vec<CausalDelivery> {
        let Ok(cm) = CausalMsg::decode(msg) else { return Vec::new() };
        self.pending.entry(from).or_default().push(cm);
        self.drain()
    }

    /// Feeds a view change: Virtual Synchrony has equalized the delivered
    /// sets, so any still-buffered messages are flushed deterministically
    /// and the clocks reset.
    pub fn on_view(&mut self, _view: &View, _transitional: &ProcSet) -> Vec<CausalDelivery> {
        let mut out = self.drain();
        for (from, msgs) in std::mem::take(&mut self.pending) {
            for m in msgs {
                out.push(CausalDelivery { from, payload: m.payload });
            }
        }
        self.delivered.clear();
        out
    }

    fn satisfied(&self, deps: &BTreeMap<ProcessId, u64>) -> bool {
        deps.iter().all(|(q, need)| self.delivered.get(q).copied().unwrap_or(0) >= *need)
    }

    fn drain(&mut self) -> Vec<CausalDelivery> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            let senders: Vec<ProcessId> = self.pending.keys().copied().collect();
            for s in senders {
                // Per-sender FIFO: only the head may be considered.
                let head_ok = self
                    .pending
                    .get(&s)
                    .and_then(|v| v.first())
                    .is_some_and(|m| self.satisfied(&m.deps));
                if head_ok {
                    let m = self.pending.get_mut(&s).expect("present").remove(0);
                    *self.delivered.entry(s).or_insert(0) += 1;
                    out.push(CausalDelivery { from: s, payload: m.payload });
                    progressed = true;
                }
            }
            if !progressed {
                return out;
            }
        }
    }

    /// Number of messages buffered awaiting dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn independent_messages_deliver_immediately() {
        let mut c = CausalOrder::new(p(1));
        let m = CausalOrder::new(p(2)).submit(b"hi".to_vec());
        let out = c.on_deliver(p(2), &m);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, b"hi");
    }

    #[test]
    fn dependent_message_waits_for_its_cause() {
        // p3 sends m1; p2 delivers m1 and replies with m2 (m1 → m2).
        // p1 receives m2 BEFORE m1: must buffer m2.
        let sender3 = CausalOrder::new(p(3));
        let m1 = sender3.submit(b"cause".to_vec());

        let mut relay2 = CausalOrder::new(p(2));
        assert_eq!(relay2.on_deliver(p(3), &m1).len(), 1);
        let m2 = relay2.submit(b"effect".to_vec());

        let mut receiver = CausalOrder::new(p(1));
        let out = receiver.on_deliver(p(2), &m2);
        assert!(out.is_empty(), "effect must wait for cause");
        assert_eq!(receiver.pending_len(), 1);
        let out = receiver.on_deliver(p(3), &m1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, b"cause");
        assert_eq!(out[1].payload, b"effect");
    }

    #[test]
    fn chains_of_dependencies_release_in_order() {
        // m1 (p2) → m2 (p3) → m3 (p4); receiver gets them reversed.
        let a = CausalOrder::new(p(2));
        let m1 = a.submit(b"1".to_vec());
        let mut b = CausalOrder::new(p(3));
        b.on_deliver(p(2), &m1);
        let m2 = b.submit(b"2".to_vec());
        let mut c = CausalOrder::new(p(4));
        c.on_deliver(p(2), &m1);
        c.on_deliver(p(3), &m2);
        let m3 = c.submit(b"3".to_vec());

        let mut r = CausalOrder::new(p(1));
        assert!(r.on_deliver(p(4), &m3).is_empty());
        assert!(r.on_deliver(p(3), &m2).is_empty());
        let out = r.on_deliver(p(2), &m1);
        let got: Vec<&[u8]> = out.iter().map(|d| d.payload.as_slice()).collect();
        assert_eq!(got, vec![b"1".as_slice(), b"2", b"3"]);
    }

    #[test]
    fn per_sender_fifo_respected_even_when_later_msg_satisfiable() {
        // p2's second message has no deps but must not overtake its first.
        let mut relay = CausalOrder::new(p(2));
        let m_dep = CausalOrder::new(p(3)).submit(b"x".to_vec());
        relay.on_deliver(p(3), &m_dep);
        let first = relay.submit(b"first".to_vec()); // depends on p3's msg
        let second_direct = CausalMsg { deps: BTreeMap::new(), payload: b"second".to_vec() };

        let mut r = CausalOrder::new(p(1));
        assert!(r.on_deliver(p(2), &first).is_empty());
        assert!(
            r.on_deliver(p(2), &second_direct.encode()).is_empty(),
            "second must not overtake first (FIFO)"
        );
        let out = r.on_deliver(p(3), &m_dep);
        let got: Vec<&[u8]> = out.iter().map(|d| d.payload.as_slice()).collect();
        assert_eq!(got, vec![b"x".as_slice(), b"first", b"second"]);
    }

    #[test]
    fn view_change_flushes_and_resets() {
        let mut r = CausalOrder::new(p(1));
        let orphan =
            CausalMsg { deps: [(p(9), 5)].into_iter().collect(), payload: b"stranded".to_vec() };
        assert!(r.on_deliver(p(2), &orphan.encode()).is_empty());
        let v = View::initial(p(1));
        let out = r.on_view(&v, &ProcSet::new());
        assert_eq!(out.len(), 1);
        assert_eq!(r.pending_len(), 0);
        // Clocks reset: a fresh message with no deps flows.
        let m = CausalOrder::new(p(2)).submit(b"fresh".to_vec());
        assert_eq!(r.on_deliver(p(2), &m).len(), 1);
    }

    #[test]
    fn foreign_payloads_ignored() {
        let mut r = CausalOrder::new(p(1));
        assert!(r.on_deliver(p(2), &AppMsg::from("not json")).is_empty());
    }
}
