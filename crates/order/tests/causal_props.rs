//! Property tests for the causal-order layer: under arbitrary per-sender
//! FIFO-preserving interleavings of the same message history, every
//! receiver releases payloads respecting happened-before.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vsgm_order::CausalOrder;
use vsgm_types::{AppMsg, ProcessId};

const N: u64 = 4;

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// Per-sender FIFO streams of encoded messages.
type Streams = BTreeMap<ProcessId, Vec<AppMsg>>;

/// Builds a causal history: a random sequence of "process i sends" where
/// each send is stamped by that process's layer (which has delivered
/// everything broadcast before it, in order). Returns per-sender FIFO
/// streams of encoded messages plus the global happened-before order.
fn build_history(sends: &[u64]) -> (Streams, Vec<(ProcessId, usize)>) {
    let mut layers: BTreeMap<ProcessId, CausalOrder> =
        (1..=N).map(|i| (p(i), CausalOrder::new(p(i)))).collect();
    let mut streams: BTreeMap<ProcessId, Vec<AppMsg>> = Default::default();
    let mut global: Vec<(ProcessId, usize)> = Vec::new();
    for (k, s) in sends.iter().enumerate() {
        let sender = p(1 + s % N);
        let msg = layers[&sender].submit(format!("g{k}").into_bytes());
        // Everyone (including the sender) delivers it right away in this
        // construction, so later sends causally depend on all earlier ones.
        for (pid, layer) in layers.iter_mut() {
            let out = layer.on_deliver(sender, &msg);
            assert_eq!(out.len(), 1, "construction delivers instantly at {pid}");
        }
        let idx = streams.entry(sender).or_default().len();
        streams.entry(sender).or_default().push(msg);
        global.push((sender, idx));
    }
    (streams, global)
}

/// Replays the streams to a fresh receiver in an arbitrary interleaving
/// that preserves per-sender order (what the GCS guarantees), collecting
/// the release order.
fn replay(streams: &Streams, mut pick: impl FnMut(&[ProcessId]) -> usize) -> Vec<Vec<u8>> {
    let mut receiver = CausalOrder::new(p(99));
    let mut cursors: BTreeMap<ProcessId, usize> = Default::default();
    let mut out = Vec::new();
    loop {
        let avail: Vec<ProcessId> = streams
            .iter()
            .filter(|(s, msgs)| cursors.get(s).copied().unwrap_or(0) < msgs.len())
            .map(|(s, _)| *s)
            .collect();
        if avail.is_empty() {
            break;
        }
        let s = avail[pick(&avail) % avail.len()];
        let i = cursors.entry(s).or_insert(0);
        let msg = &streams[&s][*i];
        *i += 1;
        for d in receiver.on_deliver(s, msg) {
            out.push(d.payload);
        }
    }
    assert_eq!(receiver.pending_len(), 0, "everything must eventually release");
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn causal_release_matches_global_order(
        sends in prop::collection::vec(0u64..N, 1..20),
        picks in prop::collection::vec(0usize..16, 0..200),
    ) {
        let (streams, _global) = build_history(&sends);
        let mut k = 0usize;
        let order = replay(&streams, |_| {
            let v = picks.get(k).copied().unwrap_or(0);
            k += 1;
            v
        });
        // In this totally-dependent history, the ONLY causal release order
        // is the global send order.
        let expected: Vec<Vec<u8>> =
            (0..sends.len()).map(|i| format!("g{i}").into_bytes()).collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn concurrent_messages_release_completely(
        burst_per_sender in 1usize..8,
        picks in prop::collection::vec(0usize..16, 0..200),
    ) {
        // Fully concurrent history: nobody delivers anyone else before
        // sending, so any per-sender-FIFO interleaving is causal.
        let mut streams: Streams = Default::default();
        for i in 1..=N {
            let layer = CausalOrder::new(p(i));
            for k in 0..burst_per_sender {
                streams.entry(p(i)).or_default().push(
                    layer.submit(format!("{i}:{k}").into_bytes()),
                );
            }
        }
        let mut idx = 0usize;
        let order = replay(&streams, |_| {
            let v = picks.get(idx).copied().unwrap_or(0);
            idx += 1;
            v
        });
        prop_assert_eq!(order.len(), burst_per_sender * N as usize);
        // Per-sender FIFO is preserved in the release order.
        for i in 1..=N {
            let seq: Vec<&Vec<u8>> = order
                .iter()
                .filter(|m| m.starts_with(format!("{i}:").as_bytes()))
                .collect();
            for (k, m) in seq.iter().enumerate() {
                prop_assert_eq!(*m, &format!("{i}:{k}").into_bytes());
            }
        }
    }
}
