//! The seeded input generator: the (sender, group, payload) sequence of a
//! workload. The daemon sees only the frames built from these; nothing
//! else depends on the seed.

use crate::plan::{Workload, CLIENTS, PAYLOAD};

/// SplitMix64: small, seedable, and good enough to pick senders and fill
/// payloads. The same seed always yields the same sequence.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Bytes of payload header: multicast id and per-(sender, group) sequence
/// number, both little-endian `u64`.
pub const HEADER_LEN: usize = 16;

/// One multicast to issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Globally unique, consecutive from 0.
    pub id: u64,
    /// Client index of the sender.
    pub sender: usize,
    /// Group index (not the daemon's gid).
    pub group: usize,
    /// 1-based position in the (sender, group) stream.
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// The generator behind the tail of multicast `id`'s payload.
fn tail_rng(seed: u64, id: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The payload of multicast `id`: header, then a tail that depends only on
/// (`seed`, `id`), so a receiver can recompute and compare every byte.
pub fn payload(seed: u64, id: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(HEADER_LEN));
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut rng = tail_rng(seed, id);
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = word.len().min(len - out.len());
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// Whether `bytes` is exactly what [`payload`] built for the multicast its
/// header names, `len` bytes long. Runs for every frame a client receives,
/// so it compares in place instead of rebuilding the payload.
pub fn payload_intact(seed: u64, bytes: &[u8], len: usize) -> bool {
    let Some((id, _)) = parse_header(bytes) else {
        return false;
    };
    let mut rng = tail_rng(seed, id);
    bytes.len() == len
        && bytes[HEADER_LEN..]
            .chunks(8)
            .all(|chunk| rng.next_u64().to_le_bytes()[..chunk.len()] == *chunk)
}

/// Splits a received payload into (multicast id, sequence number).
pub fn parse_header(bytes: &[u8]) -> Option<(u64, u64)> {
    let id = bytes.get(..8)?.try_into().ok()?;
    let seq = bytes.get(8..HEADER_LEN)?.try_into().ok()?;
    Some((u64::from_le_bytes(id), u64::from_le_bytes(seq)))
}

pub struct Generator {
    seed: u64,
    rng: SplitMix64,
    groups: usize,
    round_robin: bool,
    /// Eligible senders per group.
    senders: Vec<Vec<usize>>,
    /// Next sequence number per (group, client).
    seqs: Vec<u64>,
    next_id: u64,
}

impl Generator {
    pub fn new(seed: u64, w: &Workload, groups: usize) -> Generator {
        Generator {
            seed,
            rng: SplitMix64::new(seed),
            groups,
            round_robin: w.round_robin_groups,
            senders: (0..groups).map(|g| w.senders_of(g)).collect(),
            seqs: vec![0; groups * CLIENTS],
            next_id: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let group = if self.round_robin {
            (self.next_id % self.groups as u64) as usize
        } else {
            self.rng.below(self.groups)
        };
        let eligible = &self.senders[group];
        let sender = eligible[self.rng.below(eligible.len())];
        self.op_for(group, sender)
    }

    /// The next multicast, from `sender` to `group`.
    pub fn op_for(&mut self, group: usize, sender: usize) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        let slot = &mut self.seqs[group * CLIENTS + sender];
        *slot += 1;
        let seq = *slot;
        Op {
            id,
            sender,
            group,
            seq,
            payload: payload(self.seed, id, seq, PAYLOAD),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;

    #[test]
    fn same_seed_gives_byte_identical_sequence() {
        for w in WORKLOADS {
            let run = |seed| {
                let mut g = Generator::new(seed, w, w.groups);
                (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(run(7), run(7), "{}", w.name);
            assert_ne!(run(7), run(8), "{}: another seed, another sequence", w.name);
        }
    }

    #[test]
    fn ops_are_well_formed() {
        for w in WORKLOADS {
            let mut g = Generator::new(3, w, w.smoke_groups);
            let mut seqs = std::collections::BTreeMap::new();
            for i in 0..5000u64 {
                let op = g.next_op();
                assert_eq!(op.id, i);
                assert!(w.senders_of(op.group).contains(&op.sender));
                assert_eq!(op.payload.len(), PAYLOAD);
                assert_eq!(parse_header(&op.payload), Some((op.id, op.seq)));
                assert_eq!(op.payload, payload(3, op.id, op.seq, PAYLOAD));
                assert!(payload_intact(3, &op.payload, PAYLOAD));
                assert!(
                    !payload_intact(4, &op.payload, PAYLOAD),
                    "another seed, other bytes"
                );
                assert!(!payload_intact(3, &op.payload[..PAYLOAD - 1], PAYLOAD));
                let last = seqs.entry((op.group, op.sender)).or_insert(0);
                assert_eq!(
                    op.seq,
                    *last + 1,
                    "per-(sender, group) sequence is gap-free"
                );
                *last = op.seq;
            }
        }
    }
}
