//! Property-based tests of the simulated network against the `CO_RFIFO`
//! channel semantics, under random operation sequences, plus wire-codec
//! round-trip properties over every [`NetMsg`] variant.

use proptest::prelude::*;
use vsgm_ioa::{SimRng, SimTime};
use vsgm_net::{codec, LatencyModel, SimNet};
use vsgm_obs::NoopRecorder;
use vsgm_types::{
    AppMsg, BaselineMsg, Cut, FwdPayload, NetMsg, ProcSet, ProcessId, StartChangeId, SyncPayload,
    View, ViewId,
};

const N: u64 = 4;

#[derive(Debug, Clone)]
enum NetOp {
    /// `p_{1+(a%N)}` multicasts a fresh message to everyone else.
    Send(u64),
    /// Set sender's reliable set from a bitmask.
    Reliable(u64, u8),
    /// Partition at a split point.
    Partition(u64),
    Heal,
    Crash(u64),
    Recover(u64),
    /// Deliver the next ready batch.
    Deliver,
}

fn op_strategy() -> impl Strategy<Value = NetOp> {
    prop_oneof![
        4 => any::<u64>().prop_map(NetOp::Send),
        2 => (any::<u64>(), any::<u8>()).prop_map(|(a, m)| NetOp::Reliable(a, m)),
        1 => (1..N).prop_map(NetOp::Partition),
        1 => Just(NetOp::Heal),
        1 => any::<u64>().prop_map(NetOp::Crash),
        1 => any::<u64>().prop_map(NetOp::Recover),
        4 => Just(NetOp::Deliver),
    ]
}

fn pid(a: u64) -> ProcessId {
    ProcessId::new(1 + (a % N))
}

fn all_procs() -> Vec<ProcessId> {
    (1..=N).map(ProcessId::new).collect()
}

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    any::<u64>().prop_map(ProcessId::new)
}

fn arb_view() -> impl Strategy<Value = View> {
    (any::<u64>(), any::<u64>(), prop::collection::btree_map(any::<u64>(), any::<u64>(), 1..6))
        .prop_map(|(epoch, proposer, ids)| {
            let pairs: Vec<(ProcessId, StartChangeId)> =
                ids.into_iter().map(|(p, c)| (ProcessId::new(p), StartChangeId::new(c))).collect();
            let members: Vec<ProcessId> = pairs.iter().map(|(p, _)| *p).collect();
            View::new(ViewId::new(epoch, proposer), members, pairs)
        })
}

fn arb_cut() -> impl Strategy<Value = Cut> {
    prop::collection::btree_map(any::<u64>(), any::<u64>(), 0..6).prop_map(|m| {
        let mut cut = Cut::new();
        for (p, i) in m {
            cut.set(ProcessId::new(p), i);
        }
        cut
    })
}

fn arb_app() -> impl Strategy<Value = AppMsg> {
    prop::collection::vec(any::<u8>(), 0..128).prop_map(AppMsg::from)
}

fn arb_sync_payload() -> impl Strategy<Value = SyncPayload> {
    (any::<u64>(), any::<bool>(), arb_view(), arb_cut()).prop_map(|(cid, slim, view, cut)| {
        SyncPayload {
            cid: StartChangeId::new(cid),
            view: if slim { None } else { Some(view) },
            cut,
        }
    })
}

fn arb_net_msg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        arb_view().prop_map(NetMsg::ViewMsg),
        arb_app().prop_map(NetMsg::App),
        (arb_pid(), arb_view(), any::<u64>(), arb_app()).prop_map(|(origin, view, index, msg)| {
            NetMsg::Fwd(FwdPayload { origin, view, index, msg })
        }),
        arb_sync_payload().prop_map(NetMsg::Sync),
        prop::collection::vec((arb_pid(), arb_sync_payload()), 0..4).prop_map(NetMsg::SyncAgg),
        (prop::collection::vec(arb_pid(), 0..6), any::<u64>()).prop_map(|(participants, seq)| {
            let participants = participants.into_iter().collect();
            NetMsg::Baseline(BaselineMsg::Propose { participants, seq })
        }),
        (
            prop::collection::vec(arb_pid(), 0..6),
            (any::<u64>(), any::<u64>()),
            arb_view(),
            arb_cut()
        )
            .prop_map(|(participants, tag, view, cut)| NetMsg::Baseline(
                BaselineMsg::Sync {
                    participants: participants.into_iter().collect(),
                    tag,
                    view,
                    cut
                }
            )),
        arb_cut().prop_map(NetMsg::Ack),
    ]
}

/// The owning decode of a bare body.
fn decode(body: &[u8]) -> Option<NetMsg> {
    codec::decode_body_ref(body).map(codec::BodyRef::into_owned)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every `NetMsg` round-trips through the binary codec unchanged.
    #[test]
    fn codec_roundtrips_every_variant(msg in arb_net_msg()) {
        let bin = codec::encode_body(&msg);
        prop_assert_eq!(decode(&bin), Some(msg.clone()));
        // Framing: the frame is exactly a little-endian length + body.
        let frame = codec::encode_frame(&msg);
        let (len, body) = frame.split_at(4);
        prop_assert_eq!(u32::from_le_bytes(len.try_into().unwrap()) as usize, body.len());
        prop_assert_eq!(body, &bin[..]);
    }

    /// Binary encoding is deterministic: re-encoding a decoded message
    /// reproduces the identical byte string (wire-format stability).
    #[test]
    fn codec_binary_encoding_is_deterministic(msg in arb_net_msg()) {
        let a = codec::encode_body(&msg);
        let decoded = decode(&a).expect("decode");
        let b = codec::encode_body(&decoded);
        prop_assert_eq!(a, b);
    }

    /// The decoder is total: no byte string makes it panic, and appending
    /// trailing garbage to a valid body makes it reject.
    #[test]
    fn codec_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes); // any verdict, never a panic
    }

    /// Every `(GroupId, NetMsg)` pair round-trips through the v2 group
    /// envelope, and the envelope header is exactly `0x02 gid:u64le` in
    /// front of the single-group body.
    #[test]
    fn codec_group_envelope_roundtrips(gid in any::<u64>(), msg in arb_net_msg()) {
        let gid = vsgm_types::GroupId::new(gid);
        let mut frame = Vec::new();
        codec::append_frame_grouped(&mut frame, gid, &msg);
        let bin = frame.split_off(4);
        prop_assert_eq!(
            codec::decode_body_routed(&bin, false),
            Some((Some(gid), msg.clone()))
        );
        let (split_gid, inner) = codec::split_group_envelope(&bin).expect("split");
        prop_assert_eq!(split_gid, gid);
        let bare = codec::encode_body(&msg);
        prop_assert_eq!(inner, &bare[..]);
        // The same message as a bare v1 body routes with no group id.
        prop_assert_eq!(codec::decode_body_routed(&bare, false), Some((None, msg)));
    }

    /// The routed decoder is total over arbitrary bytes, including bytes
    /// that claim the envelope version.
    #[test]
    fn codec_routed_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_body_routed(&bytes, false);
        let mut claimed = bytes;
        claimed.insert(0, codec::GROUP_ENVELOPE_V2);
        let _ = codec::decode_body_routed(&claimed, false);
    }

    #[test]
    fn codec_rejects_trailing_garbage(msg in arb_net_msg(), tail in 1usize..8) {
        let mut bin = codec::encode_body(&msg);
        bin.extend(std::iter::repeat_n(0xA5u8, tail));
        prop_assert_eq!(decode(&bin), None);
    }

    /// Per-channel FIFO: for each ordered pair, the delivered sequence is
    /// a subsequence of the sent sequence, in order, without duplicates.
    #[test]
    fn deliveries_are_ordered_subsequences(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut net: SimNet<NetMsg> =
            SimNet::new(all_procs(), LatencyModel::lan(), SimRng::new(seed));
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut sent: std::collections::HashMap<(ProcessId, ProcessId), Vec<u64>> =
            Default::default();
        let mut delivered: std::collections::HashMap<(ProcessId, ProcessId), Vec<u64>> =
            Default::default();
        for op in &ops {
            match op {
                NetOp::Send(a) => {
                    let from = pid(*a);
                    if net.is_crashed(from) { continue; }
                    seq += 1;
                    let to: ProcSet = all_procs().into_iter().filter(|q| *q != from).collect();
                    let msg = NetMsg::App(AppMsg::from(seq.to_string().as_str()));
                    // Track only destinations that could actually accept it.
                    for q in &to {
                        let kept = net.reliable_set(from).contains(q) || net.connected(from, *q);
                        if kept {
                            sent.entry((from, *q)).or_default().push(seq);
                        }
                    }
                    net.send(now, from, &to, &msg, &mut NoopRecorder);
                }
                NetOp::Reliable(a, mask) => {
                    let p = pid(*a);
                    let set: ProcSet = (0..N)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| ProcessId::new(i + 1))
                        .chain([p])
                        .collect();
                    net.set_reliable(p, set);
                }
                NetOp::Partition(split) => {
                    let a: Vec<ProcessId> = (1..=*split).map(ProcessId::new).collect();
                    let b: Vec<ProcessId> = (*split + 1..=N).map(ProcessId::new).collect();
                    net.partition(&[a, b]);
                }
                NetOp::Heal => net.heal(now),
                NetOp::Crash(a) => net.crash(pid(*a)),
                NetOp::Recover(a) => net.recover(pid(*a)),
                NetOp::Deliver => {
                    if let Some(t) = net.next_arrival() {
                        now = t;
                        for (from, to, msg) in net.pop_ready(t, &mut NoopRecorder) {
                            if let NetMsg::App(m) = msg {
                                let v: u64 =
                                    String::from_utf8_lossy(m.as_bytes()).parse().unwrap();
                                delivered.entry((from, to)).or_default().push(v);
                            }
                        }
                    }
                }
            }
        }
        // Drain the rest.
        while let Some(t) = net.next_arrival() {
            for (from, to, msg) in net.pop_ready(t, &mut NoopRecorder) {
                if let NetMsg::App(m) = msg {
                    let v: u64 = String::from_utf8_lossy(m.as_bytes()).parse().unwrap();
                    delivered.entry((from, to)).or_default().push(v);
                }
            }
        }
        for (chan, got) in &delivered {
            let sent_list = sent.get(chan).cloned().unwrap_or_default();
            // `got` must be a subsequence of `sent_list` (strictly
            // increasing positions), hence ordered and duplicate-free.
            let mut it = sent_list.iter();
            for g in got {
                prop_assert!(
                    it.any(|s| s == g),
                    "channel {chan:?}: delivered {g} out of order or twice; sent {sent_list:?}, got {got:?}"
                );
            }
        }
    }

    /// Messages to reliable, connected peers are never lost: after a
    /// quiet network with no faults, everything sent arrives.
    #[test]
    fn reliable_connected_channels_lose_nothing(
        seed in any::<u64>(),
        burst in 1usize..40,
    ) {
        let mut net: SimNet<NetMsg> =
            SimNet::new(all_procs(), LatencyModel::lan(), SimRng::new(seed));
        let everyone: ProcSet = all_procs().into_iter().collect();
        for p in all_procs() {
            net.set_reliable(p, everyone.clone());
        }
        for k in 0..burst {
            net.send(
                SimTime::from_micros(k as u64),
                ProcessId::new(1),
                &everyone,
                &NetMsg::App(AppMsg::from(format!("{k}").as_str())),
                &mut NoopRecorder,
            );
        }
        let mut count = 0;
        while let Some(t) = net.next_arrival() {
            count += net.pop_ready(t, &mut NoopRecorder).len();
        }
        prop_assert_eq!(count, burst * (N as usize - 1));
        prop_assert_eq!(net.stats().dropped, 0);
    }

    /// Arrival times within one channel never decrease (FIFO timing).
    #[test]
    fn arrival_times_monotone_per_channel(seed in any::<u64>(), burst in 1usize..30) {
        let mut net: SimNet<NetMsg> = SimNet::new(
            all_procs(),
            LatencyModel::Uniform { lo: SimTime::from_micros(1), hi: SimTime::from_micros(500) },
            SimRng::new(seed),
        );
        let p1 = ProcessId::new(1);
        let p2: ProcSet = [ProcessId::new(2)].into_iter().collect();
        net.set_reliable(p1, [p1, ProcessId::new(2)].into_iter().collect());
        for k in 0..burst {
            net.send(
                SimTime::from_micros(k as u64),
                p1,
                &p2,
                &NetMsg::App(AppMsg::from(format!("{k}").as_str())),
                &mut NoopRecorder,
            );
        }
        let mut last = SimTime::ZERO;
        while let Some(t) = net.next_arrival() {
            prop_assert!(t >= last);
            last = t;
            net.pop_ready(t, &mut NoopRecorder);
        }
    }

    /// live_set is always reflexive and symmetric among non-crashed
    /// processes.
    #[test]
    fn live_set_symmetric(
        seed in any::<u64>(),
        split in 1..N,
        crash_a in any::<u64>(),
    ) {
        let mut net: SimNet<NetMsg> =
            SimNet::new(all_procs(), LatencyModel::lan(), SimRng::new(seed));
        let a: Vec<ProcessId> = (1..=split).map(ProcessId::new).collect();
        let b: Vec<ProcessId> = (split + 1..=N).map(ProcessId::new).collect();
        net.partition(&[a, b]);
        net.crash(pid(crash_a));
        for p in all_procs() {
            prop_assert!(net.live_set(p).contains(&p), "reflexive at {p}");
            for q in all_procs() {
                if net.is_crashed(p) || net.is_crashed(q) {
                    continue;
                }
                prop_assert_eq!(
                    net.live_set(p).contains(&q),
                    net.live_set(q).contains(&p),
                    "symmetry between {} and {}", p, q
                );
            }
        }
    }
}
