//! Wire codec for [`NetMsg`] frames: one compact, deterministic binary
//! encoding.
//!
//! Every frame body opens with the version byte [`BINARY_V1`] (`0x01`),
//! bare or inside the [`GROUP_ENVELOPE_V2`] group envelope. There is no
//! second encoding and no sniffing: a body that opens with any other byte
//! is malformed, and the event loop tears its connection down.
//!
//! The binary layout is fixed-width little-endian, length-prefixed, and
//! *deterministic*: every map and set in `NetMsg` is a sorted vector
//! (`VecMap`/`VecSet`) that iterates in key order, so iteration — and
//! therefore the encoded bytes — depend only on the message value, not
//! on the order it was built in. Layout (all integers LE):
//!
//! ```text
//! body      := 0x01 msg
//! msg       := tag:u8 payload
//! tag       := 0 ViewMsg | 1 App | 2 Fwd | 3 Sync | 4 SyncAgg
//!            | 5 Baseline::Propose | 6 Baseline::Sync | 7 AppBatch | 8 Ack
//! view      := epoch:u64 proposer:u64 n:u32 (pid:u64 cid:u64)^n
//! cut       := n:u32 (pid:u64 index:u64)^n
//! bytes     := n:u32 byte^n
//! sync      := cid:u64 has_view:u8 [view] cut
//! payloads:
//!   ViewMsg := view
//!   App     := bytes
//!   Fwd     := origin:u64 view index:u64 bytes
//!   Sync    := sync
//!   SyncAgg := n:u32 (pid:u64 sync)^n
//!   Propose := n:u32 pid:u64^n seq:u64
//!   BlSync  := n:u32 pid:u64^n tag_seq:u64 tag_pid:u64 view cut
//!   AppBatch:= n:u32 bytes^n
//!   Ack     := cut, pids strictly increasing
//! ```
//!
//! [`decode_body_ref`] is total: no input can panic, allocate unboundedly,
//! or read past the frame. Element counts are validated against the bytes
//! actually remaining before any allocation, and trailing garbage after a
//! well-formed message rejects the frame.

// Held to D1 and T1 by path, though `net` is not: golden vectors and
// cross-peer interop need bytes that depend on the message alone.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io;
use vsgm_types::{
    AppMsg, BaselineMsg, Cut, FwdPayload, GroupId, MsgIndex, NetMsg, ProcSet, ProcessId,
    StartChangeId, SyncPayload, View, ViewId,
};

/// Version byte opening every frame body. Future binary revisions get
/// new bytes.
pub const BINARY_V1: u8 = 0x01;

/// Version byte opening a *group-enveloped* frame body (the multi-group
/// server protocol):
///
/// ```text
/// envelope := 0x02 group:u64le inner_body
/// ```
///
/// where `inner_body` is a complete [`BINARY_V1`] single-group body. The
/// envelope adds exactly 9 bytes and no per-message allocation on the
/// decode path: [`split_group_envelope`] hands back the group id and a
/// borrowed inner-body slice, so the zero-copy [`decode_body_ref`] path
/// applies unchanged to enveloped frames. One connection may carry
/// enveloped and bare frames mixed; envelopes never nest.
pub const GROUP_ENVELOPE_V2: u8 = 0x02;

const TAG_VIEW_MSG: u8 = 0;
const TAG_APP: u8 = 1;
const TAG_FWD: u8 = 2;
const TAG_SYNC: u8 = 3;
const TAG_SYNC_AGG: u8 = 4;
const TAG_BL_PROPOSE: u8 = 5;
const TAG_BL_SYNC: u8 = 6;
const TAG_APP_BATCH: u8 = 7;
const TAG_ACK: u8 = 8;

/// The one wire encoding. It is a type only because the frozen
/// `benchmark/` names it in its [`encode_frame_grouped`] call; ROADMAP
/// item 1(c) deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The binary format above.
    #[default]
    Binary,
}

/// Encodes a message body (no length prefix).
pub fn encode_body(msg: &NetMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.wire_size() + 16);
    out.push(BINARY_V1);
    enc_msg(&mut out, msg);
    out
}

/// Encodes a complete length-prefixed frame: `len:u32le body`.
pub fn encode_frame(msg: &NetMsg) -> Vec<u8> {
    let body = encode_body(msg);
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Encodes a complete length-prefixed, group-enveloped frame:
/// `len:u32le 0x02 group:u64le body`.
///
/// # Errors
///
/// Never: the format parameter and the `io::Result` are the shape the
/// frozen `benchmark/` calls, kept until ROADMAP item 1(c). Other callers
/// use [`append_frame_grouped`].
pub fn encode_frame_grouped(
    group: GroupId,
    msg: &NetMsg,
    _format: WireFormat,
) -> io::Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(4 + 9 + msg.wire_size() + 16);
    append_frame_grouped(&mut frame, group, msg);
    Ok(frame)
}

/// Appends the frame [`encode_frame_grouped`] returns to `out`, encoding
/// in place: a batch of frames for one peer fills one buffer.
pub fn append_frame_grouped(out: &mut Vec<u8>, group: GroupId, msg: &NetMsg) {
    let start = out.len();
    put_u32(out, 0);
    out.push(GROUP_ENVELOPE_V2);
    put_u64(out, group.raw());
    out.push(BINARY_V1);
    enc_msg(out, msg);
    let len = (out.len() - start - 4) as u32;
    if let Some(prefix) = out.get_mut(start..start + 4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
}

/// Splits a [`GROUP_ENVELOPE_V2`] body into its group id and the
/// borrowed inner body. Returns `None` for bodies that do not open with
/// the envelope byte or are too short to carry the header — callers
/// decode such a body as a bare one. Total: no input panics or
/// allocates.
pub fn split_group_envelope(body: &[u8]) -> Option<(GroupId, &[u8])> {
    let (&first, rest) = body.split_first()?;
    if first != GROUP_ENVELOPE_V2 {
        return None;
    }
    let (gid, inner) = rest.split_first_chunk::<8>()?;
    Some((GroupId::new(u64::from_le_bytes(*gid)), inner))
}

/// Decodes a frame body with group routing: an enveloped body yields
/// `(Some(group), msg)`, a bare [`BINARY_V1`] body `(None, msg)`. Returns
/// `None` for any malformed input: a body whose first byte, bare or
/// inside the envelope, is not [`BINARY_V1`] (an empty inner body and a
/// nested envelope included), or one [`decode_body_ref`] rejects.
///
/// The payload is copied out of `body` once, by [`BodyRef::into_owned`].
/// The flag is ignored; it stays because the frozen `benchmark/` passes
/// it, until ROADMAP item 1(c).
pub fn decode_body_routed(body: &[u8], _ignored: bool) -> Option<(Option<GroupId>, NetMsg)> {
    let (group, inner) = match split_group_envelope(body) {
        Some((gid, inner)) => (Some(gid), inner),
        None => (None, body),
    };
    Some((group, decode_body_ref(inner)?.into_owned()))
}

/// A decoded frame body whose bulk payload bytes are still *borrowed*
/// from the frame buffer.
///
/// The payload-carrying variants (`App`, `AppBatch`, `Fwd`) are the hot
/// path at scale: they borrow their byte slices straight out of the
/// event loop's pooled read buffer, so validating and routing a frame
/// allocates nothing. Control-plane messages (views, syncs, baseline
/// rounds) decode into their owned structured form — they are small,
/// rare, and built from `BTreeMap`s that own storage anyway.
///
/// Call [`BodyRef::into_owned`] exactly once, at the point a message
/// leaves the read buffer's lifetime (e.g. crossing the delivery
/// channel); that is the single payload copy on the receive path.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyRef<'a> {
    /// An application payload, borrowed from the frame.
    App(&'a [u8]),
    /// A batch of application payloads, each borrowed from the frame.
    AppBatch(Vec<&'a [u8]>),
    /// A forwarded copy; the inner payload is borrowed from the frame.
    Fwd {
        /// Original sender of the forwarded message.
        origin: ProcessId,
        /// View the message was originally sent in.
        view: View,
        /// Per-sender FIFO index within that view.
        index: u64,
        /// The forwarded payload bytes.
        msg: &'a [u8],
    },
    /// A control-plane message, decoded owned.
    Owned(NetMsg),
}

impl BodyRef<'_> {
    /// Converts into an owned [`NetMsg`], copying any borrowed payload
    /// slices. This is the single copy of the zero-copy receive path.
    pub fn into_owned(self) -> NetMsg {
        match self {
            BodyRef::App(b) => NetMsg::App(AppMsg::new(b.to_vec())),
            BodyRef::AppBatch(parts) => {
                NetMsg::AppBatch(parts.into_iter().map(|b| AppMsg::new(b.to_vec())).collect())
            }
            BodyRef::Fwd { origin, view, index, msg } => NetMsg::Fwd(FwdPayload {
                origin,
                view,
                index,
                msg: AppMsg::new(msg.to_vec()),
            }),
            BodyRef::Owned(m) => m,
        }
    }
}

/// Decodes a bare [`BINARY_V1`] frame body without copying payload
/// bytes: `App`/`AppBatch`/`Fwd` payloads are returned as slices
/// borrowing from `body`. An owned message is
/// `decode_body_ref(body).map(BodyRef::into_owned)`.
///
/// Total: no input panics, over-allocates, or reads past the frame, and
/// trailing garbage rejects the body.
pub fn decode_body_ref(body: &[u8]) -> Option<BodyRef<'_>> {
    let (&first, rest) = body.split_first()?;
    if first != BINARY_V1 {
        return None;
    }
    let mut cur = Cur { b: rest };
    let msg = dec_msg_ref(&mut cur)?;
    // Trailing bytes mean a corrupt or misframed body.
    cur.b.is_empty().then_some(msg)
}

// ------------------------------------------------------------ encode ---

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_view(out: &mut Vec<u8>, v: &View) {
    put_u64(out, v.id().epoch);
    put_u64(out, v.id().proposer);
    put_u32(out, v.start_ids().len() as u32);
    for (p, cid) in v.start_ids() {
        put_u64(out, p.raw());
        put_u64(out, cid.raw());
    }
}

fn put_cut(out: &mut Vec<u8>, c: &Cut) {
    put_u32(out, c.len() as u32);
    for (p, i) in c.iter() {
        put_u64(out, p.raw());
        put_u64(out, i);
    }
}

fn put_sync(out: &mut Vec<u8>, s: &SyncPayload) {
    put_u64(out, s.cid.raw());
    match &s.view {
        Some(v) => {
            out.push(1);
            put_view(out, v);
        }
        None => out.push(0),
    }
    put_cut(out, &s.cut);
}

fn enc_msg(out: &mut Vec<u8>, msg: &NetMsg) {
    match msg {
        NetMsg::ViewMsg(v) => {
            out.push(TAG_VIEW_MSG);
            put_view(out, v);
        }
        NetMsg::App(m) => {
            out.push(TAG_APP);
            put_bytes(out, m.as_bytes());
        }
        NetMsg::Fwd(f) => {
            out.push(TAG_FWD);
            put_u64(out, f.origin.raw());
            put_view(out, &f.view);
            put_u64(out, f.index);
            put_bytes(out, f.msg.as_bytes());
        }
        NetMsg::Sync(s) => {
            out.push(TAG_SYNC);
            put_sync(out, s);
        }
        NetMsg::SyncAgg(batch) => {
            out.push(TAG_SYNC_AGG);
            put_u32(out, batch.len() as u32);
            for (p, s) in batch {
                put_u64(out, p.raw());
                put_sync(out, s);
            }
        }
        NetMsg::AppBatch(batch) => {
            out.push(TAG_APP_BATCH);
            put_u32(out, batch.len() as u32);
            for m in batch {
                put_bytes(out, m.as_bytes());
            }
        }
        NetMsg::Baseline(BaselineMsg::Propose { participants, seq }) => {
            out.push(TAG_BL_PROPOSE);
            put_u32(out, participants.len() as u32);
            for p in participants {
                put_u64(out, p.raw());
            }
            put_u64(out, *seq);
        }
        NetMsg::Baseline(BaselineMsg::Sync { participants, tag, view, cut }) => {
            out.push(TAG_BL_SYNC);
            put_u32(out, participants.len() as u32);
            for p in participants {
                put_u64(out, p.raw());
            }
            put_u64(out, tag.0);
            put_u64(out, tag.1);
            put_view(out, view);
            put_cut(out, cut);
        }
        NetMsg::Ack(cut) => {
            out.push(TAG_ACK);
            put_cut(out, cut);
        }
    }
}

// ------------------------------------------------------------ decode ---

/// Bounds-checked read cursor over a frame body.
struct Cur<'a> {
    b: &'a [u8],
}

impl<'a> Cur<'a> {
    fn u8(&mut self) -> Option<u8> {
        let (first, rest) = self.b.split_first()?;
        self.b = rest;
        Some(*first)
    }

    fn u32(&mut self) -> Option<u32> {
        let (chunk, rest) = self.b.split_first_chunk::<4>()?;
        self.b = rest;
        Some(u32::from_le_bytes(*chunk))
    }

    fn u64(&mut self) -> Option<u64> {
        let (chunk, rest) = self.b.split_first_chunk::<8>()?;
        self.b = rest;
        Some(u64::from_le_bytes(*chunk))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() < n {
            return None;
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Some(head)
    }

    /// Reads an element count and rejects it if the remaining bytes could
    /// not possibly hold that many entries of `min_entry_bytes` each —
    /// the guard that keeps a hostile count from triggering a huge
    /// allocation.
    fn count(&mut self, min_entry_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (self.b.len() / min_entry_bytes.max(1) >= n).then_some(n)
    }
}

fn dec_view(cur: &mut Cur<'_>) -> Option<View> {
    let epoch = cur.u64()?;
    let proposer = cur.u64()?;
    let n = cur.count(16)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let p = ProcessId::new(cur.u64()?);
        let cid = StartChangeId::new(cur.u64()?);
        pairs.push((p, cid));
    }
    // `View::new` asserts members == startId keys; both are derived from
    // the same pairs here, so the assertion cannot fire.
    let members: Vec<ProcessId> = pairs.iter().map(|(p, _)| *p).collect();
    Some(View::new(ViewId::new(epoch, proposer), members, pairs))
}

/// A synchronization cut is accepted with pids in any order; of a
/// repeated pid the last index wins. The pairs are collected first and
/// sorted once, since a frame's entry count is bounded by the frame
/// length, not by a group.
fn dec_cut(cur: &mut Cur<'_>) -> Option<Cut> {
    let n = cur.count(16)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let p = ProcessId::new(cur.u64()?);
        pairs.push((p, cur.u64()?));
    }
    Some(Cut::from_iter(pairs))
}

/// An acknowledgement vector is accepted in the encoder's form only:
/// pids strictly increasing, so none appears twice. As in [`dec_cut`],
/// the pairs are collected and the cut built once: [`Cut::set`] copies
/// the cut, so setting entry by entry is quadratic in a frame's length.
fn dec_ack(cur: &mut Cur<'_>) -> Option<Cut> {
    let n = cur.count(16)?;
    let mut pairs: Vec<(ProcessId, MsgIndex)> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = ProcessId::new(cur.u64()?);
        if pairs.last().is_some_and(|(q, _)| *q >= p) {
            return None;
        }
        pairs.push((p, cur.u64()?));
    }
    Some(Cut::from_iter(pairs))
}

/// A participant set is accepted with pids in any order, repeats
/// included. The ids are collected first and sorted once, as in
/// [`dec_cut`]: inserting them one by one into a sorted vector would cost
/// quadratic time for a hostile frame.
fn dec_participants(cur: &mut Cur<'_>) -> Option<ProcSet> {
    let n = cur.count(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(ProcessId::new(cur.u64()?));
    }
    Some(ids.into_iter().collect())
}

/// Reads a length-prefixed byte string as a borrowed slice.
fn dec_app_ref<'a>(cur: &mut Cur<'a>) -> Option<&'a [u8]> {
    let n = cur.count(1)?;
    cur.bytes(n)
}

fn dec_sync(cur: &mut Cur<'_>) -> Option<SyncPayload> {
    let cid = StartChangeId::new(cur.u64()?);
    let view = match cur.u8()? {
        0 => None,
        1 => Some(dec_view(cur)?),
        _ => return None,
    };
    let cut = dec_cut(cur)?;
    Some(SyncPayload { cid, view, cut })
}

fn dec_msg_ref<'a>(cur: &mut Cur<'a>) -> Option<BodyRef<'a>> {
    match cur.u8()? {
        TAG_VIEW_MSG => Some(BodyRef::Owned(NetMsg::ViewMsg(dec_view(cur)?))),
        TAG_APP => Some(BodyRef::App(dec_app_ref(cur)?)),
        TAG_FWD => {
            let origin = ProcessId::new(cur.u64()?);
            let view = dec_view(cur)?;
            let index = cur.u64()?;
            let msg = dec_app_ref(cur)?;
            Some(BodyRef::Fwd { origin, view, index, msg })
        }
        TAG_SYNC => Some(BodyRef::Owned(NetMsg::Sync(dec_sync(cur)?))),
        TAG_SYNC_AGG => {
            let n = cur.count(17)?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                let p = ProcessId::new(cur.u64()?);
                batch.push((p, dec_sync(cur)?));
            }
            Some(BodyRef::Owned(NetMsg::SyncAgg(batch)))
        }
        TAG_APP_BATCH => {
            // Each entry carries at least its own 4-byte length prefix.
            let n = cur.count(4)?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                batch.push(dec_app_ref(cur)?);
            }
            Some(BodyRef::AppBatch(batch))
        }
        TAG_BL_PROPOSE => {
            let participants = dec_participants(cur)?;
            let seq = cur.u64()?;
            Some(BodyRef::Owned(NetMsg::Baseline(BaselineMsg::Propose { participants, seq })))
        }
        TAG_BL_SYNC => {
            let participants = dec_participants(cur)?;
            let tag = (cur.u64()?, cur.u64()?);
            let view = dec_view(cur)?;
            let cut = dec_cut(cur)?;
            Some(BodyRef::Owned(NetMsg::Baseline(BaselineMsg::Sync {
                participants,
                tag,
                view,
                cut,
            })))
        }
        TAG_ACK => Some(BodyRef::Owned(NetMsg::Ack(dec_ack(cur)?))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::SimRng;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_view() -> View {
        View::new(
            ViewId::new(3, 1),
            [p(1), p(2), p(5)],
            [
                (p(1), StartChangeId::new(4)),
                (p(2), StartChangeId::new(7)),
                (p(5), StartChangeId::new(0)),
            ],
        )
    }

    fn sample_msgs() -> Vec<NetMsg> {
        let v = sample_view();
        vec![
            NetMsg::ViewMsg(v.clone()),
            NetMsg::App(AppMsg::from("payload")),
            NetMsg::App(AppMsg::default()),
            NetMsg::Fwd(FwdPayload {
                origin: p(2),
                view: v.clone(),
                index: 9,
                msg: AppMsg::from(vec![0u8, 255, 7]),
            }),
            NetMsg::Sync(SyncPayload {
                cid: StartChangeId::new(5),
                view: Some(v.clone()),
                cut: Cut::from_iter([(p(1), 2), (p(2), 0)]),
            }),
            NetMsg::Sync(SyncPayload {
                cid: StartChangeId::new(6),
                view: None,
                cut: Cut::new(),
            }),
            NetMsg::SyncAgg(vec![
                (
                    p(1),
                    SyncPayload {
                        cid: StartChangeId::new(1),
                        view: Some(v.clone()),
                        cut: Cut::from_iter([(p(1), 1)]),
                    },
                ),
                (
                    p(2),
                    SyncPayload { cid: StartChangeId::new(2), view: None, cut: Cut::new() },
                ),
            ]),
            NetMsg::AppBatch(vec![
                AppMsg::from("ab"),
                AppMsg::default(),
                AppMsg::from(vec![255u8, 0, 128]),
            ]),
            NetMsg::Baseline(BaselineMsg::Propose {
                participants: [p(1), p(2)].into_iter().collect(),
                seq: 11,
            }),
            NetMsg::Baseline(BaselineMsg::Sync {
                participants: [p(1), p(2)].into_iter().collect(),
                tag: (11, 1),
                view: v,
                cut: Cut::from_iter([(p(2), 3)]),
            }),
            NetMsg::Ack(Cut::from_iter([(p(1), 9), (p(2), 0), (p(5), u64::MAX)])),
            NetMsg::Ack(Cut::new()),
        ]
    }

    /// The owning decode of a bare body.
    fn decode(body: &[u8]) -> Option<NetMsg> {
        decode_body_ref(body).map(BodyRef::into_owned)
    }

    /// The frame body (no length prefix) of `msg` enveloped for `gid`.
    fn grouped_body(gid: GroupId, msg: &NetMsg) -> Vec<u8> {
        let mut frame = Vec::new();
        append_frame_grouped(&mut frame, gid, msg);
        frame.split_off(4)
    }

    #[test]
    fn binary_roundtrip_all_variants() {
        for m in sample_msgs() {
            let body = encode_body(&m);
            assert_eq!(body.first(), Some(&BINARY_V1), "{m:?}");
            assert_eq!(decode(&body), Some(m.clone()), "{m:?}");
        }
    }

    /// Pinned golden bytes: the binary wire format is a compatibility
    /// surface. If this test breaks, you changed the format — bump
    /// [`BINARY_V1`] to a new version byte instead of mutating v1.
    #[test]
    fn golden_bytes_are_stable() {
        let msg = NetMsg::Sync(SyncPayload {
            cid: StartChangeId::new(5),
            view: Some(View::new(
                ViewId::new(3, 1),
                [p(1), p(2)],
                [(p(1), StartChangeId::new(4)), (p(2), StartChangeId::new(7))],
            )),
            cut: Cut::from_iter([(p(1), 2), (p(2), 0)]),
        });
        let body = encode_body(&msg);
        let hex: String = body.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "01",               // BINARY_V1
            "03",               // tag: Sync
            "0500000000000000", // cid = 5
            "01",               // has_view = 1
            "0300000000000000", // view epoch = 3
            "0100000000000000", // view proposer = 1
            "02000000",         // 2 members
            "0100000000000000", // p1
            "0400000000000000", // cid 4
            "0200000000000000", // p2
            "0700000000000000", // cid 7
            "02000000",         // cut: 2 entries
            "0100000000000000", // p1
            "0200000000000000", // -> 2
            "0200000000000000", // p2
            "0000000000000000", // -> 0
        );
        assert_eq!(hex, expected);
        assert_eq!(decode(&body), Some(msg));
    }

    /// Pinned golden bytes for the batch frame added in v1's tag space
    /// (tag 7). Same compatibility rule as [`golden_bytes_are_stable`].
    #[test]
    fn golden_batch_bytes_are_stable() {
        let msg = NetMsg::AppBatch(vec![
            AppMsg::from("ab"),
            AppMsg::default(),
            AppMsg::from(vec![255u8]),
        ]);
        let body = encode_body(&msg);
        let hex: String = body.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "01",       // BINARY_V1
            "07",       // tag: AppBatch
            "03000000", // 3 payloads
            "02000000", // len 2
            "6162",     // "ab"
            "00000000", // len 0 (empty payload)
            "01000000", // len 1
            "ff",       // 0xFF
        );
        assert_eq!(hex, expected);
        assert_eq!(decode(&body), Some(msg));
    }

    /// Pinned golden bytes for the stability acknowledgement (tag 8).
    /// Same compatibility rule as [`golden_bytes_are_stable`].
    #[test]
    fn golden_ack_bytes_are_stable() {
        let msg = NetMsg::Ack(Cut::from_iter([(p(1), 64), (p(2), 0)]));
        let body = encode_body(&msg);
        let hex: String = body.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "01",               // BINARY_V1
            "08",               // tag: Ack
            "02000000",         // 2 entries
            "0100000000000000", // p1
            "4000000000000000", // -> 64
            "0200000000000000", // p2
            "0000000000000000", // -> 0
        );
        assert_eq!(hex, expected);
        assert_eq!(decode(&body), Some(msg));
    }

    /// Malformed acknowledgement vectors: cut short, a pid twice (or out
    /// of order), and a count the body cannot hold.
    #[test]
    fn malformed_ack_vectors_are_rejected() {
        let entry = |pid: u64, idx: u64| [pid.to_le_bytes(), idx.to_le_bytes()].concat();
        let ack = |count: u32, entries: &[Vec<u8>]| {
            let mut body = vec![BINARY_V1, TAG_ACK];
            body.extend_from_slice(&count.to_le_bytes());
            body.extend(entries.iter().flatten());
            body
        };
        let good = ack(2, &[entry(1, 5), entry(2, 7)]);
        assert_eq!(
            decode(&good),
            Some(NetMsg::Ack(Cut::from_iter([(p(1), 5), (p(2), 7)])))
        );
        for cut_at in 0..good.len() {
            assert_eq!(decode(good.get(..cut_at).unwrap_or(&[])), None, "cut at {cut_at}");
        }
        assert_eq!(decode(&ack(2, &[entry(1, 5), entry(1, 7)])), None, "duplicate pid");
        assert_eq!(decode(&ack(2, &[entry(2, 5), entry(1, 7)])), None, "unordered pids");
        assert_eq!(decode(&ack(u32::MAX, &[entry(1, 5)])), None, "length overflow");
        assert_eq!(decode(&ack(3, &[entry(1, 5), entry(2, 7)])), None, "count past the body");
    }

    /// A synchronization cut may arrive in any order, and its size is
    /// bounded by the frame, not by a group: a few hundred thousand
    /// descending pids decode in one sort (inserting them one by one into
    /// the sorted cut would take minutes), and a repeated pid keeps its
    /// last index.
    #[test]
    fn a_huge_descending_sync_cut_decodes_in_one_sort() {
        const N: u64 = 300_000;
        let mut body = vec![BINARY_V1, TAG_SYNC];
        body.extend_from_slice(&6u64.to_le_bytes()); // cid
        body.push(0); // no view
        body.extend_from_slice(&(N as u32 + 1).to_le_bytes());
        for pid in (1..=N).rev() {
            body.extend_from_slice(&pid.to_le_bytes());
            body.extend_from_slice(&(2 * pid).to_le_bytes());
        }
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        let started = std::time::Instant::now();
        let decoded = decode(&body);
        let took = started.elapsed();
        let cut = Cut::from_iter((1..=N).map(|pid| (p(pid), if pid == 1 { 7 } else { 2 * pid })));
        assert_eq!(
            decoded,
            Some(NetMsg::Sync(SyncPayload { cid: StartChangeId::new(6), view: None, cut }))
        );
        assert!(took < std::time::Duration::from_secs(5), "decoding took {took:?}");
    }

    /// An acknowledgement vector is bounded by the frame as well: 2¹⁸
    /// increasing pids decode into one cut built once. Setting them one by
    /// one copies the shared cut per entry, which is quadratic and far
    /// past the bound below.
    #[test]
    fn a_huge_increasing_ack_decodes_in_one_build() {
        const N: u64 = 1 << 18;
        let mut body = vec![BINARY_V1, TAG_ACK];
        body.extend_from_slice(&(N as u32).to_le_bytes());
        for pid in 1..=N {
            body.extend_from_slice(&pid.to_le_bytes());
            body.extend_from_slice(&(pid + 3).to_le_bytes());
        }
        let started = std::time::Instant::now();
        let decoded = decode(&body);
        let took = started.elapsed();
        let cut = Cut::from_iter((1..=N).map(|pid| (p(pid), pid + 3)));
        assert_eq!(decoded, Some(NetMsg::Ack(cut)));
        assert!(took < std::time::Duration::from_secs(2), "decoding took {took:?}");
    }

    /// A baseline participant set, like a cut, is bounded by the frame:
    /// 2¹⁸ descending pids, one of them repeated, decode in one sort, well
    /// inside the bound below (inserting them one by one into the sorted
    /// set takes about 9 s in a debug build on a 2-core x86-64 VM).
    #[test]
    fn a_huge_descending_participant_set_decodes_in_one_sort() {
        const N: u64 = 1 << 18;
        let mut body = vec![BINARY_V1, TAG_BL_PROPOSE];
        body.extend_from_slice(&(N as u32 + 1).to_le_bytes());
        for pid in (1..=N).rev().chain([N]) {
            body.extend_from_slice(&pid.to_le_bytes());
        }
        body.extend_from_slice(&9u64.to_le_bytes()); // seq
        let started = std::time::Instant::now();
        let decoded = decode(&body);
        let took = started.elapsed();
        let participants = (1..=N).map(p).collect();
        assert_eq!(decoded, Some(NetMsg::Baseline(BaselineMsg::Propose { participants, seq: 9 })));
        assert!(took < std::time::Duration::from_secs(2), "decoding took {took:?}");
    }

    #[test]
    fn batch_count_guard_rejects_hostile_count() {
        // A huge claimed batch count with a short body must be rejected
        // before any allocation.
        let mut evil = vec![BINARY_V1, TAG_APP_BATCH];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&evil), None);
    }

    #[test]
    fn frame_is_length_prefixed_body() {
        let msg = NetMsg::App(AppMsg::from("abc"));
        let frame = encode_frame(&msg);
        let (len, body) = frame.split_first_chunk::<4>().unwrap();
        assert_eq!(u32::from_le_bytes(*len) as usize, body.len());
        assert_eq!(decode(body), Some(msg));
    }

    /// Decoder totality over a hostile corpus: truncations of every valid
    /// body, single-byte corruptions, random soup, and absurd counts must
    /// never panic, and a count exceeding the remaining bytes must never
    /// allocate its claimed size.
    #[test]
    fn decoder_is_total_over_malformed_corpus() {
        for m in sample_msgs() {
            let body = encode_body(&m);
            for cut_at in 0..body.len() {
                let _ = decode(body.get(..cut_at).unwrap_or(&[]));
            }
            for i in 0..body.len() {
                let mut mutated = body.clone();
                if let Some(b) = mutated.get_mut(i) {
                    *b = b.wrapping_add(1);
                }
                let _ = decode(&mutated); // any verdict, no panic
            }
            // Trailing garbage after a valid message rejects the frame.
            let mut padded = body.clone();
            padded.push(0);
            assert_eq!(decode(&padded), None, "{m:?}");
        }
        // A huge claimed count with a short body must be rejected cheaply.
        let mut evil = vec![BINARY_V1, TAG_SYNC_AGG];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&evil), None);
        let mut rng = SimRng::new(0xC0DEC);
        for _ in 0..4_000 {
            let len = rng.range(0, 96) as usize;
            let mut soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            let _ = decode(&soup);
            // The same soup as a claimed-binary body.
            soup.insert(0, BINARY_V1);
            let _ = decode(&soup);
        }
    }

    /// The borrowing decoder agrees with the owning one on every valid
    /// body, and its payload slices really do alias the input buffer
    /// (zero-copy), not a fresh allocation.
    #[test]
    fn ref_decode_agrees_and_borrows_from_the_frame() {
        for m in sample_msgs() {
            let body = encode_body(&m);
            let r = decode_body_ref(&body).expect("valid body");
            let body_range = body.as_ptr() as usize..body.as_ptr() as usize + body.len();
            let in_body = |s: &[u8]| s.is_empty() || body_range.contains(&(s.as_ptr() as usize));
            match &r {
                BodyRef::App(s) => assert!(in_body(s), "App payload copied"),
                BodyRef::AppBatch(parts) => {
                    assert!(parts.iter().all(|s| in_body(s)), "batch payload copied");
                }
                BodyRef::Fwd { msg, .. } => assert!(in_body(msg), "Fwd payload copied"),
                BodyRef::Owned(_) => {}
            }
            assert_eq!(r.into_owned(), m);
        }
    }

    /// Only a [`BINARY_V1`] body decodes: an empty body, an unknown
    /// version byte and a `{`-led body are all malformed.
    #[test]
    fn ref_decode_rejects_non_binary_bodies() {
        assert_eq!(decode_body_ref(&[]), None);
        assert_eq!(decode_body_ref(&[0xFE, 0x00]), None);
        assert_eq!(decode_body_ref(br#"{"App":[106]}"#), None);
    }

    /// Totality of the borrowing decoder over the same hostile corpus as
    /// [`decoder_is_total_over_malformed_corpus`], and agreement with the
    /// routed decoder on every verdict for bare bodies.
    #[test]
    fn ref_decoder_is_total_over_malformed_corpus() {
        let routed_bare = |body: &[u8]| {
            decode_body_routed(body, false).and_then(|(group, m)| group.is_none().then_some(m))
        };
        for m in sample_msgs() {
            let body = encode_body(&m);
            for cut_at in 0..body.len() {
                let sliced = body.get(..cut_at).unwrap_or(&[]);
                assert_eq!(decode(sliced), routed_bare(sliced));
            }
            for i in 0..body.len() {
                let mut mutated = body.clone();
                if let Some(b) = mutated.get_mut(i) {
                    *b = b.wrapping_add(1);
                }
                let _ = decode_body_ref(&mutated); // any verdict, no panic
            }
            let mut padded = body.clone();
            padded.push(0);
            assert_eq!(decode_body_ref(&padded), None, "{m:?}");
        }
        // Hostile counts reject cheaply on the ref path too.
        for tag in [TAG_APP, TAG_APP_BATCH, TAG_SYNC_AGG, TAG_FWD, TAG_ACK] {
            let mut evil = vec![BINARY_V1, tag];
            evil.extend_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(decode_body_ref(&evil), None);
        }
        let mut rng = SimRng::new(0xBEEF);
        for _ in 0..4_000 {
            let len = rng.range(0, 96) as usize;
            let mut soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            let _ = decode_body_ref(&soup);
            soup.insert(0, BINARY_V1);
            assert_eq!(decode(&soup), routed_bare(&soup), "ref/routed decoders disagree");
        }
    }

    /// Pinned golden bytes for the group envelope: `0x02 gid:u64le` then
    /// a complete v1 inner body. Compatibility rule as for
    /// [`golden_bytes_are_stable`] — mutating this layout means a new
    /// version byte, not an edit to v2.
    #[test]
    fn golden_envelope_bytes_are_stable() {
        let msg = NetMsg::App(AppMsg::from("ab"));
        let body = grouped_body(GroupId::new(7), &msg);
        let hex: String = body.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "02",               // GROUP_ENVELOPE_V2
            "0700000000000000", // group = 7 (u64le)
            "01",               // inner: BINARY_V1
            "01",               // inner tag: App
            "02000000",         // payload len 2
            "6162",             // "ab"
        );
        assert_eq!(hex, expected);
        assert_eq!(decode_body_routed(&body, false), Some((Some(GroupId::new(7)), msg)));
    }

    #[test]
    fn envelope_roundtrip_all_variants() {
        for gid in [GroupId::DIRECTORY, GroupId::new(1), GroupId::new(u64::MAX)] {
            for m in sample_msgs() {
                let bin = grouped_body(gid, &m);
                assert_eq!(bin.first(), Some(&GROUP_ENVELOPE_V2));
                assert_eq!(bin.len(), 9 + encode_body(&m).len());
                assert_eq!(decode_body_routed(&bin, false), Some((Some(gid), m.clone())));
                let (g, inner) = split_group_envelope(&bin).expect("envelope splits");
                assert_eq!(g, gid);
                assert_eq!(decode(inner), Some(m.clone()), "inner is a complete body");
            }
        }
    }

    /// The benchmark's shape of the grouped encoder: a length prefix in
    /// front of the enveloped body, never an error.
    #[test]
    fn envelope_frame_is_length_prefixed_body() {
        let msg = NetMsg::App(AppMsg::from("abc"));
        let gid = GroupId::new(42);
        let frame = encode_frame_grouped(gid, &msg, WireFormat::Binary).unwrap();
        let (len, body) = frame.split_first_chunk::<4>().unwrap();
        assert_eq!(u32::from_le_bytes(*len) as usize, body.len());
        assert_eq!(decode_body_routed(body, false), Some((Some(gid), msg)));
    }

    /// Frames appended one after another into one buffer are, byte for
    /// byte, the frames built one at a time: length prefix, envelope
    /// header, then the bare body.
    #[test]
    fn appended_frames_are_the_enveloped_frames_back_to_back() {
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        for (i, m) in (1..).zip(sample_msgs()) {
            let gid = GroupId::new(i);
            append_frame_grouped(&mut buf, gid, &m);
            let body = encode_body(&m);
            let mut frame = (9 + body.len() as u32).to_le_bytes().to_vec();
            frame.push(GROUP_ENVELOPE_V2);
            frame.extend_from_slice(&i.to_le_bytes());
            frame.extend_from_slice(&body);
            assert_eq!(encode_frame_grouped(gid, &m, WireFormat::Binary).unwrap(), frame);
            expected.extend_from_slice(&frame);
        }
        assert_eq!(buf, expected);
    }

    /// One connection carries bare and enveloped frames mixed: a bare v1
    /// body decodes with no group, an enveloped one with its own.
    #[test]
    fn routed_decoder_accepts_legacy_single_group_frames() {
        for m in sample_msgs() {
            let bare = encode_body(&m);
            assert_eq!(decode_body_routed(&bare, false), Some((None, m.clone())));
        }
    }

    /// Totality of the routed decoder over a hostile corpus: truncations
    /// (the whole 9-byte header range included), single-byte corruption,
    /// empty/short envelopes, nested envelopes, and random soup claiming
    /// the envelope byte never panic or alloc-bomb. A serde_json body,
    /// bare or enveloped, is malformed like any other non-`0x01` body,
    /// whatever the ignored flag says.
    #[test]
    fn routed_decoder_is_total_over_malformed_corpus() {
        for m in sample_msgs() {
            let json = serde_json::to_vec(&m).unwrap();
            let mut enveloped_json = vec![GROUP_ENVELOPE_V2];
            enveloped_json.extend_from_slice(&9u64.to_le_bytes());
            enveloped_json.extend_from_slice(&json);
            for flag in [true, false] {
                assert_eq!(decode_body_routed(&json, flag), None, "bare JSON {m:?}");
                assert_eq!(decode_body_routed(&enveloped_json, flag), None, "enveloped JSON {m:?}");
            }
            let body = grouped_body(GroupId::new(9), &m);
            for cut_at in 0..body.len() {
                let sliced = body.get(..cut_at).unwrap_or(&[]);
                assert_eq!(
                    decode_body_routed(sliced, true),
                    None,
                    "truncated envelope must reject ({m:?} at {cut_at})"
                );
            }
            for i in 0..body.len() {
                let mut mutated = body.clone();
                if let Some(b) = mutated.get_mut(i) {
                    *b = b.wrapping_add(1);
                }
                let _ = decode_body_routed(&mutated, true); // any verdict, no panic
            }
            // Trailing garbage after a valid inner body rejects the frame.
            let mut padded = body.clone();
            padded.push(0);
            assert_eq!(decode_body_routed(&padded, true), None, "{m:?}");
        }
        // An envelope whose inner body is empty, or is itself an
        // envelope, rejects: envelopes never nest.
        let mut hdr = vec![GROUP_ENVELOPE_V2];
        hdr.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(decode_body_routed(&hdr, true), None, "empty inner body");
        let mut nested = hdr.clone();
        nested.extend_from_slice(&hdr);
        assert_eq!(decode_body_routed(&nested, true), None, "nested envelope");
        // Random soup, bare and with a claimed envelope byte; the routed
        // decoder must agree with the single-group decoders modulo the
        // envelope header.
        let mut rng = SimRng::new(0xE17E10);
        for _ in 0..4_000 {
            let len = rng.range(0, 96) as usize;
            let mut soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            let _ = decode_body_routed(&soup, true);
            let _ = decode_body_routed(&soup, false);
            soup.insert(0, GROUP_ENVELOPE_V2);
            match (decode_body_routed(&soup, false), split_group_envelope(&soup)) {
                (Some((Some(gid), msg)), Some((gid2, inner))) => {
                    assert_eq!(gid, gid2);
                    assert_eq!(decode(inner), Some(msg));
                }
                (Some(_), _) => unreachable!("claimed-envelope soup decoded without splitting"),
                (None, _) => {}
            }
        }
    }

    #[test]
    fn split_group_envelope_is_explicit_about_short_headers() {
        assert_eq!(split_group_envelope(&[]), None);
        assert_eq!(split_group_envelope(&[GROUP_ENVELOPE_V2]), None);
        assert_eq!(split_group_envelope(&[GROUP_ENVELOPE_V2, 1, 2, 3]), None);
        assert_eq!(split_group_envelope(&[BINARY_V1, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        // Exactly the 9-byte header splits to an empty inner body; the
        // routed decoder then rejects it, but the split itself is total.
        let mut hdr = vec![GROUP_ENVELOPE_V2];
        hdr.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(split_group_envelope(&hdr), Some((GroupId::new(5), &[][..])));
    }

    #[test]
    fn unknown_tag_and_bad_option_byte_rejected() {
        assert_eq!(decode(&[BINARY_V1, 99]), None);
        // Sync with has_view byte = 2.
        let mut body = vec![BINARY_V1, TAG_SYNC];
        body.extend_from_slice(&5u64.to_le_bytes());
        body.push(2);
        assert_eq!(decode(&body), None);
        // Unknown leading byte.
        assert_eq!(decode(&[0xFE, 0x00]), None);
        assert_eq!(decode(&[]), None);
    }
}
