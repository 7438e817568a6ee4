//! Application payloads and the tagged wire messages of Figs. 9–11.

use crate::cut::Cut;
use crate::ids::{ProcessId, StartChangeId};
use crate::view::View;
use crate::ProcSet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// 1-based index of a message in a per-(sender, view) FIFO sequence.
///
/// The paper indexes `msgs[q][v]` from 1 and uses `last_dlvrd = 0` for
/// "nothing delivered yet"; we keep the same convention, so an index of
/// `i` means "the `i`-th message sent by that sender in that view".
pub type MsgIndex = u64;

/// An opaque application multicast payload.
///
/// Payloads are reference-counted so queueing the same message on many
/// per-peer channels (as the centralized `CO_RFIFO` model does) is cheap.
///
/// ```
/// use vsgm_types::AppMsg;
/// let m = AppMsg::from("hello");
/// assert_eq!(m.as_bytes(), b"hello");
/// assert_eq!(m.len(), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct AppMsg {
    data: Arc<[u8]>,
}

impl AppMsg {
    /// Creates a payload from raw bytes.
    pub fn new(data: impl Into<Arc<[u8]>>) -> Self {
        AppMsg { data: data.into() }
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl From<&str> for AppMsg {
    fn from(s: &str) -> Self {
        AppMsg { data: s.as_bytes().into() }
    }
}

impl From<Vec<u8>> for AppMsg {
    fn from(v: Vec<u8>) -> Self {
        AppMsg { data: v.into() }
    }
}

impl fmt::Debug for AppMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.data) {
            Ok(s) if s.len() <= 32 => write!(f, "AppMsg({s:?})"),
            _ => write!(f, "AppMsg({} bytes)", self.data.len()),
        }
    }
}

/// The body of a synchronization message (Fig. 10, `tag=sync_msg`).
///
/// Sent by an end-point after it receives `start_change(cid, set)` and its
/// application acknowledges the block request. `view` is the sender's
/// current view; `cut` maps each member of that view to the index of the
/// last message the sender commits to deliver before installing any view
/// `v'` with `v'.startId(sender) = cid`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncPayload {
    /// The locally unique start-change identifier this message answers.
    pub cid: StartChangeId,
    /// The sender's current view at the time of sending, or `None` when the
    /// §5.2.4 *slim* optimization applies (recipient not in the sender's
    /// current view — "I am not in your transitional set").
    pub view: Option<View>,
    /// The committed delivery cut; empty for slim messages.
    pub cut: Cut,
}

impl SyncPayload {
    /// Whether this is a §5.2.4 slim synchronization message.
    pub fn is_slim(&self) -> bool {
        self.view.is_none()
    }

    /// Approximate wire size in bytes (for the E7 overhead experiment).
    pub fn wire_size(&self) -> usize {
        let view_part = self
            .view
            .as_ref()
            .map_or(0, |v| 8 + v.len() * 16 /* id + (member, startId) pairs */);
        8 /* cid */ + view_part + self.cut.len() * 16
    }
}

/// The body of a forwarded application message (Figs. 9/10, `tag=fwd_msg`).
///
/// Carries the original sender `r`, the view `v` the message was originally
/// sent in, its FIFO index `i` in `msgs[r][v]`, and the message itself.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FwdPayload {
    /// Original sender of the message.
    pub origin: ProcessId,
    /// View the message was originally sent in.
    pub view: View,
    /// 1-based index of the message in `msgs[origin][view]`.
    pub index: MsgIndex,
    /// The forwarded application message.
    pub msg: AppMsg,
}

/// Protocol messages of the *pre-agreement baseline* algorithm
/// (`vsgm-baseline`): a traditional two-round virtual-synchrony protocol
/// that first agrees on a globally unique tag and only then exchanges
/// cuts, as in the paper's references \[7, 22\]. Exists purely as the
/// comparison arm of the one-round-vs-two-rounds experiments.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum BaselineMsg {
    /// Round 1: propose a tag component for the given participant set.
    Propose {
        /// The processes participating in this agreement.
        participants: ProcSet,
        /// The proposer's monotone sequence number.
        seq: u64,
    },
    /// Round 2: the cut exchange, labeled with the agreed global tag.
    Sync {
        /// The processes participating in this agreement.
        participants: ProcSet,
        /// The agreed globally unique tag `(seq, pid)`.
        tag: (u64, u64),
        /// The sender's current view.
        view: View,
        /// The sender's committed delivery cut.
        cut: Cut,
    },
}

impl BaselineMsg {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            BaselineMsg::Propose { participants, .. } => 16 + participants.len() * 8,
            BaselineMsg::Sync { participants, view, cut, .. } => {
                32 + participants.len() * 8 + view.len() * 16 + cut.len() * 16
            }
        }
    }
}

/// A tagged wire message exchanged between end-points over `CO_RFIFO`.
///
/// These are exactly the message kinds of the end-point automata:
///
/// | Variant   | Paper tag  | Introduced in |
/// |-----------|------------|---------------|
/// | [`NetMsg::ViewMsg`] | `view_msg` | Fig. 9 (`WV_RFIFO_p`) |
/// | [`NetMsg::App`]     | `app_msg`  | Fig. 9 |
/// | [`NetMsg::Fwd`]     | `fwd_msg`  | Fig. 9/10 |
/// | [`NetMsg::Sync`]    | `sync_msg` | Fig. 10 (`VS_RFIFO+TS_p`) |
/// | [`NetMsg::SyncAgg`] | — (§9 two-tier extension) | this repo |
/// | [`NetMsg::AppBatch`] | — (endpoint batching) | this repo |
/// | [`NetMsg::Ack`] | `ack_msg` (stability, DESIGN.md §18) | this repo |
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NetMsg {
    /// "All following `App` messages from me were sent in view `v`."
    ViewMsg(View),
    /// An original application message, in FIFO order within the stream
    /// delimited by the latest `ViewMsg`.
    App(AppMsg),
    /// A forwarded application message on behalf of another end-point.
    Fwd(FwdPayload),
    /// A virtual-synchrony synchronization message.
    Sync(SyncPayload),
    /// §9 extension: a leader-aggregated batch of synchronization messages
    /// (one per constituent end-point).
    SyncAgg(Vec<(ProcessId, SyncPayload)>),
    /// A batch of consecutive original application messages from one
    /// sender, in FIFO order within the stream delimited by the latest
    /// `ViewMsg`. Semantically identical to sending each [`NetMsg::App`]
    /// individually back-to-back — receivers unbatch before any protocol
    /// processing, so the per-message event stream is unchanged.
    AppBatch(Vec<AppMsg>),
    /// A message of the two-round pre-agreement baseline algorithm.
    Baseline(BaselineMsg),
    /// Stability acknowledgement: the sender's `last_dlvrd` vector for the
    /// view it last announced. It travels in-stream behind that
    /// `ViewMsg`, so a receiver attributes it to `view_msg[sender]`
    /// exactly as it attributes `App` messages.
    Ack(Cut),
}

impl NetMsg {
    /// The paper's tag name for this message kind.
    pub fn tag(&self) -> &'static str {
        match self {
            NetMsg::ViewMsg(_) => "view_msg",
            NetMsg::App(_) => "app_msg",
            NetMsg::Fwd(_) => "fwd_msg",
            NetMsg::Sync(_) => "sync_msg",
            NetMsg::SyncAgg(_) => "sync_agg",
            NetMsg::AppBatch(_) => "app_batch",
            NetMsg::Baseline(BaselineMsg::Propose { .. }) => "bl_propose",
            NetMsg::Baseline(BaselineMsg::Sync { .. }) => "bl_sync",
            NetMsg::Ack(_) => "ack_msg",
        }
    }

    /// Approximate wire size in bytes, used by the overhead experiments.
    pub fn wire_size(&self) -> usize {
        match self {
            NetMsg::ViewMsg(v) => 8 + v.len() * 16,
            NetMsg::App(m) => 16 + m.len(),
            NetMsg::Fwd(f) => 32 + 8 + f.view.len() * 16 + f.msg.len(),
            NetMsg::Sync(s) => s.wire_size(),
            NetMsg::SyncAgg(batch) => batch.iter().map(|(_, s)| 8 + s.wire_size()).sum(),
            NetMsg::AppBatch(batch) => 16 + batch.iter().map(|m| 4 + m.len()).sum::<usize>(),
            NetMsg::Baseline(b) => b.wire_size(),
            NetMsg::Ack(c) => 8 + c.len() * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ViewId;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn app_msg_construction() {
        let m = AppMsg::from("abc");
        assert_eq!(m.as_bytes(), b"abc");
        assert!(!m.is_empty());
        let e = AppMsg::default();
        assert!(e.is_empty());
        let v = AppMsg::from(vec![1u8, 2, 3, 4]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn app_msg_debug_shows_short_text() {
        assert_eq!(format!("{:?}", AppMsg::from("hi")), "AppMsg(\"hi\")");
        let long = AppMsg::from(vec![0u8; 100]);
        assert_eq!(format!("{long:?}"), "AppMsg(100 bytes)");
    }

    #[test]
    fn sync_payload_slim_detection() {
        let slim = SyncPayload { cid: StartChangeId::new(1), view: None, cut: Cut::default() };
        assert!(slim.is_slim());
        let full = SyncPayload {
            cid: StartChangeId::new(1),
            view: Some(View::initial(p(1))),
            cut: Cut::default(),
        };
        assert!(!full.is_slim());
        assert!(full.wire_size() > slim.wire_size());
    }

    #[test]
    fn net_msg_tags() {
        let v = View::initial(p(1));
        assert_eq!(NetMsg::ViewMsg(v.clone()).tag(), "view_msg");
        assert_eq!(NetMsg::App(AppMsg::from("x")).tag(), "app_msg");
        assert_eq!(
            NetMsg::Fwd(FwdPayload {
                origin: p(2),
                view: v.clone(),
                index: 1,
                msg: AppMsg::from("x")
            })
            .tag(),
            "fwd_msg"
        );
        assert_eq!(
            NetMsg::Sync(SyncPayload {
                cid: StartChangeId::ZERO,
                view: Some(v),
                cut: Cut::default()
            })
            .tag(),
            "sync_msg"
        );
        assert_eq!(NetMsg::SyncAgg(vec![]).tag(), "sync_agg");
        assert_eq!(NetMsg::AppBatch(vec![AppMsg::from("x")]).tag(), "app_batch");
        let ack = NetMsg::Ack(Cut::from_iter([(p(1), 3), (p(2), 0)]));
        assert_eq!(ack.tag(), "ack_msg");
        assert_eq!(ack.wire_size(), 8 + 16 * 2);
    }

    #[test]
    fn net_msg_serde_roundtrip() {
        let v = View::new(
            ViewId::new(1, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(1)), (p(2), StartChangeId::new(2))],
        );
        let msgs = vec![
            NetMsg::ViewMsg(v.clone()),
            NetMsg::App(AppMsg::from("payload")),
            NetMsg::Fwd(FwdPayload {
                origin: p(2),
                view: v.clone(),
                index: 3,
                msg: AppMsg::from("f"),
            }),
            NetMsg::Sync(SyncPayload {
                cid: StartChangeId::new(5),
                view: Some(v),
                cut: Cut::from_iter([(p(1), 2), (p(2), 0)]),
            }),
            NetMsg::AppBatch(vec![AppMsg::from("a"), AppMsg::from("bb")]),
            NetMsg::Ack(Cut::from_iter([(p(1), 2), (p(2), 0)])),
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: NetMsg = serde_json::from_str(&s).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = NetMsg::App(AppMsg::from("a"));
        let big = NetMsg::App(AppMsg::from(vec![0u8; 1000]));
        assert!(big.wire_size() > small.wire_size());
    }
}
