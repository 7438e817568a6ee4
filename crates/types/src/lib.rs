//! Core types for the **vsgm** (virtually synchronous group multicast) stack.
//!
//! This crate transcribes the vocabulary of Keidar & Khazan, *"A
//! Client-Server Approach to Virtually Synchronous Group Multicast"*
//! (ICDCS 2000) into Rust types shared by every other crate in the
//! workspace:
//!
//! * [`ProcessId`], [`ViewId`], [`StartChangeId`] — the identifier sets of
//!   the paper (§3.1). `StartChangeId` is totally ordered with smallest
//!   element [`StartChangeId::ZERO`] (the paper's `cid₀`); `ViewId` is
//!   ordered with smallest element [`ViewId::ZERO`] (`vid₀`).
//! * [`View`] — the membership view triple `⟨id, set, startId⟩` of Fig. 2.
//!   Two views are *the same* only if all three components are identical
//!   ([`View::same_view`], which is also its `PartialEq`).
//! * [`AppMsg`], [`NetMsg`], [`SyncPayload`] — application payloads and the
//!   tagged wire messages (`view_msg`, `app_msg`, `fwd_msg`, `sync_msg`)
//!   exchanged between end-points over the `CO_RFIFO` substrate (Fig. 9/10).
//! * [`Cut`] — a map from processes to message indices: the set of messages
//!   an end-point commits to deliver before installing the next view (§5.2).
//! * [`VecMap`], [`VecSet`] — a sorted-vector map and set for per-process
//!   state whose size the group bounds (DESIGN.md §17); [`ProcSet`] is a
//!   `VecSet` of processes.
//! * [`event::Event`] — the externally observable actions of the composed
//!   system, used by the spec checkers in `vsgm-spec` to validate traces.
//!
//! # Example
//!
//! ```
//! use vsgm_types::{ProcessId, View, ViewId, StartChangeId};
//!
//! let p = ProcessId::new(1);
//! let initial = View::initial(p);
//! assert!(initial.contains(p));
//! assert_eq!(initial.start_id(p), Some(StartChangeId::ZERO));
//! assert_eq!(initial.id(), ViewId::ZERO);
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::expect_used,
    reason = "outside P1: its expects state invariants of VecMap and serde"
)]

pub mod cut;
pub mod event;
pub mod ids;
pub mod message;
pub mod vec_map;
pub mod vec_set;
pub mod view;

pub use cut::Cut;
pub use event::Event;
pub use ids::{GroupId, ProcessId, StartChangeId, ViewId};
pub use message::{AppMsg, BaselineMsg, FwdPayload, MsgIndex, NetMsg, SyncPayload};
pub use vec_map::VecMap;
pub use vec_set::VecSet;
pub use view::View;

/// An ordered set of processes, as used throughout the paper for view
/// member sets and `start_change` suggestion sets: a sorted vector, since
/// the group bounds it.
pub type ProcSet = VecSet<ProcessId>;
