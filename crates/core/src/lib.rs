//! **vsgm-core** — the paper's primary contribution: a client-server
//! virtually synchronous group multicast end-point.
//!
//! The service is implemented by symmetric GCS end-points running at the
//! clients; group membership is maintained *externally* by dedicated
//! membership servers (see `vsgm-membership`). The end-point algorithm is
//! built incrementally, mirroring the paper's inheritance-based
//! construction (§5):
//!
//! | Layer | Paper automaton | Adds |
//! |---|---|---|
//! | [`Stack::Wv`] | `WV_RFIFO_p` (Fig. 9) | within-view reliable FIFO multicast |
//! | [`Stack::VsTs`] | `VS_RFIFO+TS_p` (Fig. 10) | Virtual Synchrony + Transitional Sets via one round of `sync` messages tagged with **locally unique** start-change ids |
//! | [`Stack::Full`] | `GCS_p` (Fig. 11) | Self Delivery via the block/block_ok handshake |
//!
//! Each layer is a set of extra preconditions and effects on the parent's
//! actions (the modules [`wv`], [`vs`], [`sd`] correspond one-to-one to
//! the paper's automata); [`Endpoint`] composes the layers selected by
//! [`Config::stack`], which is also the ablation knob for the experiments.
//!
//! Beside the paper's layers sit this repository's extensions, each a
//! module of its own: [`batch`] (application-message batching),
//! [`aggregation`] (§9 two-tier synchronization), [`audit`] / [`corrupt`]
//! (self-stabilization) and [`stability`] — the garbage collection the
//! paper leaves open: members acknowledge what they have delivered when
//! their host asks ([`Input::AckDue`]), and an end-point drops what every
//! member of its view has delivered.
//!
//! The headline algorithmic property: on a `start_change(cid, set)`
//! notification the end-point sends **one** synchronization message tagged
//! with its *local* `cid` — no agreement on a global identifier is needed
//! because the eventual view carries the `startId` map telling everyone
//! which synchronization message of each peer to use. The virtual
//! synchrony round therefore runs in parallel with the membership round.
//!
//! # Quick start
//!
//! ```
//! use vsgm_core::{Config, Endpoint, Input, Effect};
//! use vsgm_obs::NoopRecorder;
//! use vsgm_types::{AppMsg, ProcessId};
//!
//! let p1 = ProcessId::new(1);
//! let mut ep = Endpoint::new(p1, Config::default());
//! // In its initial singleton view, a send comes straight back.
//! let mut effects = Vec::new();
//! ep.step(Some(Input::AppSend(AppMsg::from("hello"))), &mut NoopRecorder, &mut effects);
//! ep.step(None, &mut NoopRecorder, &mut effects);
//! assert!(effects.iter().any(|e| matches!(
//!     e,
//!     Effect::DeliverApp { from, .. } if *from == p1
//! )));
//! ```

#![warn(missing_docs)]

pub mod aggregation;
pub mod audit;
pub mod batch;
pub mod client;
pub mod config;
pub mod corrupt;
pub mod endpoint;
pub mod forward;
pub mod invariants;
pub mod sd;
pub mod stability;
pub mod state;
pub mod vs;
pub mod wv;

pub use audit::AuditFailure;
pub use batch::{BatchConfig, FlushCause};
pub use client::{BlockingClient, Hosted, Sink};
pub use config::{Config, Stack};
pub use corrupt::CorruptionKind;
pub use endpoint::{Action, Effect, Endpoint, GroupEndpoint, Input};
pub use forward::{ForwardCmd, ForwardStrategyKind};
