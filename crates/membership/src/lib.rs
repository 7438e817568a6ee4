//! Membership services for the vsgm stack.
//!
//! The GCS end-points of the paper consume an *external* membership
//! service through exactly two notifications (Fig. 2):
//!
//! * `start_change_p(cid, set)` — a view change is in progress; `cid` is a
//!   locally unique identifier, **not** globally agreed upon;
//! * `view_p(v)` — the new view, carrying the `startId` map from members
//!   to the last start-change identifiers they received.
//!
//! Two implementations are provided:
//!
//! * [`oracle::MembershipOracle`] — a scripted, centralized service for
//!   simulations and tests. The harness tells it *when* membership changes
//!   happen; the oracle guarantees every emitted notification satisfies
//!   the Fig. 2 spec (monotone cids and view ids, subset rules, correct
//!   `startId` maps), including cascaded `start_change`s, concurrent
//!   partitioned views, and crash/recovery (§8).
//! * [`server::Server`] — a membership *server* in the client-server
//!   architecture of the paper's reference \[27\]: dedicated servers (not
//!   the clients) exchange one round of proposals to agree on views, each
//!   serving its own set of clients. Used by the scalability experiment
//!   (E9) and the end-to-end server-based scenarios.

#![warn(missing_docs)]

pub mod oracle;
pub mod server;

pub use oracle::{MembershipOracle, Notice};
pub use server::{Server, ServerMsg, ServerOutput};
