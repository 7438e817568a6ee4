//! **vsgm-obs** — unified protocol observability.
//!
//! A zero-external-dependency instrumentation layer for the whole stack:
//!
//! * [`ObsEvent`] / [`ObsRecord`] — a compact structured *event journal*
//!   of protocol-level actions (start_change receipt, sync send/receive,
//!   cut agreement, view installs, blocking handshake, forwarding,
//!   message send/delivery, crash recovery, invariant violations), each
//!   stamped with process id, logical step, simulated time, and — for
//!   view-change events — the *local start-change id* that groups events
//!   of one reconfiguration into a span.
//! * [`Journal`] / [`ViewChangeSpan`] — span extraction keyed by
//!   `(process, start-change id)`: `StartChangeId`s are only locally
//!   unique (§3.1 of the paper), which is exactly why they make perfect
//!   local span keys. Sync-round latency is the `start_change →
//!   view install` distance of a completed span.
//! * [`Registry`] — counters, gauges, and fixed-bucket `u64`
//!   [`Histogram`]s keyed by `&'static str` names, plus per-tag traffic
//!   totals mirroring the network layer.
//! * [`Recorder`] — the hook trait threaded through `vsgm-core`,
//!   `vsgm-membership`, `vsgm-net`, and `vsgm-harness`. Every method
//!   defaults to a no-op, so running with the [`NoopRecorder`] costs
//!   nothing beyond an inlinable virtual call; the [`ObsRecorder`]
//!   journals, counts, and derives span metrics.
//! * [`Snapshot`] — JSON (`serde_json`) and human-readable table
//!   exporters, including derived metrics: per-view-change sync-round
//!   latency, messages per view change by tag, and delivery latency.

#![warn(missing_docs)]
#![allow(clippy::expect_used, reason = "outside P1: observability sits beside the protocol")]

mod event;
mod journal;
mod recorder;
mod registry;
mod snapshot;

pub use event::{ObsEvent, ObsRecord};
pub use journal::{Journal, ViewChangeSpan};
pub use recorder::{NoopRecorder, ObsRecorder, Recorder};
pub use registry::{names, Histogram, Registry, TagTraffic, HISTOGRAM_BUCKETS};
pub use snapshot::{HistSummary, Snapshot};
