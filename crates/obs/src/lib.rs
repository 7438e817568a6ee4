//! **vsgm-obs** — unified protocol observability.
//!
//! A zero-external-dependency instrumentation layer for the whole stack,
//! over the one event log every host already keeps — the trace of
//! external actions (§2):
//!
//! * [`spans`] / [`ViewChangeSpan`] — a fold over trace entries keyed by
//!   `(process, start-change id)`: `StartChangeId`s are only locally
//!   unique (§3.1), which is exactly why they make perfect local span
//!   keys. A span opens at `MbrshpStartChange`, closes at the process's
//!   next `GcsView`, and counts the syncs and blocks in between;
//!   sync-round latency is the distance between the two.
//! * [`Registry`] — counters, gauges, and fixed-bucket `u64`
//!   [`Histogram`]s keyed by `&'static str` names, plus per-tag traffic
//!   totals mirroring the network layer. A count that is not a trace
//!   event (a batch flush, an audit reset, a §8 recovery) lives here once.
//! * [`Recorder`] — the hook trait threaded through `vsgm-core`,
//!   `vsgm-membership`, `vsgm-net`, and `vsgm-harness`. Every method
//!   defaults to a no-op, so running with the [`NoopRecorder`] costs
//!   nothing beyond an inlinable virtual call; a [`Registry`] records.
//! * [`Snapshot`] — JSON (`serde_json`) and human-readable table
//!   exporters of a registry and a trace, including derived metrics:
//!   per-view-change sync-round latency, messages per view change by tag,
//!   and delivery latency.

#![warn(missing_docs)]
#![allow(clippy::expect_used, reason = "outside P1: observability sits beside the protocol")]

mod journal;
mod recorder;
mod registry;
mod snapshot;

pub use journal::{spans, ViewChangeSpan};
pub use recorder::{NoopRecorder, Recorder};
pub use registry::{names, Histogram, Registry, TagTraffic, HISTOGRAM_BUCKETS};
pub use snapshot::{HistSummary, Snapshot};
