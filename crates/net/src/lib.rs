//! `CO_RFIFO` substrates for the vsgm stack.
//!
//! The group communication end-points of the paper communicate over a
//! *connection-oriented reliable FIFO multicast service* (Fig. 3). This
//! crate provides it twice, once simulated and once real:
//!
//! * [`sim::SimNet`] — a deterministic discrete-event network with
//!   configurable latency ([`latency::LatencyModel`]), partitions, message
//!   loss outside `reliable_set`s, and crash handling. Used by the
//!   simulation harness; every run is reproducible from a seed.
//! * [`tcp::TcpTransport`] — an event-loop transport over real TCP
//!   sockets (length-prefixed frames, a fixed pool of epoll loop threads
//!   owning all connections), for same-host deployments and wall-clock
//!   benchmarks. TCP provides exactly the per-pair reliable FIFO channel
//!   semantics the spec requires; the paper's own implementation used the
//!   analogous datagram service of its reference \[36\].
//!
//! Both are validated against the `CO_RFIFO` spec checker from
//! `vsgm-spec`.
//!
//! The crate denies `unsafe` everywhere except the private `sys` module,
//! which declares the Linux epoll/eventfd calls the event loops park on.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside D1 and T1: real transports live in wall-clock time (codec.rs opts back in)"
)]

pub mod codec;
pub(crate) mod evloop;
pub mod fault;
pub mod latency;
pub mod sim;
pub mod stats;
#[allow(unsafe_code, reason = "the workspace's one unsafe module (analyzer rule U1)")]
mod sys;
pub mod tcp;
pub(crate) mod writer;

pub use codec::WireFormat;
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultStats};
pub use latency::LatencyModel;
pub use sim::SimNet;
pub use stats::NetStats;
pub use tcp::{FrameHandler, TcpConfig, TcpTransport};

/// A message kind the simulated network can carry and account for.
///
/// [`sim::SimNet`] is generic over its payload so both the GCS end-points'
/// [`vsgm_types::NetMsg`] traffic and the membership servers' internal
/// protocol can run over the same fault model.
pub trait Wire: Clone + std::fmt::Debug {
    /// Short tag naming the message kind, used for traffic accounting.
    fn tag(&self) -> &'static str;
    /// Approximate wire size in bytes, used for byte accounting.
    fn wire_size(&self) -> usize;
}

impl Wire for vsgm_types::NetMsg {
    fn tag(&self) -> &'static str {
        NetMsgExt::tag(self)
    }
    fn wire_size(&self) -> usize {
        NetMsgExt::wire_size(self)
    }
}

/// Disambiguation shim: calls the inherent methods on `NetMsg`.
trait NetMsgExt {
    fn tag(&self) -> &'static str;
    fn wire_size(&self) -> usize;
}

impl NetMsgExt for vsgm_types::NetMsg {
    fn tag(&self) -> &'static str {
        vsgm_types::NetMsg::tag(self)
    }
    fn wire_size(&self) -> usize {
        vsgm_types::NetMsg::wire_size(self)
    }
}
