//! **vsgm-server** — the multi-group server of the paper's client-server
//! architecture (§3): many independent group instances, each running the
//! full virtually-synchronous protocol (views, cuts, FIFO buffers),
//! multiplexed over one event-loop TCP transport.
//!
//! Layering (DESIGN.md §17):
//!
//! * [`group`] — one hosted [`GroupInstance`]: the group's GCS
//!   end-points run directly, every spec checker online, driven by a
//!   totally ordered [`GroupCmd`] stream; frame-identical to an isolated
//!   run of the same commands.
//! * [`shard`] — [`ShardPool`]: `gid → shard` arithmetic routing onto
//!   worker threads that each *own* their groups outright, so the hot
//!   path takes no cross-shard locks; a worker steps a batch of
//!   commands, then hands all their outputs over at once.
//! * [`directory`] — [`Directory`]: name → group resolution with atomic
//!   create-or-join (the concurrent-create race fix).
//! * [`server`] — [`GroupServer`]: the TCP daemon. Its event loops
//!   route each v2 group-envelope frame to the directory or a shard as
//!   they decode it, and the shard workers send replies, deliveries and
//!   views back to the clients, one write per client per batch; no
//!   thread sits in between.
//! * [`node`] — [`Node`]: one end-point pumped over its own TCP transport.
//!
//! ```no_run
//! use vsgm_server::{GroupServer, ServerConfig};
//! use vsgm_types::ProcessId;
//!
//! # fn main() -> std::io::Result<()> {
//! let server = GroupServer::bind(ProcessId::new(0), "127.0.0.1:0", ServerConfig::default())?;
//! println!("serving groups on {}", server.local_addr());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod directory;
pub mod group;
pub mod node;
pub mod server;
pub mod shard;

pub use directory::{DirOutcome, DirRequest, Directory};
pub use group::{group_seed, GroupCmd, GroupInstance, GroupOutput, GroupReport};
pub use node::{AppEvent, Node};
pub use server::{GroupServer, ServerConfig, ServerStats};
pub use shard::{ShardConfig, ShardCounters, ShardPool};
