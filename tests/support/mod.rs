//! The differential oracle for `vsgm_server::GroupInstance`: the same
//! group hosted the way the daemon hosted it before it ran end-points
//! directly — a deterministic [`Sim`] over `capacity` pre-provisioned
//! end-points, with a latency-jittered simulated network, a simulated
//! clock and a recorded [`vsgm_ioa::Trace`].
//!
//! It exists for two things only. `tests/multigroup_differential.rs`
//! holds the direct host to it, frame for frame; and
//! `tests/multigroup_chaos.rs` uses the faults only a simulated network
//! can take (crash, partition, loss plans, state corruption) to pin that
//! one group's trouble never reaches a group stepped beside it. It is
//! not a second host: nothing outside `tests/` can reach it.

#![allow(dead_code)] // each suite uses its own half

use std::collections::BTreeMap;
use vsgm_core::{Config, CorruptionKind};
use vsgm_harness::{Sim, SimOptions};
use vsgm_ioa::{SimTime, Violation};
use vsgm_net::codec::append_frame_grouped;
use vsgm_net::FaultPlan;
use vsgm_server::{GroupCmd, GroupOutput, GroupReport};
use vsgm_types::{AppMsg, Event, FwdPayload, GroupId, NetMsg, ProcSet, ProcessId, View};

/// What the oracle can be told to do: the daemon's [`GroupCmd`]s plus
/// simulated time and the fault commands.
#[derive(Debug, Clone)]
pub enum OracleCmd {
    /// One of the daemon's own commands.
    Group(GroupCmd),
    /// Advances the group's simulated clock by this many milliseconds.
    RunForMs(u64),
    /// Crashes member `p` (§8 fault).
    Crash(ProcessId),
    /// Recovers member `p` (§8 recovery).
    Recover(ProcessId),
    /// Partitions the group's network into the given components.
    Partition(Vec<Vec<ProcessId>>),
    /// Heals all partitions.
    Heal,
    /// Injects a state corruption at member `p`.
    Corrupt { p: ProcessId, kind: CorruptionKind },
    /// Installs a message-fault plan on the group's network.
    Faults(FaultPlan),
}

impl From<GroupCmd> for OracleCmd {
    fn from(cmd: GroupCmd) -> OracleCmd {
        OracleCmd::Group(cmd)
    }
}

/// [`GroupReport`] plus the fault accounting only the oracle has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    pub group: GroupReport,
    /// Message faults injected into this group's network.
    pub fault_injections: u64,
    /// State corruptions injected into this group.
    pub corruptions: u64,
}

/// One group hosted on a [`Sim`]. See the module docs.
pub struct OracleGroup {
    gid: GroupId,
    sim: Sim,
    capacity: u64,
    members: ProcSet,
    corruptions: u64,
    stabilized: u64,
    /// `Deliver` / `GcsView` events consumed by `drain_outputs`.
    delivered: u64,
    views_installed: u64,
    /// Per-member latest installed view observed while draining (stamps
    /// outgoing `Fwd` frames).
    last_view: BTreeMap<ProcessId, View>,
    /// Per-(receiver, origin) running delivery index for `Fwd` frames.
    fwd_index: BTreeMap<(ProcessId, ProcessId), u64>,
}

impl OracleGroup {
    /// `seed` (from `vsgm_server::group_seed`) seeds the network's latency
    /// jitter and the fault injector.
    pub fn new(gid: GroupId, capacity: u64, seed: u64) -> OracleGroup {
        let opts = SimOptions { seed, ..SimOptions::default() };
        OracleGroup {
            gid,
            sim: Sim::new_paper(capacity.max(1) as usize, Config::default(), opts),
            capacity: capacity.max(1),
            members: ProcSet::new(),
            corruptions: 0,
            stabilized: 0,
            delivered: 0,
            views_installed: 0,
            last_view: BTreeMap::new(),
            fwd_index: BTreeMap::new(),
        }
    }

    fn in_capacity(&self, p: ProcessId) -> bool {
        (1..=self.capacity).contains(&p.raw())
    }

    pub fn apply(&mut self, cmd: impl Into<OracleCmd>) {
        match cmd.into() {
            OracleCmd::Group(GroupCmd::Join(p)) => {
                if self.in_capacity(p) && self.members.insert(p) {
                    let members = self.members.clone();
                    self.sim.reconfigure(&members);
                }
            }
            OracleCmd::Group(GroupCmd::Leave(p)) => {
                if self.members.remove(&p) && !self.members.is_empty() {
                    let members = self.members.clone();
                    self.sim.reconfigure(&members);
                }
            }
            OracleCmd::Group(GroupCmd::Send { from, msg }) => {
                if self.members.contains(&from) {
                    self.sim.send(from, msg);
                }
            }
            OracleCmd::Group(GroupCmd::Run) => self.sim.run_to_quiescence(),
            // The `Sim` acknowledges on request only; it releases nothing.
            OracleCmd::Group(GroupCmd::Stabilize) => {
                self.stabilized += 1;
                self.sim.ack_round();
            }
            OracleCmd::RunForMs(ms) => self.sim.run_for(SimTime::from_millis(ms)),
            OracleCmd::Crash(p) => {
                if self.in_capacity(p) {
                    self.sim.crash(p);
                }
            }
            OracleCmd::Recover(p) => {
                if self.in_capacity(p) {
                    self.sim.recover(p);
                }
            }
            OracleCmd::Partition(components) => self.sim.partition(&components),
            OracleCmd::Heal => self.sim.heal(),
            OracleCmd::Corrupt { p, kind } => {
                if self.in_capacity(p) {
                    self.corruptions += 1;
                    self.sim.corrupt(p, kind);
                }
            }
            OracleCmd::Faults(plan) => self.sim.set_fault_plan(plan),
        }
    }

    pub fn run_to_quiescence(&mut self) {
        self.sim.run_to_quiescence();
    }

    /// Consumes the trace recorded since the previous drain, translating
    /// `Deliver` into [`NetMsg::Fwd`] (origin, receiver's latest installed
    /// view, running per-channel index) and `GcsView` into
    /// [`NetMsg::ViewMsg`].
    pub fn drain_outputs(&mut self) -> Vec<GroupOutput> {
        let mut out = Vec::new();
        for entry in self.sim.drain_trace() {
            match entry.event {
                Event::GcsView { p, view, .. } => {
                    self.views_installed += 1;
                    self.last_view.insert(p, view.clone());
                    out.push(GroupOutput { to: p, msg: NetMsg::ViewMsg(view) });
                }
                Event::Deliver { p, q, msg } => {
                    self.delivered += 1;
                    let view = self.last_view.get(&p).cloned().unwrap_or_else(|| View::initial(p));
                    let index = self.fwd_index.entry((p, q)).or_insert(0);
                    *index += 1;
                    out.push(GroupOutput {
                        to: p,
                        msg: NetMsg::Fwd(FwdPayload { origin: q, view, index: *index, msg }),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// The trace entries since the last drain as JSON lines — the whole
    /// run for the chaos suite, which never drains.
    pub fn trace_json(&self) -> String {
        self.sim.trace().to_json_lines()
    }

    /// Running counters plus whatever is not drained yet.
    pub fn report(&self) -> OracleReport {
        let (mut delivered, mut views_installed) = (self.delivered, self.views_installed);
        for entry in self.sim.trace().entries() {
            match entry.event {
                Event::Deliver { .. } => delivered += 1,
                Event::GcsView { .. } => views_installed += 1,
                _ => {}
            }
        }
        let faults = self.sim.fault_stats();
        OracleReport {
            group: GroupReport {
                gid: self.gid,
                members: self.members.clone(),
                trace_len: self.sim.trace().len(),
                delivered,
                views_installed,
                stabilized: self.stabilized,
            },
            fault_injections: faults.injected_drops + faults.injected_dups,
            corruptions: self.corruptions,
        }
    }

    pub fn finish(&mut self) -> Vec<Violation> {
        self.sim.finish()
    }
}

/// Splits a group's output frames by receiver and encodes each as the
/// daemon's forwarder would put it on the wire — the byte surface two
/// hosts are compared on. Frames to different receivers travel different
/// sockets, so only the order *per receiver* is observable.
pub fn wire_by_receiver(
    gid: GroupId,
    outputs: &[GroupOutput],
) -> BTreeMap<ProcessId, Vec<Vec<u8>>> {
    let mut by_receiver: BTreeMap<ProcessId, Vec<Vec<u8>>> = BTreeMap::new();
    for out in outputs {
        let mut frame = Vec::new();
        append_frame_grouped(&mut frame, gid, &out.msg);
        by_receiver.entry(out.to).or_default().push(frame);
    }
    by_receiver
}

/// A multicast of `text` from process `from`.
pub fn send(from: u64, text: &str) -> GroupCmd {
    GroupCmd::Send { from: ProcessId::new(from), msg: AppMsg::from(text) }
}
