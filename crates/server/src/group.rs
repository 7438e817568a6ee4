//! One hosted group instance: the paper's full single-group protocol
//! stack (views, cuts, FIFO buffers, batch stage, audit cadence) owned
//! by exactly one shard worker.
//!
//! A `GroupInstance` wraps a deterministic [`Sim`] over `capacity`
//! pre-provisioned end-points. Clients join and leave a *subset* of
//! those end-points; each membership change is one paper reconfiguration
//! (`start_change` + view formation). Commands arrive as [`GroupCmd`]
//! values through the owning shard's channel, so per-group execution is
//! totally ordered and byte-for-byte reproducible: a group driven
//! through a shared server produces the identical trace to the same
//! command sequence applied to an isolated instance — the property the
//! multi-group differential suite pins.
//!
//! Determinism discipline (analyzer rule D1 pins this file): only
//! ordered containers, no ambient clocks, no ambient randomness — every
//! random draw comes from the seeded `Sim` itself.

use std::collections::BTreeMap;
use vsgm_core::{Config, CorruptionKind};
use vsgm_harness::{Sim, SimOptions};
use vsgm_ioa::{SimTime, Violation};
use vsgm_net::{FaultPlan, FaultStats};
use vsgm_types::{AppMsg, Event, GroupId, NetMsg, ProcSet, ProcessId, View};

/// Derives the per-group simulation seed from a server-wide base seed.
/// Isolated reference runs must use the same derivation to reproduce a
/// hosted group's trace exactly.
pub fn group_seed(base: u64, gid: GroupId) -> u64 {
    base ^ gid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A command applied to one group instance. Every mutation of group
/// state flows through this enum — through one shard channel — so each
/// group observes a total command order.
#[derive(Debug, Clone)]
pub enum GroupCmd {
    /// A client joins as member `p` (must be within the instance's
    /// capacity); triggers one reconfiguration if newly joined.
    Join(ProcessId),
    /// Member `p` leaves; triggers one reconfiguration while members
    /// remain (an empty group goes dormant instead).
    Leave(ProcessId),
    /// Member `from` multicasts `msg` within the group.
    Send {
        /// The multicasting member.
        from: ProcessId,
        /// The payload.
        msg: AppMsg,
    },
    /// Advances the group's simulated clock by `ms` milliseconds.
    RunForMs(u64),
    /// Runs the group to quiescence.
    Run,
    /// Crashes member `p` (§8 fault).
    Crash(ProcessId),
    /// Recovers member `p` (§8 recovery).
    Recover(ProcessId),
    /// Partitions the group's network into the given components.
    Partition(Vec<Vec<ProcessId>>),
    /// Heals all partitions.
    Heal,
    /// Injects a state corruption at member `p` (self-stabilization
    /// tier).
    Corrupt {
        /// The corrupted member.
        p: ProcessId,
        /// The corruption class.
        kind: CorruptionKind,
    },
    /// Installs a message-fault plan on the group's network.
    Faults(FaultPlan),
}

/// A snapshot of one group's externally observable health, cheap enough
/// to gather across thousands of groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReport {
    /// The group's identity.
    pub gid: GroupId,
    /// Currently joined members.
    pub members: ProcSet,
    /// Events recorded so far, drained ones included.
    pub trace_len: usize,
    /// Application messages delivered so far.
    pub delivered: u64,
    /// Views installed so far (GCS `view` events).
    pub views_installed: u64,
    /// Message faults injected into this group's network.
    pub fault_injections: u64,
    /// State corruptions injected into this group.
    pub corruptions: u64,
}

/// An output frame a hosted group owes one of its clients: a delivery
/// or an installed view, addressed to member `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutput {
    /// The member (== client process) the frame is for.
    pub to: ProcessId,
    /// The frame: `Fwd` for deliveries, `ViewMsg` for installed views.
    pub msg: NetMsg,
}

/// One group's full protocol instance. See the module docs.
pub struct GroupInstance {
    gid: GroupId,
    sim: Sim,
    capacity: u64,
    members: ProcSet,
    corruptions: u64,
    /// `Deliver` events consumed by [`GroupInstance::drain_outputs`].
    delivered: u64,
    /// `GcsView` events consumed by [`GroupInstance::drain_outputs`].
    views_installed: u64,
    /// Per-member latest installed view observed while draining (stamps
    /// outgoing `Fwd` frames).
    last_view: BTreeMap<ProcessId, View>,
    /// Per-(receiver, origin) running delivery index for `Fwd` frames.
    fwd_index: BTreeMap<(ProcessId, ProcessId), u64>,
}

impl GroupInstance {
    /// Creates a dormant instance with `capacity` pre-provisioned
    /// end-points and no members. `seed` should come from
    /// [`group_seed`] so isolated reruns can reproduce it.
    pub fn new(gid: GroupId, capacity: u64, seed: u64) -> GroupInstance {
        let opts = SimOptions { seed, ..SimOptions::default() };
        let sim = Sim::new_paper(capacity.max(1) as usize, Config::default(), opts);
        GroupInstance {
            gid,
            sim,
            capacity: capacity.max(1),
            members: ProcSet::new(),
            corruptions: 0,
            delivered: 0,
            views_installed: 0,
            last_view: BTreeMap::new(),
            fwd_index: BTreeMap::new(),
        }
    }

    /// The group's identity.
    pub fn gid(&self) -> GroupId {
        self.gid
    }

    /// Currently joined members.
    pub fn members(&self) -> &ProcSet {
        &self.members
    }

    /// Whether `p` names one of the pre-provisioned end-points.
    pub fn in_capacity(&self, p: ProcessId) -> bool {
        (1..=self.capacity).contains(&p.raw())
    }

    /// Applies one command. Commands referencing processes outside the
    /// instance's capacity (or non-members, where membership is
    /// required) are ignored rather than corrupting group state.
    pub fn apply(&mut self, cmd: GroupCmd) {
        match cmd {
            GroupCmd::Join(p) => {
                if self.in_capacity(p) && self.members.insert(p) {
                    let members = self.members.clone();
                    self.sim.reconfigure(&members);
                }
            }
            GroupCmd::Leave(p) => {
                if self.members.remove(&p) && !self.members.is_empty() {
                    let members = self.members.clone();
                    self.sim.reconfigure(&members);
                }
            }
            GroupCmd::Send { from, msg } => {
                if self.members.contains(&from) {
                    self.sim.send(from, msg);
                }
            }
            GroupCmd::RunForMs(ms) => self.sim.run_for(SimTime::from_millis(ms)),
            GroupCmd::Run => self.sim.run_to_quiescence(),
            GroupCmd::Crash(p) => {
                if self.in_capacity(p) {
                    self.sim.crash(p);
                }
            }
            GroupCmd::Recover(p) => {
                if self.in_capacity(p) {
                    self.sim.recover(p);
                }
            }
            GroupCmd::Partition(components) => self.sim.partition(&components),
            GroupCmd::Heal => self.sim.heal(),
            GroupCmd::Corrupt { p, kind } => {
                if self.in_capacity(p) {
                    self.corruptions += 1;
                    self.sim.corrupt(p, kind);
                }
            }
            GroupCmd::Faults(plan) => self.sim.set_fault_plan(plan),
        }
    }

    /// Runs the instance to quiescence (daemon mode runs this after
    /// every command so outputs are promptly drainable).
    pub fn run_to_quiescence(&mut self) {
        self.sim.run_to_quiescence();
    }

    /// Consumes the trace recorded since the previous drain, translating
    /// its application-facing events into wire frames owed to clients:
    /// `Deliver` becomes a [`NetMsg::Fwd`] (origin, receiver's latest
    /// installed view, running per-channel index), `GcsView` becomes a
    /// [`NetMsg::ViewMsg`]. Nothing drained is retained: the checkers
    /// judged every event online as it was recorded.
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
                    let view =
                        self.last_view.get(&p).cloned().unwrap_or_else(|| View::initial(p));
                    let index = self.fwd_index.entry((p, q)).or_insert(0);
                    *index += 1;
                    out.push(GroupOutput {
                        to: p,
                        msg: NetMsg::Fwd(vsgm_types::FwdPayload {
                            origin: q,
                            view,
                            index: *index,
                            msg,
                        }),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// The trace entries since the last [`GroupInstance::drain_outputs`]
    /// as JSON lines — the whole run for the schedule-driven suites, which
    /// never drain (the differential suite's byte-comparison surface).
    pub fn trace_json(&self) -> String {
        self.sim.trace().to_json_lines()
    }

    /// Cheap health snapshot: running counters plus whatever is not
    /// drained yet (nothing, in daemon mode).
    pub fn report(&self) -> GroupReport {
        let (mut delivered, mut views_installed) = (self.delivered, self.views_installed);
        for entry in self.sim.trace().entries() {
            match entry.event {
                Event::Deliver { .. } => delivered += 1,
                Event::GcsView { .. } => views_installed += 1,
                _ => {}
            }
        }
        GroupReport {
            gid: self.gid,
            members: self.members.clone(),
            trace_len: self.sim.trace().len(),
            delivered,
            views_installed,
            fault_injections: self.fault_stats().injected_drops
                + self.fault_stats().injected_dups,
            corruptions: self.corruptions,
        }
    }

    /// Message-fault accounting for this group's private network.
    pub fn fault_stats(&self) -> FaultStats {
        self.sim.fault_stats()
    }

    /// Finalizes the spec checkers and returns every violation. The
    /// instance remains usable (checkers keep running online).
    pub fn finish(&mut self) -> Vec<Violation> {
        self.sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn joined(g: &mut GroupInstance, ids: &[u64]) {
        for i in ids {
            g.apply(GroupCmd::Join(p(*i)));
        }
    }

    #[test]
    fn join_send_deliver_roundtrip() {
        let mut g = GroupInstance::new(GroupId::new(1), 3, 7);
        joined(&mut g, &[1, 2, 3]);
        g.apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("hello") });
        g.apply(GroupCmd::Run);
        let r = g.report();
        assert_eq!(r.members, [p(1), p(2), p(3)].into_iter().collect::<ProcSet>());
        // p2 and p3 each deliver the message (self-delivery is not part
        // of the paper's deliver action).
        assert!(r.delivered >= 2, "{r:?}");
        assert!(r.views_installed >= 3, "{r:?}");
        assert!(g.finish().is_empty(), "spec checkers clean");
    }

    #[test]
    fn same_seed_same_commands_same_trace() {
        let run = || {
            let mut g = GroupInstance::new(GroupId::new(4), 3, group_seed(99, GroupId::new(4)));
            joined(&mut g, &[1, 2, 3]);
            g.apply(GroupCmd::Send { from: p(2), msg: AppMsg::from("m1") });
            g.apply(GroupCmd::RunForMs(5));
            g.apply(GroupCmd::Leave(p(3)));
            g.apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("m2") });
            g.apply(GroupCmd::Run);
            g.trace_json()
        };
        assert_eq!(run(), run(), "byte-identical reruns");
    }

    #[test]
    fn out_of_capacity_and_non_member_commands_are_ignored() {
        let mut g = GroupInstance::new(GroupId::new(2), 2, 3);
        joined(&mut g, &[1, 2]);
        let before = g.trace_json();
        g.apply(GroupCmd::Join(p(9))); // beyond capacity
        g.apply(GroupCmd::Send { from: p(9), msg: AppMsg::from("x") });
        g.apply(GroupCmd::Send { from: p(2), msg: AppMsg::from("") }); // member: fine
        g.apply(GroupCmd::Crash(p(40)));
        assert!(g.members().len() == 2);
        // Only the legal member send changed the trace.
        assert!(g.trace_json().len() >= before.len());
    }

    #[test]
    fn drain_outputs_translates_deliveries_and_views() {
        let mut g = GroupInstance::new(GroupId::new(3), 2, 11);
        joined(&mut g, &[1, 2]);
        g.apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("payload") });
        g.apply(GroupCmd::Run);
        let out = g.drain_outputs();
        assert!(
            out.iter().any(|o| matches!(&o.msg, NetMsg::ViewMsg(v) if v.contains(p(1)))),
            "view frames drained: {out:?}"
        );
        let fwd: Vec<_> = out
            .iter()
            .filter_map(|o| match &o.msg {
                NetMsg::Fwd(f) if o.to == p(2) => Some(f),
                _ => None,
            })
            .collect();
        assert!(
            fwd.iter().any(|f| f.origin == p(1) && f.msg == AppMsg::from("payload")),
            "delivery drained as Fwd: {out:?}"
        );
        // A second drain with no new events is empty.
        assert!(g.drain_outputs().is_empty());
    }

    #[test]
    fn drain_outputs_retains_nothing_and_the_report_keeps_counting() {
        let mut g = GroupInstance::new(GroupId::new(3), 2, 11);
        joined(&mut g, &[1, 2]);
        g.apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("one") });
        g.apply(GroupCmd::Run);
        let undrained = g.report();
        assert!(undrained.trace_len > 0 && undrained.delivered == 2, "{undrained:?}");
        assert_eq!(g.trace_json().lines().count(), undrained.trace_len);
        let out = g.drain_outputs();
        assert_eq!(out.len() as u64, undrained.delivered + undrained.views_installed);
        assert_eq!(g.trace_json(), "", "nothing retained past the drain");
        assert_eq!(g.report(), undrained, "the report does not depend on who drained what");
        g.apply(GroupCmd::Send { from: p(2), msg: AppMsg::from("two") });
        g.apply(GroupCmd::Run);
        let later = g.report();
        assert!(later.trace_len > undrained.trace_len, "{later:?}");
        assert_eq!(later.delivered, 4);
        // Steps continue where the drained entries left off.
        let first = g.trace_json().lines().next().map(str::to_owned).unwrap_or_default();
        assert!(first.contains(&format!("\"step\":{}", undrained.trace_len)), "{first}");
        assert!(g.finish().is_empty());
    }

    #[test]
    fn empty_group_goes_dormant_not_panicking() {
        let mut g = GroupInstance::new(GroupId::new(5), 2, 1);
        joined(&mut g, &[1, 2]);
        g.apply(GroupCmd::Leave(p(1)));
        g.apply(GroupCmd::Leave(p(2)));
        g.apply(GroupCmd::Send { from: p(1), msg: AppMsg::from("ghost") });
        g.apply(GroupCmd::Run);
        assert!(g.members().is_empty());
        assert!(g.finish().is_empty());
    }
}
