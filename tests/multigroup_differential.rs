//! Differential multi-group conformance suite. Two questions, one
//! comparison surface.
//!
//! **Is the direct host the protocol?** `vsgm_server::GroupInstance` runs
//! its clients' end-points itself; the oracle in `tests/support/` hosts
//! the same group on a `harness::Sim` (simulated network with latency
//! jitter, simulated clock, recorded trace — how the daemon hosted groups
//! before). Over ≥ 50 randomized `Join`/`Leave`/`Send` schedules driven
//! the way a shard worker drives them (`apply` → `run_to_quiescence` →
//! `drain_outputs`), plus two pinned cases, both must hand every receiver
//! the byte-identical sequence of frames, agree on members, deliveries
//! and views, and end with every spec checker green.
//!
//! **Does multiplexing leak?** A group hosted on the sharded pool must be
//! observationally identical to the same group run alone:
//!
//! * **hosted arm** — N groups through one [`ShardPool`] in daemon mode,
//!   their commands interleaved into one arrival order (each group's own
//!   order kept — what the server's router produces), so groups sharing a
//!   shard worker interleave on one thread and groups on different shards
//!   run concurrently;
//! * **isolated arm** — each group alone in its own [`GroupInstance`], fed
//!   only its own subsequence;
//! * **undrained arm** — the isolated group again, settled after every
//!   command but drained once at the very end: draining is bookkeeping,
//!   not behaviour.
//!
//! The surface is what a client can observe: per receiver, the
//! `append_frame_grouped` bytes of its frames in order (view ids,
//! `startId` maps, `Fwd` origin / index / view stamp, payload) — frames to
//! different receivers leave on different sockets, so no order between
//! them exists to compare.
//!
//! **Does forgetting leak?** The direct host frees from every member's
//! windows what all its members have delivered, after every step, and
//! sends no stability acknowledgement; the oracle's `Sim` keeps every
//! message unless asked for an acknowledgement round. Frames, members,
//! deliveries, views and event counts are therefore compared exactly in
//! every run, hosted and isolated, and the oracle is also fed
//! acknowledgement rounds at seeded points: they add events, and must
//! change no frame.

mod support;

use std::collections::BTreeMap;
use std::time::Duration;
use support::{send, wire_by_receiver, OracleCmd, OracleGroup};
use vsgm_server::{
    group_seed, GroupCmd, GroupInstance, GroupOutput, GroupReport, ShardConfig, ShardPool,
};
use vsgm_types::{GroupId, NetMsg, ProcessId, View};

const BASE_SEED: u64 = 0x9E1D_A212;

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// splitmix64 — deterministic schedule generator without a rand dep.
struct Rng(u64);

impl Rng {
    fn for_schedule(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(seed | 1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generates one group's command stream: joins up front, then a mix of
/// sends and membership churn. Process ids are drawn from `0..=capacity+1`,
/// so some commands are invalid at apply time (a send from a non-member,
/// a join outside the capacity); every host must ignore those identically,
/// so the generator does not track validity.
fn gen_group_schedule(rng: &mut Rng, gid: GroupId, capacity: u64) -> Vec<GroupCmd> {
    let mut cmds: Vec<GroupCmd> = (1..=capacity).map(|i| GroupCmd::Join(p(i))).collect();
    let len = 8 + rng.below(10);
    for msg_no in 0..len {
        let who = rng.below(capacity + 2);
        cmds.push(match rng.below(10) {
            0..=5 => send(who, &format!("g{}-p{who}-m{msg_no}", gid.raw())),
            6 | 7 => GroupCmd::Leave(p(who)),
            _ => GroupCmd::Join(p(who)),
        });
    }
    cmds
}

/// Randomly interleaves per-group streams into one global arrival order,
/// preserving each group's internal order (the only ordering the
/// server's per-shard channels guarantee).
fn interleave(
    rng: &mut Rng,
    streams: &BTreeMap<GroupId, Vec<GroupCmd>>,
) -> Vec<(GroupId, GroupCmd)> {
    let mut cursors: BTreeMap<GroupId, usize> = streams.keys().map(|g| (*g, 0)).collect();
    let mut remaining: Vec<GroupId> = streams.keys().copied().collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let pick = rng.below(remaining.len() as u64) as usize;
        let gid = remaining[pick];
        let cursor = cursors.get_mut(&gid).expect("cursor for every stream");
        let stream = &streams[&gid];
        order.push((gid, stream[*cursor].clone()));
        *cursor += 1;
        if *cursor == stream.len() {
            remaining.remove(pick);
        }
    }
    order
}

/// What one group produced by the end of its schedule.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Receiver → its frames, encoded, in order.
    wire: BTreeMap<ProcessId, Vec<Vec<u8>>>,
    report: GroupReport,
}

/// The isolated arms: one direct group, alone, settled after every
/// command — and drained then too (the shard worker's cadence), or once
/// at the very end.
fn isolated_run(gid: GroupId, capacity: u64, cmds: &[GroupCmd], drain_each: bool) -> Observed {
    let mut g = GroupInstance::new(gid, capacity, group_seed(BASE_SEED, gid));
    let mut outputs = Vec::new();
    for cmd in cmds {
        g.apply(cmd.clone());
        g.run_to_quiescence();
        if drain_each {
            outputs.extend(g.drain_outputs());
        }
    }
    let violations = g.finish();
    assert!(violations.is_empty(), "isolated {gid}: {violations:?}");
    let undrained = g.report();
    outputs.extend(g.drain_outputs());
    assert!(g.drain_outputs().is_empty(), "{gid}: a drain retains nothing");
    assert_eq!(g.report(), undrained, "{gid}: the report must not depend on the drain");
    Observed { wire: wire_by_receiver(gid, &outputs), report: undrained }
}

/// The same schedule on the `Sim`-backed oracle, at the shard worker's
/// cadence.
fn oracle_run(gid: GroupId, capacity: u64, cmds: &[impl Into<OracleCmd> + Clone]) -> Observed {
    let mut g = OracleGroup::new(gid, capacity, group_seed(BASE_SEED, gid));
    let mut outputs = Vec::new();
    for cmd in cmds {
        g.apply(cmd.clone());
        g.run_to_quiescence();
        outputs.extend(g.drain_outputs());
    }
    let violations = g.finish();
    assert!(violations.is_empty(), "oracle {gid}: {violations:?}");
    Observed { wire: wire_by_receiver(gid, &outputs), report: g.report().group }
}

/// The hosted arm: every group through one shard pool in daemon mode,
/// commands dispatched in the given global order. With `pause_at`, the
/// dispatch stops before that command until every group has answered a
/// report — so its shard has stepped everything sent to it — and then
/// for a while longer, idle.
fn hosted_run(
    shards: usize,
    capacity: u64,
    gids: impl Iterator<Item = GroupId> + Clone,
    order: &[(GroupId, GroupCmd)],
    pause_at: Option<usize>,
) -> BTreeMap<GroupId, Observed> {
    let (tx, rx) = crossbeam::channel::unbounded();
    let pool = ShardPool::spawn(ShardConfig { shards, auto_run: true, outputs: Some(tx) });
    for gid in gids.clone() {
        pool.create_group(gid, capacity, group_seed(BASE_SEED, gid));
    }
    for (k, (gid, cmd)) in order.iter().enumerate() {
        if pause_at == Some(k) {
            for gid in gids.clone() {
                assert!(pool.report(gid).is_some(), "{gid} hosted");
            }
            std::thread::sleep(Duration::from_millis(300));
        }
        pool.apply(*gid, cmd.clone());
    }
    let mut reports = BTreeMap::new();
    for gid in gids {
        // Answered only once the group's shard has stepped every command.
        let violations = pool.finish(gid).unwrap_or_else(|| panic!("{gid} hosted"));
        assert!(violations.is_empty(), "hosted {gid}: {violations:?}");
        reports.insert(gid, pool.report(gid).unwrap_or_else(|| panic!("{gid} hosted")));
    }
    pool.shutdown();
    let mut outputs: BTreeMap<GroupId, Vec<GroupOutput>> = BTreeMap::new();
    for (gid, to, msg) in rx.try_iter() {
        outputs.entry(gid).or_default().push(GroupOutput { to, msg });
    }
    reports
        .into_iter()
        .map(|(gid, report)| {
            let out = outputs.remove(&gid).unwrap_or_default();
            (gid, Observed { wire: wire_by_receiver(gid, &out), report })
        })
        .collect()
}

fn assert_direct_matches_oracle(what: &str, gid: GroupId, capacity: u64, cmds: &[GroupCmd]) {
    let direct = isolated_run(gid, capacity, cmds, true);
    assert!(!direct.wire.is_empty(), "{what} {gid}: nothing to compare");
    let oracle = oracle_run(gid, capacity, cmds);
    for (to, frames) in &direct.wire {
        assert_eq!(
            Some(frames),
            oracle.wire.get(to),
            "{what} {gid}: frames to {to} differ between the direct host and the oracle"
        );
    }
    assert_eq!(direct, oracle, "{what} {gid}: direct host vs oracle");
}

#[test]
fn fifty_randomized_schedules_direct_host_matches_the_sim_oracle() {
    // Capacity 2..=5, so unused capacity, full groups and every size the
    // benchmark runs are covered.
    for seed in 0..60u64 {
        let mut rng = Rng::for_schedule(seed ^ 0xD1FF);
        let gid = GroupId::new(1 + seed);
        let capacity = 2 + seed % 4;
        let cmds = gen_group_schedule(&mut rng, gid, capacity);
        assert_direct_matches_oracle(&format!("seed {seed}"), gid, capacity, &cmds);
    }
}

#[test]
fn pinned_leave_and_rejoin_between_multicasts_matches_the_oracle() {
    // `churn_n4`'s shape: three members keep multicasting while the fourth
    // leaves and re-joins.
    let mut cmds: Vec<GroupCmd> = (1..=4).map(|i| GroupCmd::Join(p(i))).collect();
    for round in 0..3 {
        for from in 1..=3 {
            cmds.push(send(from, &format!("r{round}-in-from-p{from}")));
        }
        cmds.push(GroupCmd::Leave(p(4)));
        for from in 1..=3 {
            cmds.push(send(from, &format!("r{round}-out-from-p{from}")));
        }
        cmds.push(GroupCmd::Join(p(4)));
    }
    cmds.push(send(4, "back for good"));
    assert_direct_matches_oracle("pinned churn", GroupId::new(4), 4, &cmds);
}

#[test]
fn pinned_long_stable_view_matches_the_oracle_across_acknowledgement_rounds() {
    // Two hundred multicasts in one view, a leave, and more: past three
    // of the rounds a `Node` would ask for (every 64 deliveries), none of
    // which the direct host sends — it reads its members' deliveries and
    // frees after every step (DESIGN.md §18). Neither side acknowledges,
    // so both the frames and the event counts must be equal.
    let mut cmds: Vec<GroupCmd> = (1..=4).map(|i| GroupCmd::Join(p(i))).collect();
    for k in 0..200 {
        cmds.push(send(1 + k % 4, &format!("stable-{k}")));
    }
    cmds.push(GroupCmd::Leave(p(3)));
    for k in 0..20 {
        cmds.push(send(1 + k % 2, &format!("after-{k}")));
    }
    let gid = GroupId::new(64);
    let direct = isolated_run(gid, 4, &cmds, true);
    let oracle = oracle_run(gid, 4, &cmds);
    assert_eq!(direct.wire, oracle.wire, "frames differ between the direct host and the oracle");
    assert_eq!(direct.report, oracle.report);
}

#[test]
fn pinned_four_unsettled_joins_end_in_one_full_view_on_both_hosts() {
    // What `benchmark/src/layers.rs::group` does: four joins applied
    // before the first `run_to_quiescence`. Mid-reconfiguration arrival
    // order is the host's own, so intermediate views may differ; the view
    // everyone ends in may not.
    fn last_views(gid: GroupId, outputs: &[GroupOutput]) -> Vec<View> {
        (1..=4)
            .map(|i| {
                outputs
                    .iter()
                    .rev()
                    .find_map(|o| match &o.msg {
                        NetMsg::ViewMsg(v) if o.to == p(i) => Some(v.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("{gid}: p{i} installed no view"))
            })
            .collect()
    }
    let gid = GroupId::new(9);
    let mut direct = GroupInstance::new(gid, 4, 0);
    let mut oracle = OracleGroup::new(gid, 4, group_seed(BASE_SEED, gid));
    for i in 1..=4 {
        direct.apply(GroupCmd::Join(p(i)));
        oracle.apply(GroupCmd::Join(p(i)));
    }
    direct.run_to_quiescence();
    oracle.run_to_quiescence();
    let views = last_views(gid, &direct.drain_outputs());
    assert_eq!(views, last_views(gid, &oracle.drain_outputs()));
    assert!(views.iter().all(|v| v == &views[0] && v.len() == 4), "{views:?}");
    // And from there on the two are frame-identical again.
    let mut after = (Vec::new(), Vec::new());
    for from in 1..=4 {
        let cmd = send(from, "settled");
        direct.apply(cmd.clone());
        direct.run_to_quiescence();
        after.0.extend(direct.drain_outputs());
        oracle.apply(cmd);
        oracle.run_to_quiescence();
        after.1.extend(oracle.drain_outputs());
    }
    assert_eq!(after.0.len(), 16);
    assert_eq!(wire_by_receiver(gid, &after.0), wire_by_receiver(gid, &after.1));
    assert!(direct.finish().is_empty() && oracle.finish().is_empty());
}

/// Holds every group of one randomized multigroup schedule, hosted, to
/// its isolated runs. With `pause`, the dispatch stops halfway.
fn assert_schedule_conforms(seed: u64, n_groups: u64, shards: usize, capacity: u64, pause: bool) {
    let mut rng = Rng::for_schedule(seed);
    let streams: BTreeMap<GroupId, Vec<GroupCmd>> = (1..=n_groups)
        .map(|g| {
            let gid = GroupId::new(g);
            (gid, gen_group_schedule(&mut rng, gid, capacity))
        })
        .collect();
    let order = interleave(&mut rng, &streams);
    let pause_at = pause.then_some(order.len() / 2);
    let hosted = hosted_run(shards, capacity, streams.keys().copied(), &order, pause_at);
    for (gid, cmds) in &streams {
        let isolated = isolated_run(*gid, capacity, cmds, true);
        assert!(!isolated.wire.is_empty(), "seed {seed} {gid}: nothing to compare");
        assert_eq!(hosted[gid], isolated, "seed {seed} {gid}: hosted vs isolated");
        assert_eq!(
            isolated_run(*gid, capacity, cmds, false),
            isolated,
            "seed {seed} {gid}: draining after every command lost or changed something"
        );
    }
}

#[test]
fn fifty_randomized_multigroup_schedules_are_conformant() {
    // ≥ 50 randomized schedules varying group count (2..=4), shard count
    // (1..=4 — including 1, where *every* group shares one worker), and
    // capacity (2..=3).
    for seed in 0..50u64 {
        let n_groups = 2 + seed % 3;
        let shards = 1 + (seed % 4) as usize;
        let capacity = 2 + seed % 2;
        assert_schedule_conforms(seed, n_groups, shards, capacity, false);
    }
}

#[test]
fn schedules_paused_halfway_match_their_isolated_runs_event_for_event() {
    // The hosted arm's dispatch stops halfway, every command so far
    // stepped, and stays idle for 300 ms: a worker keeps no clock, so
    // idling changes no frame and adds no event.
    for seed in 0..4u64 {
        assert_schedule_conforms(seed, 3, 1 + (seed % 2) as usize, 3, true);
    }
}

#[test]
fn pinned_same_shard_round_robin_interleaving_is_conformant() {
    // Pinned worst case: gids 2, 4, 6 all map to shard 0 of a 2-shard
    // pool (`gid % 2 == 0`), so one worker interleaves all three groups;
    // commands are dispatched strictly round-robin, one at a time — the
    // maximally fine-grained interleaving the router can produce.
    let capacity = 3u64;
    let gids = [GroupId::new(2), GroupId::new(4), GroupId::new(6)];
    let mk_stream = |gid: GroupId| -> Vec<GroupCmd> {
        vec![
            GroupCmd::Join(p(1)),
            GroupCmd::Join(p(2)),
            GroupCmd::Join(p(3)),
            send(1, &format!("a{}", gid.raw())),
            send(2, &format!("b{}", gid.raw())),
            GroupCmd::Leave(p(3)),
            send(1, &format!("c{}", gid.raw())),
        ]
    };
    let streams: BTreeMap<GroupId, Vec<GroupCmd>> =
        gids.iter().map(|g| (*g, mk_stream(*g))).collect();
    // Strict round-robin: g2[0], g4[0], g6[0], g2[1], ...
    let stream_len = streams[&gids[0]].len();
    let mut order = Vec::new();
    for i in 0..stream_len {
        for gid in &gids {
            order.push((*gid, streams[gid][i].clone()));
        }
    }
    let hosted = hosted_run(2, capacity, gids.iter().copied(), &order, None);
    for gid in &gids {
        assert_eq!(gid.raw() % 2, 0, "pinned gids must share shard 0");
        let isolated = isolated_run(*gid, capacity, &streams[gid], true);
        assert_eq!(hosted[gid], isolated, "round-robin {gid}: hosted vs isolated");
    }
}

/// One group's schedule for the oracle with an acknowledgement round
/// after about one command in three, at points drawn from `rng`.
fn with_ack_rounds(rng: &mut Rng, cmds: &[GroupCmd]) -> Vec<OracleCmd> {
    let mut out = Vec::with_capacity(cmds.len() * 2);
    for cmd in cmds {
        out.push(OracleCmd::Group(cmd.clone()));
        if rng.below(3) == 0 {
            out.push(OracleCmd::AckRound);
        }
    }
    out
}

#[test]
fn oracle_ack_rounds_at_seeded_points_change_no_direct_host_frame() {
    // The randomized schedules of the oracle suite, some lengthened past
    // where a `Node` would acknowledge (every 64 deliveries). The direct
    // host frees after every step and sends no acknowledgement; the
    // oracle, fed rounds at seeded points, frees as they complete.
    let mut round_events = 0;
    for seed in 0..40u64 {
        let mut rng = Rng::for_schedule(seed ^ 0x57AB);
        let gid = GroupId::new(1 + seed);
        let capacity = 2 + seed % 4;
        let mut plain = gen_group_schedule(&mut rng, gid, capacity);
        if seed % 4 == 0 {
            plain.extend((0..80).map(|k| send(1 + k % capacity, &format!("long-{k}"))));
        }
        let acked = with_ack_rounds(&mut rng, &plain);
        let rounds = acked.len() - plain.len();
        assert!(rounds > 0, "seed {seed}: no round drawn");
        let what = format!("seed {seed} ({rounds} rounds)");
        let direct = isolated_run(gid, capacity, &plain, true);
        assert_eq!(oracle_run(gid, capacity, &plain), direct, "{what}: the oracle without rounds");
        let oracle = oracle_run(gid, capacity, &acked);
        assert_eq!(oracle.wire, direct.wire, "{what}: the rounds moved a frame");
        assert_eq!(
            GroupReport { trace_len: 0, ..oracle.report.clone() },
            GroupReport { trace_len: 0, ..direct.report.clone() },
            "{what}"
        );
        round_events += oracle.report.trace_len - direct.report.trace_len;
    }
    assert!(round_events > 0, "no acknowledgement was sent");
}

#[test]
fn per_group_seeds_differ_so_oracle_groups_are_not_clones() {
    // Guard on the suite itself: distinct gids give the oracle distinct
    // network jitter, so agreeing with it is not agreeing with one lucky
    // arrival order; and the same gid reproduces its seed.
    let s1 = group_seed(BASE_SEED, GroupId::new(1));
    assert_ne!(s1, group_seed(BASE_SEED, GroupId::new(2)));
    assert_eq!(s1, group_seed(BASE_SEED, GroupId::new(1)));
}
