//! Differential multi-group conformance suite: a group hosted on the
//! sharded `vsgm-server` must be *observationally identical* to the same
//! group run in isolation.
//!
//! Each randomized schedule builds per-group command streams for N
//! groups, interleaves them into one global arrival order (preserving
//! each group's internal order — exactly what the server's router
//! produces), and drives them twice:
//!
//! * **hosted arm** — all N groups through one [`ShardPool`], so groups
//!   sharing a shard worker interleave on one thread and groups on
//!   different shards run concurrently;
//! * **isolated arm** — each group alone in its own [`GroupInstance`],
//!   fed only its own subsequence.
//!
//! The comparison surface is `Trace::to_json_lines()` — the full
//! per-group event trace, byte for byte — plus the spec-checker verdict
//! (`finish()` empty on both arms). Anything the multiplexing layer
//! leaked between groups (shared RNG draws, cross-group routing, state
//! bleed between shard-mates) shows up as a byte diverge.
//!
//! A third arm proves that *consuming* the trace loses nothing:
//!
//! * **drained arm** — the isolated group again, but drained after every
//!   command the way the daemon's shard worker drains it. Its
//!   `trace_json()` pieces, concatenated, are the never-drained trace byte
//!   for byte (step numbers continue across drains); its outputs,
//!   concatenated, are the never-drained arm's one final drain; `finish()`
//!   and `report()` agree.
//!
//! ≥ 50 randomized schedules, plus one pinned worst-case interleaving:
//! three groups forced onto the *same* shard worker, commands dispatched
//! strictly round-robin one at a time.

use std::collections::BTreeMap;
use vsgm_server::{
    group_seed, GroupCmd, GroupInstance, GroupOutput, GroupReport, ShardConfig, ShardPool,
};
use vsgm_types::{AppMsg, GroupId, ProcessId};

const BASE_SEED: u64 = 0x9E1D_A212;

/// splitmix64 — deterministic schedule generator without a rand dep.
struct Rng(u64);

impl Rng {
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
/// sends, membership churn, and time advancement. Commands that turn
/// out invalid at apply time (send from a non-member after a leave, a
/// join beyond capacity) are *ignored identically* by both arms, so the
/// generator does not need to track validity.
fn gen_group_schedule(rng: &mut Rng, gid: GroupId, capacity: u64) -> Vec<GroupCmd> {
    let p = ProcessId::new;
    let mut cmds: Vec<GroupCmd> = (1..=capacity).map(|i| GroupCmd::Join(p(i))).collect();
    let len = 8 + rng.below(10);
    let mut msg_no = 0u64;
    for _ in 0..len {
        cmds.push(match rng.below(10) {
            0..=4 => {
                msg_no += 1;
                let from = p(1 + rng.below(capacity));
                GroupCmd::Send {
                    from,
                    msg: AppMsg::from(
                        format!("g{}-{:?}-m{msg_no}", gid.raw(), from).as_str(),
                    ),
                }
            }
            5 => GroupCmd::Leave(p(1 + rng.below(capacity))),
            6 => GroupCmd::Join(p(1 + rng.below(capacity))),
            7 | 8 => GroupCmd::RunForMs(1 + rng.below(4)),
            _ => GroupCmd::Run,
        });
    }
    cmds.push(GroupCmd::Run);
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

/// What one isolated group produced, by the end of its schedule.
#[derive(Debug, PartialEq)]
struct Isolated {
    /// Every `trace_json()` piece, in order.
    trace: String,
    /// Every drained output, in order.
    outputs: Vec<GroupOutput>,
    report: GroupReport,
}

/// The isolated arms: one group, alone, fed its own subsequence — drained
/// once at the very end, or (the daemon's cadence) after every command.
fn isolated_run(gid: GroupId, capacity: u64, cmds: &[GroupCmd], drain_each: bool) -> Isolated {
    let mut g = GroupInstance::new(gid, capacity, group_seed(BASE_SEED, gid));
    let (mut trace, mut outputs) = (String::new(), Vec::new());
    let mut drain = |g: &mut GroupInstance| {
        trace.push_str(&g.trace_json());
        outputs.extend(g.drain_outputs());
    };
    for cmd in cmds {
        g.apply(cmd.clone());
        if drain_each {
            drain(&mut g);
        }
    }
    g.run_to_quiescence();
    let violations = g.finish();
    assert!(violations.is_empty(), "isolated {gid}: {violations:?}");
    let undrained = g.report();
    drain(&mut g);
    assert_eq!(g.trace_json(), "", "{gid}: a drain retains nothing");
    assert_eq!(g.report(), undrained, "{gid}: the report must not depend on the drain");
    Isolated { trace, outputs, report: undrained }
}

/// The hosted arm: every group through one shard pool, commands
/// dispatched in the given global order; returns each group's trace.
fn hosted_traces(
    shards: usize,
    capacity: u64,
    streams: &BTreeMap<GroupId, Vec<GroupCmd>>,
    order: &[(GroupId, GroupCmd)],
) -> BTreeMap<GroupId, String> {
    let pool = ShardPool::spawn(ShardConfig { shards, auto_run: false, outputs: None });
    for gid in streams.keys() {
        pool.create_group(*gid, capacity, group_seed(BASE_SEED, *gid));
    }
    for (gid, cmd) in order {
        pool.apply(*gid, cmd.clone());
    }
    let mut traces = BTreeMap::new();
    for gid in streams.keys() {
        pool.apply(*gid, GroupCmd::Run);
        let violations = pool.finish(*gid).unwrap_or_else(|| panic!("{gid} hosted"));
        assert!(violations.is_empty(), "hosted {gid}: {violations:?}");
        let trace = pool.trace_json(*gid).unwrap_or_else(|| panic!("{gid} hosted"));
        traces.insert(*gid, trace);
    }
    pool.shutdown();
    traces
}

fn assert_schedule_conforms(seed: u64, n_groups: u64, shards: usize, capacity: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(seed | 1));
    let streams: BTreeMap<GroupId, Vec<GroupCmd>> = (1..=n_groups)
        .map(|g| {
            let gid = GroupId::new(g);
            let cmds = gen_group_schedule(&mut rng, gid, capacity);
            (gid, cmds)
        })
        .collect();
    let order = interleave(&mut rng, &streams);
    let hosted = hosted_traces(shards, capacity, &streams, &order);
    for (gid, cmds) in &streams {
        // The isolated run also ends with the hosted arm's trailing Run.
        let mut cmds = cmds.clone();
        cmds.push(GroupCmd::Run);
        let isolated = isolated_run(*gid, capacity, &cmds, false);
        let hosted_trace = &hosted[gid];
        assert_eq!(
            hosted_trace, &isolated.trace,
            "seed {seed} {gid}: hosted trace diverged from the isolated run"
        );
        assert!(!isolated.outputs.is_empty(), "seed {seed} {gid}: nothing to compare");
        assert_eq!(
            isolated_run(*gid, capacity, &cmds, true),
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
        assert_schedule_conforms(seed, n_groups, shards, capacity);
    }
}

#[test]
fn pinned_same_shard_round_robin_interleaving_is_conformant() {
    // Pinned worst case: gids 2, 4, 6 all map to shard 0 of a 2-shard
    // pool (`gid % 2 == 0`), so one worker interleaves all three groups;
    // commands are dispatched strictly round-robin, one at a time — the
    // maximally fine-grained interleaving the router can produce.
    let p = ProcessId::new;
    let capacity = 3u64;
    let gids = [GroupId::new(2), GroupId::new(4), GroupId::new(6)];
    let mk_stream = |gid: GroupId| -> Vec<GroupCmd> {
        vec![
            GroupCmd::Join(p(1)),
            GroupCmd::Join(p(2)),
            GroupCmd::Join(p(3)),
            GroupCmd::Send { from: p(1), msg: AppMsg::from(format!("a{}", gid.raw()).as_str()) },
            GroupCmd::Send { from: p(2), msg: AppMsg::from(format!("b{}", gid.raw()).as_str()) },
            GroupCmd::RunForMs(2),
            GroupCmd::Leave(p(3)),
            GroupCmd::Send { from: p(1), msg: AppMsg::from(format!("c{}", gid.raw()).as_str()) },
            GroupCmd::Run,
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
    let pool = ShardPool::spawn(ShardConfig { shards: 2, auto_run: false, outputs: None });
    for gid in &gids {
        assert_eq!(pool.shard_of(*gid), 0, "pinned gids must share shard 0");
        pool.create_group(*gid, capacity, group_seed(BASE_SEED, *gid));
    }
    for (gid, cmd) in &order {
        pool.apply(*gid, cmd.clone());
    }
    for gid in &gids {
        pool.apply(*gid, GroupCmd::Run);
        assert_eq!(pool.finish(*gid), Some(vec![]), "hosted {gid} checkers");
        let hosted = pool.trace_json(*gid).expect("hosted trace");
        let mut cmds = streams[gid].clone();
        cmds.push(GroupCmd::Run);
        let isolated = isolated_run(*gid, capacity, &cmds, false).trace;
        assert_eq!(hosted, isolated, "{gid}: same-shard interleaving leaked between groups");
    }
    pool.shutdown();
}

#[test]
fn per_group_seeds_differ_so_groups_are_not_clones() {
    // Guard on the suite itself: distinct gids get distinct seeds, so a
    // conformance pass is not vacuous (all groups running the same
    // schedule would otherwise share identical traces *and* identical
    // bugs).
    let s1 = group_seed(BASE_SEED, GroupId::new(1));
    let s2 = group_seed(BASE_SEED, GroupId::new(2));
    assert_ne!(s1, s2);
    // And the same gid reproduces its seed (the isolated arm depends on
    // this).
    assert_eq!(s1, group_seed(BASE_SEED, GroupId::new(1)));
}
