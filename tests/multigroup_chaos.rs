//! Group-isolation chaos regression: trouble in ONE group must leave the
//! groups stepped beside it completely undisturbed.
//!
//! Two halves, for the two kinds of trouble.
//!
//! **Faults only a simulated network can take** — crash/recover churn,
//! partition/heal, a lossy [`FaultPlan`], a state *corruption* — go to
//! the `Sim`-backed oracle in `tests/support/` (the daemon's own host has
//! no network to fault). Three oracle groups are stepped round-robin on
//! one thread; the middle one (gid 4) takes the faults; gids 2 and 6 run
//! the clean schedule throughout and their traces are compared byte for
//! byte against isolated fault-free reference runs. Within-envelope
//! faults keep every group's checkers green; the pinned leak scenario's
//! corruption by design exceeds the spec envelope for gid 4, and pins
//! that the mates' traces, verdicts and fault counters
//! (`fault_injections == 0`, `corruptions == 0`) are all untouched.
//!
//! **Trouble the daemon can actually be sent** — a join/leave storm and a
//! flood of sends from non-members and from process ids outside the
//! capacity — goes to three *direct* `GroupInstance`s forced onto the
//! same shard worker (gids 2, 4, 6 on a 2-shard pool, daemon mode), the
//! worst case for isolation: any state bleed between instances sharing a
//! thread shows up as a shard-mate whose frames differ from its isolated
//! run.

mod support;

use std::collections::BTreeMap;
use support::{send, wire_by_receiver, OracleCmd, OracleGroup, OracleReport};
use vsgm_core::CorruptionKind;
use vsgm_net::FaultPlan;
use vsgm_server::{group_seed, GroupCmd, GroupInstance, GroupOutput, ShardConfig, ShardPool};
use vsgm_types::{GroupId, NetMsg, ProcessId};

const BASE_SEED: u64 = 0xC4A0_5111;
const CAPACITY: u64 = 3;
const TRIO: [GroupId; 3] = [GroupId::new(2), GroupId::new(4), GroupId::new(6)];
const FAULTED: GroupId = GroupId::new(4);
const MATES: [GroupId; 2] = [GroupId::new(2), GroupId::new(6)];

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// The clean schedule every oracle group runs (the faulted group
/// interleaves its fault commands between these).
fn clean_schedule(gid: GroupId) -> Vec<OracleCmd> {
    let tag = gid.raw();
    vec![
        GroupCmd::Join(p(1)).into(),
        GroupCmd::Join(p(2)).into(),
        GroupCmd::Join(p(3)).into(),
        send(1, &format!("g{tag}-a")).into(),
        send(2, &format!("g{tag}-b")).into(),
        OracleCmd::RunForMs(3),
        send(3, &format!("g{tag}-c")).into(),
        GroupCmd::Run.into(),
    ]
}

/// Runs one oracle group alone (no faults) and returns its trace and report.
fn isolated_reference(gid: GroupId) -> (String, OracleReport) {
    let mut g = OracleGroup::new(gid, CAPACITY, group_seed(BASE_SEED, gid));
    for cmd in clean_schedule(gid) {
        g.apply(cmd);
    }
    g.run_to_quiescence();
    assert!(g.finish().is_empty(), "reference {gid} must be clean");
    (g.trace_json(), g.report())
}

/// What one trio run produced: the mates' observations plus the faulted
/// group's verdict and report.
struct TrioOutcome {
    /// gid → (trace, report) for the two clean groups.
    mates: BTreeMap<GroupId, (String, OracleReport)>,
    /// Debug rendering of gid 4's checker verdict (`"[]"` when green).
    faulted_verdict: String,
    faulted_report: OracleReport,
}

/// Steps the oracle trio round-robin on this thread and splices `faults`
/// into the middle group (gid 4) at step boundaries.
fn run_trio_with_faults(faults: &[(usize, OracleCmd)]) -> TrioOutcome {
    let mut groups: BTreeMap<GroupId, OracleGroup> = TRIO
        .iter()
        .map(|gid| (*gid, OracleGroup::new(*gid, CAPACITY, group_seed(BASE_SEED, *gid))))
        .collect();
    let schedules: BTreeMap<GroupId, Vec<OracleCmd>> =
        TRIO.iter().map(|g| (*g, clean_schedule(*g))).collect();
    for step in 0..schedules[&FAULTED].len() {
        for (gid, g) in &mut groups {
            for (at, cmd) in faults {
                if *at == step && *gid == FAULTED {
                    g.apply(cmd.clone());
                }
            }
            g.apply(schedules[gid][step].clone());
        }
    }
    for g in groups.values_mut() {
        g.run_to_quiescence();
    }
    let mut mates = BTreeMap::new();
    for gid in MATES {
        let g = groups.get_mut(&gid).expect("mate");
        let (trace, report) = (g.trace_json(), g.report());
        // The mates' checkers must be green regardless of what happened
        // to gid 4 (callers judge gid 4 themselves).
        assert!(g.finish().is_empty(), "mate {gid} checkers disturbed");
        mates.insert(gid, (trace, report));
    }
    let faulted = groups.get_mut(&FAULTED).expect("faulted");
    let faulted_verdict = format!("{:?}", faulted.finish());
    TrioOutcome { mates, faulted_verdict, faulted_report: faulted.report() }
}

/// The mates must match their isolated fault-free references exactly.
fn assert_mates_undisturbed(out: &TrioOutcome) {
    for gid in MATES {
        let (ref_trace, ref_report) = isolated_reference(gid);
        let (trace, report) = &out.mates[&gid];
        assert_eq!(trace, &ref_trace, "{gid}: trace disturbed by a fault in gid 4");
        assert_eq!(report, &ref_report, "{gid}: report disturbed");
        assert_eq!(report.fault_injections, 0, "{gid}: leaked fault injections");
        assert_eq!(report.corruptions, 0, "{gid}: leaked corruptions");
    }
}

#[test]
fn within_envelope_faults_stay_inside_their_group() {
    // Crash/recover churn with the matching membership changes, plus a
    // lossy-but-legal fault plan installed and later cleared — all into
    // gid 4 only. Every group, including the faulted one, must end
    // checker-green; the mates must be byte-identical to their isolated
    // references.
    let faults = vec![
        (3, OracleCmd::Faults(FaultPlan { drop: 0.3, ..FaultPlan::none() })),
        (5, OracleCmd::Crash(p(3))),
        (5, GroupCmd::Leave(p(3)).into()),
        (6, OracleCmd::Faults(FaultPlan::none())),
        (6, OracleCmd::Recover(p(3))),
        (6, GroupCmd::Join(p(3)).into()),
        (7, GroupCmd::Run.into()),
    ];
    let out = run_trio_with_faults(&faults);
    assert_mates_undisturbed(&out);
    assert_eq!(out.faulted_verdict, "[]", "within-envelope faults must stay checker-green");
    assert_eq!(out.faulted_report.corruptions, 0);
}

#[test]
fn partition_and_heal_stay_inside_their_group() {
    let faults = vec![
        (4, OracleCmd::Partition(vec![vec![p(1), p(2)], vec![p(3)]])),
        (5, OracleCmd::RunForMs(2)),
        (6, OracleCmd::Heal),
        (7, GroupCmd::Run.into()),
    ];
    let out = run_trio_with_faults(&faults);
    assert_mates_undisturbed(&out);
    assert_eq!(out.faulted_verdict, "[]", "loss from a healed partition is within the envelope");
}

/// The pinned cross-group leak scenario: a state corruption in gid 4 —
/// deliberately outside the spec envelope for that group — must not
/// move a single byte, counter, or checker verdict in the groups beside
/// it. This is the regression shared state between instances would trip
/// first (shared RNG, shared audit cadence, shared checker state).
#[test]
fn pinned_corruption_does_not_leak_to_shard_mates() {
    let faults = vec![
        (4, OracleCmd::Corrupt { p: p(2), kind: CorruptionKind::ForgeMsgId }),
        (6, GroupCmd::Run.into()),
    ];
    let out = run_trio_with_faults(&faults);
    assert_mates_undisturbed(&out);
    assert_eq!(out.faulted_report.corruptions, 1, "the corruption landed in gid 4");
}

/// The direct half: the run every one of the three groups on one shard
/// worker is sent.
fn direct_schedule(gid: GroupId) -> Vec<GroupCmd> {
    let tag = gid.raw();
    vec![
        GroupCmd::Join(p(1)),
        GroupCmd::Join(p(2)),
        GroupCmd::Join(p(3)),
        send(1, &format!("g{tag}-a")),
        send(2, &format!("g{tag}-b")),
        GroupCmd::Leave(p(2)),
        send(3, &format!("g{tag}-c")),
        GroupCmd::Join(p(2)),
        send(2, &format!("g{tag}-d")),
    ]
}

/// What gid 4 is sent besides, after each of its scheduled commands: a
/// join/leave storm, and a flood nobody should ever see a frame of —
/// sends from a member that just left, from pid 0 and from beyond the
/// capacity, and joins from beyond it.
fn storm(after: usize) -> Vec<GroupCmd> {
    let mut cmds = Vec::new();
    for round in 0..8 {
        let outsider = CAPACITY + 1 + round;
        cmds.push(GroupCmd::Leave(p(1)));
        cmds.push(send(1, &format!("ghost-{after}-{round}")));
        cmds.push(send(0, "ghost from nobody"));
        cmds.push(send(outsider, "ghost from beyond"));
        cmds.push(GroupCmd::Join(p(outsider)));
        cmds.push(GroupCmd::Join(p(1)));
    }
    cmds
}

/// `direct_schedule` with the storm spliced in for gid 4.
fn direct_commands(gid: GroupId) -> Vec<GroupCmd> {
    let mut cmds = Vec::new();
    for (i, cmd) in direct_schedule(gid).into_iter().enumerate() {
        cmds.push(cmd);
        if gid == FAULTED {
            cmds.extend(storm(i));
        }
    }
    cmds
}

fn isolated_direct(gid: GroupId) -> Vec<GroupOutput> {
    let mut g = GroupInstance::new(gid, CAPACITY, 0);
    let mut outputs = Vec::new();
    for cmd in direct_commands(gid) {
        g.apply(cmd);
        g.run_to_quiescence();
        outputs.extend(g.drain_outputs());
    }
    assert!(g.finish().is_empty(), "isolated {gid} must be clean");
    outputs
}

#[test]
fn a_storm_in_one_direct_group_leaves_its_shard_mates_output_identical() {
    let (tx, rx) = crossbeam::channel::unbounded();
    let pool = ShardPool::spawn(ShardConfig { shards: 2, auto_run: true, outputs: Some(tx) });
    for gid in TRIO {
        assert_eq!(pool.shard_of(gid), 0, "trio must share one shard worker");
        pool.create_group(gid, CAPACITY, 0);
    }
    // Round-robin one scheduled command at a time; gid 4's storm lands
    // between the mates' commands.
    for step in 0..direct_schedule(FAULTED).len() {
        for gid in TRIO {
            pool.apply(gid, direct_schedule(gid)[step].clone());
        }
        for cmd in storm(step) {
            pool.apply(FAULTED, cmd);
        }
    }
    for gid in TRIO {
        assert_eq!(pool.finish(gid), Some(vec![]), "{gid}: checkers after the storm");
    }
    let stormed = pool.report(FAULTED).expect("gid 4 hosted");
    assert_eq!(stormed.members, [p(1), p(2), p(3)].into_iter().collect(), "{stormed:?}");
    pool.shutdown();
    let mut hosted: BTreeMap<GroupId, Vec<GroupOutput>> = BTreeMap::new();
    for (gid, to, msg) in rx.try_iter() {
        if let NetMsg::Fwd(f) = &msg {
            assert!(!f.msg.as_bytes().starts_with(b"ghost"), "{gid}: a flooded send got out");
        }
        assert!(TRIO.contains(&gid) && (1..=CAPACITY).contains(&to.raw()), "{gid} → {to}");
        hosted.entry(gid).or_default().push(GroupOutput { to, msg });
    }
    for gid in TRIO {
        let isolated = isolated_direct(gid);
        assert!(isolated.len() > 20, "{gid}: nothing to compare");
        assert_eq!(
            wire_by_receiver(gid, &hosted[&gid]),
            wire_by_receiver(gid, &isolated),
            "{gid}: frames differ from the isolated run"
        );
    }
    // The storm was real: gid 4 went through far more views than its mates.
    assert!(hosted[&FAULTED].len() > 4 * hosted[&MATES[0]].len());
}
