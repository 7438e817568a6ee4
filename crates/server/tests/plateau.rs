//! A hosted group's footprint is a function of its membership, not of its
//! history: resident memory must plateau under a long multicast stream
//! with membership churn, under the same stream in a view that never
//! changes (where only the end-points' stability rule collects), and
//! under a long run of view changes alone — and not of its capacity
//! either: a fourth soak holds 1000 groups of four to a per-group budget
//! that unused capacity must not move.
//!
//! The soaks drive 4-member [`GroupInstance`]s the way a daemon shard
//! worker does (`apply` → `run_to_quiescence` → `drain_outputs`) with every
//! spec checker online, and read the process's resident set from
//! `/proc/self/statm` — the `/proc/self` technique of the transport's
//! connection-churn soak. They are release-mode tests (ignored in debug
//! builds; `scripts/check.sh` runs them by name) and take turns, since
//! they share the process whose memory they measure.

use std::sync::Mutex;
use vsgm_server::{group_seed, GroupCmd, GroupInstance};
use vsgm_types::{AppMsg, GroupId, ProcessId};

/// Serializes the soaks: the resident set is per process.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: u64 =
        statm.split_whitespace().nth(1).and_then(|f| f.parse().ok()).expect("rss field");
    pages * 4096
}

/// One shard-worker step; returns how many frames it forwarded.
fn step(g: &mut GroupInstance, cmd: GroupCmd) -> usize {
    g.apply(cmd);
    g.run_to_quiescence();
    g.drain_outputs().len()
}

fn group_of_four_in(gid: GroupId, capacity: u64) -> GroupInstance {
    let mut g = GroupInstance::new(gid, capacity, group_seed(13, gid));
    for i in 1..=4 {
        step(&mut g, GroupCmd::Join(p(i)));
    }
    g
}

fn group_of_four() -> GroupInstance {
    group_of_four_in(GroupId::new(1), 4)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak; scripts/check.sh runs it by name")]
fn resident_memory_plateaus_under_multicast_with_churn() {
    const MULTICASTS: u64 = 200_000;
    const CHURN_EVERY: u64 = 1_000;
    const BYTES_PER_MULTICAST: u64 = 16;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut g = group_of_four();
    let payload = AppMsg::new(vec![0xA5u8; 64]);
    let mut frames = 0usize;
    let mut rss_halfway = 0;
    for i in 0..MULTICASTS {
        if i % CHURN_EVERY == 0 {
            step(&mut g, GroupCmd::Leave(p(4)));
            step(&mut g, GroupCmd::Join(p(4)));
        }
        if i == MULTICASTS / 2 {
            rss_halfway = rss_bytes();
        }
        frames += step(&mut g, GroupCmd::Send { from: p(1 + i % 4), msg: payload.clone() });
    }
    let grown = rss_bytes().saturating_sub(rss_halfway);
    println!("second {} multicasts: resident set +{grown} B", MULTICASTS / 2);
    assert_eq!(frames as u64, MULTICASTS * 4, "every member got every multicast");
    let report = g.report();
    assert_eq!(report.delivered, MULTICASTS * 4);
    assert!(report.trace_len as u64 > MULTICASTS * 9, "{report:?}");
    assert!(g.finish().is_empty(), "spec checkers clean after {MULTICASTS} multicasts");
    assert!(
        grown < BYTES_PER_MULTICAST * MULTICASTS / 2,
        "resident set grew {grown} B over the second {} multicasts ({} B each)",
        MULTICASTS / 2,
        grown / (MULTICASTS / 2)
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak; scripts/check.sh runs it by name")]
fn resident_memory_plateaus_in_a_view_that_never_changes() {
    const MULTICASTS: u64 = 200_000;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let payload = AppMsg::new(vec![0xA5u8; 64]);
    // Every member multicasting in turn, then p1 alone with three silent
    // receivers: no join or leave after set-up, so nothing but the
    // members' acknowledgements lets an end-point drop a message.
    for (who, senders) in [("round-robin", 4), ("p1 only", 1)] {
        let mut g = group_of_four();
        let views = g.report().views_installed;
        let mut frames = 0usize;
        let mut rss_halfway = 0;
        for i in 0..MULTICASTS {
            if i == MULTICASTS / 2 {
                rss_halfway = rss_bytes();
            }
            frames +=
                step(&mut g, GroupCmd::Send { from: p(1 + i % senders), msg: payload.clone() });
        }
        let grown = rss_bytes().saturating_sub(rss_halfway);
        println!(
            "{who}: second {} multicasts in one view: resident set +{grown} B",
            MULTICASTS / 2
        );
        assert_eq!(frames as u64, MULTICASTS * 4, "{who}");
        let report = g.report();
        assert_eq!(report.delivered, MULTICASTS * 4, "{who}");
        assert_eq!(report.views_installed, views, "{who}: the view never changed");
        assert!(g.finish().is_empty(), "{who}: spec checkers clean");
        assert!(
            grown < MULTICASTS / 2,
            "{who}: resident set grew {grown} B over the second {} multicasts of one view",
            MULTICASTS / 2
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak; scripts/check.sh runs it by name")]
fn resident_memory_plateaus_under_view_changes() {
    const CHANGES: u64 = 40_000;
    const BYTES_PER_CHANGE: u64 = 64;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut g = group_of_four();
    let mut rss_halfway = 0;
    for i in 0..CHANGES / 2 {
        if i == CHANGES / 4 {
            rss_halfway = rss_bytes();
        }
        step(&mut g, GroupCmd::Leave(p(4)));
        step(&mut g, GroupCmd::Join(p(4)));
    }
    let grown = rss_bytes().saturating_sub(rss_halfway);
    println!("second {} view changes: resident set +{grown} B", CHANGES / 2);
    assert!(g.report().views_installed >= CHANGES / 2 * 7, "{:?}", g.report());
    assert!(g.finish().is_empty(), "spec checkers clean after {CHANGES} view changes");
    assert!(
        grown < BYTES_PER_CHANGE * CHANGES / 2,
        "resident set grew {grown} B over the second {} view changes ({} B each)",
        CHANGES / 2,
        grown / (CHANGES / 2)
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak; scripts/check.sh runs it by name")]
fn a_thousand_groups_of_four_fit_their_budget_and_unused_capacity_costs_nothing() {
    const GROUPS: u64 = 1000;
    const SET_UP_BYTES_PER_GROUP: u64 = 12 * 1024;
    const BYTES_PER_GROUP: u64 = 17 * 1024;
    const QUIET_BYTES_PER_GROUP: u64 = 11 * 1024;
    const CAPACITY_SLACK: u64 = 1024;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // What a group holds after four joins, each settled and drained,
    // `multicasts` round-robin from its members and, with `quiet`, the
    // `Stabilize` its shard worker issues once it has gone quiet. Every
    // thousand is handed back and kept resident while the next is
    // measured (freed memory would be reused, not returned).
    let per_group = |capacity: u64, multicasts: u64, quiet: bool| {
        let payload = AppMsg::new(vec![0x5Au8; 64]);
        let before = rss_bytes();
        let mut groups = Vec::with_capacity(GROUPS as usize);
        for gid in 1..=GROUPS {
            let mut g = group_of_four_in(GroupId::new(gid), capacity);
            for k in 0..multicasts {
                let frames =
                    step(&mut g, GroupCmd::Send { from: p(1 + k % 4), msg: payload.clone() });
                assert_eq!(frames, 4);
            }
            if quiet {
                assert_eq!(step(&mut g, GroupCmd::Stabilize), 0);
            }
            groups.push(g);
        }
        let each = rss_bytes().saturating_sub(before) / GROUPS;
        for g in &mut groups {
            assert!(g.finish().is_empty(), "{:?}", g.report());
        }
        (each, groups)
    };
    // One multicast from every member, in capacity 4 and in capacity 16.
    let (snug, _held) = per_group(4, 4, false);
    let (roomy, _held) = per_group(16, 4, false);
    // `wide_1000g` during *paced*: 22 multicasts, no acknowledgement
    // round yet; then 70, one round (every 64) behind them; then 22 and
    // the quiet group's round, its emptied windows handed back.
    let (paced, _held) = per_group(4, 22, false);
    let (rounded, _held) = per_group(4, 70, false);
    let (quiet, _held) = per_group(4, 22, true);
    println!(
        "per group of four: {snug} B in capacity 4, {roomy} B in capacity 16, \
         {paced} B after 22 multicasts, {rounded} B after 70, \
         {quiet} B after 22 and Stabilize"
    );
    for (state, bytes, budget) in [
        ("4 multicasts", snug, SET_UP_BYTES_PER_GROUP),
        ("22", paced, BYTES_PER_GROUP),
        ("70", rounded, BYTES_PER_GROUP),
        ("22 and Stabilize", quiet, QUIET_BYTES_PER_GROUP),
    ] {
        assert!(
            bytes < budget,
            "{bytes} B resident per 4-member group after {state}, budget {budget} B"
        );
    }
    assert!(
        quiet < paced,
        "{quiet} B resident per quiet 4-member group after 22 multicasts and Stabilize, \
         {paced} B without the Stabilize: the round freed nothing"
    );
    assert!(
        roomy.abs_diff(snug) < CAPACITY_SLACK,
        "four members cost {snug} B in capacity 4 but {roomy} B in capacity 16"
    );
}
