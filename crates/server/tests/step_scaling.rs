//! How the protocol step grows with the group: µs per multicast and per
//! join on one [`GroupInstance`] at n = 4, 8, 16, 32 and 64, and the
//! slope of each in n from a least-squares fit of log time on log n.
//!
//! The step is what a daemon shard worker runs (`apply` →
//! `run_to_quiescence` → `drain_outputs`), every spec checker online. A
//! multicast comes from each member in turn; a join is one member joining
//! a group that already holds the ones before it, so the join figure is
//! the mean over groups of 1 to n members. A set-up replay follows: what
//! a daemon hosting `wide_1000g` steps before its first paced multicast —
//! 1000 groups of four, each member joining and then multicasting once —
//! timed per phase, best of five. The test prints and asserts no timing.
//! It is a release-mode test (ignored in debug builds; `scripts/check.sh`
//! prints its table).

use std::time::Instant;
use vsgm_server::{GroupCmd, GroupInstance};
use vsgm_types::{AppMsg, GroupId, ProcessId};

/// One shard-worker step.
fn step(g: &mut GroupInstance, cmd: GroupCmd) {
    g.apply(cmd);
    g.run_to_quiescence();
    g.drain_outputs();
}

/// µs per join while `n` members join one group, and µs per multicast in
/// the group they form.
fn measure(n: u64) -> (f64, f64) {
    // Enough rounds that each figure covers tens of milliseconds.
    let groups = (256 / n).max(1);
    let t0 = Instant::now();
    let mut g = GroupInstance::new(GroupId::new(1), n, 0);
    for round in 0..groups {
        g = GroupInstance::new(GroupId::new(1 + round), n, 0);
        for i in 1..=n {
            step(&mut g, GroupCmd::Join(ProcessId::new(i)));
        }
    }
    let join_us = t0.elapsed().as_secs_f64() * 1e6 / (groups * n) as f64;
    let payload = AppMsg::new(vec![0xA5u8; 64]);
    let send = |g: &mut GroupInstance, k: u64| {
        let from = ProcessId::new(1 + k % n);
        step(g, GroupCmd::Send { from, msg: payload.clone() });
    };
    let sends = (40_000 / (n * n)).max(4 * n);
    for k in 0..sends {
        send(&mut g, k); // warm-up
    }
    let t0 = Instant::now();
    for k in 0..sends {
        send(&mut g, k);
    }
    (join_us, t0.elapsed().as_secs_f64() * 1e6 / sends as f64)
}

/// Milliseconds for the two phases of setting up `groups` groups of four:
/// every group's four joins, then one multicast from each member of each.
fn replay_setup(groups: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut hosted: Vec<GroupInstance> = (1..=groups)
        .map(|gid| {
            let mut g = GroupInstance::new(GroupId::new(gid), 4, 0);
            for i in 1..=4 {
                step(&mut g, GroupCmd::Join(ProcessId::new(i)));
            }
            g
        })
        .collect();
    let join_ms = t0.elapsed().as_secs_f64() * 1e3;
    let payload = AppMsg::new(vec![0xA5u8; 64]);
    let t0 = Instant::now();
    for g in &mut hosted {
        for i in 1..=4 {
            step(g, GroupCmd::Send { from: ProcessId::new(i), msg: payload.clone() });
        }
    }
    (join_ms, t0.elapsed().as_secs_f64() * 1e3)
}

/// The exponent `b` of the least-squares fit `y = a·n^b`.
fn slope(points: &[(u64, f64)]) -> f64 {
    let xy: Vec<(f64, f64)> = points.iter().map(|(n, y)| ((*n as f64).ln(), y.ln())).collect();
    let k = xy.len() as f64;
    let (mx, my) = xy.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / k, b + y / k));
    let cov: f64 = xy.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xy.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    cov / var
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode measurement; scripts/check.sh prints it")]
fn step_cost_per_multicast_and_per_join_by_group_size() {
    let sizes = [4u64, 8, 16, 32, 64];
    println!("step scaling: {:>4} {:>10} {:>10}", "n", "send_us", "join_us");
    let mut sends = Vec::new();
    let mut joins = Vec::new();
    for n in sizes {
        let (join_us, send_us) = measure(n);
        println!("step scaling: {n:>4} {send_us:>10.1} {join_us:>10.1}");
        sends.push((n, send_us));
        joins.push((n, join_us));
    }
    println!(
        "step scaling: slope in n (4..64): send n^{:.2}, join n^{:.2}",
        slope(&sends),
        slope(&joins)
    );
    const GROUPS: u64 = 1000;
    let (join_ms, send_ms) = (0..5)
        .map(|_| replay_setup(GROUPS))
        .fold((f64::INFINITY, f64::INFINITY), |(j, s), (jr, sr)| (j.min(jr), s.min(sr)));
    println!(
        "step scaling: set-up of {GROUPS} groups of four (best of 5): \
         joins {join_ms:.1} ms, one multicast per member {send_ms:.1} ms"
    );
}
