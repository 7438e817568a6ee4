//! The second §5.2.4 optimization: synchronization messages omit cut
//! entries for continuing members, whose own in-stream syncs terminate
//! their message sequences. End-to-end runs with the full checker battery
//! confirm the optimized algorithm still satisfies every spec.

use vsgm_core::Config;
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_spec::LivenessSpec;
use vsgm_types::{AppMsg, Event, NetMsg, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn optimized_sim(n: usize, seed: u64) -> Sim {
    Sim::new_paper(n, Config::optimized(), SimOptions { seed, ..Default::default() })
}

#[test]
fn optimized_stack_runs_clean_with_workload() {
    for seed in 0..8 {
        let mut sim = optimized_sim(4, seed);
        sim.reconfigure(&procs(4));
        for i in 1..=4 {
            sim.send(p(i), AppMsg::from(format!("m{i}").as_str()));
        }
        sim.run_to_quiescence();
        let v = sim.reconfigure(&procs(4));
        sim.add_checker(LivenessSpec::new(v));
        for i in 1..=4 {
            sim.send(p(i), AppMsg::from(format!("n{i}").as_str()));
        }
        sim.run_to_quiescence();
        sim.assert_clean();
        sim.assert_paper_invariants();
    }
}

#[test]
fn optimized_stack_handles_membership_shrink() {
    let mut sim = optimized_sim(5, 3);
    sim.reconfigure(&procs(5));
    for i in 1..=5 {
        sim.send(p(i), AppMsg::from(format!("pre{i}").as_str()));
    }
    sim.run_to_quiescence();
    let v = sim.reconfigure(&procs_of(&[1, 2, 3]));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.assert_clean();
    for i in 1..=3 {
        assert_eq!(sim.endpoint(p(i)).current_view().len(), 3);
    }
}

#[test]
fn optimized_stack_handles_crash_and_recovery() {
    let mut sim = optimized_sim(4, 5);
    sim.reconfigure(&procs(4));
    sim.send(p(2), AppMsg::from("before"));
    sim.run_to_quiescence();
    sim.crash(p(4));
    sim.reconfigure(&procs_of(&[1, 2, 3]));
    sim.run_to_quiescence();
    sim.recover(p(4));
    sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    sim.assert_clean();
}

/// With the audit on, no fault-free run resets an end-point. The window
/// this pins: the membership view has arrived but a continuing member's
/// sync has not, so an implicit-cuts bound for that member reads 0 while
/// the end-point has already delivered up to its own cut — a state the
/// deliver precondition allows, so the audit must accept it too.
#[test]
fn audit_resets_no_end_point_in_fault_free_runs() {
    let cfg = Config { implicit_cuts: true, audit: true, ..Config::default() };
    for seed in 0..200u64 {
        let mut sim = Sim::new_paper(4, cfg.clone(), SimOptions { seed, ..Default::default() });
        sim.reconfigure(&procs(4));
        for k in 0..seed % 9 {
            sim.send(p(1 + (seed + k) % 4), AppMsg::from("w"));
        }
        sim.run_to_quiescence();
        let mask = 1 + seed % 14;
        let members: Vec<u64> = (0..4u64).filter(|i| mask & (1 << i) != 0).map(|i| i + 1).collect();
        sim.reconfigure(&procs_of(&members));
        sim.run_to_quiescence();
        sim.reconfigure(&procs(4));
        sim.run_to_quiescence();
        sim.assert_clean();
        let resets = sim.trace().kind_counts().get("crash").copied().unwrap_or(0);
        assert_eq!(resets, 0, "seed {seed}: the audit reset a legal end-point");
    }
}

#[test]
fn wire_cuts_are_actually_smaller() {
    // Compare total sync bytes with/without the optimization for an
    // identical stable view change with in-view traffic.
    fn sync_bytes(cfg: Config) -> u64 {
        let mut sim = Sim::new_paper(6, cfg, SimOptions { seed: 9, ..Default::default() });
        sim.reconfigure(&procs(6));
        for i in 1..=6 {
            sim.send(p(i), AppMsg::from("traffic"));
        }
        sim.run_to_quiescence();
        sim.reset_net_stats();
        sim.reconfigure(&procs(6));
        sim.run_to_quiescence();
        sim.assert_clean();
        sim.net().stats().bytes("sync_msg")
    }
    let plain = sync_bytes(Config::default());
    let optimized = sync_bytes(Config { implicit_cuts: true, ..Config::default() });
    assert!(optimized < plain, "implicit cuts should shrink sync bytes: {optimized} vs {plain}");
}

#[test]
fn wire_sync_messages_carry_no_continuing_member_entries() {
    let mut sim = optimized_sim(3, 11);
    sim.reconfigure(&procs(3));
    for i in 1..=3 {
        sim.send(p(i), AppMsg::from("x"));
    }
    sim.run_to_quiescence();
    let mark = sim.trace().len();
    sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    sim.assert_clean();
    let mut saw_sync = false;
    for e in &sim.trace().entries()[mark..] {
        if let Event::NetSend { msg: NetMsg::Sync(payload), .. } = &e.event {
            if payload.view.is_some() {
                saw_sync = true;
                assert_eq!(
                    payload.cut.len(),
                    0,
                    "all members continue, so every cut entry should be elided: {payload:?}"
                );
            }
        }
    }
    assert!(saw_sync, "expected sync traffic");
}

#[test]
fn departed_member_entries_still_travel() {
    // A member crashes with undelivered messages: its entries must remain
    // on the wire (it will not produce an in-stream sync), and the
    // survivors must still agree on its cut.
    let mut sim = optimized_sim(3, 13);
    sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    sim.send(p(3), AppMsg::from("from the departed"));
    sim.run_to_quiescence();
    sim.crash(p(3));
    let mark = sim.trace().len();
    let v = sim.reconfigure(&procs_of(&[1, 2]));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.assert_clean();
    let mut saw_entry_for_p3 = false;
    for e in &sim.trace().entries()[mark..] {
        if let Event::NetSend { msg: NetMsg::Sync(payload), .. } = &e.event {
            if payload.cut.get(p(3)) > 0 {
                saw_entry_for_p3 = true;
            }
        }
    }
    assert!(saw_entry_for_p3, "departed member's cut entry must stay on the wire");
}
