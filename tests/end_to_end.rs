//! End-to-end scenarios across the full stack, each validated online
//! against every safety specification automaton (Figs. 2–7 + CLIENT) and,
//! where meaningful, against liveness Property 4.2.

use vsgm_core::{Config, ForwardStrategyKind, Stack};
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_net::LatencyModel;
use vsgm_spec::LivenessSpec;
use vsgm_types::{AppMsg, Event, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn opts(seed: u64) -> SimOptions {
    SimOptions { seed, latency: LatencyModel::lan(), check: true, shuffle_polling: true }
}

#[test]
fn churn_with_workload_many_seeds() {
    for seed in 0..10 {
        let mut sim = Sim::new_paper(5, Config::default(), opts(seed));
        sim.reconfigure(&procs(5));
        for round in 0u64..4 {
            for i in 1..=5 {
                sim.send(p(i), AppMsg::from(format!("r{round} from {i}").as_str()));
            }
            sim.run_to_quiescence();
            // Shrink then regrow.
            sim.reconfigure(&procs_of(&[1, 2, 3]));
            sim.run_to_quiescence();
            sim.send(p(2), AppMsg::from(format!("small r{round}").as_str()));
            sim.run_to_quiescence();
            sim.reconfigure(&procs(5));
            sim.run_to_quiescence();
        }
        sim.assert_clean();
    }
}

#[test]
fn repeated_partition_merge_cycles() {
    let mut sim = Sim::new_paper(6, Config::default(), opts(3));
    sim.reconfigure(&procs(6));
    sim.run_to_quiescence();
    for cycle in 0..3 {
        sim.partition(&[vec![p(1), p(2), p(3)], vec![p(4), p(5), p(6)]]);
        sim.start_change_for(&procs_of(&[1, 2, 3]), &procs_of(&[1, 2, 3]));
        sim.form_view(&procs_of(&[1, 2, 3]));
        sim.start_change_for(&procs_of(&[4, 5, 6]), &procs_of(&[4, 5, 6]));
        sim.form_view(&procs_of(&[4, 5, 6]));
        sim.run_to_quiescence();
        sim.send(p(1), AppMsg::from(format!("A{cycle}").as_str()));
        sim.send(p(4), AppMsg::from(format!("B{cycle}").as_str()));
        sim.run_to_quiescence();
        sim.heal();
        sim.reconfigure(&procs(6));
        sim.run_to_quiescence();
        sim.send(p(6), AppMsg::from(format!("joint{cycle}").as_str()));
        sim.run_to_quiescence();
    }
    sim.assert_clean();
    // Everyone ends in the same 6-member view.
    let v1 = sim.endpoint(p(1)).current_view().clone();
    for i in 2..=6 {
        assert_eq!(sim.endpoint(p(i)).current_view(), &v1);
    }
}

#[test]
fn asymmetric_partition_three_ways() {
    let mut sim = Sim::new_paper(6, Config::default(), opts(9));
    sim.reconfigure(&procs(6));
    sim.run_to_quiescence();
    sim.partition(&[vec![p(1)], vec![p(2), p(3)], vec![p(4), p(5), p(6)]]);
    sim.start_change_for(&procs_of(&[1]), &procs_of(&[1]));
    sim.form_view(&procs_of(&[1]));
    sim.start_change_for(&procs_of(&[2, 3]), &procs_of(&[2, 3]));
    sim.form_view(&procs_of(&[2, 3]));
    sim.start_change_for(&procs_of(&[4, 5, 6]), &procs_of(&[4, 5, 6]));
    sim.form_view(&procs_of(&[4, 5, 6]));
    sim.run_to_quiescence();
    // Singleton keeps self-delivering.
    sim.send(p(1), AppMsg::from("alone"));
    sim.run_to_quiescence();
    sim.heal();
    let merged = sim.reconfigure(&procs(6));
    sim.add_checker(LivenessSpec::new(merged));
    sim.run_to_quiescence();
    sim.assert_clean();
}

#[test]
fn crash_during_reconfiguration() {
    let mut sim = Sim::new_paper(4, Config::default(), opts(5));
    sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    // Change starts; p4 crashes before the view forms; membership
    // cascades to exclude it.
    sim.start_change(&procs(4));
    sim.crash(p(4));
    sim.start_change_for(&procs_of(&[1, 2, 3]), &procs_of(&[1, 2, 3]));
    let v = sim.form_view(&procs_of(&[1, 2, 3]));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.send(p(1), AppMsg::from("post-crash"));
    sim.run_to_quiescence();
    sim.assert_clean();
}

#[test]
fn sender_crash_with_forwarding_under_both_strategies() {
    for strategy in [ForwardStrategyKind::Eager, ForwardStrategyKind::MinCopy] {
        let cfg = Config { forward: strategy, ..Config::default() };
        let mut sim = Sim::new_paper(5, cfg, opts(11));
        sim.reconfigure(&procs(5));
        sim.run_to_quiescence();
        // p5's burst reaches {p4} only; p1..p3 cut off.
        sim.partition(&[vec![p(4), p(5)], vec![p(1), p(2), p(3)]]);
        for k in 0..5 {
            sim.send(p(5), AppMsg::from(format!("burst{k}").as_str()));
        }
        sim.run_to_quiescence();
        sim.crash(p(5));
        sim.heal();
        let v = sim.reconfigure(&procs_of(&[1, 2, 3, 4]));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        sim.assert_clean();
        // Everyone delivered all 5 of p5's messages (forwarded by p4).
        for i in 1..=4 {
            let count = sim
                .trace()
                .entries()
                .iter()
                .filter(|e| {
                    matches!(&e.event, Event::Deliver { p: to, q: from, .. }
                             if *to == p(i) && *from == p(5))
                })
                .count();
            assert_eq!(count, 5, "p{i} missing messages under {strategy:?}");
        }
    }
}

#[test]
fn cascaded_changes_with_joiners() {
    let mut sim = Sim::new_paper(5, Config::default(), opts(13));
    sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    // Change starts for {1,2,3}, then p4 and p5 ask to join mid-change.
    sim.start_change(&procs(3));
    sim.start_change(&procs(4));
    sim.start_change(&procs(5));
    let v = sim.form_view(&procs(5));
    sim.run_to_quiescence();
    sim.assert_clean();
    assert_eq!(v.len(), 5);
    // Exactly one view delivered per process despite three suggestions.
    let views = sim
        .trace()
        .entries()
        .iter()
        .filter(|e| matches!(&e.event, Event::GcsView { view, .. } if view == &v))
        .count();
    assert_eq!(views, 5);
}

#[test]
fn slim_sync_with_joiners_full_run() {
    let cfg = Config { slim_sync: true, ..Config::default() };
    let mut sim = Sim::new_paper(6, cfg, opts(17));
    sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    sim.send(p(1), AppMsg::from("old view traffic"));
    sim.run_to_quiescence();
    let v = sim.reconfigure(&procs(6));
    sim.add_checker(LivenessSpec::new(v));
    sim.send(p(6), AppMsg::from("joiner speaks"));
    sim.run_to_quiescence();
    sim.assert_clean();
}

#[test]
fn aggregation_full_run_with_leader_change() {
    let cfg = Config { aggregation: true, ..Config::default() };
    let mut sim = Sim::new_paper(4, cfg, opts(19));
    sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    sim.send(p(2), AppMsg::from("agg traffic"));
    sim.run_to_quiescence();
    // The leader (p1) crashes: the next change elects p2 implicitly.
    sim.crash(p(1));
    let v = sim.reconfigure(&procs_of(&[2, 3, 4]));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.send(p(3), AppMsg::from("after leader death"));
    sim.run_to_quiescence();
    sim.assert_clean();
}

#[test]
fn vs_stack_without_sd_runs_clean_on_vs_specs() {
    // VS_RFIFO+TS satisfies WV/VS/TS but not SELF; check with a manual
    // checker set that excludes SELF and CLIENT-block flows.
    let cfg = Config { stack: Stack::VsTs, ..Config::default() };
    let mut sim = Sim::new_paper(3, cfg, SimOptions { check: false, ..opts(23) });
    sim.reconfigure(&procs(3));
    sim.send(p(1), AppMsg::from("x"));
    sim.run_to_quiescence();
    sim.reconfigure(&procs_of(&[1, 2]));
    sim.run_to_quiescence();
    let mut checks = vsgm_ioa::CheckSet::new();
    checks.add(vsgm_spec::MbrshpSpec::new());
    checks.add(vsgm_spec::CoRfifoSpec::new());
    checks.add(vsgm_spec::ViewSyncSpec::new());
    checks.run(sim.trace().entries());
    checks.assert_clean();
}

#[test]
fn high_latency_wan_profile() {
    let mut sim = Sim::new_paper(
        4,
        Config::default(),
        SimOptions { seed: 29, latency: LatencyModel::wan(), check: true, shuffle_polling: true },
    );
    sim.reconfigure(&procs(4));
    for i in 1..=4 {
        sim.send(p(i), AppMsg::from(format!("wan {i}").as_str()));
    }
    sim.run_to_quiescence();
    sim.reconfigure(&procs_of(&[1, 2]));
    sim.run_to_quiescence();
    sim.assert_clean();
}

#[test]
fn messages_queued_while_blocked_are_released_after_view() {
    let mut sim = Sim::new_paper(2, Config::default(), opts(31));
    sim.reconfigure(&procs(2));
    sim.run_to_quiescence();
    // Start a change; the auto-acking client blocks instantly; sends go
    // into its queue and must surface after the next view.
    sim.start_change(&procs(2));
    sim.send(p(1), AppMsg::from("queued"));
    let v = sim.form_view(&procs(2));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.assert_clean();
    let delivered = sim.trace().entries().iter().any(|e| {
        matches!(&e.event, Event::Deliver { p: to, msg, .. }
                          if *to == p(2) && *msg == AppMsg::from("queued"))
    });
    assert!(delivered, "queued message must flow after the view change");
}
