//! Mixed-configuration interoperability: a rolling upgrade deploys
//! optimizations one node at a time, so endpoints with different
//! [`Config`]s must cooperate in a single group without violating any
//! spec. Wire compatibility requirements:
//!
//! * slim sync messages (view-less) must be understood by plain peers
//!   (they simply exclude the sender from transitional sets);
//! * different forwarding strategies must co-exist (each node follows its
//!   own predicate; duplicates are idempotent by Invariant 6.6);
//! * implicit-cuts senders elide wire entries, but their *stream
//!   positions* remain meaningful to everyone — however agreement-side
//!   interpretation differs, so implicit cuts must be deployed
//!   group-wide; here we verify the safe combinations.

use std::collections::BTreeMap;
use vsgm_core::{Config, Endpoint, ForwardStrategyKind};
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_spec::LivenessSpec;
use vsgm_types::{AppMsg, Event, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn mixed_sim(configs: Vec<Config>) -> Sim {
    let eps: BTreeMap<ProcessId, Endpoint> = configs
        .into_iter()
        .enumerate()
        .map(|(k, cfg)| {
            let pid = p(k as u64 + 1);
            (pid, Endpoint::new(pid, cfg))
        })
        .collect();
    Sim::with_endpoints(eps, SimOptions::default())
}

#[test]
fn slim_and_plain_endpoints_interoperate() {
    // p1, p2 run slim sync; p3, p4 plain.
    let slim = Config { slim_sync: true, ..Config::default() };
    let mut sim = mixed_sim(vec![slim.clone(), slim, Config::default(), Config::default()]);
    sim.reconfigure(&procs(2)); // bootstrap the slim pair first
    sim.run_to_quiescence();
    sim.send(p(1), AppMsg::from("pre-join"));
    sim.run_to_quiescence();
    // The plain pair joins: slim members send view-less syncs to them.
    let v = sim.reconfigure(&procs(4));
    sim.add_checker(LivenessSpec::new(v));
    for i in 1..=4 {
        sim.send(p(i), AppMsg::from(format!("mixed {i}").as_str()));
    }
    sim.run_to_quiescence();
    sim.assert_clean();
    sim.assert_paper_invariants();
    let delivered =
        sim.trace().entries().iter().filter(|e| matches!(e.event, Event::Deliver { .. })).count();
    assert!(delivered >= 16, "all post-join messages delivered everywhere");
}

#[test]
fn mixed_forwarding_strategies_recover_messages() {
    // p1 eager, p2 min-copy, p3 eager, p4 min-copy; p4's burst reaches
    // only p3 before p4 crashes.
    let eager = Config { forward: ForwardStrategyKind::Eager, ..Config::default() };
    let min = Config { forward: ForwardStrategyKind::MinCopy, ..Config::default() };
    let mut sim = mixed_sim(vec![eager.clone(), min.clone(), eager, min]);
    sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    sim.partition(&[vec![p(3), p(4)], vec![p(1), p(2)]]);
    for k in 0..3 {
        sim.send(p(4), AppMsg::from(format!("b{k}").as_str()));
    }
    sim.run_to_quiescence();
    sim.crash(p(4));
    sim.heal();
    let v = sim.reconfigure(&procs_of(&[1, 2, 3]));
    sim.add_checker(LivenessSpec::new(v));
    sim.run_to_quiescence();
    sim.assert_clean();
    // Every survivor delivered p4's full burst despite mixed strategies.
    for i in 1..=3u64 {
        let n = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| {
                matches!(&e.event, Event::Deliver { p: to, q: from, .. }
                                 if *to == p(i) && *from == p(4))
            })
            .count();
        assert_eq!(n, 3, "p{i} missing part of the burst");
    }
}

#[test]
fn aggregating_group_with_plain_joiner_converges_on_next_change() {
    // An aggregation group admits a plain (non-aggregating) joiner. The
    // joiner multicasts its sync to everyone (flat), which the leader and
    // members absorb; the leader's batch covers the rest. Everyone
    // reaches the view.
    let agg = Config { aggregation: true, ..Config::default() };
    let mut sim = mixed_sim(vec![agg.clone(), agg.clone(), agg, Config::default()]);
    sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    let v = sim.reconfigure(&procs(4));
    sim.add_checker(LivenessSpec::new(v));
    sim.send(p(4), AppMsg::from("joiner traffic"));
    sim.run_to_quiescence();
    sim.assert_clean();
    for i in 1..=4 {
        assert_eq!(sim.endpoint(p(i)).current_view().len(), 4, "p{i} stuck");
    }
}
