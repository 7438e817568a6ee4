//! End-to-end scenarios with real membership servers (the client-server
//! architecture of Fig. 1): servers agree on views by exchanging one
//! round of proposals over their own network while the GCS end-points run
//! the virtual-synchrony round underneath — in parallel, as the paper
//! designs.

use vsgm_core::Config;
use vsgm_harness::server_sim::ServerSim;
use vsgm_harness::sim::procs_of;
use vsgm_harness::SimOptions;
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn two_by_three() -> ServerSim {
    ServerSim::new(
        vec![(p(1001), vec![p(1), p(2), p(3)]), (p(1002), vec![p(4), p(5), p(6)])],
        Config::default(),
        SimOptions::default(),
    )
}

#[test]
fn full_lifecycle_through_servers() {
    let mut s = two_by_three();
    let servers = procs_of(&[1001, 1002]);
    let all: ProcSet = (1..=6).map(p).collect();
    s.set_connectivity(&servers, &all);
    for i in 1..=6 {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 6, "client {i}");
    }
    // Workload.
    for i in 1..=6 {
        s.sim.send(p(i), AppMsg::from(format!("c{i}").as_str()));
    }
    s.run_to_quiescence();
    let delivers =
        s.sim.trace().entries().iter().filter(|e| matches!(e.event, Event::Deliver { .. })).count();
    assert_eq!(delivers, 36);
    // Churn: two clients leave, then return.
    let four: ProcSet = [1, 2, 4, 5].iter().map(|&i| p(i)).collect();
    s.set_connectivity(&servers, &four);
    for i in [1, 2, 4, 5] {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 4);
    }
    s.set_connectivity(&servers, &all);
    for i in 1..=6 {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 6);
    }
    assert!(s.sim.finish().is_empty());
}

#[test]
fn server_partition_and_merge_with_traffic() {
    let mut s = two_by_three();
    let servers = procs_of(&[1001, 1002]);
    let all: ProcSet = (1..=6).map(p).collect();
    s.set_connectivity(&servers, &all);
    // Client network splits along server lines; each server continues
    // alone.
    s.sim.partition(&[vec![p(1), p(2), p(3)], vec![p(4), p(5), p(6)]]);
    s.set_connectivity(&procs_of(&[1001]), &procs_of(&[1, 2, 3]));
    s.set_connectivity(&procs_of(&[1002]), &procs_of(&[4, 5, 6]));
    s.sim.send(p(1), AppMsg::from("left side"));
    s.sim.send(p(6), AppMsg::from("right side"));
    s.run_to_quiescence();
    // Concurrent views with traffic in both.
    assert_eq!(s.sim.endpoint(p(1)).current_view().len(), 3);
    assert_eq!(s.sim.endpoint(p(6)).current_view().len(), 3);
    // Merge.
    s.sim.heal();
    s.set_connectivity(&servers, &all);
    for i in 1..=6 {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 6, "client {i}");
    }
    assert!(s.sim.finish().is_empty());
}

#[test]
fn parallel_rounds_one_view_change_latency() {
    // The headline architecture claim: the virtual-synchrony round runs
    // in parallel with the membership round, so end-to-end view-change
    // time is ~max(rounds), not their sum.
    let mut s = two_by_three();
    let servers = procs_of(&[1001, 1002]);
    let all: ProcSet = (1..=6).map(p).collect();
    s.set_connectivity(&servers, &all);
    // Steady-state leave.
    let t0 = s.sim.now();
    let five: ProcSet = (1..=5).map(p).collect();
    s.set_connectivity(&servers, &five);
    let elapsed = s.sim.now().saturating_sub(t0);
    // The GCS view must be installed at the survivors.
    for i in 1..=5 {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 5);
    }
    // One client-side sync round (~one LAN latency, ≤ 200us in the lan()
    // model) dominates; the membership round between the two servers runs
    // concurrently. Budget: well under two sequential round trips.
    assert!(elapsed.as_micros() < 1000, "view change took {elapsed}, expected parallel rounds");
    assert!(s.sim.finish().is_empty());
}

#[test]
fn four_servers_sixteen_clients() {
    let layout: Vec<(ProcessId, Vec<ProcessId>)> =
        (0..4).map(|k| (p(1001 + k), (1..=4).map(|j| p(k * 4 + j)).collect::<Vec<_>>())).collect();
    let servers: ProcSet = layout.iter().map(|(s, _)| *s).collect();
    let all: ProcSet = (1..=16).map(p).collect();
    let mut s = ServerSim::new(layout, Config::default(), SimOptions::default());
    s.set_connectivity(&servers, &all);
    for i in 1..=16 {
        assert_eq!(s.sim.endpoint(p(i)).current_view().len(), 16, "client {i}");
    }
    s.sim.send(p(7), AppMsg::from("big group"));
    s.run_to_quiescence();
    let delivers =
        s.sim.trace().entries().iter().filter(|e| matches!(e.event, Event::Deliver { .. })).count();
    assert_eq!(delivers, 16);
    assert!(s.sim.finish().is_empty());
}
