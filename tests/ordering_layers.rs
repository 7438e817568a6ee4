//! End-to-end tests of the ordering layers (total + causal) running over
//! the full simulated stack, across view changes.

use std::collections::BTreeMap;
use vsgm_core::Config;
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_order::{CausalOrder, TotalOrder};
use vsgm_types::{AppMsg, Event, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// Pumps GCS deliveries into per-process layers; `react` may return a
/// message to multicast (e.g. the sequencer's Order announcements).
fn pump<L>(
    sim: &mut Sim,
    layers: &mut BTreeMap<ProcessId, L>,
    cursor: &mut usize,
    mut react: impl FnMut(&mut L, ProcessId, &AppMsg) -> Option<AppMsg>,
) {
    loop {
        sim.run_to_quiescence();
        let batch: Vec<(ProcessId, ProcessId, AppMsg)> = sim.trace().entries()[*cursor..]
            .iter()
            .filter_map(|e| match &e.event {
                Event::Deliver { p, q, msg } => Some((*p, *q, msg.clone())),
                _ => None,
            })
            .collect();
        *cursor = sim.trace().len();
        if batch.is_empty() {
            return;
        }
        let mut sends = Vec::new();
        for (to, from, msg) in batch {
            if let Some(out) = react(layers.get_mut(&to).expect("known layer"), from, &msg) {
                sends.push((to, out));
            }
        }
        for (p, m) in sends {
            sim.send(p, m);
        }
    }
}

#[test]
fn total_order_identical_across_members_with_churn() {
    let mut sim = Sim::new_paper(4, Config::default(), SimOptions::default());
    let view = sim.reconfigure(&procs(4));
    sim.run_to_quiescence();
    let mut layers: BTreeMap<ProcessId, TotalOrder> = (1..=4)
        .map(|i| {
            let mut l = TotalOrder::new(p(i));
            l.on_view(&view, view.members());
            (p(i), l)
        })
        .collect();
    let mut delivered: BTreeMap<ProcessId, Vec<Vec<u8>>> = Default::default();
    let mut cursor = sim.trace().len();

    // Concurrent submissions from every member.
    for i in 1..=4u64 {
        for k in 0..3 {
            let wrapped = layers[&p(i)].submit(format!("{i}:{k}").into_bytes());
            sim.send(p(i), wrapped);
        }
    }
    // Drive the sequencer feedback loop: Order announcements are
    // re-multicast until the system quiesces.
    pump(&mut sim, &mut layers, &mut cursor, |layer, from, msg| {
        let (_, ann) = layer.on_deliver(from, msg);
        ann
    });
    // Simpler, exact check: replay the trace through fresh layers in
    // trace order per process and compare sequences.
    let mut check_layers: BTreeMap<ProcessId, TotalOrder> = (1..=4)
        .map(|i| {
            let mut l = TotalOrder::new(p(i));
            l.on_view(&view, view.members());
            (p(i), l)
        })
        .collect();
    for e in sim.trace().entries() {
        if let Event::Deliver { p: to, q: from, msg } = &e.event {
            let (out, _) = check_layers.get_mut(to).unwrap().on_deliver(*from, msg);
            for o in out {
                delivered.entry(*to).or_default().push(o.payload);
            }
        }
    }
    sim.assert_clean();
    let reference = delivered[&p(1)].clone();
    assert_eq!(reference.len(), 12, "all 12 payloads ordered");
    for i in 2..=4 {
        assert_eq!(delivered[&p(i)], reference, "member p{i} diverged");
    }
}

#[test]
fn causal_order_respects_happened_before_over_the_stack() {
    let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
    let view = sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    let mut layers: BTreeMap<ProcessId, CausalOrder> =
        (1..=3).map(|i| (p(i), CausalOrder::new(p(i)))).collect();
    let _ = view;
    let mut cursor = sim.trace().len();
    let mut log: BTreeMap<ProcessId, Vec<Vec<u8>>> = Default::default();

    // p1 sends the cause.
    let m1 = layers[&p(1)].submit(b"cause".to_vec());
    sim.send(p(1), m1);
    pump(&mut sim, &mut layers, &mut cursor, |layer, from, msg| {
        for d in layer.on_deliver(from, msg) {
            let _ = d;
        }
        None
    });
    // Replay to drive the real layers (pump consumed deliveries already):
    // rebuild precisely from the trace for the assertion phase below.
    // p2 reacts with the effect (its layer saw the cause during pump).
    let mut p2_layer = CausalOrder::new(p(2));
    for e in sim.trace().entries() {
        if let Event::Deliver { p: to, q: from, msg } = &e.event {
            if *to == p(2) {
                p2_layer.on_deliver(*from, msg);
            }
        }
    }
    let m2 = p2_layer.submit(b"effect".to_vec());
    sim.send(p(2), m2);
    sim.run_to_quiescence();
    sim.assert_clean();

    // Replay the complete trace through fresh layers: at every member,
    // "cause" must precede "effect".
    let mut fresh: BTreeMap<ProcessId, CausalOrder> =
        (1..=3).map(|i| (p(i), CausalOrder::new(p(i)))).collect();
    for e in sim.trace().entries() {
        if let Event::Deliver { p: to, q: from, msg } = &e.event {
            for d in fresh.get_mut(to).unwrap().on_deliver(*from, msg) {
                log.entry(*to).or_default().push(d.payload);
            }
        }
    }
    for i in 1..=3u64 {
        let seq = &log[&p(i)];
        let cause = seq.iter().position(|m| m == b"cause").expect("cause delivered");
        let effect = seq.iter().position(|m| m == b"effect").expect("effect delivered");
        assert!(cause < effect, "p{i} delivered effect before cause: {seq:?}");
    }
}

#[test]
fn total_order_survives_sequencer_departure() {
    let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
    let v1 = sim.reconfigure(&procs(3));
    sim.run_to_quiescence();
    let layers: BTreeMap<ProcessId, TotalOrder> = (1..=3)
        .map(|i| {
            let mut l = TotalOrder::new(p(i));
            l.on_view(&v1, v1.members());
            (p(i), l)
        })
        .collect();
    assert!(layers[&p(1)].is_sequencer());

    // Submissions land, then the sequencer p1 crashes before ordering
    // everything; {2,3} reconfigure.
    let w2 = layers[&p(2)].submit(b"two".to_vec());
    let w3 = layers[&p(3)].submit(b"three".to_vec());
    sim.send(p(2), w2);
    sim.send(p(3), w3);
    sim.run_to_quiescence();
    sim.crash(p(1));
    let v2 = sim.reconfigure(&procs_of(&[2, 3]));
    sim.run_to_quiescence();
    sim.assert_clean();

    // Replay: both survivors flush the identical backlog on the view.
    let mut flushed: BTreeMap<ProcessId, Vec<Vec<u8>>> = Default::default();
    for i in [2u64, 3] {
        let mut l = TotalOrder::new(p(i));
        l.on_view(&v1, v1.members());
        for e in sim.trace().entries() {
            match &e.event {
                Event::Deliver { p: to, q: from, msg } if *to == p(i) => {
                    let (out, _) = l.on_deliver(*from, msg);
                    for o in out {
                        flushed.entry(p(i)).or_default().push(o.payload);
                    }
                }
                Event::GcsView { p: to, view, transitional } if *to == p(i) && view == &v2 => {
                    for o in l.on_view(view, transitional) {
                        flushed.entry(p(i)).or_default().push(o.payload);
                    }
                }
                _ => {}
            }
        }
        assert!(l.is_sequencer() || p(i) != p(2), "p2 becomes the new sequencer");
    }
    assert_eq!(flushed[&p(2)], flushed[&p(3)], "VS flush must agree");
    assert_eq!(flushed[&p(2)].len(), 2);
}

#[test]
fn replica_layer_syncs_rejoiner_over_the_full_stack() {
    use vsgm_order::{LogMachine, Replica};

    let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
    let mut replicas: BTreeMap<ProcessId, Replica<LogMachine>> =
        (1..=3).map(|i| (p(i), Replica::new(p(i), LogMachine::default()))).collect();
    let mut cursor = 0usize;

    // Drives deliveries + view changes from the trace into the replicas,
    // re-multicasting their responses, until quiescence.
    fn pump_replicas(
        sim: &mut Sim,
        replicas: &mut BTreeMap<ProcessId, Replica<LogMachine>>,
        cursor: &mut usize,
    ) {
        loop {
            sim.run_to_quiescence();
            let batch: Vec<Event> =
                sim.trace().entries()[*cursor..].iter().map(|e| e.event.clone()).collect();
            *cursor = sim.trace().len();
            if batch.is_empty() {
                return;
            }
            let mut sends = Vec::new();
            for ev in batch {
                match ev {
                    Event::Deliver { p: to, q: from, msg } => {
                        if let Some(r) = replicas.get_mut(&to) {
                            if let Some(resp) = r.on_deliver(from, &msg) {
                                sends.push((to, resp));
                            }
                        }
                    }
                    Event::GcsView { p: to, view, transitional } => {
                        if let Some(r) = replicas.get_mut(&to) {
                            if let Some(resp) = r.on_view(&view, &transitional) {
                                sends.push((to, resp));
                            }
                        }
                    }
                    _ => {}
                }
            }
            for (from, m) in sends {
                sim.send(from, m);
            }
        }
    }

    sim.reconfigure(&procs(3));
    pump_replicas(&mut sim, &mut replicas, &mut cursor);
    for (i, cmd) in [(1u64, "alpha"), (2, "beta"), (3, "gamma")] {
        let m = replicas[&p(i)].submit(cmd.as_bytes().to_vec());
        sim.send(p(i), m);
    }
    pump_replicas(&mut sim, &mut replicas, &mut cursor);
    let reference = replicas[&p(1)].machine().clone();
    assert_eq!(reference.log.len(), 3);
    for (id, r) in &replicas {
        assert_eq!(r.machine(), &reference, "replica {id} diverged");
    }

    // p3 crashes (loses everything), survivors keep writing, p3 rejoins
    // and is brought up to date by the transitional-set donor.
    sim.crash(p(3));
    replicas.insert(p(3), Replica::new(p(3), LogMachine::default()));
    sim.reconfigure(&procs_of(&[1, 2]));
    pump_replicas(&mut sim, &mut replicas, &mut cursor);
    let m = replicas[&p(1)].submit(b"while p3 down".to_vec());
    sim.send(p(1), m);
    pump_replicas(&mut sim, &mut replicas, &mut cursor);
    sim.recover(p(3));
    sim.reconfigure(&procs(3));
    pump_replicas(&mut sim, &mut replicas, &mut cursor);

    sim.assert_clean();
    let reference = replicas[&p(1)].machine().clone();
    assert_eq!(reference.log.len(), 4);
    assert_eq!(replicas[&p(3)].machine(), &reference, "rejoiner must match via snapshot transfer");
}
