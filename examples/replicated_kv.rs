//! A replicated key-value store: state-machine replication over the
//! totally ordered multicast layer, with Virtual Synchrony doing exactly
//! the job §4.1.2 describes — members that move together never need a
//! state exchange, and transitional sets identify who does.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```
//!
//! Each replica applies `set k=v` commands in the total order produced by
//! `vsgm-order`; because every replica applies the same sequence, the
//! stores stay identical. After a crash, the recovered replica is *not*
//! in anyone's transitional set for the merge view — the application sees
//! that and ships it a state snapshot, while the members that moved
//! together (in `T`) skip the transfer entirely.

use std::collections::BTreeMap;
use vsgm_harness::sim::procs_of;
use vsgm_harness::{Sim, SimOptions};
use vsgm_order::TotalOrder;
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId, View};

type Store = BTreeMap<String, String>;

struct Replica {
    order: TotalOrder,
    store: Store,
}

impl Replica {
    fn new(p: ProcessId) -> Self {
        Replica { order: TotalOrder::new(p), store: Store::new() }
    }

    fn apply(&mut self, cmd: &[u8]) {
        let text = String::from_utf8_lossy(cmd);
        if let Some((k, v)) = text.strip_prefix("set ").and_then(|s| s.split_once('=')) {
            self.store.insert(k.to_string(), v.to_string());
        }
    }
}

/// Pumps GCS deliveries through the replicas until no replica produces
/// further traffic, applying ordered commands to the stores.
fn pump(sim: &mut Sim, replicas: &mut BTreeMap<ProcessId, Replica>, cursor: &mut usize) {
    loop {
        sim.run_to_quiescence();
        let events: Vec<(ProcessId, ProcessId, AppMsg)> = sim.trace().entries()[*cursor..]
            .iter()
            .filter_map(|e| match &e.event {
                Event::Deliver { p, q, msg } => Some((*p, *q, msg.clone())),
                _ => None,
            })
            .collect();
        *cursor = sim.trace().len();
        if events.is_empty() {
            return;
        }
        let mut to_send = Vec::new();
        for (p, q, msg) in events {
            let replica = replicas.get_mut(&p).expect("known replica");
            let (ordered, announce) = replica.order.on_deliver(q, &msg);
            for cmd in ordered {
                replica.apply(&cmd.payload);
            }
            if let Some(a) = announce {
                to_send.push((p, a));
            }
        }
        for (p, a) in to_send {
            sim.send(p, a);
        }
    }
}

fn on_view(
    replicas: &mut BTreeMap<ProcessId, Replica>,
    view: &View,
    t_sets: &BTreeMap<ProcessId, ProcSet>,
) {
    for (p, replica) in replicas.iter_mut() {
        if view.contains(*p) {
            let t = t_sets.get(p).cloned().unwrap_or_default();
            let flushed = replica.order.on_view(view, &t);
            for cmd in flushed {
                replica.apply(&cmd.payload);
            }
        }
    }
}

fn collect_t_sets(sim: &Sim, view: &View, from: usize) -> BTreeMap<ProcessId, ProcSet> {
    sim.trace().entries()[from..]
        .iter()
        .filter_map(|e| match &e.event {
            Event::GcsView { p, view: v, transitional } if v == view => {
                Some((*p, transitional.clone()))
            }
            _ => None,
        })
        .collect()
}

fn main() {
    let mut sim = Sim::new_paper(3, Default::default(), SimOptions::default());
    let mut replicas: BTreeMap<ProcessId, Replica> =
        (1..=3).map(|i| (ProcessId::new(i), Replica::new(ProcessId::new(i)))).collect();
    let mut cursor = 0usize;

    let everyone = sim.all_procs();
    let mark = sim.trace().len();
    let view = sim.reconfigure(&everyone);
    sim.run_to_quiescence();
    let t_sets = collect_t_sets(&sim, &view, mark);
    on_view(&mut replicas, &view, &t_sets);
    println!("== replicas joined {view}");

    // Concurrent writes from different replicas: total order makes every
    // store apply them identically.
    for (i, cmd) in [(1u64, "set color=red"), (2, "set color=blue"), (3, "set shape=round")] {
        let p = ProcessId::new(i);
        let wrapped = replicas[&p].order.submit(cmd.as_bytes().to_vec());
        sim.send(p, wrapped);
    }
    pump(&mut sim, &mut replicas, &mut cursor);
    let reference = replicas[&ProcessId::new(1)].store.clone();
    for (p, r) in &replicas {
        assert_eq!(r.store, reference, "replica {p} diverged");
    }
    println!("   all stores agree: {reference:?}");

    // p3 crashes and recovers with empty state.
    sim.crash(ProcessId::new(3));
    let survivors = procs_of(&[1, 2]);
    let mark = sim.trace().len();
    let v2 = sim.reconfigure(&survivors);
    sim.run_to_quiescence();
    let t_sets = collect_t_sets(&sim, &v2, mark);
    on_view(&mut replicas, &v2, &t_sets);
    let p1 = ProcessId::new(1);
    let wrapped = replicas[&p1].order.submit(b"set size=large".to_vec());
    sim.send(p1, wrapped);
    pump(&mut sim, &mut replicas, &mut cursor);
    println!("   p3 crashed; survivors kept writing: {:?}", replicas[&p1].store);

    sim.recover(ProcessId::new(3));
    replicas.insert(ProcessId::new(3), Replica::new(ProcessId::new(3)));
    let mark = sim.trace().len();
    let v3 = sim.reconfigure(&everyone);
    sim.run_to_quiescence();
    let t_sets = collect_t_sets(&sim, &v3, mark);
    on_view(&mut replicas, &v3, &t_sets);

    // The transitional set tells p1 that p3 did NOT move with it: state
    // transfer is needed for p3 (and only p3 — this is the §4.1.2 saving).
    let t1 = &t_sets[&p1];
    println!("   merge view {v3}; p1's transitional set = {t1:?}");
    for q in v3.members() {
        if !t1.contains(q) && *q != p1 {
            let snapshot = replicas[&p1].store.clone();
            replicas.get_mut(q).expect("known replica").store = snapshot;
            println!("   state transfer: p1 -> {q} (not in T)");
        }
    }
    pump(&mut sim, &mut replicas, &mut cursor);

    let reference = replicas[&p1].store.clone();
    for (p, r) in &replicas {
        assert_eq!(r.store, reference, "replica {p} diverged after recovery");
    }
    println!("   all stores agree again: {reference:?}");

    sim.assert_clean();
    println!("all specification checkers clean ✓");
}
