//! A small chat room where replies never appear before the message they
//! answer — causal multicast over the GCS (the `vsgm-order::causal`
//! layer), demonstrating the "FIFO as a base for stronger services"
//! layering of §4.1.1.
//!
//! ```text
//! cargo run --example causal_chat
//! ```

use std::collections::BTreeMap;
use vsgm_harness::{Sim, SimOptions};
use vsgm_order::CausalOrder;
use vsgm_types::{AppMsg, Event, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn main() {
    let mut sim = Sim::new_paper(3, Default::default(), SimOptions::default());
    sim.reconfigure(&sim.all_procs());
    sim.run_to_quiescence();
    let mut layers: BTreeMap<ProcessId, CausalOrder> =
        (1..=3).map(|i| (p(i), CausalOrder::new(p(i)))).collect();
    let mut cursor = sim.trace().len();
    let mut feeds: BTreeMap<ProcessId, Vec<String>> = BTreeMap::new();

    // Drains new GCS deliveries into the causal layers and the chat feeds.
    let drain = |sim: &mut Sim,
                 layers: &mut BTreeMap<ProcessId, CausalOrder>,
                 feeds: &mut BTreeMap<ProcessId, Vec<String>>,
                 cursor: &mut usize| {
        sim.run_to_quiescence();
        let batch: Vec<(ProcessId, ProcessId, AppMsg)> = sim.trace().entries()[*cursor..]
            .iter()
            .filter_map(|e| match &e.event {
                Event::Deliver { p, q, msg } => Some((*p, *q, msg.clone())),
                _ => None,
            })
            .collect();
        *cursor = sim.trace().len();
        for (to, from, msg) in batch {
            for d in layers.get_mut(&to).expect("member").on_deliver(from, &msg) {
                feeds.entry(to).or_default().push(format!(
                    "{}: {}",
                    d.from,
                    String::from_utf8_lossy(&d.payload)
                ));
            }
        }
    };

    // p1 asks a question.
    let q = layers[&p(1)].submit(b"anyone up for lunch?".to_vec());
    sim.send(p(1), q);
    drain(&mut sim, &mut layers, &mut feeds, &mut cursor);

    // p2, having SEEN the question, replies — the reply causally depends
    // on the question, and the layer stamps that dependency.
    let reply = layers[&p(2)].submit(b"yes! the usual place".to_vec());
    sim.send(p(2), reply);
    // Concurrently p3 says something unrelated.
    let other = layers[&p(3)].submit(b"unrelated: builds are green".to_vec());
    sim.send(p(3), other);
    drain(&mut sim, &mut layers, &mut feeds, &mut cursor);

    for (who, feed) in &feeds {
        println!("feed at {who}:");
        for line in feed {
            println!("   {line}");
        }
        let question = feed.iter().position(|l| l.contains("lunch")).expect("question shown");
        let answer = feed.iter().position(|l| l.contains("usual place")).expect("reply shown");
        assert!(question < answer, "reply surfaced before the question at {who}!");
    }
    sim.assert_clean();
    println!("causal order held at every member ✓ (and all GCS specs are clean)");
}
