//! Quickstart: three processes form a group, multicast, and reconfigure.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Everything runs inside the deterministic simulator with all of the
//! paper's specification checkers enabled — if the algorithm violated
//! Virtual Synchrony, Self Delivery, Transitional Sets, or within-view
//! FIFO anywhere in this run, the program would panic with the violated
//! precondition.

use vsgm_harness::{Sim, SimOptions};
use vsgm_types::{AppMsg, Event, ProcessId};

fn main() {
    let mut sim = Sim::new_paper(3, Default::default(), SimOptions::default());

    // The membership service announces a change and then the view {p1,p2,p3}.
    let members = sim.all_procs();
    let view = sim.reconfigure(&members);
    println!("formed view {view}");

    // Multicast from every member.
    for i in 1..=3 {
        sim.send(ProcessId::new(i), AppMsg::from(format!("hello from p{i}").as_str()));
    }
    sim.run_to_quiescence();

    // Show what each application observed.
    for entry in sim.trace().application_facing() {
        match &entry.event {
            Event::GcsView { p, view, transitional } => {
                println!("[{}] {p} installed {view} T={transitional:?}", entry.time);
            }
            Event::Deliver { p, q, msg } => {
                println!("[{}] {p} delivered {msg:?} from {q}", entry.time);
            }
            _ => {}
        }
    }

    // p3 leaves; the remaining pair reconfigures in a single sync round.
    let pair = [ProcessId::new(1), ProcessId::new(2)].into_iter().collect();
    let view = sim.reconfigure(&pair);
    sim.run_to_quiescence();
    println!("reconfigured to {view}");

    // Validate the whole run against every safety specification.
    sim.assert_clean();
    println!("all specification checkers clean ✓");
}
