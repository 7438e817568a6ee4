//! Partitions, concurrent views, transitional sets, and message
//! forwarding — the paper's partitionable semantics in action.
//!
//! ```text
//! cargo run --example partition_heal
//! ```
//!
//! Two acts:
//!
//! 1. **Concurrent views.** {p1..p4} split into {p1,p2} and {p3,p4};
//!    each side installs its own view and keeps multicasting — the
//!    service is *partitionable*. On heal, the merge view's transitional
//!    sets tell each application exactly who moved with it.
//!
//! 2. **Forwarding.** Back in a joint view, the network splits again and
//!    p4 multicasts: p3 (same side) receives it, p1/p2 do not — and then
//!    p4 crashes, so the original copies are gone forever. Virtual
//!    Synchrony still requires everyone moving to the next view to
//!    deliver the message, so p3 *forwards* it on p4's behalf (§5.2.2)
//!    before anyone may install the new view.

use vsgm_harness::sim::procs_of;
use vsgm_harness::{Sim, SimOptions};
use vsgm_types::{AppMsg, Event, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn main() {
    let mut sim = Sim::new_paper(4, Default::default(), SimOptions::default());
    let everyone = sim.all_procs();
    sim.reconfigure(&everyone);
    sim.run_to_quiescence();
    println!("== act 1: joint view {}", sim.endpoint(p(1)).current_view());

    sim.partition(&[vec![p(1), p(2)], vec![p(3), p(4)]]);
    sim.start_change_for(&procs_of(&[1, 2]), &procs_of(&[1, 2]));
    let va = sim.form_view(&procs_of(&[1, 2]));
    sim.start_change_for(&procs_of(&[3, 4]), &procs_of(&[3, 4]));
    let vb = sim.form_view(&procs_of(&[3, 4]));
    sim.run_to_quiescence();
    println!("   partitioned: side A installed {va}, side B installed {vb}");

    sim.send(p(1), AppMsg::from("A-side update"));
    sim.send(p(4), AppMsg::from("B-side update"));
    sim.run_to_quiescence();
    println!("   both sides kept multicasting (partitionable semantics)");

    sim.heal();
    let merged = sim.reconfigure(&everyone);
    sim.run_to_quiescence();
    for entry in sim.trace().application_facing() {
        if let Event::GcsView { p, view, transitional } = &entry.event {
            if view == &merged {
                println!("   {p} installed merge view with T = {transitional:?}");
            }
        }
    }

    println!("== act 2: forwarding after a crash");
    // Split inside the (new) joint view — no membership change yet.
    sim.partition(&[vec![p(3), p(4)], vec![p(1), p(2)]]);
    sim.send(p(4), AppMsg::from("only p3 got this"));
    sim.run_to_quiescence(); // p3 receives; copies to p1/p2 are parked
    sim.crash(p(4)); // parked copies dropped with the crash
    sim.heal();
    let survivors = sim.reconfigure(&procs_of(&[1, 2, 3]));
    sim.run_to_quiescence();
    let fwd = sim.net().stats().count("fwd_msg");
    println!("   survivors installed {survivors}");
    println!("   forwarded copies used to repair the gap: {fwd}");
    assert!(fwd >= 2, "p1 and p2 each needed a forwarded copy");

    sim.assert_clean();
    println!("all specification checkers clean ✓ (incl. Virtual Synchrony across the merge)");
}
