//! Mechanical audit of the paper's proof invariants (§6–§7): assert every
//! numbered invariant on *every reachable global state* of simulated
//! executions — after each network-delivery step, not just at the end.
//! The local invariants are the audit's checks, so the random scenarios
//! judge that one predicate under every `Config` shape.

use proptest::prelude::*;
use vsgm_core::{BatchConfig, Config, ForwardStrategyKind, Stack};
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_types::{AppMsg, ProcessId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// Runs to quiescence, asserting the invariants after every delivery
/// batch (i.e. in every distinct reachable quiescent-per-step state).
fn run_checked(sim: &mut Sim) {
    sim.assert_paper_invariants();
    loop {
        if !sim.deliver_next() {
            return;
        }
        sim.assert_paper_invariants();
    }
}

#[test]
fn invariants_hold_through_clean_reconfigurations() {
    for seed in 0..10 {
        let mut sim =
            Sim::new_paper(4, Config::default(), SimOptions { seed, ..Default::default() });
        sim.reconfigure(&procs(4));
        run_checked(&mut sim);
        for i in 1..=4 {
            sim.send(p(i), AppMsg::from(format!("{i}").as_str()));
        }
        run_checked(&mut sim);
        sim.reconfigure(&procs_of(&[1, 2]));
        run_checked(&mut sim);
        sim.assert_clean();
    }
}

#[test]
fn invariants_hold_through_partitions_and_crashes() {
    for seed in 0..6 {
        let mut sim =
            Sim::new_paper(4, Config::default(), SimOptions { seed, ..Default::default() });
        sim.reconfigure(&procs(4));
        run_checked(&mut sim);
        sim.partition(&[vec![p(1), p(2)], vec![p(3), p(4)]]);
        sim.send(p(3), AppMsg::from("b-side"));
        run_checked(&mut sim);
        sim.crash(p(4));
        sim.heal();
        sim.reconfigure(&procs_of(&[1, 2, 3]));
        run_checked(&mut sim);
        sim.recover(p(4));
        sim.reconfigure(&procs(4));
        run_checked(&mut sim);
        sim.assert_clean();
    }
}

#[test]
fn invariants_hold_through_cascades() {
    let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
    sim.reconfigure(&procs(3));
    run_checked(&mut sim);
    sim.start_change(&procs(3));
    run_checked(&mut sim);
    sim.start_change(&procs(2));
    run_checked(&mut sim);
    sim.start_change(&procs(3));
    run_checked(&mut sim);
    sim.form_view(&procs(3));
    run_checked(&mut sim);
    sim.assert_clean();
}

/// The `Config` shapes the predicate must accept every legal state of:
/// each forwarding strategy, each optimization, the audit itself, and
/// the two layer prefixes.
fn shape(k: u8) -> Config {
    let base = Config::default();
    match k {
        0 => base,
        1 => Config { forward: ForwardStrategyKind::MinCopy, ..base },
        2 => Config { forward: ForwardStrategyKind::Disabled, ..base },
        3 => Config { aggregation: true, ..base },
        4 => Config { implicit_cuts: true, audit: true, ..base },
        5 => Config { slim_sync: true, batch: BatchConfig::small(), ..base },
        6 => Config { stack: Stack::Wv, ..base },
        _ => Config { stack: Stack::VsTs, ..base },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn invariants_hold_under_random_scenarios(
        seed in 0u64..500,
        sends in prop::collection::vec(0u64..4, 0..10),
        shrink_mask in 1u8..15,
        shape_id in 0u8..8,
    ) {
        let cfg = shape(shape_id);
        let full_stack = cfg.stack == Stack::Full;
        let mut sim = Sim::new_paper(4, cfg, SimOptions { seed, ..Default::default() });
        sim.reconfigure(&procs(4));
        run_checked(&mut sim);
        for s in &sends {
            sim.send(p(1 + s % 4), AppMsg::from("w"));
        }
        run_checked(&mut sim);
        let members: Vec<u64> =
            (0..4u64).filter(|i| shrink_mask & (1 << i) != 0).map(|i| i + 1).collect();
        sim.reconfigure(&procs_of(&members));
        run_checked(&mut sim);
        sim.reconfigure(&procs(4));
        run_checked(&mut sim);
        // The layer prefixes satisfy only a prefix of the spec suite; the
        // predicate above still judged every state they reached.
        if full_stack {
            sim.assert_clean();
        }
    }
}
