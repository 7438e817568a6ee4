//! Differential conformance suite for endpoint-level batching: a batched
//! endpoint must be *observationally equivalent* to the unbatched one.
//!
//! Each randomized schedule is executed twice — once with batching off
//! and once with a batched configuration — and the application-facing
//! projections of the two traces are compared:
//!
//! * per-(receiver, sender) delivered payload sequences must be
//!   byte-identical (batching repacks frames; it must never reorder,
//!   drop, or duplicate a message), and
//! * per-receiver view installation sequences (view + transitional set)
//!   must be identical (the forced pre-cut flush keeps Fig. 10's
//!   synchronization semantics untouched).
//!
//! Both arms additionally run under the full spec-checker oracle
//! (`check: true`), so WV_RFIFO / VS_RFIFO / SELF / CO_RFIFO judge every
//! schedule directly. A proptest block then sweeps the batch-boundary
//! space (count limit, byte budget, linger) for the no-reorder /
//! no-drop / no-duplicate guarantee in a stable view.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vsgm_core::{BatchConfig, Config};
use vsgm_harness::{Sim, SimOptions};
use vsgm_ioa::SimTime;
use vsgm_net::LatencyModel;
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId, View};

/// One schedule operation (deliberately fault-free: with no loss, the
/// two arms must agree *exactly*, not just up to the spec envelope).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Process multicasts a payload unique to (sender, counter).
    Send(u64),
    /// Full-group reconfiguration — when it lands right after sends it
    /// races the view change against a half-full batch.
    Reconfigure,
    /// Let simulated time pass (linger deadlines fire, arrivals land).
    RunForMs(u64),
    /// Drain to quiescence.
    Run,
}

/// splitmix64 — deterministic schedule generator without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generates a randomized schedule for `n` processes. Every schedule
/// contains at least one send–send–reconfigure run with no time passing
/// in between, so a view change races a half-full batch in the batched
/// arm (the linger deadline cannot have fired yet).
fn gen_schedule(seed: u64, n: u64) -> Vec<Op> {
    let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(seed | 1));
    let mut ops = Vec::new();
    let len = 10 + rng.below(12);
    for _ in 0..len {
        ops.push(match rng.below(10) {
            0..=5 => Op::Send(1 + rng.below(n)),
            6 => Op::Reconfigure,
            7 | 8 => Op::RunForMs(1 + rng.below(4)),
            _ => Op::Run,
        });
    }
    // The guaranteed race: two back-to-back sends immediately followed by
    // a reconfigure, inserted at a random position.
    let at = (rng.below(ops.len() as u64)) as usize;
    ops.splice(at..at, [Op::Send(1 + rng.below(n)), Op::Send(1 + rng.below(n)), Op::Reconfigure]);
    ops.push(Op::Run);
    ops
}

/// The application-facing projection of one arm's trace.
#[derive(Debug, PartialEq)]
struct AppTrace {
    /// `(receiver, sender)` → delivered payloads, in delivery order.
    channels: BTreeMap<(ProcessId, ProcessId), Vec<AppMsg>>,
    /// receiver → installed views with their transitional sets, in order.
    views: BTreeMap<ProcessId, Vec<(View, ProcSet)>>,
}

/// Runs `ops` under the full oracle with the given batch configuration
/// and returns the application-facing projection.
fn run_arm(seed: u64, n: u64, ops: &[Op], batch: BatchConfig) -> AppTrace {
    let arm = if batch.enabled() { "batched" } else { "unbatched" };
    let mut sim = Sim::new_paper(
        n as usize,
        Config { batch, ..Config::default() },
        SimOptions { seed, latency: LatencyModel::lan(), check: true, shuffle_polling: true },
    );
    let all: ProcSet = (1..=n).map(ProcessId::new).collect();
    sim.reconfigure(&all);
    let mut msg_no = 0u64;
    for op in ops {
        match op {
            Op::Send(p) => {
                msg_no += 1;
                sim.send(ProcessId::new(*p), AppMsg::from(format!("s{p}-m{msg_no}").as_str()));
            }
            Op::Reconfigure => {
                sim.reconfigure(&all);
            }
            Op::RunForMs(ms) => sim.run_for(SimTime::from_millis(*ms)),
            Op::Run => sim.run_to_quiescence(),
        }
        sim.assert_paper_invariants();
    }
    sim.run_to_quiescence();
    sim.assert_paper_invariants();
    let violations = sim.finish();
    assert!(violations.is_empty(), "seed {seed} ({arm} arm): {violations:?}\nops: {ops:?}");
    let mut channels: BTreeMap<(ProcessId, ProcessId), Vec<AppMsg>> = BTreeMap::new();
    let mut views: BTreeMap<ProcessId, Vec<(View, ProcSet)>> = BTreeMap::new();
    for e in sim.trace().entries() {
        match &e.event {
            Event::Deliver { p, q, msg } => {
                channels.entry((*p, *q)).or_default().push(msg.clone());
            }
            Event::GcsView { p, view, transitional } => {
                views.entry(*p).or_default().push((view.clone(), transitional.clone()));
            }
            _ => {}
        }
    }
    AppTrace { channels, views }
}

fn assert_arms_agree(seed: u64, n: u64, ops: &[Op], batch: BatchConfig) {
    let unbatched = run_arm(seed, n, ops, BatchConfig::off());
    let batched = run_arm(seed, n, ops, batch.clone());
    assert_eq!(
        unbatched.channels, batched.channels,
        "seed {seed}: delivery traces diverged under {batch:?}\nops: {ops:?}"
    );
    assert_eq!(
        unbatched.views, batched.views,
        "seed {seed}: view sequences diverged under {batch:?}\nops: {ops:?}"
    );
}

#[test]
fn fifty_randomized_schedules_are_batching_invariant() {
    // ≥ 50 randomized schedules, alternating the batched arm between the
    // small (short linger) and large (count-dominated) presets, across
    // group sizes 3..=5. Every schedule embeds a view change racing a
    // half-full batch (see `gen_schedule`).
    for seed in 0..50u64 {
        let n = 3 + seed % 3;
        let ops = gen_schedule(seed, n);
        let batch = if seed % 2 == 0 { BatchConfig::small() } else { BatchConfig::large() };
        assert_arms_agree(seed, n, &ops, batch);
    }
}

#[test]
fn view_change_racing_a_half_full_batch_is_equivalent() {
    // Pinned worst case: an effectively infinite linger, so the batch can
    // *only* be released by the view change's forced pre-cut flush. The
    // batched arm still must deliver exactly what the unbatched arm does,
    // in the same views.
    let ops =
        vec![Op::Send(1), Op::Send(1), Op::Send(2), Op::Reconfigure, Op::Run, Op::Send(3), Op::Run];
    let held_forever = BatchConfig { max_msgs: 64, max_bytes: 64 * 1024, linger_us: u64::MAX / 2 };
    assert_arms_agree(0xBA7C, 3, &ops, held_forever);
}

#[test]
fn schedules_exercise_every_flush_cause() {
    // Sanity on the suite itself: across the 50 schedules the batched
    // arms must hit count-, linger-, and view-change-triggered flushes
    // (otherwise the differential claim is weaker than advertised).
    // Count flushes via the obs registry of a few targeted schedules.
    use vsgm_obs::names;
    let flush_counts = |ops: &[Op], batch: BatchConfig| -> (u64, u64, u64) {
        let mut sim = Sim::new_paper(
            3,
            Config { batch, ..Config::default() },
            SimOptions {
                seed: 1,
                latency: LatencyModel::lan(),
                check: true,
                shuffle_polling: true,
            },
        );
        sim.enable_obs();
        let all: ProcSet = (1..=3).map(ProcessId::new).collect();
        sim.reconfigure(&all);
        let mut msg_no = 0u64;
        for op in ops {
            match op {
                Op::Send(p) => {
                    msg_no += 1;
                    sim.send(ProcessId::new(*p), AppMsg::from(format!("f{msg_no}").as_str()));
                }
                Op::Reconfigure => {
                    sim.reconfigure(&all);
                }
                Op::RunForMs(ms) => sim.run_for(SimTime::from_millis(*ms)),
                Op::Run => sim.run_to_quiescence(),
            }
        }
        sim.run_to_quiescence();
        assert!(sim.finish().is_empty());
        let reg = sim.take_obs().expect("obs enabled");
        (
            reg.counter(names::EP_BATCH_FLUSH_COUNT),
            reg.counter(names::EP_BATCH_FLUSH_LINGER),
            reg.counter(names::EP_BATCH_FLUSH_VIEW_CHANGE),
        )
    };
    // Count: nine sends against max_msgs = 2 with a long linger.
    let long = BatchConfig { max_msgs: 2, max_bytes: 64 * 1024, linger_us: 1_000_000 };
    let (count, _, _) = flush_counts(&[Op::Send(1); 9], long.clone());
    assert!(count >= 1, "no count-triggered flush");
    // Linger: a single send, then time passes.
    let (_, linger, _) =
        flush_counts(&[Op::Send(1), Op::RunForMs(5), Op::Run], BatchConfig::large());
    assert!(linger >= 1, "no linger-triggered flush");
    // View change: sends immediately followed by a reconfigure, with a
    // linger too long to fire first.
    let (_, _, vc) = flush_counts(&[Op::Send(1), Op::Reconfigure], long);
    assert!(vc >= 1, "no view-change-triggered flush");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Batch-boundary sweep: arbitrary count limits, byte budgets, and
    /// linger values must never reorder, drop, or duplicate a message in
    /// a stable view — checked both by the spec oracle (WV_RFIFO /
    /// VS_RFIFO / SELF run with `check: true`) and by direct per-channel
    /// sequence comparison against the send order.
    #[test]
    fn flush_boundaries_never_reorder_drop_or_duplicate(
        seed in 0u64..1000,
        max_msgs in 1u64..10,
        max_bytes in 1usize..256,
        linger_us in 0u64..2000,
        sends in prop::collection::vec(1u64..4, 1..24),
        pause_every in 1usize..8,
    ) {
        let n = 3u64;
        let batch = BatchConfig { max_msgs, max_bytes, linger_us };
        let mut sim = Sim::new_paper(
            n as usize,
            Config { batch, ..Config::default() },
            SimOptions { seed, latency: LatencyModel::lan(), check: true, shuffle_polling: true },
        );
        let all: ProcSet = (1..=n).map(ProcessId::new).collect();
        sim.reconfigure(&all);
        sim.run_to_quiescence();
        let mut sent: BTreeMap<ProcessId, Vec<AppMsg>> = BTreeMap::new();
        for (i, p) in sends.iter().enumerate() {
            let p = ProcessId::new(*p);
            let msg = AppMsg::from(format!("s{p:?}-{i}").as_str());
            sent.entry(p).or_default().push(msg.clone());
            sim.send(p, msg);
            if (i + 1) % pause_every == 0 {
                sim.run_for(SimTime::from_millis(1));
            }
        }
        sim.run_to_quiescence();
        sim.assert_paper_invariants();
        let violations = sim.finish();
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Exactly one delivery per (message, group member) — self
        // included — in send order per channel.
        let mut channels: BTreeMap<(ProcessId, ProcessId), Vec<AppMsg>> = BTreeMap::new();
        for e in sim.trace().entries() {
            if let Event::Deliver { p, q, msg } = &e.event {
                channels.entry((*p, *q)).or_default().push(msg.clone());
            }
        }
        for r in 1..=n {
            let r = ProcessId::new(r);
            for (s, msgs) in &sent {
                let got = channels.get(&(r, *s)).cloned().unwrap_or_default();
                prop_assert_eq!(
                    &got, msgs,
                    "receiver {:?} / sender {:?}: delivered ≠ sent", r, s
                );
            }
        }
    }
}
