//! The end-point's action chooser against its reference.
//!
//! `Endpoint::step(None, …)` fires, one at a time, the first action its
//! `first_enabled` walk finds; `Endpoint::enabled_actions` lists every
//! enabled action in the same canonical order, and `Endpoint::pre` judges
//! one action at a time. The three must agree at every step:
//! `first_enabled` is `enabled_actions().first()`, found without building
//! the list, and `pre` holds for every action the list holds.
//!
//! Debug builds assert that inside that step at every firing. The default-config
//! suites (explore, chaos, the batching, stability and multigroup
//! differentials) cover the default [`Config`]; this suite drives the
//! shapes they never reach — each forwarding strategy, §9 aggregation,
//! implicit cuts, slim sync, batching, and the WV-only and WV+VS stack
//! prefixes — through randomized [`Sim`] schedules of joins, leaves,
//! cascaded changes, crash/recovery, partitions and acknowledgement rounds.
//! Every end-point sits behind [`Checked`], which also compares the whole
//! poll against a copy driven through `enabled_actions().first()` and
//! `Endpoint::fire`: the same effects and the same final state, in any
//! build profile. In two of every three schedules `Checked` also puts off
//! some polls, so several inputs land between two of them and actions
//! become enabled together that eager polling never lets coexist. (In the
//! VS stack a delivery and a view are never enabled together — the view
//! waits for the agreed cut — so a chooser that tried the view first is
//! caught by the WV-only prefix, where they are.)

use std::collections::BTreeMap;
use vsgm_core::{
    BatchConfig, Config, Effect, Endpoint, ForwardStrategyKind, GroupEndpoint, Input, Stack,
};
use vsgm_harness::sim::procs;
use vsgm_harness::{Sim, SimOptions};
use vsgm_ioa::{SimRng, SimTime};
use vsgm_obs::{Recorder, Registry};
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId, View};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// An end-point whose every poll is replayed on a copy through the
/// reference chooser and must come out the same.
#[derive(Debug)]
struct Checked {
    ep: Endpoint,
    /// Every `lazy`-th poll is put off (0: none), so inputs pile up and
    /// actions the simulator's eager polling never lets coexist are
    /// enabled together — a view and an undelivered message, say. Putting
    /// a locally controlled action off is a legal schedule.
    lazy: u64,
    calls: u64,
    polls: u64,
    /// Forwarded messages sent: proof the forwarding walk was exercised.
    forwards: u64,
}

impl Checked {
    fn new(ep: Endpoint, lazy: u64) -> Checked {
        Checked { ep, lazy, calls: 0, polls: 0, forwards: 0 }
    }

    /// Polls, and compares the poll with the reference's: effects, state
    /// and what each counted, in registries of their own.
    fn poll_checked(&mut self, out: &mut Vec<Effect>) {
        self.calls += 1;
        if self.lazy > 0 && self.calls % self.lazy == 0 {
            return;
        }
        let mut reference = self.ep.clone();
        let mut expected = Vec::new();
        let mut expected_counts = Registry::new();
        loop {
            let enabled = reference.enabled_actions();
            let pid = reference.pid();
            for action in &enabled {
                assert!(reference.pre(action), "{pid}: {action:?} is listed but `pre` is false");
            }
            let Some(action) = enabled.first() else { break };
            reference.fire(action, &mut expected_counts, &mut expected);
        }
        let mut got = Vec::new();
        let mut counts = Registry::new();
        self.ep.step(None, &mut counts, &mut got);
        let pid = self.ep.pid();
        assert_eq!(got, expected, "{pid}: poll and the reference chooser fired differently");
        assert_eq!(
            format!("{:?}", self.ep.state()),
            format!("{:?}", reference.state()),
            "{pid}: poll and the reference chooser left different states"
        );
        assert_eq!(
            format!("{counts:?}"),
            format!("{expected_counts:?}"),
            "{pid}: poll and the reference chooser counted differently"
        );
        self.polls += 1;
        self.forwards +=
            got.iter().filter(|e| matches!(e, Effect::NetSend { msg: NetMsg::Fwd(_), .. })).count()
                as u64;
        out.append(&mut got);
    }
}

impl GroupEndpoint for Checked {
    fn pid(&self) -> ProcessId {
        self.ep.pid()
    }
    fn step(&mut self, input: Option<Input>, rec: &mut dyn Recorder, out: &mut Vec<Effect>) {
        match input {
            Some(input) => self.ep.step(Some(input), rec, out),
            None => self.poll_checked(out),
        }
    }
    fn current_view(&self) -> &View {
        self.ep.current_view()
    }
    fn reconfiguring(&self) -> bool {
        self.ep.reconfiguring()
    }
    fn is_crashed(&self) -> bool {
        self.ep.is_crashed()
    }
    fn next_deadline_us(&self) -> Option<u64> {
        self.ep.next_deadline_us()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Send(u64),
    /// `start_change` + view for this member set.
    Reconfigure(Vec<u64>),
    /// A `start_change` whose view never comes: the next change cascades.
    StartChange(Vec<u64>),
    Crash(u64),
    Recover(u64),
    Partition(Vec<u64>, Vec<u64>),
    Heal,
    AckRound,
    Run,
    /// Shorter than the network's latency spread, so a fault that follows
    /// finds some copies of a multicast delivered and others in flight.
    RunForUs(u64),
}

/// A random schedule over `n` processes, membership drawn from processes
/// that are up and, under a partition, on one side of it.
fn schedule(seed: u64) -> (u64, Vec<Op>) {
    let mut rng = SimRng::new(seed).fork(0xF1E5);
    let n = rng.range(2, 6);
    let mut down: Vec<u64> = Vec::new();
    let mut sides: Option<(Vec<u64>, Vec<u64>)> = None;
    let mut ops = vec![Op::Reconfigure((1..=n).collect())];
    for _ in 0..rng.range(12, 36) {
        let up: Vec<u64> = (1..=n).filter(|q| !down.contains(q)).collect();
        let op = match rng.range(0, 100) {
            0..=39 => Op::Send(*rng.choose(&up).unwrap_or(&1)),
            40..=49 => Op::AckRound,
            50..=57 => Op::Run,
            58..=62 => Op::RunForUs(rng.range(20, 250)),
            63..=79 => {
                let pool: Vec<u64> = match &sides {
                    Some((left, right)) => if rng.chance(0.5) { left } else { right }
                        .iter()
                        .copied()
                        .filter(|q| up.contains(q))
                        .collect(),
                    None => up.clone(),
                };
                let mut members: Vec<u64> =
                    pool.iter().copied().filter(|_| rng.chance(0.7)).collect();
                if members.is_empty() {
                    members.extend(pool.first());
                }
                if members.is_empty() {
                    continue;
                }
                if rng.chance(0.25) {
                    Op::StartChange(members)
                } else {
                    Op::Reconfigure(members)
                }
            }
            80..=85 if up.len() > 1 => {
                let victim = *rng.choose(&up).unwrap_or(&1);
                down.push(victim);
                Op::Crash(victim)
            }
            86..=90 if !down.is_empty() => Op::Recover(down.swap_remove(rng.index(down.len()))),
            91..=95 if sides.is_none() && n > 2 => {
                // Settled, then multicasts that a partition isolating their
                // sender catches in flight, then a change among the rest:
                // what forwarding exists for.
                let from = *rng.choose(&up).unwrap_or(&1);
                let rest: Vec<u64> = (1..=n).filter(|q| *q != from).collect();
                sides = Some((vec![from], rest.clone()));
                ops.push(Op::Run);
                for _ in 0..3 {
                    ops.extend([Op::Send(from), Op::RunForUs(rng.range(20, 120))]);
                }
                ops.push(Op::Partition(vec![from], rest.clone()));
                Op::Reconfigure(rest.into_iter().filter(|q| up.contains(q)).collect())
            }
            _ => {
                sides = None;
                Op::Heal
            }
        };
        ops.push(op);
    }
    (n, ops)
}

/// Runs `seed`'s schedule on checked end-points under `cfg`, closing with
/// everyone up, connected and in one view. Judges the run with every spec
/// checker when `judged`. Returns how many polls were compared and how
/// many forwards they sent.
fn run(cfg: &Config, seed: u64, judged: bool) -> (u64, u64) {
    let (n, ops) = schedule(seed);
    let lazy = [0, 2, 3][seed as usize % 3];
    let eps: BTreeMap<ProcessId, Checked> =
        (1..=n).map(|i| (p(i), Checked::new(Endpoint::new(p(i), cfg.clone()), lazy))).collect();
    let mut sim = Sim::with_endpoints(
        eps,
        SimOptions { seed, check: judged, shuffle_polling: seed % 2 == 1, ..SimOptions::default() },
    );
    let set = |ids: &[u64]| ids.iter().map(|i| p(*i)).collect::<ProcSet>();
    for (k, op) in ops.iter().enumerate() {
        match op {
            Op::Send(from) => sim.send(p(*from), AppMsg::from(format!("m{k}").as_str())),
            Op::Reconfigure(members) => {
                sim.reconfigure(&set(members));
            }
            Op::StartChange(members) => sim.start_change(&set(members)),
            Op::Crash(q) => sim.crash(p(*q)),
            Op::Recover(q) => sim.recover(p(*q)),
            Op::Partition(left, right) => sim.partition(&[
                left.iter().map(|i| p(*i)).collect(),
                right.iter().map(|i| p(*i)).collect(),
            ]),
            Op::Heal => sim.heal(),
            Op::AckRound => sim.ack_round(),
            Op::Run => sim.run_to_quiescence(),
            Op::RunForUs(us) => sim.run_for(SimTime::from_micros(*us)),
        }
    }
    sim.heal();
    for q in procs(n) {
        sim.recover(q);
    }
    sim.reconfigure(&procs(n));
    for k in 0..n {
        sim.send(p(1 + k), AppMsg::from("closing"));
    }
    sim.run_to_quiescence();
    let violations = sim.finish();
    assert!(violations.is_empty(), "seed {seed} under {cfg:?}: {violations:?}\n{ops:?}");
    let eps = (1..=n).map(|i| sim.endpoint(p(i)));
    eps.fold((0, 0), |(polls, fwds), ep| (polls + ep.polls, fwds + ep.forwards))
}

/// A hundred schedules under `cfg`, every poll of every end-point
/// compared; returns how many forwards they sent.
fn hundred_schedules(cfg: Config, judged: bool) -> u64 {
    let (polls, forwards) =
        (0..100).map(|seed| run(&cfg, seed, judged)).fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    assert!(polls > 10_000, "only {polls} polls compared under {cfg:?}");
    forwards
}

#[test]
fn min_copy_forwarding_chooses_as_the_reference() {
    let cfg = Config { forward: ForwardStrategyKind::MinCopy, ..Config::default() };
    assert!(hundred_schedules(cfg, true) > 0, "no schedule made the elected holder forward");
}

#[test]
fn eager_forwarding_chooses_as_the_reference() {
    // The default strategy, under the cascades and in-flight partitions of
    // this suite's schedules.
    let cfg = Config { forward: ForwardStrategyKind::Eager, ..Config::default() };
    assert!(hundred_schedules(cfg, true) > 0, "no schedule forwarded");
}

#[test]
fn disabled_forwarding_chooses_as_the_reference() {
    // Without forwarding a change whose cut needs a forward never
    // completes; safety still holds and every poll still compares.
    let cfg = Config { forward: ForwardStrategyKind::Disabled, ..Config::default() };
    assert_eq!(hundred_schedules(cfg, true), 0);
}

#[test]
fn aggregation_chooses_as_the_reference() {
    hundred_schedules(Config { aggregation: true, ..Config::default() }, true);
}

#[test]
fn implicit_cuts_choose_as_the_reference() {
    hundred_schedules(Config { implicit_cuts: true, ..Config::default() }, true);
}

#[test]
fn slim_sync_chooses_as_the_reference() {
    hundred_schedules(Config { slim_sync: true, ..Config::default() }, true);
}

#[test]
fn batching_chooses_as_the_reference() {
    hundred_schedules(Config { batch: BatchConfig::small(), ..Config::default() }, true);
}

#[test]
fn the_wv_and_vs_stack_prefixes_choose_as_the_reference() {
    // A prefix of the chain does not meet the specs above it, so these
    // runs are compared but not judged.
    hundred_schedules(Config { stack: Stack::Wv, ..Config::default() }, false);
    hundred_schedules(Config { stack: Stack::VsTs, ..Config::default() }, false);
}
