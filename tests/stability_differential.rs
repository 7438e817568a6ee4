//! Stability differential (DESIGN.md §18): an end-point that drops what
//! every member of its view has acknowledged must be indistinguishable,
//! to its application, from one that retains everything.
//!
//! **(a) Differential.** Randomized [`Sim`] schedules — multicasts from
//! every member or from a single one with the rest silent, joins, leaves,
//! crash/recovery, partitions, and rounds of acknowledgements at arbitrary
//! points — are executed twice: once as generated, once with every round
//! left out. An end-point that is never told `AckDue` is the retaining
//! end-point, so the second run is the reference. Per process, the
//! `Deliver` and `GcsView` events must be byte-identical; every spec
//! checker and the Property 4.2 liveness check must be green on both; and
//! what the acknowledging run retains is bounded by what was multicast
//! since its last completed round. (The network latency is fixed, so an
//! acknowledgement in flight moves no other message's arrival time and
//! the two runs are comparable event for event.)
//!
//! **(b) The pinned race**, on a hand-driven network so every arrival is
//! scripted: a view change races a half-acknowledged prefix. `p1`
//! multicasts m1..m10 in `{1,2,3}`; `p2` delivers and acknowledges all
//! ten; `p3` holds m1..m4 when `p1` is cut off. `p2` must still hold — and
//! forward — m5..m10, and `{2,3}` must install.
//!
//! **(c) Teeth.** The same race on a network that lies: every
//! acknowledgement reaches its receiver as the pointwise *maximum* of all
//! it has seen, from every peer — an end-point dropping at the max
//! acknowledgement instead of the min. `p2` then drops m5..m10, nobody
//! can forward them, and `{2,3}` never installs: (b) fails, so (b) can.

use std::collections::{BTreeMap, VecDeque};
use vsgm_core::{Config, Endpoint, Hosted, Input};
use vsgm_harness::sim::procs;
use vsgm_harness::{Sim, SimOptions};
use vsgm_ioa::{SimRng, SimTime, Trace};
use vsgm_net::LatencyModel;
use vsgm_obs::{NoopRecorder, Recorder};
use vsgm_spec::LivenessSpec;
use vsgm_types::{AppMsg, Cut, Event, NetMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

// ----- (a) the differential -------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Send(u64),
    /// `start_change` + view for this member set.
    Reconfigure(Vec<u64>),
    Crash(u64),
    Recover(u64),
    Partition(Vec<u64>, Vec<u64>),
    Heal,
    AckRound,
    Run,
    RunForMs(u64),
}

/// A random legal schedule over `n` processes. Membership is drawn the
/// way a membership service would: from processes that are up and, under
/// a partition, on one side of it.
fn schedule(seed: u64) -> (u64, Vec<Op>) {
    let mut rng = SimRng::new(seed).fork(0x57AB);
    let n = rng.range(2, 6);
    // A third of the schedules have one sender and n−1 silent receivers.
    let only_sender = rng.chance(0.34).then(|| rng.range(1, n + 1));
    let mut down: Vec<u64> = Vec::new();
    let mut sides: Option<(Vec<u64>, Vec<u64>)> = None;
    let mut ops = vec![Op::Reconfigure((1..=n).collect())];
    for _ in 0..rng.range(12, 40) {
        let up: Vec<u64> = (1..=n).filter(|q| !down.contains(q)).collect();
        let op = match rng.range(0, 100) {
            0..=44 => {
                let from = only_sender.unwrap_or_else(|| *rng.choose(&up).unwrap_or(&1));
                Op::Send(from)
            }
            45..=59 => Op::AckRound,
            60..=67 => Op::Run,
            68..=72 => Op::RunForMs(rng.range(1, 4)),
            73..=82 => {
                // A join or a leave: a random non-empty subset of one side.
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
                Op::Reconfigure(members)
            }
            83..=87 if up.len() > 1 => {
                let victim = *rng.choose(&up).unwrap_or(&1);
                down.push(victim);
                Op::Crash(victim)
            }
            88..=92 if !down.is_empty() => Op::Recover(down.swap_remove(rng.index(down.len()))),
            93..=96 if sides.is_none() && n > 2 => {
                let cut = rng.range(1, n);
                let (left, right): (Vec<u64>, Vec<u64>) = (1..=n).partition(|q| *q <= cut);
                sides = Some((left.clone(), right.clone()));
                Op::Partition(left, right)
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

/// What one run showed: per process, its `Deliver` and `GcsView` events as
/// JSON lines; and how many slots its end-points retained, in their
/// current views, at three points of the closing phase.
#[derive(Debug)]
struct Observed {
    app_events: BTreeMap<ProcessId, String>,
    retained: [usize; 3],
}

fn retained_in_current_views(sim: &Sim) -> usize {
    sim.all_procs()
        .iter()
        .map(|q| {
            let st = sim.endpoint(*q).state();
            st.current_view
                .members()
                .iter()
                .filter_map(|origin| st.buf(*origin, &st.current_view))
                .map(|buf| buf.retained())
                .sum::<usize>()
        })
        .sum()
}

/// Multicasts sent while closing a run: `PROBES` before the last round of
/// acknowledgements and `PROBES` after it.
const PROBES: usize = 5;

fn run(seed: u64, with_acks: bool) -> Observed {
    let (n, ops) = schedule(seed);
    let mut sim = Sim::new_paper(
        n as usize,
        Config::default(),
        SimOptions {
            seed,
            latency: LatencyModel::Fixed(SimTime::from_micros(100)),
            check: true,
            shuffle_polling: false,
        },
    );
    let set = |ids: &[u64]| ids.iter().map(|i| p(*i)).collect::<ProcSet>();
    let mut msg_no = 0;
    let mut send = |sim: &mut Sim, from: u64| {
        msg_no += 1;
        sim.send(p(from), AppMsg::from(format!("m{msg_no}-from-p{from}").as_str()));
    };
    for op in &ops {
        match op {
            Op::Send(from) => send(&mut sim, *from),
            Op::Reconfigure(members) => {
                sim.reconfigure(&set(members));
            }
            Op::Crash(q) => sim.crash(p(*q)),
            Op::Recover(q) => sim.recover(p(*q)),
            Op::Partition(left, right) => sim.partition(&[
                left.iter().map(|i| p(*i)).collect(),
                right.iter().map(|i| p(*i)).collect(),
            ]),
            Op::Heal => sim.heal(),
            Op::AckRound if with_acks => sim.ack_round(),
            Op::AckRound => {}
            Op::Run => sim.run_to_quiescence(),
            Op::RunForMs(ms) => sim.run_for(SimTime::from_millis(*ms)),
        }
    }
    // Close the run as the chaos runner does: everyone up and connected,
    // one full view, quiescence — from here Property 4.2 is checkable.
    sim.heal();
    for q in procs(n) {
        sim.recover(q);
    }
    let last = sim.reconfigure(&procs(n));
    sim.run_to_quiescence();
    let mut retained = [0; 3];
    for (phase, slot) in retained.iter_mut().enumerate() {
        if phase > 0 {
            for k in 0..PROBES {
                send(&mut sim, 1 + k as u64 % n);
            }
            sim.run_to_quiescence();
        }
        if phase == 1 && with_acks {
            sim.ack_round();
            sim.run_to_quiescence();
        }
        *slot = retained_in_current_views(&sim);
    }
    sim.add_checker(LivenessSpec::new(last));
    let violations = sim.finish();
    assert!(violations.is_empty(), "seed {seed}, acks {with_acks}: {violations:?}");

    let mut per_process: BTreeMap<ProcessId, Trace> = BTreeMap::new();
    for entry in sim.trace().entries() {
        if let Event::Deliver { p, .. } | Event::GcsView { p, .. } = &entry.event {
            per_process.entry(*p).or_default().record(SimTime::ZERO, entry.event.clone());
        }
    }
    Observed {
        app_events: per_process.into_iter().map(|(q, t)| (q, t.to_json_lines())).collect(),
        retained,
    }
}

#[test]
fn sixty_schedules_with_and_without_acknowledgements_deliver_identically() {
    let mut with_rounds = 0;
    for seed in 0..60 {
        let (n, ops) = schedule(seed);
        let acking = run(seed, true);
        let retaining = run(seed, false);
        assert!(!acking.app_events.is_empty(), "seed {seed}: nothing to compare");
        for (q, events) in &retaining.app_events {
            assert_eq!(
                acking.app_events.get(q),
                Some(events),
                "seed {seed}: {q} saw different deliveries or views with acknowledgements\n{ops:?}"
            );
        }
        assert_eq!(acking.app_events.len(), retaining.app_events.len(), "seed {seed}");
        // The reference retains every multicast of the closing view, at
        // each of the n members.
        let [before, after_first, after_second] = retaining.retained;
        assert_eq!(after_first, before + PROBES * n as usize, "seed {seed}");
        assert_eq!(after_second, after_first + PROBES * n as usize, "seed {seed}");
        // A completed round leaves nothing; after it, exactly what was
        // multicast since.
        let [_, after_round, since_round] = acking.retained;
        assert_eq!(after_round, 0, "seed {seed}: a completed round leaves nothing retained");
        assert_eq!(since_round, PROBES * n as usize, "seed {seed}");
        with_rounds += usize::from(ops.iter().any(|op| matches!(op, Op::AckRound)));
    }
    assert!(with_rounds >= 50, "only {with_rounds} schedules drew a round mid-run");
}

// ----- (b), (c) the pinned race ------------------------------------------

/// Three hosted end-points on hand-delivered FIFO channels.
struct Wire {
    eps: BTreeMap<ProcessId, Hosted>,
    chan: BTreeMap<(ProcessId, ProcessId), VecDeque<NetMsg>>,
    delivered: BTreeMap<ProcessId, Vec<AppMsg>>,
    installed: BTreeMap<ProcessId, View>,
    /// Forwarded-message sends per sender.
    forwards: BTreeMap<ProcessId, u64>,
    /// The mutant: per receiver, the pointwise maximum of every
    /// acknowledgement that has reached it. `None` = an honest network.
    max_seen: Option<BTreeMap<ProcessId, Cut>>,
}

impl Wire {
    fn new(max_mutant: bool) -> Wire {
        Wire {
            eps: (1..=3)
                .map(|i| (p(i), Hosted::new(Endpoint::new(p(i), Config::default()))))
                .collect(),
            chan: BTreeMap::new(),
            delivered: BTreeMap::new(),
            installed: BTreeMap::new(),
            forwards: BTreeMap::new(),
            max_seen: max_mutant.then(BTreeMap::new),
        }
    }

    fn ep(&self, q: ProcessId) -> &Endpoint {
        self.eps[&q].ep()
    }

    /// Feeds `input` to `q` and polls it until it is quiescent: a poll
    /// that acknowledges a block enables what waited for `block_ok`.
    fn input(&mut self, q: ProcessId, input: Input) {
        let Wire { eps, chan, delivered, installed, forwards, .. } = self;
        let host = eps.get_mut(&q).expect("known proc");
        let mut sink = |event: Event, _: &mut dyn Recorder| match event {
            Event::NetSend { p: from, set, msg } => {
                if matches!(msg, NetMsg::Fwd(_)) {
                    *forwards.entry(from).or_default() += 1;
                }
                for to in set.into_iter().filter(|to| *to != from) {
                    chan.entry((from, to)).or_default().push_back(msg.clone());
                }
            }
            Event::Deliver { p, msg, .. } => delivered.entry(p).or_default().push(msg),
            Event::GcsView { p, view, .. } => {
                installed.insert(p, view);
            }
            _ => {}
        };
        host.input(input, &mut NoopRecorder, &mut sink);
        while host.poll(&mut NoopRecorder, &mut sink) {}
    }

    /// Delivers up to `count` messages waiting on `from → to`.
    fn deliver(&mut self, from: u64, to: u64, count: usize) {
        let (from, to) = (p(from), p(to));
        for _ in 0..count {
            let Some(msg) = self.chan.get_mut(&(from, to)).and_then(VecDeque::pop_front) else {
                return;
            };
            match (msg, &mut self.max_seen) {
                (NetMsg::Ack(cut), Some(max_seen)) => {
                    let max = max_seen.entry(to).or_default();
                    max.join(&cut);
                    let lie = NetMsg::Ack(max.clone());
                    let peers: Vec<ProcessId> = self
                        .ep(to)
                        .current_view()
                        .members()
                        .iter()
                        .copied()
                        .filter(|q| *q != to)
                        .collect();
                    for peer in peers {
                        self.input(to, Input::Net { from: peer, msg: lie.clone() });
                    }
                }
                (msg, _) => self.input(to, Input::Net { from, msg }),
            }
        }
    }

    /// Delivers everything in flight among `among`, to quiescence.
    fn settle(&mut self, among: &[u64]) {
        while let Some((from, to)) = self
            .chan
            .iter()
            .find(|((from, to), q)| {
                !q.is_empty() && among.contains(&from.raw()) && among.contains(&to.raw())
            })
            .map(|(pair, _)| *pair)
        {
            self.deliver(from.raw(), to.raw(), 1);
        }
    }

    fn change(&mut self, epoch: u64, members: &[u64]) -> View {
        let set: ProcSet = members.iter().map(|i| p(*i)).collect();
        let cid = StartChangeId::new(epoch);
        let view = View::new(ViewId::new(epoch, 0), set.clone(), set.iter().map(|m| (*m, cid)));
        for m in &set {
            self.input(*m, Input::StartChange { cid, set: set.clone() });
        }
        for m in &set {
            self.input(*m, Input::MbrshpView(view.clone()));
        }
        self.settle(members);
        view
    }
}

/// What the race ended in.
struct RaceOutcome {
    /// The view `{2,3}`, and who installed it.
    survivors_view: View,
    installed_by: Vec<ProcessId>,
    /// How many of p1's ten messages p3 delivered.
    p3_delivered: usize,
    p2_forwards: u64,
}

fn half_acknowledged_prefix_races_a_view_change(max_mutant: bool) -> RaceOutcome {
    let mut w = Wire::new(max_mutant);
    let all = w.change(1, &[1, 2, 3]);
    assert!(w.installed.values().all(|v| *v == all) && w.installed.len() == 3);
    // p1 multicasts m1..m10; p2 gets all ten, p3 the first four.
    for k in 1..=10 {
        w.input(p(1), Input::AppSend(AppMsg::from(format!("m{k}").as_str())));
    }
    w.deliver(1, 2, 10);
    w.deliver(1, 3, 4);
    // A round of acknowledgements. p1's reaches p2 but not p3: it waits
    // behind m5..m10 on the same FIFO channel.
    for q in 1..=3 {
        w.input(p(q), Input::AckDue);
    }
    for (from, to) in [(1, 2), (3, 2), (2, 3), (2, 1), (3, 1)] {
        w.deliver(from, to, 1);
    }
    let p2 = w.ep(p(2)).state();
    assert_eq!(p2.stability.as_ref().map(|s| s.announced.get(&p(1))), Some(Some(&10)));
    // p1 is cut off: what it still had in flight is lost.
    w.chan.retain(|(from, to), _| *from != p(1) && *to != p(1));
    let survivors_view = w.change(2, &[2, 3]);
    RaceOutcome {
        installed_by: w
            .installed
            .iter()
            .filter(|(_, v)| **v == survivors_view)
            .map(|(q, _)| *q)
            .collect(),
        survivors_view,
        p3_delivered: w.delivered.get(&p(3)).map_or(0, Vec::len),
        p2_forwards: w.forwards.get(&p(2)).copied().unwrap_or(0),
    }
}

#[test]
fn a_view_change_racing_a_half_acknowledged_prefix_still_forwards_and_installs() {
    let race = half_acknowledged_prefix_races_a_view_change(false);
    assert_eq!(race.p2_forwards, 6, "p2 forwards m5..m10, which p3 never acknowledged");
    assert_eq!(race.p3_delivered, 10);
    assert_eq!(race.installed_by, [p(2), p(3)], "{}", race.survivors_view);
}

#[test]
fn dropping_at_the_max_acknowledgement_instead_of_the_min_loses_the_race() {
    let race = half_acknowledged_prefix_races_a_view_change(true);
    // p2 heard "everyone delivered ten" and dropped m5..m10: it has
    // nothing to forward, p3 stays at m4 short of the agreed cut, and the
    // view cannot install.
    assert_eq!(race.p2_forwards, 0);
    assert_eq!(race.p3_delivered, 4);
    assert!(!race.installed_by.contains(&p(3)), "{:?}", race.installed_by);
}
