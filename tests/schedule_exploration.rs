//! Fine-grained schedule exploration.
//!
//! The deterministic harness fires each endpoint's actions in canonical
//! order; here we drive the composed system one *randomly chosen* enabled
//! action at a time — endpoint transitions interleaved with per-channel
//! network deliveries in arbitrary orders — and replay every resulting
//! trace against the safety specs. This is the executable analogue of
//! quantifying over all fair executions in the paper's proofs.

use std::collections::{BTreeMap, VecDeque};
use vsgm_core::{Config, Endpoint, Hosted, Input, Sink};
use vsgm_ioa::{CheckSet, SimRng, SimTime, Trace};
use vsgm_obs::{NoopRecorder, Recorder};
use vsgm_types::{AppMsg, Event, NetMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

struct Composition {
    eps: BTreeMap<ProcessId, Hosted>,
    channels: BTreeMap<(ProcessId, ProcessId), VecDeque<NetMsg>>,
    trace: Trace,
    rng: SimRng,
}

impl Composition {
    fn new(n: u64, seed: u64) -> Self {
        Composition {
            eps: (1..=n)
                .map(|i| {
                    let p = ProcessId::new(i);
                    (p, Hosted::new(Endpoint::new(p, Config::default())))
                })
                .collect(),
            channels: BTreeMap::new(),
            trace: Trace::new(),
            rng: SimRng::new(seed),
        }
    }

    fn record(&mut self, e: Event) {
        self.trace.record(SimTime::ZERO, e);
    }

    /// Runs `call` on `p`'s hosted end-point: every event it emits is
    /// recorded, and a `NetSend` is queued on each channel it names.
    fn step<R>(
        &mut self,
        p: ProcessId,
        call: impl FnOnce(&mut Hosted, &mut dyn Recorder, &mut Sink<'_>) -> R,
    ) -> R {
        let Composition { eps, channels, trace, .. } = self;
        call(eps.get_mut(&p).unwrap(), &mut NoopRecorder, &mut |event, _| {
            if let Event::NetSend { p, set, msg } = &event {
                for dest in set.iter().filter(|q| *q != p) {
                    channels.entry((*p, *dest)).or_default().push_back(msg.clone());
                }
            }
            trace.record(SimTime::ZERO, event);
        })
    }

    fn input(&mut self, p: ProcessId, event: Event, input: Input) {
        self.record(event);
        self.step(p, |h, rec, out| h.input(input, rec, out));
    }

    /// Fires one randomly chosen enabled step (an endpoint action or a
    /// channel-head delivery). Returns false when fully quiescent.
    fn random_step(&mut self) -> bool {
        // Enumerate choices: (endpoint, action index) and nonempty channels.
        let mut choices: Vec<(u8, ProcessId, ProcessId, usize)> = Vec::new();
        for (p, host) in &self.eps {
            for i in 0..host.ep().enabled_actions().len() {
                choices.push((0, *p, *p, i));
            }
        }
        for ((from, to), chan) in &self.channels {
            if !chan.is_empty() {
                choices.push((1, *from, *to, 0));
            }
        }
        if choices.is_empty() {
            return false;
        }
        let (kind, a, b, idx) = choices[self.rng.index(choices.len())];
        match kind {
            0 => {
                // No inputs occurred since enumeration, so the set is
                // stable.
                let action = self.eps[&a].ep().enabled_actions()[idx].clone();
                self.step(a, |h, rec, out| h.fire(&action, rec, out));
            }
            _ => {
                let msg = self.channels.get_mut(&(a, b)).unwrap().pop_front().unwrap();
                self.record(Event::NetDeliver { p: a, q: b, msg: msg.clone() });
                self.step(b, |h, rec, out| h.input(Input::Net { from: a, msg }, rec, out));
            }
        }
        true
    }

    fn run_random(&mut self, max_steps: usize) {
        for _ in 0..max_steps {
            if !self.random_step() {
                return;
            }
        }
        panic!("composition did not quiesce within {max_steps} steps");
    }

    fn membership(&mut self, members: &[u64], epoch: u64, cid: u64) -> View {
        let set: ProcSet = members.iter().map(|&i| ProcessId::new(i)).collect();
        for &m in members {
            let p = ProcessId::new(m);
            self.input(
                p,
                Event::MbrshpStartChange { p, cid: StartChangeId::new(cid), set: set.clone() },
                Input::StartChange { cid: StartChangeId::new(cid), set: set.clone() },
            );
            // Random interleaving between notifications too.
            for _ in 0..self.rng.range(0, 5) {
                self.random_step();
            }
        }
        let view = View::new(
            ViewId::new(epoch, 0),
            set.iter().copied(),
            set.iter().map(|m| (*m, StartChangeId::new(cid))),
        );
        for &m in members {
            let p = ProcessId::new(m);
            self.input(
                p,
                Event::MbrshpView { p, view: view.clone() },
                Input::MbrshpView(view.clone()),
            );
            for _ in 0..self.rng.range(0, 5) {
                self.random_step();
            }
        }
        view
    }

    fn send(&mut self, i: u64, text: &str) {
        // A blocked client holds the send back until its next view.
        self.step(ProcessId::new(i), |h, rec, out| {
            h.send(AppMsg::from(text), rec, out);
        });
    }
}

fn explore(seed: u64) {
    let mut comp = Composition::new(3, seed);
    comp.membership(&[1, 2, 3], 1, 1);
    comp.run_random(100_000);
    comp.send(1, "a1");
    comp.send(2, "b1");
    comp.run_random(100_000);
    comp.membership(&[1, 2], 2, 2);
    comp.run_random(100_000);
    comp.send(2, "b2");
    comp.run_random(100_000);

    // Validate the trace against the safety specs. Sends go through each
    // end-point's blocking client, so CLIENT holds too.
    let mut checks = CheckSet::new();
    checks.add(vsgm_spec::ClientSpec::new());
    checks.add(vsgm_spec::MbrshpSpec::new());
    checks.add(vsgm_spec::CoRfifoSpec::new());
    checks.add(vsgm_spec::ViewSyncSpec::new());
    checks.run(comp.trace.entries());
    assert!(
        checks.is_clean(),
        "seed {seed}: {:?}\ntrace tail: {:#?}",
        checks.violations(),
        comp.trace.entries().iter().rev().take(15).collect::<Vec<_>>()
    );

    // Fairness sanity: with the full drain, the final view installed at
    // both survivors.
    for i in [1u64, 2] {
        let p = ProcessId::new(i);
        let installed = comp.trace.entries().iter().any(|e| {
            matches!(&e.event, Event::GcsView { p: q, view, .. }
                              if *q == p && view.id() == ViewId::new(2, 0))
        });
        assert!(installed, "seed {seed}: p{i} never installed the final view");
    }
}

#[test]
fn random_interleavings_satisfy_specs() {
    for seed in 0..50 {
        explore(seed);
    }
}

#[test]
fn deeper_exploration_with_more_seeds() {
    for seed in 1000..1080 {
        explore(seed);
    }
}

/// Exploration with a crash injected at a random point of the
/// reconfiguration: the survivors must still converge under arbitrary
/// interleavings, with the crashed process's channels wiped (§8).
fn explore_with_crash(seed: u64) {
    let mut comp = Composition::new(3, seed);
    comp.membership(&[1, 2, 3], 1, 1);
    comp.run_random(100_000);
    comp.send(1, "pre-crash");
    // Random partial progress, then p3 crashes.
    for _ in 0..comp.rng.range(0, 40) {
        comp.random_step();
    }
    let victim = ProcessId::new(3);
    comp.step(victim, Hosted::crash);
    // §8: the crash wipes the victim's outgoing channels.
    for ((from, _), chan) in comp.channels.iter_mut() {
        if *from == victim {
            chan.clear();
        }
    }
    comp.membership(&[1, 2], 2, 2);
    comp.run_random(100_000);
    comp.send(2, "post-crash");
    comp.run_random(100_000);

    let mut checks = CheckSet::new();
    checks.add(vsgm_spec::MbrshpSpec::new());
    checks.add(vsgm_spec::ViewSyncSpec::new());
    checks.run(comp.trace.entries());
    assert!(checks.is_clean(), "seed {seed}: {:?}", checks.violations());
    for i in [1u64, 2] {
        let p = ProcessId::new(i);
        let installed = comp.trace.entries().iter().any(|e| {
            matches!(&e.event, Event::GcsView { p: q, view, .. }
                     if *q == p && view.id() == ViewId::new(2, 0))
        });
        assert!(installed, "seed {seed}: p{i} never installed the survivor view");
    }
}

#[test]
fn crash_interleavings_satisfy_specs() {
    for seed in 5000..5060 {
        explore_with_crash(seed);
    }
}
