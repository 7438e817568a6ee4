//! The composed small model: endpoint automata plus idealized per-pair
//! FIFO channels, its schedulable transitions, and the conservative
//! dependence relation DPOR pruning is keyed on.
//!
//! Each end-point is a [`Hosted`] one — composed with its Fig. 12 client
//! exactly as the simulation harness and the daemon compose theirs — so
//! `block` requests are acknowledged at once, a blocked client's scripted
//! sends wait for the view, and a §8 reset shows as a crash/recover
//! pair. The machine keeps only the channel: per-ordered-pair FIFO
//! queues, which a `Crash` event wipes both ways. Membership
//! notifications arrive as scripted externals. Unlike the random walker,
//! every nondeterministic choice is reified as a [`Transition`] so the
//! explorer can enumerate them all.

use crate::config::{ExploreConfig, ExtEvent, ExtKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vsgm_core::{Endpoint, Hosted, Input, Sink};
use vsgm_ioa::Dependence;
use vsgm_obs::{NoopRecorder, Recorder};
use vsgm_types::{Event, NetMsg, ProcessId};

/// One schedulable transition of the composition.
///
/// Endpoint-local scheduling is **process-atomic**: a [`Transition::Fire`]
/// runs `p`'s enabled actions in canonical order until `p` is locally
/// quiescent (exactly the harness drain). The explorer therefore
/// enumerates all interleavings of *communication* — when each endpoint
/// runs relative to deliveries, membership notifications, and faults —
/// while the unobservable order of one endpoint's own back-to-back
/// actions stays canonical. Same-process action orderings only permute
/// effects within a single macro-step and preserve each outgoing
/// channel's FIFO content, so this collapses a factorial factor without
/// hiding any cross-process race from the checkers.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Endpoint `p` runs its enabled locally controlled actions (in
    /// canonical order) until locally quiescent.
    Fire {
        /// The acting endpoint.
        p: ProcessId,
    },
    /// Pop the head of channel `from → to` and deliver it to `to`.
    Deliver {
        /// Channel source.
        from: ProcessId,
        /// Channel destination (the executing endpoint).
        to: ProcessId,
    },
    /// Fire the scripted external [`ExploreConfig::events`]`[index]`.
    External {
        /// Index into the configuration's event list.
        index: usize,
        /// The process the event executes at (denormalized from the
        /// configuration so the dependence relation needs no lookup).
        p: ProcessId,
        /// Whether this is a crash/recovery/corruption — global
        /// transitions that commute with nothing (they can wipe channels
        /// and re-gate every other transition's enabledness).
        global: bool,
    },
}

impl Transition {
    /// The endpoint whose state this transition reads and writes: the
    /// actor for [`Transition::Fire`] and [`Transition::External`], the
    /// *receiver* for [`Transition::Deliver`].
    pub fn proc(&self) -> ProcessId {
        match self {
            Transition::Fire { p, .. } | Transition::External { p, .. } => *p,
            Transition::Deliver { to, .. } => *to,
        }
    }

    /// Whether the transition touches global state (crash, recovery, or
    /// state corruption — whose reconciliation acts like both).
    pub fn is_global(&self) -> bool {
        matches!(self, Transition::External { global: true, .. })
    }
}

/// The conservative per-endpoint dependence relation (DESIGN.md §14):
/// two transitions are declared dependent iff they execute at the same
/// endpoint, or either is a crash/recovery. Transitions at distinct
/// endpoints only ever *append* to the other's incoming channel tails
/// while the other *pops* its own channel heads — FIFO append and pop
/// commute whenever the pop is enabled (the queue is nonempty), and
/// neither can disable the other, so the independence contract of
/// [`Dependence`] holds.
impl Dependence for Transition {
    fn dependent(&self, other: &Self) -> bool {
        self.is_global() || other.is_global() || self.proc() == other.proc()
    }
}

/// A full composition state: everything a transition can read or write.
/// Cloned at every DFS branch point (endpoints are plain-data automata,
/// so a clone is an exact snapshot).
#[derive(Debug, Clone)]
pub struct State {
    /// The endpoint automata, each with its Fig. 12 client.
    pub eps: BTreeMap<ProcessId, Hosted>,
    /// Per ordered pair, the in-flight FIFO channel.
    pub channels: BTreeMap<(ProcessId, ProcessId), VecDeque<NetMsg>>,
    /// Which scripted externals have fired.
    pub fired: Vec<bool>,
    /// Currently crashed processes (§8).
    pub crashed: BTreeSet<ProcessId>,
}

/// Drives a configuration's composition: owns the (path-local) trace and
/// knows how to enumerate and apply transitions against a [`State`].
pub struct Machine<'a> {
    cfg: &'a ExploreConfig,
    /// The events of the current path, in order. The explorer truncates
    /// this on backtrack, so it always spells the root-to-here schedule.
    pub trace: Vec<Event>,
}

impl<'a> Machine<'a> {
    /// Creates a machine for `cfg` with an empty trace.
    pub fn new(cfg: &'a ExploreConfig) -> Self {
        Machine { cfg, trace: Vec::new() }
    }

    /// Builds the initial state: fresh endpoints, then the setup script
    /// fired in order under a canonical (deterministic, exhaustive)
    /// drain, then the preload script fired in order with only each
    /// firing endpoint macro-stepped (emitted messages stay in flight).
    /// The resulting state is the DFS root; these events form the common
    /// prefix of every judged trace.
    pub fn initial(&mut self) -> State {
        let mut st = State {
            eps: (1..=self.cfg.n)
                .map(|i| {
                    let p = ProcessId::new(i);
                    (p, Hosted::new(Endpoint::new(p, self.cfg.endpoint.clone())))
                })
                .collect(),
            channels: BTreeMap::new(),
            fired: vec![false; self.cfg.events.len()],
            crashed: BTreeSet::new(),
        };
        let setup: Vec<ExtEvent> = self.cfg.setup.clone();
        for ev in &setup {
            self.fire_external(&mut st, ev);
            self.drain(&mut st);
        }
        let preload: Vec<ExtEvent> = self.cfg.preload.clone();
        for ev in &preload {
            self.fire_external(&mut st, ev);
            self.apply(&mut st, &Transition::Fire { p: ev.p });
        }
        st
    }

    /// Applies internal transitions (fires and deliveries, never
    /// scripted externals) in canonical order until none is enabled.
    fn drain(&mut self, st: &mut State) {
        for _ in 0..self.cfg.max_depth {
            let next = self.enabled_internal(st).into_iter().next();
            match next {
                Some(t) => self.apply(st, &t),
                None => return,
            }
        }
        panic!("{}: setup did not quiesce within {} steps", self.cfg.name, self.cfg.max_depth);
    }

    fn enabled_internal(&self, st: &State) -> Vec<Transition> {
        let mut out = Vec::new();
        for (p, host) in &st.eps {
            if !st.crashed.contains(p) && host.ep().first_enabled().is_some() {
                out.push(Transition::Fire { p: *p });
            }
        }
        for ((from, to), chan) in &st.channels {
            if !chan.is_empty() {
                out.push(Transition::Deliver { from: *from, to: *to });
            }
        }
        out
    }

    /// Every transition enabled in `st`, in canonical order (endpoint
    /// fires, then channel deliveries, then ready externals).
    pub fn enabled(&self, st: &State) -> Vec<Transition> {
        let mut out = self.enabled_internal(st);
        for (i, ev) in self.cfg.events.iter().enumerate() {
            if st.fired.get(i).copied().unwrap_or(true) {
                continue;
            }
            if !ev.after.iter().all(|&j| st.fired.get(j).copied().unwrap_or(false)) {
                continue;
            }
            let ready = match &ev.kind {
                // Fig. 12: a blocked client does not send.
                ExtKind::Send(_) => !st.eps.get(&ev.p).is_some_and(|h| h.client().is_blocked()),
                ExtKind::Crash => !st.crashed.contains(&ev.p),
                ExtKind::Recover => st.crashed.contains(&ev.p),
                // A transient fault strikes live state only; a crashed
                // endpoint has nothing to corrupt (§8 wipes it anyway).
                ExtKind::Corrupt(_) => !st.crashed.contains(&ev.p),
                ExtKind::StartChange { .. } | ExtKind::View(_) | ExtKind::AckDue => true,
            };
            if ready {
                let global = matches!(
                    ev.kind,
                    ExtKind::Crash | ExtKind::Recover | ExtKind::Corrupt(_)
                );
                out.push(Transition::External { index: i, p: ev.p, global });
            }
        }
        out
    }

    /// Applies `t` (which must be enabled in `st`), mutating the state
    /// and appending the resulting events to the trace.
    pub fn apply(&mut self, st: &mut State, t: &Transition) {
        match t {
            Transition::Fire { p } => {
                // Macro-step: drain p's enabled actions in canonical
                // order until locally quiescent.
                for _ in 0..self.cfg.max_depth {
                    let host = st.eps.get(p).expect("known proc");
                    let Some(action) = host.ep().first_enabled() else {
                        return;
                    };
                    self.step(st, *p, |h, rec, out| h.fire(&action, rec, out));
                }
                panic!("{}: endpoint {p} never went locally quiescent", self.cfg.name);
            }
            Transition::Deliver { from, to } => {
                let msg = st
                    .channels
                    .get_mut(&(*from, *to))
                    .and_then(VecDeque::pop_front)
                    .expect("delivery was enabled");
                self.trace.push(Event::NetDeliver { p: *from, q: *to, msg: msg.clone() });
                let input = Input::Net { from: *from, msg };
                self.step(st, *to, |h, rec, out| h.input(input, rec, out));
            }
            Transition::External { index, .. } => {
                let ev = self.cfg.events.get(*index).expect("known event").clone();
                self.fire_external(st, &ev);
                if let Some(f) = st.fired.get_mut(*index) {
                    *f = true;
                }
            }
        }
    }

    fn fire_external(&mut self, st: &mut State, ev: &ExtEvent) {
        let p = ev.p;
        match &ev.kind {
            ExtKind::Send(msg) => {
                if st.crashed.contains(&p) {
                    return; // a crashed client sends nothing
                }
                self.step(st, p, |h, rec, out| h.send(msg.clone(), rec, out));
            }
            ExtKind::StartChange { cid, set } => {
                let notice = Event::MbrshpStartChange { p, cid: *cid, set: set.clone() };
                self.notify(st, notice, Input::StartChange { cid: *cid, set: set.clone() });
            }
            ExtKind::View(view) => {
                let notice = Event::MbrshpView { p, view: view.clone() };
                self.notify(st, notice, Input::MbrshpView(view.clone()));
            }
            ExtKind::AckDue => {
                // Input effects are disabled while crashed (§8).
                self.step(st, p, |h, rec, out| h.input(Input::AckDue, rec, out));
            }
            ExtKind::Crash => {
                // The client restarts unblocked.
                self.step(st, p, Hosted::crash);
                st.crashed.insert(p);
            }
            ExtKind::Recover => {
                self.step(st, p, Hosted::recover);
                st.crashed.remove(&p);
            }
            ExtKind::Corrupt(kind) => {
                if st.crashed.contains(&p) {
                    return; // nothing live to corrupt
                }
                // Macro-step: inject the mutation and immediately run the
                // tick-cadence StateAudit (the salt is fixed so the
                // mutation is deterministic across replays). A detected
                // corruption reconciles through the §8 path, which the
                // checkers observe as a crash/recover pair; the deviation
                // window is a single atomic transition, so no corrupted
                // state ever acts on a judged trace. A mutation the audit
                // accepts (a no-op under this salt) leaves the tick inert.
                st.eps.get_mut(&p).expect("known proc").ep_mut().corrupt(*kind, 7);
                self.step(st, p, |h, rec, out| h.input(Input::Tick(0), rec, out));
            }
        }
    }

    /// Delivers a membership notice to its process unless it is crashed
    /// (the service skips crashed members): the notice, then the peers
    /// alive and connected (full connectivity minus crashed processes) as
    /// `CO_RFIFO.live`, exactly as the simulation harness records it to
    /// scope the reliable-FIFO obligations across crashes, then the input.
    fn notify(&mut self, st: &mut State, notice: Event, input: Input) {
        let p = notice.process();
        if !st.crashed.contains(&p) {
            self.trace.push(notice);
            let set = st.eps.keys().filter(|q| !st.crashed.contains(q)).copied().collect();
            self.trace.push(Event::Live { p, set });
            self.step(st, p, |h, rec, out| h.input(input, rec, out));
        }
    }

    /// Runs `call` on `p`'s hosted end-point and appends the events it
    /// emits to the trace: a `NetSend` is queued on each channel to a
    /// live addressee, and a `Crash` — a crash or a §8 reset — wipes the
    /// victim's channels, both ways.
    fn step<R>(
        &mut self,
        st: &mut State,
        p: ProcessId,
        call: impl FnOnce(&mut Hosted, &mut dyn Recorder, &mut Sink<'_>) -> R,
    ) -> R {
        let State { eps, channels, crashed, .. } = st;
        let trace = &mut self.trace;
        call(eps.get_mut(&p).expect("known proc"), &mut NoopRecorder, &mut |event, _| {
            match &event {
                Event::NetSend { p, set, msg } => {
                    for dest in set.iter().filter(|q| *q != p && !crashed.contains(q)) {
                        channels.entry((*p, *dest)).or_default().push_back(msg.clone());
                    }
                }
                Event::Crash { p } => {
                    for ((from, to), chan) in channels.iter_mut() {
                        if from == p || to == p {
                            chan.clear();
                        }
                    }
                }
                _ => {}
            }
            trace.push(event);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn ext(i: usize, proc_: u64, global: bool) -> Transition {
        Transition::External { index: i, p: p(proc_), global }
    }

    #[test]
    fn dependence_is_symmetric_and_per_endpoint() {
        let d12 = Transition::Deliver { from: p(1), to: p(2) };
        let d32 = Transition::Deliver { from: p(3), to: p(2) };
        let d21 = Transition::Deliver { from: p(2), to: p(1) };
        // Same receiving endpoint: dependent (they race into p2).
        assert!(d12.dependent(&d32));
        assert!(d32.dependent(&d12));
        // Different receivers commute, even on the "crossed" pair where
        // each appends to the channel the other pops.
        assert!(!d12.dependent(&d21));
        assert!(!d21.dependent(&d12));
    }

    #[test]
    fn externals_follow_the_same_rule() {
        let s1 = ext(0, 1, false);
        let s2 = ext(1, 2, false);
        let d_to_1 = Transition::Deliver { from: p(2), to: p(1) };
        assert!(!s1.dependent(&s2));
        assert!(s1.dependent(&d_to_1));
    }

    #[test]
    fn crash_and_recovery_commute_with_nothing() {
        let crash = ext(2, 3, true);
        let far_away = Transition::Deliver { from: p(1), to: p(2) };
        assert!(crash.dependent(&far_away));
        assert!(far_away.dependent(&crash));
        assert!(crash.dependent(&crash.clone()));
    }

    #[test]
    fn initial_state_of_the_canonical_config_is_quiescent() {
        let cfg = crate::config::ExploreConfig::canonical();
        let mut m = Machine::new(&cfg);
        let st = m.initial();
        // Setup drained: no fires or deliveries left, only the scripted
        // externals are enabled.
        assert!(m.enabled_internal(&st).is_empty());
        let en = m.enabled(&st);
        assert!(en.iter().all(|t| matches!(t, Transition::External { .. })), "{en:?}");
        // The survivors' two start_changes are ready; the views wait on
        // their start_changes.
        assert_eq!(en.len(), 2, "{en:?}");
        // The setup trace installed the initial view everywhere.
        let installs =
            m.trace.iter().filter(|e| matches!(e, Event::GcsView { .. })).count();
        assert_eq!(installs, 3);
    }
}
