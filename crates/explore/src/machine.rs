//! The composed small model: endpoint automata plus idealized per-pair
//! FIFO channels, its schedulable transitions, and the conservative
//! dependence relation DPOR pruning is keyed on.
//!
//! The composition mirrors the fine-grained schedule-exploration tests
//! (and the §8 harness semantics): `vsgm-core` endpoints exchange
//! messages over per-ordered-pair FIFO queues, membership notifications
//! arrive as scripted externals, `block` requests are acknowledged
//! immediately (the Fig. 12 client), and a crash wipes the victim's
//! channels. Unlike the random walker, every nondeterministic choice is
//! reified as a [`Transition`] so the explorer can enumerate them all.

use crate::config::{ExploreConfig, ExtEvent, ExtKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vsgm_core::{Effect, Endpoint, Input};
use vsgm_ioa::{Automaton, Dependence};
use vsgm_types::{Event, NetMsg, ProcSet, ProcessId};

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
    /// The endpoint automata.
    pub eps: BTreeMap<ProcessId, Endpoint>,
    /// Per ordered pair, the in-flight FIFO channel.
    pub channels: BTreeMap<(ProcessId, ProcessId), VecDeque<NetMsg>>,
    /// Which scripted externals have fired.
    pub fired: Vec<bool>,
    /// Currently crashed processes (§8).
    pub crashed: BTreeSet<ProcessId>,
    /// Processes whose client acknowledged a `block` and has not yet
    /// seen the view (sends are gated off — Fig. 12).
    pub blocked: BTreeSet<ProcessId>,
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
                    (p, Endpoint::new(p, self.cfg.endpoint.clone()))
                })
                .collect(),
            channels: BTreeMap::new(),
            fired: vec![false; self.cfg.events.len()],
            crashed: BTreeSet::new(),
            blocked: BTreeSet::new(),
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
        for (p, ep) in &st.eps {
            if !st.crashed.contains(p) && !ep.enabled_actions().is_empty() {
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
                ExtKind::Send(_) => !st.blocked.contains(&ev.p),
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
                    let ep = st.eps.get_mut(p).expect("known proc");
                    let Some(action) = ep.enabled_actions().into_iter().next() else {
                        return;
                    };
                    let effects = ep.fire(&action);
                    self.route(st, *p, effects);
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
                let effects =
                    st.eps.get_mut(to).expect("known proc").handle(Input::Net { from: *from, msg });
                self.route(st, *to, effects);
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

    /// The peers currently considered alive and connected (full
    /// connectivity minus crashed processes) — recorded as
    /// `CO_RFIFO.live` alongside each membership notification, exactly
    /// as the simulation harness does, to scope the reliable-FIFO
    /// obligations across crashes.
    fn live_set(&self, st: &State) -> ProcSet {
        st.eps.keys().filter(|p| !st.crashed.contains(p)).copied().collect()
    }

    fn fire_external(&mut self, st: &mut State, ev: &ExtEvent) {
        let p = ev.p;
        match &ev.kind {
            ExtKind::Send(msg) => {
                if st.crashed.contains(&p) {
                    return; // a crashed client sends nothing
                }
                self.trace.push(Event::Send { p, msg: msg.clone() });
                let effects =
                    st.eps.get_mut(&p).expect("known proc").handle(Input::AppSend(msg.clone()));
                self.route(st, p, effects);
            }
            ExtKind::StartChange { cid, set } => {
                if st.crashed.contains(&p) {
                    return; // the service skips crashed members
                }
                self.trace.push(Event::MbrshpStartChange { p, cid: *cid, set: set.clone() });
                self.trace.push(Event::Live { p, set: self.live_set(st) });
                let effects = st
                    .eps
                    .get_mut(&p)
                    .expect("known proc")
                    .handle(Input::StartChange { cid: *cid, set: set.clone() });
                self.route(st, p, effects);
            }
            ExtKind::View(view) => {
                if st.crashed.contains(&p) {
                    return;
                }
                self.trace.push(Event::MbrshpView { p, view: view.clone() });
                self.trace.push(Event::Live { p, set: self.live_set(st) });
                let effects =
                    st.eps.get_mut(&p).expect("known proc").handle(Input::MbrshpView(view.clone()));
                self.route(st, p, effects);
            }
            ExtKind::AckDue => {
                // Input effects are disabled while crashed (§8).
                let effects = st.eps.get_mut(&p).expect("known proc").handle(Input::AckDue);
                self.route(st, p, effects);
            }
            ExtKind::Crash => {
                self.trace.push(Event::Crash { p });
                st.eps.get_mut(&p).expect("known proc").handle(Input::Crash);
                st.crashed.insert(p);
                st.blocked.remove(&p); // the client restarts unblocked
                // §8: the crash wipes the victim's channels, both ways.
                for ((from, to), chan) in st.channels.iter_mut() {
                    if *from == p || *to == p {
                        chan.clear();
                    }
                }
            }
            ExtKind::Recover => {
                self.trace.push(Event::Recover { p });
                st.crashed.remove(&p);
                let effects = st.eps.get_mut(&p).expect("known proc").handle(Input::Recover);
                self.route(st, p, effects);
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
                // state ever acts on a judged trace.
                let ep = st.eps.get_mut(&p).expect("known proc");
                ep.corrupt(*kind, 7);
                let effects = ep.handle(Input::Tick(0));
                if effects.iter().any(|e| matches!(e, Effect::Reconciled)) {
                    self.trace.push(Event::Crash { p });
                    // §8: reconciliation wipes the channels, both ways.
                    for ((from, to), chan) in st.channels.iter_mut() {
                        if *from == p || *to == p {
                            chan.clear();
                        }
                    }
                    st.blocked.remove(&p);
                    self.trace.push(Event::Recover { p });
                } else {
                    // The mutation landed on state the audit accepts
                    // (a no-op under this salt): route normally.
                    self.route(st, p, effects);
                }
            }
        }
    }

    fn route(&mut self, st: &mut State, from: ProcessId, effects: Vec<Effect>) {
        for eff in effects {
            match eff {
                Effect::NetSend { to, msg } => {
                    self.trace.push(Event::NetSend { p: from, set: to.clone(), msg: msg.clone() });
                    for dest in to {
                        if dest != from && !st.crashed.contains(&dest) {
                            st.channels.entry((from, dest)).or_default().push_back(msg.clone());
                        }
                    }
                }
                Effect::SetReliable(set) => self.trace.push(Event::Reliable { p: from, set }),
                Effect::DeliverApp { from: sender, msg } => {
                    self.trace.push(Event::Deliver { p: from, q: sender, msg });
                }
                Effect::InstallView { view, transitional } => {
                    self.trace.push(Event::GcsView { p: from, view, transitional });
                    st.blocked.remove(&from);
                }
                // Reconciliation is consumed by the `Corrupt` macro-step
                // above (audits only run there — endpoints never tick on
                // other explored transitions), so nothing reaches here.
                Effect::Reconciled => {}
                Effect::Block => {
                    // The Fig. 12 client acknowledges immediately; the
                    // explorer then gates scripted sends until the view.
                    self.trace.push(Event::Block { p: from });
                    self.trace.push(Event::BlockOk { p: from });
                    st.blocked.insert(from);
                    let more = st.eps.get_mut(&from).expect("known proc").handle(Input::BlockOk);
                    self.route(st, from, more);
                }
            }
        }
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
