//! The oracle-driven simulator.

use std::collections::BTreeMap;
use vsgm_core::{Config, Endpoint, GroupEndpoint, Hosted, Input, Sink};
use vsgm_ioa::{CheckSet, SimRng, SimTime, Trace, TraceEntry, Violation};
use vsgm_membership::MembershipOracle;
use vsgm_net::{FaultPlan, FaultStats, LatencyModel, SimNet};
use vsgm_obs::{names as obs_names, NoopRecorder, Recorder, Registry};
use vsgm_types::{AppMsg, Event, NetMsg, ProcSet, ProcessId, View};

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Seed for every random draw (latency jitter, scheduling).
    pub seed: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Whether to run the spec checkers online.
    pub check: bool,
    /// Shuffle the order end-points are polled in each round (more
    /// schedule diversity; still deterministic per seed).
    pub shuffle_polling: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { seed: 0, latency: LatencyModel::lan(), check: true, shuffle_polling: false }
    }
}

/// A deterministic whole-system simulation over endpoints of type `E`.
///
/// Process ids are `p1..pn`. The membership service is the scripted
/// [`MembershipOracle`]; its notifications are delivered to endpoints
/// instantaneously (the client↔server membership channel is outside the
/// model — see [`crate::server_sim::ServerSim`] for the fully
/// message-passing variant). Each end-point is [`Hosted`] with its
/// `CLIENT:SPEC` client, which acknowledges block requests and queues
/// sends while blocked; the simulation keeps the channel — a [`SimNet`]
/// — and the recorded, judged trace of every event the hosts emit.
///
/// ```
/// use vsgm_harness::{Sim, SimOptions};
/// use vsgm_types::AppMsg;
///
/// let mut sim = Sim::new_paper(3, Default::default(), SimOptions::default());
/// sim.reconfigure(&sim.all_procs());
/// sim.send(sim.proc(1), AppMsg::from("hello"));
/// sim.run_to_quiescence();
/// assert!(sim.finish().is_empty()); // every spec checker is clean
/// ```
pub struct Sim<E: GroupEndpoint = Endpoint> {
    opts: SimOptions,
    time: SimTime,
    net: SimNet<NetMsg>,
    hosts: BTreeMap<ProcessId, Hosted<E>>,
    oracle: MembershipOracle,
    trace: Trace,
    checks: CheckSet,
    proposer_seq: u64,
    sched_rng: SimRng,
    /// Optional metrics registry (off by default; [`Sim::enable_obs`]).
    obs: Option<Registry>,
    /// No-op sink used when observability is off.
    noop: NoopRecorder,
    /// Bug-injection hook: index of the sync/sync-agg send to swallow
    /// ([`Sim::suppress_sync`]).
    suppress_sync: Option<u64>,
    /// Sync/sync-agg sends seen so far (drives `suppress_sync`).
    sync_seen: u64,
    /// Trace position and time of the **first** state corruption injected
    /// with [`Sim::corrupt`] — where pre-fault safety judging ends.
    corruption_mark: Option<(usize, SimTime)>,
    /// Time of the **latest** corruption — the origin for measuring
    /// convergence time.
    last_corruption: Option<SimTime>,
}

/// Selects the active recorder without borrowing the whole `Sim` (so the
/// network / endpoint maps can be borrowed simultaneously).
fn rec_of<'a>(obs: &'a mut Option<Registry>, noop: &'a mut NoopRecorder) -> &'a mut dyn Recorder {
    match obs {
        Some(r) => r,
        None => noop,
    }
}

impl Sim<Endpoint> {
    /// Creates a simulation of `n` end-points running the paper's
    /// algorithm with the given end-point configuration.
    pub fn new_paper(n: usize, cfg: Config, opts: SimOptions) -> Self {
        let eps = (1..=n as u64)
            .map(|i| {
                let pid = ProcessId::new(i);
                (pid, Endpoint::new(pid, cfg.clone()))
            })
            .collect();
        Sim::with_endpoints(eps, opts)
    }
}

impl Sim<Endpoint> {
    /// Asserts every numbered invariant of the paper's proofs (§6–§7)
    /// over the current global state: the legal-state predicate
    /// (`vsgm_core::audit`, the local invariants) on each end-point under
    /// its own `Config`, then the cross-process ones
    /// (`vsgm_core::invariants`).
    ///
    /// # Panics
    ///
    /// Panics with the violated invariant's name and details.
    #[track_caller]
    pub fn assert_paper_invariants(&self) {
        // After a deliberate state corruption the invariants are *meant*
        // to be broken until the audit reconciles the damaged end-point;
        // legality of the post-stabilization suffix is judged by
        // `vsgm_spec::stabilize` instead.
        if self.corruption_mark.is_some() {
            return;
        }
        for (p, host) in &self.hosts {
            if let Err(e) = vsgm_core::audit::check(host.ep().config(), host.ep().state()) {
                panic!("paper invariant violated: {p}: {e}");
            }
        }
        let states = self.hosts.values().map(|h| h.ep().state());
        if let Err(e) = vsgm_core::invariants::check_global(states) {
            panic!("paper invariant violated: {e}");
        }
    }

    /// Injects one state-corruption fault into live end-point `p` (the
    /// self-stabilization chaos tier). The damage salt is drawn from the
    /// scheduling RNG, so runs stay deterministic per seed. Records the
    /// trace position and time as the corruption mark (see
    /// [`Sim::corruption_mark`]) and disables
    /// [`Sim::assert_paper_invariants`] from here on. No-op on crashed
    /// end-points (their volatile state is about to vanish anyway).
    pub fn corrupt(&mut self, p: ProcessId, kind: vsgm_core::CorruptionKind) {
        if self.endpoint(p).is_crashed() {
            return;
        }
        let salt = self.sched_rng.range(0, 1 << 16);
        self.hosts.get_mut(&p).expect("known proc").ep_mut().corrupt(kind, salt);
        let rec = rec_of(&mut self.obs, &mut self.noop);
        rec.counter(obs_names::CHAOS_CORRUPTIONS, 1);
        if self.corruption_mark.is_none() {
            self.corruption_mark = Some((self.trace.len(), self.time));
        }
        self.last_corruption = Some(self.time);
    }

    /// Trace position and simulated time of the first [`Sim::corrupt`]
    /// injection, if any — where the convergence judge's pre-fault prefix
    /// ends.
    pub fn corruption_mark(&self) -> Option<(usize, SimTime)> {
        self.corruption_mark
    }

    /// Simulated time of the latest [`Sim::corrupt`] injection — the
    /// origin for time-to-converge measurements.
    pub fn last_corruption(&self) -> Option<SimTime> {
        self.last_corruption
    }
}

impl Sim<vsgm_baseline::BaselineEndpoint> {
    /// Creates a simulation of `n` end-points running the two-round
    /// pre-agreement baseline.
    pub fn new_baseline(n: usize, opts: SimOptions) -> Self {
        let eps = (1..=n as u64)
            .map(|i| {
                let pid = ProcessId::new(i);
                (pid, vsgm_baseline::BaselineEndpoint::new(pid))
            })
            .collect();
        Sim::with_endpoints(eps, opts)
    }
}

impl<E: GroupEndpoint> Sim<E> {
    /// Builds a simulation from explicit endpoints.
    pub fn with_endpoints(eps: BTreeMap<ProcessId, E>, opts: SimOptions) -> Self {
        let procs: Vec<ProcessId> = eps.keys().copied().collect();
        let mut rng = SimRng::new(opts.seed);
        let sched_rng = rng.fork(1);
        let net = SimNet::new(procs.iter().copied(), opts.latency, rng);
        let checks = if opts.check { vsgm_spec::full_checks(None) } else { CheckSet::new() };
        Sim {
            opts,
            time: SimTime::ZERO,
            net,
            hosts: eps.into_iter().map(|(p, ep)| (p, Hosted::new(ep))).collect(),
            oracle: MembershipOracle::new(),
            trace: Trace::new(),
            checks,
            proposer_seq: 0,
            sched_rng,
            obs: None,
            noop: NoopRecorder,
            suppress_sync: None,
            sync_seen: 0,
            corruption_mark: None,
            last_corruption: None,
        }
    }

    /// Turns on protocol metrics: from now on every endpoint step and
    /// network hop counts into a [`Registry`]. What happened and when is
    /// the trace's ([`vsgm_obs::spans`] folds view changes out of it).
    /// Idempotent.
    pub fn enable_obs(&mut self) {
        self.obs.get_or_insert_with(Registry::new);
    }

    /// The metrics registry, if [`Sim::enable_obs`] was called.
    pub fn obs(&self) -> Option<&Registry> {
        self.obs.as_ref()
    }

    /// Removes and returns the registry (e.g. to snapshot it after a
    /// run); metrics are off afterwards.
    pub fn take_obs(&mut self) -> Option<Registry> {
        self.obs.take()
    }

    /// All process ids.
    pub fn all_procs(&self) -> ProcSet {
        self.hosts.keys().copied().collect()
    }

    /// The id of the `i`-th process (1-based).
    pub fn proc(&self, i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The recorded global trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Hands the recorded entries over and keeps recording ([`Trace::drain`]):
    /// a long-lived host consumes the trace instead of accumulating it. The
    /// online checkers have already seen every drained entry; a checker
    /// attached later ([`Sim::add_checker`]) is replayed only what is
    /// still retained.
    pub fn drain_trace(&mut self) -> std::vec::Drain<'_, TraceEntry> {
        self.trace.drain()
    }

    /// Writes the trace as JSON lines (viewable with the `trace_view`
    /// binary, reloadable with [`Trace::from_json_lines`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.trace.to_json_lines())
    }

    /// The network (traffic stats, connectivity queries).
    pub fn net(&self) -> &SimNet<NetMsg> {
        &self.net
    }

    /// Resets network traffic statistics (between experiment phases).
    pub fn reset_net_stats(&mut self) {
        self.net.reset_stats();
    }

    /// Read access to an endpoint.
    pub fn endpoint(&self, p: ProcessId) -> &E {
        self.hosts[&p].ep()
    }

    fn record(&mut self, event: Event) {
        record(&mut self.trace, &mut self.checks, self.opts.check, self.time, event);
    }

    /// Runs `call` on `p`'s hosted end-point and carries out the events
    /// it emits: each is recorded (and judged), a `NetSend` goes onto the
    /// network — unless [`Sim::suppress_sync`] swallows it, unrecorded —
    /// a `Reliable` reconfigures the network, a `Crash` takes `p` off it,
    /// and a `Recover` puts `p` back and re-admits it to the oracle.
    fn step<R>(
        &mut self,
        p: ProcessId,
        call: impl FnOnce(&mut Hosted<E>, &mut dyn Recorder, &mut Sink<'_>) -> R,
    ) -> R {
        let Sim {
            opts,
            time,
            net,
            hosts,
            oracle,
            trace,
            checks,
            obs,
            noop,
            suppress_sync,
            sync_seen,
            ..
        } = self;
        let now = *time;
        let host = hosts.get_mut(&p).expect("known proc");
        call(host, rec_of(obs, noop), &mut |event, rec| {
            match &event {
                Event::NetSend { p, set, msg } => {
                    if matches!(msg.tag(), "sync_msg" | "sync_agg") {
                        let idx = *sync_seen;
                        *sync_seen += 1;
                        if *suppress_sync == Some(idx) {
                            return;
                        }
                    }
                    net.send(now, *p, set, msg, rec);
                }
                Event::Reliable { p, set } => net.set_reliable(*p, set.clone()),
                Event::Crash { p } => net.crash(*p),
                Event::Recover { p } => {
                    net.recover(*p);
                    oracle.recover(*p);
                }
                _ => {}
            }
            record(trace, checks, opts.check, now, event);
        })
    }

    // ----- workload -----

    /// The application at `p` multicasts `msg` (queued if blocked).
    pub fn send(&mut self, p: ProcessId, msg: AppMsg) {
        if !self.endpoint(p).is_crashed() {
            self.step(p, |h, rec, out| h.send(msg, rec, out));
        }
    }

    /// One round of stability acknowledgements: every live end-point is
    /// told [`Input::AckDue`]. Like [`Sim::send`], this only feeds the
    /// input: the acknowledgements go out when the end-points next step,
    /// and travel like any other message.
    pub fn ack_round(&mut self) {
        for id in self.all_procs() {
            if !self.endpoint(id).is_crashed() {
                self.step(id, |h, rec, out| h.input(Input::AckDue, rec, out));
            }
        }
    }

    // ----- membership scripting -----

    /// Issues a `start_change` suggesting `suggested`, to all of
    /// `suggested`.
    pub fn start_change(&mut self, suggested: &ProcSet) {
        self.start_change_for(suggested, suggested);
    }

    /// Issues a `start_change` to `targets` suggesting `suggested`.
    pub fn start_change_for(&mut self, targets: &ProcSet, suggested: &ProcSet) {
        let notices = self.oracle.start_change_for(targets, suggested);
        for n in notices {
            self.feed_start_change(n.p, n.cid, n.set);
        }
        self.step_all();
    }

    /// Forms and delivers the membership view for `members`.
    pub fn form_view(&mut self, members: &ProcSet) -> View {
        // §8: a member that crashed and recovered (or reconciled after a
        // detected corruption) since the change began has lost its
        // start_change, and the oracle cleared its pending slot. The real
        // service re-engages such a member with a fresh start_change
        // before the view forms; mirror that here rather than letting the
        // oracle reject the now-stale script.
        let missing: ProcSet =
            members.iter().filter(|m| !self.oracle.change_pending(**m)).copied().collect();
        if !missing.is_empty() {
            self.start_change_for(&missing, members);
        }
        self.proposer_seq += 1;
        let view = self.oracle.form_view(members, self.proposer_seq);
        for m in members {
            self.feed_view(*m, view.clone());
        }
        self.step_all();
        view
    }

    /// One full reconfiguration: `start_change` + view for `members`.
    pub fn reconfigure(&mut self, members: &ProcSet) -> View {
        self.start_change(members);
        self.form_view(members)
    }

    /// Feeds a raw `start_change` notification to one endpoint, bypassing
    /// the oracle (used by [`crate::server_sim::ServerSim`], whose
    /// membership comes from real servers, and by
    /// [`Sim::start_change_for`]).
    pub fn feed_start_change(
        &mut self,
        p: ProcessId,
        cid: vsgm_types::StartChangeId,
        set: ProcSet,
    ) {
        if self.endpoint(p).is_crashed() {
            return;
        }
        self.record(Event::MbrshpStartChange { p, cid, set: set.clone() });
        let live = self.net.live_set(p);
        self.record(Event::Live { p, set: live });
        self.step(p, |h, rec, out| h.input(Input::StartChange { cid, set }, rec, out));
    }

    /// Feeds a raw membership view to one endpoint, bypassing the oracle
    /// (and [`Sim::form_view`]'s delivery of the view it formed).
    pub fn feed_view(&mut self, p: ProcessId, view: View) {
        if self.endpoint(p).is_crashed() {
            return;
        }
        self.record(Event::MbrshpView { p, view: view.clone() });
        let live = self.net.live_set(p);
        self.record(Event::Live { p, set: live });
        self.step(p, |h, rec, out| h.input(Input::MbrshpView(view), rec, out));
    }

    // ----- faults -----

    /// Partitions the network into the given components.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.net.partition(groups);
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        let now = self.time;
        self.net.heal(now);
    }

    /// Installs (or replaces) the chaos fault plan on the simulated
    /// network; a [`FaultPlan::none`] plan clears it. Faults are drawn
    /// from a fork of the simulation seed, so runs stay deterministic.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_faults(plan);
    }

    /// What the fault injector has done so far (zeros when no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.net.fault_stats()
    }

    /// Crashes `p` (§8): endpoint frozen, outgoing traffic dropped.
    /// No-op if `p` is already down (minimized chaos scenarios may lose
    /// the intervening `Recover` step).
    pub fn crash(&mut self, p: ProcessId) {
        if !self.endpoint(p).is_crashed() {
            self.step(p, Hosted::crash);
        }
    }

    /// Crashes `p` in the middle of a sync round: delivers network
    /// arrivals until `p` is mid-reconfiguration (it often already is,
    /// right after a `start_change`), lets a short deterministic prefix
    /// of the sync exchange land, then crashes `p`. Falls back to a plain
    /// crash at quiescence if no reconfiguration ever starts.
    pub fn crash_during_sync(&mut self, p: ProcessId) {
        if self.endpoint(p).is_crashed() {
            return;
        }
        for _ in 0..10_000_000u64 {
            if self.endpoint(p).reconfiguring() || !self.deliver_next() {
                break;
            }
        }
        if self.endpoint(p).reconfiguring() {
            // Vary (deterministically) how much of the sync round p sees
            // before dying — crash-before-sync vs crash-after-partial-sync
            // exercise different recovery paths.
            let extra = self.sched_rng.range(0, 3);
            for _ in 0..extra {
                if !self.deliver_next() {
                    break;
                }
            }
        }
        self.crash(p);
    }

    /// Recovers `p` with a fresh initial state (no stable storage).
    /// No-op if `p` is not down.
    pub fn recover(&mut self, p: ProcessId) {
        if self.endpoint(p).is_crashed() {
            self.step(p, Hosted::recover);
        }
    }

    // ----- execution -----

    /// Advances every endpoint's local clock to the current simulated
    /// time. Inert unless an endpoint has a time-dependent stage (the
    /// batching linger deadline); clock advances are not trace events.
    fn tick_all(&mut self) {
        let us = self.time.as_micros();
        for id in self.all_procs() {
            self.step(id, |h, rec, out| h.input(Input::Tick(us), rec, out));
        }
    }

    /// The earliest pending linger deadline across live endpoints, if any
    /// batch is being held (`None` for endpoints without batching).
    fn next_deadline(&self) -> Option<SimTime> {
        self.hosts
            .values()
            .map(Hosted::ep)
            .filter(|e| !e.is_crashed())
            .filter_map(GroupEndpoint::next_deadline_us)
            .min()
            .map(SimTime::from_micros)
    }

    /// Fires endpoint actions until every endpoint is quiescent (no time
    /// passes; network arrivals are not consumed).
    pub fn step_all(&mut self) {
        for _ in 0..1_000_000 {
            let mut progress = false;
            let mut ids: Vec<ProcessId> = self.hosts.keys().copied().collect();
            if self.opts.shuffle_polling {
                self.sched_rng.shuffle(&mut ids);
            }
            for id in ids {
                progress |= self.step(id, |h, rec, out| h.poll(rec, out));
            }
            if !progress {
                return;
            }
        }
        panic!("simulation livelock in step_all");
    }

    /// Delivers the next batch of network arrivals (advancing simulated
    /// time) and lets endpoints react. Returns false when nothing is in
    /// flight on a live channel.
    pub fn deliver_next(&mut self) -> bool {
        let Some(t) = self.net.next_arrival() else { return false };
        self.time = t;
        self.tick_all();
        let batch = self.net.pop_ready(t, rec_of(&mut self.obs, &mut self.noop));
        for (from, to, msg) in batch {
            self.record(Event::NetDeliver { p: from, q: to, msg: msg.clone() });
            self.step(to, |h, rec, out| h.input(Input::Net { from, msg }, rec, out));
        }
        self.step_all();
        true
    }

    /// Runs until no endpoint action is enabled, no message is in flight
    /// on a live channel, and no batch is held on a linger deadline (the
    /// clock jumps to pending deadlines once the network drains, so held
    /// batches flush instead of wedging quiescence).
    pub fn run_to_quiescence(&mut self) {
        self.step_all();
        for _ in 0..10_000_000u64 {
            if self.deliver_next() {
                continue;
            }
            // Network idle: release any batch waiting on its linger
            // deadline by advancing time there.
            let Some(deadline) = self.next_deadline() else { return };
            self.time = self.time.max(deadline);
            self.tick_all();
            self.step_all();
        }
        panic!("simulation did not quiesce");
    }

    /// Runs for `d` of simulated time: delivers every arrival due within
    /// the window and advances the clock to the end of it, leaving later
    /// arrivals in flight. Lets chaos scenarios interleave faults with a
    /// half-drained network instead of always reaching quiescence.
    pub fn run_for(&mut self, d: SimTime) {
        self.step_all();
        let deadline = self.time + d;
        for _ in 0..10_000_000u64 {
            // A batch linger deadline due within the window is a time
            // event like an arrival: whichever comes first fires first.
            let flush_at = self.next_deadline().filter(|t| *t <= deadline);
            match (self.net.next_arrival(), flush_at) {
                (Some(t), flush) if t <= deadline && flush.is_none_or(|f| t <= f) => {
                    self.deliver_next();
                }
                (_, Some(f)) => {
                    self.time = self.time.max(f);
                    self.tick_all();
                    self.step_all();
                }
                _ => break,
            }
        }
        if self.time < deadline {
            self.time = deadline;
            self.tick_all();
            self.step_all();
        }
    }

    /// Deliberate-bug hook for oracle validation: silently swallows the
    /// `nth` (0-based, counted from this call) sync/sync-agg send — the
    /// endpoint believes it sent its cut, nobody receives it, and
    /// `CO_RFIFO` sees nothing (the message never reaches the network).
    /// A correct chaos oracle must catch the resulting stalled view
    /// change via the Property 4.2 liveness check.
    pub fn suppress_sync(&mut self, nth: u64) {
        self.suppress_sync = Some(self.sync_seen + nth);
    }

    /// Whether the [`Sim::suppress_sync`] bug has fired yet.
    pub fn suppressed_a_sync(&self) -> bool {
        matches!(self.suppress_sync, Some(nth) if self.sync_seen > nth)
    }

    /// Runs the end-of-trace checks and returns every violation found
    /// over the whole run.
    pub fn finish(&mut self) -> Vec<Violation> {
        self.checks.finish();
        self.checks.violations().to_vec()
    }

    /// Adds an extra checker (e.g. a liveness expectation). The trace
    /// recorded so far (since the last [`Sim::drain_trace`], if any) is
    /// replayed into it first, so the checker judges the whole run no
    /// matter when it attaches — in particular, a
    /// `LivenessSpec` added right after `reconfigure` still sees the
    /// membership notifications (and any synchronous view installs) that
    /// happened inside that call.
    pub fn add_checker(&mut self, checker: impl vsgm_ioa::Checker + 'static) {
        self.checks.add_with_history(checker, self.trace.entries());
    }

    /// Panics with a readable report if any spec was violated.
    ///
    /// # Panics
    ///
    /// Panics on violations. Intended for tests.
    #[track_caller]
    pub fn assert_clean(&mut self) {
        self.checks.finish();
        self.checks.assert_clean();
    }
}

/// Records `event` at `time` and, when checking, shows it to every
/// checker.
fn record(trace: &mut Trace, checks: &mut CheckSet, check: bool, time: SimTime, event: Event) {
    trace.record(time, event);
    if check {
        if let Some(entry) = trace.entries().last() {
            checks.observe(entry);
        }
    }
}

/// Builds the `ProcSet` `{p1..pn}`.
pub fn procs(n: u64) -> ProcSet {
    (1..=n).map(ProcessId::new).collect()
}

/// Builds a `ProcSet` from explicit indices.
pub fn procs_of(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| ProcessId::new(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_core::Stack;
    use vsgm_spec::LivenessSpec;

    #[test]
    fn three_nodes_clean_run() {
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        let view = sim.reconfigure(&procs(3));
        sim.add_checker(LivenessSpec::new(view));
        for i in 1..=3 {
            sim.send(ProcessId::new(i), AppMsg::from(format!("m{i}").as_str()));
        }
        sim.run_to_quiescence();
        sim.assert_clean();
        // Everyone delivered everyone's message: 9 deliveries.
        let counts = sim.trace().kind_counts();
        assert_eq!(counts["deliver"], 9, "{counts:?}");
        assert_eq!(counts["view"], 3);
    }

    #[test]
    fn corruption_injection_is_journalled_and_marked() {
        let cfg = Config { audit: true, ..Config::default() };
        let mut sim = Sim::new_paper(2, cfg, SimOptions::default());
        sim.enable_obs();
        sim.reconfigure(&procs(2));
        sim.run_to_quiescence();
        assert!(sim.corruption_mark().is_none());
        sim.corrupt(ProcessId::new(2), vsgm_core::CorruptionKind::ScrambleMembership);
        let reg = sim.obs().expect("obs enabled");
        assert_eq!(reg.counter(obs_names::CHAOS_CORRUPTIONS), 1);
        let (at, when) = sim.corruption_mark().expect("mark set at injection");
        assert_eq!(at, sim.trace().entries().len());
        assert_eq!(Some(when), sim.last_corruption());
    }

    #[test]
    fn shuffled_polling_is_deterministic_and_clean() {
        let run = |seed| {
            let mut sim = Sim::new_paper(
                4,
                Config::default(),
                SimOptions { seed, shuffle_polling: true, ..SimOptions::default() },
            );
            sim.reconfigure(&procs(4));
            for i in 1..=4 {
                sim.send(ProcessId::new(i), AppMsg::from("x"));
            }
            sim.run_to_quiescence();
            sim.reconfigure(&procs_of(&[1, 2]));
            sim.run_to_quiescence();
            sim.assert_clean();
            sim.trace().to_json_lines()
        };
        // Deterministic per seed even with randomized polling order.
        assert_eq!(run(5), run(5));
        // And the shuffled order genuinely differs from the canonical one.
        let mut canonical = Sim::new_paper(
            4,
            Config::default(),
            SimOptions { seed: 5, shuffle_polling: false, ..SimOptions::default() },
        );
        canonical.reconfigure(&procs(4));
        for i in 1..=4 {
            canonical.send(ProcessId::new(i), AppMsg::from("x"));
        }
        canonical.run_to_quiescence();
        canonical.reconfigure(&procs_of(&[1, 2]));
        canonical.run_to_quiescence();
        canonical.assert_clean();
        assert_ne!(
            run(5),
            canonical.trace().to_json_lines(),
            "shuffling should explore a different interleaving"
        );
    }

    #[test]
    fn batched_run_quiesces_past_linger_and_stays_clean() {
        // One held batch per process: nothing is due on the network when
        // the sends land, so quiescence must jump the clock to the linger
        // deadline to release them.
        let cfg = Config { batch: vsgm_core::BatchConfig::small(), ..Config::default() };
        let mut sim = Sim::new_paper(3, cfg, SimOptions::default());
        let v = sim.reconfigure(&procs(3));
        sim.add_checker(LivenessSpec::new(v));
        for i in 1..=3 {
            sim.send(ProcessId::new(i), AppMsg::from("batched"));
        }
        sim.run_to_quiescence();
        sim.assert_clean();
        let counts = sim.trace().kind_counts();
        assert_eq!(counts["deliver"], 9, "{counts:?}");
    }

    #[test]
    fn batched_view_change_is_clean_with_held_batch() {
        // A huge linger would hold the batch forever; the view change
        // must force the flush before the cut (and the checkers agree).
        let cfg = Config {
            batch: vsgm_core::BatchConfig { max_msgs: 64, max_bytes: 1 << 20, linger_us: u64::MAX },
            ..Config::default()
        };
        let mut sim = Sim::new_paper(3, cfg, SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.send(ProcessId::new(1), AppMsg::from("held"));
        sim.send(ProcessId::new(1), AppMsg::from("back"));
        let v = sim.reconfigure(&procs(3));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        sim.assert_clean();
        let counts = sim.trace().kind_counts();
        assert_eq!(counts["deliver"], 6, "{counts:?}");
    }

    #[test]
    fn trace_save_and_reload() {
        let mut sim = Sim::new_paper(2, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(2));
        sim.run_to_quiescence();
        let dir = std::env::temp_dir().join("vsgm_trace_test.jsonl");
        sim.save_trace(&dir).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        let back = vsgm_ioa::Trace::from_json_lines(&text).unwrap();
        assert_eq!(back.len(), sim.trace().len());
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Sim::new_paper(
                4,
                Config::default(),
                SimOptions { seed, ..SimOptions::default() },
            );
            sim.reconfigure(&procs(4));
            for i in 1..=4 {
                sim.send(ProcessId::new(i), AppMsg::from("x"));
            }
            sim.run_to_quiescence();
            sim.trace().to_json_lines()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn partition_and_merge_clean() {
        let mut sim = Sim::new_paper(4, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(4));
        sim.send(ProcessId::new(1), AppMsg::from("before"));
        sim.run_to_quiescence();
        // Partition {1,2} | {3,4}: two concurrent views.
        sim.partition(&[
            vec![ProcessId::new(1), ProcessId::new(2)],
            vec![ProcessId::new(3), ProcessId::new(4)],
        ]);
        sim.start_change_for(&procs_of(&[1, 2]), &procs_of(&[1, 2]));
        sim.form_view(&procs_of(&[1, 2]));
        sim.start_change_for(&procs_of(&[3, 4]), &procs_of(&[3, 4]));
        sim.form_view(&procs_of(&[3, 4]));
        sim.run_to_quiescence();
        sim.send(ProcessId::new(1), AppMsg::from("side A"));
        sim.send(ProcessId::new(3), AppMsg::from("side B"));
        sim.run_to_quiescence();
        // Merge back.
        sim.heal();
        let merged = sim.reconfigure(&procs(4));
        sim.add_checker(LivenessSpec::new(merged));
        sim.run_to_quiescence();
        sim.assert_clean();
    }

    #[test]
    fn crash_and_recovery_clean() {
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.send(ProcessId::new(2), AppMsg::from("pre-crash"));
        sim.run_to_quiescence();
        sim.crash(ProcessId::new(3));
        sim.reconfigure(&procs_of(&[1, 2]));
        sim.send(ProcessId::new(1), AppMsg::from("while down"));
        sim.run_to_quiescence();
        sim.recover(ProcessId::new(3));
        sim.reconfigure(&procs(3));
        sim.run_to_quiescence();
        sim.assert_clean();
        // p3 is back in the final view.
        assert!(sim.endpoint(ProcessId::new(3)).current_view().contains(ProcessId::new(3)));
        assert_eq!(sim.endpoint(ProcessId::new(3)).current_view().len(), 3);
    }

    #[test]
    fn cascaded_changes_deliver_single_view() {
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        let before = sim.trace().kind_counts()["view"];
        // Three cascaded start_changes, then one view.
        sim.start_change(&procs(3));
        sim.start_change(&procs(3));
        sim.start_change(&procs(3));
        sim.form_view(&procs(3));
        sim.run_to_quiescence();
        sim.assert_clean();
        let after = sim.trace().kind_counts()["view"];
        assert_eq!(after - before, 3, "exactly one app view per process");
    }

    #[test]
    fn baseline_sim_clean_on_simple_changes() {
        let mut sim = Sim::new_baseline(3, SimOptions::default());
        sim.reconfigure(&procs(3));
        for i in 1..=3 {
            sim.send(ProcessId::new(i), AppMsg::from("b"));
        }
        sim.run_to_quiescence();
        sim.reconfigure(&procs_of(&[1, 2]));
        sim.run_to_quiescence();
        sim.assert_clean();
    }

    #[test]
    fn wv_stack_runs_clean_without_vs_checkers() {
        // The WV-only ablation satisfies WV_RFIFO/CLIENT specs but not the
        // VS/TS/SELF layers; run it with checking off and assert basic
        // delivery happens.
        let cfg = Config { stack: Stack::Wv, ..Config::default() };
        let mut sim = Sim::new_paper(
            2,
            cfg,
            SimOptions { check: false, ..SimOptions::default() },
        );
        sim.reconfigure(&procs(2));
        sim.send(ProcessId::new(1), AppMsg::from("wv"));
        sim.run_to_quiescence();
        assert_eq!(sim.trace().kind_counts()["deliver"], 2);
    }

    #[test]
    fn obs_journal_traces_one_sync_per_endpoint_per_view_change() {
        // The acceptance scenario: three processes, several view changes,
        // observability on. The spans folded over the trace must show
        // exactly one sync message per endpoint per (uncascaded) view
        // change, and a finite start_change → view-install latency span
        // for every member of the final view.
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.enable_obs();
        sim.reconfigure(&procs(3));
        for i in 1..=3 {
            sim.send(ProcessId::new(i), AppMsg::from("payload"));
        }
        sim.run_to_quiescence();
        sim.reconfigure(&procs_of(&[1, 2]));
        sim.run_to_quiescence();
        let final_view = sim.reconfigure(&procs(3));
        sim.run_to_quiescence();
        sim.assert_clean();

        let spans = vsgm_obs::spans(sim.trace().entries());
        let completed: Vec<_> = spans.iter().filter(|s| s.complete()).collect();
        assert_eq!(completed.len(), 3 + 2 + 3, "{spans:?}");
        for s in &completed {
            assert_eq!(s.syncs_sent, 1, "exactly one sync per endpoint per view change: {s:?}");
            assert_eq!(s.blocks, 1, "one block per endpoint per view change: {s:?}");
            assert!(s.latency().is_some(), "finite sync-round latency: {s:?}");
        }
        // Every member of the final view closed its most recent span.
        for m in final_view.members() {
            let last = spans
                .iter()
                .filter(|s| s.pid == *m)
                .max_by_key(|s| s.start_step)
                .expect("member has a view-change span");
            assert!(last.complete(), "final view installed at {m}: {last:?}");
        }
        // The registry agrees with the trace on installs and with the
        // sim's live network stats on deliveries; the snapshot's latency
        // summary covers every completed span.
        let reg = sim.take_obs().expect("obs enabled");
        let installs = sim.trace().kind_counts()["view"] as u64;
        assert_eq!(reg.counter(vsgm_obs::names::EP_VIEWS_INSTALLED), installs);
        let snap = vsgm_obs::Snapshot::capture(&reg, sim.trace().entries());
        let lat = snap.sync_round_latency().expect("span latencies");
        assert_eq!(lat.count, completed.len() as u64);
        assert_eq!(reg.counter(vsgm_obs::names::NET_DELIVERED), sim.net().stats().delivered);
        assert!(reg.traffic("sync_msg").count + reg.traffic("sync_agg").count > 0);
    }

    /// The span fold over a real run: a change cascades at p1 and p2, p3
    /// crashes in the middle of it, and only the cascade's last change
    /// installs.
    #[test]
    fn spans_fold_over_a_cascade_and_a_crash() {
        let p = ProcessId::new;
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.run_to_quiescence();
        let from = sim.trace().len() as u64;
        sim.start_change(&procs(3));
        sim.crash(p(3));
        sim.start_change(&procs_of(&[1, 2]));
        sim.form_view(&procs_of(&[1, 2]));
        sim.run_to_quiescence();
        sim.assert_clean();

        let trace = sim.trace();
        let spans = vsgm_obs::spans(trace.entries());
        let at = |q: ProcessId| -> Vec<&vsgm_obs::ViewChangeSpan> {
            spans.iter().filter(|s| s.pid == q && s.start_step >= from).collect()
        };
        // Two cascaded start_changes before one view: the first span
        // stays open, the second closes.
        for q in [p(1), p(2)] {
            let cascade = at(q);
            assert_eq!(cascade.len(), 2, "{q}: {cascade:?}");
            assert!(cascade[0].cid < cascade[1].cid);
            assert!(!cascade[0].complete() && cascade[1].complete(), "{q}: {cascade:?}");
        }
        // A crash mid-change leaves its span open.
        let crashed = at(p(3));
        assert_eq!(crashed.len(), 1);
        assert!(!crashed[0].complete());
        // A closed span's latency is its GcsView's time minus its
        // MbrshpStartChange's time. (The first view installs at once: the
        // singleton views it replaces owe no peer syncs.)
        let entry = |step: u64| &trace.entries()[step as usize];
        for s in spans.iter().filter(|s| s.complete()) {
            let opened = entry(s.start_step);
            let key = (s.pid, s.cid);
            assert!(
                matches!(opened.event, Event::MbrshpStartChange { p, cid, .. } if (p, cid) == key)
            );
            let closed = entry(s.installed_step.expect("complete"));
            assert!(matches!(closed.event, Event::GcsView { p, .. } if p == s.pid));
            assert_eq!(s.latency(), Some(closed.time.saturating_sub(opened.time)));
            if s.start_step >= from {
                assert!(closed.time > opened.time, "a LAN sync round takes time: {s:?}");
            }
        }
        // The fold reads the same spans back from the trace's JSON lines.
        let back = Trace::from_json_lines(&trace.to_json_lines()).expect("trace lines parse");
        assert_eq!(vsgm_obs::spans(back.entries()), spans);
    }

    /// The end-points' `endpoint.*` counters and the trace are two
    /// readings of one record: sends, deliveries, installs, blocks and
    /// forwards match their events, and syncs sent match the span fold —
    /// also where a sync never leaves the process (a change to one
    /// process; a §9 leader's buffered sync that a second start_change
    /// overtakes before the leader flushes).
    #[test]
    fn registry_counts_agree_with_the_trace_under_each_config() {
        let p = ProcessId::new;
        let configs = [
            Config::default(),
            Config::optimized(),
            Config { aggregation: true, ..Config::default() },
        ];
        for cfg in configs {
            let mut sim = Sim::new_paper(3, cfg.clone(), SimOptions::default());
            sim.enable_obs();
            sim.reconfigure(&procs(3));
            sim.send(p(1), AppMsg::from("m1"));
            sim.send(p(2), AppMsg::from("m2"));
            sim.run_to_quiescence();
            sim.reconfigure(&procs_of(&[1]));
            sim.run_to_quiescence();
            sim.reconfigure(&procs(3));
            sim.run_to_quiescence();
            // Two start_changes before any sync arrives.
            sim.start_change(&procs(3));
            sim.start_change(&procs(3));
            sim.form_view(&procs(3));
            sim.run_to_quiescence();
            sim.reconfigure(&procs_of(&[1, 2]));
            sim.run_to_quiescence();
            sim.assert_clean();

            let reg = sim.take_obs().expect("obs on");
            let entries = sim.trace().entries();
            let events = |kind: &str| entries.iter().filter(|e| e.event.kind() == kind).count();
            let forwards = entries
                .iter()
                .filter(|e| {
                    matches!(&e.event, Event::NetSend { msg, .. } if msg.tag() == "fwd_msg")
                })
                .count();
            let syncs: u64 = vsgm_obs::spans(entries).iter().map(|s| s.syncs_sent).sum();
            let counted = [
                obs_names::EP_MSGS_SENT,
                obs_names::EP_MSGS_DELIVERED,
                obs_names::EP_VIEWS_INSTALLED,
                obs_names::EP_BLOCKS,
                obs_names::EP_FORWARDS_SENT,
                obs_names::EP_SYNCS_SENT,
            ]
            .map(|n| reg.counter(n));
            let traced = [
                events("send") as u64,
                events("deliver") as u64,
                events("view") as u64,
                events("block") as u64,
                forwards as u64,
                syncs,
            ];
            assert_eq!(counted, traced, "{cfg:?}");
            assert!(syncs > 0, "view changes must sync: {cfg:?}");
        }
    }

    #[test]
    fn obs_disabled_records_nothing_and_changes_nothing() {
        // The same run with and without the recorder produces the same
        // trace (the no-op path is behaviourally inert).
        let run = |observe: bool| {
            let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
            if observe {
                sim.enable_obs();
            }
            sim.reconfigure(&procs(3));
            sim.send(ProcessId::new(1), AppMsg::from("x"));
            sim.run_to_quiescence();
            assert_eq!(sim.obs().is_some(), observe);
            sim.trace().to_json_lines()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_for_advances_time_without_draining_the_network() {
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.run_to_quiescence();
        // Large jitter spreads arrivals out, so a 1µs window leaves the
        // sent message in flight.
        sim.set_fault_plan(FaultPlan { reorder_ms: 50, ..FaultPlan::default() });
        let before = sim.now();
        sim.send(ProcessId::new(1), AppMsg::from("slow"));
        sim.run_for(SimTime::from_micros(1));
        assert_eq!(sim.now(), before + SimTime::from_micros(1));
        assert!(sim.net().next_arrival().is_some(), "message should still be in flight");
        sim.run_to_quiescence();
        sim.assert_clean();
        assert!(sim.fault_stats().delayed > 0);
    }

    #[test]
    fn crash_during_sync_kills_a_reconfiguring_endpoint() {
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.send(ProcessId::new(2), AppMsg::from("pre"));
        sim.run_to_quiescence();
        sim.start_change(&procs(3));
        assert!(sim.endpoint(ProcessId::new(3)).reconfiguring());
        sim.crash_during_sync(ProcessId::new(3));
        assert!(sim.endpoint(ProcessId::new(3)).is_crashed());
        // The survivors complete a shrunken view, then p3 rejoins.
        sim.form_view(&procs_of(&[1, 2]));
        sim.run_to_quiescence();
        sim.recover(ProcessId::new(3));
        let v = sim.reconfigure(&procs(3));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        sim.assert_clean();
    }

    #[test]
    fn crash_and_recover_are_idempotent() {
        let mut sim = Sim::new_paper(2, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(2));
        sim.run_to_quiescence();
        // Minimized chaos scenarios can lose the pairing step; double
        // crash / stray recover must be harmless no-ops.
        sim.recover(ProcessId::new(2));
        sim.crash(ProcessId::new(2));
        sim.crash(ProcessId::new(2));
        sim.recover(ProcessId::new(2));
        sim.recover(ProcessId::new(2));
        let v = sim.reconfigure(&procs(2));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        sim.assert_clean();
        assert_eq!(sim.trace().kind_counts()["crash"], 1);
        assert_eq!(sim.trace().kind_counts()["recover"], 1);
    }

    #[test]
    fn suppressed_sync_stalls_the_view_change_and_liveness_catches_it() {
        // The deliberate protocol bug for oracle validation: swallow one
        // sync send while application messages are still in flight, so
        // the agreed cut genuinely needs every member's sync. The round
        // can never complete and the view is not installed — a pure
        // liveness failure only the Property 4.2 checker can see.
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        sim.send(ProcessId::new(1), AppMsg::from("in flight"));
        sim.send(ProcessId::new(2), AppMsg::from("also in flight"));
        sim.suppress_sync(0);
        let v = sim.reconfigure(&procs(3));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        assert!(sim.suppressed_a_sync());
        let violations = sim.finish();
        assert!(
            violations.iter().any(|viol| viol.checker.contains("LIVENESS")),
            "expected a liveness violation, got {violations:?}"
        );
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_clean() {
        let run = || {
            let mut sim = Sim::new_paper(
                4,
                Config::default(),
                SimOptions { seed: 9, shuffle_polling: true, ..SimOptions::default() },
            );
            sim.set_fault_plan(FaultPlan {
                drop: 0.3,
                reorder_ms: 8,
                burst: 0.05,
                ..FaultPlan::default()
            });
            sim.reconfigure(&procs(4));
            for i in 1..=4 {
                sim.send(ProcessId::new(i), AppMsg::from("c"));
            }
            sim.run_to_quiescence();
            sim.reconfigure(&procs_of(&[1, 2, 3]));
            sim.run_to_quiescence();
            sim.assert_clean();
            sim.trace().to_json_lines()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forwarding_recovers_messages_for_partitioned_receiver() {
        // p3 sends; p2 is partitioned off before delivery; p3 crashes; the
        // surviving {1,2} still agree thanks to forwarding from p1.
        let mut sim = Sim::new_paper(3, Config::default(), SimOptions::default());
        sim.reconfigure(&procs(3));
        // Cut p2 off, then have p3 send: p1 receives, p2 does not (its
        // copies are parked on the reliable channel).
        sim.partition(&[vec![ProcessId::new(1), ProcessId::new(3)], vec![ProcessId::new(2)]]);
        sim.send(ProcessId::new(3), AppMsg::from("rescue me"));
        sim.run_to_quiescence();
        // p3 crashes: its parked output to p2 is dropped forever.
        sim.crash(ProcessId::new(3));
        sim.heal();
        // {1,2} reconfigure; p1 committed to p3's message, p2 lacks it.
        let v = sim.reconfigure(&procs_of(&[1, 2]));
        sim.add_checker(LivenessSpec::new(v));
        sim.run_to_quiescence();
        sim.assert_clean();
        let fwd = sim.net().stats().count("fwd_msg");
        assert!(fwd >= 1, "expected a forwarded copy, stats: {:?}", sim.net().stats());
    }
}
