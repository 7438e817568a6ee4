//! The oracle-driven simulator.

use std::collections::BTreeMap;
use vsgm_core::{BlockingClient, Config, Effect, Endpoint, GroupEndpoint, Input};
use vsgm_ioa::{CheckSet, SimRng, SimTime, Trace, TraceEntry, Violation};
use vsgm_membership::MembershipOracle;
use vsgm_net::{FaultPlan, FaultStats, LatencyModel, SimNet};
use vsgm_obs::{names as obs_names, NoopRecorder, ObsEvent, ObsRecorder, Recorder};
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
/// message-passing variant). Application clients auto-acknowledge block
/// requests and queue sends while blocked, per `CLIENT:SPEC`.
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
    eps: BTreeMap<ProcessId, E>,
    clients: BTreeMap<ProcessId, BlockingClient>,
    oracle: MembershipOracle,
    trace: Trace,
    checks: CheckSet,
    proposer_seq: u64,
    sched_rng: SimRng,
    /// Optional observability recorder (off by default; [`Sim::enable_obs`]).
    obs: Option<ObsRecorder>,
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
fn rec_of<'a>(
    obs: &'a mut Option<ObsRecorder>,
    noop: &'a mut NoopRecorder,
) -> &'a mut dyn Recorder {
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
        for (p, ep) in &self.eps {
            if let Err(e) = vsgm_core::audit::check(ep.config(), ep.state()) {
                panic!("paper invariant violated: {p}: {e}");
            }
        }
        let states = self.eps.values().map(|e| e.state());
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
        if self.eps[&p].is_crashed() {
            return;
        }
        let salt = self.sched_rng.range(0, 1 << 16);
        self.eps.get_mut(&p).expect("known proc").corrupt(kind, salt);
        let rec = rec_of(&mut self.obs, &mut self.noop);
        rec.counter(obs_names::CHAOS_CORRUPTIONS, 1);
        rec.event(p, None, ObsEvent::CorruptionInjected);
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
        let clients = procs.iter().map(|p| (*p, BlockingClient::new())).collect();
        let checks = if opts.check { vsgm_spec::full_checks(None) } else { CheckSet::new() };
        Sim {
            opts,
            time: SimTime::ZERO,
            net,
            eps,
            clients,
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

    /// Turns on protocol observability: from now on every membership
    /// notification, endpoint step and network hop is mirrored into a
    /// [`vsgm_obs`] event journal and metrics registry. Idempotent.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            let mut r = ObsRecorder::new();
            r.advance_time(self.time);
            self.obs = Some(r);
        }
    }

    /// The observability recorder, if [`Sim::enable_obs`] was called.
    pub fn obs(&self) -> Option<&ObsRecorder> {
        self.obs.as_ref()
    }

    /// Removes and returns the recorder (e.g. to snapshot it after a
    /// run); observability is off afterwards.
    pub fn take_obs(&mut self) -> Option<ObsRecorder> {
        self.obs.take()
    }

    /// All process ids.
    pub fn all_procs(&self) -> ProcSet {
        self.eps.keys().copied().collect()
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
        self.net_mut().reset_stats();
    }

    fn net_mut(&mut self) -> &mut SimNet<NetMsg> {
        &mut self.net
    }

    /// Read access to an endpoint.
    pub fn endpoint(&self, p: ProcessId) -> &E {
        &self.eps[&p]
    }

    fn record(&mut self, event: Event) {
        self.trace.record(self.time, event);
        if self.opts.check {
            if let Some(entry) = self.trace.entries().last() {
                self.checks.observe(entry);
            }
        }
    }

    // ----- workload -----

    /// The application at `p` multicasts `msg` (queued if blocked).
    pub fn send(&mut self, p: ProcessId, msg: AppMsg) {
        if self.eps[&p].is_crashed() {
            return;
        }
        let release = self.clients.get_mut(&p).expect("known proc").want_send(msg);
        if let Some(m) = release {
            self.record(Event::Send { p, msg: m.clone() });
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects =
                self.eps.get_mut(&p).expect("known proc").handle_rec(Input::AppSend(m), rec);
            self.route(p, effects);
        }
    }

    /// One round of stability acknowledgements: every live end-point is
    /// told [`Input::AckDue`]. Like [`Sim::send`], this only feeds the
    /// input: the acknowledgements go out when the end-points next step,
    /// and travel like any other message.
    pub fn ack_round(&mut self) {
        let ids: Vec<ProcessId> = self.eps.keys().copied().collect();
        for id in ids {
            if self.eps[&id].is_crashed() {
                continue;
            }
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects = self.eps.get_mut(&id).expect("known proc").handle_rec(Input::AckDue, rec);
            self.route(id, effects);
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
            if self.eps[&n.p].is_crashed() {
                continue;
            }
            self.record(Event::MbrshpStartChange { p: n.p, cid: n.cid, set: n.set.clone() });
            let live = self.net.live_set(n.p);
            self.record(Event::Live { p: n.p, set: live });
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects = self
                .eps
                .get_mut(&n.p)
                .expect("known proc")
                .handle_rec(Input::StartChange { cid: n.cid, set: n.set }, rec);
            self.route(n.p, effects);
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
            if self.eps[m].is_crashed() {
                continue;
            }
            self.record(Event::MbrshpView { p: *m, view: view.clone() });
            let live = self.net.live_set(*m);
            self.record(Event::Live { p: *m, set: live });
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects = self
                .eps
                .get_mut(m)
                .expect("known proc")
                .handle_rec(Input::MbrshpView(view.clone()), rec);
            self.route(*m, effects);
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
    /// membership comes from real servers).
    pub fn feed_start_change(
        &mut self,
        p: ProcessId,
        cid: vsgm_types::StartChangeId,
        set: ProcSet,
    ) {
        if self.eps[&p].is_crashed() {
            return;
        }
        self.record(Event::MbrshpStartChange { p, cid, set: set.clone() });
        let live = self.net.live_set(p);
        self.record(Event::Live { p, set: live });
        let rec = rec_of(&mut self.obs, &mut self.noop);
        let effects = self
            .eps
            .get_mut(&p)
            .expect("known proc")
            .handle_rec(Input::StartChange { cid, set }, rec);
        self.route(p, effects);
    }

    /// Feeds a raw membership view to one endpoint, bypassing the oracle.
    pub fn feed_view(&mut self, p: ProcessId, view: View) {
        if self.eps[&p].is_crashed() {
            return;
        }
        self.record(Event::MbrshpView { p, view: view.clone() });
        let live = self.net.live_set(p);
        self.record(Event::Live { p, set: live });
        let rec = rec_of(&mut self.obs, &mut self.noop);
        let effects =
            self.eps.get_mut(&p).expect("known proc").handle_rec(Input::MbrshpView(view), rec);
        self.route(p, effects);
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
        if self.eps[&p].is_crashed() {
            return;
        }
        self.record(Event::Crash { p });
        self.net.crash(p);
        let rec = rec_of(&mut self.obs, &mut self.noop);
        let effects = self.eps.get_mut(&p).expect("known proc").handle_rec(Input::Crash, rec);
        self.route(p, effects);
        self.clients.insert(p, BlockingClient::new());
    }

    /// Crashes `p` in the middle of a sync round: delivers network
    /// arrivals until `p` is mid-reconfiguration (it often already is,
    /// right after a `start_change`), lets a short deterministic prefix
    /// of the sync exchange land, then crashes `p`. Falls back to a plain
    /// crash at quiescence if no reconfiguration ever starts.
    pub fn crash_during_sync(&mut self, p: ProcessId) {
        if self.eps[&p].is_crashed() {
            return;
        }
        for _ in 0..10_000_000u64 {
            if self.eps[&p].reconfiguring() || !self.deliver_next() {
                break;
            }
        }
        if self.eps[&p].reconfiguring() {
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
        if !self.eps[&p].is_crashed() {
            return;
        }
        self.record(Event::Recover { p });
        self.net.recover(p);
        self.oracle.recover(p);
        let rec = rec_of(&mut self.obs, &mut self.noop);
        let effects = self.eps.get_mut(&p).expect("known proc").handle_rec(Input::Recover, rec);
        self.route(p, effects);
    }

    // ----- execution -----

    /// Advances every endpoint's local clock to the current simulated
    /// time. Inert unless an endpoint has a time-dependent stage (the
    /// batching linger deadline); clock advances are not trace events.
    fn tick_all(&mut self) {
        let us = self.time.as_micros();
        let ids: Vec<ProcessId> = self.eps.keys().copied().collect();
        for id in ids {
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects =
                self.eps.get_mut(&id).expect("known proc").handle_rec(Input::Tick(us), rec);
            self.route(id, effects);
        }
    }

    /// The earliest pending linger deadline across live endpoints, if any
    /// batch is being held (`None` for endpoints without batching).
    fn next_deadline(&self) -> Option<SimTime> {
        self.eps
            .values()
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
            let mut ids: Vec<ProcessId> = self.eps.keys().copied().collect();
            if self.opts.shuffle_polling {
                self.sched_rng.shuffle(&mut ids);
            }
            for id in ids {
                let rec = rec_of(&mut self.obs, &mut self.noop);
                let effects = self.eps.get_mut(&id).expect("known proc").poll_rec(rec);
                if !effects.is_empty() {
                    progress = true;
                    self.route(id, effects);
                }
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
        if let Some(r) = &mut self.obs {
            r.advance_time(t);
        }
        self.tick_all();
        let batch = self.net.pop_ready_rec(t, rec_of(&mut self.obs, &mut self.noop));
        for (from, to, msg) in batch {
            self.record(Event::NetDeliver { p: from, q: to, msg: msg.clone() });
            let rec = rec_of(&mut self.obs, &mut self.noop);
            let effects =
                self.eps.get_mut(&to).expect("known proc").handle_rec(Input::Net { from, msg }, rec);
            self.route(to, effects);
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
            if let Some(r) = &mut self.obs {
                r.advance_time(self.time);
            }
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
                    if let Some(r) = &mut self.obs {
                        r.advance_time(self.time);
                    }
                    self.tick_all();
                    self.step_all();
                }
                _ => break,
            }
        }
        if self.time < deadline {
            self.time = deadline;
            if let Some(r) = &mut self.obs {
                r.advance_time(deadline);
            }
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

    fn route(&mut self, from: ProcessId, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::NetSend { to, msg } => {
                    if matches!(msg.tag(), "sync_msg" | "sync_agg") {
                        let idx = self.sync_seen;
                        self.sync_seen += 1;
                        if self.suppress_sync == Some(idx) {
                            continue;
                        }
                    }
                    self.record(Event::NetSend { p: from, set: to.clone(), msg: msg.clone() });
                    let now = self.time;
                    let rec = rec_of(&mut self.obs, &mut self.noop);
                    self.net.send_rec(now, from, &to, &msg, rec);
                }
                Effect::SetReliable(set) => {
                    self.record(Event::Reliable { p: from, set: set.clone() });
                    self.net.set_reliable(from, set);
                }
                Effect::DeliverApp { from: sender, msg } => {
                    self.record(Event::Deliver { p: from, q: sender, msg });
                }
                Effect::InstallView { view, transitional } => {
                    self.record(Event::GcsView { p: from, view, transitional });
                    let released = self.clients.get_mut(&from).expect("known proc").on_view();
                    for m in released {
                        self.record(Event::Send { p: from, msg: m.clone() });
                        let rec = rec_of(&mut self.obs, &mut self.noop);
                        let more = self
                            .eps
                            .get_mut(&from)
                            .expect("known proc")
                            .handle_rec(Input::AppSend(m), rec);
                        self.route(from, more);
                    }
                }
                Effect::Block => {
                    self.record(Event::Block { p: from });
                    let client = self.clients.get_mut(&from).expect("known proc");
                    client.on_block();
                    if client.ack_block() {
                        self.record(Event::BlockOk { p: from });
                        let rec = rec_of(&mut self.obs, &mut self.noop);
                        let more = self
                            .eps
                            .get_mut(&from)
                            .expect("known proc")
                            .handle_rec(Input::BlockOk, rec);
                        self.route(from, more);
                    }
                }
                Effect::Reconciled => {
                    // The end-point already reset itself (§8, audit
                    // path); mirror the reset as an observed crash +
                    // instant recover so the trace, network, membership
                    // oracle and client stay consistent with it. No
                    // Crash/Recover inputs are fed — the end-point is
                    // already in its initial state.
                    self.record(Event::Crash { p: from });
                    self.net.crash(from);
                    self.record(Event::Recover { p: from });
                    self.net.recover(from);
                    self.oracle.recover(from);
                    self.clients.insert(from, BlockingClient::new());
                }
            }
        }
    }

    /// Runs the end-of-trace checks and returns every violation found
    /// over the whole run.
    pub fn finish(&mut self) -> Vec<Violation> {
        self.checks.finish();
        let violations = self.checks.violations().to_vec();
        if let Some(r) = &mut self.obs {
            // Violations are global properties of the trace; they are
            // journalled under the reserved marker id `p0`.
            for _ in &violations {
                r.event(ProcessId::new(0), None, ObsEvent::InvariantViolated);
            }
        }
        violations
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
    use std::collections::BTreeSet;
    use vsgm_core::{BatchConfig, Stack};
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
        let rec = sim.obs().expect("obs enabled");
        assert_eq!(rec.journal().count(ObsEvent::CorruptionInjected), 1);
        assert_eq!(rec.registry().counter(obs_names::CHAOS_CORRUPTIONS), 1);
        let (at, when) = sim.corruption_mark().expect("mark set at injection");
        assert_eq!(at, sim.trace().entries().len());
        assert_eq!(Some(when), sim.last_corruption());
    }

    /// The kinds journalled by an obs-enabled run of `script` over four
    /// end-points in one view.
    fn journalled(cfg: Config, script: impl FnOnce(&mut Sim)) -> BTreeSet<ObsEvent> {
        let mut sim = Sim::new_paper(4, cfg, SimOptions::default());
        sim.enable_obs();
        sim.reconfigure(&procs(4));
        sim.run_to_quiescence();
        script(&mut sim);
        sim.run_to_quiescence();
        sim.finish();
        let journal = sim.obs().expect("obs enabled").journal();
        journal.records().iter().map(|r| r.event).collect()
    }

    /// Between them, these runs take every path that journals: view
    /// changes, multicast, forwarding after a crash, recovery, batching,
    /// a corruption the audit reconciles, and a swallowed sync that the
    /// liveness checker reports. What they journal is exactly
    /// `ObsEvent::ALL`: no kind is left unemitted, and none is emitted
    /// that `ALL` does not list.
    #[test]
    fn obs_enabled_runs_journal_every_event_kind() {
        let p = ProcessId::new;
        let mut kinds = journalled(Config::default(), |sim| {
            sim.send(p(1), AppMsg::from("to all"));
            sim.run_to_quiescence();
            sim.partition(&[vec![p(3), p(4)], vec![p(1), p(2)]]);
            sim.send(p(4), AppMsg::from("only p3 gets this"));
            sim.run_to_quiescence();
            sim.crash(p(4));
            sim.heal();
            sim.reconfigure(&procs_of(&[1, 2, 3]));
            sim.run_to_quiescence();
            sim.recover(p(4));
        });
        let batched = Config { batch: BatchConfig::small(), ..Config::default() };
        kinds.extend(journalled(batched, |sim| {
            for i in 0..8 {
                sim.send(p(1), AppMsg::from(format!("b{i}").as_str()));
            }
        }));
        kinds.extend(journalled(Config { audit: true, ..Config::default() }, |sim| {
            sim.corrupt(p(2), vsgm_core::CorruptionKind::ScrambleMembership);
            sim.run_for(SimTime::from_millis(5));
        }));
        kinds.extend(journalled(Config::default(), |sim| {
            sim.suppress_sync(0);
            let v = sim.reconfigure(&procs_of(&[1, 2, 3]));
            sim.add_checker(LivenessSpec::new(v));
        }));
        assert_eq!(kinds, ObsEvent::ALL.into_iter().collect::<BTreeSet<_>>());
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
        // observability on. The journal must show exactly one sync message
        // per endpoint per (uncascaded) view change, and a finite
        // start_change → view-install latency span for every member of
        // the final view.
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

        let obs = sim.take_obs().expect("obs enabled");
        let journal = obs.journal();
        let spans = journal.spans();
        let completed: Vec<_> = spans.iter().filter(|s| s.complete()).collect();
        assert!(!completed.is_empty(), "no completed view-change spans");
        for s in &completed {
            assert_eq!(
                s.syncs_sent, 1,
                "exactly one sync per endpoint per view change: {s:?}"
            );
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
            assert!(last.latency().is_some());
        }
        // The registry agrees with the journal on installs and with the
        // sim's live network stats on deliveries.
        let reg = obs.registry();
        assert_eq!(
            reg.counter(vsgm_obs::names::EP_VIEWS_INSTALLED),
            journal.count(vsgm_obs::ObsEvent::ViewInstalled) as u64
        );
        let lat = reg.histogram(vsgm_obs::names::SYNC_ROUND_LATENCY_US).expect("span latencies");
        assert!(lat.count() > 0);
        assert_eq!(reg.counter(vsgm_obs::names::NET_DELIVERED), sim.net().stats().delivered);
        assert!(reg.traffic("sync_msg").count + reg.traffic("sync_agg").count > 0);
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
