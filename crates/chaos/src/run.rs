//! Scenario execution under the full oracle, and the failure artifact.
//!
//! A chaos run has three acts:
//!
//! 1. **Validate** the script against the membership oracle's legality
//!    rules ([`validate`]), so oracle panics about nonsense scripts are
//!    reported as [`Failure::InvalidScenario`] instead of masquerading as
//!    protocol bugs.
//! 2. **Execute** every step with all spec checkers online, each step
//!    under `catch_unwind` so a panic (broken paper invariant, livelock
//!    guard) still yields a structured failure with the recorded trace
//!    intact.
//! 3. **Stabilize and judge**: clear the fault plan, heal the network,
//!    recover everyone, reconfigure to the full group, run to quiescence,
//!    and attach a Property 4.2 [`LivenessSpec`] for the final view
//!    (attachment replays the recorded trace, so the checker judges the
//!    whole run). After stabilization the premise of Property 4.2 holds,
//!    so "everyone installs the final view and sees every stable-view
//!    message" is *checkable* — the liveness oracle that catches silently
//!    stalled view changes.

use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use vsgm_core::{BatchConfig, Config};
use vsgm_harness::{apply_step, Scenario, Sim, SimOptions, Step};
use vsgm_ioa::{SimTime, Violation};
use vsgm_net::{FaultPlan, LatencyModel};
use vsgm_obs::names;
use vsgm_spec::LivenessSpec;
use vsgm_types::{AppMsg, ProcessId};

/// Options controlling a chaos run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deliberate protocol sabotage for oracle validation: arm
    /// `Sim::suppress_sync` with this relative index just before the
    /// stabilization phase, silently swallowing the n-th cut/sync message
    /// of the final view change. A healthy oracle must convert this into
    /// a liveness (or virtual-synchrony) violation — used by the
    /// `--inject-bug` flag and the acceptance tests, never by default.
    pub skip_sync_at_stabilization: Option<u64>,
}

/// Why a chaos run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// One or more spec checkers rejected the trace.
    Violations(Vec<Violation>),
    /// The run panicked (paper-invariant assertion, livelock guard, ...).
    Panic(String),
    /// The script itself is illegal for the membership oracle.
    InvalidScenario(String),
}

impl Failure {
    /// Coarse class, used in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Violations(_) => "violations",
            Failure::Panic(_) => "panic",
            Failure::InvalidScenario(_) => "invalid_scenario",
        }
    }

    /// Matching key for the minimizer: a candidate reproduces the
    /// original failure iff the signatures agree (same class and, for
    /// violations, same first checker — so shrinking cannot wander from
    /// a liveness bug to an unrelated safety complaint).
    pub fn signature(&self) -> String {
        match self {
            Failure::Violations(vs) => {
                let checker = vs.first().map(|v| v.checker.as_str()).unwrap_or("");
                format!("violations:{checker}")
            }
            Failure::Panic(_) => "panic".to_string(),
            Failure::InvalidScenario(_) => "invalid_scenario".to_string(),
        }
    }

    /// Human-readable lines describing the failure.
    pub fn details(&self) -> Vec<String> {
        match self {
            Failure::Violations(vs) => vs.iter().map(|v| v.to_string()).collect(),
            Failure::Panic(m) => vec![format!("panic: {m}")],
            Failure::InvalidScenario(m) => vec![format!("invalid scenario: {m}")],
        }
    }
}

/// Result of one chaos run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The scenario's seed (replay handle).
    pub seed: u64,
    /// `None` = the full oracle accepted the run.
    pub failure: Option<Failure>,
    /// Total recorded trace events.
    pub events: usize,
    /// §8 recoveries of crashed end-points (`endpoint.recoveries`).
    pub recovery_resets: u64,
    /// Messages the fault injector dropped.
    pub injected_drops: u64,
    /// State corruptions actually injected (0 = classic chaos run).
    pub corruptions: u64,
    /// Audit-triggered endpoint reconciliations
    /// (`endpoint.audit_reconciliations`).
    pub audit_reconciliations: u64,
    /// Simulated µs from the last injected corruption to the
    /// post-reconciliation quiescent point (corruption runs only).
    pub convergence_us: Option<u64>,
    /// The run's trace as [`vsgm_ioa::Trace::to_json_lines`] — captured
    /// only for failing runs.
    pub trace: String,
}

/// Statically checks that `scenario` is legal for the membership oracle,
/// mirroring its panicking preconditions (see `vsgm_membership`):
/// `form_view(M)` needs every `m ∈ M` to hold a pending `start_change`
/// whose suggested set covers `M`; `recover` clears the pending slot;
/// process numbers must lie in `1..=n`.
///
/// # Errors
///
/// Returns a description of the first illegal step.
pub fn validate(scenario: &Scenario) -> Result<(), String> {
    let n = scenario.n as u64;
    if n == 0 {
        return Err("scenario has no processes".to_string());
    }
    let check_p = |i: usize, p: u64| -> Result<(), String> {
        if p >= 1 && p <= n {
            Ok(())
        } else {
            Err(format!("step {i}: process {p} outside 1..={n}"))
        }
    };
    let check_members = |i: usize, members: &[u64]| -> Result<(), String> {
        if members.is_empty() {
            return Err(format!("step {i}: empty member set"));
        }
        for &m in members {
            check_p(i, m)?;
        }
        Ok(())
    };
    let mut pending: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut crashed: BTreeSet<u64> = BTreeSet::new();
    for (i, step) in scenario.steps.iter().enumerate() {
        match step {
            Step::Send { p, .. } => check_p(i, *p)?,
            Step::Crash { p } | Step::CrashDuringSync { p } => {
                check_p(i, *p)?;
                crashed.insert(*p);
            }
            Step::Recover { p } => {
                check_p(i, *p)?;
                // Recovery of a live process is a harness no-op; only a
                // real recovery clears the oracle's pending slot.
                if crashed.remove(p) {
                    pending.remove(p);
                }
            }
            Step::Partition { groups } => {
                for g in groups {
                    for &m in g {
                        check_p(i, m)?;
                    }
                }
            }
            Step::StartChange { members } => {
                check_members(i, members)?;
                for &m in members {
                    pending.insert(m, members.iter().copied().collect());
                }
            }
            Step::Reconfigure { members } => {
                check_members(i, members)?;
                // start_change for `members` immediately consumed by the
                // formed view.
                for &m in members {
                    pending.remove(&m);
                }
            }
            Step::FormView { members } => {
                check_members(i, members)?;
                let set: BTreeSet<u64> = members.iter().copied().collect();
                for &m in members {
                    match pending.get(&m) {
                        Some(sug) if set.is_subset(sug) => {}
                        Some(_) => {
                            return Err(format!(
                                "step {i}: form_view {members:?} not covered by \
                                 {m}'s pending start_change"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "step {i}: form_view {members:?} but {m} has no \
                                 pending start_change"
                            ));
                        }
                    }
                }
                for &m in members {
                    pending.remove(&m);
                }
            }
            // Corruption of a crashed process is a harness no-op, so any
            // in-range target is legal.
            Step::Corrupt { p, .. } => check_p(i, *p)?,
            Step::Heal | Step::Run | Step::RunFor { .. } | Step::Faults { .. } | Step::AckRound => {
            }
        }
    }
    Ok(())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Endpoint batching configuration derived from a scenario seed: a third
/// of chaos runs exercise each of unbatched, small-batch, and large-batch
/// endpoints, so the full oracle (all spec checkers plus Property 4.2
/// liveness) continuously judges the batching path under faults. Pure in
/// the seed, so replay keeps the same configuration.
pub fn batch_for_seed(seed: u64) -> BatchConfig {
    match seed % 3 {
        1 => BatchConfig::small(),
        2 => BatchConfig::large(),
        _ => BatchConfig::off(),
    }
}

/// Runs `scenario` under the full oracle and judges the outcome.
///
/// Deterministic: the schedule, faults, and verdict are pure functions of
/// the scenario (which embeds its seed) and `opts`. The endpoint batching
/// mode is itself seed-derived ([`batch_for_seed`]).
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> RunOutcome {
    if let Err(e) = validate(scenario) {
        return RunOutcome {
            seed: scenario.seed,
            failure: Some(Failure::InvalidScenario(e)),
            events: 0,
            recovery_resets: 0,
            injected_drops: 0,
            corruptions: 0,
            audit_reconciliations: 0,
            convergence_us: None,
            trace: String::new(),
        };
    }
    // Corruption scenarios run the self-stabilization protocol: the
    // endpoint audit is armed, the *online* checkers are off (the
    // deviation window between injection and reconciliation is allowed to
    // break safety), and the verdict comes from split-trace judging
    // (`vsgm_spec::stabilize`) after the run.
    let corrupting = scenario.steps.iter().any(|s| matches!(s, Step::Corrupt { .. }));
    let mut sim = Sim::new_paper(
        scenario.n,
        Config { batch: batch_for_seed(scenario.seed), audit: corrupting, ..Config::default() },
        SimOptions {
            seed: scenario.seed,
            latency: LatencyModel::lan(),
            check: !corrupting,
            shuffle_polling: true,
        },
    );
    sim.enable_obs();
    let mut panicked: Option<String> = None;
    for step in &scenario.steps {
        let r = catch_unwind(AssertUnwindSafe(|| {
            apply_step(&mut sim, step);
            sim.assert_paper_invariants();
        }));
        if let Err(p) = r {
            panicked = Some(panic_text(p));
            break;
        }
    }
    let mut convergence_us = None;
    let mut split_violations: Option<Vec<Violation>> = None;
    if panicked.is_none() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            // Stabilization: stop injecting, heal, recover everyone, and
            // reconfigure to the full group — from here Property 4.2's
            // premise holds, so liveness is checkable at quiescence.
            sim.set_fault_plan(FaultPlan::none());
            sim.heal();
            for i in 1..=(scenario.n as u64) {
                let p = ProcessId::new(i);
                if sim.endpoint(p).is_crashed() {
                    sim.recover(p);
                }
            }
            if corrupting {
                // Give every damaged endpoint a tick window so the audit
                // detects and reconciles *before* the verification
                // reconfigure, then let the reconciliations drain.
                sim.run_for(SimTime::from_millis(5));
            }
            sim.run_to_quiescence();
            let all = sim.all_procs();
            if corrupting {
                // Close the deviation window at an *epoch boundary*:
                // complete a full view change and drain it, so every
                // cross-window obligation (agreed cuts force delivery of
                // messages sent during the deviation window) is settled
                // before the mark and the judged suffix references only
                // post-mark traffic.
                sim.reconfigure(&all);
                sim.run_to_quiescence();
            }
            // Convergence point: quiescent, reconciled, re-formed.
            let stabilized = (sim.trace().len(), sim.now());
            // Deliberate sabotage hook (oracle validation): swallow the
            // n-th sync message of the *final* (judged) view change.
            if let Some(nth) = opts.skip_sync_at_stabilization {
                sim.suppress_sync(nth);
            }
            let v = sim.reconfigure(&all);
            sim.run_to_quiescence();
            if corrupting {
                // Post-convergence probe: one multicast per member must
                // flow through the reconciled group.
                for p in all.iter() {
                    sim.send(*p, AppMsg::from(format!("probe-{p}").as_str()));
                }
                sim.run_to_quiescence();
            } else {
                sim.add_checker(LivenessSpec::new(v.clone()));
            }
            sim.assert_paper_invariants();
            (stabilized, v)
        }));
        match r {
            Ok(((stabilized_len, stabilized_at), final_view)) => {
                if let Some((injection, _)) = sim.corruption_mark() {
                    let report = vsgm_spec::judge_split(
                        sim.trace().entries(),
                        injection,
                        stabilized_len,
                        Some(final_view),
                    );
                    convergence_us = sim
                        .last_corruption()
                        .map(|t| stabilized_at.as_micros().saturating_sub(t.as_micros()));
                    split_violations = Some(report.violations());
                } else if corrupting {
                    // Every corruption step targeted a crashed process
                    // (no-op): judge the whole trace classically, offline
                    // (the online checkers were disarmed above).
                    split_violations =
                        Some(vsgm_spec::judge_trace(sim.trace().entries(), Some(final_view)));
                }
            }
            Err(p) => panicked = Some(panic_text(p)),
        }
    }
    let failure = match panicked {
        Some(msg) => Some(Failure::Panic(msg)),
        None => {
            let violations = match split_violations {
                Some(vs) => vs,
                None => sim.finish(),
            };
            if violations.is_empty() {
                None
            } else {
                Some(Failure::Violations(violations))
            }
        }
    };
    let injected_drops = sim.fault_stats().injected_drops;
    let events = sim.trace().len();
    let reg = sim.take_obs().unwrap_or_default();
    let trace = if failure.is_some() { sim.trace().to_json_lines() } else { String::new() };
    RunOutcome {
        seed: scenario.seed,
        failure,
        events,
        recovery_resets: reg.counter(names::EP_RECOVERIES),
        injected_drops,
        corruptions: reg.counter(names::CHAOS_CORRUPTIONS),
        audit_reconciliations: reg.counter(names::EP_AUDIT_RECONCILES),
        convergence_us,
        trace,
    }
}

/// Self-contained failure artifact: the seed, the (possibly minimized)
/// scenario, the failure description, and the trace of the failing run —
/// everything needed to file, replay, and debug the failure.
#[derive(Debug, Serialize)]
pub struct Artifact {
    /// Replay handle: `chaos --seed <seed>` regenerates the scenario.
    pub seed: u64,
    /// Failure class (`violations` / `panic` / `invalid_scenario`),
    /// or `pass`.
    pub kind: String,
    /// Human-readable failure lines.
    pub detail: Vec<String>,
    /// The failing scenario, replayable with `Scenario::from_json`.
    pub scenario: Scenario,
    /// The minimized reproducer, when minimization ran (empty otherwise —
    /// a 0/1-element list keeps the vendored serde surface simple).
    pub minimized: Vec<Scenario>,
    /// The failing run's trace, one JSON line per entry:
    /// `Trace::from_json_lines` reads their concatenation back, and
    /// `trace_view` renders it.
    pub trace: Vec<String>,
}

impl Artifact {
    /// Builds the artifact for a run (plus optional minimized scenario).
    pub fn new(scenario: &Scenario, outcome: &RunOutcome, minimized: Option<&Scenario>) -> Self {
        Artifact {
            seed: outcome.seed,
            kind: outcome.failure.as_ref().map(Failure::kind).unwrap_or("pass").to_string(),
            detail: outcome.failure.as_ref().map(Failure::details).unwrap_or_default(),
            scenario: scenario.clone(),
            minimized: minimized.cloned().into_iter().collect(),
            trace: outcome.trace.lines().map(str::to_string).collect(),
        }
    }

    /// Serializes the artifact as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact is serializable")
    }
}
