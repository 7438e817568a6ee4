//! A small JSON scenario DSL for driving spec-checked simulations from
//! files or the command line (`cargo run -p vsgm-harness --bin scenario`).

use crate::sim::{Sim, SimOptions};
use serde::{Deserialize, Serialize};
use vsgm_core::Config;
use vsgm_ioa::SimTime;
use vsgm_net::{FaultPlan, LatencyModel};
use vsgm_types::{AppMsg, ProcSet, ProcessId};

/// One scripted step of a scenario.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "snake_case")]
pub enum Step {
    /// Application at process `p` multicasts `msg`.
    Send {
        /// Sender (1-based process number).
        p: u64,
        /// UTF-8 payload.
        msg: String,
    },
    /// Full reconfiguration (start_change + view) to `members`.
    Reconfigure {
        /// Member process numbers.
        members: Vec<u64>,
    },
    /// A `start_change` without a view (cascade).
    StartChange {
        /// Suggested member process numbers.
        members: Vec<u64>,
    },
    /// Deliver the view for `members` (a prior start_change must cover it).
    FormView {
        /// Member process numbers.
        members: Vec<u64>,
    },
    /// Partition the network into components.
    Partition {
        /// Partition components, each a list of process numbers.
        groups: Vec<Vec<u64>>,
    },
    /// Heal all partitions.
    Heal,
    /// Crash a process.
    Crash {
        /// Process number.
        p: u64,
    },
    /// Recover a crashed process.
    Recover {
        /// Process number.
        p: u64,
    },
    /// Run the network until quiescence.
    Run,
    /// Run the network for `ms` simulated milliseconds (arrivals due
    /// later stay in flight, so following steps hit a busy network).
    RunFor {
        /// Simulated milliseconds to run for.
        ms: u64,
    },
    /// Install (replacing any previous) a network fault plan; all-zero
    /// fields clear it. `drop`/`dup`/`burst` apply only to
    /// non-`reliable_set` channels; `dup > 0` exceeds the `CO_RFIFO`
    /// envelope and will trip its checker (see `vsgm_net::FaultPlan`).
    Faults {
        /// Per-message drop probability.
        #[serde(default)]
        drop: f64,
        /// Per-message duplication probability (out-of-envelope).
        #[serde(default)]
        dup: f64,
        /// Uniform extra arrival jitter in `[0, reorder_ms]` ms.
        #[serde(default)]
        reorder_ms: u64,
        /// Probability a send opens a burst-loss window.
        #[serde(default)]
        burst: f64,
    },
    /// Crash `p` in the middle of a sync round (plain crash if no
    /// reconfiguration is in progress by quiescence).
    CrashDuringSync {
        /// Process number.
        p: u64,
    },
    /// One round of stability acknowledgements: every live end-point is
    /// asked to tell its view what it has delivered.
    AckRound,
    /// Corrupt one facet of `p`'s protocol state in place (transient
    /// fault injection for the self-stabilization tier). The damage is
    /// detected by the endpoint's `StateAudit` pass on its next tick and
    /// reconciled via the §8 recovery path.
    Corrupt {
        /// Process number.
        p: u64,
        /// Which facet of the state to corrupt.
        kind: vsgm_core::CorruptionKind,
    },
}

/// A complete scenario: the group size and the script.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Scenario {
    /// Number of processes (`p1..pn`).
    pub n: usize,
    /// Seed for deterministic replay.
    #[serde(default)]
    pub seed: u64,
    /// The steps, executed in order.
    pub steps: Vec<Step>,
}

/// Outcome of running a scenario.
#[derive(Debug)]
pub struct Outcome {
    /// Total trace events.
    pub events: usize,
    /// Per-kind event counts.
    pub kind_counts: std::collections::BTreeMap<&'static str, usize>,
    /// Spec violations (empty = all checkers clean).
    pub violations: Vec<vsgm_ioa::Violation>,
}

fn set_of(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| ProcessId::new(i)).collect()
}

/// Applies one scripted [`Step`] to a paper-algorithm simulation. The
/// single step interpreter shared by [`Scenario::run`] and the chaos
/// runner (`vsgm-chaos`), so the two cannot drift apart.
pub fn apply_step(sim: &mut Sim<vsgm_core::Endpoint>, step: &Step) {
    match step {
        Step::Send { p, msg } => sim.send(ProcessId::new(*p), AppMsg::from(msg.as_str())),
        Step::Reconfigure { members } => {
            sim.reconfigure(&set_of(members));
        }
        Step::StartChange { members } => sim.start_change(&set_of(members)),
        Step::FormView { members } => {
            sim.form_view(&set_of(members));
        }
        Step::Partition { groups } => {
            let groups: Vec<Vec<ProcessId>> =
                groups.iter().map(|g| g.iter().map(|&i| ProcessId::new(i)).collect()).collect();
            sim.partition(&groups);
        }
        Step::Heal => sim.heal(),
        Step::Crash { p } => sim.crash(ProcessId::new(*p)),
        Step::Recover { p } => sim.recover(ProcessId::new(*p)),
        Step::Run => sim.run_to_quiescence(),
        Step::RunFor { ms } => sim.run_for(SimTime::from_millis(*ms)),
        Step::Faults { drop, dup, reorder_ms, burst } => sim.set_fault_plan(FaultPlan {
            drop: *drop,
            dup: *dup,
            reorder_ms: *reorder_ms,
            burst: *burst,
            burst_len: 0,
        }),
        Step::CrashDuringSync { p } => sim.crash_during_sync(ProcessId::new(*p)),
        Step::AckRound => sim.ack_round(),
        Step::Corrupt { p, kind } => sim.corrupt(ProcessId::new(*p), *kind),
    }
}

impl Scenario {
    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error.
    pub fn from_json(s: &str) -> Result<Scenario, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario is serializable")
    }

    /// Runs the scenario under full spec checking and paper-invariant
    /// auditing.
    pub fn run(&self) -> Outcome {
        self.run_inner(false).0
    }

    /// Like [`Scenario::run`], but with protocol observability on:
    /// additionally returns a metrics snapshot (spans folded over the
    /// trace, counters, traffic) of the whole run.
    pub fn run_observed(&self) -> (Outcome, vsgm_obs::Snapshot) {
        let (outcome, snap) = self.run_inner(true);
        (outcome, snap.expect("observability was enabled"))
    }

    fn run_inner(&self, observe: bool) -> (Outcome, Option<vsgm_obs::Snapshot>) {
        let mut sim = Sim::new_paper(
            self.n,
            Config::default(),
            SimOptions {
                seed: self.seed,
                latency: LatencyModel::lan(),
                check: true,
                shuffle_polling: true,
            },
        );
        if observe {
            sim.enable_obs();
        }
        for step in &self.steps {
            apply_step(&mut sim, step);
            sim.assert_paper_invariants();
        }
        sim.run_to_quiescence();
        sim.assert_paper_invariants();
        let violations = sim.finish();
        let snap = sim.take_obs().map(|r| vsgm_obs::Snapshot::capture(&r, sim.trace().entries()));
        (
            Outcome {
                events: sim.trace().len(),
                kind_counts: sim.trace().kind_counts(),
                violations,
            },
            snap,
        )
    }

    /// A demonstration scenario exercising most step kinds.
    pub fn demo() -> Scenario {
        Scenario {
            n: 4,
            seed: 7,
            steps: vec![
                Step::Reconfigure { members: vec![1, 2, 3, 4] },
                Step::Send { p: 1, msg: "hello".into() },
                Step::Run,
                Step::Partition { groups: vec![vec![1, 2], vec![3, 4]] },
                Step::StartChange { members: vec![1, 2] },
                Step::FormView { members: vec![1, 2] },
                Step::Run,
                Step::Crash { p: 4 },
                Step::Heal,
                Step::Recover { p: 4 },
                Step::Reconfigure { members: vec![1, 2, 3, 4] },
                Step::Send { p: 4, msg: "back".into() },
                Step::Run,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_scenario_runs_clean() {
        let outcome = Scenario::demo().run();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.events > 0);
        assert!(outcome.kind_counts["deliver"] >= 4);
    }

    #[test]
    fn observed_run_produces_a_snapshot() {
        let (outcome, snap) = Scenario::demo().run_observed();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(snap.view_changes_completed > 0, "{}", snap.render_table());
        assert_eq!(snap.trace_len, outcome.events as u64);
        // The snapshot serializes (consumed by benches and CLI tooling).
        assert!(snap.to_json_pretty().contains("view_changes_completed"));
    }

    #[test]
    fn json_roundtrip() {
        let s = Scenario::demo();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Scenario::from_json("{nope}").is_err());
    }

    #[test]
    fn chaos_steps_json_roundtrip() {
        let s = Scenario {
            n: 3,
            seed: 11,
            steps: vec![
                Step::Faults { drop: 0.2, dup: 0.0, reorder_ms: 5, burst: 0.01 },
                Step::Reconfigure { members: vec![1, 2, 3] },
                Step::Send { p: 1, msg: "x".into() },
                Step::RunFor { ms: 20 },
                Step::CrashDuringSync { p: 2 },
                Step::AckRound,
                Step::Corrupt { p: 1, kind: vsgm_core::CorruptionKind::ScrambleMembership },
                Step::Run,
            ],
        };
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        // Omitted fault fields default to zero, so minimized reproducers
        // serialize sparsely.
        let sparse: Step = serde_json::from_str(r#"{"faults": {"drop": 0.5}}"#).unwrap();
        assert_eq!(sparse, Step::Faults { drop: 0.5, dup: 0.0, reorder_ms: 0, burst: 0.0 });
    }

    #[test]
    fn faulty_scenario_stays_clean_and_deterministic() {
        let s = Scenario {
            n: 4,
            seed: 3,
            steps: vec![
                Step::Faults { drop: 0.15, dup: 0.0, reorder_ms: 3, burst: 0.02 },
                Step::Reconfigure { members: vec![1, 2, 3, 4] },
                Step::Send { p: 1, msg: "a".into() },
                Step::Send { p: 3, msg: "b".into() },
                Step::RunFor { ms: 2 },
                Step::Reconfigure { members: vec![1, 2, 3] },
                Step::Run,
            ],
        };
        let one = s.run();
        let two = s.run();
        // Loss + jitter stay inside the CO_RFIFO envelope: every checker
        // is still green, and the run replays identically from its seed.
        assert!(one.violations.is_empty(), "{:?}", one.violations);
        assert_eq!(one.events, two.events);
        assert_eq!(one.kind_counts, two.kind_counts);
    }

    #[test]
    fn partition_form_view_variant() {
        // Separate start_change/form_view steps allow asymmetric views.
        let s = Scenario {
            n: 3,
            seed: 0,
            steps: vec![
                Step::Reconfigure { members: vec![1, 2, 3] },
                Step::StartChange { members: vec![1, 2, 3] },
                Step::StartChange { members: vec![1, 2] },
                Step::FormView { members: vec![1, 2] },
                Step::Run,
            ],
        };
        let outcome = s.run();
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }
}
