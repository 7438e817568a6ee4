//! End-to-end chaos tests: deterministic replay, oracle validation (a
//! deliberately injected protocol bug is caught and shrunk to a tiny
//! reproducer), scenario legality checking, and pinned §8 recovery
//! regression scenarios.

use vsgm_chaos::{
    batch_for_seed, generate, minimize, run_scenario, validate, Artifact, ChaosConfig, Failure,
    RunOptions,
};
use vsgm_harness::{Scenario, Step};
use vsgm_ioa::Trace;
use vsgm_types::Event;

fn run_clean(s: &Scenario) -> vsgm_chaos::RunOutcome {
    let out = run_scenario(s, &RunOptions::default());
    assert!(
        out.failure.is_none(),
        "scenario (seed {}) failed: {:?}\n{}",
        s.seed,
        out.failure,
        s.to_json()
    );
    out
}

#[test]
fn chaos_search_is_deterministic_and_clean() {
    let cfg = ChaosConfig::default();
    let opts = RunOptions::default();
    for seed in 0..25 {
        let s = generate(seed, &cfg);
        let a = run_scenario(&s, &opts);
        let b = run_scenario(&s, &opts);
        assert!(a.failure.is_none(), "seed {seed}: {:?}", a.failure);
        // Same seed ⇒ byte-identical artifact (report determinism).
        assert_eq!(
            Artifact::new(&s, &a, None).to_json(),
            Artifact::new(&s, &b, None).to_json(),
            "seed {seed} replay diverged"
        );
        assert_eq!(a.events, b.events);
    }
}

#[test]
fn injected_sync_bug_is_caught_by_the_liveness_oracle() {
    // Suppressing a single sync message of the final view change is a
    // real protocol bug (a cut/sync silently skipped). The oracle must
    // notice: across a modest seed batch, many runs fail, and the
    // failures are liveness violations.
    let cfg = ChaosConfig::default();
    let opts = RunOptions { skip_sync_at_stabilization: Some(0) };
    let mut caught = 0;
    let mut liveness = 0;
    for seed in 0..20 {
        let s = generate(seed, &cfg);
        if let Some(f) = run_scenario(&s, &opts).failure {
            caught += 1;
            if f.signature().contains("LIVENESS") {
                liveness += 1;
            }
        }
    }
    assert!(caught >= 5, "only {caught}/20 sabotaged runs were caught");
    assert!(liveness >= 5, "only {liveness} failures were liveness violations");
}

#[test]
fn injected_bug_shrinks_to_a_tiny_reproducer() {
    // Acceptance criterion: the injected bug minimizes to ≤ 6 steps.
    let cfg = ChaosConfig::default();
    let opts = RunOptions { skip_sync_at_stabilization: Some(0) };
    let seed = (0..20)
        .find(|&s| run_scenario(&generate(s, &cfg), &opts).failure.is_some())
        .expect("no seed reproduced the injected bug");
    let scenario = generate(seed, &cfg);
    let m = minimize(&scenario, &opts).expect("failing scenario must minimize");
    assert!(
        m.scenario.steps.len() <= 6,
        "reproducer still has {} steps:\n{}",
        m.scenario.steps.len(),
        m.scenario.to_json()
    );
    let f = m.outcome.failure.as_ref().expect("minimized scenario still fails");
    assert!(matches!(f, Failure::Violations(_)), "{f:?}");
    // The artifact carries both scenarios and the trace of the failure,
    // which reads back whole and is judged guilty again offline.
    let artifact = Artifact::new(&scenario, &m.outcome, Some(&m.scenario));
    assert_eq!(artifact.kind, "violations");
    assert_eq!(artifact.minimized.len(), 1);
    let trace = Trace::from_json_lines(&artifact.trace.join("\n")).expect("trace lines parse");
    assert_eq!(trace.entries().len(), m.outcome.events, "failing run must capture its trace");
    let stabilized = trace
        .entries()
        .iter()
        .rev()
        .find_map(|e| match &e.event {
            Event::MbrshpView { view, .. } => Some(view.clone()),
            _ => None,
        })
        .expect("the stabilization phase formed a view");
    let verdict = vsgm_spec::judge_trace(trace.entries(), Some(stabilized));
    assert!(!verdict.is_empty(), "the artifact's trace must convict on its own");
    let json = artifact.to_json();
    let min_steps = m.scenario.steps.len();
    assert!(json.contains("\"seed\""), "{json}");
    // And minimization itself is deterministic.
    let m2 = minimize(&scenario, &opts).expect("second minimize");
    assert_eq!(m2.scenario, m.scenario);
    assert_eq!(m2.scenario.steps.len(), min_steps);
}

#[test]
fn illegal_scenarios_are_rejected_not_run() {
    // form_view nobody asked for.
    let s = Scenario { n: 3, seed: 0, steps: vec![Step::FormView { members: vec![1, 2] }] };
    assert!(validate(&s).is_err());
    let out = run_scenario(&s, &RunOptions::default());
    assert!(matches!(out.failure, Some(Failure::InvalidScenario(_))), "{:?}", out.failure);

    // form_view wider than the pending suggestion.
    let s = Scenario {
        n: 3,
        seed: 0,
        steps: vec![
            Step::StartChange { members: vec![1, 2] },
            Step::FormView { members: vec![1, 2, 3] },
        ],
    };
    assert!(validate(&s).is_err());

    // Process number out of range.
    let s = Scenario { n: 2, seed: 0, steps: vec![Step::Send { p: 7, msg: "x".into() }] };
    assert!(validate(&s).is_err());

    // Recovery consumes the pending slot: a form_view after
    // crash+recover needs a fresh start_change.
    let s = Scenario {
        n: 2,
        seed: 0,
        steps: vec![
            Step::StartChange { members: vec![1, 2] },
            Step::Crash { p: 2 },
            Step::Recover { p: 2 },
            Step::FormView { members: vec![1, 2] },
        ],
    };
    assert!(validate(&s).is_err());
}

// --- Pinned §8 recovery regression scenarios -----------------------------
//
// Three handwritten chaos scenarios covering the recovery behaviours the
// paper's §8 calls out. Each must stay green under the full checker suite
// and actually exercise a §8 recovery (`endpoint.recoveries`).

#[test]
fn regression_crash_during_sync_round() {
    // A member dies in the middle of the sync round of an in-flight view
    // change; the survivors finish without it and it recovers later.
    let s = Scenario {
        n: 4,
        seed: 0xC4A0_51,
        steps: vec![
            Step::Faults { drop: 0.1, dup: 0.0, reorder_ms: 3, burst: 0.0 },
            Step::Reconfigure { members: vec![1, 2, 3, 4] },
            Step::Send { p: 1, msg: "a".into() },
            Step::Send { p: 3, msg: "b".into() },
            Step::StartChange { members: vec![1, 2, 3, 4] },
            Step::CrashDuringSync { p: 2 },
            Step::FormView { members: vec![1, 2, 3, 4] },
            Step::Run,
            Step::Recover { p: 2 },
            Step::Send { p: 2, msg: "back".into() },
        ],
    };
    let out = run_clean(&s);
    assert!(out.recovery_resets >= 1, "no §8 recovery counted");
}

#[test]
fn regression_crash_during_sync_with_non_empty_batch() {
    // Pinned batching regression: endpoints run with a large batch (long
    // linger), so the sends below are still *held* in per-endpoint
    // batches when the view change starts — the change must force-flush
    // them before the cut, and a member crashing mid-sync on top of that
    // must not lose or duplicate any batched message. The seed is chosen
    // so `batch_for_seed` picks the large configuration.
    let s = Scenario {
        n: 4,
        seed: 0xC4A0_54,
        steps: vec![
            Step::Reconfigure { members: vec![1, 2, 3, 4] },
            Step::Send { p: 1, msg: "held-a".into() },
            Step::Send { p: 1, msg: "held-b".into() },
            Step::Send { p: 3, msg: "held-c".into() },
            Step::StartChange { members: vec![1, 2, 3, 4] },
            Step::CrashDuringSync { p: 2 },
            Step::FormView { members: vec![1, 2, 3, 4] },
            Step::Run,
            Step::Recover { p: 2 },
            Step::Send { p: 2, msg: "back".into() },
        ],
    };
    assert!(batch_for_seed(s.seed).enabled(), "seed must select a batched endpoint");
    let out = run_clean(&s);
    assert!(out.recovery_resets >= 1, "no §8 recovery counted");
}

#[test]
fn regression_recover_into_cascading_view_change() {
    // A crashed member recovers while the survivors are already mid-way
    // through a cascade of membership changes.
    let s = Scenario {
        n: 4,
        seed: 0xC4A0_52,
        steps: vec![
            Step::Reconfigure { members: vec![1, 2, 3, 4] },
            Step::Send { p: 1, msg: "a".into() },
            Step::Crash { p: 3 },
            Step::StartChange { members: vec![1, 2, 4] },
            Step::FormView { members: vec![1, 2, 4] },
            Step::Recover { p: 3 },
            Step::StartChange { members: vec![1, 2, 3, 4] },
            Step::RunFor { ms: 5 },
        ],
    };
    let out = run_clean(&s);
    assert!(out.recovery_resets >= 1, "no §8 recovery counted");
}

// --- Pinned self-stabilization regression scenarios ----------------------
//
// Violation classes found by the corruption-mode chaos sweep (DESIGN.md
// §15). Each was a real bug in the stabilization machinery — not the
// protocol — minimized by ddmin, fixed, and pinned here replayable.

#[test]
fn regression_reconciliation_mid_change_reissues_start_change() {
    // Sweep seeds 158/165: a member's audit reconciliation between
    // `start_change` and `form_view` clears its pending slot at the
    // membership oracle (reconciliation is a §8 crash/recover), and the
    // scripted `form_view` then panicked "no pending start_change". The
    // service must instead re-engage the reset member with a fresh
    // start_change before the view forms (`Sim::form_view`).
    let s = Scenario {
        n: 3,
        seed: 0xC4A0_55,
        steps: vec![
            Step::Reconfigure { members: vec![1, 2, 3] },
            Step::Send { p: 1, msg: "a".into() },
            Step::StartChange { members: vec![1, 2, 3] },
            Step::Corrupt { p: 2, kind: vsgm_core::CorruptionKind::ScrambleMembership },
            Step::RunFor { ms: 3 },
            Step::FormView { members: vec![1, 2, 3] },
            Step::Run,
        ],
    };
    let out = run_clean(&s);
    assert!(out.corruptions >= 1, "no corruption was injected");
    assert!(out.audit_reconciliations >= 1, "the audit never reconciled p2");
    assert!(out.convergence_us.is_some(), "corruption runs report convergence time");
}

#[test]
fn regression_stalled_change_corruption_judges_the_suffix_cleanly() {
    // Sweep seed 199 (minimized by ddmin to these four steps): a
    // scripted change left stalled at the corruption mark forced its
    // agreed-cut deliveries of deviation-window sends into the judged
    // suffix, where the fresh checkers had never seen the sends —
    // spurious WV_RFIFO/VS_RFIFO violations from the judge itself. The
    // stabilization phase now closes the deviation window at an epoch
    // boundary (complete reconfigure + quiescence) before the mark.
    let s = Scenario {
        n: 2,
        seed: 199,
        steps: vec![
            Step::Reconfigure { members: vec![1, 2] },
            Step::Corrupt { p: 1, kind: vsgm_core::CorruptionKind::TruncateMsgs },
            Step::Send { p: 2, msg: "m3".into() },
            Step::StartChange { members: vec![1, 2] },
        ],
    };
    let out = run_clean(&s);
    assert_eq!(out.corruptions, 1);
    assert!(out.convergence_us.is_some(), "split-trace judging must engage");
}

#[test]
fn regression_partition_heal_churn() {
    // Concurrent partitions with independent views, lossy reordered
    // links, heal-and-remerge, plus a crash during the remerge's sync.
    let s = Scenario {
        n: 5,
        seed: 0xC4A0_53,
        steps: vec![
            Step::Faults { drop: 0.2, dup: 0.0, reorder_ms: 5, burst: 0.02 },
            Step::Reconfigure { members: vec![1, 2, 3, 4, 5] },
            Step::Partition { groups: vec![vec![1, 2], vec![3, 4, 5]] },
            Step::StartChange { members: vec![1, 2] },
            Step::FormView { members: vec![1, 2] },
            Step::StartChange { members: vec![3, 4, 5] },
            Step::FormView { members: vec![3, 4, 5] },
            Step::Send { p: 1, msg: "left".into() },
            Step::Send { p: 4, msg: "right".into() },
            Step::Heal,
            Step::Reconfigure { members: vec![1, 2, 3, 4, 5] },
            Step::Partition { groups: vec![vec![1, 2, 3], vec![4, 5]] },
            Step::Send { p: 2, msg: "again".into() },
            Step::Heal,
            Step::CrashDuringSync { p: 4 },
            Step::Recover { p: 4 },
            Step::Send { p: 4, msg: "back".into() },
        ],
    };
    let out = run_clean(&s);
    assert!(out.recovery_resets >= 1, "no §8 recovery counted");
}
