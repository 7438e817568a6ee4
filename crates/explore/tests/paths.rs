//! Pinned exploration regressions for the seed configurations.
//!
//! The exact path / pruned / state counts are pinned: a DPOR pruning bug
//! (e.g. a sleep set that starts dropping or double-counting
//! interleavings) and a protocol change that alters the reachable state
//! space both fail loudly here, and the canonical configuration proves
//! the pruned enumeration is a strict subset of the raw one.

use vsgm_explore::{explore, replay, ExploreConfig, ExploreOptions, ExtEvent, ExtKind, Stats};
use vsgm_types::{ProcessId, StartChangeId};

fn dpor() -> ExploreOptions {
    ExploreOptions { dpor: true }
}

fn unpruned() -> ExploreOptions {
    ExploreOptions { dpor: false }
}

#[test]
fn canonical_counts_are_pinned_and_dpor_prunes_strictly() {
    let cfg = ExploreConfig::canonical();

    let with_dpor = explore(&cfg, &dpor());
    assert!(with_dpor.is_clean(), "{:?}", with_dpor.counterexample);
    assert_eq!(
        with_dpor.stats,
        Stats { paths: 127, pruned: 67, states: 65, max_depth: 12, violating_paths: 0 }
    );

    let raw = explore(&cfg, &unpruned());
    assert!(raw.is_clean(), "{:?}", raw.counterexample);
    assert_eq!(
        raw.stats,
        Stats { paths: 5520, pruned: 0, states: 65, max_depth: 12, violating_paths: 0 }
    );

    // The acceptance bar for the pruner: strictly fewer judged paths,
    // yet the same reachable states (sleep sets skip interleavings, not
    // behavior).
    assert!(with_dpor.stats.paths < raw.stats.paths);
    assert_eq!(with_dpor.stats.states, raw.stats.states);
}

#[test]
fn aggregation_counts_are_pinned() {
    // §9 two-tier leader aggregation through a view change: every
    // interleaving of contribution arrival, aggregate flush, and view
    // delivery at three members (core/src/aggregation.rs coverage far
    // beyond the unit tests' fixed orders).
    let outcome = explore(&ExploreConfig::aggregation(), &dpor());
    assert!(outcome.is_clean(), "{:?}", outcome.counterexample);
    assert_eq!(
        outcome.stats,
        Stats { paths: 17816, pruned: 47566, states: 820, max_depth: 19, violating_paths: 0 }
    );
}

#[test]
fn crash_recovery_counts_are_pinned() {
    let outcome = explore(&ExploreConfig::crash_recovery(), &dpor());
    assert!(outcome.is_clean(), "{:?}", outcome.counterexample);
    assert_eq!(
        outcome.stats,
        Stats { paths: 2425, pruned: 973, states: 130, max_depth: 13, violating_paths: 0 }
    );
}

#[test]
fn corruption_counts_are_pinned_and_every_path_converges() {
    // Self-stabilization under exhaustive scheduling (DESIGN.md §15):
    // the membership-scrambling fault at p3 fires at every possible
    // position relative to the survivors' view change and the delivery
    // of p3's in-flight multicast. On every path the armed audit must
    // detect it, the §8 reconciliation must render as a legal
    // crash/recover pair, and the survivors must still install the
    // final view — zero violating paths *is* the convergence claim.
    let outcome = explore(&ExploreConfig::corruption(), &dpor());
    assert!(outcome.is_clean(), "{:?}", outcome.counterexample);
    assert_eq!(
        outcome.stats,
        Stats { paths: 144391, pruned: 55923, states: 1386, max_depth: 18, violating_paths: 0 }
    );
}

#[test]
fn ack_round_counts_are_pinned() {
    // Stability (DESIGN.md §18): a multicast and two acknowledgements in
    // flight race p3's leave. Every arrival order lets the survivors drop
    // messages before, between or after their cuts; on every path they
    // must agree and install {1,2}.
    let outcome = explore(&ExploreConfig::ack_round(), &dpor());
    assert!(outcome.is_clean(), "{:?}", outcome.counterexample);
    assert_eq!(
        outcome.stats,
        Stats { paths: 30928, pruned: 123034, states: 4380, max_depth: 21, violating_paths: 0 }
    );
}

/// A configuration scripted to violate the membership safety spec: after
/// the initial view installs with start-change id 5, the service hands
/// `p1` a *non-monotonic* start-change (id 3). Fig. 2 requires strictly
/// increasing ids, so every path must be flagged by `MBRSHP`.
fn non_monotonic_start_change() -> ExploreConfig {
    let p = ProcessId::new;
    let members = [1u64, 2];
    let first = vsgm_explore::config::view_of(1, 5, &members);
    let set = first.members().clone();
    let mut setup = Vec::new();
    for &m in &members {
        setup.push(ExtEvent {
            p: p(m),
            kind: ExtKind::StartChange { cid: StartChangeId::new(5), set: set.clone() },
            after: vec![],
        });
    }
    for &m in &members {
        setup.push(ExtEvent { p: p(m), kind: ExtKind::View(first.clone()), after: vec![] });
    }
    let events = vec![ExtEvent {
        p: p(1),
        kind: ExtKind::StartChange { cid: StartChangeId::new(3), set },
        after: vec![],
    }];
    ExploreConfig {
        name: "bad-mbrshp".to_string(),
        n: 2,
        endpoint: vsgm_core::Config::default(),
        setup,
        preload: Vec::new(),
        events,
        final_view: None,
        max_depth: 2_000,
    }
}

#[test]
fn violation_yields_a_replayable_counterexample() {
    let cfg = non_monotonic_start_change();
    let outcome = explore(&cfg, &dpor());

    // Every path carries the illegal notification, so every path is
    // flagged and the first one is captured as the counterexample.
    assert_eq!(outcome.stats.violating_paths, outcome.stats.paths);
    let cex = outcome.counterexample.expect("a counterexample must be captured");
    assert!(
        cex.violations.iter().any(|v| v.checker == "MBRSHP"),
        "expected an MBRSHP violation, got {:?}",
        cex.violations
    );
    assert!(!cex.schedule.is_empty());
    assert_eq!(cex.trace.len(), cex.trace.last().map_or(0, |e| e.step as usize + 1));

    // The rendered report is replayable: the schedule deterministically
    // reproduces the identical trace and the identical verdict.
    let (entries, violations) = replay(&cfg, &cex.schedule);
    assert_eq!(entries, cex.trace);
    assert_eq!(violations, cex.violations);

    // The render mentions the failing checker and the schedule length.
    let report = cex.render();
    assert!(report.contains("MBRSHP"), "{report}");
    assert!(report.contains("== schedule =="), "{report}");
}

#[test]
fn stuck_scripted_events_are_reported() {
    // A send gated behind a block that no view ever resolves: the
    // composition quiesces with the send unfired, which the trace
    // checkers cannot see — the explorer must flag it itself.
    let p = ProcessId::new;
    let members = [1u64, 2];
    let first = vsgm_explore::config::view_of(1, 1, &members);
    let set = first.members().clone();
    let mut setup = Vec::new();
    for &m in &members {
        setup.push(ExtEvent {
            p: p(m),
            kind: ExtKind::StartChange { cid: StartChangeId::new(1), set: set.clone() },
            after: vec![],
        });
    }
    for &m in &members {
        setup.push(ExtEvent { p: p(m), kind: ExtKind::View(first.clone()), after: vec![] });
    }
    let events = vec![
        // A second change begins (blocking the client)…
        ExtEvent {
            p: p(1),
            kind: ExtKind::StartChange { cid: StartChangeId::new(2), set: set.clone() },
            after: vec![],
        },
        // …but the view never arrives, so this send stays gated forever.
        ExtEvent {
            p: p(1),
            kind: ExtKind::Send(vsgm_types::AppMsg::from("never")),
            after: vec![0],
        },
    ];
    let cfg = ExploreConfig {
        name: "stuck-send".to_string(),
        n: 2,
        endpoint: vsgm_core::Config::default(),
        setup,
        preload: Vec::new(),
        events,
        final_view: None,
        max_depth: 2_000,
    };
    let outcome = explore(&cfg, &dpor());
    let cex = outcome.counterexample.expect("stuck send must be reported");
    assert!(cex.violations.iter().any(|v| v.checker == "EXPLORE:STUCK"), "{:?}", cex.violations);
}
