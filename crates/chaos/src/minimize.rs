//! Delta-debugging minimization of failing scenarios.
//!
//! Given a scenario the oracle rejects, shrink it while the failure
//! *signature* (same class, same first checker — [`Failure::signature`])
//! is preserved:
//!
//! 1. **Step removal** — drop contiguous chunks, halving the chunk size
//!    down to single steps (ddmin-style). Scenarios are heterogeneous —
//!    corruption, crashes, partitions, faults and workload interleave —
//!    and removal is kind-agnostic, so a mixed failing script shrinks to
//!    whichever single steps its failure actually needs;
//! 2. **Step simplification** — replace a step with a strictly simpler
//!    equivalent (`crash_during_sync` → plain `crash`);
//! 3. **Fault weakening** — zero each field of every `faults` step;
//! 4. **Group shrinking** — lower `n` while no step references the
//!    removed process.
//!
//! Every candidate is first checked with [`validate`] — an illegal
//! candidate is simply "does not reproduce", never a false positive via
//! an oracle panic. The loop repeats until a fixed point, so the result
//! is 1-minimal with respect to these operations: removing any single
//! remaining step no longer reproduces the failure.

use crate::run::{run_scenario, validate, Failure, RunOptions, RunOutcome};
use vsgm_harness::{Scenario, Step};

/// A minimized reproducer and the evidence it still fails.
#[derive(Debug)]
pub struct Minimized {
    /// The shrunk scenario.
    pub scenario: Scenario,
    /// Outcome of the final run of `scenario` (failure preserved).
    pub outcome: RunOutcome,
    /// Candidate runs spent shrinking.
    pub tested: usize,
}

fn max_proc_referenced(s: &Scenario) -> u64 {
    let mut hi = 1u64;
    for step in &s.steps {
        match step {
            Step::Send { p, .. }
            | Step::Crash { p }
            | Step::Recover { p }
            | Step::CrashDuringSync { p }
            | Step::Corrupt { p, .. } => hi = hi.max(*p),
            Step::Reconfigure { members }
            | Step::StartChange { members }
            | Step::FormView { members } => {
                for &m in members {
                    hi = hi.max(m);
                }
            }
            Step::Partition { groups } => {
                for g in groups {
                    for &m in g {
                        hi = hi.max(m);
                    }
                }
            }
            Step::Heal | Step::Run | Step::RunFor { .. } | Step::Faults { .. } | Step::AckRound => {
            }
        }
    }
    hi
}

/// Shrinks `scenario` to a minimal reproducer of its failure.
///
/// Returns `None` if the scenario does not fail under `opts` in the first
/// place. Deterministic: shrinking order and candidate runs are pure
/// functions of the input.
pub fn minimize(scenario: &Scenario, opts: &RunOptions) -> Option<Minimized> {
    let base = run_scenario(scenario, opts);
    let signature = base.failure.as_ref()?.signature();
    let mut tested = 0usize;
    let mut cur = scenario.clone();

    let reproduces = |cand: &Scenario, tested: &mut usize| -> bool {
        if validate(cand).is_err() {
            return false;
        }
        *tested += 1;
        run_scenario(cand, opts)
            .failure
            .as_ref()
            .map(Failure::signature)
            .is_some_and(|s| s == signature)
    };

    loop {
        let mut progressed = false;

        // 1. Remove step chunks, large to small.
        let mut chunk = (cur.steps.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i + chunk <= cur.steps.len() {
                let mut cand = cur.clone();
                cand.steps.drain(i..i + chunk);
                if reproduces(&cand, &mut tested) {
                    cur = cand;
                    progressed = true;
                    // Re-test the same position: the next chunk slid in.
                } else {
                    i += 1;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 2. Simplify steps in place: a timed mid-sync crash that still
        // reproduces as a plain crash reads much better in a reproducer.
        for idx in 0..cur.steps.len() {
            let Some(&Step::CrashDuringSync { p }) = cur.steps.get(idx) else {
                continue;
            };
            let mut cand = cur.clone();
            if let Some(slot) = cand.steps.get_mut(idx) {
                *slot = Step::Crash { p };
            }
            if reproduces(&cand, &mut tested) {
                cur = cand;
                progressed = true;
            }
        }

        // Weaken fault fields one at a time.
        for idx in 0..cur.steps.len() {
            let Some(Step::Faults { drop, dup, reorder_ms, burst }) = cur.steps.get(idx).cloned()
            else {
                continue;
            };
            let weaker = [
                Step::Faults { drop: 0.0, dup, reorder_ms, burst },
                Step::Faults { drop, dup: 0.0, reorder_ms, burst },
                Step::Faults { drop, dup, reorder_ms: 0, burst },
                Step::Faults { drop, dup, reorder_ms, burst: 0.0 },
            ];
            for variant in weaker {
                if cur.steps.get(idx) == Some(&variant) {
                    continue; // field already zero
                }
                let mut cand = cur.clone();
                if let Some(slot) = cand.steps.get_mut(idx) {
                    *slot = variant;
                }
                if reproduces(&cand, &mut tested) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // Shrink the group below unreferenced processes.
        while cur.n as u64 > max_proc_referenced(&cur).max(2) {
            let mut cand = cur.clone();
            cand.n -= 1;
            if reproduces(&cand, &mut tested) {
                cur = cand;
                progressed = true;
            } else {
                break;
            }
        }

        if !progressed {
            break;
        }
    }

    let outcome = run_scenario(&cur, opts);
    Some(Minimized { scenario: cur, outcome, tested })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_core::CorruptionKind;

    /// Heterogeneous shrinking: a script mixing state corruption, network
    /// faults, a mid-sync crash, recovery and workload — failing through
    /// the deliberately injected sync-suppression bug — must shrink
    /// across step kinds to a 1-minimal reproducer with the same failure
    /// signature. Exercises both judging paths: candidates that still
    /// carry a `corrupt` step run under split-trace convergence judging,
    /// candidates without one run under the classic online oracle.
    #[test]
    fn minimizes_a_mixed_corruption_crash_fault_scenario() {
        let scenario = Scenario {
            n: 3,
            seed: 21,
            steps: vec![
                Step::Faults { drop: 0.1, dup: 0.0, reorder_ms: 3, burst: 0.0 },
                Step::Reconfigure { members: vec![1, 2, 3] },
                Step::Send { p: 1, msg: "a".into() },
                Step::Corrupt { p: 2, kind: CorruptionKind::DupMsgId },
                Step::RunFor { ms: 4 },
                Step::CrashDuringSync { p: 3 },
                Step::Send { p: 2, msg: "b".into() },
                Step::Recover { p: 3 },
                Step::Run,
            ],
        };
        let opts = RunOptions { skip_sync_at_stabilization: Some(0) };
        let base = run_scenario(&scenario, &opts);
        let signature = base.failure.as_ref().expect("injected bug must fire").signature();
        let m = minimize(&scenario, &opts).expect("a failing scenario minimizes");
        assert_eq!(
            m.outcome.failure.as_ref().map(Failure::signature).as_deref(),
            Some(signature.as_str()),
            "shrinking wandered to a different failure"
        );
        assert!(
            m.scenario.steps.len() < scenario.steps.len(),
            "nothing was removed: {:?}",
            m.scenario.steps
        );
        // 1-minimality across step kinds: removing any single surviving
        // step (corruption or otherwise) must stop reproducing.
        for i in 0..m.scenario.steps.len() {
            let mut cand = m.scenario.clone();
            cand.steps.remove(i);
            if validate(&cand).is_err() {
                continue;
            }
            let still = run_scenario(&cand, &opts)
                .failure
                .as_ref()
                .map(Failure::signature)
                .is_some_and(|s| s == signature);
            assert!(!still, "step {i} of the minimized scenario is removable");
        }
    }
}
