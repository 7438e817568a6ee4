//! Seed → random legal [`Scenario`] generation.
//!
//! The generator mirrors the membership oracle's legality rules while it
//! emits steps (who has a pending `start_change` and with which suggested
//! set, who is crashed), so every produced script can run without
//! tripping the oracle's scenario-bug assertions:
//!
//! * `start_change`/`reconfigure` record `pending[m] = S` for every
//!   `m ∈ S` (and `reconfigure` immediately consumes it);
//! * `form_view(M)` is only emitted when every `m ∈ M` has a pending
//!   suggestion covering `M` — the generator picks a process `q` with a
//!   pending set `B` and forms the view over
//!   `M = {m ∈ B : pending[m] ⊇ B}` (never empty: `q` qualifies);
//! * `recover(p)` is only emitted for crashed processes, and the last
//!   process standing is never crashed.

use std::collections::{BTreeMap, BTreeSet};
use vsgm_core::CorruptionKind;
use vsgm_harness::{Scenario, Step};
use vsgm_ioa::SimRng;

/// Whether (and how) generated scenarios inject state corruption — the
/// self-stabilization chaos tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptMode {
    /// Classic chaos: no state corruption (the default).
    #[default]
    Off,
    /// Corruption steps with seed-drawn kinds (at least one per
    /// scenario).
    Any,
    /// Corruption steps of exactly this kind — the per-class convergence
    /// sweeps (experiment E11).
    Only(CorruptionKind),
}

impl CorruptMode {
    fn kind(self, rng: &mut SimRng) -> Option<CorruptionKind> {
        match self {
            CorruptMode::Off => None,
            CorruptMode::Any => rng.choose(&CorruptionKind::ALL).copied(),
            CorruptMode::Only(k) => Some(k),
        }
    }
}

/// Tuning knobs for scenario generation.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Largest group size to draw (`n ∈ [2, max_procs]`).
    pub max_procs: u64,
    /// Most script steps to draw (after the opening fault plan and
    /// whole-group reconfiguration).
    pub max_steps: usize,
    /// Duplication probability for the generated fault plan. The default
    /// `0.0` keeps every run inside the `CO_RFIFO` envelope; setting it
    /// positive deliberately exceeds the envelope to prove the oracle
    /// notices (see `vsgm_net::FaultPlan::dup`).
    pub dup: f64,
    /// State-corruption injection mode. Anything but [`CorruptMode::Off`]
    /// guarantees at least one corruption step per scenario and switches
    /// the runner to split-trace convergence judging.
    pub corrupt: CorruptMode,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { max_procs: 5, max_steps: 16, dup: 0.0, corrupt: CorruptMode::Off }
    }
}

/// A non-empty random subset of `1..=n`, sorted.
fn subset(rng: &mut SimRng, n: u64) -> Vec<u64> {
    let mut all: Vec<u64> = (1..=n).collect();
    rng.shuffle(&mut all);
    let k = rng.range(1, n + 1) as usize;
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Generates the random legal scenario for `seed` under `cfg`.
///
/// Deterministic: the same `(seed, cfg)` always yields the same scenario,
/// and the scenario embeds `seed` so the simulation schedule replays too.
pub fn generate(seed: u64, cfg: &ChaosConfig) -> Scenario {
    let mut rng = SimRng::new(seed).fork(0xC4A0);
    let n = rng.range(2, cfg.max_procs.max(2) + 1);
    let mut steps = Vec::new();

    // Most runs start under an in-envelope fault plan (loss + jitter).
    if rng.chance(0.7) {
        steps.push(Step::Faults {
            drop: if rng.chance(0.6) { rng.range(1, 26) as f64 / 100.0 } else { 0.0 },
            dup: cfg.dup,
            reorder_ms: rng.range(0, 9),
            burst: if rng.chance(0.3) { 0.02 } else { 0.0 },
        });
    }
    // Establish the full group so there is protocol state to perturb.
    steps.push(Step::Reconfigure { members: (1..=n).collect() });

    // Oracle mirrors.
    let mut pending: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut crashed: BTreeSet<u64> = BTreeSet::new();
    let mut msg_no = 0u64;

    let floor = cfg.max_steps.min(4) as u64;
    let count = rng.range(floor, cfg.max_steps as u64 + 1);
    for _ in 0..count {
        let alive: Vec<u64> = (1..=n).filter(|p| !crashed.contains(p)).collect();
        let roll = rng.range(0, 100);
        let step = if roll < 32 {
            // A quarter of the send mass becomes state corruption when
            // the self-stabilization tier is on (`Off` draws nothing, so
            // classic generation is byte-identical).
            let kind = if roll >= 24 { cfg.corrupt.kind(&mut rng) } else { None };
            match kind {
                Some(kind) => {
                    let p = *rng.choose(&alive).unwrap_or(&1);
                    Some(Step::Corrupt { p, kind })
                }
                // An eighth of it is a round of stability
                // acknowledgements, racing whatever is in flight.
                None if roll < 4 => Some(Step::AckRound),
                None => None, // plain send (the shared fallback below)
            }
        } else if roll < 42 {
            Some(Step::RunFor { ms: rng.range(1, 25) })
        } else if roll < 48 {
            Some(Step::Run)
        } else if roll < 56 {
            let mut procs: Vec<u64> = (1..=n).collect();
            rng.shuffle(&mut procs);
            let cut = rng.range(1, n) as usize;
            let mut left: Vec<u64> = procs.get(..cut).unwrap_or(&[]).to_vec();
            let mut right: Vec<u64> = procs.get(cut..).unwrap_or(&[]).to_vec();
            left.sort_unstable();
            right.sort_unstable();
            Some(Step::Partition { groups: vec![left, right] })
        } else if roll < 62 {
            Some(Step::Heal)
        } else if roll < 70 && alive.len() > 1 {
            // Never crash the last process standing.
            let p = *rng.choose(&alive).unwrap_or(&1);
            crashed.insert(p);
            if rng.chance(0.4) {
                Some(Step::CrashDuringSync { p })
            } else {
                Some(Step::Crash { p })
            }
        } else if roll < 76 && !crashed.is_empty() {
            let down: Vec<u64> = crashed.iter().copied().collect();
            let p = *rng.choose(&down).unwrap_or(&1);
            crashed.remove(&p);
            pending.remove(&p); // recovery resets the oracle's pending slot
            Some(Step::Recover { p })
        } else if roll < 88 {
            let s = subset(&mut rng, n);
            for &m in &s {
                pending.insert(m, s.iter().copied().collect());
            }
            Some(Step::StartChange { members: s })
        } else {
            // form_view: only over processes whose pending suggestion
            // covers the base set; fall back to a cascade otherwise.
            let with_pending: Vec<u64> = pending.keys().copied().collect();
            match rng.choose(&with_pending).copied() {
                Some(q) => {
                    let base = pending.get(&q).cloned().unwrap_or_default();
                    let members: Vec<u64> = base
                        .iter()
                        .copied()
                        .filter(|m| pending.get(m).is_some_and(|sug| base.is_subset(sug)))
                        .collect();
                    for m in &members {
                        pending.remove(m);
                    }
                    Some(Step::FormView { members })
                }
                None => {
                    let s = subset(&mut rng, n);
                    for &m in &s {
                        pending.insert(m, s.iter().copied().collect());
                    }
                    Some(Step::StartChange { members: s })
                }
            }
        };
        steps.push(step.unwrap_or_else(|| {
            msg_no += 1;
            let p = *rng.choose(&alive).unwrap_or(&1);
            Step::Send { p, msg: format!("m{msg_no}") }
        }));
    }

    // The corruption tiers promise at least one injection per scenario;
    // top up right after the opening reconfiguration (everyone is alive
    // and holds freshly established view state there).
    if !steps.iter().any(|s| matches!(s, Step::Corrupt { .. })) {
        if let Some(kind) = cfg.corrupt.kind(&mut rng) {
            let p = rng.range(1, n + 1);
            let at = steps
                .iter()
                .position(|s| matches!(s, Step::Reconfigure { .. }))
                .map_or(steps.len(), |i| i + 1);
            steps.insert(at, Step::Corrupt { p, kind });
        }
    }

    Scenario { n: n as usize, seed, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::validate;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        for seed in 0..20 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
        assert_ne!(generate(1, &cfg), generate(2, &cfg));
    }

    #[test]
    fn generated_scenarios_are_legal() {
        let cfg = ChaosConfig::default();
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            assert!(s.n >= 2 && s.n as u64 <= cfg.max_procs);
            validate(&s).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", s.to_json()));
        }
    }

    #[test]
    fn generator_covers_the_step_space() {
        let cfg = ChaosConfig { max_procs: 6, max_steps: 24, dup: 0.0, corrupt: CorruptMode::Off };
        let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..300 {
            for step in &generate(seed, &cfg).steps {
                kinds.insert(match step {
                    Step::Send { .. } => "send",
                    Step::Reconfigure { .. } => "reconfigure",
                    Step::StartChange { .. } => "start_change",
                    Step::FormView { .. } => "form_view",
                    Step::Partition { .. } => "partition",
                    Step::Heal => "heal",
                    Step::Crash { .. } => "crash",
                    Step::Recover { .. } => "recover",
                    Step::Run => "run",
                    Step::RunFor { .. } => "run_for",
                    Step::Faults { .. } => "faults",
                    Step::CrashDuringSync { .. } => "crash_during_sync",
                    Step::AckRound => "ack_round",
                    Step::Corrupt { .. } => "corrupt",
                });
            }
        }
        for kind in [
            "send",
            "reconfigure",
            "start_change",
            "form_view",
            "partition",
            "heal",
            "crash",
            "recover",
            "run",
            "run_for",
            "faults",
            "crash_during_sync",
            "ack_round",
        ] {
            assert!(kinds.contains(kind), "generator never produced {kind}");
        }
    }

    #[test]
    fn corrupt_off_never_injects_and_matches_the_classic_stream() {
        let classic = ChaosConfig::default();
        for seed in 0..100 {
            let s = generate(seed, &classic);
            assert!(
                !s.steps.iter().any(|st| matches!(st, Step::Corrupt { .. })),
                "seed {seed} injected corruption with the tier off"
            );
        }
    }

    #[test]
    fn corrupt_any_guarantees_an_injection_and_covers_every_kind() {
        let cfg = ChaosConfig { corrupt: CorruptMode::Any, ..ChaosConfig::default() };
        let mut kinds: BTreeSet<CorruptionKind> = BTreeSet::new();
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            validate(&s).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let injected: Vec<CorruptionKind> = s
                .steps
                .iter()
                .filter_map(|st| match st {
                    Step::Corrupt { kind, .. } => Some(*kind),
                    _ => None,
                })
                .collect();
            assert!(!injected.is_empty(), "seed {seed}: no corruption step");
            kinds.extend(injected);
        }
        for k in CorruptionKind::ALL {
            assert!(kinds.contains(&k), "Any mode never drew {}", k.name());
        }
    }

    #[test]
    fn corrupt_only_pins_the_kind() {
        for k in CorruptionKind::ALL {
            let cfg = ChaosConfig { corrupt: CorruptMode::Only(k), ..ChaosConfig::default() };
            for seed in 0..20 {
                for step in &generate(seed, &cfg).steps {
                    if let Step::Corrupt { kind, .. } = step {
                        assert_eq!(*kind, k);
                    }
                }
            }
        }
    }

    #[test]
    fn dup_knob_flows_into_the_fault_plan() {
        let cfg = ChaosConfig { dup: 0.5, ..ChaosConfig::default() };
        let found = (0..50).any(|seed| {
            generate(seed, &cfg)
                .steps
                .iter()
                .any(|s| matches!(s, Step::Faults { dup, .. } if *dup == 0.5))
        });
        assert!(found, "no generated scenario carried the dup knob");
    }
}
