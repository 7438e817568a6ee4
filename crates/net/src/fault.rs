//! Seeded fault injection for the simulated `CO_RFIFO` network.
//!
//! The spec (Fig. 3) draws a sharp line through the fault space:
//!
//! * channels to peers in the sender's `reliable_set` are gap-free FIFO —
//!   the *only* legal degradation is unbounded delay;
//! * channels to peers **outside** the `reliable_set` may additionally
//!   *lose* any message at any time (the internal `lose(p, q)` action).
//!
//! A [`FaultPlan`] bends the network exactly along that line: probabilistic
//! drop and burst loss apply only to non-`reliable_set` messages (staying
//! inside the spec envelope, so the `CO_RFIFO` checker remains green),
//! while reorder jitter — extra per-message delay that lets channels
//! overtake each other — applies everywhere, because the asynchronous
//! model permits arbitrary delay. Duplication (`dup`) also targets only
//! non-`reliable_set` messages but *exceeds* the spec envelope (Fig. 3
//! never duplicates); it exists to validate that the oracle notices a
//! misbehaving network, and chaos search keeps it off by default.
//!
//! All randomness flows through a forked [`SimRng`], so every injected
//! fault is a pure function of `(plan, seed)` and failing runs replay
//! bit-exactly.

use serde::{Deserialize, Serialize};
use vsgm_ioa::{SimRng, SimTime};

/// Declarative description of the faults to inject, replayable from a
/// seed. All probabilities are per in-transit message (a multicast to `k`
/// peers makes `k` independent draws, one per channel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability of dropping a message on a non-`reliable_set` channel.
    #[serde(default)]
    pub drop: f64,
    /// Probability of duplicating a message on a non-`reliable_set`
    /// channel. **Exceeds** the `CO_RFIFO` envelope — the spec permits
    /// loss but never duplication — so runs with `dup > 0` are expected
    /// to trip the `CO_RFIFO` checker (that is the point: it proves the
    /// oracle is watching).
    #[serde(default)]
    pub dup: f64,
    /// Extra arrival jitter. Each message is delayed by a uniformly
    /// random amount in `[0, reorder_ms]` milliseconds on top of the
    /// latency model. Applies to *all* channels (delay is always legal)
    /// and reorders messages across channels, never within one.
    #[serde(default)]
    pub reorder_ms: u64,
    /// Probability that a non-`reliable_set` send starts a burst-loss
    /// window: the message and the next [`FaultPlan::burst_len`]` - 1`
    /// droppable messages (network-wide) are all lost.
    #[serde(default)]
    pub burst: f64,
    /// Messages lost per burst window; `0` (the serde default for an
    /// omitted field) means the standard window of
    /// [`FaultPlan::DEFAULT_BURST_LEN`].
    #[serde(default)]
    pub burst_len: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { drop: 0.0, dup: 0.0, reorder_ms: 0, burst: 0.0, burst_len: 0 }
    }
}

impl FaultPlan {
    /// Burst window used when [`FaultPlan::burst_len`] is left at `0`.
    pub const DEFAULT_BURST_LEN: u64 = 8;

    /// A plan that injects nothing (the identity network).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The burst window actually used (`burst_len`, or the standard
    /// window when left at `0`).
    pub fn effective_burst_len(&self) -> u64 {
        if self.burst_len == 0 {
            Self::DEFAULT_BURST_LEN
        } else {
            self.burst_len
        }
    }

    /// Whether this plan can inject any fault at all.
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.dup <= 0.0 && self.reorder_ms == 0 && self.burst <= 0.0
    }

    /// Whether this plan stays inside the `CO_RFIFO` spec envelope
    /// (loss and delay only — no duplication).
    pub fn within_spec_envelope(&self) -> bool {
        self.dup <= 0.0
    }
}

/// Counters of what the injector actually did (for reports and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the probabilistic or burst fault.
    pub injected_drops: u64,
    /// Extra copies enqueued by the duplication fault.
    pub injected_dups: u64,
    /// Messages delayed by reorder jitter.
    pub delayed: u64,
    /// Burst-loss windows opened.
    pub bursts: u64,
}

/// What should happen to one message on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Enqueue the message; `copies > 1` means duplicates were injected.
    Deliver {
        /// Number of copies to enqueue (1 = no duplication).
        copies: u64,
        /// Extra delay to add to this message's arrival time.
        extra_delay: SimTime,
    },
    /// Lose the message (spec's `lose` on a non-`reliable_set` channel).
    Drop,
}

/// Per-message fault decisions, driven by a [`FaultPlan`] and a forked
/// [`SimRng`]. Owned by [`crate::SimNet`] and consulted on every enqueue.
///
/// The draw order per message is fixed (burst, drop, dup, jitter) so a
/// plan change perturbs only the faults it configures.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    burst_left: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector executing `plan` with randomness from `rng`.
    pub fn new(plan: FaultPlan, rng: SimRng) -> Self {
        FaultInjector { plan, rng, burst_left: 0, stats: FaultStats::default() }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one message. `droppable` is whether the
    /// receiver is outside the sender's `reliable_set` (only such
    /// messages may be lost or duplicated; jitter applies to all).
    pub fn on_send(&mut self, droppable: bool) -> FaultAction {
        if droppable {
            if self.burst_left > 0 {
                self.burst_left -= 1;
                self.stats.injected_drops += 1;
                return FaultAction::Drop;
            }
            if self.plan.burst > 0.0 && self.rng.chance(self.plan.burst) {
                self.stats.bursts += 1;
                self.burst_left = self.plan.effective_burst_len().saturating_sub(1);
                self.stats.injected_drops += 1;
                return FaultAction::Drop;
            }
            if self.plan.drop > 0.0 && self.rng.chance(self.plan.drop) {
                self.stats.injected_drops += 1;
                return FaultAction::Drop;
            }
        }
        let copies = if droppable && self.plan.dup > 0.0 && self.rng.chance(self.plan.dup) {
            self.stats.injected_dups += 1;
            2
        } else {
            1
        };
        let extra_delay = if self.plan.reorder_ms > 0 {
            let us = self.rng.range(0, self.plan.reorder_ms * 1_000 + 1);
            if us > 0 {
                self.stats.delayed += 1;
            }
            SimTime::from_micros(us)
        } else {
            SimTime::ZERO
        };
        FaultAction::Deliver { copies, extra_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector::new(plan, SimRng::new(seed))
    }

    #[test]
    fn none_plan_is_identity() {
        let mut inj = injector(FaultPlan::none(), 1);
        assert!(FaultPlan::none().is_none());
        for droppable in [false, true] {
            assert_eq!(
                inj.on_send(droppable),
                FaultAction::Deliver { copies: 1, extra_delay: SimTime::ZERO }
            );
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn certain_drop_only_hits_droppable_messages() {
        let mut inj = injector(FaultPlan { drop: 1.0, ..FaultPlan::default() }, 2);
        assert_eq!(inj.on_send(true), FaultAction::Drop);
        // Reliable-channel messages are never lost, whatever the plan.
        assert!(matches!(inj.on_send(false), FaultAction::Deliver { copies: 1, .. }));
        assert_eq!(inj.stats().injected_drops, 1);
    }

    #[test]
    fn burst_loses_a_window_of_droppable_messages() {
        let plan = FaultPlan { burst: 1.0, burst_len: 3, ..FaultPlan::default() };
        let mut inj = injector(plan, 3);
        // First droppable send opens the window; the window spans 3 total.
        assert_eq!(inj.on_send(true), FaultAction::Drop);
        // Reliable messages pass through mid-burst without consuming it.
        assert!(matches!(inj.on_send(false), FaultAction::Deliver { .. }));
        assert_eq!(inj.on_send(true), FaultAction::Drop);
        assert_eq!(inj.on_send(true), FaultAction::Drop);
        assert_eq!(inj.stats().injected_drops, 3);
        assert!(inj.stats().bursts >= 1);
    }

    #[test]
    fn dup_adds_a_copy_on_droppable_channels_only() {
        let plan = FaultPlan { dup: 1.0, ..FaultPlan::default() };
        assert!(!plan.within_spec_envelope());
        let mut inj = injector(plan, 4);
        assert!(matches!(inj.on_send(true), FaultAction::Deliver { copies: 2, .. }));
        assert!(matches!(inj.on_send(false), FaultAction::Deliver { copies: 1, .. }));
        assert_eq!(inj.stats().injected_dups, 1);
    }

    #[test]
    fn jitter_applies_to_all_channels() {
        let plan = FaultPlan { reorder_ms: 50, ..FaultPlan::default() };
        let mut inj = injector(plan, 5);
        let mut saw_delay = false;
        for droppable in [true, false, true, false, true, false] {
            match inj.on_send(droppable) {
                FaultAction::Deliver { extra_delay, .. } => {
                    assert!(extra_delay <= SimTime::from_millis(50));
                    saw_delay |= extra_delay > SimTime::ZERO;
                }
                FaultAction::Drop => panic!("jitter-only plan must not drop"),
            }
        }
        assert!(saw_delay, "50ms jitter never produced a delay in 6 draws");
    }

    #[test]
    fn deterministic_per_seed() {
        let plan = FaultPlan { drop: 0.3, dup: 0.1, reorder_ms: 10, burst: 0.05, burst_len: 4 };
        let run = |seed| {
            let mut inj = injector(plan.clone(), seed);
            (0..200).map(|i| inj.on_send(i % 3 != 0)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn plan_serde_roundtrip_with_defaults() {
        let plan = FaultPlan { drop: 0.25, reorder_ms: 5, ..FaultPlan::default() };
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan parses");
        assert_eq!(plan, back);
        // Omitted fields take their documented defaults.
        let sparse: FaultPlan = serde_json::from_str("{\"drop\": 0.5}").expect("sparse parses");
        assert_eq!(sparse.effective_burst_len(), FaultPlan::DEFAULT_BURST_LEN);
        assert_eq!(sparse.dup, 0.0);
    }
}
