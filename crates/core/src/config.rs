//! End-point configuration: layer selection and optimization knobs.

use crate::batch::BatchConfig;
use crate::forward::ForwardStrategyKind;

/// Which prefix of the paper's inheritance chain the end-point runs.
///
/// This is the ablation knob for the `ablation_layers` experiment: each
/// variant satisfies the specs of its layer and everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stack {
    /// `WV_RFIFO_p` only (Fig. 9): within-view reliable FIFO multicast.
    Wv,
    /// `VS_RFIFO+TS_p` (Fig. 10): adds Virtual Synchrony and Transitional
    /// Sets.
    VsTs,
    /// `GCS_p` (Fig. 11): adds Self Delivery via application blocking.
    #[default]
    Full,
}

impl Stack {
    /// Whether the Virtual Synchrony / Transitional Set layer is active.
    pub fn has_vs(self) -> bool {
        !matches!(self, Stack::Wv)
    }

    /// Whether the Self Delivery (blocking) layer is active.
    pub fn has_sd(self) -> bool {
        matches!(self, Stack::Full)
    }
}

/// End-point configuration.
///
/// The default is the full paper algorithm with the simple (eager)
/// forwarding strategy and the optimizations off.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Layer selection (ablation knob).
    pub stack: Stack,
    /// Which `ForwardingStrategyPredicate` of §5.2.2 to use.
    pub forward: ForwardStrategyKind,
    /// §5.2.4 optimization: send *slim* synchronization messages (cid
    /// only, no view / cut) to processes outside the current view — they
    /// only need to learn "I am not in your transitional set".
    pub slim_sync: bool,
    /// Second §5.2.4 optimization: omit cut entries about continuing
    /// members (`start_change.set ∩ current_view.set`) — each member's own
    /// synchronization message, riding in-stream on its FIFO channels,
    /// terminates its message sequence identically at every receiver.
    /// Assumes the strengthened membership of §5.2.4 (a fresh
    /// `start_change` whenever the membership changes its mind) and is
    /// incompatible with [`Config::aggregation`] (leader-relayed syncs do
    /// not ride the sender's stream).
    pub implicit_cuts: bool,
    /// §9 extension: aggregate synchronization messages through a
    /// deterministic leader (two-tier hierarchy) instead of all-to-all.
    pub aggregation: bool,
    /// Application-message batching stage (see [`crate::batch`]). The
    /// default is off (per-message sends, the paper's original behavior).
    pub batch: BatchConfig,
    /// Self-stabilization tier: run the [`crate::audit`] legal-state
    /// predicate on every clock tick and, on failure, reconcile through
    /// the §8 crash/recovery path ([`crate::Effect::Reconciled`]). Off by
    /// default — legal executions never trip the audit, but the scan
    /// itself is not free on the hot path.
    pub audit: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            stack: Stack::Full,
            forward: ForwardStrategyKind::Eager,
            slim_sync: false,
            implicit_cuts: false,
            aggregation: false,
            batch: BatchConfig::off(),
            audit: false,
        }
    }
}

impl Config {
    /// The full algorithm with both §5.2.4 optimizations enabled
    /// (aggregation stays off: it conflicts with implicit cuts).
    pub fn optimized() -> Self {
        Config { slim_sync: true, implicit_cuts: true, ..Config::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_stack() {
        let c = Config::default();
        assert_eq!(c.stack, Stack::Full);
        assert!(c.stack.has_vs());
        assert!(c.stack.has_sd());
        assert!(!c.slim_sync);
        assert!(!c.batch.enabled());
    }

    #[test]
    fn layer_predicates() {
        assert!(!Stack::Wv.has_vs());
        assert!(!Stack::Wv.has_sd());
        assert!(Stack::VsTs.has_vs());
        assert!(!Stack::VsTs.has_sd());
        assert!(Stack::Full.has_vs());
        assert!(Stack::Full.has_sd());
    }

    #[test]
    fn optimized_enables_both_524_optimizations() {
        let c = Config::optimized();
        assert!(c.slim_sync);
        assert!(c.implicit_cuts);
        assert!(!c.aggregation);
    }
}
