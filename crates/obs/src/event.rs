//! The protocol event vocabulary and journal records.

use serde::{Serialize, Value};
use std::fmt;
use vsgm_ioa::SimTime;
use vsgm_types::{ProcessId, StartChangeId};

/// One protocol-level observation, deliberately compact (a plain `Copy`
/// discriminant): the interesting payload — which process, which
/// view-change span — lives in the enclosing [`ObsRecord`].
///
/// The vocabulary mirrors the paper's automata: the membership interface
/// (Fig. 2), the virtual-synchrony round (Figs. 5–7), the blocking
/// handshake, forwarding (§5.2.2), and crash/recovery (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObsEvent {
    /// `MBRSHP.start_change` received by an end-point: a view-change span
    /// opens (the record's `cid` is the span key).
    StartChangeRecv,
    /// The end-point multicast its synchronization message for the
    /// current span.
    SyncSent,
    /// A peer's synchronization message was processed.
    SyncRecv,
    /// The end-point completed its cut (all syncs gathered): view
    /// delivery became enabled.
    CutAgreed,
    /// The GCS view was installed and delivered to the application: the
    /// span closes.
    ViewInstalled,
    /// The GCS asked the application to stop sending (`block`).
    BlockRequested,
    /// The application acknowledged the block request (`block_ok`).
    BlockOk,
    /// A forwarded copy of an application message was sent (§5.2.2).
    ForwardSent,
    /// An application message was multicast on the wire.
    MsgSent,
    /// An application message was delivered to the application.
    MsgDelivered,
    /// Crash recovery reset the end-point's volatile state (§8).
    RecoveryReset,
    /// A pending application-message batch was flushed to the wire (the
    /// flush cause and size are recorded as counters/histograms).
    BatchFlushed,
    /// A specification or proof invariant was observed violated.
    InvariantViolated,
    /// A state-corruption fault was injected into a live end-point (the
    /// self-stabilization chaos tier).
    CorruptionInjected,
    /// The tick-cadence `StateAudit` found the local state illegal.
    AuditFailed,
    /// The end-point reconciled: audit failure routed through the §8
    /// reset, volatile state wiped.
    AuditReconciled,
}

impl ObsEvent {
    /// Every event kind, in declaration order (for table exporters).
    pub const ALL: [ObsEvent; 16] = [
        ObsEvent::StartChangeRecv,
        ObsEvent::SyncSent,
        ObsEvent::SyncRecv,
        ObsEvent::CutAgreed,
        ObsEvent::ViewInstalled,
        ObsEvent::BlockRequested,
        ObsEvent::BlockOk,
        ObsEvent::ForwardSent,
        ObsEvent::MsgSent,
        ObsEvent::MsgDelivered,
        ObsEvent::RecoveryReset,
        ObsEvent::BatchFlushed,
        ObsEvent::InvariantViolated,
        ObsEvent::CorruptionInjected,
        ObsEvent::AuditFailed,
        ObsEvent::AuditReconciled,
    ];

    /// Stable snake_case name (used in JSON exports).
    pub const fn name(self) -> &'static str {
        match self {
            ObsEvent::StartChangeRecv => "start_change_recv",
            ObsEvent::SyncSent => "sync_sent",
            ObsEvent::SyncRecv => "sync_recv",
            ObsEvent::CutAgreed => "cut_agreed",
            ObsEvent::ViewInstalled => "view_installed",
            ObsEvent::BlockRequested => "block_requested",
            ObsEvent::BlockOk => "block_ok",
            ObsEvent::ForwardSent => "forward_sent",
            ObsEvent::MsgSent => "msg_sent",
            ObsEvent::MsgDelivered => "msg_delivered",
            ObsEvent::RecoveryReset => "recovery_reset",
            ObsEvent::BatchFlushed => "batch_flushed",
            ObsEvent::InvariantViolated => "invariant_violated",
            ObsEvent::CorruptionInjected => "corruption_injected",
            ObsEvent::AuditFailed => "audit_failed",
            ObsEvent::AuditReconciled => "audit_reconciled",
        }
    }

    /// Name of the registry counter bumped once per occurrence.
    pub const fn counter_name(self) -> &'static str {
        match self {
            ObsEvent::StartChangeRecv => "obs.start_change_recv",
            ObsEvent::SyncSent => "obs.sync_sent",
            ObsEvent::SyncRecv => "obs.sync_recv",
            ObsEvent::CutAgreed => "obs.cut_agreed",
            ObsEvent::ViewInstalled => "obs.view_installed",
            ObsEvent::BlockRequested => "obs.block_requested",
            ObsEvent::BlockOk => "obs.block_ok",
            ObsEvent::ForwardSent => "obs.forward_sent",
            ObsEvent::MsgSent => "obs.msg_sent",
            ObsEvent::MsgDelivered => "obs.msg_delivered",
            ObsEvent::RecoveryReset => "obs.recovery_reset",
            ObsEvent::BatchFlushed => "obs.batch_flushed",
            ObsEvent::InvariantViolated => "obs.invariant_violated",
            ObsEvent::CorruptionInjected => "obs.corruption_injected",
            ObsEvent::AuditFailed => "obs.audit_failed",
            ObsEvent::AuditReconciled => "obs.audit_reconciled",
        }
    }
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One journal entry: an [`ObsEvent`] stamped with the process it occurred
/// at, a journal-local logical step, the simulated time, and — when the
/// event belongs to a view change — the *local* start-change id grouping
/// it into that span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsRecord {
    /// Process the event occurred at.
    pub pid: ProcessId,
    /// Monotone logical step assigned by the recorder.
    pub step: u64,
    /// Simulated time of the event.
    pub time: SimTime,
    /// Local start-change id (the span key), when the event belongs to a
    /// view-change span. `StartChangeId` is only locally unique (§3.1),
    /// so spans are keyed by `(pid, cid)`.
    pub cid: Option<StartChangeId>,
    /// The event kind.
    pub event: ObsEvent,
}

impl Serialize for ObsRecord {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("pid".to_string(), Value::U64(self.pid.raw())),
            ("step".to_string(), Value::U64(self.step)),
            ("time_us".to_string(), Value::U64(self.time.as_micros())),
            ("event".to_string(), Value::Str(self.event.name().to_string())),
        ];
        if let Some(cid) = self.cid {
            pairs.push(("cid".to_string(), Value::U64(cid.raw())));
        }
        Value::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where each variant sits in `ALL`. The match is exhaustive, so a
    /// new variant does not compile here until it is given a place.
    fn position(e: ObsEvent) -> usize {
        match e {
            ObsEvent::StartChangeRecv => 0,
            ObsEvent::SyncSent => 1,
            ObsEvent::SyncRecv => 2,
            ObsEvent::CutAgreed => 3,
            ObsEvent::ViewInstalled => 4,
            ObsEvent::BlockRequested => 5,
            ObsEvent::BlockOk => 6,
            ObsEvent::ForwardSent => 7,
            ObsEvent::MsgSent => 8,
            ObsEvent::MsgDelivered => 9,
            ObsEvent::RecoveryReset => 10,
            ObsEvent::BatchFlushed => 11,
            ObsEvent::InvariantViolated => 12,
            ObsEvent::CorruptionInjected => 13,
            ObsEvent::AuditFailed => 14,
            ObsEvent::AuditReconciled => 15,
        }
    }

    /// `ALL` is every variant once, in declaration order. (That the
    /// instrumented layers emit each kind is `vsgm-harness`'s
    /// `obs_enabled_runs_journal_every_event_kind`.)
    #[test]
    fn all_lists_every_variant_once_in_declaration_order() {
        for (i, e) in ObsEvent::ALL.into_iter().enumerate() {
            assert_eq!(position(e), i, "{e:?}");
            assert_eq!(e as usize, i, "{e:?}");
        }
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = ObsEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ObsEvent::ALL.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{n}");
        }
    }

    #[test]
    fn record_serializes_with_optional_cid() {
        let r = ObsRecord {
            pid: ProcessId::new(3),
            step: 7,
            time: SimTime::from_micros(42),
            cid: Some(StartChangeId::new(5)),
            event: ObsEvent::SyncSent,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"event\":\"sync_sent\""), "{json}");
        assert!(json.contains("\"cid\":5"), "{json}");
        let bare = ObsRecord { cid: None, ..r };
        assert!(!serde_json::to_string(&bare).unwrap().contains("cid"));
    }
}
