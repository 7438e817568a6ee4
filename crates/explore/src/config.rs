//! Explorer configurations: the scripted external events whose
//! interleavings (with endpoint actions and channel deliveries) are
//! enumerated, plus the canonical seed configurations the regression
//! tests pin.

use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

/// What a scripted external event does at its process.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtKind {
    /// The application multicasts a message (`send_p`). Gated at
    /// exploration time on the client not being blocked, so the
    /// `CLIENT:SPEC` checker stays meaningful on every path.
    Send(AppMsg),
    /// A `mbrshp.start_change_p(cid, set)` notification.
    StartChange {
        /// Locally unique start-change identifier.
        cid: StartChangeId,
        /// Suggested membership.
        set: ProcSet,
    },
    /// A `mbrshp.view_p(v)` notification.
    View(View),
    /// `crash_p()` (§8): freeze the endpoint and wipe its channels.
    Crash,
    /// `recover_p()` (§8): restart with initial state, same identity.
    Recover,
    /// The host asks for a stability acknowledgement (`ack_due_p`,
    /// DESIGN.md §18). Not a trace event itself: the checkers see the
    /// `ack_msg` the endpoint then sends.
    AckDue,
    /// A transient state-corruption fault (DESIGN.md §15): mutate the
    /// endpoint's protocol state in place. The explorer runs the
    /// tick-cadence `StateAudit` atomically with the injection, so each
    /// path sees either a no-op or a legal §8 crash/recover pair — the
    /// deviation window never leaks into a judged trace.
    Corrupt(vsgm_core::CorruptionKind),
}

/// One scripted external event, with its happens-before prerequisites.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtEvent {
    /// The process the event occurs at.
    pub p: ProcessId,
    /// What happens.
    pub kind: ExtKind,
    /// Indices (into [`ExploreConfig::events`]) that must have fired
    /// first. Used to keep each process's membership notifications in
    /// the order the service would emit them; events without mutual
    /// prerequisites race freely.
    pub after: Vec<usize>,
}

/// A small model configuration: the fixed part (endpoints, deterministic
/// setup) and the explored part (external events raced against every
/// endpoint action and channel delivery).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Human-readable name (used by the CLI and reports).
    pub name: String,
    /// Number of processes (`p1..pn`).
    pub n: u64,
    /// Endpoint configuration (e.g. §9 leader aggregation on).
    pub endpoint: vsgm_core::Config,
    /// Externals fired in order under a canonical drain *before*
    /// exploration starts — typically the initial view installation.
    /// Their events are part of every judged trace but contribute no
    /// branching.
    pub setup: Vec<ExtEvent>,
    /// Externals fired deterministically after `setup`, each followed by
    /// a macro-step of the *firing endpoint only* — its outgoing
    /// messages are left **in flight** rather than drained. This loads
    /// the channels so exploration can focus on delivery/flush races
    /// (e.g. sync-contribution arrival order at a leader) without also
    /// enumerating every ordering of the externals themselves.
    pub preload: Vec<ExtEvent>,
    /// The explored externals; all interleavings with endpoint actions
    /// and deliveries (respecting [`ExtEvent::after`]) are enumerated.
    pub events: Vec<ExtEvent>,
    /// The view every surviving member stabilizes to; enables the
    /// Property 4.2 liveness checker on every terminal path.
    pub final_view: Option<View>,
    /// Livelock guard: a single path exceeding this many transitions
    /// panics (the composition must quiesce).
    pub max_depth: usize,
}

fn pid(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn set_of(ids: &[u64]) -> ProcSet {
    ids.iter().map(|&i| pid(i)).collect()
}

/// Builds the membership view `members` would install for change `cid`
/// at epoch `epoch` (every member's start-change identifier is `cid`).
pub fn view_of(epoch: u64, cid: u64, members: &[u64]) -> View {
    let set = set_of(members);
    View::new(
        ViewId::new(epoch, 0),
        set.iter().copied(),
        set.iter().map(|m| (*m, StartChangeId::new(cid))),
    )
}

/// Appends a full view change (a `start_change` then the view, at every
/// member) to `events`, chaining each process's notifications after its
/// previous membership event in `chain`. When `serialize` is set, each
/// notification is additionally chained after the previously appended
/// one (a single global order for the service's notifications — the
/// message races stay fully explored, only external/external races are
/// fixed, which keeps larger configurations tractable). Returns the
/// formed view.
fn push_change(
    events: &mut Vec<ExtEvent>,
    chain: &mut std::collections::BTreeMap<ProcessId, usize>,
    epoch: u64,
    cid: u64,
    members: &[u64],
    serialize: bool,
) -> View {
    let set = set_of(members);
    let view = view_of(epoch, cid, members);
    for &m in members {
        let mut after: Vec<usize> = chain.get(&pid(m)).copied().into_iter().collect();
        if serialize && !events.is_empty() {
            after.push(events.len() - 1);
        }
        after.sort_unstable();
        after.dedup();
        events.push(ExtEvent {
            p: pid(m),
            kind: ExtKind::StartChange { cid: StartChangeId::new(cid), set: set.clone() },
            after,
        });
        chain.insert(pid(m), events.len() - 1);
    }
    for &m in members {
        let mut after: Vec<usize> = chain.get(&pid(m)).copied().into_iter().collect();
        if serialize && !events.is_empty() {
            after.push(events.len() - 1);
        }
        after.sort_unstable();
        after.dedup();
        events.push(ExtEvent { p: pid(m), kind: ExtKind::View(view.clone()), after });
        chain.insert(pid(m), events.len() - 1);
    }
    view
}

/// The setup script installing the initial view `members` (change `cid`
/// at epoch `epoch`) at every member.
fn initial_view_setup(epoch: u64, cid: u64, members: &[u64]) -> (Vec<ExtEvent>, View) {
    let mut setup = Vec::new();
    let mut chain = std::collections::BTreeMap::new();
    let view = push_change(&mut setup, &mut chain, epoch, cid, members, false);
    (setup, view)
}

impl ExploreConfig {
    /// The canonical 3-endpoint / one-view-change configuration of the
    /// acceptance criteria: from an installed view `{1,2,3}`, the group
    /// shrinks to `{1,2}`. Every interleaving of the survivors'
    /// membership notifications, the Fig. 10 synchronization round, and
    /// all channel deliveries is enumerated (the unpruned enumeration is
    /// also tractable, so the regression tests pin both counts).
    pub fn canonical() -> ExploreConfig {
        let (setup, _) = initial_view_setup(1, 1, &[1, 2, 3]);
        let mut events = Vec::new();
        let mut chain = std::collections::BTreeMap::new();
        let final_view = push_change(&mut events, &mut chain, 2, 2, &[1, 2], false);
        ExploreConfig {
            name: "canonical".to_string(),
            n: 3,
            endpoint: vsgm_core::Config::default(),
            setup,
            preload: Vec::new(),
            events,
            final_view: Some(final_view),
            max_depth: 2_000,
        }
    }

    /// §9 two-tier leader aggregation through a view change: three
    /// endpoints with `aggregation: true` and a same-membership epoch
    /// bump, so all three members synchronize and the leader (smallest
    /// id) aggregates the two others' sync messages. The start-change
    /// notifications are preloaded — each member has emitted its sync
    /// contribution but nothing is delivered — and exploration then
    /// enumerates every interleaving of contribution arrival at the
    /// leader, aggregate flush, and view delivery, which is exactly the
    /// nondeterminism `core/src/aggregation.rs` must tolerate.
    pub fn aggregation() -> ExploreConfig {
        let (setup, _) = initial_view_setup(1, 1, &[1, 2, 3]);
        let members = [1u64, 2, 3];
        let set = set_of(&members);
        let final_view = view_of(2, 2, &members);
        let preload: Vec<ExtEvent> = members
            .iter()
            .map(|&m| ExtEvent {
                p: pid(m),
                kind: ExtKind::StartChange { cid: StartChangeId::new(2), set: set.clone() },
                after: vec![],
            })
            .collect();
        let events: Vec<ExtEvent> = members
            .iter()
            .map(|&m| ExtEvent {
                p: pid(m),
                kind: ExtKind::View(final_view.clone()),
                after: vec![],
            })
            .collect();
        ExploreConfig {
            name: "aggregation".to_string(),
            n: 3,
            endpoint: vsgm_core::Config { aggregation: true, ..vsgm_core::Config::default() },
            setup,
            preload,
            events,
            final_view: Some(final_view),
            max_depth: 2_000,
        }
    }

    /// Crash/recovery (§8): from view `{1,2,3}`, a send races `p3`'s
    /// crash, the survivor change to `{1,2}`, and `p3`'s recovery. The
    /// crash commutes with nothing, so this exercises the explorer's
    /// global-transition handling and the §8 channel wipe.
    pub fn crash_recovery() -> ExploreConfig {
        let (setup, _) = initial_view_setup(1, 1, &[1, 2, 3]);
        let mut events = Vec::new();
        let mut chain = std::collections::BTreeMap::new();
        events.push(ExtEvent { p: pid(3), kind: ExtKind::Crash, after: vec![] });
        chain.insert(pid(3), events.len() - 1);
        let final_view = push_change(&mut events, &mut chain, 2, 2, &[1, 2], false);
        ExploreConfig {
            name: "crash-recovery".to_string(),
            n: 3,
            endpoint: vsgm_core::Config::default(),
            setup,
            preload: Vec::new(),
            events,
            final_view: Some(final_view),
            max_depth: 2_000,
        }
    }

    /// Self-stabilization (DESIGN.md §15): from view `{1,2,3}` with a
    /// multicast from `p3` still in flight, the survivors' change to
    /// `{1,2}` races a membership-scrambling corruption at `p3`. Audits
    /// are armed, so whenever the fault fires the endpoint must detect
    /// and reconcile through §8 — the checkers see a crash/recover pair
    /// at an arbitrary position in the change, the reconciliation's
    /// channel wipe races the delivery of `p3`'s last message, and the
    /// survivors must still install the final view on every path. `p3`
    /// is deliberately *outside* the final view: its reconciliation
    /// resets any installed state, so keeping it out of the liveness
    /// obligation separates "converged to a legal state" from "happened
    /// to rejoin", which the chaos tier covers with its post-fault
    /// reconfigure instead.
    pub fn corruption() -> ExploreConfig {
        let (setup, _) = initial_view_setup(1, 1, &[1, 2, 3]);
        let preload =
            vec![ExtEvent { p: pid(3), kind: ExtKind::Send(AppMsg::from("m3")), after: vec![] }];
        let mut events = Vec::new();
        let mut chain = std::collections::BTreeMap::new();
        events.push(ExtEvent {
            p: pid(3),
            kind: ExtKind::Corrupt(vsgm_core::CorruptionKind::ScrambleMembership),
            after: vec![],
        });
        chain.insert(pid(3), events.len() - 1);
        let final_view = push_change(&mut events, &mut chain, 2, 2, &[1, 2], false);
        ExploreConfig {
            name: "corruption".to_string(),
            n: 3,
            endpoint: vsgm_core::Config { audit: true, ..vsgm_core::Config::default() },
            setup,
            preload,
            events,
            final_view: Some(final_view),
            max_depth: 2_000,
        }
    }

    /// Stability (DESIGN.md §18): an acknowledgement round races a
    /// `start_change`. In view `{1,2,3}`, `p1`'s multicast has been
    /// delivered everywhere and `p3` has acknowledged it. Preloaded — sent,
    /// nothing delivered — are a multicast from `p2` and the
    /// acknowledgements of `p1` and `p2`; then `p3` leaves. Exploration
    /// enumerates every interleaving of those six arrivals (the last
    /// acknowledgement to arrive is the one that lets its receiver drop
    /// `m1`) with the survivors' membership notifications, their
    /// synchronization round and the view: whatever an end-point has
    /// dropped by the time it cuts, `{1,2}` must agree and install.
    pub fn ack_round() -> ExploreConfig {
        let (mut setup, _) = initial_view_setup(1, 1, &[1, 2, 3]);
        let send = |m, text| ExtEvent {
            p: pid(m),
            kind: ExtKind::Send(AppMsg::from(text)),
            after: vec![],
        };
        let ack_due = |m| ExtEvent { p: pid(m), kind: ExtKind::AckDue, after: vec![] };
        setup.push(send(1, "m1"));
        setup.push(ack_due(3));
        let preload = vec![send(2, "m2"), ack_due(1), ack_due(2)];
        let mut events = Vec::new();
        let mut chain = std::collections::BTreeMap::new();
        let final_view = push_change(&mut events, &mut chain, 2, 2, &[1, 2], false);
        ExploreConfig {
            name: "ack-round".to_string(),
            n: 3,
            endpoint: vsgm_core::Config::default(),
            setup,
            preload,
            events,
            final_view: Some(final_view),
            max_depth: 2_000,
        }
    }

    /// All seed configurations, in the order the smoke stage runs them.
    pub fn seeds() -> Vec<ExploreConfig> {
        vec![
            ExploreConfig::canonical(),
            ExploreConfig::aggregation(),
            ExploreConfig::crash_recovery(),
            ExploreConfig::corruption(),
            ExploreConfig::ack_round(),
        ]
    }
}
