//! A scripted, spec-compliant membership oracle for simulations.

use vsgm_types::{ProcSet, ProcessId, StartChangeId, VecMap, View, ViewId};

/// One `start_change_p(cid, set)` notification to be delivered to `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notice {
    /// Recipient end-point.
    pub p: ProcessId,
    /// Locally unique start-change identifier.
    pub cid: StartChangeId,
    /// Suggested membership of the forthcoming view.
    pub set: ProcSet,
}

#[derive(Debug, Clone, Default)]
struct ClientState {
    /// Next cid counter; cids start at 1 (`cid₀ = 0` labels the initial
    /// view and is never reissued).
    next_cid: u64,
    /// Last `start_change` whose view has not been delivered yet
    /// (`mode = change_started` in Fig. 2).
    pending: Option<(StartChangeId, ProcSet)>,
    /// Epoch of the last view delivered to this client (monotonicity
    /// floor; survives client crashes — the membership service itself
    /// does not crash, §8).
    last_epoch: u64,
}

/// A centralized membership service under scenario control.
///
/// The simulation harness decides *when* reconfigurations happen; the
/// oracle makes every emitted notification satisfy the `MBRSHP` spec
/// (Fig. 2). It is deliberately *partitionable*: concurrent views with
/// disjoint member sets can be formed for different partition components
/// by passing different `proposer` tie-breakers.
///
/// ```
/// use vsgm_membership::MembershipOracle;
/// use vsgm_types::{ProcSet, ProcessId};
///
/// let p1 = ProcessId::new(1);
/// let p2 = ProcessId::new(2);
/// let members: ProcSet = [p1, p2].into_iter().collect();
///
/// let mut oracle = MembershipOracle::new();
/// let notices = oracle.start_change(&members);
/// assert_eq!(notices.len(), 2);
/// let view = oracle.form_view(&members, 0);
/// assert_eq!(view.members(), &members);
/// assert_eq!(view.start_id(p1), Some(notices[0].cid));
/// ```
#[derive(Debug, Default)]
pub struct MembershipOracle {
    clients: VecMap<ProcessId, ClientState>,
}

impl MembershipOracle {
    /// Creates an oracle with every client in its initial state.
    pub fn new() -> Self {
        MembershipOracle::default()
    }

    fn client(&mut self, p: ProcessId) -> &mut ClientState {
        self.clients.entry(p).or_insert_with(|| ClientState {
            next_cid: 1,
            pending: None,
            last_epoch: 0,
        })
    }

    /// Starts (or cascades) a membership change suggesting `suggested` as
    /// the next membership, notifying every process in `suggested`.
    /// Returns the notifications to deliver, in process order.
    pub fn start_change(&mut self, suggested: &ProcSet) -> Vec<Notice> {
        self.start_change_for(suggested, suggested)
    }

    /// Like [`MembershipOracle::start_change`] but notifies only
    /// `targets` (processes in other partition components may be notified
    /// separately with a different suggestion).
    ///
    /// # Panics
    ///
    /// Panics if some target is not in `suggested` — the spec requires
    /// `p ∈ set` for every `start_change_p(cid, set)`.
    pub fn start_change_for(&mut self, targets: &ProcSet, suggested: &ProcSet) -> Vec<Notice> {
        let mut out = Vec::new();
        for p in targets {
            assert!(
                suggested.contains(p),
                "start_change to {p} must include it in the suggested set"
            );
            let st = self.client(*p);
            let cid = StartChangeId::new(st.next_cid);
            st.next_cid += 1;
            st.pending = Some((cid, suggested.clone()));
            out.push(Notice { p: *p, cid, set: suggested.clone() });
        }
        out
    }

    /// Forms the view the pending change resolves to, for the given
    /// member set. `proposer` is the [`ViewId`] tie-breaker, letting
    /// disjoint partition components form concurrent views.
    ///
    /// The caller delivers the returned view to each member (e.g. as
    /// `Event::MbrshpView`); the oracle transitions those members back to
    /// `mode = normal`.
    ///
    /// # Panics
    ///
    /// Panics if some member has no pending `start_change`, or if its
    /// pending suggestion does not cover `members` (the spec's
    /// `v.set ⊆ start_change[p].set`) — both indicate a scenario bug.
    pub fn form_view(&mut self, members: &ProcSet, proposer: u64) -> View {
        let mut epoch = 0;
        let mut start_ids: Vec<(ProcessId, StartChangeId)> = Vec::new();
        for p in members {
            let st = self.client(*p);
            let (cid, suggested) = st.pending.as_ref().unwrap_or_else(
                // The documented scenario-bug panic: the oracle drives
                // hand-written scenarios, and a member without a pending
                // change means the scenario itself violates the spec's
                // form_view precondition.
                // vsgm-allow(P1): documented scenario-bug check
                || panic!("form_view: {p} has no pending start_change"),
            );
            assert!(
                members.iter().all(|m| suggested.contains(m)),
                "form_view: {p}'s suggested set {suggested:?} does not cover {members:?}"
            );
            start_ids.push((*p, *cid));
            epoch = epoch.max(st.last_epoch);
        }
        epoch += 1;
        let view = View::new(ViewId::new(epoch, proposer), members.iter().copied(), start_ids);
        for p in members {
            let st = self.client(*p);
            st.pending = None;
            st.last_epoch = epoch;
        }
        view
    }

    /// Convenience: a full reconfiguration — one `start_change` round to
    /// the members followed by the view. Returns `(notices, view)`.
    pub fn reconfigure(&mut self, members: &ProcSet, proposer: u64) -> (Vec<Notice>, View) {
        let notices = self.start_change(members);
        let view = self.form_view(members, proposer);
        (notices, view)
    }

    /// Whether `p` currently has a pending change (`mode =
    /// change_started`).
    pub fn change_pending(&self, p: ProcessId) -> bool {
        self.clients.get(&p).is_some_and(|st| st.pending.is_some())
    }

    /// The last start-change identifier issued to `p`, if any.
    pub fn last_cid(&self, p: ProcessId) -> Option<StartChangeId> {
        self.clients.get(&p).and_then(|st| st.pending.as_ref().map(|(c, _)| *c))
    }

    /// §8: `recover_p()` resets the service's mode for `p` to `normal`,
    /// so a fresh `start_change` must precede `p`'s next view.
    pub fn recover(&mut self, p: ProcessId) {
        self.client(p).pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{Checker, SimTime, TraceEntry};
    use vsgm_spec::MbrshpSpec;
    use vsgm_types::Event;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn set(ids: &[u64]) -> ProcSet {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// Replays oracle output through the MBRSHP spec checker.
    struct SpecHarness {
        spec: MbrshpSpec,
        step: u64,
    }

    impl SpecHarness {
        fn new() -> Self {
            SpecHarness { spec: MbrshpSpec::new(), step: 0 }
        }

        fn feed(&mut self, event: Event) {
            let entry = TraceEntry { step: self.step, time: SimTime::ZERO, event };
            self.step += 1;
            self.spec.observe(&entry).expect("oracle output must satisfy MBRSHP spec");
        }

        fn notices(&mut self, notices: &[Notice]) {
            for n in notices {
                self.feed(Event::MbrshpStartChange { p: n.p, cid: n.cid, set: n.set.clone() });
            }
        }

        fn view(&mut self, view: &View) {
            for m in view.members() {
                self.feed(Event::MbrshpView { p: *m, view: view.clone() });
            }
        }
    }

    #[test]
    fn simple_reconfiguration_is_spec_compliant() {
        let mut oracle = MembershipOracle::new();
        let mut h = SpecHarness::new();
        let (notices, view) = oracle.reconfigure(&set(&[1, 2, 3]), 0);
        h.notices(&notices);
        h.view(&view);
        assert_eq!(view.len(), 3);
        assert_eq!(view.id().epoch, 1);
    }

    #[test]
    fn cascaded_changes_are_spec_compliant() {
        let mut oracle = MembershipOracle::new();
        let mut h = SpecHarness::new();
        let n1 = oracle.start_change(&set(&[1, 2]));
        h.notices(&n1);
        // Membership changes its mind: p3 joins mid-change.
        let n2 = oracle.start_change(&set(&[1, 2, 3]));
        h.notices(&n2);
        let view = oracle.form_view(&set(&[1, 2, 3]), 0);
        h.view(&view);
        // The view carries the *latest* cids.
        assert_eq!(view.start_id(p(1)), Some(n2[0].cid));
        assert!(n2[0].cid > n1[0].cid);
    }

    #[test]
    fn view_can_shrink_below_suggestion() {
        let mut oracle = MembershipOracle::new();
        let mut h = SpecHarness::new();
        let notices = oracle.start_change(&set(&[1, 2, 3]));
        h.notices(&notices);
        // Only {1,2} end up in the view; p3 is elsewhere.
        let view = oracle.form_view(&set(&[1, 2]), 0);
        h.view(&view);
        assert_eq!(view.members(), &set(&[1, 2]));
    }

    #[test]
    fn concurrent_partitioned_views() {
        let mut oracle = MembershipOracle::new();
        let mut h = SpecHarness::new();
        // First everyone joins one view.
        let (n, v) = oracle.reconfigure(&set(&[1, 2, 3, 4]), 0);
        h.notices(&n);
        h.view(&v);
        // Partition {1,2} | {3,4}: two concurrent views.
        let na = oracle.start_change_for(&set(&[1, 2]), &set(&[1, 2]));
        let nb = oracle.start_change_for(&set(&[3, 4]), &set(&[3, 4]));
        h.notices(&na);
        h.notices(&nb);
        let va = oracle.form_view(&set(&[1, 2]), 0);
        let vb = oracle.form_view(&set(&[3, 4]), 1);
        h.view(&va);
        h.view(&vb);
        assert_ne!(va.id(), vb.id());
        // Merge back.
        let nm = oracle.start_change(&set(&[1, 2, 3, 4]));
        h.notices(&nm);
        let vm = oracle.form_view(&set(&[1, 2, 3, 4]), 0);
        h.view(&vm);
        assert!(vm.id() > va.id() && vm.id() > vb.id());
    }

    #[test]
    fn cids_are_locally_unique_and_increasing() {
        let mut oracle = MembershipOracle::new();
        let n1 = oracle.start_change(&set(&[1]));
        let v = oracle.form_view(&set(&[1]), 0);
        let n2 = oracle.start_change(&set(&[1]));
        assert!(n2[0].cid > n1[0].cid);
        assert_eq!(v.start_id(p(1)), Some(n1[0].cid));
    }

    #[test]
    #[should_panic(expected = "no pending start_change")]
    fn view_without_start_change_panics() {
        let mut oracle = MembershipOracle::new();
        oracle.form_view(&set(&[1]), 0);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn view_exceeding_suggestion_panics() {
        let mut oracle = MembershipOracle::new();
        oracle.start_change(&set(&[1]));
        oracle.start_change_for(&set(&[2]), &set(&[1, 2]));
        // p1's suggestion {1} does not cover {1,2}.
        oracle.form_view(&set(&[1, 2]), 0);
    }

    #[test]
    fn recovery_requires_fresh_start_change() {
        let mut oracle = MembershipOracle::new();
        let mut h = SpecHarness::new();
        let n = oracle.start_change(&set(&[1]));
        h.notices(&n);
        h.feed(Event::Crash { p: p(1) });
        oracle.recover(p(1));
        h.feed(Event::Recover { p: p(1) });
        assert!(!oracle.change_pending(p(1)));
        // A fresh change is needed before the next view.
        let n2 = oracle.start_change(&set(&[1]));
        h.notices(&n2);
        let v = oracle.form_view(&set(&[1]), 0);
        h.view(&v);
    }

    #[test]
    fn last_cid_reflects_pending_change() {
        let mut oracle = MembershipOracle::new();
        assert_eq!(oracle.last_cid(p(1)), None);
        let n = oracle.start_change(&set(&[1]));
        assert_eq!(oracle.last_cid(p(1)), Some(n[0].cid));
        oracle.form_view(&set(&[1]), 0);
        assert_eq!(oracle.last_cid(p(1)), None);
    }
}
