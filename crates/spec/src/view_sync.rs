//! `WV_RFIFO:SPEC`, `VS_RFIFO:SPEC` and `TRANS_SET:SPEC` as the one
//! automaton they are in the paper (Figs. 4–6).

use crate::trans_set::{Transitions, TS};
use crate::vs_rfifo::{Cuts, VS};
use crate::wv_rfifo::{Windows, WV};
use vsgm_ioa::{Checker, TraceEntry, Violation};
use vsgm_types::{Cut, Event, ProcessId, VecMap, View, ViewId};

/// Checker for within-view reliable FIFO multicast (Fig. 4), Virtual
/// Synchrony (Fig. 5) and the Transitional Set property (Fig. 6).
///
/// Figs. 5 and 6 *modify* Fig. 4: the three are one automaton, with one
/// `current_view[p]`, one `last_dlvrd[q][p]` and one set of `view_p`
/// preconditions. The checker keeps that state once, in its
/// `ViewCursor`, and each figure's own state in a part: `wv_rfifo`'s
/// message windows, `vs_rfifo`'s agreed cuts, `trans_set`'s open
/// transitions.
///
/// On each event the parts judge it against the cursor as it stood
/// before; then the cursor moves, and the parts drop what no future event
/// can read. A `view_p(v)` the cursor refuses — `p` crashed, Self
/// Inclusion or Local Monotonicity violated — is not a transition: it is
/// reported once, as `WV_RFIFO:SPEC`'s, and the parts never see it; a
/// refused `deliver` moves nothing either. `observe` returns the first
/// violation in WV → VS → TS order, named after the spec it breaks.
#[derive(Debug, Default)]
pub struct ViewSyncSpec {
    pub(crate) cursor: ViewCursor,
    pub(crate) wv: Windows,
    pub(crate) vs: Cuts,
    pub(crate) ts: Transitions,
    /// Forget nothing and judge every transition at `finish`: the
    /// reference the forgetting differential compares against.
    retain_all: bool,
}

/// The per-process state of Fig. 4 that Figs. 5 and 6 read.
///
/// Crash/recovery (§8): a recovered process restarts as a fresh
/// incarnation in its initial view but keeps its floor, so Local
/// Monotonicity holds across the crash.
#[derive(Debug, Default)]
pub(crate) struct ViewCursor {
    /// The processes that ever changed view, crashed or recovered; any
    /// other is alive, in its initial view, at floor `vid₀` and
    /// incarnation 0.
    procs: VecMap<ProcessId, Proc>,
    /// `last_dlvrd[(sender, receiver)]`: messages from `sender` delivered
    /// to `receiver` in the receiver's current view.
    last_dlvrd: VecMap<(ProcessId, ProcessId), u64>,
}

/// A member's standing towards one view, as [`ViewCursor::reader`]
/// finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reader {
    /// Local Monotonicity still lets it install the view.
    CanInstall,
    /// It is alive and in the view now.
    Live,
    /// Neither: it will never read what is sent in the view.
    Gone,
}

#[derive(Debug)]
struct Proc {
    /// `current_view[p]`.
    view: View,
    /// Largest view id ever delivered (survives crashes).
    floor: ViewId,
    /// Bumped on recovery.
    inc: u64,
    crashed: bool,
}

impl ViewCursor {
    /// `current_view[p]`.
    pub(crate) fn view(&self, p: ProcessId) -> View {
        self.procs.get(&p).map_or_else(|| View::initial(p), |s| s.view.clone())
    }

    /// Whether `r` is in `v` now.
    pub(crate) fn is_in(&self, r: ProcessId, v: &View) -> bool {
        self.procs.get(&r).map_or_else(|| v.is_initial_of(r), |s| s.view == *v)
    }

    fn floor(&self, p: ProcessId) -> ViewId {
        self.procs.get(&p).map_or(ViewId::ZERO, |s| s.floor)
    }

    /// Whether Local Monotonicity still lets `r` install `v`.
    pub(crate) fn can_install(&self, r: ProcessId, v: &View) -> bool {
        self.floor(r) < v.id()
    }

    /// Where `r` stands as a reader of what is sent in `v`, found with
    /// one lookup of `r`: what [`ViewCursor::can_install`],
    /// [`ViewCursor::is_in`] and [`ViewCursor::crashed`] answer together.
    pub(crate) fn reader(&self, r: ProcessId, v: &View) -> Reader {
        let (floor, in_v, crashed) = match self.procs.get(&r) {
            Some(s) => (s.floor, s.view == *v, s.crashed),
            None => (ViewId::ZERO, v.is_initial_of(r), false),
        };
        if floor < v.id() {
            Reader::CanInstall
        } else if in_v && !crashed {
            Reader::Live
        } else {
            Reader::Gone
        }
    }

    pub(crate) fn incarnation(&self, p: ProcessId) -> u64 {
        self.procs.get(&p).map_or(0, |s| s.inc)
    }

    pub(crate) fn crashed(&self, p: ProcessId) -> bool {
        self.procs.get(&p).is_some_and(|s| s.crashed)
    }

    /// `last_dlvrd[sender][receiver]`.
    pub(crate) fn delivered(&self, sender: ProcessId, receiver: ProcessId) -> u64 {
        self.last_dlvrd.get(&(sender, receiver)).copied().unwrap_or(0)
    }

    /// What `receiver` has delivered in its current view, per sender.
    pub(crate) fn delivered_cut(&self, receiver: ProcessId) -> Cut {
        let of_receiver = self.last_dlvrd.iter().filter(|((_, r), _)| *r == receiver);
        of_receiver.map(|((s, _), n)| (*s, *n)).collect()
    }

    fn alive(&self, p: ProcessId, what: &str) -> Result<(), String> {
        if self.crashed(p) {
            return Err(format!("{what} at {p} while crashed"));
        }
        Ok(())
    }

    /// The preconditions of `view_p(view)`: `p` is alive, Self Inclusion
    /// and Local Monotonicity.
    fn admit(&self, p: ProcessId, view: &View) -> Result<(), String> {
        self.alive(p, "view")?;
        if !view.contains(p) {
            return Err(format!("view_{p}: Self Inclusion violated, {p} not in {view}"));
        }
        if !self.can_install(p, view) {
            return Err(format!(
                "view_{p}: Local Monotonicity violated, {} not greater than {}",
                view.id(),
                self.floor(p)
            ));
        }
        Ok(())
    }

    fn proc_mut(&mut self, p: ProcessId) -> &mut Proc {
        self.procs.entry(p).or_insert_with(|| Proc {
            view: View::initial(p),
            floor: ViewId::ZERO,
            inc: 0,
            crashed: false,
        })
    }

    /// Moves `p` into `view` (or, recovering, into its initial view): its
    /// delivery counts restart.
    fn enter(&mut self, p: ProcessId, view: &View) {
        let s = self.proc_mut(p);
        s.view = view.clone();
        s.floor = s.floor.max(view.id());
        self.last_dlvrd.retain(|(_, receiver), _| *receiver != p);
    }
}

impl ViewSyncSpec {
    /// Creates the checker in the spec's initial state.
    pub fn new() -> Self {
        ViewSyncSpec::default()
    }

    /// The checker that never forgets.
    #[cfg(test)]
    pub(crate) fn retaining() -> Self {
        ViewSyncSpec { retain_all: true, ..ViewSyncSpec::default() }
    }

    /// Lets the parts drop what the cursor's last move made unreadable.
    fn forget(&mut self) {
        if !self.retain_all {
            self.wv.forget(&self.cursor);
            self.vs.forget(&self.cursor);
        }
    }
}

impl Checker for ViewSyncSpec {
    fn observe(&mut self, entry: &TraceEntry) -> Result<(), Violation> {
        let step = entry.step;
        let named = |spec: &'static str| move |m: String| Violation::at_step(spec, step, m);
        let (wv, vs, ts) = (named(WV), named(VS), named(TS));
        match &entry.event {
            Event::Send { p, msg } => {
                self.cursor.alive(*p, "send").map_err(wv)?;
                self.wv.send(&self.cursor, *p, msg).map_err(wv)
            }
            Event::Deliver { p: q, q: sender, msg } => {
                self.cursor.alive(*q, "deliver").map_err(wv)?;
                let oldest = self.wv.deliver(&self.cursor, *q, *sender, msg).map_err(wv)?;
                *self.cursor.last_dlvrd.entry((*sender, *q)).or_insert(0) += 1;
                if let Some(v) = oldest.filter(|_| !self.retain_all) {
                    self.wv.forget_read(&self.cursor, &v, *sender);
                }
                Ok(())
            }
            Event::GcsView { p, view, transitional: t } => {
                self.cursor.admit(*p, view).map_err(wv)?;
                let cut = self.vs.transition(&self.cursor, *p, view).map_err(vs);
                let local = self.ts.transition(&self.cursor, *p, view, t, step).map_err(ts);
                self.cursor.enter(*p, view);
                self.forget();
                cut.and(local)?;
                // Settled only when nothing else is reported here, so no
                // cross-process verdict is lost to an earlier one: a view
                // left open is judged at the next settling or at the end.
                if self.retain_all {
                    return Ok(());
                }
                self.ts.settle(&self.cursor).map_err(ts)
            }
            Event::Crash { p } => {
                self.cursor.proc_mut(*p).crashed = true;
                self.forget();
                Ok(())
            }
            Event::Recover { p } => {
                let s = self.cursor.proc_mut(*p);
                s.crashed = false;
                s.inc += 1;
                self.cursor.enter(*p, &View::initial(*p));
                self.forget();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), Violation> {
        self.ts.finish().map_err(|m| Violation::at_end(TS, m))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{AppMsg, StartChangeId};

    /// Replays `events`, numbered from 0, through a fresh checker,
    /// `finish` included, and returns it with every violation it reported.
    pub(crate) fn replay(events: Vec<Event>) -> (ViewSyncSpec, Vec<Violation>) {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        let mut spec = ViewSyncSpec::new();
        let mut found: Vec<Violation> =
            trace.entries().iter().filter_map(|e| spec.observe(e).err()).collect();
        found.extend(spec.finish().err());
        (spec, found)
    }

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn view12(epoch: u64) -> View {
        View::new(
            ViewId::new(epoch, 0),
            [p(1), p(2)],
            [(p(1), StartChangeId::new(epoch)), (p(2), StartChangeId::new(epoch))],
        )
    }

    fn install(at: u64, v: &View, t: &[u64]) -> Event {
        let transitional = t.iter().map(|&i| p(i)).collect();
        Event::GcsView { p: p(at), view: v.clone(), transitional }
    }

    fn deliver(to: u64, from: u64, s: &str) -> Event {
        Event::Deliver { p: p(to), q: p(from), msg: AppMsg::from(s) }
    }

    fn standard_verdict(events: Vec<Event>) -> Vec<Violation> {
        let mut trace = Trace::new();
        for e in events {
            trace.record(SimTime::ZERO, e);
        }
        crate::standard_checks().run(trace.entries()).to_vec()
    }

    #[test]
    fn a_stale_view_is_reported_once() {
        let (v1, v2) = (view12(1), view12(2));
        let violations = standard_verdict(vec![
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            install(1, &v2, &[1, 2]),
            install(2, &v2, &[1, 2]),
            install(1, &v1, &[1, 2]),
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].checker, WV, "{violations:?}");
        assert_eq!(violations[0].step, Some(4), "{violations:?}");
        assert!(violations[0].message.contains("Local Monotonicity"), "{violations:?}");
    }

    #[test]
    fn a_rejected_duplicate_delivery_does_not_shift_the_cut() {
        let (v1, v2) = (view12(1), view12(2));
        let violations = standard_verdict(vec![
            install(1, &v1, &[1]),
            install(2, &v1, &[2]),
            Event::Send { p: p(1), msg: AppMsg::from("a") },
            deliver(1, 1, "a"),
            deliver(2, 1, "a"),
            deliver(2, 1, "a"),
            // p2 moves first, so its count fixes the cut p1 is held to.
            install(2, &v2, &[1, 2]),
            install(1, &v2, &[1, 2]),
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].checker, WV, "{violations:?}");
        assert_eq!(violations[0].step, Some(5), "{violations:?}");
    }
}
