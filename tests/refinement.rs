//! Executable refinement mapping (Lemma 6.1 / 6.2): the paper proves the
//! algorithm correct by mapping each concrete end-point state to a state
//! of the abstract specification automaton. This test computes that
//! mapping `R()` on live end-point states during simulated runs and
//! checks it against the abstract state independently reconstructed from
//! the external trace — if the algorithm's internal bookkeeping ever
//! diverged from what the spec's state "should" be, the mapping breaks.
//!
//! Columns of `R()` checked (Lemma 6.1):
//!   `msgs[p][v]`          = s[p].msgs[p][v]        (own sent messages)
//!   `last_dlvrd[p][q]`    = s[q].last_dlvrd[p]     (delivery counters)
//!   `current_view[p]`     = s[p].current_view
//! plus the `H_cut` extension of Lemma 6.2 via the VS checker's recorded
//! cuts.

use std::collections::HashMap;
use vsgm_core::Config;
use vsgm_harness::sim::{procs, procs_of};
use vsgm_harness::{Sim, SimOptions};
use vsgm_types::{AppMsg, Event, ProcessId, View};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// Abstract `WV_RFIFO:SPEC` state reconstructed from the external trace.
#[derive(Default)]
struct AbstractState {
    /// `msgs[p][v]`: messages sent by `p` in view `v`.
    msgs: HashMap<(ProcessId, View), Vec<AppMsg>>,
    /// `last_dlvrd[p][q]`: messages from `p` delivered to `q` (current
    /// view of `q`).
    last_dlvrd: HashMap<(ProcessId, ProcessId), u64>,
    /// `current_view[p]`.
    current_view: HashMap<ProcessId, View>,
}

impl AbstractState {
    fn apply(&mut self, event: &Event) {
        match event {
            Event::Send { p, msg } => {
                let v = self.view_of(*p);
                self.msgs.entry((*p, v)).or_default().push(msg.clone());
            }
            Event::Deliver { p: q, q: sender, .. } => {
                *self.last_dlvrd.entry((*sender, *q)).or_insert(0) += 1;
            }
            Event::GcsView { p, view, .. } => {
                self.current_view.insert(*p, view.clone());
                self.last_dlvrd.retain(|(_, q), _| q != p);
            }
            _ => {}
        }
    }

    fn view_of(&self, q: ProcessId) -> View {
        self.current_view.get(&q).cloned().unwrap_or_else(|| View::initial(q))
    }
}

/// Checks `R(concrete) == abstract` for every end-point.
fn check_refinement(sim: &Sim, abs: &AbstractState) {
    for i in sim.all_procs() {
        let ep = sim.endpoint(i);
        if ep.is_crashed() {
            continue;
        }
        let st = ep.state();
        // current_view[p] column.
        assert_eq!(st.current_view, abs.view_of(i), "R(current_view) broken at {i}");
        // msgs[p][v] column for the CURRENT view (older views may be
        // garbage-collected concretely, which the refinement permits — the
        // spec state is a superset).
        let abs_msgs = abs.msgs.get(&(i, st.current_view.clone())).cloned().unwrap_or_default();
        let concrete = st.buf(i, &st.current_view);
        let concrete_len = concrete.map_or(0, |b| b.last_index());
        assert_eq!(concrete_len, abs_msgs.len() as u64, "R(msgs[{i}][current]) length broken");
        for (k, m) in abs_msgs.iter().enumerate() {
            assert_eq!(
                concrete.and_then(|b| b.get(k as u64 + 1)),
                Some(m),
                "R(msgs[{i}][current])[{k}] broken"
            );
        }
        // last_dlvrd[q][p] column.
        for q in sim.all_procs() {
            let abs_count = abs.last_dlvrd.get(&(q, i)).copied().unwrap_or(0);
            assert_eq!(st.dlvrd(q), abs_count, "R(last_dlvrd[{q}][{i}]) broken");
        }
    }
}

fn run_with_refinement_checks(seed: u64) {
    let mut sim =
        Sim::new_paper(4, Config::default(), SimOptions { seed, ..SimOptions::default() });
    let mut abs = AbstractState::default();
    let mut cursor = 0usize;
    let sync = |sim: &mut Sim, abs: &mut AbstractState, cursor: &mut usize| {
        sim.run_to_quiescence();
        for e in &sim.trace().entries()[*cursor..] {
            abs.apply(&e.event);
        }
        *cursor = sim.trace().len();
        check_refinement(sim, abs);
    };

    sim.reconfigure(&procs(4));
    sync(&mut sim, &mut abs, &mut cursor);
    for i in 1..=4 {
        sim.send(p(i), AppMsg::from(format!("a{i}").as_str()));
    }
    sync(&mut sim, &mut abs, &mut cursor);
    sim.reconfigure(&procs_of(&[1, 2, 3]));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.send(p(2), AppMsg::from("small world"));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.reconfigure(&procs(4));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.assert_clean();
}

#[test]
fn refinement_mapping_holds_across_reconfigurations() {
    for seed in 0..12 {
        run_with_refinement_checks(seed);
    }
}

#[test]
fn refinement_mapping_holds_under_partition_and_crash() {
    let mut sim = Sim::new_paper(4, Config::default(), SimOptions::default());
    let mut abs = AbstractState::default();
    let mut cursor = 0usize;
    let sync = |sim: &mut Sim, abs: &mut AbstractState, cursor: &mut usize| {
        sim.run_to_quiescence();
        for e in &sim.trace().entries()[*cursor..] {
            abs.apply(&e.event);
        }
        *cursor = sim.trace().len();
        check_refinement(sim, abs);
    };
    sim.reconfigure(&procs(4));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.partition(&[vec![p(1), p(2)], vec![p(3), p(4)]]);
    sim.send(p(3), AppMsg::from("island"));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.crash(p(4));
    sim.heal();
    sim.reconfigure(&procs_of(&[1, 2, 3]));
    sync(&mut sim, &mut abs, &mut cursor);
    // The recovered process restarts the mapping from a fresh incarnation.
    sim.recover(p(4));
    abs.current_view.insert(p(4), View::initial(p(4)));
    abs.last_dlvrd.retain(|(_, q), _| *q != p(4));
    abs.msgs.retain(|(s, _), _| *s != p(4));
    sim.reconfigure(&procs(4));
    sync(&mut sim, &mut abs, &mut cursor);
    sim.assert_clean();
}
