//! Oracle validation: generate *legal* traces directly from the
//! centralized spec automata, confirm the checkers accept them, then
//! apply targeted mutations (reorder, duplicate, drop, forge) and confirm
//! the checkers reject every mutant. A trace checker that accepts
//! corrupted histories would silently void the whole verification story.

use vsgm_ioa::{CheckSet, SimRng, SimTime, Trace, TraceEntry};
use vsgm_spec::{ClientSpec, SelfDeliverySpec, ViewSyncSpec};
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

fn members(n: u64) -> ProcSet {
    (1..=n).map(p).collect()
}

fn view(epoch: u64, n: u64) -> View {
    View::new(
        ViewId::new(epoch, 0),
        members(n),
        members(n).iter().map(|&m| (m, StartChangeId::new(epoch))),
    )
}

/// Generates a legal application-facing trace straight from the composed
/// spec semantics: views installed jointly, sends multicast, deliveries
/// FIFO and cut-aligned, self-delivery before views.
fn legal_trace(rng: &mut SimRng, rounds: u64) -> Trace {
    let n = 3u64;
    let mut t = Trace::new();
    let mut rec = |ev: Event| {
        t.record(SimTime::ZERO, ev);
    };
    for epoch in 1..=rounds {
        let v = view(epoch, n);
        // Block handshakes (needed from the second change on for CLIENT).
        if epoch > 1 {
            for i in 1..=n {
                rec(Event::Block { p: p(i) });
                rec(Event::BlockOk { p: p(i) });
            }
        }
        let t_set = if epoch == 1 {
            // First view: everyone moves from its own singleton.
            None
        } else {
            Some(members(n))
        };
        for i in 1..=n {
            rec(Event::GcsView {
                p: p(i),
                view: v.clone(),
                transitional: t_set.clone().unwrap_or_else(|| [p(i)].into_iter().collect()),
            });
        }
        // Workload: each member sends a couple of messages; everyone
        // delivers everything in FIFO order before the next round.
        let burst = 1 + rng.range(0, 3);
        let mut msgs = Vec::new();
        for i in 1..=n {
            for k in 0..burst {
                let m = AppMsg::from(format!("e{epoch}.{i}.{k}").as_str());
                rec(Event::Send { p: p(i), msg: m.clone() });
                msgs.push((p(i), m));
            }
        }
        for i in 1..=n {
            for (sender, m) in &msgs {
                rec(Event::Deliver { p: p(i), q: *sender, msg: m.clone() });
            }
        }
    }
    t
}

fn full_checks() -> CheckSet {
    let mut set = CheckSet::new();
    set.add(ViewSyncSpec::new());
    set.add(SelfDeliverySpec::new());
    set.add(ClientSpec::new());
    set
}

fn violations(trace: &Trace) -> usize {
    let mut checks = full_checks();
    checks.run(trace.entries());
    checks.violations().len()
}

fn reindex(entries: Vec<TraceEntry>) -> Trace {
    let mut t = Trace::new();
    for e in entries {
        t.record(e.time, e.event);
    }
    t
}

#[test]
fn legal_traces_accepted() {
    for seed in 0..30 {
        let mut rng = SimRng::new(seed);
        let rounds = 1 + rng.range(0, 4);
        let t = legal_trace(&mut rng, rounds);
        assert_eq!(violations(&t), 0, "seed {seed}: legal trace rejected");
    }
}

#[test]
fn swapping_two_deliveries_of_same_sender_rejected() {
    for seed in 0..30 {
        let mut rng = SimRng::new(1000 + seed);
        let t = legal_trace(&mut rng, 2);
        // Find two deliveries at the same receiver from the same sender.
        let entries = t.entries().to_vec();
        let pairs: Vec<(usize, usize)> = entries
            .iter()
            .enumerate()
            .flat_map(|(i, a)| {
                entries.iter().enumerate().skip(i + 1).filter_map(move |(j, b)| {
                    match (&a.event, &b.event) {
                        (
                            Event::Deliver { p: pa, q: qa, msg: ma },
                            Event::Deliver { p: pb, q: qb, .. },
                        ) if pa == pb && qa == qb && {
                            let _ = ma;
                            true
                        } =>
                        {
                            Some((i, j))
                        }
                        _ => None,
                    }
                })
            })
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let (i, j) = pairs[rng.index(pairs.len())];
        let mut mutated = entries.clone();
        mutated.swap(i, j);
        // Identical payloads would make the swap a no-op; skip those.
        if mutated[i].event == entries[i].event {
            continue;
        }
        assert!(violations(&reindex(mutated)) > 0, "seed {seed}: FIFO-violating swap accepted");
    }
}

#[test]
fn duplicating_a_delivery_rejected() {
    for seed in 0..30 {
        let mut rng = SimRng::new(2000 + seed);
        let t = legal_trace(&mut rng, 2);
        let entries = t.entries().to_vec();
        let dels: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.event, Event::Deliver { .. }))
            .map(|(i, _)| i)
            .collect();
        if dels.is_empty() {
            continue;
        }
        let i = dels[rng.index(dels.len())];
        let mut mutated = entries.clone();
        mutated.insert(i + 1, entries[i].clone());
        assert!(violations(&reindex(mutated)) > 0, "seed {seed}: duplicate accepted");
    }
}

#[test]
fn dropping_a_delivery_breaks_virtual_synchrony() {
    // Remove one member's delivery of one message while it still installs
    // the next view: VS (identical cuts) must flag it.
    for seed in 0..30 {
        let mut rng = SimRng::new(3000 + seed);
        let t = legal_trace(&mut rng, 3);
        let entries = t.entries().to_vec();
        // Pick a delivery that precedes another GcsView for its process.
        let candidate = entries.iter().enumerate().find(|(i, e)| {
            matches!(&e.event, Event::Deliver { p, .. }
                if entries[i + 1..].iter().any(|later| matches!(&later.event,
                    Event::GcsView { p: q, .. } if q == p)))
        });
        let Some((i, _)) = candidate else { continue };
        let mut mutated = entries.clone();
        mutated.remove(i);
        assert!(violations(&reindex(mutated)) > 0, "seed {seed}: dropped delivery accepted");
    }
}

#[test]
fn forged_delivery_rejected() {
    for seed in 0..30 {
        let mut rng = SimRng::new(4000 + seed);
        let t = legal_trace(&mut rng, 2);
        let mut entries = t.entries().to_vec();
        let i = rng.index(entries.len());
        entries.insert(
            i,
            TraceEntry {
                step: 0,
                time: SimTime::ZERO,
                event: Event::Deliver { p: p(1), q: p(2), msg: AppMsg::from("forged!") },
            },
        );
        assert!(violations(&reindex(entries)) > 0, "seed {seed}: forged delivery accepted");
    }
}

#[test]
fn skipping_self_delivery_rejected() {
    // Remove every self-delivery of one process in one epoch: SELF must
    // flag the next view.
    let mut rng = SimRng::new(5);
    let t = legal_trace(&mut rng, 2);
    let entries: Vec<TraceEntry> = t
        .entries()
        .iter()
        .filter(|e| !matches!(&e.event, Event::Deliver { p: a, q: b, .. } if a == b && *a == p(1)))
        .cloned()
        .collect();
    assert!(violations(&reindex(entries)) > 0, "missing self-delivery accepted");
}

#[test]
fn view_regression_rejected() {
    let mut rng = SimRng::new(6);
    let t = legal_trace(&mut rng, 3);
    // Append an old view again at p1.
    let mut entries = t.entries().to_vec();
    entries.push(TraceEntry {
        step: 0,
        time: SimTime::ZERO,
        event: Event::GcsView {
            p: p(1),
            view: view(1, 3),
            transitional: [p(1)].into_iter().collect(),
        },
    });
    assert!(violations(&reindex(entries)) > 0, "view regression accepted");
}

#[test]
fn checker_reports_name_the_failing_spec() {
    let mut rng = SimRng::new(7);
    let t = legal_trace(&mut rng, 2);
    let mut entries = t.entries().to_vec();
    // Forge a send while blocked: only CLIENT should trip.
    let block_ok_at = entries
        .iter()
        .position(|e| matches!(e.event, Event::BlockOk { .. }))
        .expect("handshake present");
    entries.insert(
        block_ok_at + 1,
        TraceEntry {
            step: 0,
            time: SimTime::ZERO,
            event: Event::Send { p: p(1), msg: AppMsg::from("while blocked") },
        },
    );
    let mut checks = CheckSet::new();
    checks.add(ClientSpec::new());
    checks.run(reindex(entries).entries());
    assert_eq!(checks.violations().len(), 1);
    assert_eq!(checks.violations()[0].checker, "CLIENT:SPEC");
}
