//! Forgetting changes no verdict: the checker that drops state no future
//! event can read ([`ViewSyncSpec`](crate::ViewSyncSpec), in each of its
//! three parts) is run next to its never-forgetting self over legal
//! traces — the chaos generator's scenarios, crash/recover incarnations
//! included, and a member that leaves while the others move on — and over
//! every kind of single-event mutation of those traces, and must reach
//! the same verdict on each of the three specs.

#[cfg(test)]
mod tests {
    use crate::ViewSyncSpec;
    use proptest::prelude::*;
    use vsgm_chaos::{generate, ChaosConfig};
    use vsgm_core::Config;
    use vsgm_harness::{apply_step, Scenario, Sim, SimOptions, Step};
    use vsgm_ioa::{Checker, TraceEntry, Violation};
    use vsgm_types::{AppMsg, Event, ProcessId};

    /// Runs `scenario` to quiescence with the online checkers off and returns
    /// what it recorded.
    fn record(scenario: &Scenario) -> Vec<TraceEntry> {
        let opts = SimOptions {
            seed: scenario.seed,
            check: false,
            shuffle_polling: true,
            ..SimOptions::default()
        };
        let mut sim = Sim::new_paper(scenario.n, Config::default(), opts);
        for step in &scenario.steps {
            apply_step(&mut sim, step);
        }
        sim.run_to_quiescence();
        sim.trace().entries().to_vec()
    }

    /// `n` members; the last one leaves after the first round and stays in its
    /// old view while the others change view `rounds` times, then re-joins.
    fn leaver(seed: u64, n: u64, rounds: u64, sends: u64) -> Scenario {
        let all: Vec<u64> = (1..=n).collect();
        let rest: Vec<u64> = (1..n).collect();
        let burst = |steps: &mut Vec<Step>, members: &[u64], tag: String| {
            for k in 0..sends {
                let p = members[(k % members.len() as u64) as usize];
                steps.push(Step::Send { p, msg: format!("{tag}.{k}") });
            }
            steps.push(Step::Run);
        };
        let mut steps = vec![Step::Reconfigure { members: all.clone() }];
        burst(&mut steps, &all, "all".into());
        for round in 0..rounds {
            steps.push(Step::Reconfigure { members: rest.clone() });
            burst(&mut steps, &rest, format!("rest{round}"));
        }
        steps.push(Step::Reconfigure { members: all.clone() });
        burst(&mut steps, &all, "back".into());
        Scenario { n: n as usize, seed, steps }
    }

    /// The single-event mutations; `pick` selects the event(s) they hit.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mutation {
        None,
        DropDeliver,
        DuplicateDeliver,
        ReorderDeliver,
        SwapPayload,
        StaleView,
        WrongTransitionalSet,
    }

    const MUTATIONS: [Mutation; 7] = [
        Mutation::None,
        Mutation::DropDeliver,
        Mutation::DuplicateDeliver,
        Mutation::ReorderDeliver,
        Mutation::SwapPayload,
        Mutation::StaleView,
        Mutation::WrongTransitionalSet,
    ];

    fn positions(trace: &[TraceEntry], is: impl Fn(&Event) -> bool) -> Vec<usize> {
        trace.iter().enumerate().filter(|(_, e)| is(&e.event)).map(|(i, _)| i).collect()
    }

    /// Applies `mutation` to `trace` and renumbers the steps. A trace without
    /// an event of the kind the mutation needs is returned as it is.
    fn mutate(mut trace: Vec<TraceEntry>, mutation: Mutation, pick: usize) -> Vec<TraceEntry> {
        let delivers = positions(&trace, |e| matches!(e, Event::Deliver { .. }));
        let views = positions(&trace, |e| matches!(e, Event::GcsView { .. }));
        let at = |of: &[usize]| of.get(pick % of.len().max(1)).copied();
        match mutation {
            Mutation::None => {}
            Mutation::DropDeliver => {
                if let Some(i) = at(&delivers) {
                    trace.remove(i);
                }
            }
            Mutation::DuplicateDeliver => {
                if let Some(i) = at(&delivers) {
                    trace.insert(i + 1, trace[i].clone());
                }
            }
            Mutation::ReorderDeliver => {
                // Swap a delivery with the next one at the same receiver.
                if let Some(i) = at(&delivers) {
                    let later = delivers.iter().find(|j| {
                        **j > i && trace[**j].event.process() == trace[i].event.process()
                    });
                    if let Some(j) = later {
                        trace.swap(i, *j);
                    }
                }
            }
            Mutation::SwapPayload => {
                if let Some(i) = at(&delivers) {
                    if let Event::Deliver { msg, .. } = &mut trace[i].event {
                        *msg = AppMsg::from("not what was sent");
                    }
                }
            }
            Mutation::StaleView => {
                // Re-deliver an earlier view to its process somewhere later.
                if let Some(i) = at(&views) {
                    let stale = trace[i].clone();
                    let later = i + 1 + pick % (trace.len() - i);
                    trace.insert(later, stale);
                }
            }
            Mutation::WrongTransitionalSet => {
                if let Some(i) = at(&views) {
                    if let Event::GcsView { p, view, transitional } = &mut trace[i].event {
                        // Toggle one member of the new view other than the
                        // mover itself.
                        let other: Vec<ProcessId> =
                            view.members().iter().copied().filter(|m| m != p).collect();
                        if let Some(m) = other.get(pick % other.len().max(1)) {
                            if !transitional.remove(m) {
                                transitional.insert(*m);
                            }
                        }
                    }
                }
            }
        }
        for (step, entry) in trace.iter_mut().enumerate() {
            entry.step = step as u64;
        }
        trace
    }

    /// Every violation `checker` reports over `trace`, `finish` included.
    fn verdict(mut checker: impl Checker, trace: &[TraceEntry]) -> Vec<Violation> {
        let mut found: Vec<Violation> =
            trace.iter().filter_map(|e| checker.observe(e).err()).collect();
        found.extend(checker.finish().err());
        found
    }

    /// Which of the three specs `trace` violates, after asserting that the
    /// forgetting and the retaining checker agree on each.
    fn violated(trace: &[TraceEntry]) -> [bool; 3] {
        let found = verdict(ViewSyncSpec::new(), trace);
        let found_retaining = verdict(ViewSyncSpec::retaining(), trace);
        let of = |found: &[Violation], checker: &str| -> Vec<Violation> {
            found.iter().filter(|v| v.checker == checker).cloned().collect()
        };
        let [wv, vs, ts] = ["WV_RFIFO:SPEC", "VS_RFIFO:SPEC", "TRANS_SET:SPEC"]
            .map(|checker| (of(&found, checker), of(&found_retaining, checker)));
        assert_eq!(wv.0, wv.1, "WV_RFIFO:SPEC");
        assert_eq!(vs.0, vs.1, "VS_RFIFO:SPEC");
        // TRANS_SET:SPEC judges a settled view when it settles instead of at
        // `finish`, so only the local clauses report at the same step.
        let local = |found: &[Violation]| -> Vec<Violation> {
            found.iter().filter(|v| v.message.starts_with("view_")).cloned().collect()
        };
        assert_eq!(local(&ts.0), local(&ts.1), "TRANS_SET:SPEC local clauses");
        assert_eq!(ts.0.is_empty(), ts.1.is_empty(), "TRANS_SET:SPEC: {:?} vs {:?}", ts.0, ts.1);
        [!wv.0.is_empty(), !vs.0.is_empty(), !ts.0.is_empty()]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn forgetting_changes_no_verdict_on_chaos_traces(
            seed in 0u64..10_000,
            mutation in 0usize..MUTATIONS.len(),
            pick in 0usize..10_000,
        ) {
            let legal = record(&generate(seed, &ChaosConfig::default()));
            prop_assert_eq!(violated(&legal), [false; 3], "seed {} is not legal", seed);
            violated(&mutate(legal, MUTATIONS[mutation], pick));
        }

        #[test]
        fn forgetting_changes_no_verdict_when_a_member_leaves(
            seed in 0u64..10_000,
            n in 2u64..=5,
            rounds in 1u64..=4,
            sends in 0u64..=6,
            mutation in 0usize..MUTATIONS.len(),
            pick in 0usize..10_000,
        ) {
            let legal = record(&leaver(seed, n, rounds, sends));
            prop_assert_eq!(violated(&legal), [false; 3]);
            violated(&mutate(legal, MUTATIONS[mutation], pick));
        }
    }

    /// The differential is not vacuous: the mutants do trip each spec, and
    /// the forgetting checkers do hold less than the retaining ones.
    #[test]
    fn mutants_trip_every_spec_and_forgetting_forgets() {
        let mut tripped = [0u32; 3];
        for seed in 0..40 {
            let legal = record(&leaver(seed, 4, 3, 5));
            for (m, mutation) in MUTATIONS.iter().enumerate() {
                let flags = violated(&mutate(legal.clone(), *mutation, seed as usize * 7 + m));
                for (count, flag) in tripped.iter_mut().zip(flags) {
                    *count += u32::from(flag);
                }
            }
        }
        assert!(tripped.iter().all(|count| *count > 0), "specs tripped: {tripped:?}");

        let legal = record(&leaver(1, 4, 8, 24));
        let sizes = |spec: &ViewSyncSpec| {
            [format!("{:?}", spec.wv), format!("{:?}", spec.vs), format!("{:?}", spec.ts)]
                .map(|debug| debug.len())
        };
        let (mut spec, mut spec_all) = (ViewSyncSpec::new(), ViewSyncSpec::retaining());
        for e in &legal {
            spec.observe(e).expect("legal trace");
            spec_all.observe(e).expect("legal trace");
        }
        let specs = ["WV_RFIFO:SPEC", "VS_RFIFO:SPEC", "TRANS_SET:SPEC"];
        for ((name, kept), all) in specs.iter().zip(sizes(&spec)).zip(sizes(&spec_all)) {
            assert!(kept < all / 2, "{name} kept {kept} of {all}");
        }
        let size = |spec: &ViewSyncSpec| format!("{spec:?}").len();
        assert!(
            size(&spec) < size(&spec_all) / 2,
            "ViewSyncSpec kept {} of {}",
            size(&spec),
            size(&spec_all)
        );
    }
}
