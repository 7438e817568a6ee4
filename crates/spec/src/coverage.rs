//! Spec coverage: the chaos generator's legal scenarios, judged clean by
//! [`standard_checks`](crate::standard_checks), between them produce
//! every kind of [`Event`](vsgm_types::Event) — so each action the spec
//! automata judge is exercised by traces they accept.

#[cfg(test)]
mod tests {
    use crate::standard_checks;
    use vsgm_chaos::{generate, ChaosConfig};
    use vsgm_core::Config;
    use vsgm_harness::{apply_step, Sim, SimOptions};
    use vsgm_types::Event;

    /// The number of `Event` kinds: one more than the last slot below.
    const KINDS: usize = 13;

    /// `e`'s kind as a slot in `0..KINDS`. The match is exhaustive, so a
    /// new `Event` variant does not compile here until it takes slot
    /// `KINDS` and `KINDS` grows by one.
    fn slot(e: &Event) -> usize {
        match e {
            Event::MbrshpStartChange { .. } => 0,
            Event::MbrshpView { .. } => 1,
            Event::Send { .. } => 2,
            Event::Deliver { .. } => 3,
            Event::GcsView { .. } => 4,
            Event::Block { .. } => 5,
            Event::BlockOk { .. } => 6,
            Event::NetSend { .. } => 7,
            Event::NetDeliver { .. } => 8,
            Event::Reliable { .. } => 9,
            Event::Live { .. } => 10,
            Event::Crash { .. } => 11,
            Event::Recover { .. } => 12,
        }
    }

    #[test]
    fn chaos_corpus_exercises_every_event_kind() {
        let mut seen = [false; KINDS];
        for seed in 0..40 {
            let scenario = generate(seed, &ChaosConfig::default());
            let opts = SimOptions { seed, check: false, shuffle_polling: true, ..SimOptions::default() };
            let mut sim = Sim::new_paper(scenario.n, Config::default(), opts);
            for step in &scenario.steps {
                apply_step(&mut sim, step);
            }
            sim.run_to_quiescence();
            let trace = sim.trace().entries();
            let violations = standard_checks().run(trace).to_vec();
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            for entry in trace {
                seen[slot(&entry.event)] = true;
            }
        }
        let missing: Vec<usize> = (0..KINDS).filter(|k| !seen[*k]).collect();
        assert!(missing.is_empty(), "no legal trace produced the kinds in slots {missing:?}");
    }
}
