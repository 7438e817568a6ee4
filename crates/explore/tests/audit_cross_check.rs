//! StateAudit false-positive cross-check (DESIGN.md §15).
//!
//! The audit's legal-state predicate must be *sound*: a state the
//! protocol can actually reach under fault-free operation must never be
//! flagged, or the §8 reconciliation would crash healthy endpoints. The
//! chaos tier samples; here we prove it on the small models — a
//! state-deduplicating DFS visits **every** composition state reachable
//! in the seed configurations and runs [`vsgm_core::audit::check`] on
//! every endpoint of every state. One rejected state fails the suite
//! with the offending configuration, process, check, and full state.
//!
//! (The `corruption` seed is included too: its fault is audited and
//! reconciled atomically inside the macro-step, so every *visited* state
//! is post-reconciliation and must equally satisfy the predicate.)

use std::collections::BTreeSet;
use vsgm_explore::{ExploreConfig, Machine, State};

/// FNV-1a over the state's `Debug` rendering — endpoints and channels
/// are plain data with deterministic (BTree) iteration, so equal states
/// render identically.
fn fingerprint(st: &State) -> u64 {
    let repr = format!("{st:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in repr.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn audit_state(cfg: &ExploreConfig, st: &State) -> usize {
    let mut audited = 0;
    for (p, host) in &st.eps {
        let ep = host.ep();
        if let Err(e) = vsgm_core::audit::check(&cfg.endpoint, ep.state()) {
            panic!(
                "{}: audit rejected a legally reachable state at {p}: {e}\nstate: {:#?}",
                cfg.name,
                ep.state()
            );
        }
        audited += 1;
    }
    audited
}

fn walk(
    m: &mut Machine<'_>,
    cfg: &ExploreConfig,
    st: &State,
    seen: &mut BTreeSet<u64>,
    audited: &mut usize,
    depth: usize,
) {
    assert!(depth < cfg.max_depth, "{}: runaway walk", cfg.name);
    if !seen.insert(fingerprint(st)) {
        return;
    }
    *audited += audit_state(cfg, st);
    for t in m.enabled(st) {
        let mut next = st.clone();
        let mark = m.trace.len();
        m.apply(&mut next, &t);
        m.trace.truncate(mark); // the trace is not judged here
        walk(m, cfg, &next, seen, audited, depth + 1);
    }
}

#[test]
fn audit_accepts_every_reachable_state_of_every_seed_config() {
    for cfg in ExploreConfig::seeds() {
        let mut m = Machine::new(&cfg);
        let root = m.initial();
        let mut seen = BTreeSet::new();
        let mut audited = 0usize;
        walk(&mut m, &cfg, &root, &mut seen, &mut audited, 0);
        // A trivially small walk would make the check vacuous; every
        // seed reaches a substantial state space (the exact counts are
        // pinned in `paths.rs` — here a floor suffices).
        assert!(seen.len() >= 60, "{}: only {} distinct states visited", cfg.name, seen.len());
        assert_eq!(audited, seen.len() * cfg.n as usize);
    }
}
