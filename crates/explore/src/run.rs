//! The DFS explorer: exhaustive enumeration with sleep-set pruning,
//! per-path judging by the shared spec suite, and counterexample
//! capture/replay.

use crate::config::ExploreConfig;
use crate::machine::{Machine, State, Transition};
use vsgm_ioa::{SimTime, SleepSet, TraceEntry, Violation};
use vsgm_types::Event;

/// Explorer options.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Prune with sleep sets (DPOR). `false` enumerates every raw
    /// interleaving — used by the regression tests to pin the unpruned
    /// path count strictly above the pruned one.
    pub dpor: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions { dpor: true }
    }
}

/// Exploration statistics; the canonical numbers are pinned as
/// regressions (a pruning bug or a protocol change that alters the
/// reachable space fails loudly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Terminal (quiescent, fully scripted) paths judged.
    pub paths: u64,
    /// Branches abandoned because every enabled transition slept.
    pub pruned: u64,
    /// Distinct composition states visited (by state hash).
    pub states: u64,
    /// Longest path, in transitions.
    pub max_depth: usize,
    /// Paths on which at least one checker rejected the trace.
    pub violating_paths: u64,
}

/// A failing path: the schedule that reproduces it, the violations, and
/// the full event trace — everything needed to replay and debug it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The transition sequence from the initial state; feed it back to
    /// [`replay`] to reproduce the run.
    pub schedule: Vec<Transition>,
    /// What the checkers rejected.
    pub violations: Vec<Violation>,
    /// The recorded trace of the failing path.
    pub trace: Vec<TraceEntry>,
}

impl Counterexample {
    /// Renders the counterexample as a replayable report: the violations,
    /// the schedule (one transition per line), and the trace as JSON
    /// lines (parseable by `vsgm_ioa::Trace::from_json_lines`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== violations ==\n");
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        out.push_str("== schedule ==\n");
        for (i, t) in self.schedule.iter().enumerate() {
            out.push_str(&format!("{i:4}  {t:?}\n"));
        }
        out.push_str("== trace (JSON lines) ==\n");
        for e in &self.trace {
            let line = serde_json::to_string(e).unwrap_or_else(|_| "<unserializable>".into());
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// The result of exploring one configuration.
#[derive(Debug)]
pub struct Outcome {
    /// Aggregate statistics.
    pub stats: Stats,
    /// The first failing path found, if any.
    pub counterexample: Option<Counterexample>,
}

impl Outcome {
    /// Whether every explored path satisfied every checker.
    pub fn is_clean(&self) -> bool {
        self.stats.violating_paths == 0
    }
}

fn to_entries(events: &[Event]) -> Vec<TraceEntry> {
    events
        .iter()
        .enumerate()
        .map(|(i, e)| TraceEntry { step: i as u64, time: SimTime::ZERO, event: e.clone() })
        .collect()
}

/// FNV-1a over the debug rendering of the full composition state — a
/// cheap, dependency-free state fingerprint for the distinct-state count.
fn state_hash(st: &State) -> u64 {
    let repr = format!("{st:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Dfs<'a> {
    m: Machine<'a>,
    cfg: &'a ExploreConfig,
    opts: ExploreOptions,
    stats: Stats,
    seen: std::collections::BTreeSet<u64>,
    schedule: Vec<Transition>,
    counterexample: Option<Counterexample>,
}

impl Dfs<'_> {
    fn go(&mut self, st: &State, sleep: SleepSet<Transition>, depth: usize) {
        assert!(
            depth <= self.cfg.max_depth,
            "{}: path exceeded {} transitions (livelock?)",
            self.cfg.name,
            self.cfg.max_depth
        );
        let enabled = self.m.enabled(st);
        if enabled.is_empty() {
            self.terminal(st);
            return;
        }
        let explorable: Vec<Transition> = if self.opts.dpor {
            enabled.into_iter().filter(|t| !sleep.contains(t)).collect()
        } else {
            enabled
        };
        if explorable.is_empty() {
            // Every enabled transition is asleep: an equivalent
            // interleaving is explored from a sibling branch.
            self.stats.pruned += 1;
            return;
        }
        let mut sleep_here = sleep;
        for t in explorable {
            let mut child = st.clone();
            let mark = self.m.trace.len();
            self.m.apply(&mut child, &t);
            if self.seen.insert(state_hash(&child)) {
                self.stats.states += 1;
            }
            self.schedule.push(t.clone());
            let child_sleep = if self.opts.dpor { sleep_here.inherit(&t) } else { SleepSet::new() };
            self.go(&child, child_sleep, depth + 1);
            self.schedule.pop();
            self.m.trace.truncate(mark);
            if self.opts.dpor {
                sleep_here.insert(t);
            }
        }
    }

    fn terminal(&mut self, st: &State) {
        self.stats.paths += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.schedule.len());
        let entries = to_entries(&self.m.trace);
        let mut violations = vsgm_spec::judge_trace(&entries, self.cfg.final_view.clone());
        // A quiescent state with unfired scripted events means some
        // external stayed gated forever (e.g. a client blocked with no
        // view ever unblocking it) — a liveness failure the trace
        // checkers cannot see, so the explorer reports it itself.
        let stuck: Vec<usize> =
            (0..st.fired.len()).filter(|&i| !st.fired.get(i).copied().unwrap_or(true)).collect();
        if !stuck.is_empty() {
            violations.push(Violation::at_end(
                "EXPLORE:STUCK",
                format!("quiescent with scripted events {stuck:?} never enabled"),
            ));
        }
        if !violations.is_empty() {
            self.stats.violating_paths += 1;
            if self.counterexample.is_none() {
                self.counterexample = Some(Counterexample {
                    schedule: self.schedule.clone(),
                    violations,
                    trace: entries,
                });
            }
        }
    }
}

/// Exhaustively explores `cfg`, judging every terminal path with the
/// full shared checker suite (all safety specs, plus Property 4.2 when
/// the configuration names a final view).
///
/// # Panics
///
/// Panics if any path exceeds [`ExploreConfig::max_depth`] transitions
/// (the composition must quiesce on every schedule).
pub fn explore(cfg: &ExploreConfig, opts: &ExploreOptions) -> Outcome {
    let mut m = Machine::new(cfg);
    let root = m.initial();
    let mut dfs = Dfs {
        m,
        cfg,
        opts: opts.clone(),
        stats: Stats::default(),
        seen: std::collections::BTreeSet::new(),
        schedule: Vec::new(),
        counterexample: None,
    };
    dfs.seen.insert(state_hash(&root));
    dfs.stats.states = 1;
    dfs.go(&root, SleepSet::new(), 0);
    Outcome { stats: dfs.stats, counterexample: dfs.counterexample }
}

/// Replays a recorded schedule against `cfg` and re-judges the resulting
/// trace: the deterministic reproduction handle for a
/// [`Counterexample`].
///
/// # Panics
///
/// Panics if the schedule fires a transition that is not enabled (i.e.
/// it was not produced by [`explore`] on the same configuration).
pub fn replay(cfg: &ExploreConfig, schedule: &[Transition]) -> (Vec<TraceEntry>, Vec<Violation>) {
    let mut m = Machine::new(cfg);
    let mut st = m.initial();
    for (i, t) in schedule.iter().enumerate() {
        assert!(m.enabled(&st).iter().any(|e| e == t), "replay step {i}: {t:?} is not enabled");
        m.apply(&mut st, t);
    }
    let entries = to_entries(&m.trace);
    let violations = vsgm_spec::judge_trace(&entries, cfg.final_view.clone());
    (entries, violations)
}
