//! `chaos` — randomized fault-injection search over the VSGM stack.
//!
//! ```text
//! chaos [--seeds N] [--seed X] [--minimize] [--format json|text]
//!       [--procs MAX] [--steps MAX] [--inject-bug] [--artifacts DIR]
//!       [--corrupt] [--stabilize-json PATH]
//! ```
//!
//! Each seed deterministically generates a legal random scenario
//! (workload, partitions, crashes, recoveries, cascades, network faults),
//! runs it under every spec checker plus post-stabilization liveness, and
//! reports violations. `--minimize` shrinks each failure to a minimal
//! reproducer; `--artifacts DIR` writes per-failure JSON artifacts
//! (seed + scenario + journal). `--inject-bug` suppresses a sync message
//! in the final view change — a deliberate protocol bug that must be
//! caught, used to validate the oracle itself. `--corrupt` additionally
//! injects transient state corruption (DESIGN.md §15); such runs are
//! judged by split-trace convergence: the deviation window is unjudged
//! and the post-stabilization suffix must satisfy the full spec suite.
//! `--stabilize-json PATH` runs a per-corruption-class sweep (EXPERIMENTS
//! E11) and writes convergence statistics to `PATH`. Exit status: 0 iff
//! every run passed. Same arguments ⇒ byte-identical report.

#![allow(clippy::expect_used, reason = "outside P1: a test driver, not protocol code")]

use serde::Serialize;
use vsgm_chaos::{generate, minimize, run_scenario, Artifact, ChaosConfig, CorruptMode, RunOptions};
use vsgm_core::CorruptionKind;
use vsgm_harness::Scenario;

#[derive(Serialize)]
struct Row {
    seed: u64,
    n: usize,
    steps: usize,
    events: usize,
    recovery_resets: u64,
    injected_drops: u64,
    corruptions: u64,
    reconciliations: u64,
    /// Micros from last injection to the stabilized mark; `-1` when the
    /// run had no judged corruption.
    convergence_us: i64,
    result: String,
    detail: Vec<String>,
    minimized_steps: i64,
    minimized_json: String,
}

#[derive(Serialize)]
struct Report {
    total: usize,
    failures: usize,
    runs: Vec<Row>,
}

/// One corruption class of the E11 sweep (`BENCH_stabilize.json`).
#[derive(Serialize)]
struct StabilizeClass {
    kind: String,
    runs: usize,
    converged: usize,
    failures: usize,
    corruptions_total: u64,
    reconciliations_total: u64,
    convergence_us_min: i64,
    convergence_us_p50: i64,
    convergence_us_mean: i64,
    convergence_us_max: i64,
    failing_seeds: Vec<u64>,
}

#[derive(Serialize)]
struct StabilizeReport {
    seeds_per_class: u64,
    procs: u64,
    steps: usize,
    classes: Vec<StabilizeClass>,
}

struct Args {
    seeds: u64,
    seed: Option<u64>,
    minimize: bool,
    json: bool,
    procs: u64,
    steps: usize,
    inject_bug: bool,
    artifacts: Option<String>,
    corrupt: bool,
    stabilize_json: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seeds N] [--seed X] [--minimize] [--format json|text]\n\
         \x20            [--procs MAX] [--steps MAX] [--inject-bug] [--artifacts DIR]\n\
         \x20            [--corrupt] [--stabilize-json PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 50,
        seed: None,
        minimize: false,
        json: false,
        procs: 5,
        steps: 16,
        inject_bug: false,
        artifacts: None,
        corrupt: false,
        stabilize_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = Some(value(&mut it).parse().unwrap_or_else(|_| usage())),
            "--minimize" => args.minimize = true,
            "--format" => match value(&mut it).as_str() {
                "json" => args.json = true,
                "text" => args.json = false,
                _ => usage(),
            },
            "--procs" => args.procs = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--steps" => args.steps = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--inject-bug" => args.inject_bug = true,
            "--artifacts" => args.artifacts = Some(value(&mut it)),
            "--corrupt" => args.corrupt = true,
            "--stabilize-json" => args.stabilize_json = Some(value(&mut it)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Runs the E11 per-class convergence sweep: `seeds` runs per corruption
/// kind with the generator pinned to that class, collecting time-to-
/// converge statistics. Returns the report and the number of failing
/// runs across all classes.
fn stabilize_sweep(args: &Args, opts: &RunOptions) -> (StabilizeReport, usize) {
    let mut classes = Vec::new();
    let mut failing = 0usize;
    for kind in CorruptionKind::ALL {
        let cfg = ChaosConfig {
            max_procs: args.procs.max(2),
            max_steps: args.steps,
            dup: 0.0,
            corrupt: CorruptMode::Only(kind),
        };
        let mut converged = 0usize;
        let mut corruptions_total = 0u64;
        let mut reconciliations_total = 0u64;
        let mut times: Vec<u64> = Vec::new();
        let mut failing_seeds = Vec::new();
        for seed in 0..args.seeds {
            let scenario = generate(seed, &cfg);
            let outcome = run_scenario(&scenario, opts);
            corruptions_total += outcome.corruptions;
            reconciliations_total += outcome.audit_reconciliations;
            if outcome.failure.is_some() {
                failing_seeds.push(seed);
            } else {
                converged += 1;
                if let Some(us) = outcome.convergence_us {
                    times.push(us);
                }
            }
        }
        failing += failing_seeds.len();
        times.sort_unstable();
        let stat = |v: Option<&u64>| v.map(|&x| x as i64).unwrap_or(-1);
        let mean = if times.is_empty() {
            -1
        } else {
            (times.iter().sum::<u64>() / times.len() as u64) as i64
        };
        classes.push(StabilizeClass {
            kind: kind.name().to_string(),
            runs: args.seeds as usize,
            converged,
            failures: failing_seeds.len(),
            corruptions_total,
            reconciliations_total,
            convergence_us_min: stat(times.first()),
            convergence_us_p50: stat(times.get(times.len() / 2)),
            convergence_us_mean: mean,
            convergence_us_max: stat(times.last()),
            failing_seeds,
        });
    }
    let report = StabilizeReport {
        seeds_per_class: args.seeds,
        procs: args.procs.max(2),
        steps: args.steps,
        classes,
    };
    (report, failing)
}

fn main() {
    let args = parse_args();
    // Panics inside a run are caught and reported as failures; keep the
    // default hook from spraying backtraces over the report.
    std::panic::set_hook(Box::new(|_| {}));

    let opts = RunOptions {
        skip_sync_at_stabilization: if args.inject_bug { Some(0) } else { None },
    };

    if let Some(path) = &args.stabilize_json {
        let (report, failing) = stabilize_sweep(&args, &opts);
        let body = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("chaos: cannot write {path}: {e}");
            std::process::exit(2);
        }
        for c in &report.classes {
            println!(
                "stabilize {:<20} runs={:<4} converged={:<4} p50={}us max={}us failing={:?}",
                c.kind,
                c.runs,
                c.converged,
                c.convergence_us_p50,
                c.convergence_us_max,
                c.failing_seeds
            );
        }
        std::process::exit(if failing > 0 { 1 } else { 0 });
    }

    let cfg = ChaosConfig {
        max_procs: args.procs.max(2),
        max_steps: args.steps,
        dup: 0.0,
        corrupt: if args.corrupt { CorruptMode::Any } else { CorruptMode::Off },
    };
    let seeds: Vec<u64> = match args.seed {
        Some(x) => vec![x],
        None => (0..args.seeds).collect(),
    };

    if let Some(dir) = &args.artifacts {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("chaos: cannot create artifact dir {dir}: {e}");
            std::process::exit(2);
        }
    }

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for seed in seeds {
        let scenario = generate(seed, &cfg);
        let outcome = run_scenario(&scenario, &opts);
        let failed = outcome.failure.is_some();
        let mut minimized: Option<Scenario> = None;
        let mut tested = 0usize;
        if failed {
            failures += 1;
            if args.minimize {
                if let Some(m) = minimize(&scenario, &opts) {
                    tested = m.tested;
                    minimized = Some(m.scenario);
                }
            }
            if let Some(dir) = &args.artifacts {
                let artifact = Artifact::new(&scenario, &outcome, minimized.as_ref());
                let path = format!("{dir}/chaos-seed-{seed}.json");
                if let Err(e) = std::fs::write(&path, artifact.to_json()) {
                    eprintln!("chaos: cannot write {path}: {e}");
                }
            }
        }
        rows.push(Row {
            seed,
            n: scenario.n,
            steps: scenario.steps.len(),
            events: outcome.events,
            recovery_resets: outcome.recovery_resets,
            injected_drops: outcome.injected_drops,
            corruptions: outcome.corruptions,
            reconciliations: outcome.audit_reconciliations,
            convergence_us: outcome.convergence_us.map(|u| u as i64).unwrap_or(-1),
            result: outcome
                .failure
                .as_ref()
                .map(|f| f.kind().to_string())
                .unwrap_or_else(|| "pass".to_string()),
            detail: outcome.failure.as_ref().map(|f| f.details()).unwrap_or_default(),
            minimized_steps: minimized.as_ref().map(|s| s.steps.len() as i64).unwrap_or(-1),
            minimized_json: minimized
                .as_ref()
                .map(|s| {
                    let _ = tested; // recorded in text mode below
                    s.to_json()
                })
                .unwrap_or_default(),
        });
        if !args.json {
            let row = rows.last().expect("just pushed");
            println!(
                "seed {:>4}: {:<16} n={} steps={:>2} events={:>5} resets={} drops={} corrupt={} heal={} conv_us={}",
                row.seed,
                row.result,
                row.n,
                row.steps,
                row.events,
                row.recovery_resets,
                row.injected_drops,
                row.corruptions,
                row.reconciliations,
                row.convergence_us,
            );
            for line in &row.detail {
                println!("    {line}");
            }
            if let Some(m) = &minimized {
                println!("    minimized to {} steps ({} candidate runs):", m.steps.len(), tested);
                for l in m.to_json().lines() {
                    println!("    {l}");
                }
            }
        }
    }

    let report = Report { total: rows.len(), failures, runs: rows };
    if args.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("report serializes"));
    } else {
        println!("chaos: {} runs, {} failures", report.total, report.failures);
    }
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
