//! The repo benchmark. See README.md; `BENCHMARK.json` at the repo root
//! names this package's command, workloads and metrics.
//!
//! ```text
//! vsgm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! vsgm-benchmark [--runs <n>] [--seed <n>] [--smoke]
//!     the full command: every workload in a child process of its own,
//!     <n> runs each (the last with --trace 1); writes out/results.json
//! vsgm-benchmark --layers [--smoke]          the layer pass alone
//! vsgm-benchmark --compare <a.json> <b.json> two results files, metric by
//!     metric against the bounds; exit 1 on any breach
//! ```

mod check;
mod compare;
mod gen;
mod layers;
mod plan;
mod procfs;
mod rig;
mod run;
mod stats;
mod trace;

use plan::{MetricDef, Scale, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Metrics, Outcome, Stop};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const EXIT_USAGE: u8 = 2;
const EXIT_VOID: u8 = 3;
const EXIT_BROKEN: u8 = 4;

/// Everything the benchmark writes goes here, inside its own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    layers: bool,
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        layers: false,
        runs: 1,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, &flag)?;
                let known = || {
                    WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                a.workload = Some(
                    Workload::by_name(&name)
                        .ok_or_else(|| format!("no workload {name:?}; have {}", known()))?,
                );
            }
            "--seed" => {
                a.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                a.runs = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            "--layers" => a.layers = true,
            "--compare" => {
                a.compare = Some((value(&mut it, &flag)?.into(), value(&mut it, &flag)?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee the head of benchmark/src/main.rs for the forms this takes");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let default_seconds = if args.smoke {
        plan::SMOKE_SECONDS
    } else {
        plan::RUN_SECONDS as f64
    };
    let scale = Scale {
        seconds: args.seconds.unwrap_or(default_seconds),
        smoke: args.smoke,
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.layers {
        print_metrics(&layers::run(scale.divisor()), PER_LAYER, true);
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(w) => one_run(w, args.seed, &scale, args.trace),
        None => full_run(args.seed, args.runs, &scale),
    }
}

fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(git.join(r))
            .or_else(|| {
                let packed = read(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The common envelope: what was run, on what, how.
fn envelope(seed: u64, scale: &Scale) -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let phases = plan::PHASE_SHARES
        .iter()
        .zip(plan::phase_seconds(scale.seconds))
        .map(|((name, _), s)| (name.to_string(), Value::F64(s)))
        .collect();
    let rates = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), Value::U64(w.paced_rate)))
        .collect();
    let s = |v: &str| Value::Str(v.to_string());
    [
        ("git_sha", s(&git_sha())),
        ("build_profile", s(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("nproc", Value::U64(nproc)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(scale.seconds)),
        ("smoke", Value::Bool(scale.smoke)),
        ("shards", Value::U64(plan::SHARDS as u64)),
        ("group_capacity", Value::U64(plan::CLIENTS as u64)),
        ("clients", Value::U64(plan::CLIENTS as u64)),
        ("payload_bytes", Value::U64(plan::PAYLOAD as u64)),
        ("phase_seconds", Value::Object(phases)),
        ("paced_rate_per_s", Value::Object(rates)),
        ("saturate_window", Value::U64(plan::SATURATE_WINDOW as u64)),
        ("churn_period_ms", Value::U64(plan::CHURN_PERIOD_MS)),
        (
            "network",
            s("host loopback, no injected delay: latency is processor and wake-up time only, never wire time"),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn print_envelope(env: &[(String, Value)]) {
    for (k, v) in env {
        println!(
            "  {k:18} {}",
            serde_json::to_string(v).expect("envelope prints")
        );
    }
}

/// Every metric by name, with its unit, direction and bound.
fn print_metrics(m: &Metrics, defs: &[MetricDef], skip_missing: bool) {
    for d in defs {
        let Some(v) = m.get(d.name) else {
            assert!(skip_missing, "{} was not measured", d.name);
            continue;
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
        println!(
            "  {:36} {v:>14.3} {:6} {} is better{bound}",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
}

fn metrics_value<'a>(m: &Metrics, defs: impl IntoIterator<Item = &'a MetricDef>) -> Value {
    let one = |d: &MetricDef| {
        let v = *m
            .get(d.name)
            .unwrap_or_else(|| panic!("{} was not measured", d.name));
        let fields = vec![
            ("value".to_string(), Value::F64(v)),
            ("unit".to_string(), Value::Str(d.unit.into())),
        ];
        (d.name.to_string(), Value::Object(fields))
    };
    Value::Object(defs.into_iter().map(one).collect())
}

fn outcome_value(o: &Outcome, sections: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), Value::U64(o.attempted)),
        ("failed".to_string(), Value::U64(o.failed)),
    ];
    fields.extend(sections.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(fields)
}

/// The driver's form: one run, the result as the last line of stdout.
fn one_run(w: &'static Workload, seed: u64, scale: &Scale, traced: bool) -> ExitCode {
    println!("vsgm benchmark: workload {} ({})", w.name, w.why);
    print_envelope(&envelope(seed, scale));
    let mut o = match run::run(w, seed, scale) {
        Ok(o) => o,
        Err(Stop::Void(why)) => {
            eprintln!("VOID: {why}");
            return ExitCode::from(EXIT_VOID);
        }
        Err(Stop::Broken(why)) => {
            eprintln!("BROKEN: {why}");
            return ExitCode::from(EXIT_BROKEN);
        }
    };
    print!("{}", o.report);
    println!("end to end (tracing off):");
    print_metrics(&o.metrics, END_TO_END, false);
    let mut sections = vec![("end_to_end", metrics_value(&o.metrics, END_TO_END))];
    // The timings every run measures, traced or not (`cpu.*`, `driver.*`):
    // the full command keeps them from every run whose guards held.
    let timings = std::mem::replace(&mut o.timings, Ok(Metrics::new()));
    match timings {
        Ok(t) => {
            let defs = PER_LAYER.iter().filter(|d| t.contains_key(d.name));
            sections.push(("per_run", metrics_value(&t, defs)));
            o.metrics.extend(t);
        }
        Err(why) if traced => {
            eprintln!("VOID: {why}");
            return ExitCode::from(EXIT_VOID);
        }
        Err(why) => eprintln!("timings void, set-up time and memory stand: {why}"),
    }
    if traced {
        o.metrics.extend(layers::run(scale.divisor()));
        let unloaded = o.metrics["driver.lat_unloaded_p50_us"];
        o.metrics.extend(trace::run(
            w,
            seed,
            scale,
            unloaded,
            &out_dir().join("trace.jsonl"),
        ));
        sections.push(("per_layer", metrics_value(&o.metrics, PER_LAYER)));
    }
    println!("per layer:");
    print_metrics(&o.metrics, PER_LAYER, true);
    // Everything this run measured, for the full command to collect.
    let all = serde_json::to_string(&outcome_value(&o, sections)).expect("prints");
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(out_dir().join("last_run.json"), all))
    {
        eprintln!("cannot write out/last_run.json: {e}");
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let line = outcome_value(&o, vec![("metrics", metrics_value(&o.metrics, defs))]);
    println!("{}", serde_json::to_string(&line).expect("prints"));
    ExitCode::SUCCESS
}

fn child_run(w: &Workload, seed: u64, scale: &Scale, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &scale.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if scale.smoke {
        cmd.arg("--smoke");
    }
    // The child's account goes straight to our stdout.
    let status = cmd.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} seed {seed}: child ended with {status}", w.name));
    }
    let text =
        std::fs::read_to_string(out_dir().join("last_run.json")).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// The full command, the only one whose numbers are committed: every
/// workload in child processes of its own (so that memory and allocator
/// state are independent), `runs` times with consecutive seeds, the last
/// of them traced.
fn full_run(seed: u64, runs: usize, scale: &Scale) -> ExitCode {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut results = Vec::new();
        for r in 0..runs {
            match child_run(w, seed + r as u64, scale, r + 1 == runs) {
                Ok(v) => results.push(v),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(EXIT_BROKEN);
                }
            }
        }
        all_correct &= results
            .iter()
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        workloads.push((w.name.to_string(), compare::summarize(&results)));
    }
    let results = Value::Object(vec![
        ("envelope".to_string(), Value::Object(envelope(seed, scale))),
        ("runs".to_string(), Value::U64(runs as u64)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let path = out_dir().join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("prints");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(EXIT_BROKEN);
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("some run was not correct");
        ExitCode::FAILURE
    }
}
