//! Sets of runs: how the full command condenses the runs of a workload into
//! `results.json`, and `--compare`, which holds two such files against the
//! bounds. This is the acceptance check of the benchmark itself (two sets
//! of runs of one commit must agree) and what later changes are judged by.

use crate::plan::{Better, MetricDef, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); a lone value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn field(name: &str, v: Value) -> (String, Value) {
    (name.to_string(), v)
}

/// Condenses the runs of one workload (each the content of a run's
/// `last_run.json`): per end-to-end metric, and per per-layer metric that
/// every run measures (`per_run`), the median, the quartile spread as a
/// share of the median, and every value; the per-layer metrics of the
/// traced run; operations attempted and failed, summed; and whether every
/// run was correct.
pub fn summarize(runs: &[Value]) -> Value {
    let across_runs = |section: &'static str, defs: &'static [MetricDef]| {
        let one = move |d: &MetricDef| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| number(r.get(section)?.get(d.name)?.get("value")))
                .collect();
            let [q1, median, q3] = quartiles(&values)?;
            let mut fields = vec![
                field("median", Value::F64(median)),
                field("spread", Value::F64((q3 - q1) / median)),
                field("unit", Value::Str(d.unit.into())),
                field("better", Value::Str(d.better.as_str().into())),
            ];
            fields.extend(d.bound.map(|b| field("bound", Value::F64(b))));
            fields.push(field(
                "values",
                Value::Array(values.into_iter().map(Value::F64).collect()),
            ));
            Some(field(d.name, Value::Object(fields)))
        };
        Value::Object(defs.iter().filter_map(one).collect())
    };
    let sum = |key: &str| runs.iter().filter_map(|r| number(r.get(key))).sum::<f64>() as u64;
    let per_layer = runs
        .iter()
        .rev()
        .find_map(|r| r.get("per_layer"))
        .cloned()
        .unwrap_or(Value::Null);
    let correct = runs
        .iter()
        .all(|r| r.get("correct") == Some(&Value::Bool(true)));
    Value::Object(vec![
        field("correct", Value::Bool(correct)),
        field("attempted", Value::U64(sum("attempted"))),
        field("failed", Value::U64(sum("failed"))),
        field("end_to_end", across_runs("end_to_end", END_TO_END)),
        field("per_run", across_runs("per_run", PER_LAYER)),
        field("per_layer", per_layer),
    ])
}

/// By how much of `a` the metric is worse in `b` (negative: better).
fn worse_by(d: &MetricDef, a: f64, b: f64) -> f64 {
    match d.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per workload and end-to-end metric — both medians, the
/// relative difference, the bound — one without a bound per per-layer metric
/// that every run measures, one per exact count, and one for failures: `b` breaches when a run of it was not correct or a larger
/// share of its operations failed than of `a`'s, whatever its timings say.
/// Returns the number of breaches.
fn compare(a: &Value, b: &Value) -> usize {
    let mut breaches = 0;
    println!(
        "{:12} {:24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in WORKLOADS {
        let side = |v: &Value, section: &str, name: &str, key: &str| {
            number(
                v.get("workloads")?
                    .get(w.name)?
                    .get(section)?
                    .get(name)?
                    .get(key),
            )
        };
        for d in END_TO_END {
            let (Some(x), Some(y)) = (
                side(a, "end_to_end", d.name, "median"),
                side(b, "end_to_end", d.name, "median"),
            ) else {
                println!("{:12} {:24} missing on one side", w.name, d.name);
                breaches += 1;
                continue;
            };
            let (worse, bound) = (worse_by(d, x, y), d.bound.unwrap_or(0.0));
            let verdict = if worse > bound { "BREACH" } else { "" };
            breaches += usize::from(worse > bound);
            println!(
                "{:12} {:24} {x:>14.3} {y:>14.3} {:>8.1}% {:>6.0}% {verdict}",
                w.name,
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        for d in PER_LAYER {
            if let (Some(x), Some(y)) = (
                side(a, "per_run", d.name, "median"),
                side(b, "per_run", d.name, "median"),
            ) {
                println!(
                    "{:12} {:24} {x:>14.3} {y:>14.3} {:>8.1}%   none",
                    w.name,
                    d.name,
                    worse_by(d, x, y) * 100.0
                );
            }
        }
        let fail_ratio = |v: &Value| {
            let of = |key: &str| number(v.get("workloads")?.get(w.name)?.get(key));
            Some(of("failed")? / of("attempted")?.max(1.0))
        };
        let b_correct = b
            .get("workloads")
            .and_then(|ws| ws.get(w.name)?.get("correct"))
            == Some(&Value::Bool(true));
        let (fa, fb) = (fail_ratio(a), fail_ratio(b));
        let failing = !b_correct || fa.is_none() || fb.is_none() || fb > fa;
        breaches += usize::from(failing);
        println!(
            "{:12} {:24} {:>14.6} {:>14.6} {}",
            w.name,
            "failed / attempted",
            fa.unwrap_or(f64::NAN),
            fb.unwrap_or(f64::NAN),
            match (failing, b_correct) {
                (false, _) => "",
                (true, false) => "BREACH (a run of b was not correct)",
                (true, true) => "BREACH (more operations failed)",
            }
        );
        for name in EXACT_COUNTS {
            let (x, y) = (
                side(a, "per_layer", name, "value"),
                side(b, "per_layer", name, "value"),
            );
            let verdict = if x == y && x.is_some() {
                ""
            } else {
                "BREACH (exact count differs)"
            };
            breaches += usize::from(!verdict.is_empty());
            println!("{:12} {name:24} {x:>14.3?} {y:>14.3?} {verdict}", w.name);
        }
    }
    breaches
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    debug_assert!(EXACT_COUNTS
        .iter()
        .all(|n| PER_LAYER.iter().any(|d| d.name == *n)));
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => match compare(&a, &b) {
            0 => ExitCode::SUCCESS,
            n => {
                eprintln!("{n} breaches");
                ExitCode::FAILURE
            }
        },
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    fn results(setup_s: f64, mcast_per_s: f64, outputs: f64) -> Value {
        results_failing(setup_s, mcast_per_s, outputs, 0, true)
    }

    fn results_failing(
        setup_s: f64,
        mcast_per_s: f64,
        outputs: f64,
        failed: u64,
        correct: bool,
    ) -> Value {
        let value =
            |name: &str, v: f64| field(name, Value::Object(vec![field("value", Value::F64(v))]));
        let e2e = END_TO_END
            .iter()
            .map(|d| value(d.name, if d.name == "setup_s" { setup_s } else { 100.0 }));
        let one = Value::Object(vec![
            field("correct", Value::Bool(correct)),
            field("attempted", Value::U64(10)),
            field("failed", Value::U64(failed)),
            field("end_to_end", Value::Object(e2e.collect())),
            field(
                "per_run",
                Value::Object(vec![value("driver.mcast_per_s", mcast_per_s)]),
            ),
            field(
                "per_layer",
                Value::Object(EXACT_COUNTS.iter().map(|n| value(n, outputs)).collect()),
            ),
        ]);
        let per_workload = WORKLOADS
            .iter()
            .map(|w| field(w.name, summarize(&[one.clone(), one.clone()])));
        Value::Object(vec![field(
            "workloads",
            Value::Object(per_workload.collect()),
        )])
    }

    #[test]
    fn compare_counts_breaches_in_the_worse_direction_only() {
        let base = results(1.0, 1000.0, 4.0);
        assert_eq!(compare(&base, &base), 0);
        // Lower is better: 20 % slower set-up is inside its 25 % bound, 30 % is not.
        assert_eq!(compare(&base, &results(1.2, 1000.0, 4.0)), 0);
        assert_eq!(compare(&base, &results(1.3, 1000.0, 4.0)), WORKLOADS.len());
        assert_eq!(
            compare(&base, &results(0.5, 1000.0, 4.0)),
            0,
            "better is never a breach"
        );
        // A metric without a bound is shown and never breaches.
        assert_eq!(compare(&base, &results(1.0, 10.0, 4.0)), 0);
        let mcast = PER_LAYER
            .iter()
            .find(|d| d.name == "driver.mcast_per_s")
            .expect("listed");
        assert_eq!(worse_by(mcast, 1000.0, 750.0), 0.25, "higher is better");
        assert_eq!(worse_by(&END_TO_END[0], 1.0, 1.25), 0.25, "lower is better");
        // Failures breach whatever the timings say: a faster run that
        // loses multicasts or trips a checker is not a gain.
        let lossy = results_failing(0.5, 2000.0, 4.0, 1, false);
        assert_eq!(compare(&base, &lossy), WORKLOADS.len());
        assert_eq!(
            compare(&lossy, &lossy),
            WORKLOADS.len(),
            "still not correct"
        );
        let wrong = results_failing(1.0, 1000.0, 4.0, 0, false);
        assert_eq!(compare(&base, &wrong), WORKLOADS.len(), "checker violation");
        // Exact counts must repeat exactly.
        assert_eq!(
            compare(&base, &results(1.0, 1000.0, 5.0)),
            WORKLOADS.len() * EXACT_COUNTS.len()
        );
    }

    #[test]
    fn summary_holds_median_and_spread() {
        let run = |v: f64| {
            let e2e = vec![field(
                "setup_s",
                Value::Object(vec![field("value", Value::F64(v))]),
            )];
            Value::Object(vec![
                field("attempted", Value::U64(1)),
                field("end_to_end", Value::Object(e2e)),
            ])
        };
        let runs: Vec<Value> = (1..=10).map(|i| run(f64::from(i))).collect();
        let s = summarize(&runs);
        let setup = s
            .get("end_to_end")
            .and_then(|e| e.get("setup_s"))
            .expect("setup_s");
        assert_eq!(number(setup.get("median")), Some(5.5));
        assert_eq!(number(setup.get("spread")), Some(1.0)); // (8.25 - 2.75) / 5.5
        assert_eq!(number(s.get("attempted")), Some(10.0));
        assert_eq!(
            s.get("correct"),
            Some(&Value::Bool(false)),
            "no run said so"
        );
    }
}
