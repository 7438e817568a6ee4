//! Runs a JSON scenario file under full spec checking.
//!
//! ```text
//! cargo run -p vsgm-harness --bin scenario -- path/to/scenario.json
//! cargo run -p vsgm-harness --bin scenario -- --demo        # built-in demo
//! cargo run -p vsgm-harness --bin scenario -- --print-demo  # emit demo JSON
//! cargo run -p vsgm-harness --bin scenario -- --obs [file]  # + metrics table
//! ```
//!
//! `--obs` runs the scenario with protocol observability on and prints
//! the metrics snapshot table; with a file argument it runs that
//! scenario instead of the demo.

#![allow(clippy::panic, reason = "outside P1: a command-line tool that stops on bad input")]

use vsgm_harness::Scenario;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let observe = if let Some(i) = args.iter().position(|a| a == "--obs") {
        args.remove(i);
        true
    } else {
        false
    };
    let arg = args.into_iter().next().unwrap_or_else(|| "--demo".into());
    let scenario = match arg.as_str() {
        "--demo" => Scenario::demo(),
        "--print-demo" => {
            println!("{}", Scenario::demo().to_json());
            return;
        }
        path => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            Scenario::from_json(&text).unwrap_or_else(|e| panic!("bad scenario JSON: {e}"))
        }
    };
    let outcome = if observe {
        let (outcome, snap) = scenario.run_observed();
        println!("{}", snap.render_table());
        outcome
    } else {
        scenario.run()
    };
    println!("events: {}", outcome.events);
    for (kind, count) in &outcome.kind_counts {
        println!("  {kind:20} {count}");
    }
    if outcome.violations.is_empty() {
        println!("all specification checkers clean ✓");
    } else {
        eprintln!("SPEC VIOLATIONS:");
        for v in &outcome.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
