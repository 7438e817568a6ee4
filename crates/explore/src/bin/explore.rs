//! `explore` — run the bounded exhaustive interleaving explorer over the
//! seed configurations (or one named configuration) and report path /
//! state / pruning statistics. Exits nonzero with a replayable
//! counterexample report if any path violates the spec suite.
//!
//! Usage: `explore [--config NAME] [--no-dpor] [--format json]`

use vsgm_explore::{explore, ExploreConfig, ExploreOptions};

fn usage() -> ! {
    eprintln!(
        "usage: explore [--config canonical|aggregation|crash-recovery|corruption|ack-round] [--no-dpor] [--format json]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config: Option<String> = None;
    let mut dpor = true;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--config" => config = Some(args.next().unwrap_or_else(|| usage())),
            "--no-dpor" => dpor = false,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let configs: Vec<ExploreConfig> = match &config {
        None => ExploreConfig::seeds(),
        Some(name) => {
            let found = ExploreConfig::seeds().into_iter().find(|c| c.name == *name);
            match found {
                Some(c) => vec![c],
                None => usage(),
            }
        }
    };
    let opts = ExploreOptions { dpor };
    let mut failed = false;
    let mut lines = Vec::new();
    for cfg in &configs {
        let outcome = explore(cfg, &opts);
        let s = &outcome.stats;
        if json {
            lines.push(format!(
                "{{\"config\":\"{}\",\"dpor\":{},\"paths\":{},\"pruned\":{},\"states\":{},\"max_depth\":{},\"violating_paths\":{}}}",
                cfg.name, dpor, s.paths, s.pruned, s.states, s.max_depth, s.violating_paths
            ));
        } else {
            lines.push(format!(
                "{:<16} paths={:<8} pruned={:<8} states={:<8} max_depth={:<4} violating={}",
                cfg.name, s.paths, s.pruned, s.states, s.max_depth, s.violating_paths
            ));
        }
        if let Some(cex) = &outcome.counterexample {
            failed = true;
            eprintln!("counterexample in config '{}':\n{}", cfg.name, cex.render());
        }
    }
    for l in &lines {
        println!("{l}");
    }
    if failed {
        std::process::exit(1);
    }
}
