//! Regenerates the experiment tables of `EXPERIMENTS.md`.
//!
//! Usage:
//! ```text
//! cargo run --release -p vsgm-harness --bin experiments            # all
//! cargo run --release -p vsgm-harness --bin experiments -- E6 E10  # some
//! ```
//!
//! An unknown id prints the known ones and exits 2 with no table printed.

use vsgm_harness::experiments::{all, run_by_id, IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = if args.is_empty() {
        all()
    } else {
        match args.iter().map(|id| run_by_id(id).ok_or(id)).collect::<Result<Vec<_>, _>>() {
            Ok(tables) => tables,
            Err(id) => {
                eprintln!("unknown experiment id `{id}`; known ids: {}", IDS.join(" "));
                std::process::exit(2);
            }
        }
    };
    for t in tables {
        println!("{}", t.render());
    }
}
