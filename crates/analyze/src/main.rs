//! CLI for `vsgm-analyze`.
//!
//! ```text
//! vsgm-analyze [--root DIR] [--format table|json] [--list-rules]
//! ```
//!
//! Exits 0 on a clean tree, 1 when findings survive waivers, 2 on usage
//! or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use vsgm_analyze::{analyze_root, find_root, report, rules};

struct Opts {
    root: Option<PathBuf>,
    json: bool,
    list_rules: bool,
}

fn usage() -> String {
    "usage: vsgm-analyze [--root DIR] [--format table|json] [--list-rules]\n"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { root: None, json: false, list_rules: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or_else(|| "--root needs a value".to_string())?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or_else(|| "--format needs a value".to_string())?;
                match v.as_str() {
                    "json" => opts.json = true,
                    "table" => opts.json = false,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprint!("vsgm-analyze: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for (id, desc) in rules::RULES {
            println!("{id}  {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("vsgm-analyze: cannot determine current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.or_else(|| find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "vsgm-analyze: no workspace root found above {} (pass --root)",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };

    let rep = match analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vsgm-analyze: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", report::json(&rep));
    } else {
        print!("{}", report::table(&rep));
    }
    if rep.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
