//! The `vsgm-server` daemon entry point.
//!
//! ```text
//! vsgm-server [--addr ADDR] [--pid N] [--shards N] [--capacity N]
//! ```
//!
//! A flag left out keeps its default, set in one place: `parse_args`
//! for the address and pid, `ServerConfig::default` for the rest.
//! Binds the multi-group server, prints `vsgm-server p<pid> on <addr>`
//! as its first line, and serves until interrupted, printing a
//! `server.*` counter snapshot every few seconds (`unsent=` counts frames
//! owed to clients whose connection had closed). Clients speak the
//! directory protocol on group 0 (`create/join/lookup/leave <name>`)
//! and group traffic on the ids the directory hands out — see the
//! README quick-start. A malformed command line prints the usage on
//! stderr and exits with status 2.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;
use vsgm_server::{GroupServer, ServerConfig};
use vsgm_types::ProcessId;

const USAGE: &str = "usage: vsgm-server [--addr ADDR] [--pid N] [--shards N] [--capacity N]";

/// What the command line asks for.
#[derive(Debug)]
struct Args {
    addr: String,
    pid: u64,
    cfg: ServerConfig,
}

/// Reads the flags after the program name. Every flag takes a value; an
/// unknown flag, a missing or malformed value, or zero shards is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    fn value<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
    }
    let mut out = Args { addr: "127.0.0.1:7400".to_string(), pid: 0, cfg: ServerConfig::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut v = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => out.addr = v()?.clone(),
            "--pid" => out.pid = value(flag, v()?)?,
            "--shards" => out.cfg.shards = value(flag, v()?)?,
            "--capacity" => out.cfg.group_capacity = value(flag, v()?)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.cfg.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(out)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { addr, pid, cfg } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vsgm-server: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let shards = cfg.shards;
    let server = GroupServer::bind(ProcessId::new(pid), &addr, cfg)?;
    println!("vsgm-server p{pid} on {} ({} shards)", server.local_addr(), shards);
    loop {
        std::thread::sleep(Duration::from_secs(5));
        let s = server.stats();
        println!(
            "groups={} routed={} unroutable={} unsent={} dir(create/join/lookup/leave)={}/{}/{}/{}",
            s.groups_hosted,
            s.frames_routed,
            s.frames_unroutable,
            s.frames_unsent,
            s.dir_creates,
            s.dir_joins,
            s.dir_lookups,
            s.dir_leaves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_every_flag() {
        let a = parse("").unwrap();
        assert_eq!(
            (a.addr.as_str(), a.pid, a.cfg.shards, a.cfg.group_capacity),
            ("127.0.0.1:7400", 0, 4, 16)
        );
        let a = parse("--capacity 4 --addr 0.0.0.0:9 --shards 8 --pid 3").unwrap();
        assert_eq!(
            (a.addr.as_str(), a.pid, a.cfg.shards, a.cfg.group_capacity),
            ("0.0.0.0:9", 3, 8, 4)
        );
    }

    #[test]
    fn malformed_unknown_missing_and_zero_are_refused() {
        for (line, why) in [
            ("--shards x", "--shards \"x\""),
            ("--capacity -3", "--capacity \"-3\""),
            ("--pid 1.5", "--pid \"1.5\""),
            ("--shard 8", "unknown argument \"--shard\""),
            ("4", "unknown argument \"4\""),
            ("--addr", "--addr needs a value"),
            ("--shards 0", "--shards must be at least 1"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.starts_with(why), "{line}: {err}");
        }
    }
}
