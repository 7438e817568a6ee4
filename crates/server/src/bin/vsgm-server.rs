//! The `vsgm-server` daemon entry point.
//!
//! ```text
//! vsgm-server [--addr 127.0.0.1:7400] [--pid 0] [--shards 4] [--capacity 16]
//! ```
//!
//! Binds the multi-group server and serves until interrupted, printing
//! a `server.*` counter snapshot every few seconds. Clients speak the
//! directory protocol on group 0 (`create/join/lookup/leave <name>`)
//! and group traffic on the ids the directory hands out — see the
//! README quick-start.

use std::time::Duration;
use vsgm_server::{GroupServer, ServerConfig};
use vsgm_types::ProcessId;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let addr: String = parse_flag(&args, "--addr", "127.0.0.1:7400".to_string());
    let pid: u64 = parse_flag(&args, "--pid", 0);
    let cfg = ServerConfig {
        shards: parse_flag(&args, "--shards", 4),
        group_capacity: parse_flag(&args, "--capacity", 16),
        ..ServerConfig::default()
    };
    let shards = cfg.shards;
    let server = GroupServer::bind(ProcessId::new(pid), &addr, cfg)?;
    println!("vsgm-server p{pid} on {} ({} shards)", server.local_addr(), shards);
    loop {
        std::thread::sleep(Duration::from_secs(5));
        let s = server.stats();
        println!(
            "groups={} routed={} unroutable={} dir(create/join/lookup/leave)={}/{}/{}/{}",
            s.groups_hosted,
            s.frames_routed,
            s.frames_unroutable,
            s.dir_creates,
            s.dir_joins,
            s.dir_lookups,
            s.dir_leaves
        );
    }
}
