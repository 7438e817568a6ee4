//! Pinned regression: an `accept` that fails for want of descriptors must
//! not end accepting for good.
//!
//! The transport's listener used to run in an accept thread that left
//! its loop on any error but `WouldBlock`. One `EMFILE` — the process at
//! its descriptor limit when a peer connects — and the transport never
//! accepted again: the peer's connection, and every frame on it, sat in
//! the kernel backlog unnoticed. The event loop now pauses accepting for
//! a few milliseconds and tries again.
//!
//! One test in a binary of its own: it drives the whole process to its
//! descriptor limit, which would break any test running beside it.

use std::fs::File;
use std::process::Command;
use std::time::Duration;
use vsgm_net::TcpTransport;
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

/// `EMFILE` on Linux.
const EMFILE: i32 = 24;

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
fn fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line =
        limits.lines().find(|l| l.starts_with("Max open files")).expect("an open-files line");
    line.split_whitespace().nth(3).and_then(|n| n.parse().ok()).unwrap_or(u64::MAX)
}

/// Opens `/dev/null` until the process is out of descriptors.
fn hoard_every_descriptor() -> Vec<File> {
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => held.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "expected EMFILE, got {e}");
                return held;
            }
        }
    }
}

#[test]
fn a_frame_sent_while_the_server_is_out_of_descriptors_still_arrives() {
    if fd_limit() > 1 << 16 {
        // Hoarding that many descriptors would cost real kernel memory:
        // rerun this test alone under a lower soft limit.
        let status = Command::new("sh")
            .args(["-c", r#"ulimit -Sn 4096 && exec "$0" --exact "$1" --test-threads 1"#])
            .arg(std::env::current_exe().expect("test binary path"))
            .arg("a_frame_sent_while_the_server_is_out_of_descriptors_still_arrives")
            .status()
            .expect("rerun under ulimit");
        assert!(status.success(), "rerun under a 4096-descriptor limit failed: {status}");
        return;
    }
    let (srv_pid, cli_pid) = (ProcessId::new(1), ProcessId::new(2));
    let srv = TcpTransport::bind(srv_pid, "127.0.0.1:0").unwrap();
    let cli = TcpTransport::bind(cli_pid, "127.0.0.1:0").unwrap();
    cli.register_peer(srv_pid, srv.local_addr());

    let mut hoard = hoard_every_descriptor();
    // Exactly one descriptor left: the client's socket takes it, so the
    // server's accept of that connection finds none.
    drop(hoard.pop());
    let to: ProcSet = [srv_pid].into_iter().collect();
    let msg = NetMsg::App(AppMsg::from("sent at the limit"));
    cli.send(&to, &msg).expect("the client connects with the last descriptor");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(srv.accepted_connections(), 0, "accept cannot succeed without a descriptor");

    drop(hoard);
    assert_eq!(
        srv.recv_timeout(Duration::from_secs(5)),
        Some((cli_pid, msg)),
        "the server must accept the connection once descriptors are back"
    );
    assert_eq!(srv.accepted_connections(), 1);
}
