//! Net-layer throughput: one loopback pair over the real TCP transport
//! with its default coalesced flushing (`binary_coalesced`) — plus the
//! connection-scaling arm of the event-loop rewrite (frames/s into one
//! receiver at 16 / 256 / 4096 concurrent connections, thread count
//! fixed at the loop-pool size).
//!
//! Beyond the Criterion display bench, this bench writes a machine-
//! readable `BENCH_net.json` (path overridable via `VSGM_BENCH_JSON`)
//! with frames/sec per arm — for the pair arm the median of
//! [`PAIR_RUNS`] runs, with the runs themselves beside it (single runs
//! ranged 0.35M–1.4M frames/s on a 2-core VM, EXPERIMENTS.md E5b), and
//! per scaling arm the resident-set growth from before its receiver
//! binds to its midpoint (`rss_mb`). With more than one scaling arm,
//! each runs in a child process of its own — this binary again, with
//! `VSGM_NET_BENCH_CONNS` naming that arm alone — so that no arm's
//! `rss_mb` reuses heap an earlier arm freed.
//! `VSGM_NET_BENCH_MSGS` scales the burst size (default 8000 frames);
//! `VSGM_NET_BENCH_CONNS` picks the
//! scaling arms (default `16,256,4096`), `VSGM_NET_CONN_FRAMES` their
//! total frame budget, `VSGM_NET_SCALE_FLOOR` asserts a frames/s floor
//! on the smallest arm, and `VSGM_NET_SCALING_ONLY=1` runs just the
//! scaling arms as a CI smoke (no JSON, no Criterion).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_types::{AppMsg, NetMsg, ProcSet, ProcessId};

const PAYLOAD_BYTES: usize = 96;
/// Loop threads serving the scaling-arm receiver, no matter how many
/// connections storm it.
const SCALE_LOOP_THREADS: usize = 4;

fn burst_size() -> u64 {
    std::env::var("VSGM_NET_BENCH_MSGS").ok().and_then(|s| s.parse().ok()).unwrap_or(8_000)
}

fn scaling_conns() -> Vec<usize> {
    std::env::var("VSGM_NET_BENCH_CONNS")
        .unwrap_or_else(|_| "16,256,4096".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect()
}

fn scaling_frames() -> u64 {
    std::env::var("VSGM_NET_CONN_FRAMES").ok().and_then(|s| s.parse().ok()).unwrap_or(98_304)
}

/// The name of the pair arm in output and in `BENCH_net.json`.
const PAIR_ARM: &str = "binary_coalesced";
/// Timed runs of the pair arm; its reported rate is their median.
const PAIR_RUNS: usize = 5;

fn arm_config() -> TcpConfig {
    TcpConfig {
        writer_queue: 4096,
        enqueue_timeout: Duration::from_secs(30),
        // No heartbeats: measure the data path alone.
        heartbeat_interval: Duration::ZERO,
        ..TcpConfig::default()
    }
}

/// Sends `msgs` frames over a fresh loopback pair and drains them all;
/// returns frames/sec from first send to last receive.
fn run_arm(msgs: u64) -> f64 {
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let config = arm_config();
    let a = TcpTransport::bind_with(p1, "127.0.0.1:0", config.clone()).unwrap();
    let b = TcpTransport::bind_with(p2, "127.0.0.1:0", config).unwrap();
    a.register_peer(p2, b.local_addr());
    let to: ProcSet = [p2].into_iter().collect();
    let msg = NetMsg::App(AppMsg::from(vec![0xAB; PAYLOAD_BYTES]));
    // Warm the connection so the handshake is outside the timed region.
    a.send(&to, &msg).unwrap();
    b.recv_timeout(Duration::from_secs(10)).expect("warmup frame");

    let start = Instant::now();
    for _ in 0..msgs {
        a.send(&to, &msg).unwrap();
    }
    for _ in 0..msgs {
        b.recv_timeout(Duration::from_secs(30)).expect("bench frame lost");
    }
    let secs = start.elapsed().as_secs_f64();
    msgs as f64 / secs.max(f64::EPSILON)
}

/// The middle value of `runs` (the upper middle of an even count).
fn median(runs: &[f64]) -> f64 {
    let mut sorted = runs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

fn connect_retry(addr: std::net::SocketAddr) -> TcpStream {
    // The listener backlog is finite; connection storms (4096 dials from
    // 8 threads) overrun it, so refused/reset dials are retried.
    for _ in 0..2_000 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    panic!("could not connect to the scaling-arm receiver at {addr}");
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// This process's resident set in MiB, from `/proc/self/status` (0 off
/// Linux).
fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// Soft `RLIMIT_NOFILE`, from `/proc/self/limits` (no libc in the dep
/// set). `None` off Linux — arms then run unguarded, as before.
fn fd_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// What one scaling arm measured.
struct ScalingArm {
    conns: usize,
    frames_per_sec: f64,
    /// Resident-set growth from before the receiver binds to the arm's
    /// midpoint, where `thread_peak` is read.
    rss_mb: f64,
}

/// Frames/s into ONE receiver transport from `conns` raw binary senders
/// (pre-encoded frames, chunked writes). Returns the arm, the
/// receiver's loop threads and the process thread peak — the last two
/// pin the headline property of the event-loop rewrite: serving 4096
/// connections takes the same fixed thread pool as serving 16.
fn run_scaling_arm(conns: usize, total_frames: u64) -> (ScalingArm, u64, usize) {
    let rss0 = vm_rss_mb();
    let rx = TcpTransport::bind_with(
        ProcessId::new(1),
        "127.0.0.1:0",
        TcpConfig {
            heartbeat_interval: Duration::ZERO,
            loop_threads: SCALE_LOOP_THREADS,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let addr = rx.local_addr();
    let msg = NetMsg::App(AppMsg::from(vec![0xCD; PAYLOAD_BYTES]));
    let frame = vsgm_net::codec::encode_frame(&msg);
    let per_conn = (total_frames / conns as u64).max(1);
    let expected = per_conn * conns as u64;
    let senders = conns.min(8);
    let barrier = Barrier::new(senders + 1);
    let mut rate = 0.0;
    let mut thread_peak = 0usize;
    let mut rss_mb = 0.0;
    std::thread::scope(|s| {
        for t in 0..senders {
            let (barrier, frame) = (&barrier, &frame);
            s.spawn(move || {
                // Establish this thread's share of the connections, with
                // handshakes, before the timed region starts.
                let mut mine: Vec<TcpStream> = (t..conns)
                    .step_by(senders)
                    .map(|i| {
                        let mut c = connect_retry(addr);
                        c.set_nodelay(true).unwrap();
                        c.write_all(&(1_000 + i as u64).to_le_bytes()).unwrap();
                        c
                    })
                    .collect();
                // One chunk = up to 256 coalesced frames per syscall,
                // mirroring the transport's own flush coalescing.
                const CHUNK: u64 = 256;
                let mut chunk = Vec::with_capacity(frame.len() * CHUNK as usize);
                for _ in 0..CHUNK {
                    chunk.extend_from_slice(frame);
                }
                barrier.wait();
                let mut sent = vec![0u64; mine.len()];
                loop {
                    let mut idle = true;
                    for (c, done) in mine.iter_mut().zip(sent.iter_mut()) {
                        let n = (per_conn - *done).min(CHUNK);
                        if n == 0 {
                            continue;
                        }
                        idle = false;
                        c.write_all(&chunk[..frame.len() * n as usize]).unwrap();
                        *done += n;
                    }
                    if idle {
                        break;
                    }
                }
            });
        }
        barrier.wait();
        let start = Instant::now();
        for i in 0..expected {
            rx.recv_timeout(Duration::from_secs(60)).expect("scaling frame lost");
            if i == expected / 2 {
                thread_peak = thread_count();
                rss_mb = vm_rss_mb() - rss0;
            }
        }
        rate = expected as f64 / start.elapsed().as_secs_f64().max(f64::EPSILON);
    });
    let arm = ScalingArm { conns, frames_per_sec: rate, rss_mb };
    (arm, rx.stats().loop_threads, thread_peak)
}

/// The line an arm is reported on, which [`run_scaling_arm_in_child`]
/// reads back.
fn arm_line(arm: &ScalingArm, loops: u64, threads: usize) -> String {
    format!(
        "net_throughput/conns_{:<5} {:>12.0} frames/s \
         ({loops} loop threads, {threads} process threads, {:+.1} MiB resident)",
        arm.conns, arm.frames_per_sec, arm.rss_mb
    )
}

/// [`run_scaling_arm`] in a fresh process: this bench binary re-run
/// with the same arguments and `VSGM_NET_BENCH_CONNS` naming `conns`
/// alone, its result read back from its [`arm_line`].
fn run_scaling_arm_in_child(conns: usize) -> (ScalingArm, u64, usize) {
    let exe = std::env::current_exe().expect("this bench's own path");
    let out = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("VSGM_NET_BENCH_CONNS", conns.to_string())
        .env("VSGM_NET_SCALING_ONLY", "1")
        .env_remove("VSGM_NET_SCALE_FLOOR")
        .output()
        .expect("run one scaling arm in a child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the {conns}-connection arm failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let prefix = format!("net_throughput/conns_{conns:<5} ");
    let numbers: Vec<f64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("the {conns}-connection arm printed no result:\n{stdout}"))
        .split_whitespace()
        .filter_map(|t| t.trim_matches(|c| c == '(' || c == ',').parse().ok())
        .collect();
    let [frames_per_sec, loops, threads, rss_mb] = numbers[..] else {
        panic!("unreadable {conns}-connection arm line: {numbers:?}");
    };
    (ScalingArm { conns, frames_per_sec, rss_mb }, loops as u64, threads as usize)
}

/// One JSON object line per scaling arm: `"conns": value`.
fn per_arm(
    body: &mut String,
    key: &str,
    scaling: &[ScalingArm],
    value: impl Fn(&ScalingArm) -> f64,
) {
    body.push_str(&format!("  \"{key}\": {{\n"));
    for (i, arm) in scaling.iter().enumerate() {
        let comma = if i + 1 == scaling.len() { "" } else { "," };
        body.push_str(&format!("    \"{}\": {:.1}{comma}\n", arm.conns, value(arm)));
    }
    body.push_str("  },\n");
}

fn emit_json(pair_runs: &[f64], scaling: &[ScalingArm], loop_threads: u64, thread_peak: usize) {
    let path = std::env::var("VSGM_BENCH_JSON").unwrap_or_else(|_| "BENCH_net.json".into());
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"net_throughput\",\n");
    body.push_str(&format!("  \"payload_bytes\": {PAYLOAD_BYTES},\n"));
    body.push_str(&format!("  \"msgs_per_arm\": {},\n", burst_size()));
    body.push_str("  \"frames_per_sec\": {\n");
    body.push_str(&format!("    \"{PAIR_ARM}\": {:.1}\n", median(pair_runs)));
    body.push_str("  },\n");
    let runs: Vec<String> = pair_runs.iter().map(|r| format!("{r:.1}")).collect();
    body.push_str(&format!("  \"{PAIR_ARM}_runs\": [{}],\n", runs.join(", ")));
    // The connection-scaling arms: frames/s into one receiver transport
    // at N concurrent inbound connections, event loops fixed at
    // `loop_threads` (thread count must not scale with connections),
    // and each arm's resident-set growth in MiB.
    per_arm(&mut body, "connections", scaling, |a| a.frames_per_sec);
    per_arm(&mut body, "rss_mb", scaling, |a| a.rss_mb);
    body.push_str("  \"scaling\": {\n");
    body.push_str(&format!("    \"receiver_loop_threads\": {loop_threads},\n"));
    body.push_str(&format!("    \"frames_per_scaling_arm\": {},\n", scaling_frames()));
    body.push_str(&format!("    \"process_thread_peak\": {thread_peak}\n"));
    body.push_str("  }\n");
    body.push_str("}\n");
    match std::fs::write(&path, &body) {
        Ok(()) => println!("net_throughput: wrote {path}"),
        Err(e) => eprintln!("net_throughput: cannot write {path}: {e}"),
    }
}

/// Runs every requested scaling arm, each in a child process of its own
/// when there are several; asserts the pool-size invariant and
/// (when `VSGM_NET_SCALE_FLOOR` is set) the frames/s floor on the
/// smallest arm. Returns the arm rates plus loop/process thread counts.
fn run_scaling_arms() -> (Vec<ScalingArm>, u64, usize) {
    let total = scaling_frames();
    let arms = scaling_conns();
    let own_process = arms.len() > 1;
    let mut out = Vec::new();
    let mut loop_threads = SCALE_LOOP_THREADS as u64;
    let mut peak = 0usize;
    for conns in arms {
        // The harness holds both ends of every connection (2 fds each)
        // plus listeners, channels, and stdio. Skip — loudly, never
        // silently — arms the fd rlimit cannot carry instead of dying
        // mid-storm on EMFILE (`ulimit -n 20000` runs them all).
        let need = 2 * conns as u64 + 64;
        if let Some(limit) = fd_limit() {
            if need > limit {
                println!(
                    "net_throughput/conns_{conns:<5} SKIPPED \
                     (needs ~{need} fds, rlimit is {limit}; raise ulimit -n)"
                );
                continue;
            }
        }
        let (arm, loops, threads) = if own_process {
            run_scaling_arm_in_child(conns)
        } else {
            run_scaling_arm(conns, total)
        };
        println!("{}", arm_line(&arm, loops, threads));
        assert!(
            loops <= SCALE_LOOP_THREADS as u64,
            "loop threads blew past the configured pool: {loops} > {SCALE_LOOP_THREADS}"
        );
        loop_threads = loops;
        peak = peak.max(threads);
        out.push(arm);
    }
    if let Some(floor) =
        std::env::var("VSGM_NET_SCALE_FLOOR").ok().and_then(|s| s.parse::<f64>().ok())
    {
        let arm = out
            .iter()
            .min_by_key(|a| a.conns)
            .expect("VSGM_NET_SCALE_FLOOR needs at least one scaling arm");
        let (conns, rate) = (arm.conns, arm.frames_per_sec);
        assert!(
            rate >= floor,
            "scaling arm regressed: {rate:.0} frames/s at {conns} conns is below the \
             pinned floor {floor:.0}"
        );
        println!("net_throughput: {conns}-conn floor held ({rate:.0} >= {floor:.0} frames/s)");
    }
    (out, loop_threads, peak)
}

fn net_bench(c: &mut Criterion) {
    if std::env::var_os("VSGM_NET_SCALING_ONLY").is_some() {
        // CI smoke: just the scaling arms and their floor/pool asserts.
        run_scaling_arms();
        return;
    }
    let msgs = burst_size();
    // A short discarded run warms the process first: the first timed
    // run in a fresh process reads far lower and swings far wider.
    run_arm(msgs.min(1_000));
    let runs: Vec<f64> = (0..PAIR_RUNS).map(|_| run_arm(msgs)).collect();
    println!(
        "net_throughput/{PAIR_ARM:<18} {:>12.0} frames/s (median of {PAIR_RUNS} runs of {msgs} \
         frames: {runs:.0?})",
        median(&runs)
    );
    let (scaling, loop_threads, thread_peak) = run_scaling_arms();
    emit_json(&runs, &scaling, loop_threads, thread_peak);

    // Criterion display bench over the same arm (budget-bounded).
    let mut g = c.benchmark_group("net_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(msgs));
    g.bench_function(PAIR_ARM, |b| b.iter(|| run_arm(msgs.min(1_000))));
    g.finish();
}

criterion_group!(benches, net_bench);
criterion_main!(benches);
