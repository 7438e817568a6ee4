//! GCS endpoint throughput: per-message sends vs endpoint-level batching
//! (`BatchConfig`), end-to-end over the real TCP transport on loopback.
//!
//! Unlike `net_throughput` (raw transport frames), this measures the full
//! group-multicast hot path: `Node::send` → WV_RFIFO stamping → batch
//! accumulation → one `AppBatch` frame per flush → receive-side
//! unbatching → application delivery. Beyond the Criterion display
//! benches, it writes a machine-readable `BENCH_gcs.json` (path
//! overridable via `VSGM_BENCH_JSON`) with delivered msgs/sec per arm and
//! the headline `speedup_batched_over_per_message`, which EXPERIMENTS.md
//! tracks against its ≥2× claim. `VSGM_GCS_BENCH_MSGS` scales the burst
//! size (default 8000 messages per arm).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::{Duration, Instant};
use vsgm_core::node::{AppEvent, Node};
use vsgm_core::{BatchConfig, Config, Endpoint, Input};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

const PAYLOAD_BYTES: usize = 16;

fn burst_size() -> u64 {
    std::env::var("VSGM_GCS_BENCH_MSGS").ok().and_then(|s| s.parse().ok()).unwrap_or(8_000)
}

fn transport_config() -> TcpConfig {
    TcpConfig {
        writer_queue: 4096,
        enqueue_timeout: Duration::from_secs(30),
        // No heartbeats: measure the data path alone.
        heartbeat_interval: Duration::ZERO,
        ..TcpConfig::default()
    }
}

/// Builds a connected two-node group with an installed two-member view.
fn two_node_group(batch: BatchConfig) -> (Node, Node) {
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let t1 = TcpTransport::bind_with(p1, "127.0.0.1:0", transport_config()).unwrap();
    let t2 = TcpTransport::bind_with(p2, "127.0.0.1:0", transport_config()).unwrap();
    t1.register_peer(p2, t2.local_addr());
    t2.register_peer(p1, t1.local_addr());
    let cfg = Config { batch, ..Config::default() };
    let mut a = Node::new(Endpoint::new(p1, cfg.clone()), t1);
    let mut b = Node::new(Endpoint::new(p2, cfg), t2);
    let members: ProcSet = [p1, p2].into_iter().collect();
    let view = View::new(
        ViewId::new(1, 0),
        [p1, p2],
        [(p1, StartChangeId::new(1)), (p2, StartChangeId::new(1))],
    );
    let mut installed = 0usize;
    for n in [&mut a, &mut b] {
        let evs = n
            .membership(Input::StartChange { cid: StartChangeId::new(1), set: members.clone() })
            .unwrap();
        installed += evs.iter().filter(|e| matches!(e, AppEvent::View { .. })).count();
    }
    for n in [&mut a, &mut b] {
        let evs = n.membership(Input::MbrshpView(view.clone())).unwrap();
        installed += evs.iter().filter(|e| matches!(e, AppEvent::View { .. })).count();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while installed < 2 {
        assert!(Instant::now() < deadline, "view never installed");
        for n in [&mut a, &mut b] {
            let evs = n.pump(Duration::from_millis(2)).unwrap();
            installed += evs.iter().filter(|e| matches!(e, AppEvent::View { .. })).count();
        }
    }
    (a, b)
}

fn count_delivered(evs: &[AppEvent]) -> u64 {
    evs.iter().filter(|e| matches!(e, AppEvent::Delivered { .. })).count() as u64
}

/// Multicasts `msgs` messages from node 1 and drains them at node 2;
/// returns delivered msgs/sec from first send to last delivery.
fn run_arm(batch: BatchConfig, msgs: u64) -> f64 {
    let (mut a, mut b) = two_node_group(batch);
    let msg = AppMsg::from(vec![0xAB; PAYLOAD_BYTES]);
    // Warm the path (and flush any linger tail) outside the timed region.
    a.send(msg.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut warm = 0u64;
    while warm < 1 {
        assert!(Instant::now() < deadline, "warmup message never delivered");
        let _ = a.pump(Duration::from_millis(1)).unwrap();
        warm += count_delivered(&b.pump(Duration::from_millis(1)).unwrap());
    }

    let start = Instant::now();
    let mut delivered = 0u64;
    for _ in 0..msgs {
        a.send(msg.clone()).unwrap();
        delivered += count_delivered(&b.pump(Duration::ZERO).unwrap());
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while delivered < msgs {
        assert!(Instant::now() < deadline, "bench messages lost: {delivered}/{msgs}");
        // Pumping the sender releases any linger-held tail batch.
        let _ = a.pump(Duration::from_millis(1)).unwrap();
        delivered += count_delivered(&b.pump(Duration::from_millis(1)).unwrap());
    }
    let secs = start.elapsed().as_secs_f64();
    msgs as f64 / secs.max(f64::EPSILON)
}

struct Arm {
    name: &'static str,
    batch: fn() -> BatchConfig,
}

const ARMS: [Arm; 3] = [
    Arm { name: "per_message", batch: BatchConfig::off },
    Arm { name: "batched_small", batch: BatchConfig::small },
    Arm { name: "batched_large", batch: BatchConfig::large },
];

fn emit_json(rates: &[(&'static str, f64)]) {
    let path = std::env::var("VSGM_BENCH_JSON").unwrap_or_else(|_| "BENCH_gcs.json".into());
    let speedup = {
        let rate = |n: &str| rates.iter().find(|(a, _)| *a == n).map_or(0.0, |(_, r)| *r);
        let base = rate("per_message");
        if base > 0.0 {
            rate("batched_large") / base
        } else {
            0.0
        }
    };
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"gcs_throughput\",\n");
    body.push_str(&format!("  \"payload_bytes\": {PAYLOAD_BYTES},\n"));
    body.push_str(&format!("  \"msgs_per_arm\": {},\n", burst_size()));
    body.push_str("  \"delivered_msgs_per_sec\": {\n");
    for (i, (name, rate)) in rates.iter().enumerate() {
        let comma = if i + 1 == rates.len() { "" } else { "," };
        body.push_str(&format!("    \"{name}\": {rate:.1}{comma}\n"));
    }
    body.push_str("  },\n");
    body.push_str(&format!("  \"speedup_batched_over_per_message\": {speedup:.2}\n"));
    body.push_str("}\n");
    match std::fs::write(&path, &body) {
        Ok(()) => println!("gcs_throughput: wrote {path} (speedup {speedup:.2}x)"),
        Err(e) => eprintln!("gcs_throughput: cannot write {path}: {e}"),
    }
}

fn gcs_bench(c: &mut Criterion) {
    let msgs = burst_size();
    let mut rates: Vec<(&'static str, f64)> = Vec::new();
    for arm in &ARMS {
        let rate = run_arm((arm.batch)(), msgs);
        println!("gcs_throughput/{:<16} {rate:>12.0} msgs/s ({msgs} msgs)", arm.name);
        rates.push((arm.name, rate));
    }
    emit_json(&rates);

    // Criterion display benches over the same arms (budget-bounded).
    let mut g = c.benchmark_group("gcs_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(msgs));
    for arm in &ARMS {
        g.bench_function(arm.name, |b| b.iter(|| run_arm((arm.batch)(), msgs.min(1_000))));
    }
    g.finish();
}

criterion_group!(benches, gcs_bench);
criterion_main!(benches);
