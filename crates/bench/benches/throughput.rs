//! E5 — steady-state multicast throughput (simulated and real TCP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use vsgm_core::node::AppEvent;
use vsgm_core::{Config, Endpoint, Input, Node};
use vsgm_harness::experiments;
use vsgm_net::TcpTransport;
use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

/// With `VSGM_OBS_SNAPSHOT=<dir>` set, re-runs an instrumented 4-process
/// steady-state multicast burst and writes the observability snapshot
/// (delivery-latency histogram, per-tag traffic) to
/// `<dir>/throughput.json`.
fn dump_obs_snapshot() {
    let Ok(dir) = std::env::var("VSGM_OBS_SNAPSHOT") else { return };
    use vsgm_harness::sim::procs;
    use vsgm_harness::{Sim, SimOptions};
    let mut sim = Sim::new_paper(4, Config::default(), SimOptions::default());
    sim.enable_obs();
    sim.reconfigure(&procs(4));
    for k in 0..20u64 {
        for i in 1..=4u64 {
            sim.send(ProcessId::new(i), AppMsg::from(format!("m{i}.{k}").as_str()));
        }
        sim.run_to_quiescence();
    }
    let reg = sim.take_obs().expect("obs on");
    let snap = vsgm_obs::Snapshot::capture(&reg, sim.trace().entries());
    let path = std::path::Path::new(&dir).join("throughput.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, snap.to_json_pretty()))
        .unwrap_or_else(|e| eprintln!("VSGM_OBS_SNAPSHOT: cannot write {}: {e}", path.display()));
    println!("obs snapshot written to {}", path.display());
}

fn sim_bench(c: &mut Criterion) {
    println!("{}", experiments::e5_throughput(&[2, 4, 8, 16], 20).render());
    dump_obs_snapshot();
    let mut g = c.benchmark_group("E5_throughput_sim");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.throughput(Throughput::Elements((n * n * 20) as u64));
        g.bench_with_input(BenchmarkId::new("group", n), &n, |b, &n| {
            b.iter(|| experiments::e5_throughput(&[n], 20))
        });
    }
    g.finish();
}

fn tcp_bench(c: &mut Criterion) {
    // Two nodes on loopback; time a 100-message FIFO burst end to end.
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let t1 = TcpTransport::bind(p1, "127.0.0.1:0").unwrap();
    let t2 = TcpTransport::bind(p2, "127.0.0.1:0").unwrap();
    t1.register_peer(p2, t2.local_addr());
    t2.register_peer(p1, t1.local_addr());
    let mut a = Node::new(Endpoint::new(p1, Config::default()), t1);
    let mut bnode = Node::new(Endpoint::new(p2, Config::default()), t2);
    let members: ProcSet = [p1, p2].into_iter().collect();
    let view = View::new(
        ViewId::new(1, 0),
        members.iter().copied(),
        members.iter().map(|&m| (m, StartChangeId::new(1))),
    );
    for n in [&mut a, &mut bnode] {
        n.membership(Input::StartChange { cid: StartChangeId::new(1), set: members.clone() })
            .unwrap();
        n.membership(Input::MbrshpView(view.clone())).unwrap();
    }
    // Pump until both installed (judged by endpoint state — installation
    // can complete inside the membership() calls above).
    while a.endpoint().current_view().len() < 2 || bnode.endpoint().current_view().len() < 2 {
        for n in [&mut a, &mut bnode] {
            n.pump(Duration::from_millis(5)).unwrap();
        }
    }
    let mut g = c.benchmark_group("E5_throughput_tcp");
    g.sample_size(10);
    g.throughput(Throughput::Elements(100));
    g.bench_function("loopback_100_msgs", |b| {
        b.iter(|| {
            for k in 0..100 {
                a.send(AppMsg::from(format!("m{k}").as_str())).unwrap();
            }
            let mut got = 0;
            while got < 100 {
                for e in bnode.pump(Duration::from_millis(1)).unwrap() {
                    if matches!(e, AppEvent::Delivered { .. }) {
                        got += 1;
                    }
                }
                a.pump(Duration::ZERO).unwrap();
            }
        })
    });
    g.finish();
}

criterion_group!(benches, sim_bench, tcp_bench);
criterion_main!(benches);
