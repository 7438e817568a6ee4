//! E1/E2 — one-round (paper) vs two-round (baseline) view change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vsgm_harness::experiments;
use vsgm_harness::sim::procs;
use vsgm_harness::{Sim, SimOptions};

/// With `VSGM_OBS_SNAPSHOT=<dir>` set, re-runs an instrumented 8-process
/// view-change scenario and writes the observability snapshot (span
/// latencies, messages per view change) to `<dir>/view_change.json`.
fn dump_obs_snapshot() {
    let Ok(dir) = std::env::var("VSGM_OBS_SNAPSHOT") else { return };
    let mut sim = Sim::new_paper(8, Default::default(), SimOptions::default());
    sim.enable_obs();
    sim.reconfigure(&procs(8));
    sim.run_to_quiescence();
    for round in 0..4u64 {
        let keep = procs(8 - (round % 2));
        sim.reconfigure(&keep);
        sim.run_to_quiescence();
    }
    let reg = sim.take_obs().expect("obs on");
    let snap = vsgm_obs::Snapshot::capture(&reg, sim.trace().entries());
    let path = std::path::Path::new(&dir).join("view_change.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, snap.to_json_pretty()))
        .unwrap_or_else(|e| eprintln!("VSGM_OBS_SNAPSHOT: cannot write {}: {e}", path.display()));
    println!("obs snapshot written to {}", path.display());
}

fn bench(c: &mut Criterion) {
    // Regenerate the table once so `cargo bench` output documents the
    // series the paper's claim is judged on.
    println!("{}", experiments::e1_view_change(&[2, 4, 8, 16]).render());
    dump_obs_snapshot();
    let mut g = c.benchmark_group("E1_view_change");
    g.sample_size(10);
    for n in [4usize, 8, 16] {
        g.bench_with_input(BenchmarkId::new("paper_1round", n), &n, |b, &n| {
            b.iter(|| experiments::paper_view_change(n, Default::default(), 42))
        });
        g.bench_with_input(BenchmarkId::new("baseline_2round", n), &n, |b, &n| {
            b.iter(|| experiments::baseline_view_change(n, 42))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
