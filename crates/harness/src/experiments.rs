//! The experiment suite: one function per row of the per-experiment index
//! in `DESIGN.md` §5.
//!
//! The paper has no empirical evaluation section (it is a
//! specification/algorithms/proofs paper), so these experiments quantify
//! its *prose claims* — one synchronization round instead of two, no
//! obsolete views, delivery during reconfiguration, forwarding copy
//! minimization, slim sync messages, client-server scalability, two-tier
//! aggregation — each as a small parameter sweep producing a printable
//! table. `cargo run -p vsgm-harness --bin experiments` regenerates all
//! of them (`-- <id>…` for some) and is the only entry point for a table.

use crate::metrics;
use crate::server_sim::ServerSim;
use crate::sim::{procs, Sim, SimOptions};
use vsgm_core::{Config, ForwardStrategyKind, GroupEndpoint, Stack};
use vsgm_ioa::SimTime;
use vsgm_net::LatencyModel;
use vsgm_order::TotalOrder;
use vsgm_types::{AppMsg, Event, ProcSet, ProcessId};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// What the experiment demonstrates.
    pub title: String,
    /// Column names.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("## {} — {}\n", self.id, self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn fixed_opts(seed: u64) -> SimOptions {
    SimOptions {
        seed,
        latency: LatencyModel::Fixed(SimTime::from_micros(100)),
        check: true,
        shuffle_polling: false,
    }
}

/// One timed, instrumented view change of the paper's algorithm.
/// Returns `(sim-time to completion, sync msgs, total view-change msgs)`.
pub fn paper_view_change(n: usize, cfg: Config, seed: u64) -> (SimTime, u64, u64) {
    let mut sim = Sim::new_paper(n, cfg, fixed_opts(seed));
    sim.reconfigure(&procs(n as u64));
    sim.run_to_quiescence();
    sim.reset_net_stats();
    let t0 = sim.now();
    let mark = sim.trace().len() as u64;
    let view = sim.reconfigure(&procs(n as u64));
    sim.run_to_quiescence();
    sim.assert_clean();
    let done = metrics::install_completion(sim.trace(), &view, mark)
        .expect("view installs in a stable run");
    let stats = sim.net().stats();
    let sync = stats.count("sync_msg") + stats.count("sync_agg");
    let total = sync + stats.count("view_msg");
    (done.saturating_sub(t0), sync, total)
}

/// One timed, instrumented view change of the two-round baseline.
pub fn baseline_view_change(n: usize, seed: u64) -> (SimTime, u64, u64) {
    let mut sim = Sim::new_baseline(n, fixed_opts(seed));
    sim.reconfigure(&procs(n as u64));
    sim.run_to_quiescence();
    sim.reset_net_stats();
    let t0 = sim.now();
    let mark = sim.trace().len() as u64;
    let view = sim.reconfigure(&procs(n as u64));
    sim.run_to_quiescence();
    sim.assert_clean();
    let done = metrics::install_completion(sim.trace(), &view, mark)
        .expect("view installs in a stable run");
    let stats = sim.net().stats();
    let proposals = stats.count("bl_propose");
    let syncs = stats.count("bl_sync");
    (done.saturating_sub(t0), proposals + syncs, proposals + syncs + stats.count("view_msg"))
}

/// E1/E2 — view-change latency and message rounds: one round (parallel
/// with membership) vs the two-round pre-agreement baseline.
pub fn e1_view_change(sizes: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &n in sizes {
        let (t_p, sync_p, _) = paper_view_change(n, Config::default(), 42);
        let (t_b, sync_b, _) = baseline_view_change(n, 42);
        rows.push(vec![
            n.to_string(),
            "1".into(),
            format!("{t_p}"),
            sync_p.to_string(),
            "2".into(),
            format!("{t_b}"),
            sync_b.to_string(),
            format!("{:.2}x", t_b.as_micros() as f64 / t_p.as_micros().max(1) as f64),
        ]);
    }
    Table {
        id: "E1",
        title: "view-change: one sync round (paper) vs two rounds (pre-agreement baseline), \
                fixed 100us latency"
            .into(),
        headers: [
            "n",
            "rounds(paper)",
            "time(paper)",
            "sync msgs(paper)",
            "rounds(base)",
            "time(base)",
            "sync msgs(base)",
            "speedup",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    }
}

/// E3 — cascaded membership changes: views delivered to the application
/// per process, cascading interface (paper) vs restart-style membership.
pub fn e3_obsolete_views(cascades: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &k in cascades {
        // Paper algorithm + cascading membership: k start_changes, ONE view.
        let mut sim = Sim::new_paper(4, Config::default(), fixed_opts(7));
        sim.reconfigure(&procs(4));
        sim.run_to_quiescence();
        let mark = sim.trace().len() as u64;
        for _ in 0..k {
            sim.start_change(&procs(4));
            sim.run_to_quiescence();
        }
        sim.form_view(&procs(4));
        sim.run_to_quiescence();
        sim.assert_clean();
        let paper_views = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| e.step >= mark && matches!(e.event, Event::GcsView { .. }))
            .count() as u64
            / 4;

        // Restart-style membership (what pre-cascade algorithms force):
        // every intermediate attempt runs to termination and delivers.
        let mut base = Sim::new_baseline(4, fixed_opts(7));
        base.reconfigure(&procs(4));
        base.run_to_quiescence();
        let mark = base.trace().len() as u64;
        for _ in 0..k {
            base.reconfigure(&procs(4));
            base.run_to_quiescence();
        }
        base.assert_clean();
        let base_views = base
            .trace()
            .entries()
            .iter()
            .filter(|e| e.step >= mark && matches!(e.event, Event::GcsView { .. }))
            .count() as u64
            / 4;
        rows.push(vec![k.to_string(), paper_views.to_string(), base_views.to_string()]);
    }
    Table {
        id: "E3",
        title: "membership changes its mind k times: app-visible views per process".into(),
        headers: ["k", "views (paper, cascading)", "views (restart-style)"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E4 — application progress across a reconfiguration: duration of the
/// view change and deliveries landing inside it, under a message burst in
/// flight when the change starts.
pub fn e4_reconfig_delivery() -> Table {
    fn run<E: GroupEndpoint>(mut sim: Sim<E>) -> (SimTime, u64) {
        let n = 8u64;
        sim.reconfigure(&procs(n));
        sim.run_to_quiescence();
        // A burst is in flight when the change starts.
        for i in 1..=n {
            for k in 0..3 {
                sim.send(ProcessId::new(i), AppMsg::from(format!("m{i}.{k}").as_str()));
            }
        }
        // One network step: messages received by some, not delivered by all.
        sim.deliver_next();
        let t0 = sim.now();
        let mark = sim.trace().len() as u64;
        sim.start_change(&procs(n));
        let view = sim.form_view(&procs(n));
        sim.run_to_quiescence();
        sim.assert_clean();
        let done = metrics::install_completion(sim.trace(), &view, mark).expect("stable");
        let install_step = metrics::first_step_where(sim.trace(), mark, |e| {
            matches!(e, Event::GcsView { .. })
        })
        .expect("installed");
        let last_install = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, Event::GcsView { .. }) && e.step >= install_step)
            .map(|e| e.step)
            .max()
            .unwrap();
        let during = metrics::deliveries_in_window(sim.trace(), mark, last_install);
        (done.saturating_sub(t0), during)
    }
    let (t_p, d_p) = run(Sim::new_paper(8, Config::default(), fixed_opts(3)));
    let (t_b, d_b) = run(Sim::new_baseline(8, fixed_opts(3)));
    Table {
        id: "E4",
        title: "reconfiguration with a burst in flight (n=8): window length and deliveries \
                inside it"
            .into(),
        headers: ["algorithm", "reconfig duration", "deliveries during reconfig"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: vec![
            vec!["paper (1-round)".into(), format!("{t_p}"), d_p.to_string()],
            vec!["baseline (2-round)".into(), format!("{t_b}"), d_b.to_string()],
        ],
    }
}

/// E5 — steady-state multicast throughput over the simulated network.
pub fn e5_throughput(sizes: &[usize], msgs_per_proc: usize) -> Table {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut sim = Sim::new_paper(n, Config::default(), fixed_opts(11));
        sim.reconfigure(&procs(n as u64));
        sim.run_to_quiescence();
        let t0 = sim.now();
        let mark = sim.trace().len() as u64;
        for i in 1..=n as u64 {
            for k in 0..msgs_per_proc {
                sim.send(ProcessId::new(i), AppMsg::from(format!("{i}:{k}").as_str()));
            }
        }
        sim.run_to_quiescence();
        sim.assert_clean();
        let elapsed = sim.now().saturating_sub(t0);
        let delivered = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| e.step >= mark && matches!(e.event, Event::Deliver { .. }))
            .count() as u64;
        let per_sec = delivered as f64 / (elapsed.as_micros().max(1) as f64 / 1e6);
        rows.push(vec![
            n.to_string(),
            delivered.to_string(),
            format!("{elapsed}"),
            format!("{per_sec:.0}"),
        ]);
    }
    Table {
        id: "E5",
        title: format!(
            "steady-state multicast: {msgs_per_proc} msgs/process, deliveries per simulated \
             second"
        ),
        headers: ["n", "deliveries", "sim time", "deliveries/sim-sec"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E6 — forwarding strategies: copies of each missing message sent,
/// eager vs min-copy, when a sender crashes after partially disseminating.
pub fn e6_forwarding(sizes: &[usize]) -> Table {
    fn run(n: u64, strategy: ForwardStrategyKind) -> u64 {
        let cfg = Config { forward: strategy, ..Config::default() };
        let mut sim = Sim::new_paper(n as usize, cfg, fixed_opts(5));
        sim.reconfigure(&procs(n));
        sim.run_to_quiescence();
        // Partition: sender p_n with the lower half; upper half (minus the
        // sender) is cut off and misses the burst.
        let lower: Vec<ProcessId> =
            (1..=n / 2).map(ProcessId::new).chain([ProcessId::new(n)]).collect();
        let upper: Vec<ProcessId> = (n / 2 + 1..n).map(ProcessId::new).collect();
        sim.partition(&[lower, upper]);
        for k in 0..4 {
            sim.send(ProcessId::new(n), AppMsg::from(format!("burst{k}").as_str()));
        }
        sim.run_to_quiescence();
        sim.crash(ProcessId::new(n));
        sim.heal();
        sim.reset_net_stats();
        sim.reconfigure(&(1..n).map(ProcessId::new).collect());
        sim.run_to_quiescence();
        sim.assert_clean();
        sim.net().stats().count("fwd_msg")
    }
    let mut rows = Vec::new();
    for &n in sizes {
        let eager = run(n as u64, ForwardStrategyKind::Eager);
        let min = run(n as u64, ForwardStrategyKind::MinCopy);
        rows.push(vec![n.to_string(), "4".into(), eager.to_string(), min.to_string()]);
    }
    Table {
        id: "E6",
        title: "forwarded copies after a sender crash mid-dissemination (half the group \
                missed 4 messages)"
            .into(),
        headers: ["n", "missing msgs", "fwd copies (eager)", "fwd copies (min-copy)"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E7 — the §5.2.4 optimizations: bytes exchanged during a view change
/// that adds joiners, with slim messages (to non-members) and implicit
/// cuts (continuing members' entries elided) layered on.
pub fn e7_sync_overhead(sizes: &[usize]) -> Table {
    fn run(n: u64, slim: bool, implicit: bool) -> u64 {
        let cfg = Config { slim_sync: slim, implicit_cuts: implicit, ..Config::default() };
        let total = n + n / 2; // n members + n/2 joiners
        let mut sim = Sim::new_paper(total as usize, cfg, fixed_opts(9));
        sim.reconfigure(&procs(n)); // bootstrap only the first n
        sim.run_to_quiescence();
        sim.reset_net_stats();
        sim.reconfigure(&procs(total)); // joiners come in
        sim.run_to_quiescence();
        sim.assert_clean();
        sim.net().stats().bytes("sync_msg")
    }
    let mut rows = Vec::new();
    for &n in sizes {
        let full = run(n as u64, false, false);
        let slim = run(n as u64, true, false);
        let both = run(n as u64, true, true);
        rows.push(vec![
            n.to_string(),
            (n / 2).to_string(),
            full.to_string(),
            slim.to_string(),
            both.to_string(),
            format!("{:.0}%", 100.0 * (full - both) as f64 / full.max(1) as f64),
        ]);
    }
    Table {
        id: "E7",
        title: "sync-message bytes for a view change adding n/2 joiners: full vs slim vs \
                slim+implicit cuts (§5.2.4)"
            .into(),
        headers: ["n", "joiners", "full", "slim", "slim+implicit", "saved"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E8 — crash/recovery without stable storage (§8): survivors reconfigure
/// and the recovered processes rejoin, with every safety spec green.
pub fn e8_crash_recovery(failures: &[usize]) -> Table {
    let n = 8u64;
    let mut rows = Vec::new();
    for &f in failures {
        let mut sim = Sim::new_paper(n as usize, Config::default(), fixed_opts(13));
        sim.reconfigure(&procs(n));
        sim.send(ProcessId::new(1), AppMsg::from("pre"));
        sim.run_to_quiescence();
        for i in 0..f as u64 {
            sim.crash(ProcessId::new(n - i));
        }
        let survivors: ProcSet = (1..=n - f as u64).map(ProcessId::new).collect();
        let t0 = sim.now();
        let mark = sim.trace().len() as u64;
        let v1 = sim.reconfigure(&survivors);
        sim.run_to_quiescence();
        let shrink =
            metrics::install_completion(sim.trace(), &v1, mark).expect("survivor view installs");
        for i in 0..f as u64 {
            sim.recover(ProcessId::new(n - i));
        }
        let mark2 = sim.trace().len() as u64;
        let t1 = sim.now();
        let v2 = sim.reconfigure(&procs(n));
        sim.run_to_quiescence();
        let rejoin =
            metrics::install_completion(sim.trace(), &v2, mark2).expect("full view reinstalls");
        let violations = sim.finish();
        rows.push(vec![
            f.to_string(),
            format!("{}", shrink.saturating_sub(t0)),
            format!("{}", rejoin.saturating_sub(t1)),
            if violations.is_empty() { "clean".into() } else { format!("{violations:?}") },
        ]);
    }
    Table {
        id: "E8",
        title: "crash f of 8 end-points, recover, rejoin (no stable storage, §8)".into(),
        headers: ["f", "time to survivor view", "time to rejoin view", "spec checkers"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E9 — client-server scalability: membership-server traffic is a
/// function of the number of servers, independent of client count.
pub fn e9_scalability(client_counts: &[usize], server_counts: &[usize]) -> Table {
    let mut rows = Vec::new();
    for &s in server_counts {
        for &c in client_counts {
            let clients_per = c / s;
            let layout: Vec<(ProcessId, Vec<ProcessId>)> = (0..s)
                .map(|k| {
                    let sid = ProcessId::new(1000 + k as u64 + 1);
                    let cs: Vec<ProcessId> = (0..clients_per)
                        .map(|j| ProcessId::new((k * clients_per + j) as u64 + 1))
                        .collect();
                    (sid, cs)
                })
                .collect();
            let all_clients: ProcSet =
                (1..=(clients_per * s) as u64).map(ProcessId::new).collect();
            let servers_set: ProcSet = layout.iter().map(|(s, _)| *s).collect();
            let mut ssim = ServerSim::new(layout, Config::default(), fixed_opts(17));
            ssim.set_connectivity(&servers_set, &all_clients);
            // Steady-state change: one client leaves.
            let remaining: ProcSet = all_clients.iter().copied().skip(1).collect();
            ssim.sim.reset_net_stats();
            ssim.set_connectivity(&servers_set, &remaining);
            let server_msgs = ssim.server_net_stats().count("mbrshp.proposal");
            let client_syncs = ssim.sim.net().stats().count("sync_msg");
            let violations = ssim.sim.finish();
            rows.push(vec![
                s.to_string(),
                (clients_per * s).to_string(),
                server_msgs.to_string(),
                client_syncs.to_string(),
                if violations.is_empty() { "clean".into() } else { "VIOLATIONS".into() },
            ]);
        }
    }
    Table {
        id: "E9",
        title: "client-server architecture: membership traffic scales with servers, not \
                clients"
            .into(),
        headers: ["servers", "clients", "server proposals (total)", "client sync msgs", "specs"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E10 — §9 two-tier aggregation: point-to-point synchronization messages
/// per view change, flat vs leader-aggregated.
pub fn e10_aggregation(sizes: &[usize]) -> Table {
    fn run(n: usize, aggregation: bool) -> u64 {
        let cfg = Config { aggregation, ..Config::default() };
        let mut sim = Sim::new_paper(n, cfg, fixed_opts(19));
        sim.reconfigure(&procs(n as u64));
        sim.run_to_quiescence();
        sim.reset_net_stats();
        // The membership round (among the servers) runs in parallel with
        // the sync round and takes at least as long; let the sync round
        // land before the view arrives, as in the WAN deployment.
        sim.start_change(&procs(n as u64));
        sim.run_to_quiescence();
        sim.form_view(&procs(n as u64));
        sim.run_to_quiescence();
        sim.assert_clean();
        let stats = sim.net().stats();
        stats.count("sync_msg") + stats.count("sync_agg")
    }
    let mut rows = Vec::new();
    for &n in sizes {
        let flat = run(n, false);
        let agg = run(n, true);
        rows.push(vec![
            n.to_string(),
            flat.to_string(),
            format!("{}", (n * (n - 1))),
            agg.to_string(),
            format!("{}", 2 * (n - 1)),
        ]);
    }
    Table {
        id: "E10",
        title: "sync messages per view change: flat all-to-all vs §9 two-tier aggregation"
            .into(),
        headers: ["n", "flat (measured)", "flat (n(n-1))", "aggregated (measured)", "2(n-1)"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// E11 — total order atop the FIFO service: time for every member to
/// order a burst, vs plain FIFO delivery of the same burst.
pub fn e11_total_order(n: usize, msgs_per_proc: usize) -> Table {
    // Plain FIFO timing.
    let mut fifo = Sim::new_paper(n, Config::default(), fixed_opts(23));
    fifo.reconfigure(&procs(n as u64));
    fifo.run_to_quiescence();
    let t0 = fifo.now();
    for i in 1..=n as u64 {
        for k in 0..msgs_per_proc {
            fifo.send(ProcessId::new(i), AppMsg::from(format!("{i}:{k}").as_str()));
        }
    }
    fifo.run_to_quiescence();
    fifo.assert_clean();
    let fifo_time = fifo.now().saturating_sub(t0);

    // Total order: run the layer over the sim, re-injecting sequencer
    // Order messages until everything is ordered everywhere.
    let mut sim = Sim::new_paper(n, Config::default(), fixed_opts(23));
    let view = sim.reconfigure(&procs(n as u64));
    sim.run_to_quiescence();
    let mut layers: std::collections::BTreeMap<ProcessId, TotalOrder> = (1..=n as u64)
        .map(|i| {
            let p = ProcessId::new(i);
            let mut l = TotalOrder::new(p);
            l.on_view(&view, view.members());
            (p, l)
        })
        .collect();
    let t0 = sim.now();
    for i in 1..=n as u64 {
        let p = ProcessId::new(i);
        for k in 0..msgs_per_proc {
            let wrapped = layers[&p].submit(format!("{i}:{k}").into_bytes());
            sim.send(p, wrapped);
        }
    }
    let mut cursor = 0usize;
    let mut ordered: std::collections::BTreeMap<ProcessId, u64> = Default::default();
    let target = (n * n * msgs_per_proc) as u64; // every member orders every msg
    let mut done_time = sim.now();
    loop {
        sim.run_to_quiescence();
        let entries: Vec<(ProcessId, ProcessId, AppMsg)> = sim.trace().entries()[cursor..]
            .iter()
            .filter_map(|e| match &e.event {
                Event::Deliver { p, q, msg } => Some((*p, *q, msg.clone())),
                _ => None,
            })
            .collect();
        cursor = sim.trace().len();
        if entries.is_empty() {
            break;
        }
        let mut to_send: Vec<(ProcessId, AppMsg)> = Vec::new();
        for (p, q, msg) in entries {
            let layer = layers.get_mut(&p).expect("known proc");
            let (out, announce) = layer.on_deliver(q, &msg);
            *ordered.entry(p).or_insert(0) += out.len() as u64;
            if let Some(a) = announce {
                to_send.push((p, a));
            }
        }
        done_time = sim.now();
        for (p, a) in to_send {
            sim.send(p, a);
        }
    }
    sim.assert_clean();
    let total_ordered: u64 = ordered.values().sum();
    let to_time = done_time.saturating_sub(t0);
    Table {
        id: "E11",
        title: format!(
            "total order atop WV_RFIFO (n={n}, {msgs_per_proc} msgs/proc): sequencer layer \
             vs plain FIFO"
        ),
        headers: ["service", "payloads delivered/ordered", "sim time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: vec![
            vec![
                "FIFO (WV_RFIFO)".into(),
                ((n * n * msgs_per_proc) as u64).to_string(),
                format!("{fifo_time}"),
            ],
            vec![
                "total order".into(),
                format!("{total_ordered}/{target}"),
                format!("{to_time}"),
            ],
        ],
    }
}

/// E12 — network-profile sweep: the view-change cost in *rounds* is a
/// protocol constant; wall-clock scales only with the latency profile
/// (LAN vs WAN), which is the regime the client-server architecture
/// targets (§1: membership servers across a WAN).
pub fn e12_latency_profiles(n: usize) -> Table {
    let mut rows = Vec::new();
    for (name, latency) in [
        ("fixed 100us", LatencyModel::Fixed(SimTime::from_micros(100))),
        ("LAN 50-200us", LatencyModel::lan()),
        ("WAN 20-80ms", LatencyModel::wan()),
    ] {
        let opts = SimOptions { seed: 33, latency, check: true, shuffle_polling: false };
        let mut sim = Sim::new_paper(n, Config::default(), opts);
        sim.reconfigure(&procs(n as u64));
        sim.run_to_quiescence();
        sim.reset_net_stats();
        let t0 = sim.now();
        let mark = sim.trace().len() as u64;
        let view = sim.reconfigure(&procs(n as u64));
        sim.run_to_quiescence();
        sim.assert_clean();
        let done = metrics::install_completion(sim.trace(), &view, mark).expect("stable");
        let sync = sim.net().stats().count("sync_msg");
        rows.push(vec![
            name.into(),
            "1".into(),
            sync.to_string(),
            format!("{}", done.saturating_sub(t0)),
        ]);
    }
    Table {
        id: "E12",
        title: format!(
            "view change (n={n}) across network profiles: rounds and messages constant, \
             time tracks latency"
        ),
        headers: ["profile", "rounds", "sync msgs", "view-change time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// Layer ablation: cost of each property layer of the inheritance chain.
pub fn ablation_layers() -> Table {
    let mut rows = Vec::new();
    for (name, stack) in
        [("WV_RFIFO", Stack::Wv), ("VS_RFIFO+TS", Stack::VsTs), ("GCS (full)", Stack::Full)]
    {
        let cfg = Config { stack, ..Config::default() };
        let mut sim = Sim::new_paper(
            8,
            cfg,
            SimOptions {
                seed: 29,
                latency: LatencyModel::Fixed(SimTime::from_micros(100)),
                // WV/VsTs stacks intentionally do not satisfy the upper
                // specs; checking is meaningful only for the full stack.
                check: stack == Stack::Full,
                shuffle_polling: false,
            },
        );
        sim.reconfigure(&procs(8));
        sim.run_to_quiescence();
        sim.reset_net_stats();
        let t0 = sim.now();
        let mark = sim.trace().len() as u64;
        let view = sim.reconfigure(&procs(8));
        sim.run_to_quiescence();
        let done = metrics::install_completion(sim.trace(), &view, mark).expect("stable");
        let stats = sim.net().stats();
        let blocks =
            sim.trace().entries().iter().filter(|e| matches!(e.event, Event::Block { .. })).count();
        rows.push(vec![
            name.into(),
            stats.count("sync_msg").to_string(),
            blocks.to_string(),
            format!("{}", done.saturating_sub(t0)),
        ]);
    }
    Table {
        id: "ABL",
        title: "cost of each inheritance layer during one view change (n=8)".into(),
        headers: ["stack", "sync msgs", "block handshakes", "view-change time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// Every id [`run_by_id`] knows, in `EXPERIMENTS.md` order (`E2` shares
/// `E1`'s table).
pub const IDS: [&str; 12] =
    ["E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "ABL"];

/// Runs every experiment with its default parameters.
pub fn all() -> Vec<Table> {
    IDS.iter().filter_map(|id| run_by_id(id)).collect()
}

/// Runs the experiment with the given id (`"E1"`, `"e10"`, `"abl"`) with
/// its default parameters; `None` for an id that names no experiment.
pub fn run_by_id(id: &str) -> Option<Table> {
    Some(match id.to_ascii_uppercase().as_str() {
        "E1" | "E2" => e1_view_change(&[2, 4, 8, 16, 32]),
        "E3" => e3_obsolete_views(&[1, 2, 4, 8]),
        "E4" => e4_reconfig_delivery(),
        "E5" => e5_throughput(&[2, 4, 8, 16], 20),
        "E6" => e6_forwarding(&[4, 8, 16]),
        "E7" => e7_sync_overhead(&[4, 8, 16]),
        "E8" => e8_crash_recovery(&[1, 2, 3]),
        "E9" => e9_scalability(&[8, 32, 64], &[2, 4]),
        "E10" => e10_aggregation(&[4, 8, 16, 32]),
        "E11" => e11_total_order(6, 5),
        "E12" => e12_latency_profiles(8),
        "ABL" | "ABLATION" => ablation_layers(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_paper_beats_baseline() {
        let t = e1_view_change(&[4]);
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        let paper_us: &str = &row[2];
        let base_us: &str = &row[5];
        // Crude parse: both end with units; compare the raw micros via the
        // kernels instead.
        let (tp, sp, _) = paper_view_change(4, Config::default(), 1);
        let (tb, sb, _) = baseline_view_change(4, 1);
        assert!(tb > tp, "baseline {tb} should exceed paper {tp} ({paper_us} vs {base_us})");
        // Paper sends one message per ordered pair; baseline two.
        assert_eq!(sp, 12);
        assert_eq!(sb, 24);
    }

    #[test]
    fn e3_paper_delivers_one_view() {
        let t = e3_obsolete_views(&[3]);
        assert_eq!(t.rows[0][1], "1");
        assert_eq!(t.rows[0][2], "3");
    }

    #[test]
    fn e6_min_copy_sends_fewer() {
        let t = e6_forwarding(&[8]);
        let eager: u64 = t.rows[0][2].parse().unwrap();
        let min: u64 = t.rows[0][3].parse().unwrap();
        assert!(min >= 1, "{t:?}");
        assert!(min <= eager, "{t:?}");
    }

    #[test]
    fn e7_slim_saves_bytes() {
        let t = e7_sync_overhead(&[8]);
        let full: u64 = t.rows[0][2].parse().unwrap();
        let slim: u64 = t.rows[0][3].parse().unwrap();
        assert!(slim < full, "{t:?}");
    }

    #[test]
    fn e10_aggregation_reduces_messages() {
        let t = e10_aggregation(&[4, 8, 16]);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let n: u64 = row[0].parse().unwrap();
            let flat: u64 = row[1].parse().unwrap();
            let agg: u64 = row[3].parse().unwrap();
            assert_eq!(flat, n * (n - 1), "flat sync messages at n = {n}");
            assert_eq!(agg, 2 * (n - 1), "aggregated sync messages at n = {n}");
        }
    }

    #[test]
    fn e4_paper_reconfigures_faster() {
        let t = e4_reconfig_delivery();
        let paper: &str = &t.rows[0][1];
        let base: &str = &t.rows[1][1];
        // "100us" vs "200us" — compare numerically via the kernels'
        // underlying claim: baseline duration strictly larger.
        let parse = |s: &str| s.trim_end_matches("us").parse::<f64>().unwrap_or(f64::MAX);
        assert!(parse(paper) < parse(base), "{t:?}");
    }

    #[test]
    fn e8_always_clean() {
        let t = e8_crash_recovery(&[2]);
        assert_eq!(t.rows[0][3], "clean", "{t:?}");
    }

    #[test]
    fn e9_server_traffic_independent_of_clients() {
        let t = e9_scalability(&[8, 32], &[2]);
        assert_eq!(t.rows[0][2], t.rows[1][2], "{t:?}");
        assert!(t.rows.iter().all(|r| r[4] == "clean"), "{t:?}");
    }

    #[test]
    fn e11_orders_everything() {
        let t = e11_total_order(4, 3);
        assert!(t.rows[1][1].starts_with("48/48"), "{t:?}");
    }

    #[test]
    fn e12_wan_slower_same_rounds() {
        let t = e12_latency_profiles(4);
        assert!(t.rows.iter().all(|r| r[1] == "1"), "{t:?}");
        assert!(t.rows.iter().all(|r| r[2] == t.rows[0][2]), "{t:?}");
        assert!(t.rows[2][3].contains("ms"), "WAN time should be in ms: {t:?}");
    }

    #[test]
    fn e5_throughput_scales_with_group() {
        let t = e5_throughput(&[2, 4], 5);
        let d0: u64 = t.rows[0][1].parse().unwrap();
        let d1: u64 = t.rows[1][1].parse().unwrap();
        assert!(d1 > d0, "{t:?}");
    }

    #[test]
    fn ablation_layers_shape() {
        let t = ablation_layers();
        // WV has no sync traffic; VS/Full do; only Full blocks.
        assert_eq!(t.rows[0][1], "0");
        assert_ne!(t.rows[1][1], "0");
        assert_eq!(t.rows[1][2], "0");
        assert_ne!(t.rows[2][2], "0");
    }

    #[test]
    fn every_id_resolves_to_one_table_and_unknown_ids_to_none() {
        // `all()` is `IDS` through `run_by_id`, so one pass checks both:
        // every known id yields the table carrying that id, no two alike.
        let ids: Vec<&str> = all().iter().map(|t| t.id).collect();
        assert_eq!(ids, IDS);
        let distinct: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "{ids:?}");
        // The tables that used to have a bench shim of their own.
        for id in ["E3", "E4", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "ABL"] {
            assert!(ids.contains(&id), "{id} not reachable through run_by_id");
        }
        for unknown in ["E13", "E0", "all", ""] {
            assert!(run_by_id(unknown).is_none(), "{unknown:?} must not resolve");
        }
    }

    #[test]
    fn table_renders() {
        let t = Table {
            id: "T",
            title: "test".into(),
            headers: vec!["a".into(), "bb".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        let s = t.render();
        assert!(s.contains("a "), "{s}");
        assert!(s.contains("bb"));
    }
}
