//! The traced pass: a replica of the workload's send path at window 1 in
//! which the benchmark itself plays router and forwarder — client
//! `TcpTransport` → a benchmark-owned server `TcpTransport` →
//! `ShardPool::apply` → the pool's output channel → `send_to_group` →
//! client — so that a span can be recorded at every layer boundary from
//! outside the crates. Spans stay in memory and are written to
//! `out/trace.jsonl` when the pass ends.
//!
//! Spans inside the daemon's own threads are a later change; what this
//! replica cannot see is reported as `trace.unattributed_us`.

use crate::gen::Generator;
use crate::plan::{self, Scale, Workload, CLIENTS};
use crate::rig::{gid_of, pid_of};
use crate::run::Metrics;
use crate::stats::Samples;
use crossbeam::channel::{unbounded, Receiver};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};
use vsgm_net::{TcpConfig, TcpTransport};
use vsgm_server::{group_seed, GroupCmd, GroupInstance, ShardConfig, ShardPool};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcSet, ProcessId};

const WAIT: Duration = Duration::from_secs(10);
/// Multicasts per replica run, before `Scale::divisor`.
const MCASTS: u64 = 2000;

/// One recorded span. Spans of one multicast share `mcast`; `parent`
/// names the span (by `id`) that caused this one.
struct Span {
    mcast: u64,
    id: u8,
    parent: Option<u8>,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// How the protocol step is hosted in the replica.
enum Step {
    /// Through a `ShardPool`, as in the daemon: one span covers the queue
    /// wait, the worker's wake-up and the step.
    Pool(ShardPool, Receiver<(GroupId, ProcessId, NetMsg)>),
    /// `GroupInstance`s called on this thread, which splits the step into
    /// apply, run and drain and leaves no queue or wake-up.
    Direct(Vec<GroupInstance>),
}

struct Replica {
    w: &'static Workload,
    server: TcpTransport,
    clients: Vec<TcpTransport>,
    server_set: ProcSet,
    step: Step,
    gen: Generator,
    spans: Vec<Span>,
    next_mcast: u64,
}

impl Replica {
    fn new(w: &'static Workload, groups: usize, seed: u64, direct: bool) -> Replica {
        let server =
            TcpTransport::bind(ProcessId::new(0), "127.0.0.1:0").expect("bind replica server");
        let clients: Vec<TcpTransport> = (0..CLIENTS)
            .map(|c| {
                let cfg = TcpConfig {
                    loop_threads: 1,
                    ..TcpConfig::default()
                };
                let t = TcpTransport::bind_with(pid_of(c), "127.0.0.1:0", cfg)
                    .expect("bind replica client");
                t.register_peer(ProcessId::new(0), server.local_addr());
                server.register_peer(pid_of(c), t.local_addr());
                t
            })
            .collect();
        let joins = |g: usize| {
            w.members_of(g)
                .into_iter()
                .map(|c| GroupCmd::Join(pid_of(c)))
        };
        let step = if direct {
            let instances = (0..groups).map(|g| {
                let mut inst =
                    GroupInstance::new(gid_of(g), CLIENTS as u64, group_seed(seed, gid_of(g)));
                joins(g).for_each(|j| inst.apply(j));
                inst.run_to_quiescence();
                inst.drain_outputs();
                inst
            });
            Step::Direct(instances.collect())
        } else {
            let (tx, rx) = unbounded();
            let pool = ShardPool::spawn(ShardConfig {
                shards: plan::SHARDS,
                auto_run: true,
                outputs: Some(tx),
            });
            for g in 0..groups {
                pool.create_group(gid_of(g), CLIENTS as u64, group_seed(seed, gid_of(g)));
                joins(g).for_each(|j| pool.apply(gid_of(g), j));
            }
            pool.report_all(); // answered once every join has been stepped
            while rx.try_recv().is_ok() {}
            Step::Pool(pool, rx)
        };
        Replica {
            w,
            server,
            clients,
            server_set: [ProcessId::new(0)].into_iter().collect(),
            step,
            gen: Generator::new(seed, w, groups),
            spans: Vec::new(),
            next_mcast: 0,
        }
    }

    /// One multicast through every hop. Returns its total time; records
    /// its spans when `traced`. Span 0 is the whole multicast, 1 to 6 the
    /// hops in order, 7 to 9 the parts of the protocol step (span 4).
    fn multicast(&mut self, traced: bool) -> Duration {
        let op = self.gen.next_op();
        let members = self.w.members_of(op.group);
        let msg = NetMsg::App(AppMsg::new(op.payload));
        let mcast = self.next_mcast;
        self.next_mcast += 1;
        let spans = &mut self.spans;
        let mut mark = |id: u8, parent: u8, name: &'static str, start: Instant| {
            let end = Instant::now();
            if traced {
                spans.push(Span {
                    mcast,
                    id,
                    parent: Some(parent),
                    name,
                    start,
                    end,
                });
            }
            end
        };
        let t0 = Instant::now();
        self.clients[op.sender]
            .send_to_group(gid_of(op.group), &self.server_set, &msg)
            .expect("client send");
        let t1 = mark(1, 0, "trace.client_send_us", t0);
        let (peer, gid, msg) = self
            .server
            .recv_routed_timeout(WAIT)
            .expect("frame at the replica server");
        let t2 = mark(2, 0, "trace.net_c2s_us", t1);
        let (Some(gid), NetMsg::App(payload)) = (gid, msg) else {
            panic!("replica server got a foreign frame")
        };
        let cmd = GroupCmd::Send {
            from: peer,
            msg: payload,
        };
        let (outputs, t4): (Vec<(ProcessId, NetMsg)>, Instant) = match &mut self.step {
            Step::Pool(pool, rx) => {
                pool.apply(gid, cmd);
                let t3 = mark(3, 0, "trace.route_us", t2);
                let outs = (0..members.len())
                    .map(|_| {
                        rx.recv_timeout(WAIT)
                            .map(|(_, to, m)| (to, m))
                            .expect("shard output")
                    })
                    .collect();
                (outs, mark(4, 0, "trace.shard_wait_step_us", t3))
            }
            Step::Direct(instances) => {
                let inst = &mut instances[op.group];
                // Routing is an index here; the span is kept so that both
                // variants tile the multicast the same way.
                let t3 = mark(3, 0, "trace.route_us", t2);
                inst.apply(cmd);
                let a = mark(7, 4, "trace.group_apply_us", t3);
                inst.run_to_quiescence();
                let b = mark(8, 4, "trace.group_run_us", a);
                let outs = inst
                    .drain_outputs()
                    .into_iter()
                    .map(|o| (o.to, o.msg))
                    .collect();
                mark(9, 4, "trace.group_drain_us", b);
                (outs, mark(4, 0, "trace.shard_wait_step_us", t3))
            }
        };
        for (to, m) in &outputs {
            let to = [*to].into_iter().collect();
            self.server.send_to_group(gid, &to, m).expect("forward");
        }
        let t5 = mark(5, 0, "trace.fwd_send_us", t4);
        for c in &members {
            self.clients[*c]
                .recv_routed_timeout(WAIT)
                .expect("delivery at a replica client");
        }
        let t6 = mark(6, 0, "trace.net_s2c_us", t5);
        if traced {
            self.spans.push(Span {
                mcast,
                id: 0,
                parent: None,
                name: "trace.total_us",
                start: t0,
                end: t6,
            });
        }
        t6 - t0
    }

    /// Median total time of `count` multicasts.
    fn run(&mut self, count: u64, traced: bool) -> f64 {
        let mut totals = Samples::default();
        for _ in 0..count {
            totals.push(self.multicast(traced).as_secs_f64() * 1e6);
        }
        totals.p50("replica total", 0).expect("samples")
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Returned as samples per span name.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Samples> {
    let mut children: BTreeMap<(u64, u8), Duration> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *children.entry((s.mcast, parent)).or_default() += s.end - s.start;
        }
    }
    let mut by_name: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&(s.mcast, s.id)).copied().unwrap_or_default();
        let own = (s.end - s.start).saturating_sub(covered);
        by_name
            .entry(s.name)
            .or_default()
            .push(own.as_secs_f64() * 1e6);
    }
    by_name
}

fn write_spans(path: &std::path::Path, origin: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"mcast\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.mcast,
            s.id,
            s.name,
            (s.start - origin).as_nanos(),
            (s.end - origin).as_nanos()
        )?;
    }
    out.flush()
}

/// Runs the traced pass for `w` and returns the `trace.*` metrics.
/// `lat_unloaded_p50_us` is the real daemon's figure from the same run.
pub fn run(
    w: &'static Workload,
    seed: u64,
    scale: &Scale,
    lat_unloaded_p50_us: f64,
    out: &std::path::Path,
) -> Metrics {
    let groups = scale.groups(w);
    let count = MCASTS / scale.divisor();
    let origin = Instant::now();
    let mut m = Metrics::new();
    let mut pool = Replica::new(w, groups, seed, false);
    pool.run(count / 4, false); // warm the connections and the instances
    let untraced = pool.run(count, false);
    let traced = pool.run(count, true);
    let mut direct = Replica::new(w, groups, seed, true);
    direct.run(count / 4, false);
    direct.run(count, true);

    let mut pool_self = self_times(&pool.spans);
    let mut direct_self = self_times(&direct.spans);
    let mut p50 = |from: &mut BTreeMap<&'static str, Samples>, name: &'static str| {
        let own = from.get_mut(name).expect("span recorded");
        m.insert(name, own.p50(name, 0).expect("samples"));
    };
    for name in [
        "trace.client_send_us",
        "trace.net_c2s_us",
        "trace.route_us",
        "trace.shard_wait_step_us",
        "trace.fwd_send_us",
        "trace.net_s2c_us",
    ] {
        p50(&mut pool_self, name);
    }
    for name in [
        "trace.group_apply_us",
        "trace.group_run_us",
        "trace.group_drain_us",
    ] {
        p50(&mut direct_self, name);
    }
    // The hops tile the total, so the sum of their self times is the
    // total: what is left is what the real daemon adds to this replica
    // (two more thread hand-offs, minus what it overlaps).
    m.insert("trace.total_us", traced);
    m.insert("trace.unattributed_us", lat_unloaded_p50_us - traced);
    m.insert("trace.overhead_ratio", traced / untraced);
    let mut spans = std::mem::take(&mut pool.spans);
    spans.append(&mut direct.spans);
    if let Err(e) = write_spans(out, origin, &spans) {
        eprintln!("trace: cannot write {}: {e}", out.display());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        let span = |id, parent, name, a, b| Span {
            mcast: 9,
            id,
            parent,
            name,
            start: at(a),
            end: at(b),
        };
        let spans = [
            span(0, None, "total", 0, 100),
            span(1, Some(0), "send", 0, 10),
            span(4, Some(0), "step", 10, 90),
            span(11, Some(4), "apply", 10, 15),
            span(12, Some(4), "run", 15, 80),
        ];
        let mut own = self_times(&spans);
        let mut only = |name: &str| own.get_mut(name).expect("span").max().expect("sample");
        assert_eq!(only("total"), 10.0);
        assert_eq!(only("send"), 10.0);
        assert_eq!(only("step"), 10.0);
        assert_eq!(only("run"), 65.0);
    }
}
