//! Engine micro-benchmarks: the data structures and hot paths under the
//! protocol (not a paper experiment; used to keep the simulator honest).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vsgm_core::state::MsgSeq;
use vsgm_core::{Config, Endpoint, Input};
use vsgm_ioa::{SimRng, SimTime};
use vsgm_net::{LatencyModel, SimNet};
use vsgm_obs::NoopRecorder;
use vsgm_types::{AppMsg, Cut, NetMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn bench_msg_seq(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/msg_seq");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("push_1000", |b| {
        b.iter(|| {
            let mut s = MsgSeq::default();
            for _ in 0..1000 {
                s.push(AppMsg::from("x"));
            }
            s.longest_prefix()
        })
    });
    g.bench_function("sparse_fill_then_prefix", |b| {
        b.iter(|| {
            let mut s = MsgSeq::default();
            for i in (1..=1000).rev() {
                s.set(i, AppMsg::from("x"));
            }
            s.longest_prefix()
        })
    });
    g.finish();
}

fn bench_simnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/simnet");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("send_pop_1000", |b| {
        b.iter(|| {
            let procs: Vec<ProcessId> = (1..=8).map(ProcessId::new).collect();
            let mut net: SimNet<NetMsg> =
                SimNet::new(procs.clone(), LatencyModel::lan(), SimRng::new(1));
            let everyone: ProcSet = procs.iter().copied().collect();
            net.set_reliable(ProcessId::new(1), everyone.clone());
            let msg = NetMsg::App(AppMsg::from("payload"));
            for i in 0..1000 {
                let now = SimTime::from_micros(i);
                net.send(now, ProcessId::new(1), &everyone, &msg, &mut NoopRecorder);
            }
            let mut total = 0;
            while let Some(t) = net.next_arrival() {
                total += net.pop_ready(t, &mut NoopRecorder).len();
            }
            total
        })
    });
    g.finish();
}

fn bench_endpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/endpoint");
    for n in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("sync_round_local", n), &n, |b, &n| {
            // Time the purely local part of a sync round at one endpoint:
            // start_change handling + block + sync-message production.
            let members: ProcSet = (1..=n as u64).map(ProcessId::new).collect();
            b.iter(|| {
                let mut ep = Endpoint::new(ProcessId::new(1), Config::default());
                ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: members.clone() });
                ep.poll();
                ep.handle(Input::BlockOk);
                ep.poll().len()
            })
        });
    }
    g.bench_function("deliver_100_msgs", |b| {
        // Receipt + delivery of a 100-message stream within a view.
        let p1 = ProcessId::new(1);
        let p2 = ProcessId::new(2);
        let view = View::new(
            ViewId::new(1, 0),
            [p1, p2],
            [(p1, StartChangeId::new(1)), (p2, StartChangeId::new(1))],
        );
        b.iter(|| {
            let mut ep = Endpoint::new(p2, Config::default());
            let members: ProcSet = [p1, p2].into_iter().collect();
            ep.handle(Input::StartChange { cid: StartChangeId::new(1), set: members });
            ep.poll();
            ep.handle(Input::BlockOk);
            ep.poll();
            ep.handle(Input::MbrshpView(view.clone()));
            ep.handle(Input::Net {
                from: p1,
                msg: NetMsg::Sync(vsgm_types::SyncPayload {
                    cid: StartChangeId::new(1),
                    view: Some(View::initial(p1)),
                    cut: Cut::new(),
                }),
            });
            ep.poll();
            ep.handle(Input::Net { from: p1, msg: NetMsg::ViewMsg(view.clone()) });
            for k in 0..100 {
                ep.handle(Input::Net {
                    from: p1,
                    msg: NetMsg::App(AppMsg::from(format!("{k}").as_str())),
                });
            }
            ep.poll().len()
        })
    });
    g.finish();
}

fn bench_view_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/view");
    let big = View::new(
        ViewId::new(1, 0),
        (1..=64).map(ProcessId::new),
        (1..=64).map(|i| (ProcessId::new(i), StartChangeId::new(1))),
    );
    g.bench_function("clone_64_member_view", |b| b.iter(|| big.clone()));
    g.bench_function("intersection_64", |b| b.iter(|| big.intersection(&big).count()));
    g.finish();
}

criterion_group!(benches, bench_msg_seq, bench_simnet, bench_endpoint, bench_view_ops);
criterion_main!(benches);
