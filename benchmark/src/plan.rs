//! What the benchmark runs and what it reports: the workloads, the fixed
//! shape common to all of them, and every metric's name, unit, direction
//! and bound. `BENCHMARK.json` repeats the names; a unit test keeps the
//! two in step.

/// Client connections the load generator opens. nproc is 2 on the
/// reference box; 4 is the smallest count at which fan-out exists at all,
/// and more clients only add scheduler noise. Larger groups are covered
/// by the single-threaded layer pass.
pub const CLIENTS: usize = 4;
/// Shard workers of the daemon under test.
pub const SHARDS: usize = 2;
/// Application payload, bytes. Payload size is a layer-pass dimension
/// only: an 8 KiB end-to-end probe spread 70 % run to run.
pub const PAYLOAD: usize = 64;
/// Multicasts at window 1 between set-up and the first measured phase.
/// Not part of `setup_s`: 2000 of them take 2000 unloaded latencies, a
/// second or so, against the 15 ms the 8-group set-up itself takes.
pub const WARMUP_MCASTS: u64 = 2000;
/// Multicasts kept in flight in the saturate phase.
pub const SATURATE_WINDOW: usize = 64;
/// Completions that end the saturate phase early: every message stays in
/// its group's `Trace` (about 1 KB of RSS each), so an uncapped run on a
/// much faster daemon would exhaust memory.
pub const SATURATE_CAP: u64 = 400_000;
/// A multicast or view change not seen by every member within this long
/// counts as failed.
pub const OP_TIMEOUT_S: u64 = 5;
/// Paced multicasts slower than this miss the service-level objective.
pub const SLO_US: f64 = 10_000.0;
/// `churn_n4`: one directory leave or join is due every this many ms.
pub const CHURN_PERIOD_MS: u64 = 50;
/// Times set-up is run and timed in one run; the median is reported.
pub const SETUP_REPEATS: usize = 5;
/// Share of `--seconds` each measured phase gets, in order.
pub const PHASE_SHARES: [(&str, f64); 4] = [
    ("paced", 0.40),
    ("unloaded", 0.15),
    ("saturate", 0.30),
    ("reconfig", 0.15),
];

// Validity guards: timings of a run that trips one are void, not published.
/// Open-loop generator lateness, p95, above which the paced phase is void.
/// (Not p99: the shared host freezes the whole VM for tens of milliseconds
/// now and then, which a latency timed from the due instant already counts;
/// a generator that cannot keep its schedule is late far more often.)
pub const MAX_LATE_P95_MS: f64 = 20.0;
/// Latency samples a multicast p50 needs.
pub const MIN_MCAST_SAMPLES: usize = 1000;
/// Samples a view-change p50 needs (a view change costs ~1 ms and the
/// phase is short, so the floor is lower).
pub const MIN_VIEW_SAMPLES: usize = 100;
/// Threads the whole process may have (daemon 8, 3 per client, main).
pub const MAX_THREADS: usize = 24;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub groups: usize,
    /// Groups under `--smoke`.
    pub smoke_groups: usize,
    /// Members per group; member `j` of group `g` is client `(g + j) % CLIENTS`.
    pub members: usize,
    /// Open-loop rate of the paced phase, multicasts per second.
    pub paced_rate: u64,
    /// Visit groups round-robin instead of picking them from the seed.
    pub round_robin_groups: bool,
    /// The highest-numbered member leaves and re-joins one group every
    /// `CHURN_PERIOD_MS` during the multicast phases and never sends.
    pub churn: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fanout_n4",
        why: "base mix, 8 groups x 4 members: one 4-endpoint protocol step per multicast, shard workers dominate CPU",
        groups: 8,
        smoke_groups: 8,
        members: 4,
        paced_rate: 2000,
        round_robin_groups: false,
        churn: false,
    },
    Workload {
        name: "pair_n2",
        why: "2-member groups: a far cheaper protocol step, so router, forwarder, codec and event loops dominate",
        groups: 8,
        smoke_groups: 8,
        members: 2,
        paced_rate: 8000,
        round_robin_groups: false,
        churn: false,
    },
    Workload {
        name: "wide_1000g",
        why: "1000 groups x 4 members round-robin: same per-message work, 125x the working set, 4000 directory ops in set-up",
        groups: 1000,
        smoke_groups: 50,
        members: 4,
        paced_rate: 2000,
        round_robin_groups: true,
        churn: false,
    },
    Workload {
        name: "churn_n4",
        why: "fanout_n4 from three senders while the fourth client leaves and re-joins a group every 50 ms: reconfiguration under load",
        groups: 8,
        smoke_groups: 8,
        members: 4,
        paced_rate: 1500,
        round_robin_groups: false,
        churn: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Client indices that are members of group `g`, ascending.
    pub fn members_of(&self, g: usize) -> Vec<usize> {
        let mut m: Vec<usize> = (0..self.members).map(|j| (g + j) % CLIENTS).collect();
        m.sort_unstable();
        m
    }

    /// The member that leaves and re-joins (churn, reconfig phase).
    pub fn churner_of(&self, g: usize) -> usize {
        *self.members_of(g).last().expect("groups have members")
    }

    /// Members allowed to multicast, and counted for completion.
    pub fn senders_of(&self, g: usize) -> Vec<usize> {
        let mut m = self.members_of(g);
        if self.churn {
            m.pop();
        }
        m
    }
}

/// How long and how large a run is: `--seconds`, and whether `--smoke`
/// shrinks everything for local iteration (its numbers are never committed).
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

impl Scale {
    pub fn groups(&self, w: &Workload) -> usize {
        if self.smoke {
            w.smoke_groups
        } else {
            w.groups
        }
    }

    /// Iteration counts of the layer and traced passes, and the warm-up,
    /// are divided by this.
    pub fn divisor(&self) -> u64 {
        if self.smoke {
            10
        } else {
            1
        }
    }

    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Sample floors are waived under `--smoke`, whose phases are too
    /// short to fill them.
    pub fn min_mcast_samples(&self) -> usize {
        if self.smoke {
            0
        } else {
            MIN_MCAST_SAMPLES
        }
    }

    pub fn min_view_samples(&self) -> usize {
        if self.smoke {
            0
        } else {
            MIN_VIEW_SAMPLES
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the daemon sees, with a bound: set-up time and memory.
///
/// The timings a user sees too — throughput, the two latencies, CPU per
/// multicast and the view change — are the first five `driver.*` metrics
/// below, without a bound: on the shared 2-vCPU reference box three sets of
/// ten runs of one commit differed by up to 2x in every one of them
/// (README, "How steady the numbers are"), and ISSUE 11 moves a metric that
/// cannot hold 15 % out of the bounded set. A claim about them needs
/// alternating parent/change pairs.
///
/// Failures are not a metric either (a metric may never be 0): they are
/// the `failed` / `attempted` / `correct` fields of the result line,
/// `driver.fail_ratio` per layer, and `--compare` breaches on them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("rss_paced_mb", "MB", Better::Lower, 0.05),
];

/// Single layers, layer = crate.module. README.md says which end-to-end
/// metric each should move, on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    // What a user sees besides the bounded metrics; whole-phase figures.
    higher("driver.mcast_per_s", "1/s"),
    lower("driver.lat_unloaded_p50_us", "us"),
    lower("driver.lat_paced_p50_us", "us"),
    lower("driver.cpu_us_per_mcast", "us"),
    lower("driver.view_change_p50_us", "us"),
    // Daemon CPU by thread over the paced phase, per completed multicast.
    lower("cpu.server_shard_us", "us"),
    lower("cpu.server_router_us", "us"),
    lower("cpu.server_fwd_us", "us"),
    lower("cpu.net_loop_server_us", "us"),
    lower("cpu.net_loop_client_us", "us"),
    lower("cpu.net_accept_hb_us", "us"),
    lower("cpu.driver_us", "us"),
    higher("cpu.threads_over_process", "ratio"),
    // net.codec
    lower("net.codec.encode_app_ns_64b", "ns"),
    lower("net.codec.encode_app_ns_4k", "ns"),
    lower("net.codec.encode_fwd_ns_64b", "ns"),
    lower("net.codec.decode_ns_64b", "ns"),
    lower("net.codec.decode_ns_4k", "ns"),
    lower("net.codec.fwd_frame_bytes_64b", "bytes"),
    // net.tcp / net.evloop / net.writer: two bare transports, no daemon.
    lower("net.tcp.send_call_ns", "ns"),
    lower("net.tcp.oneway_p50_us", "us"),
    higher("net.tcp.frames_per_s_64b", "1/s"),
    higher("net.tcp.mb_per_s_4k", "MB/s"),
    higher("net.tcp.frames_per_flush", "count"),
    lower("net.tcp.queue_depth_max", "count"),
    lower("net.tcp.backpressure_hits", "count"),
    lower("net.tcp.frames_dropped", "count"),
    lower("net.tcp.idle_cpu_ms_per_s", "ms/s"),
    // core.endpoint
    lower("core.endpoint.app_send_ns", "ns"),
    lower("core.endpoint.net_app_ns", "ns"),
    lower("core.endpoint.poll_ns", "ns"),
    lower("core.endpoint.view_change_us_n4", "us"),
    lower("core.endpoint.effects_per_send_n4", "count"),
    // harness.sim + spec
    lower("harness.sim.send_us_n4", "us"),
    lower("harness.sim.events_per_send_n4", "count"),
    lower("spec.judge_ns_per_event", "ns"),
    // server.group: one GroupInstance on the benchmark thread.
    lower("server.group.send_us_n2", "us"),
    lower("server.group.send_us_n2_cap4", "us"),
    lower("server.group.send_us_n4", "us"),
    lower("server.group.send_us_n8", "us"),
    lower("server.group.send_us_n16", "us"),
    lower("server.group.apply_us_n4", "us"),
    lower("server.group.run_us_n4", "us"),
    lower("server.group.drain_us_n4", "us"),
    lower("server.group.send_us_n4_cap16", "us"),
    lower("server.group.send_us_n4_after50k", "us"),
    lower("server.group.join_us_n4", "us"),
    lower("server.group.outputs_per_send_n4", "count"),
    lower("server.group.rss_bytes_per_send_n4", "bytes"),
    // server.shard: a ShardPool with an outputs channel, no sockets.
    lower("server.shard.roundtrip_p50_us", "us"),
    higher("server.shard.cmds_per_s_g8", "1/s"),
    higher("server.shard.cmds_per_s_g1000", "1/s"),
    // server.directory / server.server / membership.oracle
    lower("server.directory.create_ns", "ns"),
    lower("server.directory.lookup_ns", "ns"),
    lower("membership.oracle.reconfigure_ns_n4", "ns"),
    lower("server.server.dir_rtt_p50_us", "us"),
    // driver: the benchmark itself, and the tails.
    lower("driver.lat_paced_p99_us", "us"),
    lower("driver.lat_unloaded_p99_us", "us"),
    lower("driver.view_change_p95_us", "us"),
    lower("driver.slo_miss_ratio", "ratio"),
    lower("driver.late_max_ms", "ms"),
    higher("driver.saturate_last_over_first", "ratio"),
    lower("driver.fail_ratio", "ratio"),
    // Traced replica of this workload's mix at window 1: self time per hop.
    lower("trace.client_send_us", "us"),
    lower("trace.net_c2s_us", "us"),
    lower("trace.route_us", "us"),
    lower("trace.shard_wait_step_us", "us"),
    lower("trace.group_apply_us", "us"),
    lower("trace.group_run_us", "us"),
    lower("trace.group_drain_us", "us"),
    lower("trace.fwd_send_us", "us"),
    lower("trace.net_s2c_us", "us"),
    lower("trace.total_us", "us"),
    lower("trace.unattributed_us", "us"),
    lower("trace.overhead_ratio", "ratio"),
];

/// `run_seconds` of `BENCHMARK.json`: the default for `--seconds`.
pub const RUN_SECONDS: u64 = 20;
/// `--seconds` under `--smoke`.
pub const SMOKE_SECONDS: f64 = 3.0;

/// Per-layer counts that must repeat exactly from run to run.
pub const EXACT_COUNTS: [&str; 4] = [
    "net.codec.fwd_frame_bytes_64b",
    "core.endpoint.effects_per_send_n4",
    "harness.sim.events_per_send_n4",
    "server.group.outputs_per_send_n4",
];

/// Splits `seconds` over the phases by `PHASE_SHARES`.
pub fn phase_seconds(seconds: f64) -> [f64; 4] {
    PHASE_SHARES.map(|(_, share)| seconds * share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn check_metrics(listed: &Value, defs: &[MetricDef]) {
        let listed = listed.as_array().expect("metric list");
        assert_eq!(listed.len(), defs.len());
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(str_of(j, "name"), d.name);
            assert_eq!(str_of(j, "unit"), d.unit, "{}", d.name);
            assert_eq!(str_of(j, "better"), d.better.as_str(), "{}", d.name);
            match (j.get("bound"), d.bound) {
                (Some(Value::F64(b)), Some(want)) => assert_eq!(*b, want, "{}", d.name),
                (None, None) => {}
                other => panic!("{}: bound mismatch {other:?}", d.name),
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_plan() {
        let m = manifest();
        let workloads = m
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(m.get("run_seconds"), Some(&Value::U64(RUN_SECONDS)));
        check_metrics(m.get("end_to_end").expect("end_to_end"), END_TO_END);
        check_metrics(m.get("per_layer").expect("per_layer"), PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn membership_shapes() {
        let pair = Workload::by_name("pair_n2").expect("pair_n2");
        assert_eq!(pair.members_of(0), vec![0, 1]);
        assert_eq!(pair.members_of(3), vec![0, 3]);
        let churn = Workload::by_name("churn_n4").expect("churn_n4");
        assert_eq!(churn.churner_of(5), 3);
        assert_eq!(churn.senders_of(5), vec![0, 1, 2]);
        assert!((phase_seconds(20.0).iter().sum::<f64>() - 20.0).abs() < 1e-9);
    }
}
