//! One run of one workload: the phases in order, the validity guards, and
//! the metrics they yield.

use crate::plan::{self, Scale, Workload};
use crate::procfs;
use crate::rig::{Closed, Paced, Rig, CPU_CATEGORIES};
use crate::stats::{self, Samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    /// The checker, the daemon's spec checkers and its unroutable-frame
    /// counter all agree the outputs were right, and nothing failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: Metrics,
    /// The timings of the phases (`cpu.*`, `driver.*`), or the validity
    /// guard that voids them: they would mislead. Set-up time and memory
    /// stand either way.
    pub timings: Result<Metrics, String>,
    /// Human-readable account: every timing with its sample count.
    pub report: String,
}

/// Why a run yields no numbers at all.
pub enum Stop {
    /// The run left the envelope it claims to have been made in.
    Void(String),
    /// The run could not be carried out.
    Broken(String),
}

fn check(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Dropping a transport only tells its loop, accept and heartbeat threads
/// to stop; they exit within their drain grace. The next set-up must not
/// share the processors with them.
fn wait_for_lone_thread() -> Result<(), Stop> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while procfs::threads().len() > 1 {
        if Instant::now() > deadline {
            return Err(Stop::Broken(
                "threads of the previous rig never exited".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

pub fn run(w: &'static Workload, seed: u64, scale: &Scale) -> Result<Outcome, Stop> {
    let groups = scale.groups(w);
    let [paced_s, unloaded_s, saturate_s, reconfig_s] = plan::phase_seconds(scale.seconds);
    let mut report = String::new();
    let mut m = Metrics::new();

    let (mut rig, first_setup_s) = Rig::setup(w, groups, seed).map_err(Stop::Broken)?;
    rig.warm_up(plan::WARMUP_MCASTS / scale.divisor())
        .map_err(Stop::Broken)?;
    let mut paced = rig.paced(paced_s);
    let mut unloaded_lat = rig.unloaded(unloaded_s);
    let saturated = rig.saturate(saturate_s);
    let mut quiet_views = rig.reconfig(reconfig_s);
    let (attempted, failed) = (rig.attempted_total, rig.failed_total);
    let wrong = rig.verdict();
    // The first set-up ran in a fresh process, like a daemon start; the
    // repeats follow the measured phases so that they cannot disturb them.
    let mut setups = vec![first_setup_s];
    for _ in 1..scale.setup_repeats() {
        wait_for_lone_thread()?;
        let (rig, s) = Rig::setup(w, groups, seed).map_err(Stop::Broken)?;
        drop(rig);
        setups.push(s);
    }

    check(paced.threads <= plan::MAX_THREADS, || {
        format!("{} threads exceed the envelope", paced.threads)
    })
    .map_err(Stop::Void)?;
    m.insert(
        "setup_s",
        stats::median(&mut setups).expect("at least one set-up"),
    );
    m.insert("rss_paced_mb", paced.rss_kb as f64 / 1024.0);
    let mut t = Metrics::new();
    let timings = timings(
        &mut t,
        w,
        scale,
        &mut paced,
        &mut unloaded_lat,
        &saturated,
        &mut quiet_views,
    );
    t.insert("driver.fail_ratio", failed as f64 / attempted.max(1) as f64);

    let _ = writeln!(report, "  setup (s)            {setups:.3?} -> median");
    let _ = writeln!(
        report,
        "  paced  {}/s  us      {}",
        w.paced_rate,
        paced.lat.describe()
    );
    let _ = writeln!(
        report,
        "  generator late (ms)  {}",
        paced.late_ms.describe()
    );
    let shares: Vec<String> = CPU_CATEGORIES
        .iter()
        .zip(paced.cpu_by_thread)
        .map(|(name, us)| {
            format!(
                "{} {:.0}",
                name.trim_start_matches("cpu.").trim_end_matches("_us"),
                us / paced.completed.max(1) as f64
            )
        })
        .collect();
    let _ = writeln!(report, "  paced cpu us/mcast   {}", shares.join("  "));
    let _ = writeln!(report, "  unloaded  us         {}", unloaded_lat.describe());
    let _ = writeln!(
        report,
        "  saturate             {} completed in {:.2} s",
        saturated.completed, saturated.seconds
    );
    let _ = writeln!(report, "  view change quiet us {}", quiet_views.describe());
    if w.churn {
        let _ = writeln!(
            report,
            "  view change paced us {}",
            paced.view_lat.describe()
        );
    }
    let _ = writeln!(
        report,
        "  failed               {failed} of {attempted} operations"
    );
    for line in &wrong {
        let _ = writeln!(report, "  WRONG: {line}");
    }
    Ok(Outcome {
        correct: wrong.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: m,
        timings: timings.map(|()| t),
        report,
    })
}

/// The validity guards of the phases, then what the phases measured.
fn timings(
    m: &mut Metrics,
    w: &Workload,
    scale: &Scale,
    paced: &mut Paced,
    unloaded_lat: &mut Samples,
    saturated: &Closed,
    quiet_views: &mut Samples,
) -> Result<(), String> {
    let (mcast_min, view_min) = (scale.min_mcast_samples(), scale.min_view_samples());
    let late = paced.late_ms.pct("generator lateness", 95.0, mcast_min)?;
    check(late <= plan::MAX_LATE_P95_MS, || {
        format!("open-loop generator ran {late:.1} ms late at p95")
    })?;
    // Half a second of offered load still in flight when the last
    // multicast is sent means the daemon is not keeping up with the rate.
    let backlog_limit = (w.paced_rate / 2) as usize;
    check(paced.backlog_end <= backlog_limit, || {
        format!(
            "backlog of {} multicasts at the end of paced (limit {backlog_limit})",
            paced.backlog_end
        )
    })?;
    check(paced.completed > 0 && saturated.completed > 0, || {
        "a phase completed nothing".to_string()
    })?;

    m.insert(
        "driver.mcast_per_s",
        saturated.completed as f64 / saturated.seconds,
    );
    m.insert(
        "driver.lat_unloaded_p50_us",
        unloaded_lat.p50("unloaded latency", mcast_min)?,
    );
    m.insert(
        "driver.lat_paced_p50_us",
        paced.lat.p50("paced latency", mcast_min)?,
    );
    // Under load where the workload has view changes under load; the quiet
    // reconfig phase elsewhere, since every workload reports every metric.
    // The tail is the quiet phase's everywhere: one view change every
    // `CHURN_PERIOD_MS` leaves too few under load to support a p95.
    let view_p50 = if w.churn {
        paced.view_lat.p50("view change under load", view_min)?
    } else {
        quiet_views.p50("quiet view change", view_min)?
    };
    m.insert("driver.view_change_p50_us", view_p50);
    m.insert(
        "driver.view_change_p95_us",
        quiet_views.pct("quiet view change", 95.0, view_min)?,
    );
    // CPU over the whole paced phase per completed multicast, by thread;
    // the process figure is their sum.
    let mut cpu_total = 0.0;
    for (name, us) in CPU_CATEGORIES.iter().zip(paced.cpu_by_thread) {
        m.insert(name, us / paced.completed as f64);
        cpu_total += us;
    }
    m.insert(
        "driver.cpu_us_per_mcast",
        cpu_total / paced.completed as f64,
    );
    m.insert("cpu.threads_over_process", cpu_total / paced.cpu_us as f64);
    m.insert(
        "driver.lat_paced_p99_us",
        paced.lat.pct("paced latency", 99.0, mcast_min)?,
    );
    m.insert(
        "driver.lat_unloaded_p99_us",
        unloaded_lat.pct("unloaded latency", 99.0, mcast_min)?,
    );
    m.insert(
        "driver.slo_miss_ratio",
        paced.lat.share_above(plan::SLO_US, paced.failed),
    );
    m.insert("driver.late_max_ms", paced.late_ms.max().unwrap_or(0.0));
    m.insert(
        "driver.saturate_last_over_first",
        saturated.last_over_first(),
    );
    Ok(())
}
