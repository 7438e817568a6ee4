//! Exporters: a JSON metrics snapshot and a human-readable table.

use crate::journal::{spans, ViewChangeSpan};
use crate::registry::{names, Histogram, Registry};
use serde::{Serialize, Value};
use std::fmt::Write as _;
use vsgm_ioa::TraceEntry;

/// Five-number summary of a histogram, as exported.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Coarse median (power-of-two bucket bound).
    pub p50: u64,
    /// Coarse 99th percentile (power-of-two bucket bound).
    pub p99: u64,
}

impl HistSummary {
    fn from_histogram(h: &Histogram) -> Option<HistSummary> {
        Some(HistSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min()?,
            max: h.max()?,
            mean: h.mean()?,
            p50: h.quantile(0.5)?,
            p99: h.quantile(0.99)?,
        })
    }
}

impl Serialize for HistSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::U64(self.count)),
            ("sum".into(), Value::U64(self.sum)),
            ("min".into(), Value::U64(self.min)),
            ("max".into(), Value::U64(self.max)),
            ("mean".into(), Value::F64(self.mean)),
            ("p50".into(), Value::U64(self.p50)),
            ("p99".into(), Value::U64(self.p99)),
        ])
    }
}

/// A point-in-time export of a run: the [`Registry`]'s counters, gauges,
/// histogram summaries and per-tag traffic, and the view-change spans
/// folded over its trace.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter rows `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauge rows `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Histogram rows `(name, summary)`, the registry's and
    /// [`names::SYNC_ROUND_LATENCY_US`] over the completed spans.
    pub histograms: Vec<(String, HistSummary)>,
    /// Traffic rows `(tag, count, bytes)`.
    pub traffic: Vec<(String, u64, u64)>,
    /// Every view-change span in the trace.
    pub spans: Vec<ViewChangeSpan>,
    /// Spans that closed with a view install.
    pub view_changes_completed: u64,
    /// Mean point-to-point messages per completed view change, by tag
    /// (`None` when no view change completed).
    pub msgs_per_view_change: Vec<(String, f64)>,
    /// Trace entries the spans were folded over.
    pub trace_len: u64,
}

impl Snapshot {
    /// Captures a snapshot of `reg` and of the spans in `entries`, the
    /// trace of the same run.
    pub fn capture(reg: &Registry, entries: &[TraceEntry]) -> Snapshot {
        let spans = spans(entries);
        let mut latency = Histogram::new();
        for l in spans.iter().filter_map(ViewChangeSpan::latency) {
            latency.record(l.as_micros());
        }
        let mut histograms: Vec<(String, HistSummary)> = reg
            .histogram_rows()
            .chain([(names::SYNC_ROUND_LATENCY_US, &latency)])
            .filter_map(|(n, h)| HistSummary::from_histogram(h).map(|s| (n.to_string(), s)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let completed = spans.iter().filter(|s| s.complete()).count() as u64;
        let msgs_per_view_change = if completed == 0 {
            Vec::new()
        } else {
            reg.traffic_rows()
                .map(|(tag, t)| (tag.to_string(), t.count as f64 / completed as f64))
                .collect()
        };
        Snapshot {
            counters: reg.counter_rows().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: reg.gauge_rows().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms,
            traffic: reg.traffic_rows().map(|(t, v)| (t.to_string(), v.count, v.bytes)).collect(),
            spans,
            view_changes_completed: completed,
            msgs_per_view_change,
            trace_len: entries.len() as u64,
        }
    }

    /// The sync-round latency summary, if any view change completed.
    pub fn sync_round_latency(&self) -> Option<&HistSummary> {
        self.histograms.iter().find(|(n, _)| n == names::SYNC_ROUND_LATENCY_US).map(|(_, s)| s)
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot is serializable")
    }

    /// Renders a human-readable table report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== observability snapshot ==");
        let _ = writeln!(
            out,
            "trace: {} entries, {} spans ({} completed view changes)",
            self.trace_len,
            self.spans.len(),
            self.view_changes_completed
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n-- counters --");
            for (n, v) in &self.counters {
                let _ = writeln!(out, "{n:<34} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n-- gauges --");
            for (n, v) in &self.gauges {
                let _ = writeln!(out, "{n:<34} {v:>12}");
            }
        }
        if !self.traffic.is_empty() {
            let _ = writeln!(out, "\n-- traffic --");
            let _ = writeln!(out, "{:<20} {:>10} {:>12}", "tag", "msgs", "bytes");
            for (t, c, b) in &self.traffic {
                let _ = writeln!(out, "{t:<20} {c:>10} {b:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\n-- histograms --");
            let _ = writeln!(
                out,
                "{:<30} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "mean", "p50", "p99", "max"
            );
            for (n, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<30} {:>8} {:>10.1} {:>10} {:>10} {:>10}",
                    n, h.count, h.mean, h.p50, h.p99, h.max
                );
            }
        }
        if !self.msgs_per_view_change.is_empty() {
            let _ = writeln!(out, "\n-- messages per view change --");
            for (t, v) in &self.msgs_per_view_change {
                let _ = writeln!(out, "{t:<20} {v:>10.2}");
            }
        }
        out
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        let obj = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        let counters =
            obj(self.counters.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect());
        let gauges = obj(self.gauges.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect());
        let histograms =
            obj(self.histograms.iter().map(|(n, h)| (n.clone(), h.to_value())).collect());
        let traffic = obj(self
            .traffic
            .iter()
            .map(|(t, c, b)| {
                (
                    t.clone(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(*c)),
                        ("bytes".into(), Value::U64(*b)),
                    ]),
                )
            })
            .collect());
        let spans = Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("pid".into(), Value::U64(s.pid.raw())),
                        ("cid".into(), Value::U64(s.cid.raw())),
                        ("start_step".into(), Value::U64(s.start_step)),
                        ("start_time_us".into(), Value::U64(s.start_time.as_micros())),
                        ("syncs_sent".into(), Value::U64(s.syncs_sent)),
                        ("syncs_recv".into(), Value::U64(s.syncs_recv)),
                        ("blocks".into(), Value::U64(s.blocks)),
                        ("complete".into(), Value::Bool(s.complete())),
                    ];
                    if let Some(lat) = s.latency() {
                        pairs.push(("latency_us".into(), Value::U64(lat.as_micros())));
                    }
                    Value::Object(pairs)
                })
                .collect(),
        );
        let mpvc = obj(self
            .msgs_per_view_change
            .iter()
            .map(|(t, v)| (t.clone(), Value::F64(*v)))
            .collect());
        Value::Object(vec![
            ("trace_len".into(), Value::U64(self.trace_len)),
            ("view_changes_completed".into(), Value::U64(self.view_changes_completed)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("traffic".into(), traffic),
            ("spans".into(), spans),
            ("msgs_per_view_change".into(), mpvc),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::{SimTime, Trace};
    use vsgm_types::{Event, ProcSet, ProcessId, StartChangeId, View};

    /// One view change at p1, 10 µs → 90 µs, and two `sync_msg` sends.
    fn sample() -> (Registry, Trace) {
        let p1 = ProcessId::new(1);
        let mut t = Trace::new();
        let cid = StartChangeId::new(1);
        t.record(
            SimTime::from_micros(10),
            Event::MbrshpStartChange { p: p1, cid, set: ProcSet::new() },
        );
        t.record(
            SimTime::from_micros(90),
            Event::GcsView { p: p1, view: View::initial(p1), transitional: ProcSet::new() },
        );
        let mut reg = Registry::new();
        reg.record_traffic("sync_msg", 64);
        reg.record_traffic("sync_msg", 64);
        reg.set_gauge("group.size", 3);
        reg.incr(names::EP_VIEWS_INSTALLED, 1);
        (reg, t)
    }

    fn sample_snapshot() -> Snapshot {
        let (reg, t) = sample();
        Snapshot::capture(&reg, t.entries())
    }

    #[test]
    fn snapshot_captures_all_sections() {
        let snap = sample_snapshot();
        assert_eq!(snap.view_changes_completed, 1);
        assert_eq!(snap.trace_len, 2);
        assert_eq!(snap.gauges, vec![("group.size".to_string(), 3)]);
        assert_eq!(snap.traffic, vec![("sync_msg".to_string(), 2, 128)]);
        assert_eq!(snap.msgs_per_view_change, vec![("sync_msg".to_string(), 2.0)]);
    }

    #[test]
    fn span_close_derives_sync_round_latency() {
        let (mut reg, t) = sample();
        reg.observe("a.first", 1);
        reg.observe("z.last", 1);
        let snap = Snapshot::capture(&reg, t.entries());
        let lat = snap.sync_round_latency().unwrap();
        assert_eq!((lat.count, lat.sum), (1, 80));
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", names::SYNC_ROUND_LATENCY_US, "z.last"]);
    }

    #[test]
    fn json_export_parses_back() {
        let json = sample_snapshot().to_json_pretty();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("view_changes_completed"), Some(&Value::U64(1)));
        assert!(v.get("spans").and_then(Value::as_array).is_some_and(|s| s.len() == 1));
        let span = &v.get("spans").unwrap().as_array().unwrap()[0];
        assert_eq!(span.get("latency_us"), Some(&Value::U64(80)));
    }

    #[test]
    fn table_mentions_every_section() {
        let table = sample_snapshot().render_table();
        for needle in ["counters", "gauges", "traffic", "histograms", "messages per view change"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn empty_recorder_snapshots_cleanly() {
        let snap = Snapshot::capture(&Registry::new(), &[]);
        assert_eq!(snap.view_changes_completed, 0);
        assert!(snap.msgs_per_view_change.is_empty());
        assert!(snap.sync_round_latency().is_none());
        assert!(!snap.to_json_pretty().is_empty());
        assert!(snap.render_table().contains("0 entries"));
    }
}
