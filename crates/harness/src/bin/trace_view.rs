//! Renders a recorded trace as per-process timeline lanes.
//!
//! ```text
//! cargo run -p vsgm-harness --bin scenario -- --demo    # produces a run
//! cargo run -p vsgm-harness --bin trace_view -- trace.jsonl
//! cargo run -p vsgm-harness --bin trace_view -- --demo  # built-in demo run
//! ```
//!
//! Application-facing events are shown by default; pass `--all` after the
//! source to include membership and network-level events.

#![allow(clippy::panic, reason = "outside P1: a command-line tool that stops on bad input")]

use vsgm_harness::Scenario;
use vsgm_ioa::Trace;
use vsgm_types::Event;

fn render(trace: &Trace, all: bool) -> String {
    let mut procs: Vec<_> = trace.entries().iter().map(|e| e.event.process()).collect::<Vec<_>>();
    procs.sort_unstable();
    procs.dedup();
    let lane_width = 26usize;
    let mut out = String::new();
    out.push_str(&format!("{:>10}  ", "time"));
    for p in &procs {
        out.push_str(&format!("{:<width$}", p.to_string(), width = lane_width));
    }
    out.push('\n');
    out.push_str(&"-".repeat(12 + lane_width * procs.len()));
    out.push('\n');
    for e in trace.entries() {
        if !all && !e.event.is_application_facing() {
            continue;
        }
        let label = match &e.event {
            Event::Send { msg, .. } => format!("send {msg:?}"),
            Event::Deliver { q, msg, .. } => format!("dlvr {msg:?} <-{q}"),
            Event::GcsView { view, transitional, .. } => {
                format!("VIEW {} |T|={}", view.id(), transitional.len())
            }
            Event::Block { .. } => "block".into(),
            Event::BlockOk { .. } => "block_ok".into(),
            Event::MbrshpStartChange { cid, .. } => format!("sc {cid}"),
            Event::MbrshpView { view, .. } => format!("mview {}", view.id()),
            Event::NetSend { msg, .. } => format!("->net {}", msg.tag()),
            Event::NetDeliver { p, msg, .. } => format!("<-net {} {p}", msg.tag()),
            Event::Reliable { set, .. } => format!("rel |{}|", set.len()),
            Event::Live { set, .. } => format!("live |{}|", set.len()),
            Event::Crash { .. } => "CRASH".into(),
            Event::Recover { .. } => "RECOVER".into(),
        };
        let lane = procs.iter().position(|p| *p == e.event.process()).unwrap_or(0);
        let mut line = format!("{:>10}  ", e.time.to_string());
        line.push_str(&" ".repeat(lane * lane_width));
        let mut label = label;
        label.truncate(lane_width - 1);
        line.push_str(&label);
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.iter().any(|a| a == "--all");
    let source = args.iter().find(|a| !a.starts_with("--")).cloned();
    let trace = match source.as_deref() {
        None => {
            // Run the demo scenario and view its trace.
            let mut sim = vsgm_harness::Sim::new_paper(
                3,
                Default::default(),
                vsgm_harness::SimOptions::default(),
            );
            let steps = Scenario::demo().steps;
            let _ = steps; // the demo scenario targets n=4; use a quick run instead
            sim.reconfigure(&sim.all_procs());
            sim.send(vsgm_types::ProcessId::new(1), vsgm_types::AppMsg::from("demo"));
            sim.run_to_quiescence();
            sim.trace().clone()
        }
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            Trace::from_json_lines(&text).unwrap_or_else(|e| panic!("bad trace: {e}"))
        }
    };
    print!("{}", render(&trace, all));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_ioa::SimTime;
    use vsgm_types::{AppMsg, ProcessId};

    #[test]
    fn render_produces_lanes() {
        let mut t = Trace::new();
        t.record(
            SimTime::from_micros(1),
            Event::Send { p: ProcessId::new(1), msg: AppMsg::from("x") },
        );
        t.record(
            SimTime::from_micros(2),
            Event::Deliver { p: ProcessId::new(2), q: ProcessId::new(1), msg: AppMsg::from("x") },
        );
        let s = render(&t, false);
        assert!(s.contains("send"), "{s}");
        assert!(s.contains("dlvr"), "{s}");
        assert!(s.contains("p1"), "{s}");
        assert!(s.contains("p2"), "{s}");
    }
}
