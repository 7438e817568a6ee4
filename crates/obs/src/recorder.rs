//! The recording interface threaded through the protocol layers.

use crate::registry::Registry;

/// Sink for protocol metrics: counters, gauges, histograms and per-tag
/// traffic. What happened, and when, is the trace's business; a recorder
/// only counts.
///
/// Every method has a no-op default body, so the disabled path (the
/// [`NoopRecorder`]) costs a virtual call that immediately returns — no
/// allocation, no formatting, no branching in the instrumented layers.
/// Instrumented code takes `&mut dyn Recorder` and calls unconditionally.
pub trait Recorder {
    /// Adds `delta` to the counter `name`.
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value`.
    fn gauge(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Records `value` into the histogram `name`.
    fn observe(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Accounts one point-to-point send of `bytes` wire bytes of a
    /// message with `tag`.
    fn traffic(&mut self, tag: &'static str, bytes: u64) {
        let _ = (tag, bytes);
    }
}

/// The disabled recorder: every hook inherits the empty default body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The enabled recorder: every hook lands in the registry.
impl Recorder for Registry {
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.incr(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        self.set_gauge(name, value);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        Registry::observe(self, name, value);
    }

    fn traffic(&mut self, tag: &'static str, bytes: u64) {
        self.record_traffic(tag, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_records_nothing() {
        let mut r = NoopRecorder;
        r.counter("x", 1);
        r.gauge("g", 2);
        r.observe("h", 3);
        r.traffic("app_msg", 10);
    }

    #[test]
    fn registry_records_every_hook() {
        let mut reg = Registry::new();
        let r: &mut dyn Recorder = &mut reg;
        r.counter("x", 2);
        r.counter("x", 3);
        r.gauge("g", 7);
        r.observe("h", 9);
        r.traffic("app_msg", 10);
        assert_eq!(reg.counter("x"), 5);
        assert_eq!(reg.gauge("g"), Some(7));
        assert_eq!(reg.histogram("h").map(|h| h.sum()), Some(9));
        assert_eq!(reg.traffic("app_msg").bytes, 10);
    }
}
