//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! per-tag traffic accounting, all keyed by `&'static str` names so the
//! hot path never allocates.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket `i < 32` holds values whose
/// power-of-two magnitude is `i` (i.e. `floor(log2(v)) == i - 1` with 0 in
/// bucket 0); the last bucket is the overflow.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A fixed-bucket `u64` histogram with power-of-two bucket bounds.
///
/// Values land in bucket `⌈log2(v+1)⌉` clamped to the overflow bucket, so
/// the upper bound of bucket `i` is `2^i − 1`. Alongside the buckets the
/// histogram tracks exact count / sum / min / max.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow).
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        // bucket_index is clamped to HISTOGRAM_BUCKETS - 1, so the slot
        // always exists; get_mut keeps the accessor visibly panic-free.
        if let Some(slot) = self.buckets.get_mut(Self::bucket_index(v)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bucket bound below which at least `q` (in `[0,1]`) of the
    /// observations fall (`None` when empty). A coarse quantile: exact to
    /// the power-of-two bucket.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return Some(Self::bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates the non-empty buckets as `(inclusive upper bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_bound(i), *c))
    }
}

/// Per-tag traffic totals (mirrors the network layer's accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagTraffic {
    /// Point-to-point sends of messages with this tag.
    pub count: u64,
    /// Total wire bytes of messages with this tag.
    pub bytes: u64,
}

/// Central metrics store. All keys are `&'static str`, so recording is a
/// map lookup plus an integer update — no allocation, no formatting.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    traffic: BTreeMap<&'static str, TagTraffic>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name`.
    pub fn incr(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Current value of gauge `name` (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Accounts one point-to-point send of `bytes` wire bytes with `tag`.
    pub fn record_traffic(&mut self, tag: &'static str, bytes: u64) {
        let t = self.traffic.entry(tag).or_default();
        t.count += 1;
        t.bytes += bytes;
    }

    /// Traffic totals for `tag`.
    pub fn traffic(&self, tag: &str) -> TagTraffic {
        self.traffic.get(tag).copied().unwrap_or_default()
    }

    /// Iterates `(tag, totals)` traffic rows in tag order.
    pub fn traffic_rows(&self) -> impl Iterator<Item = (&'static str, TagTraffic)> + '_ {
        self.traffic.iter().map(|(t, v)| (*t, *v))
    }

    /// Iterates `(name, value)` counter rows in name order.
    pub fn counter_rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (*n, *v))
    }

    /// Iterates `(name, value)` gauge rows in name order.
    pub fn gauge_rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(n, v)| (*n, *v))
    }

    /// Iterates `(name, histogram)` rows in name order.
    pub fn histogram_rows(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (*n, h))
    }
}

/// Well-known metric names shared by the instrumented layers, so the
/// layers, their tests and the exporters agree on keys.
pub mod names {
    /// GCS views installed (end-point layer).
    pub const EP_VIEWS_INSTALLED: &str = "endpoint.views_installed";
    /// Application messages multicast (end-point layer).
    pub const EP_MSGS_SENT: &str = "endpoint.msgs_sent";
    /// Application messages delivered (end-point layer).
    pub const EP_MSGS_DELIVERED: &str = "endpoint.msgs_delivered";
    /// Synchronization messages sent (end-point layer).
    pub const EP_SYNCS_SENT: &str = "endpoint.syncs_sent";
    /// Forwarded copies sent (end-point layer, §5.2.2).
    pub const EP_FORWARDS_SENT: &str = "endpoint.forwards_sent";
    /// Block requests issued (end-point layer).
    pub const EP_BLOCKS: &str = "endpoint.blocks";
    /// Stability acknowledgements sent (end-point layer).
    pub const EP_ACKS_SENT: &str = "endpoint.acks_sent";
    /// Forwarded messages refused for an index outside the buffer.
    pub const EP_STORES_REFUSED: &str = "endpoint.stores_refused";
    /// Application-message batch flushes (one per wire frame carrying
    /// original `app_msg` traffic, batched or not).
    pub const EP_BATCH_FLUSHES: &str = "endpoint.batch_flushes";
    /// Batch flushes triggered by the message-count limit.
    pub const EP_BATCH_FLUSH_COUNT: &str = "endpoint.batch_flush_count";
    /// Batch flushes triggered by the byte budget.
    pub const EP_BATCH_FLUSH_BYTES: &str = "endpoint.batch_flush_bytes";
    /// Batch flushes triggered by linger-deadline expiry.
    pub const EP_BATCH_FLUSH_LINGER: &str = "endpoint.batch_flush_linger";
    /// Batch flushes forced by an in-progress view change (the pre-cut
    /// flush that keeps Fig. 10 cut computation exact).
    pub const EP_BATCH_FLUSH_VIEW_CHANGE: &str = "endpoint.batch_flush_view_change";
    /// Histogram of messages per flushed batch.
    pub const EP_BATCH_SIZE: &str = "endpoint.batch_size";
    /// Messages dropped by the network (loss outside reliable sets).
    pub const NET_DROPPED: &str = "net.dropped";
    /// Messages delivered by the network.
    pub const NET_DELIVERED: &str = "net.delivered";
    /// Histogram of per-message network transit time, in microseconds.
    pub const NET_DELIVERY_LATENCY_US: &str = "net.delivery_latency_us";
    /// Buffered socket flushes issued by per-connection writer threads.
    pub const NET_FLUSHES: &str = "net.flushes";
    /// Frames carried by those flushes (coalescing numerator).
    pub const NET_FRAMES_FLUSHED: &str = "net.frames_flushed";
    /// Largest number of frames coalesced into a single flush (gauge).
    pub const NET_COALESCE_MAX: &str = "net.coalesce_max";
    /// High-water mark of per-connection write-queue depth (gauge).
    pub const NET_QUEUE_DEPTH_MAX: &str = "net.queue_depth_max";
    /// Enqueues that found the per-connection write queue at or above its
    /// backpressure watermark (senders are throttling).
    pub const NET_BACKPRESSURE: &str = "net.backpressure_hits";
    /// Frames accepted into per-connection write queues (data +
    /// heartbeats); with `NET_FRAMES_FLUSHED` and `NET_FRAMES_DROPPED`
    /// this obeys `enqueued == flushed + dropped` at quiescence.
    pub const NET_FRAMES_ENQUEUED: &str = "net.frames_enqueued";
    /// Frames discarded without reaching the wire (torn-down
    /// connections' queue remnants and in-flight coalesce buffers).
    pub const NET_FRAMES_DROPPED: &str = "net.frames_dropped";
    /// Inbound frames rejected for a length prefix over `max_frame_len`.
    pub const NET_OVERSIZE_REJECTED: &str = "net.oversize_rejected";
    /// Connections evicted for stalling mid-handshake or mid-frame past
    /// the read idle timeout.
    pub const NET_IDLE_EVICTIONS: &str = "net.idle_evictions";
    /// Connections currently owned by the event-loop threads (gauge).
    pub const NET_CONNS_OPEN: &str = "net.conns_open";
    /// Event-loop threads serving all of the transport's sockets (gauge).
    pub const NET_LOOP_THREADS: &str = "net.loop_threads";
    /// Histogram of start_change → view-install span latency, µs
    /// (derived from the trace by `Snapshot::capture`).
    pub const SYNC_ROUND_LATENCY_US: &str = "span.sync_round_latency_us";
    /// Membership rounds entered by servers.
    pub const MBRSHP_ROUNDS: &str = "mbrshp.rounds_entered";
    /// Peer proposals processed by membership servers.
    pub const MBRSHP_PROPOSALS: &str = "mbrshp.proposals_recv";
    /// Views formed (per client notification) by membership servers.
    pub const MBRSHP_VIEWS_FORMED: &str = "mbrshp.views_formed";
    /// `start_change` notifications issued by membership servers.
    pub const MBRSHP_START_CHANGES: &str = "mbrshp.start_changes_sent";
    /// Tick-cadence `StateAudit` failures detected (self-stabilization
    /// tier).
    pub const EP_AUDIT_FAILURES: &str = "endpoint.audit_failures";
    /// §8 self-resets taken after an audit failure.
    pub const EP_AUDIT_RECONCILES: &str = "endpoint.audit_reconciliations";
    /// §8 recoveries: a crashed end-point restarted in its initial state.
    pub const EP_RECOVERIES: &str = "endpoint.recoveries";
    /// State-corruption faults injected by the chaos harness.
    pub const CHAOS_CORRUPTIONS: &str = "chaos.corruption_injected";
    /// Group instances currently hosted by a multi-group server (gauge).
    pub const SERVER_GROUPS_HOSTED: &str = "server.groups_hosted";
    /// Shard workers the server routes groups across (gauge).
    pub const SERVER_SHARDS: &str = "server.shards";
    /// Enveloped frames routed to a hosted group instance.
    pub const SERVER_FRAMES_ROUTED: &str = "server.frames_routed";
    /// Frames dropped because their group id resolved to no instance.
    pub const SERVER_FRAMES_UNROUTABLE: &str = "server.frames_unroutable";
    /// Frames a server owed its clients that could not be queued on a
    /// client's connection (no address, unreachable, broken, stalled).
    pub const SERVER_FRAMES_UNSENT: &str = "server.frames_unsent";
    /// Directory create requests that created a fresh group.
    pub const SERVER_DIR_CREATES: &str = "server.directory_creates";
    /// Directory create/join requests resolved onto an existing group
    /// (including losers of a concurrent create race).
    pub const SERVER_DIR_JOINS: &str = "server.directory_joins";
    /// Directory lookups answered (hit or miss).
    pub const SERVER_DIR_LOOKUPS: &str = "server.directory_lookups";
    /// Directory leave requests processed.
    pub const SERVER_DIR_LEAVES: &str = "server.directory_leaves";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.incr("a", 2);
        r.incr("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.set_gauge("g", 7);
        r.set_gauge("g", 9);
        assert_eq!(r.gauge("g"), Some(9));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1000 → bucket 10.
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(buckets[2], (3, 2));
        assert_eq!(buckets[3], (1023, 1));
        assert_eq!(buckets[4], (u64::MAX, 1));
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5).unwrap();
        assert!((32..=127).contains(&q50), "{q50}");
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn traffic_rows_accumulate() {
        let mut r = Registry::new();
        r.record_traffic("sync_msg", 100);
        r.record_traffic("sync_msg", 50);
        r.record_traffic("app_msg", 8);
        assert_eq!(r.traffic("sync_msg"), TagTraffic { count: 2, bytes: 150 });
        let rows: Vec<_> = r.traffic_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "app_msg");
    }
}
