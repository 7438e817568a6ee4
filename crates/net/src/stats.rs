//! Traffic accounting for experiments, and the live counters of a
//! [`crate::TcpTransport`] they are read from.

use crate::Wire;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts and byte totals per message tag, plus loss accounting.
///
/// The experiment harness reads these to report the series the paper's
/// claims are judged on (messages per view change, sync-message bytes,
/// forwarded copies, …).
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// `(count, bytes)` per message tag, counted per (sender, receiver)
    /// pair — a multicast to `k` peers counts `k` times, matching the
    /// spec's per-channel queues.
    per_tag: BTreeMap<&'static str, (u64, u64)>,
    /// Messages dropped by the network (loss outside reliable sets).
    pub dropped: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Reconnect attempts after a failed connect (live transports with
    /// capped-backoff reconnection, e.g. [`crate::TcpTransport`]).
    pub retries: u64,
    /// Liveness probes the event loops put on live connections (live
    /// transports); a probe that finds the last one still unwritten joins
    /// it.
    pub heartbeats: u64,
    /// Socket writes that finished a buffer ([`crate::TcpTransport`]'s
    /// coalesced loop writes and inline batch pushes).
    pub flushes: u64,
    /// Frames carried by those flushes; `frames_flushed / flushes` is the
    /// mean coalescing factor.
    pub frames_flushed: u64,
    /// Largest number of frames coalesced into one flush.
    pub coalesce_max: u64,
    /// High-water mark of any per-connection write-queue depth.
    pub queue_depth_max: u64,
    /// Enqueues that found a write queue at or above the backpressure
    /// watermark, half of [`crate::TcpConfig::writer_queue`].
    pub backpressure_hits: u64,
    /// Frames accepted into per-connection write queues (data and
    /// heartbeats). At quiescence the write path conserves frames:
    /// `frames_enqueued == frames_flushed + frames_dropped`.
    pub frames_enqueued: u64,
    /// Frames discarded without reaching the wire — queue remnants and
    /// in-flight coalesce buffers of torn-down connections.
    pub frames_dropped: u64,
    /// Inbound frames rejected because their length prefix exceeded
    /// [`crate::TcpConfig::max_frame_len`] (connection torn down).
    pub oversize_rejected: u64,
    /// Connections evicted for stalling mid-handshake or mid-frame
    /// longer than [`crate::TcpConfig::read_idle_timeout`].
    pub idle_evictions: u64,
    /// Connections currently owned by the transport's event loops.
    pub conns_open: u64,
    /// Event-loop threads multiplexing all of the transport's sockets —
    /// constant in the connection count.
    pub loop_threads: u64,
}

/// The live counters of one [`crate::TcpTransport`], kept once behind
/// one `Arc` that its event loops, its connection handles and its dialer
/// all bump. A field named after one of [`NetStats`]'s counts what that
/// field reports.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub retries: AtomicU64,
    pub heartbeats: AtomicU64,
    pub flushes: AtomicU64,
    pub frames_flushed: AtomicU64,
    pub coalesce_max: AtomicU64,
    pub queue_depth_max: AtomicU64,
    pub backpressure_hits: AtomicU64,
    pub frames_enqueued: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub oversize_rejected: AtomicU64,
    pub idle_evictions: AtomicU64,
    /// Zero-length liveness frames received from peers.
    pub heartbeats_heard: AtomicU64,
    /// Connections the listener accepted.
    pub accepted: AtomicU64,
    /// Connections a loop adopted (accepted and dialed), and retired.
    pub conns_opened: AtomicU64,
    pub conns_closed: AtomicU64,
}

impl Counters {
    /// The counts as [`NetStats`] of a transport with `loop_threads`
    /// loops; the per-tag rows stay empty.
    pub(crate) fn snapshot(&self, loop_threads: u64) -> NetStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetStats {
            retries: get(&self.retries),
            heartbeats: get(&self.heartbeats),
            flushes: get(&self.flushes),
            frames_flushed: get(&self.frames_flushed),
            coalesce_max: get(&self.coalesce_max),
            queue_depth_max: get(&self.queue_depth_max),
            backpressure_hits: get(&self.backpressure_hits),
            frames_enqueued: get(&self.frames_enqueued),
            frames_dropped: get(&self.frames_dropped),
            oversize_rejected: get(&self.oversize_rejected),
            idle_evictions: get(&self.idle_evictions),
            conns_open: get(&self.conns_opened).saturating_sub(get(&self.conns_closed)),
            loop_threads,
            ..NetStats::default()
        }
    }
}

impl NetStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one point-to-point enqueue of `msg`.
    pub fn record_send<M: Wire>(&mut self, msg: &M) {
        let e = self.per_tag.entry(msg.tag()).or_insert((0, 0));
        e.0 += 1;
        e.1 += msg.wire_size() as u64;
    }

    /// Number of point-to-point sends of messages with `tag`.
    pub fn count(&self, tag: &str) -> u64 {
        self.per_tag.get(tag).map_or(0, |e| e.0)
    }

    /// Total bytes of messages with `tag`.
    pub fn bytes(&self, tag: &str) -> u64 {
        self.per_tag.get(tag).map_or(0, |e| e.1)
    }

    /// Total point-to-point sends across all tags.
    pub fn total_msgs(&self) -> u64 {
        self.per_tag.values().map(|e| e.0).sum()
    }

    /// Total bytes across all tags.
    pub fn total_bytes(&self) -> u64 {
        self.per_tag.values().map(|e| e.1).sum()
    }

    /// Iterates `(tag, count, bytes)` rows for reports.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.per_tag.iter().map(|(t, (c, b))| (*t, *c, *b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::{AppMsg, NetMsg};

    #[test]
    fn records_counts_and_bytes() {
        let mut s = NetStats::new();
        let m = NetMsg::App(AppMsg::from("abcd"));
        s.record_send(&m);
        s.record_send(&m);
        assert_eq!(s.count("app_msg"), 2);
        assert_eq!(s.bytes("app_msg"), 2 * m.wire_size() as u64);
        assert_eq!(s.total_msgs(), 2);
        assert_eq!(s.count("sync_msg"), 0);
    }

    #[test]
    fn rows_enumerate_tags() {
        let mut s = NetStats::new();
        s.record_send(&NetMsg::App(AppMsg::from("x")));
        let rows: Vec<_> = s.rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "app_msg");
    }

    #[test]
    fn per_tag_counts_and_bytes_are_independent() {
        let mut s = NetStats::new();
        let app = NetMsg::App(AppMsg::from("abcd"));
        let fwd = NetMsg::Fwd(vsgm_types::FwdPayload {
            origin: vsgm_types::ProcessId::new(1),
            view: vsgm_types::View::initial(vsgm_types::ProcessId::new(1)),
            index: 0,
            msg: AppMsg::from("zz"),
        });
        s.record_send(&app);
        s.record_send(&fwd);
        s.record_send(&fwd);
        assert_eq!(s.count("app_msg"), 1);
        assert_eq!(s.count("fwd_msg"), 2);
        assert_eq!(s.bytes("app_msg"), app.wire_size() as u64);
        assert_eq!(s.bytes("fwd_msg"), 2 * fwd.wire_size() as u64);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), (app.wire_size() + 2 * fwd.wire_size()) as u64);
    }

    #[test]
    fn dropped_and_delivered_are_separate_tallies() {
        let mut s = NetStats::new();
        s.record_send(&NetMsg::App(AppMsg::from("x")));
        s.dropped += 2;
        s.delivered += 1;
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 1);
        // Drops are not sends: the per-tag tally is unaffected.
        assert_eq!(s.total_msgs(), 1);
    }
}
