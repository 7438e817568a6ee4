//! An event-loop TCP transport: real sockets with the per-pair reliable
//! FIFO semantics `CO_RFIFO` requires.
//!
//! TCP already provides connection-oriented, gap-free, FIFO byte streams
//! per direction, which is exactly the channel model of Fig. 3 for peers
//! in the `reliable_set`. Frames are length-prefixed [`NetMsg`] bodies in
//! the one binary [`crate::codec`] wire format.
//! Each direction of a pair uses its own connection, established lazily
//! on first send and identified by an 8-byte process-id handshake.
//!
//! All sockets — the listener, inbound and outbound connections — are
//! owned by a small fixed pool of epoll loop threads ([`crate::evloop`],
//! [`TcpConfig::loop_threads`]), replacing the old thread-per-connection
//! readers, per-peer writer threads and accept thread: the paper's
//! client-server architecture (§3) multiplexes many clients over one
//! server transport, and thread count must not scale with connection
//! count. Besides the loops, a transport runs one heartbeat thread when
//! heartbeats are on. Inbound frames are decoded in place from pooled
//! read buffers by [`crate::codec::decode_body_routed`] and handed to a
//! [`FrameHandler`] on the loop thread (by default a queue for the
//! `recv_*` calls); outbound frames flow through
//! per-connection bounded queues ([`crate::writer`]):
//!
//! * **Serialized writes** — every byte on an outbound socket is written
//!   under its connection's queue lock, so concurrent senders and
//!   heartbeats can never tear a frame mid-stream. Per-frame sends and
//!   the heartbeat prober enqueue complete frames and wake the loop
//!   that owns the connection, which writes them;
//!   [`TcpTransport::send_batch`] writes a peer's whole batch itself,
//!   on the caller's thread, when it finds the connection idle, and
//!   leaves the loop only what the socket did not take.
//! * **Coalesced flushes** — the loop drains every frame already
//!   queued into one buffered socket write, so a burst of N multicasts
//!   costs one syscall instead of N (at most 256 frames and 1 MiB per
//!   flush); a batch send costs one write per peer, however many frames it
//!   carries.
//! * **Independent fan-out** — [`TcpTransport::send`] attempts *every*
//!   destination, drops only the connections that actually failed, and
//!   returns one aggregated error; a single broken peer no longer censors
//!   the rest of the `ProcSet`, matching the paper's model of independent
//!   per-pair channels.
//! * **Single connection per peer** — first sends racing from multiple
//!   threads serialize on a per-peer connect guard, so exactly one
//!   socket (and one handshake) per destination survives.
//!
//! Robustness machinery (configurable via [`TcpConfig`]):
//!
//! * **Reconnect with capped exponential backoff + jitter** — a failed
//!   connect is retried with delays `base, 2·base, …` capped at
//!   `backoff_cap`, each padded with deterministic jitter (seeded
//!   [`SimRng`]) so restarting peers are not stampeded in lock-step.
//!   Retries are surfaced in [`NetStats::retries`].
//! * **Heartbeats as a failure signal** — a liveness probe claims the
//!   *reserved* heartbeat slot on every outgoing connection each
//!   `heartbeat_interval` (never competing with data for queue space, so
//!   a backpressured queue cannot delay probes into false suspicion);
//!   receivers treat the zero-length frame as pure liveness. A peer that
//!   was heard from but has been silent for longer than `suspect_after`
//!   shows up in [`TcpTransport::suspected_peers`] — the transport-level
//!   failure detector a membership service's suspicion input can be fed
//!   from.
//! * **Resource-bounded reads** — a frame whose length prefix exceeds
//!   [`TcpConfig::max_frame_len`] tears the connection down before any
//!   allocation, and a peer stalled mid-handshake or mid-frame longer
//!   than [`TcpConfig::read_idle_timeout`] is evicted instead of pinning
//!   transport resources forever (the old blocking readers leaked a
//!   thread and socket per half-open peer).

use crate::codec;
pub use crate::evloop::FrameHandler;
use crate::evloop::{LoopConfig, LoopCounters, LoopCtx, LoopPool, Register};
use crate::stats::NetStats;
use crate::tiered::{blocking, blocking_holding, Tiered};
use crate::writer::{OutQueue, PeerWriter, PushError, WriterStats};
use crossbeam::channel::{unbounded, Receiver};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsgm_ioa::SimRng;
use vsgm_types::{GroupId, NetMsg, ProcSet, ProcessId};

/// The real `CO_RFIFO` transport: point-to-point messages between GCS
/// end-points over TCP, FIFO per ordered pair of connected peers.
///
/// ```no_run
/// use vsgm_net::TcpTransport;
/// use vsgm_types::{ProcessId, NetMsg, AppMsg};
///
/// # fn main() -> std::io::Result<()> {
/// let a = TcpTransport::bind(ProcessId::new(1), "127.0.0.1:0")?;
/// let b = TcpTransport::bind(ProcessId::new(2), "127.0.0.1:0")?;
/// a.register_peer(ProcessId::new(2), b.local_addr());
/// a.send(&[ProcessId::new(2)].into_iter().collect(), &NetMsg::App(AppMsg::from("hi")))?;
/// # Ok(())
/// # }
/// ```
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    local_addr: SocketAddr,
    incoming: Receiver<(ProcessId, Option<GroupId>, NetMsg)>,
    config: TcpConfig,
    /// Backoff jitter. Taken under a per-peer connect guard during
    /// backoff; never held while taking any other lock.
    jitter: Tiered<SimRng, 4>,
}

/// Robustness knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Failed connects are retried this many times before giving up.
    pub max_reconnect_attempts: u32,
    /// First reconnect delay; doubled per attempt (capped exponential).
    pub backoff_base: Duration,
    /// Ceiling for the reconnect delay.
    pub backoff_cap: Duration,
    /// Zero-length heartbeat frames are enqueued on every outgoing
    /// connection at this interval; `Duration::ZERO` disables them.
    pub heartbeat_interval: Duration,
    /// A peer heard from before but silent for longer than this is
    /// reported by [`TcpTransport::suspected_peers`].
    pub suspect_after: Duration,
    /// Per-connection bounded queue capacity, in frames. An enqueue that
    /// finds the queue at half this depth or more counts as a
    /// backpressure hit ([`NetStats::backpressure_hits`]): the bounded
    /// queue plus the blocking `enqueue_timeout` are the actual
    /// backpressure mechanism, and the half-way mark makes the pressure
    /// *observable* before the hard limit stalls senders.
    pub writer_queue: usize,
    /// How long a sender waits for space on a full per-connection queue
    /// before declaring the peer stalled and dropping the connection.
    pub enqueue_timeout: Duration,
    /// Event-loop threads owning all of the transport's sockets. Thread
    /// count stays constant in the connection count — raise this for
    /// servers multiplexing thousands of clients, not per connection.
    pub loop_threads: usize,
    /// Reject inbound frames claiming more than this many bytes: a
    /// corrupted or malicious length prefix must not trigger an
    /// unbounded allocation. Violations tear the connection down and
    /// count in [`NetStats::oversize_rejected`].
    pub max_frame_len: usize,
    /// Evict a connection stalled *mid-handshake or mid-frame* for
    /// longer than this (idle between complete frames is legal and
    /// never evicted). `Duration::ZERO` disables eviction. Evictions
    /// count in [`NetStats::idle_evictions`].
    pub read_idle_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_reconnect_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            heartbeat_interval: Duration::from_millis(200),
            suspect_after: Duration::from_secs(1),
            writer_queue: 1024,
            enqueue_timeout: Duration::from_secs(2),
            loop_threads: 2,
            max_frame_len: 1 << 26, // 64 MiB
            read_idle_timeout: Duration::from_secs(30),
        }
    }
}

/// The tier of a per-peer connect guard: the outermost lock, held across
/// the dial, the handshake write and the backoff sleeps between attempts.
const CONNECT_TIER: u8 = 0;

/// Serializes connection establishment to one peer.
type ConnectGuard = Tiered<(), CONNECT_TIER>;

/// Why a thread dials, writes its handshake and sleeps out its backoff
/// holding the peer's connect guard.
const HELD_WHILE_DIALING: &str = "racing senders must wait for the one connection attempt to a \
    peer rather than dial it concurrently; the guard is per peer, so no other traffic waits";

/// State shared with the heartbeat thread and the event loops.
struct TcpShared {
    me: ProcessId,
    /// Where each peer listens. Taken under a per-peer connect guard (and
    /// on registration with nothing held); released before connecting.
    addr_book: Tiered<HashMap<ProcessId, SocketAddr>, 3>,
    /// Each peer's live connection. Taken bare on the fast path and
    /// re-checked under a per-peer connect guard; never held across a
    /// connect, nor while taking a connection's queue lock.
    outgoing: Tiered<HashMap<ProcessId, PeerWriter>, 2>,
    /// Per-peer guards serializing connection establishment: the loser of
    /// a racing first send waits here and reuses the winner's socket. The
    /// map lock is only held to clone out the per-peer `Arc`; the
    /// per-peer guards inside outrank every other lock.
    connect_locks: Tiered<HashMap<ProcessId, Arc<ConnectGuard>>, 1>,
    /// Last time any frame (handshake, data, heartbeat) arrived per peer
    /// — shared with the event loops through [`LoopCtx`]. A leaf: touched
    /// by loop and heartbeat threads with nothing else held.
    last_heard: Arc<Tiered<HashMap<ProcessId, Instant>, 5>>,
    /// The fixed pool of event-loop threads owning every socket.
    pool: LoopPool,
    /// Loop-side counters (accepts, heartbeats heard, rejects, evictions,
    /// conns).
    counters: Arc<LoopCounters>,
    writer_stats: Arc<WriterStats>,
    retries: AtomicU64,
    heartbeats_sent: AtomicU64,
    shutdown: AtomicBool,
}

impl TcpTransport {
    /// Binds a listener and starts the event loops, with default
    /// [`TcpConfig`].
    ///
    /// # Errors
    ///
    /// As for [`TcpTransport::bind_with`].
    pub fn bind(me: ProcessId, addr: &str) -> io::Result<TcpTransport> {
        TcpTransport::bind_with(me, addr, TcpConfig::default())
    }

    /// Binds a listener with explicit robustness knobs; the first event
    /// loop accepts on it. Received frames queue for the `recv_*` calls.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener, creating the loops'
    /// epoll instances or spawning the transport's threads.
    pub fn bind_with(me: ProcessId, addr: &str, config: TcpConfig) -> io::Result<TcpTransport> {
        let (tx, rx) = unbounded();
        // The send fails only once the transport, receiver and all, is gone.
        let queue: FrameHandler = Box::new(move |p, g, m| {
            let _ = tx.send((p, g, m));
        });
        TcpTransport::start(me, addr, config, queue, rx)
    }

    /// As [`TcpTransport::bind_with`], but each received frame goes to
    /// `handler` on the loop that decoded it — one connection's frames in
    /// arrival order, other connections' possibly at once — and `recv_*`
    /// return `None` at once. The handler must not block: it holds up its
    /// loop, and a send waiting for room in a queue that loop drains
    /// never returns.
    ///
    /// # Errors
    ///
    /// As for [`TcpTransport::bind_with`].
    pub fn bind_with_handler(
        me: ProcessId,
        addr: &str,
        config: TcpConfig,
        handler: FrameHandler,
    ) -> io::Result<TcpTransport> {
        // A receiver whose sender is already gone: nothing ever arrives.
        TcpTransport::start(me, addr, config, handler, unbounded().1)
    }

    /// The loops hand each frame to `deliver`; `recv_*` read `incoming`.
    fn start(
        me: ProcessId,
        addr: &str,
        config: TcpConfig,
        deliver: FrameHandler,
        incoming: Receiver<(ProcessId, Option<GroupId>, NetMsg)>,
    ) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let writer_stats = Arc::new(WriterStats::default());
        let counters = Arc::new(LoopCounters::default());
        let last_heard = Arc::new(Tiered::new(HashMap::new()));
        let ctx = Arc::new(LoopCtx {
            deliver,
            stats: Arc::clone(&writer_stats),
            counters: Arc::clone(&counters),
            last_heard: Arc::clone(&last_heard),
        });
        let loop_cfg = LoopConfig {
            max_frame_len: config.max_frame_len,
            read_idle_timeout: config.read_idle_timeout,
        };
        let pool = LoopPool::spawn(config.loop_threads, listener, &ctx, &loop_cfg)?;
        let shared = Arc::new(TcpShared {
            me,
            addr_book: Tiered::new(HashMap::new()),
            outgoing: Tiered::new(HashMap::new()),
            connect_locks: Tiered::new(HashMap::new()),
            last_heard,
            pool,
            counters,
            writer_stats,
            retries: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        if config.heartbeat_interval > Duration::ZERO {
            // On failure the dropped pool stops the loops.
            spawn_heartbeat_loop(Arc::clone(&shared), config.heartbeat_interval)?;
        }
        // Seed for the deterministic backoff jitter (up to half the delay).
        const JITTER_SEED: u64 = 0x7C9;
        let jitter = Tiered::new(SimRng::new(JITTER_SEED ^ me.raw()));
        Ok(TcpTransport { shared, local_addr, incoming, config, jitter })
    }

    /// This node's process identity.
    pub fn me(&self) -> ProcessId {
        self.shared.me
    }

    /// The address peers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Records where `peer` can be reached.
    pub fn register_peer(&self, peer: ProcessId, addr: SocketAddr) {
        self.shared.addr_book.lock().insert(peer, addr);
    }

    /// Peers that were heard from (any frame, heartbeats included) but
    /// have now been silent for longer than [`TcpConfig::suspect_after`]
    /// — the transport's peer-failure signal.
    pub fn suspected_peers(&self) -> ProcSet {
        let now = Instant::now();
        self.shared
            .last_heard
            .lock()
            .iter()
            .filter(|(_, at)| now.duration_since(**at) > self.config.suspect_after)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Transport-level accounting: reconnect [`NetStats::retries`],
    /// heartbeat frames sent ([`NetStats::heartbeats`]), and the writer
    /// path's flush/coalesce/queue-depth counters. Per-tag traffic rows
    /// stay empty — message accounting happens in the layers above.
    pub fn stats(&self) -> NetStats {
        let ws = &self.shared.writer_stats;
        let lc = &self.shared.counters;
        let mut s = NetStats::new();
        s.retries = self.shared.retries.load(Ordering::Relaxed);
        s.heartbeats = self.shared.heartbeats_sent.load(Ordering::Relaxed);
        s.flushes = ws.flushes.load(Ordering::Relaxed);
        s.frames_flushed = ws.frames_flushed.load(Ordering::Relaxed);
        s.coalesce_max = ws.coalesce_max.load(Ordering::Relaxed);
        s.queue_depth_max = ws.queue_depth_max.load(Ordering::Relaxed);
        s.backpressure_hits = ws.backpressure_hits.load(Ordering::Relaxed);
        s.frames_enqueued = ws.frames_enqueued.load(Ordering::Relaxed);
        s.frames_dropped = ws.frames_dropped.load(Ordering::Relaxed);
        s.oversize_rejected = lc.oversize_rejected.load(Ordering::Relaxed);
        s.idle_evictions = lc.idle_evictions.load(Ordering::Relaxed);
        s.conns_open = lc.conns_open();
        s.loop_threads = self.shared.pool.threads() as u64;
        s
    }

    /// Mirrors the transport counters into an observability recorder
    /// (one-shot export: counters are *added*, so call once per recorder,
    /// e.g. when capturing a snapshot).
    pub fn export_obs(&self, rec: &mut dyn vsgm_obs::Recorder) {
        use vsgm_obs::names;
        let s = self.stats();
        rec.counter(names::NET_FLUSHES, s.flushes);
        rec.counter(names::NET_FRAMES_FLUSHED, s.frames_flushed);
        rec.gauge(names::NET_COALESCE_MAX, s.coalesce_max);
        rec.gauge(names::NET_QUEUE_DEPTH_MAX, s.queue_depth_max);
        rec.counter(names::NET_BACKPRESSURE, s.backpressure_hits);
        rec.counter(names::NET_FRAMES_ENQUEUED, s.frames_enqueued);
        rec.counter(names::NET_FRAMES_DROPPED, s.frames_dropped);
        rec.counter(names::NET_OVERSIZE_REJECTED, s.oversize_rejected);
        rec.counter(names::NET_IDLE_EVICTIONS, s.idle_evictions);
        rec.gauge(names::NET_CONNS_OPEN, s.conns_open);
        rec.gauge(names::NET_LOOP_THREADS, s.loop_threads);
    }

    /// Heartbeat frames received from peers (liveness evidence).
    pub fn heartbeats_received(&self) -> u64 {
        self.shared.counters.heartbeats_heard.load(Ordering::Relaxed)
    }

    /// Inbound connections accepted by the listener. With race-free
    /// connection establishment this is exactly one per peer that ever
    /// sent to us, regardless of how many threads raced their first send.
    pub fn accepted_connections(&self) -> u64 {
        self.shared.counters.accepted.load(Ordering::Relaxed)
    }

    /// Returns a live writer handle for `peer`, connecting (with capped
    /// backoff) if none exists. A per-peer guard serializes racing
    /// connection attempts: the loser re-checks the map after the winner
    /// finishes and reuses its socket, so exactly one connection per peer
    /// survives.
    fn writer_handle(&self, peer: ProcessId) -> io::Result<PeerWriter> {
        if let Some(w) = self.shared.outgoing.lock().get(&peer) {
            if !w.is_broken() {
                return Ok(w.clone());
            }
        }
        let connect_lock =
            Arc::clone(self.shared.connect_locks.lock().entry(peer).or_default());
        let _guard = connect_lock.lock();
        // Re-check under the guard: a racing thread may have connected
        // while we waited.
        {
            let mut out = self.shared.outgoing.lock();
            match out.get(&peer) {
                Some(w) if !w.is_broken() => return Ok(w.clone()),
                Some(_) => {
                    out.remove(&peer);
                }
                None => {}
            }
        }
        let addr = self.shared.addr_book.lock().get(&peer).copied().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no address registered for {peer}"))
        })?;
        // Capped exponential backoff with deterministic jitter: attempt,
        // then sleep base·2^k (≤ cap) plus up to half that in jitter.
        let mut delay = self.config.backoff_base;
        let mut attempt = 0u32;
        loop {
            match self.try_connect(peer, addr) {
                Ok(w) => return Ok(w),
                Err(e) if attempt >= self.config.max_reconnect_attempts => return Err(e),
                Err(_) => {
                    attempt += 1;
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    let jitter_us =
                        self.jitter.lock().range(0, (delay.as_micros() as u64) / 2 + 1);
                    let pause = delay + Duration::from_micros(jitter_us);
                    blocking_holding::<CONNECT_TIER, _>(HELD_WHILE_DIALING, || {
                        std::thread::sleep(pause)
                    });
                    delay = (delay * 2).min(self.config.backoff_cap);
                }
            }
        }
    }

    fn try_connect(&self, peer: ProcessId, addr: SocketAddr) -> io::Result<PeerWriter> {
        // Handshake: announce who we are. The connection has not been
        // handed to an event loop yet, so this (blocking) write cannot
        // interleave with frames.
        let stream = blocking_holding::<CONNECT_TIER, _>(HELD_WHILE_DIALING, || {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&self.shared.me.raw().to_le_bytes())?;
            io::Result::Ok(stream)
        })?;
        stream.set_nonblocking(true)?;
        let queue = Arc::new(OutQueue::new(self.config.writer_queue, Some(stream)));
        let broken = Arc::new(AtomicBool::new(false));
        let waker = self.shared.pool.register(Register::Outbound {
            queue: Arc::clone(&queue),
            broken: Arc::clone(&broken),
        })?;
        let writer =
            PeerWriter::new(queue, broken, waker, Arc::clone(&self.shared.writer_stats));
        self.shared.outgoing.lock().insert(peer, writer.clone());
        Ok(writer)
    }

    /// Sends `msg` to every process in `to` (self is skipped).
    ///
    /// # Errors
    ///
    /// Every destination is attempted; if any fail, an aggregated error
    /// naming the failed peers is returned (with the [`io::ErrorKind`] of
    /// the first failure). Peers that did not fail have been sent to.
    pub fn send(&self, to: &ProcSet, msg: &NetMsg) -> io::Result<()> {
        self.fan_out(to, &codec::encode_frame(msg))
    }

    /// Sends `msg` to every process in `to` wrapped in the v2 group
    /// envelope for `group`, so a multi-group server routes it to the
    /// right instance. Same fan-out/error semantics as
    /// [`TcpTransport::send`].
    ///
    /// # Errors
    ///
    /// As for [`TcpTransport::send`]: every destination is attempted and
    /// failures are aggregated into one error.
    pub fn send_to_group(&self, group: GroupId, to: &ProcSet, msg: &NetMsg) -> io::Result<()> {
        let mut frame = Vec::new();
        codec::append_frame_grouped(&mut frame, group, msg);
        self.fan_out(to, &frame)
    }

    /// Sends a batch of `(group, to, msg)` frames, each in its group's
    /// envelope. Every destination's frames are encoded, in batch order,
    /// into one buffer that goes to its connection in one push: written
    /// at once on this thread if the connection is idle (nothing queued,
    /// nothing unwritten, no heartbeat pending), else queued as one
    /// chunk for its event loop. Frames to this process are skipped.
    ///
    /// Returns how many frames could not be queued: their destination
    /// has no address, cannot be reached, or its connection is down or
    /// stalled (such a connection is dropped, as [`TcpTransport::send`]
    /// drops it). The others are on their way.
    pub fn send_batch(&self, batch: &[(GroupId, ProcessId, NetMsg)]) -> u64 {
        let mut by_peer: Vec<&(GroupId, ProcessId, NetMsg)> = batch.iter().collect();
        // Stable: each destination's frames keep their batch order.
        by_peer.sort_by_key(|(_, to, _)| *to);
        let mut buf = Vec::new();
        let mut unsent = 0u64;
        for run in by_peer.chunk_by(|a, b| a.1 == b.1) {
            let Some(&&(_, to, _)) = run.first() else { continue };
            if to == self.shared.me {
                continue;
            }
            buf.clear();
            for (group, _, msg) in run {
                codec::append_frame_grouped(&mut buf, *group, msg);
            }
            let frames = run.len() as u64;
            let pushed = self.writer_handle(to).and_then(|writer| {
                let outcome = writer.push_batch(&buf, frames, self.config.enqueue_timeout);
                self.settle(to, &writer, outcome)
            });
            if pushed.is_err() {
                unsent += frames;
            }
        }
        unsent
    }

    /// Enqueues `frame` to every process in `to` but this one, and
    /// aggregates the failures.
    fn fan_out(&self, to: &ProcSet, frame: &[u8]) -> io::Result<()> {
        let mut attempted = 0usize;
        let mut failed: Vec<(ProcessId, io::Error)> = Vec::new();
        for q in to.iter().filter(|q| **q != self.shared.me) {
            attempted += 1;
            if let Err(e) = self.enqueue(*q, frame) {
                failed.push((*q, e));
            }
        }
        aggregate_send_errors(attempted, failed)
    }

    /// Receives the next incoming message with its routing group:
    /// `Some(gid)` for frames that arrived in a v2 group envelope, `None`
    /// for legacy single-group frames. Multi-group servers consume this;
    /// single-group callers use [`TcpTransport::recv_timeout`], which
    /// strips the group.
    pub fn recv_routed_timeout(
        &self,
        timeout: Duration,
    ) -> Option<(ProcessId, Option<GroupId>, NetMsg)> {
        blocking(|| self.incoming.recv_timeout(timeout)).ok()
    }

    /// Non-blocking variant of [`TcpTransport::recv_routed_timeout`].
    pub fn try_recv_routed(&self) -> Option<(ProcessId, Option<GroupId>, NetMsg)> {
        self.incoming.try_recv().ok()
    }

    /// Receives the next incoming message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ProcessId, NetMsg)> {
        self.recv_routed_timeout(timeout).map(|(p, _group, m)| (p, m))
    }

    /// Receives the next incoming message if one is already queued.
    pub fn try_recv(&self) -> Option<(ProcessId, NetMsg)> {
        self.try_recv_routed().map(|(p, _group, m)| (p, m))
    }

    /// Enqueues an encoded frame to one peer, translating queue outcomes
    /// into I/O errors and evicting the connection it observed broken.
    fn enqueue(&self, peer: ProcessId, frame: &[u8]) -> io::Result<()> {
        let writer = self.writer_handle(peer)?;
        let outcome = writer.push(frame.to_vec(), self.config.enqueue_timeout);
        self.settle(peer, &writer, outcome)
    }

    /// Accounts one push to `peer` through `writer`: its depth on
    /// success; on failure, the eviction of the connection it found
    /// broken, as an I/O error.
    fn settle(
        &self,
        peer: ProcessId,
        writer: &PeerWriter,
        outcome: Result<usize, PushError>,
    ) -> io::Result<()> {
        match outcome {
            Ok(depth) => {
                self.shared
                    .writer_stats
                    .queue_depth_max
                    .fetch_max(depth as u64, Ordering::Relaxed);
                if depth >= self.config.writer_queue / 2 {
                    self.shared
                        .writer_stats
                        .backpressure_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(kind) => {
                if kind == PushError::Timeout {
                    writer.mark_broken();
                }
                // Evict exactly the writer we saw fail — never a fresh
                // reconnection another thread raced in underneath us.
                let mut out = self.shared.outgoing.lock();
                if out.get(&peer).is_some_and(|w| w.same_as(writer)) {
                    out.remove(&peer);
                }
                Err(match kind {
                    PushError::Closed => io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("connection to {peer} is down"),
                    ),
                    PushError::Timeout => io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("write queue to {peer} stalled"),
                    ),
                })
            }
        }
    }
}

/// Folds per-peer failures into one error: the kind of the first failure,
/// a message naming every failed peer, and the reach count. A fully
/// successful fan-out is `Ok`.
fn aggregate_send_errors(
    attempted: usize,
    mut failed: Vec<(ProcessId, io::Error)>,
) -> io::Result<()> {
    let Some((_, first)) = failed.first() else { return Ok(()) };
    if failed.len() == 1 && attempted == 1 {
        // Single-destination sends keep their original error untouched.
        let Some((_, e)) = failed.pop() else { return Ok(()) };
        return Err(e);
    }
    let kind = first.kind();
    let detail: Vec<String> = failed.iter().map(|(p, e)| format!("{p}: {e}")).collect();
    Err(io::Error::new(
        kind,
        format!(
            "multicast reached {}/{attempted} peers; failed [{}]",
            attempted - failed.len(),
            detail.join("; ")
        ),
    ))
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Close every writer queue (queued frames still flush) once out of
        // the map, whose tier is above a queue's, then tell the loops to
        // finish flushing within their grace window and exit.
        let writers: Vec<PeerWriter> =
            self.shared.outgoing.lock().drain().map(|(_, w)| w).collect();
        for w in writers {
            w.close();
        }
        self.shared.pool.shutdown();
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.shared.me)
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

/// Periodically claims the *reserved* heartbeat slot on every outgoing
/// connection. The probe never competes with data for queue space, so a
/// queue sitting at its backpressure watermark cannot delay liveness
/// probes past `heartbeat_interval` (the false-suspicion bug). A
/// connection whose queue has died is torn down here, so the next send
/// reconnects with backoff — dead peers are detected even when the
/// application has nothing to say.
fn spawn_heartbeat_loop(shared: Arc<TcpShared>, interval: Duration) -> io::Result<()> {
    std::thread::Builder::new()
        .name("vsgm-tcp-heartbeat".into())
        .spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                blocking(|| std::thread::sleep(interval));
                let conns: Vec<(ProcessId, PeerWriter)> = shared
                    .outgoing
                    .lock()
                    .iter()
                    .map(|(p, w)| (*p, w.clone()))
                    .collect();
                for (peer, writer) in conns {
                    if writer.push_heartbeat() {
                        shared.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let mut out = shared.outgoing.lock();
                        if out.get(&peer).is_some_and(|w| w.same_as(&writer)) {
                            out.remove(&peer);
                        }
                    }
                }
            }
        })
        .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::AppMsg;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn pair() -> (TcpTransport, TcpTransport) {
        pair_with(TcpConfig::default())
    }

    fn pair_with(config: TcpConfig) -> (TcpTransport, TcpTransport) {
        let a = TcpTransport::bind_with(p(1), "127.0.0.1:0", config.clone()).unwrap();
        let b = TcpTransport::bind_with(p(2), "127.0.0.1:0", config).unwrap();
        a.register_peer(p(2), b.local_addr());
        b.register_peer(p(1), a.local_addr());
        (a, b)
    }

    fn only(to: u64) -> ProcSet {
        [p(to)].into_iter().collect()
    }

    #[test]
    fn send_and_receive() {
        let (a, b) = pair();
        a.send(&only(2), &NetMsg::App(AppMsg::from("hello"))).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("message arrives");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("hello")));
    }

    #[test]
    fn fifo_order_per_peer() {
        let (a, b) = pair();
        for i in 0..100 {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("m{i}").as_str()))).unwrap();
        }
        for i in 0..100 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).expect("message arrives");
            assert_eq!(msg, NetMsg::App(AppMsg::from(format!("m{i}").as_str())));
        }
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = pair();
        a.send(&only(2), &NetMsg::App(AppMsg::from("ping"))).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg, NetMsg::App(AppMsg::from("ping")));
        b.send(&only(1), &NetMsg::App(AppMsg::from("pong"))).unwrap();
        let (from, msg) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, p(2));
        assert_eq!(msg, NetMsg::App(AppMsg::from("pong")));
    }

    #[test]
    fn self_send_is_skipped() {
        let (a, _b) = pair();
        a.send(&only(1), &NetMsg::App(AppMsg::from("self"))).unwrap();
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn unknown_peer_errors() {
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let err = a.send(&only(9), &NetMsg::App(AppMsg::from("x"))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn large_message_roundtrip() {
        let (a, b) = pair();
        let payload = AppMsg::from(vec![7u8; 1 << 20]);
        a.send(&only(2), &NetMsg::App(payload.clone())).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(10)).expect("large frame arrives");
        assert_eq!(msg, NetMsg::App(payload));
    }

    #[test]
    fn burst_coalesces_into_fewer_flushes() {
        let (a, b) = pair();
        const BURST: usize = 200;
        for i in 0..BURST {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("c{i}").as_str()))).unwrap();
        }
        for _ in 0..BURST {
            b.recv_timeout(Duration::from_secs(5)).expect("burst message arrives");
        }
        let s = a.stats();
        assert!(s.frames_flushed >= BURST as u64, "{s:?}");
        assert!(
            s.flushes < s.frames_flushed,
            "burst never coalesced: {} flushes for {} frames",
            s.flushes,
            s.frames_flushed
        );
        assert!(s.coalesce_max >= 2, "{s:?}");
        assert!(s.queue_depth_max >= 1, "{s:?}");
    }

    #[test]
    fn watermark_counts_backpressure_hits() {
        // A queue of 2 puts the watermark at 1: every successful enqueue
        // observes depth >= 1, so each send registers a hit; the default
        // watermark (512 of 1024) leaves light traffic unpressured.
        let (a, b) = pair_with(TcpConfig { writer_queue: 2, ..TcpConfig::default() });
        const N: usize = 8;
        for i in 0..N {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("w{i}").as_str()))).unwrap();
        }
        for _ in 0..N {
            b.recv_timeout(Duration::from_secs(5)).expect("message arrives");
        }
        let s = a.stats();
        assert!(s.backpressure_hits >= N as u64, "{s:?}");
        // Exported counters round-trip through a registry.
        let mut reg = vsgm_obs::Registry::new();
        a.export_obs(&mut reg);
        assert_eq!(reg.counter(vsgm_obs::names::NET_BACKPRESSURE), s.backpressure_hits);
        // An idle receiver with the default watermark sees no pressure.
        assert_eq!(b.stats().backpressure_hits, 0, "{:?}", b.stats());
    }

    #[test]
    fn reconnect_backoff_counts_retries_then_recovers() {
        // Point a at a listener that has gone away: the send fails after
        // the configured retries, each counted in the stats.
        let gone = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = gone.local_addr().unwrap();
        drop(gone);
        let a = TcpTransport::bind_with(
            p(1),
            "127.0.0.1:0",
            TcpConfig {
                max_reconnect_attempts: 3,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                ..TcpConfig::default()
            },
        )
        .unwrap();
        a.register_peer(p(2), addr);
        assert!(a.send(&only(2), &NetMsg::App(AppMsg::from("x"))).is_err());
        assert_eq!(a.stats().retries, 3);
        // The peer comes back on the same address: the next send
        // reconnects and delivers.
        let b = TcpTransport::bind(p(2), &addr.to_string()).unwrap();
        a.send(&only(2), &NetMsg::App(AppMsg::from("again"))).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("delivered after restart");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("again")));
        assert!(a.stats().retries >= 3);
    }

    #[test]
    fn multicast_attempts_all_peers_despite_one_dead() {
        // p2's address is dead (listener bound then dropped); p3 is live.
        // The multicast must still reach p3 and return an aggregated
        // error naming p2. (Pre-writer-rebuild, the fan-out aborted on
        // the first broken peer and p3 was silently skipped.)
        let gone = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = gone.local_addr().unwrap();
        drop(gone);
        let a = TcpTransport::bind_with(
            p(1),
            "127.0.0.1:0",
            TcpConfig {
                max_reconnect_attempts: 1,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..TcpConfig::default()
            },
        )
        .unwrap();
        let c = TcpTransport::bind(p(3), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), dead_addr);
        a.register_peer(p(3), c.local_addr());
        let to: ProcSet = [p(2), p(3)].into_iter().collect();
        let err = a.send(&to, &NetMsg::App(AppMsg::from("fan-out"))).unwrap_err();
        assert!(err.to_string().contains("p2"), "aggregated error names the dead peer: {err}");
        assert!(err.to_string().contains("1/2"), "aggregated error counts reach: {err}");
        let (from, msg) = c.recv_timeout(Duration::from_secs(5)).expect("live peer still served");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("fan-out")));
    }

    #[test]
    fn heartbeats_flow_and_silent_peers_are_suspected() {
        let fast = TcpConfig {
            heartbeat_interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(120),
            ..TcpConfig::default()
        };
        let a = TcpTransport::bind_with(p(1), "127.0.0.1:0", fast.clone()).unwrap();
        let b = TcpTransport::bind_with(p(2), "127.0.0.1:0", fast).unwrap();
        a.register_peer(p(2), b.local_addr());
        b.register_peer(p(1), a.local_addr());
        // Establish both directions so heartbeats flow both ways.
        a.send(&only(2), &NetMsg::App(AppMsg::from("hi"))).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        b.send(&only(1), &NetMsg::App(AppMsg::from("yo"))).unwrap();
        a.recv_timeout(Duration::from_secs(5)).unwrap();
        // Heartbeats keep the peer un-suspected while it lives.
        // Each side's prober runs on its own clock: wait for both.
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.heartbeats_received() == 0 || a.stats().heartbeats == 0 {
            assert!(Instant::now() < deadline, "heartbeats never flowed both ways");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(a.suspected_peers().is_empty(), "live peer suspected");
        // Kill b: its heartbeats stop, and silence crosses suspect_after.
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !a.suspected_peers().contains(&p(2)) {
            assert!(Instant::now() < deadline, "dead peer never suspected");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn try_recv_nonblocking() {
        let (a, b) = pair();
        assert!(b.try_recv().is_none());
        a.send(&only(2), &NetMsg::App(AppMsg::from("x"))).unwrap();
        // Poll until the reader thread pushes it through.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some((_, msg)) = b.try_recv() {
                assert_eq!(msg, NetMsg::App(AppMsg::from("x")));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "message never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn grouped_send_routes_and_plain_recv_strips_the_group() {
        let (a, b) = pair();
        let g = GroupId::new(42);
        a.send_to_group(g, &only(2), &NetMsg::App(AppMsg::from("grouped"))).unwrap();
        a.send(&only(2), &NetMsg::App(AppMsg::from("legacy"))).unwrap();
        // Routed recv sees the envelope's group on the first frame and
        // None on the legacy frame; FIFO order per peer is preserved
        // across grouped and legacy frames on one connection.
        let (from, group, msg) =
            b.recv_routed_timeout(Duration::from_secs(5)).expect("grouped frame arrives");
        assert_eq!((from, group, msg), (p(1), Some(g), NetMsg::App(AppMsg::from("grouped"))));
        let (from, group, msg) =
            b.recv_routed_timeout(Duration::from_secs(5)).expect("legacy frame arrives");
        assert_eq!((from, group, msg), (p(1), None, NetMsg::App(AppMsg::from("legacy"))));
        // The single-group recv just strips the group.
        a.send_to_group(g, &only(2), &NetMsg::App(AppMsg::from("stripped"))).unwrap();
        let (_, msg) = b.recv_timeout(Duration::from_secs(5)).expect("message arrives");
        assert_eq!(msg, NetMsg::App(AppMsg::from("stripped")));
    }

    #[test]
    fn a_frame_handler_takes_every_frame_in_order_and_recv_finds_none() {
        let (tx, rx) = unbounded();
        let b = TcpTransport::bind_with_handler(
            p(2),
            "127.0.0.1:0",
            TcpConfig::default(),
            Box::new(move |peer, group, msg| {
                let _ = tx.send((peer, group, msg, std::thread::current().name().map(String::from)));
            }),
        )
        .unwrap();
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), b.local_addr());
        let g = GroupId::new(3);
        a.send_to_group(g, &only(2), &NetMsg::App(AppMsg::from("first"))).unwrap();
        a.send(&only(2), &NetMsg::App(AppMsg::from("second"))).unwrap();
        let got: Vec<_> =
            (0..2).map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("handled")).collect();
        let loop_thread = Some("vsgm-net-loop".to_string());
        assert_eq!(
            got,
            [
                (p(1), Some(g), NetMsg::App(AppMsg::from("first")), loop_thread.clone()),
                (p(1), None, NetMsg::App(AppMsg::from("second")), loop_thread),
            ]
        );
        let t0 = Instant::now();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_none());
        assert!(b.try_recv_routed().is_none());
        assert!(t0.elapsed() < Duration::from_secs(1), "recv on a handler transport waited");
    }

    #[test]
    fn aggregate_error_preserves_single_destination_kind() {
        let nf = io::Error::new(io::ErrorKind::NotFound, "no address");
        let err = aggregate_send_errors(1, vec![(p(9), nf)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(err.to_string(), "no address");
        let bp = io::Error::new(io::ErrorKind::BrokenPipe, "down");
        let to = io::Error::new(io::ErrorKind::TimedOut, "stall");
        let err = aggregate_send_errors(3, vec![(p(2), bp), (p(4), to)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let text = err.to_string();
        assert!(text.contains("1/3") && text.contains("p2") && text.contains("p4"), "{text}");
        assert!(aggregate_send_errors(5, vec![]).is_ok());
    }
}
