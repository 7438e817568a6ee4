//! An event-loop TCP transport: real sockets with the per-pair reliable
//! FIFO semantics `CO_RFIFO` requires.
//!
//! TCP already provides connection-oriented, gap-free, FIFO byte streams
//! per direction, which is exactly the channel model of Fig. 3 for peers
//! in the `reliable_set`. Frames are length-prefixed [`NetMsg`] bodies in
//! the one binary [`crate::codec`] wire format.
//! A connection carries frames both ways: dialed lazily on a first send
//! to a registered peer, it names its dialer in an 8-byte process-id
//! handshake, and the accepting side answers on it — a client that dials
//! a server needs no address of its own.
//!
//! All sockets — the listener and every connection — are
//! owned by a small fixed pool of epoll loop threads ([`crate::evloop`],
//! [`TcpConfig::loop_threads`]), replacing the old thread-per-connection
//! readers, per-peer writer threads and accept thread: the paper's
//! client-server architecture (§3) multiplexes many clients over one
//! server transport, and thread count must not scale with connection
//! count. The loops are the transport's only threads: they also send its
//! heartbeats. Inbound frames are decoded in place from each loop's one
//! read buffer by [`crate::codec::decode_body_routed`] (a connection
//! keeps only the bytes of an unfinished frame) and handed to a
//! [`FrameHandler`] on the loop thread (by default a queue for the
//! `recv_*` calls); outbound frames flow through
//! per-connection bounded queues ([`crate::writer`]):
//!
//! * **Serialized writes** — every byte written on a socket is written
//!   under its connection's queue lock, so concurrent senders and
//!   heartbeats can never tear a frame mid-stream. Per-frame sends
//!   enqueue complete frames and wake the loop that owns the
//!   connection, which writes them, and its heartbeats;
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
//! * **One record per peer** — everything the transport keeps of a peer
//!   is one `Peer` record: its installed connection, replaced only once
//!   broken, when it was last heard, and, once registered, its address
//!   and dial guard. First sends racing from multiple threads serialize
//!   on that guard, so exactly one socket (and one handshake) per
//!   destination is dialed.
//!
//! Robustness machinery (mostly configurable via [`TcpConfig`]):
//!
//! * **Reconnect with capped exponential backoff + jitter** — a failed
//!   connect is retried four times with delays `1 ms, 2 ms, …` (capped
//!   at 100 ms), each padded with deterministic jitter (a [`SimRng`]
//!   seeded per dial from both pids) so restarting peers are not
//!   stampeded in lock-step.
//!   Retries are surfaced in [`NetStats::retries`].
//! * **Heartbeats as a failure signal** — each event loop claims the
//!   *reserved* heartbeat slot on every connection it owns past its
//!   handshake each `heartbeat_interval` (never competing with data for
//!   queue space, so a backpressured queue cannot delay probes into
//!   false suspicion), so both ends of a connection probe; receivers
//!   treat the zero-length frame as pure liveness. A peer that was heard
//!   from but has been silent for longer than `suspect_after` shows up in
//!   [`TcpTransport::suspected_peers`] — the transport-level failure
//!   detector a membership service's suspicion input can be fed from.
//!   An unregistered peer is forgotten when its connection closes.
//! * **Resource-bounded reads** — a frame whose length prefix exceeds
//!   [`TcpConfig::max_frame_len`] tears the connection down before any
//!   allocation, and a peer stalled mid-handshake or mid-frame longer
//!   than [`TcpConfig::read_idle_timeout`] is evicted instead of pinning
//!   transport resources forever (the old blocking readers leaked a
//!   thread and socket per half-open peer).

use crate::codec;
pub use crate::evloop::FrameHandler;
use crate::evloop::{LoopConfig, LoopCtx, LoopPool, Peer, Peers};
use crate::stats::{Counters, NetStats};
use crate::sys;
use crate::tiered::{blocking_holding, Tiered};
use crate::writer::{PeerWriter, PushError};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
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
    me: ProcessId,
    local_addr: SocketAddr,
    /// The default handler's frames for `recv_*`, one consumer at a time.
    incoming: Tiered<Receiver<(ProcessId, Option<GroupId>, NetMsg)>, RECV_TIER>,
    config: TcpConfig,
    /// One record per peer that is registered or connected, shared with
    /// the loops; never held across a dial guard, a connect or a queue
    /// lock.
    peers: Arc<Peers>,
    /// The fixed pool of event-loop threads owning every socket.
    pool: LoopPool,
    /// Every counter of the transport, shared with its loops and writers.
    counters: Arc<Counters>,
}

/// Robustness knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Each event loop enqueues a zero-length heartbeat frame on every
    /// connection it owns past its handshake at this interval;
    /// `Duration::ZERO` disables them.
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

/// A failed connect is retried this many times before the send fails.
const MAX_RECONNECT_ATTEMPTS: u32 = 4;
/// First reconnect delay; doubled per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Ceiling for the reconnect delay.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Seed for the deterministic backoff jitter (up to half the delay),
/// mixed with both pids for each dial.
const JITTER_SEED: u64 = 0x7C9;

/// The tier of a peer's dial guard: the outermost lock, held across the
/// dial, the handshake write and the backoff sleeps between attempts.
const DIAL_TIER: u8 = 0;

/// Serializes the dials to one registered peer; kept in its [`Peer`].
pub(crate) type DialGuard = Tiered<(), DIAL_TIER>;

/// Why a thread dials, writes its handshake and sleeps out its backoff
/// holding the peer's dial guard.
const HELD_WHILE_DIALING: &str = "racing senders must wait for the one connection attempt to a \
    peer rather than dial it concurrently; the guard is per peer, so no other traffic waits";

/// The receive queue's tier: taken under nothing, held across one wait.
const RECV_TIER: u8 = 3;

/// The accept queue asked of a listener; the kernel caps it at
/// `net.core.somaxconn`. std's 128 makes a burst of dials past it wait
/// about a second for a SYN retransmit.
const LISTEN_BACKLOG: i32 = 4096;

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
        let (tx, rx) = channel();
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
        TcpTransport::start(me, addr, config, handler, channel().1)
    }

    /// The loops hand each frame to `deliver`; `recv_*` read `incoming`.
    fn start(
        me: ProcessId,
        addr: &str,
        config: TcpConfig,
        deliver: FrameHandler,
        incoming: Receiver<(ProcessId, Option<GroupId>, NetMsg)>,
    ) -> io::Result<TcpTransport> {
        let listener = sys::bind_listener(addr, LISTEN_BACKLOG)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let counters = Arc::new(Counters::default());
        let peers: Arc<Peers> = Arc::default();
        let ctx = Arc::new(LoopCtx {
            deliver,
            counters: Arc::clone(&counters),
            peers: Arc::clone(&peers),
        });
        let loop_cfg = LoopConfig {
            max_frame_len: config.max_frame_len,
            read_idle_timeout: config.read_idle_timeout,
            heartbeat_interval: config.heartbeat_interval,
            writer_queue: config.writer_queue,
        };
        let pool = LoopPool::spawn(config.loop_threads, listener, &ctx, &loop_cfg)?;
        let incoming = Tiered::new(incoming);
        Ok(TcpTransport { me, local_addr, incoming, config, peers, pool, counters })
    }

    /// This node's process identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The address peers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Records where `peer` can be reached; its record then outlives its
    /// connections. A new address keeps the peer's dial guard.
    pub fn register_peer(&self, peer: ProcessId, addr: SocketAddr) {
        let mut peers = self.peers.lock();
        let record = peers.entry(peer).or_default();
        let guard = record.dial.take().map_or_else(Arc::default, |(_, guard)| guard);
        record.dial = Some((addr, guard));
    }

    /// Peers that were heard from (any frame, heartbeats included) but
    /// have now been silent for longer than [`TcpConfig::suspect_after`]
    /// — the transport's peer-failure signal. Only peers with a record
    /// are listed ([`TcpTransport::peer_records`]).
    pub fn suspected_peers(&self) -> ProcSet {
        let now = Instant::now();
        let silent = |at: Instant| now.duration_since(at) > self.config.suspect_after;
        self.peers
            .lock()
            .iter()
            .filter(|(_, record)| record.heard.is_some_and(silent))
            .map(|(p, _)| *p)
            .collect()
    }

    /// How many peers the transport keeps a record of: every registered
    /// peer, and every other peer while a connection to it is open.
    pub fn peer_records(&self) -> usize {
        self.peers.lock().len()
    }

    /// Transport-level accounting: reconnect [`NetStats::retries`],
    /// heartbeat probes ([`NetStats::heartbeats`]), and the writer
    /// path's flush/coalesce/queue-depth counters. Per-tag traffic rows
    /// stay empty — message accounting happens in the layers above.
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot(self.pool.threads() as u64)
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
        self.counters.heartbeats_heard.load(Ordering::Relaxed)
    }

    /// Connections accepted by the listener. With race-free connection
    /// establishment this is exactly one per peer that ever dialed us,
    /// regardless of how many threads raced their first send.
    pub fn accepted_connections(&self) -> u64 {
        self.counters.accepted.load(Ordering::Relaxed)
    }

    /// The live connection installed for `peer`, if any.
    fn live_writer(&self, peer: ProcessId) -> Option<PeerWriter> {
        self.peers.lock().get(&peer)?.writer.clone().filter(|w| !w.is_broken())
    }

    /// Returns the live writer for `peer`: the installed connection, or
    /// one dialed with capped backoff if none is and `peer` is registered.
    /// The peer's dial guard serializes racing dials: the loser re-checks
    /// after the winner finishes and reuses its socket.
    fn writer_handle(&self, peer: ProcessId) -> io::Result<PeerWriter> {
        let (addr, guard) = match self.peers.lock().get(&peer) {
            Some(Peer { writer: Some(w), .. }) if !w.is_broken() => return Ok(w.clone()),
            Some(Peer { dial: Some((addr, guard)), .. }) => (*addr, Arc::clone(guard)),
            _ => {
                let missing = format!("no connection or address for {peer}");
                return Err(io::Error::new(io::ErrorKind::NotFound, missing));
            }
        };
        let _guard = guard.lock();
        // Re-check under the guard: a racing thread may have connected,
        // or the peer dialed us, while we waited.
        if let Some(w) = self.live_writer(peer) {
            return Ok(w);
        }
        // Capped exponential backoff with deterministic jitter. Attempt,
        // then sleep base·2^k (≤ cap) plus up to half that in jitter.
        let mut jitter = SimRng::new(JITTER_SEED ^ self.me.raw() ^ peer.raw());
        let mut delay = BACKOFF_BASE;
        let mut attempt = 0u32;
        loop {
            match self.try_connect(peer, addr) {
                Ok(w) => return Ok(w),
                Err(e) if attempt >= MAX_RECONNECT_ATTEMPTS => return Err(e),
                Err(_) => {
                    attempt += 1;
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let jitter_us = jitter.range(0, (delay.as_micros() as u64) / 2 + 1);
                    let pause = delay + Duration::from_micros(jitter_us);
                    blocking_holding::<DIAL_TIER, _>(HELD_WHILE_DIALING, || {
                        std::thread::sleep(pause)
                    });
                    delay = (delay * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    fn try_connect(&self, peer: ProcessId, addr: SocketAddr) -> io::Result<PeerWriter> {
        // Handshake: announce who we are. The connection has not been
        // handed to an event loop yet, so this (blocking) write cannot
        // interleave with frames.
        let stream = blocking_holding::<DIAL_TIER, _>(HELD_WHILE_DIALING, || {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&self.me.raw().to_le_bytes())?;
            io::Result::Ok(stream)
        })?;
        stream.set_nonblocking(true)?;
        let dialed = self.pool.register(stream, peer)?;
        // A connection the peer dialed may have been installed since the
        // re-check: it stays the writer, and this one stays open for the
        // peer to send on.
        Ok(self.peers.lock().entry(peer).or_default().writer_or(&dialed).clone())
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
            if to == self.me {
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
        for q in to.iter().filter(|q| **q != self.me) {
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
        let incoming = self.incoming.lock();
        let why = "the queue's one consumer waits at most its own timeout, under no other lock";
        blocking_holding::<RECV_TIER, _>(why, || incoming.recv_timeout(timeout)).ok()
    }

    /// Non-blocking variant of [`TcpTransport::recv_routed_timeout`].
    pub fn try_recv_routed(&self) -> Option<(ProcessId, Option<GroupId>, NetMsg)> {
        self.incoming.lock().try_recv().ok()
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
    /// success; on failure an I/O error, after declaring a stalled
    /// connection broken (which its loop then retires).
    fn settle(
        &self,
        peer: ProcessId,
        writer: &PeerWriter,
        outcome: Result<usize, PushError>,
    ) -> io::Result<()> {
        match outcome {
            Ok(depth) => {
                self.counters.queue_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
                if depth >= self.config.writer_queue / 2 {
                    self.counters.backpressure_hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(kind) => {
                if kind == PushError::Timeout {
                    writer.mark_broken();
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

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
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

    /// Every dial of a burst of 300 at a listener that accepts none of
    /// them connects within 300 ms: the accept queue holds them all,
    /// where std's 128 left the rest waiting about a second for a SYN
    /// retransmit.
    #[test]
    fn a_burst_of_dials_past_128_waits_in_the_accept_queue() {
        const DIALS: usize = 300;
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok());
        if somaxconn.is_some_and(|max| max < DIALS) {
            println!("skipped: net.core.somaxconn is {somaxconn:?}, below {DIALS}");
            return;
        }
        let listener = sys::bind_listener("127.0.0.1:0", LISTEN_BACKLOG).unwrap();
        let addr = listener.local_addr().unwrap();
        let dials: Vec<TcpStream> = (0..DIALS)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(300))
                    .unwrap_or_else(|e| panic!("dial {i} of {DIALS}: {e}"))
            })
            .collect();
        assert_eq!(dials.len(), DIALS);
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
        // the retries, each counted in the stats.
        let gone = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = gone.local_addr().unwrap();
        drop(gone);
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), addr);
        assert!(a.send(&only(2), &NetMsg::App(AppMsg::from("x"))).is_err());
        assert_eq!(a.stats().retries, u64::from(MAX_RECONNECT_ATTEMPTS));
        // The peer comes back on the same address: the next send
        // reconnects and delivers.
        let b = TcpTransport::bind(p(2), &addr.to_string()).unwrap();
        a.send(&only(2), &NetMsg::App(AppMsg::from("again"))).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("delivered after restart");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("again")));
        assert!(a.stats().retries >= u64::from(MAX_RECONNECT_ATTEMPTS));
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
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
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
        // Each side's loops probe on their own clock: wait for both.
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
        // The registered record outlives its retired connections, and it
        // is the one suspected.
        while a.stats().conns_open > 0 {
            assert!(Instant::now() < deadline, "connections to a dead peer never retired");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(a.peer_records(), 1);
    }

    #[test]
    fn registered_peers_have_records_before_any_connection() {
        let a = TcpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        for i in 2..5 {
            a.register_peer(p(i), a.local_addr());
        }
        assert_eq!(a.peer_records(), 3);
        assert_eq!(a.stats().conns_open, 0, "registering dials nothing");
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
        let (tx, rx) = channel();
        let b = TcpTransport::bind_with_handler(
            p(2),
            "127.0.0.1:0",
            TcpConfig::default(),
            Box::new(move |peer, group, msg| {
                let _ =
                    tx.send((peer, group, msg, std::thread::current().name().map(String::from)));
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
