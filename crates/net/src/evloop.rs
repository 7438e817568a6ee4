//! The readiness-loop core of [`crate::TcpTransport`]: a small fixed
//! pool of loop threads owns *all* sockets, replacing the old
//! thread-per-connection reader and writer threads.
//!
//! Each loop thread repeatedly scans the connections it owns:
//!
//! * **inbound connections** are drained with non-blocking reads into a
//!   pooled, connection-local read buffer; complete frames are decoded
//!   *in place* by [`crate::codec::decode_body_routed`] (one payload
//!   copy, when the frame is handed over) and given to
//!   the transport's [`FrameHandler`] on the loop thread; malformed or
//!   oversized frames tear the connection down;
//! * **outbound connections** are written through their
//!   [`crate::writer::OutQueue`], which holds the socket: the loop drains
//!   the queue (heartbeat slot first) into a coalesce buffer and writes
//!   it with non-blocking writes under the queue's lock, keeping the
//!   unwritten tail there across rounds. A batch push that finds the
//!   connection idle writes under the same lock on its own thread, and
//!   leaves the loop only a tail to finish.
//!
//! Loop 0 also owns the transport's listening socket and accepts on it
//! like one more connection, handing each accepted socket to the pool
//! round-robin.
//!
//! When a scan makes no progress the loop parks in `epoll_wait`
//! ([`crate::sys::Poller`]) until a socket it owns becomes ready, a
//! sender wakes it through its eventfd ([`LoopWaker`]), or its earliest
//! deadline passes — a mid-read connection's idle eviction, a paused
//! listener's retry, or the shutdown grace. With no deadline it waits
//! without a timeout, so an idle transport costs no CPU. Scaling
//! property: the thread count is `loop_threads` regardless of connection
//! count — 4096 connections are multiplexed over the same pool that
//! served 4.
//!
//! The loop is also where the transport's resource-safety bugfixes
//! live:
//!
//! * a frame whose length prefix exceeds `max_frame_len` is rejected
//!   *before* any allocation and the connection is dropped
//!   ([`LoopCounters::oversize_rejected`]);
//! * a half-open peer that stalls mid-handshake or mid-frame is evicted
//!   after `read_idle_timeout` ([`LoopCounters::idle_evictions`])
//!   instead of pinning a blocked reader thread forever;
//! * an `accept` that fails for want of descriptors or memory (`EMFILE`,
//!   `ENFILE`, …) pauses accepting for [`ACCEPT_PAUSE`] and retries,
//!   where the old accept thread stopped accepting for good.

use crate::codec;
use crate::sys::{Events, Poller, READABLE, READABLE_EDGE, WRITABLE_EDGE};
use crate::tiered::{blocking, Tiered};
use crate::writer::{OutQueue, WriterStats};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsgm_types::{GroupId, NetMsg, ProcessId};

/// Reads one connection may issue per scan round, so a firehose peer
/// cannot starve its loop-mates.
const MAX_READS_PER_ROUND: usize = 8;
/// How long a shutting-down loop keeps trying to flush unwritten
/// outbound frames before declaring them dropped and exiting.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);
/// How long the listener stops accepting after an `accept` failed for
/// want of resources, before it tries again.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);
/// Readiness events one `epoll_wait` returns at most. The loop scans
/// every connection each round whatever epoll names, so this only
/// bounds how many edges one wait hands over; the rest wait their turn.
const EVENTS_PER_WAIT: usize = 64;
/// epoll tokens: which registration a readiness event is about.
const WAKE_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const CONN_TOKEN: u64 = 2;
/// Byte ceiling for one coalesced flush buffer (a single oversized
/// frame still flushes alone).
const MAX_FLUSH_BYTES: usize = 1 << 20;
/// Frame ceiling for one coalesced flush buffer.
const MAX_COALESCE_FRAMES: u64 = 256;
/// Size of each pooled per-connection read buffer. Read buffers grow
/// transiently for larger frames and are not retained once they have.
const POOL_BUF_BYTES: usize = 64 << 10;

/// Transport-level counters owned by the loop threads; mirrored into
/// `NetStats` / `vsgm-obs` by the transport.
#[derive(Debug, Default)]
pub(crate) struct LoopCounters {
    /// Zero-length liveness frames received from peers.
    pub heartbeats_heard: AtomicU64,
    /// Frames rejected because their length prefix exceeded
    /// `max_frame_len` (connection torn down, nothing allocated).
    pub oversize_rejected: AtomicU64,
    /// Connections evicted for stalling mid-handshake or mid-frame
    /// longer than `read_idle_timeout`.
    pub idle_evictions: AtomicU64,
    /// Connections the listener accepted.
    pub accepted: AtomicU64,
    /// Connections adopted by a loop (inbound + outbound).
    pub conns_opened: AtomicU64,
    /// Connections retired by a loop (any reason).
    pub conns_closed: AtomicU64,
}

impl LoopCounters {
    /// Connections currently owned by loop threads.
    pub(crate) fn conns_open(&self) -> u64 {
        self.conns_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }
}

/// What a loop does with each decoded frame: `(peer, group, msg)`, where
/// `group` is the id carried by a v2 group envelope, or `None` for a
/// legacy single-group frame. It runs on the loop thread, between two
/// socket reads, so it must not block.
pub type FrameHandler = Box<dyn Fn(ProcessId, Option<GroupId>, NetMsg) + Send + Sync>;

/// Everything a loop thread needs from the transport.
pub(crate) struct LoopCtx {
    /// Where decoded frames go ([`crate::TcpTransport::bind_with_handler`]).
    pub deliver: FrameHandler,
    /// Flush/coalesce/conservation accounting (shared with senders).
    pub stats: Arc<WriterStats>,
    /// Loop-side counters above.
    pub counters: Arc<LoopCounters>,
    /// Last time any frame arrived per peer (suspicion input). A leaf:
    /// taken by loop threads with nothing held.
    pub last_heard: Arc<Tiered<HashMap<ProcessId, Instant>, 5>>,
}

/// The transport-config slice the loops act on.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    /// Reject frames claiming more than this many bytes.
    pub max_frame_len: usize,
    /// Evict connections stalled mid-handshake/mid-frame this long
    /// (`Duration::ZERO` disables eviction).
    pub read_idle_timeout: Duration,
}

/// A connection handed to the pool.
pub(crate) enum Register {
    /// Accepted socket: handshake pending, read-only thereafter.
    Inbound(TcpStream),
    /// Dialed socket: write-only, fed by `queue`.
    Outbound {
        /// Bounded frame queue senders push into; it holds the
        /// non-blocking, handshook socket.
        queue: Arc<OutQueue>,
        /// Connection-death flag shared with `PeerWriter` handles.
        broken: Arc<AtomicBool>,
    },
}

struct LoopShared {
    /// Connections handed over and not yet taken in. Taken briefly by
    /// registering threads and the loop thread to swap the pending list;
    /// nothing else is taken under it.
    inbox: Tiered<Vec<Register>, 1>,
    /// Whether a wake-up is owed since the loop last cleared this flag:
    /// only the waker that turns it false → true writes the eventfd.
    pending: AtomicBool,
    /// The loop's epoll instance and the eventfd wakers write.
    poller: Poller,
    shutdown: AtomicBool,
}

/// Clone-cheap handle that wakes one loop thread out of its park.
#[derive(Clone)]
pub(crate) struct LoopWaker(Arc<LoopShared>);

impl LoopWaker {
    /// Call after publishing the work (queue push, inbox push, flag):
    /// the loop clears `pending` before it looks for work, so either it
    /// sees this work in its current round or this call writes the
    /// eventfd and its next wait returns at once.
    pub(crate) fn wake(&self) {
        if !self.0.pending.swap(true, Ordering::AcqRel) {
            self.0.poller.notify();
        }
    }
}

/// Every loop's shared half plus the round-robin cursor: what the pool
/// and loop 0's listener register connections through. Loop 0 holds
/// this, not the [`LoopPool`], so dropping the pool still stops it.
struct Loops {
    loops: Vec<Arc<LoopShared>>,
    next: AtomicUsize,
}

impl Loops {
    /// Hands a connection to the next loop (round-robin) and returns
    /// that loop's waker.
    fn register(&self, reg: Register) -> io::Result<LoopWaker> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.loops.len().max(1);
        let shared = self
            .loops
            .get(i)
            .ok_or_else(|| io::Error::other("transport has no event loop"))?;
        shared.inbox.lock().push(reg);
        let waker = LoopWaker(Arc::clone(shared));
        waker.wake();
        Ok(waker)
    }
}

/// The fixed pool of loop threads. Connections are assigned round-robin
/// at registration and never migrate. Dropping the pool shuts it down.
pub(crate) struct LoopPool(Arc<Loops>);

impl LoopPool {
    /// Spawns `threads` loop threads (at least one); loop 0 takes
    /// `listener` and accepts on it.
    pub(crate) fn spawn(
        threads: usize,
        listener: TcpListener,
        ctx: &Arc<LoopCtx>,
        cfg: &LoopConfig,
    ) -> io::Result<LoopPool> {
        let loops = (0..threads.max(1))
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    inbox: Tiered::new(Vec::new()),
                    pending: AtomicBool::new(false),
                    poller: Poller::new(WAKE_TOKEN)?,
                    shutdown: AtomicBool::new(false),
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let pool = LoopPool(Arc::new(Loops { loops, next: AtomicUsize::new(0) }));
        let mut acceptor = Some(Acceptor {
            listener,
            loops: Arc::clone(&pool.0),
            ready: true,
            paused_until: None,
        });
        // On an early return the dropped pool stops the loops spawned
        // so far.
        for shared in &pool.0.loops {
            let acceptor = acceptor.take();
            if let Some(a) = &acceptor {
                shared.poller.add(&a.listener, READABLE_EDGE, LISTENER_TOKEN)?;
            }
            let (shared, ctx, cfg) = (Arc::clone(shared), Arc::clone(ctx), cfg.clone());
            std::thread::Builder::new()
                .name("vsgm-net-loop".into())
                .spawn(move || loop_main(&shared, acceptor, &ctx, &cfg))?;
        }
        Ok(pool)
    }

    /// Number of loop threads in the pool.
    pub(crate) fn threads(&self) -> usize {
        self.0.loops.len()
    }

    /// Hands a connection to the next loop (round-robin) and returns
    /// that loop's waker.
    pub(crate) fn register(&self, reg: Register) -> io::Result<LoopWaker> {
        self.0.register(reg)
    }

    /// Tells every loop to flush what it can and exit.
    pub(crate) fn shutdown(&self) {
        for shared in &self.0.loops {
            shared.shutdown.store(true, Ordering::SeqCst);
            LoopWaker(Arc::clone(shared)).wake();
        }
    }
}

impl Drop for LoopPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The transport's listening socket, owned by loop 0. It is registered
/// edge-triggered: a listener whose `accept` keeps failing (`EMFILE`)
/// would report ready on every level-triggered wait and spin the loop
/// through its pause.
struct Acceptor {
    listener: TcpListener,
    /// Where accepted sockets go.
    loops: Arc<Loops>,
    /// An arrival was reported since `accept` last said `WouldBlock`.
    ready: bool,
    /// Set after an `accept` failed for want of resources: the
    /// connection stays in the backlog until this retry.
    paused_until: Option<Instant>,
}

impl Acceptor {
    /// Accepts every pending connection into the pool. Returns whether
    /// any was taken.
    fn accept_ready(&mut self, now: Instant, counters: &LoopCounters) -> bool {
        if self.paused_until.is_some_and(|t| now < t) {
            return false;
        }
        self.paused_until = None;
        let mut took = false;
        while self.ready {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    took = true;
                    counters.accepted.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nodelay(true).is_ok() && stream.set_nonblocking(true).is_ok() {
                        // A refused registration drops (closes) the socket.
                        let _ = self.loops.register(Register::Inbound(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.ready = false,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    // EMFILE, ENFILE, ENOBUFS, …: retry once resources
                    // may have come back.
                    self.paused_until = Some(now + ACCEPT_PAUSE);
                    break;
                }
            }
        }
        took
    }
}

// ----------------------------------------------------- the loop body ---

/// A tiny free-list of read buffers, loop-thread-local so it needs no
/// lock. Buffers that grew past the standard size (oversized frames) are
/// not retained.
#[derive(Default)]
struct BufPool {
    free: Vec<Vec<u8>>,
}

impl BufPool {
    /// A read buffer: [`POOL_BUF_BYTES`] addressable (zeroed-or-recycled)
    /// bytes.
    fn take_read(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.resize(POOL_BUF_BYTES, 0);
        buf
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if (POOL_BUF_BYTES..=POOL_BUF_BYTES * 2).contains(&buf.capacity()) && self.free.len() < 64 {
            self.free.push(buf);
        }
    }
}

enum Kind {
    /// 8-byte peer-id handshake incomplete.
    Handshake,
    /// Streaming frames from `peer`.
    Frames(ProcessId),
}

/// An accepted connection: read-only.
struct Inbound {
    stream: TcpStream,
    kind: Kind,
    /// Read buffer — `rbuf[rstart..rlen]` is unparsed.
    rbuf: Vec<u8>,
    rstart: usize,
    rlen: usize,
    last_rx: Instant,
}

/// A connection one loop owns.
enum Conn {
    In(Inbound),
    /// A dialed connection: write-only, its socket and write state in
    /// `queue`.
    Out { queue: Arc<OutQueue>, broken: Arc<AtomicBool> },
}

/// Why a connection was retired this round.
enum Retire {
    /// Peer closed, socket error, transport shutdown, or queue retired.
    Gone,
    /// Length prefix over `max_frame_len`, or an undecodable body.
    Poisoned,
    /// Stalled mid-handshake / mid-frame past `read_idle_timeout`.
    Idle,
}

impl Conn {
    /// Whether outbound work is still unwritten (shutdown flush check).
    fn has_unflushed(&self) -> bool {
        match self {
            Conn::Out { queue, .. } => !queue.is_drained(),
            Conn::In(_) => false,
        }
    }

    fn idle_deadline(&self, cfg: &LoopConfig) -> Option<Instant> {
        match self {
            Conn::In(c) => c.idle_deadline(cfg),
            Conn::Out { .. } => None,
        }
    }

    /// One scan round. `Err` means retire the connection.
    fn service(
        &mut self,
        now: Instant,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        progress: &mut bool,
    ) -> Result<(), Retire> {
        match self {
            Conn::In(c) => c.service(now, ctx, cfg, progress),
            Conn::Out { queue, broken } => {
                if broken.load(Ordering::Acquire) {
                    // A sender declared the queue stalled; retire and account.
                    return Err(Retire::Gone);
                }
                let moved = queue
                    .write_out(&ctx.stats, MAX_COALESCE_FRAMES, MAX_FLUSH_BYTES)
                    .map_err(|()| Retire::Gone)?;
                *progress |= moved;
                Ok(())
            }
        }
    }

    /// Retires the connection: accounts unwritten frames as dropped,
    /// poisons sender handles, closes the socket, recycles buffers.
    fn retire(self, ctx: &LoopCtx, pool: &mut BufPool) {
        match self {
            Conn::Out { queue, broken } => {
                broken.store(true, Ordering::Release);
                let dropped = queue.drain_remaining();
                if dropped > 0 {
                    ctx.stats.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
                }
            }
            Conn::In(c) => pool.put(c.rbuf),
        }
        ctx.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Inbound {
    fn new(stream: TcpStream, pool: &mut BufPool, now: Instant) -> Inbound {
        Inbound {
            stream,
            kind: Kind::Handshake,
            rbuf: pool.take_read(),
            rstart: 0,
            rlen: 0,
            last_rx: now,
        }
    }

    /// When a connection stalled mid-handshake or mid-frame gets evicted:
    /// such a peer holds a socket (and a buffer) hostage. Idle *between*
    /// frames is legal and has no deadline.
    fn idle_deadline(&self, cfg: &LoopConfig) -> Option<Instant> {
        let mid_read = matches!(self.kind, Kind::Handshake) || self.rlen > self.rstart;
        if !mid_read || cfg.read_idle_timeout.is_zero() {
            return None;
        }
        self.last_rx.checked_add(cfg.read_idle_timeout)
    }

    fn service(
        &mut self,
        now: Instant,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        progress: &mut bool,
    ) -> Result<(), Retire> {
        let mut heard = false;
        for _ in 0..MAX_READS_PER_ROUND {
            self.make_read_room(cfg)?;
            let Some(dst) = self.rbuf.get_mut(self.rlen..) else { break };
            if dst.is_empty() {
                break;
            }
            match self.stream.read(dst) {
                Ok(0) => {
                    // Peer closed; whatever parsed before this is final.
                    self.note_heard(ctx, heard, now);
                    return Err(Retire::Gone);
                }
                Ok(n) => {
                    self.rlen += n;
                    self.last_rx = now;
                    heard = true;
                    *progress = true;
                    self.parse_available(ctx, cfg)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.note_heard(ctx, heard, now);
                    return Err(Retire::Gone);
                }
            }
        }
        self.note_heard(ctx, heard, now);
        if self.idle_deadline(cfg).is_some_and(|at| now >= at) {
            return Err(Retire::Idle);
        }
        Ok(())
    }

    /// Records peer liveness once per scan round (not once per frame —
    /// the suspicion clock does not need sub-round resolution).
    fn note_heard(&self, ctx: &LoopCtx, heard: bool, now: Instant) {
        if heard {
            if let Kind::Frames(peer) = self.kind {
                ctx.last_heard.lock().insert(peer, now);
            }
        }
    }

    /// Guarantees the buffer has room to read more bytes, compacting
    /// parsed-off space first and growing only when one frame is larger
    /// than the standard buffer.
    fn make_read_room(&mut self, cfg: &LoopConfig) -> Result<(), Retire> {
        if self.rlen < self.rbuf.len() {
            return Ok(());
        }
        if self.rstart > 0 {
            self.rbuf.copy_within(self.rstart..self.rlen, 0);
            self.rlen -= self.rstart;
            self.rstart = 0;
            return Ok(());
        }
        // A single frame spans the whole buffer: grow (bounded — the
        // length prefix was already checked against max_frame_len).
        let grown = (self.rbuf.len().max(64) * 2).min(cfg.max_frame_len.saturating_add(8));
        if grown <= self.rbuf.len() {
            return Err(Retire::Poisoned);
        }
        self.rbuf.resize(grown, 0);
        Ok(())
    }

    /// Consumes every complete handshake/heartbeat/frame in the buffer.
    fn parse_available(&mut self, ctx: &LoopCtx, cfg: &LoopConfig) -> Result<(), Retire> {
        loop {
            let avail = self.rbuf.get(self.rstart..self.rlen).unwrap_or(&[]);
            match &self.kind {
                Kind::Handshake => {
                    let Some((id, _)) = avail.split_first_chunk::<8>() else {
                        return Ok(());
                    };
                    let peer = ProcessId::new(u64::from_le_bytes(*id));
                    self.rstart += 8;
                    self.kind = Kind::Frames(peer);
                    ctx.last_heard.lock().insert(peer, self.last_rx);
                }
                Kind::Frames(peer) => {
                    let peer = *peer;
                    let Some((len_bytes, rest)) = avail.split_first_chunk::<4>() else {
                        return Ok(());
                    };
                    let len = u32::from_le_bytes(*len_bytes) as usize;
                    if len == 0 {
                        // Heartbeat: pure liveness, no payload.
                        ctx.counters.heartbeats_heard.fetch_add(1, Ordering::Relaxed);
                        self.rstart += 4;
                        continue;
                    }
                    if len > cfg.max_frame_len {
                        // A hostile or corrupt length prefix must not
                        // trigger an unbounded allocation — and framing
                        // is lost anyway. Drop the connection.
                        ctx.counters.oversize_rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(Retire::Poisoned);
                    }
                    let Some(body) = rest.get(..len) else {
                        // Partial frame: wait for the rest.
                        return Ok(());
                    };
                    // Route by the optional v2 group envelope; payload
                    // slices borrow from `rbuf` until the one copy before
                    // the handler takes the frame.
                    let Some((group, msg)) = codec::decode_body_routed(body, false) else {
                        return Err(Retire::Poisoned);
                    };
                    self.rstart += 4 + len;
                    (ctx.deliver)(peer, group, msg);
                }
            }
        }
    }
}

fn loop_main(
    shared: &LoopShared,
    mut acceptor: Option<Acceptor>,
    ctx: &LoopCtx,
    cfg: &LoopConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pool = BufPool::default();
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut grace_until: Option<Instant> = None;
    loop {
        // Clear the wake-up flag before looking for work: a waker that
        // publishes after this line finds it false and writes the
        // eventfd, so the wait below cannot sleep through its work.
        shared.pending.swap(false, Ordering::AcqRel);
        let now = Instant::now();
        let mut progress = false;
        // Adopt newly registered connections.
        let fresh = std::mem::take(&mut *shared.inbox.lock());
        for reg in fresh {
            ctx.counters.conns_opened.fetch_add(1, Ordering::Relaxed);
            let (conn, watched) = match reg {
                Register::Inbound(stream) => {
                    let conn = Inbound::new(stream, &mut pool, now);
                    let watched = shared.poller.add(&conn.stream, READABLE, CONN_TOKEN);
                    (Conn::In(conn), watched)
                }
                Register::Outbound { queue, broken } => {
                    let watched = queue.watch(&shared.poller, WRITABLE_EDGE, CONN_TOKEN);
                    (Conn::Out { queue, broken }, watched)
                }
            };
            match watched {
                Ok(()) => conns.push(conn),
                // epoll is out of memory or watches: a socket the loop
                // cannot wait on is retired at once.
                Err(_) => conn.retire(ctx, &mut pool),
            }
            progress = true;
        }
        if let Some(acceptor) = acceptor.as_mut() {
            progress |= acceptor.accept_ready(now, &ctx.counters);
        }
        // Scan every connection, retiring the ones that are done for.
        let mut i = 0;
        while i < conns.len() {
            let verdict = conns
                .get_mut(i)
                .map(|c| c.service(now, ctx, cfg, &mut progress))
                .unwrap_or(Ok(()));
            match verdict {
                Ok(()) => i += 1,
                Err(kind) => {
                    if matches!(kind, Retire::Idle) {
                        ctx.counters.idle_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let gone = conns.swap_remove(i);
                    gone.retire(ctx, &mut pool);
                    progress = true;
                }
            }
        }
        // Shutdown: flush what the sockets will take, bounded by a
        // grace window, then account the rest as dropped and exit.
        if shared.shutdown.load(Ordering::SeqCst) {
            // Stop accepting (and free the port) at once.
            acceptor = None;
            let deadline = *grace_until.get_or_insert(now + SHUTDOWN_GRACE);
            let pending = conns.iter().any(Conn::has_unflushed);
            if !pending || now >= deadline {
                for gone in conns.drain(..) {
                    gone.retire(ctx, &mut pool);
                }
                return;
            }
        }
        if progress {
            continue;
        }
        // Nothing moved: park until a socket is ready, a waker writes
        // the eventfd, or the earliest deadline this loop has passes.
        let wake_at = conns
            .iter()
            .filter_map(|c| c.idle_deadline(cfg))
            .chain(grace_until)
            .chain(acceptor.as_ref().and_then(|a| a.paused_until))
            .min();
        let timeout = wake_at.map(|at| at.saturating_duration_since(now));
        blocking(|| shared.poller.wait(&mut events, timeout));
        for token in events.tokens() {
            match (token, acceptor.as_mut()) {
                (WAKE_TOKEN, _) => shared.poller.drain_notify(),
                (LISTENER_TOKEN, Some(acceptor)) => acceptor.ready = true,
                // Connections: the next round scans them all anyway.
                _ => {}
            }
        }
    }
}
