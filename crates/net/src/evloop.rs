//! The readiness-loop core of [`crate::TcpTransport`]: a small fixed
//! pool of loop threads owns *all* sockets, replacing the old
//! thread-per-connection reader and writer threads.
//!
//! Each loop thread repeatedly scans the connections it owns. Every
//! connection, dialed or accepted, carries frames both ways:
//!
//! * it is drained with non-blocking reads into the loop's one read
//!   buffer; complete frames are decoded *in place* by
//!   [`crate::codec::decode_body_routed`] (one payload copy, when the
//!   frame is handed over) and given to the transport's [`FrameHandler`]
//!   on the loop thread. A connection keeps only the bytes of an
//!   unfinished frame; malformed or oversized frames tear it down;
//! * it is written through its [`crate::writer::OutQueue`], which shares
//!   its socket: the loop drains the queue (heartbeat slot first) into a
//!   coalesce buffer and writes it with non-blocking writes under the
//!   queue's lock, keeping the unwritten tail there across rounds. A
//!   batch push that finds the connection idle writes under the same lock
//!   on its own thread, and leaves the loop only a tail to finish.
//!
//! A connection that hears its peer — an accepted one at its handshake
//! — becomes the peer's writer if no live one is installed, and leaves
//! that place when it retires ([`Peer`]).
//!
//! Loop 0 also owns the transport's listening socket and accepts on it
//! like one more connection, handing each accepted socket to the pool
//! round-robin.
//!
//! The loops are the transport's only threads, so its periodic work is
//! theirs too: a loop probes each connection it owns past its handshake
//! once per `heartbeat_interval`, claiming the queue's reserved heartbeat
//! slot ([`crate::writer::OutQueue::push_heartbeat`]) for the scan to
//! write. Both ends probe, so heartbeats flow both ways.
//!
//! When a scan makes no progress the loop parks in `epoll_wait`
//! ([`crate::sys::Poller`]) until a socket it owns becomes ready, a
//! sender wakes it through its eventfd ([`LoopWaker`]), or its earliest
//! deadline passes — the next probe, a mid-read connection's idle
//! eviction, a paused listener's retry, or the shutdown grace. With no
//! deadline it waits without a timeout, so an idle transport with
//! heartbeats off costs no CPU. Scaling property: the thread count is
//! `loop_threads` regardless of connection count — 4096 connections are
//! multiplexed over the same pool that served 4.
//!
//! The loop is also where the transport's resource-safety bugfixes
//! live:
//!
//! * a frame whose length prefix exceeds `max_frame_len` is rejected
//!   *before* any allocation and the connection is dropped
//!   ([`Counters::oversize_rejected`]);
//! * a half-open peer that stalls mid-handshake or mid-frame is evicted
//!   after `read_idle_timeout` ([`Counters::idle_evictions`])
//!   instead of pinning a blocked reader thread forever;
//! * an `accept` that fails for want of descriptors or memory (`EMFILE`,
//!   `ENFILE`, …) pauses accepting for [`ACCEPT_PAUSE`] and retries,
//!   where the old accept thread stopped accepting for good.

use crate::codec;
use crate::stats::Counters;
use crate::sys::{Events, Poller, READABLE_EDGE, WRITABLE_EDGE};
use crate::tcp::DialGuard;
use crate::tiered::{blocking, Tiered};
use crate::writer::{OutQueue, PeerWriter};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
/// The loop's read buffer starts this large, doubles each time one read
/// fills it, and stops at [`READ_BUF_MAX`].
const READ_BUF_MIN: usize = 4 << 10;
const READ_BUF_MAX: usize = 64 << 10;
/// An emptied tail with more capacity than this (a big frame's) goes.
const TAIL_KEEP: usize = 4 << 10;

/// What a loop does with each decoded frame: `(peer, group, msg)`, where
/// `group` is the id carried by a v2 group envelope, or `None` for a
/// legacy single-group frame. It runs on the loop thread, between two
/// socket reads, so it must not block.
pub type FrameHandler = Box<dyn Fn(ProcessId, Option<GroupId>, NetMsg) + Send + Sync>;

/// What the transport knows of one peer.
#[derive(Default)]
pub(crate) struct Peer {
    /// The connection sends to the peer go out on. It changes only when
    /// none is installed or it is broken, so one direction's frames
    /// never split across two live sockets (per-pair FIFO).
    pub writer: Option<PeerWriter>,
    /// When any frame (handshake, data, heartbeat) last arrived.
    pub heard: Option<Instant>,
    /// Where a registered peer listens, and the guard its dials take:
    /// the loser of a racing first send waits there and reuses the
    /// winner's socket. A peer that was never registered has none.
    pub dial: Option<(SocketAddr, Arc<DialGuard>)>,
}

impl Peer {
    /// The live writer, after installing `conn` if none is installed or
    /// the installed one is broken.
    pub(crate) fn writer_or(&mut self, conn: &PeerWriter) -> &PeerWriter {
        self.writer.take_if(|w| w.is_broken());
        self.writer.get_or_insert_with(|| conn.clone())
    }
}

/// One record per peer, taken with nothing held but a dial guard.
pub(crate) type Peers = Tiered<HashMap<ProcessId, Peer>, 2>;

/// Everything a loop thread needs from the transport.
pub(crate) struct LoopCtx {
    /// Where decoded frames go ([`crate::TcpTransport::bind_with_handler`]).
    pub deliver: FrameHandler,
    /// The transport's counters (shared with senders).
    pub counters: Arc<Counters>,
    /// The transport's peer records, which connections enter as they
    /// hear and leave as they retire.
    pub peers: Arc<Peers>,
}

impl LoopCtx {
    /// Records that `peer` was heard at `now` on the connection `conn`
    /// writes to, and installs `conn` as its writer if no live one is.
    fn heard(&self, peer: ProcessId, now: Instant, conn: &PeerWriter) {
        let mut peers = self.peers.lock();
        let record = peers.entry(peer).or_default();
        record.heard = Some(now);
        record.writer_or(conn);
    }

    /// Takes the retired connection `conn` off `peer`'s record, and the
    /// record off the map if that leaves it no writer and no address.
    fn forget(&self, peer: ProcessId, conn: &PeerWriter) {
        let mut peers = self.peers.lock();
        let Some(record) = peers.get_mut(&peer) else { return };
        record.writer.take_if(|w| w.same_as(conn));
        if record.writer.is_none() && record.dial.is_none() {
            peers.remove(&peer);
        }
    }
}

/// The transport-config slice the loops act on.
#[derive(Debug, Clone)]
pub(crate) struct LoopConfig {
    /// Reject frames claiming more than this many bytes.
    pub max_frame_len: usize,
    /// Evict connections stalled mid-handshake/mid-frame this long
    /// (`Duration::ZERO` disables eviction).
    pub read_idle_timeout: Duration,
    /// Probe each connection this often (`Duration::ZERO` disables
    /// probes).
    pub heartbeat_interval: Duration,
    /// Each connection's queue capacity, in frames.
    pub writer_queue: usize,
}

/// A connection handed to a loop, and the peer it was dialed to (`None`:
/// accepted, and named by its handshake).
struct Register {
    stream: Arc<TcpStream>,
    queue: Arc<OutQueue>,
    dialed: Option<ProcessId>,
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
    writer_queue: usize,
    counters: Arc<Counters>,
}

impl Loops {
    /// Hands a connection to the next loop (round-robin) and returns its
    /// write side.
    fn register(&self, stream: TcpStream, dialed: Option<ProcessId>) -> io::Result<PeerWriter> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.loops.len().max(1);
        let shared =
            self.loops.get(i).ok_or_else(|| io::Error::other("transport has no event loop"))?;
        let stream = Arc::new(stream);
        let queue = Arc::new(OutQueue::new(self.writer_queue, Some(Arc::clone(&stream))));
        shared.inbox.lock().push(Register { stream, queue: Arc::clone(&queue), dialed });
        let waker = LoopWaker(Arc::clone(shared));
        waker.wake();
        Ok(PeerWriter::new(queue, waker, Arc::clone(&self.counters)))
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
        let pool = LoopPool(Arc::new(Loops {
            loops,
            next: AtomicUsize::new(0),
            writer_queue: cfg.writer_queue,
            counters: Arc::clone(&ctx.counters),
        }));
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
            let (waker, ctx, cfg) = (LoopWaker(Arc::clone(shared)), Arc::clone(ctx), cfg.clone());
            std::thread::Builder::new()
                .name("vsgm-net-loop".into())
                .spawn(move || loop_main(&waker, acceptor, &ctx, &cfg))?;
        }
        Ok(pool)
    }

    /// Number of loop threads in the pool.
    pub(crate) fn threads(&self) -> usize {
        self.0.loops.len()
    }

    /// Hands a dialed, handshook connection to `peer` to the next loop
    /// (round-robin) and returns its write side.
    pub(crate) fn register(&self, stream: TcpStream, peer: ProcessId) -> io::Result<PeerWriter> {
        self.0.register(stream, Some(peer))
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
    fn accept_ready(&mut self, now: Instant, counters: &Counters) -> bool {
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
                        let _ = self.loops.register(stream, None);
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

enum Kind {
    /// 8-byte peer-id handshake incomplete.
    Handshake,
    /// Streaming frames from `peer`.
    Frames(ProcessId),
}

/// Where an inbound byte stream stands: past the handshake or not, and
/// the bytes of an unfinished handshake or frame.
struct Reader {
    kind: Kind,
    /// Grows only with bytes received, never with a claimed length.
    tail: Vec<u8>,
}

/// A connection one loop owns: it reads its peer's frames and writes
/// the frames queued for the peer.
struct Conn {
    /// The socket, shared with the queue, which writes it under its lock.
    stream: Arc<TcpStream>,
    reader: Reader,
    last_rx: Instant,
    /// The write side, as senders hold it once it is its peer's writer.
    writer: PeerWriter,
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
    /// When a connection stalled mid-handshake or mid-frame gets evicted:
    /// such a peer holds a socket (and its tail) hostage. Idle *between*
    /// frames is legal and has no deadline.
    fn idle_deadline(&self, cfg: &LoopConfig) -> Option<Instant> {
        let mid_read = matches!(self.reader.kind, Kind::Handshake) || !self.reader.tail.is_empty();
        if !mid_read || cfg.read_idle_timeout.is_zero() {
            return None;
        }
        self.last_rx.checked_add(cfg.read_idle_timeout)
    }

    /// One scan round: reads into the loop's buffer `rbuf`, then writes
    /// what is queued. `Err` means retire the connection.
    fn service(
        &mut self,
        now: Instant,
        rbuf: &mut Vec<u8>,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        progress: &mut bool,
    ) -> Result<(), Retire> {
        if self.writer.is_broken() {
            // A sender declared the queue stalled; retire and account.
            return Err(Retire::Gone);
        }
        let (mut heard, mut gone) = (false, false);
        for _ in 0..MAX_READS_PER_ROUND {
            match self.stream.as_ref().read(rbuf) {
                Ok(n) if n > 0 => {
                    (self.last_rx, heard, *progress) = (now, true, true);
                    let writer = &self.writer;
                    let shook = |peer| ctx.heard(peer, now, writer);
                    self.reader.take(rbuf.get(..n).unwrap_or_default(), ctx, cfg, &shook)?;
                    if n == rbuf.len() && n < READ_BUF_MAX {
                        rbuf.resize(n * 2, 0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Closed by the peer, or a socket error: what parsed
                // before this is final.
                _ => {
                    gone = true;
                    break;
                }
            }
        }
        // Liveness once per round, not per frame: the suspicion clock
        // needs no finer grain.
        if let (true, Kind::Frames(peer)) = (heard, &self.reader.kind) {
            ctx.heard(*peer, now, &self.writer);
        }
        if gone {
            return Err(Retire::Gone);
        }
        if self.idle_deadline(cfg).is_some_and(|at| now >= at) {
            return Err(Retire::Idle);
        }
        *progress |= (self.writer.queue)
            .write_out(&ctx.counters, MAX_COALESCE_FRAMES, MAX_FLUSH_BYTES)
            .map_err(|()| Retire::Gone)?;
        Ok(())
    }

    /// Retires the connection: accounts unwritten frames as dropped,
    /// poisons sender handles, closes the socket, and takes it off its
    /// peer's record.
    fn retire(self, ctx: &LoopCtx) {
        let dropped = self.writer.queue.drain_remaining();
        if dropped > 0 {
            ctx.counters.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        if let Kind::Frames(peer) = self.reader.kind {
            ctx.forget(peer, &self.writer);
        }
        ctx.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Reader {
    /// Takes one read's `bytes`: tops the tail up to the end of its unit
    /// and consumes it, consumes every complete unit that follows in
    /// place, and keeps what is left as the new tail. A completed
    /// handshake goes to `shook` before any frame after it is delivered.
    fn take(
        &mut self,
        mut bytes: &[u8],
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        shook: &dyn Fn(ProcessId),
    ) -> Result<(), Retire> {
        while !self.tail.is_empty() && !bytes.is_empty() {
            // The tail's unit is 8 handshake bytes, or a 4-byte prefix
            // whose length is checked the moment the prefix is whole.
            let unit = match (&self.kind, self.tail.first_chunk::<4>()) {
                (Kind::Handshake, _) => 8,
                (Kind::Frames(_), None) => 4,
                (Kind::Frames(_), Some(len)) => 4 + u32::from_le_bytes(*len) as usize,
            };
            let want = unit.saturating_sub(self.tail.len());
            let (head, rest) = bytes.split_at_checked(want).unwrap_or((bytes, &[]));
            self.tail.extend_from_slice(head);
            bytes = rest;
            // Topped up to its unit's end at most, the tail is consumed
            // whole or not at all.
            if parse(&mut self.kind, &self.tail, ctx, cfg, shook)? > 0 {
                self.tail.clear();
                if self.tail.capacity() > TAIL_KEEP {
                    self.tail = Vec::new();
                }
            }
        }
        let used = parse(&mut self.kind, bytes, ctx, cfg, shook)?;
        self.tail.extend_from_slice(bytes.get(used..).unwrap_or_default());
        Ok(())
    }
}

/// Consumes every complete handshake/heartbeat/frame at the front of
/// `bytes` and returns how many bytes they took; a handshake names its
/// peer to `shook`.
fn parse(
    kind: &mut Kind,
    bytes: &[u8],
    ctx: &LoopCtx,
    cfg: &LoopConfig,
    shook: &dyn Fn(ProcessId),
) -> Result<usize, Retire> {
    let mut used = 0;
    loop {
        let avail = bytes.get(used..).unwrap_or_default();
        match kind {
            Kind::Handshake => {
                let Some((id, _)) = avail.split_first_chunk::<8>() else {
                    return Ok(used);
                };
                let peer = ProcessId::new(u64::from_le_bytes(*id));
                used += 8;
                *kind = Kind::Frames(peer);
                shook(peer);
            }
            Kind::Frames(peer) => {
                let Some((len_bytes, rest)) = avail.split_first_chunk::<4>() else {
                    return Ok(used);
                };
                let len = u32::from_le_bytes(*len_bytes) as usize;
                if len == 0 {
                    // Heartbeat: pure liveness, no payload.
                    ctx.counters.heartbeats_heard.fetch_add(1, Ordering::Relaxed);
                    used += 4;
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
                    return Ok(used);
                };
                // Route by the optional v2 group envelope; payload slices
                // borrow from `bytes` until the one copy before the
                // handler takes the frame.
                let Some((group, msg)) = codec::decode_body_routed(body, false) else {
                    return Err(Retire::Poisoned);
                };
                used += 4 + len;
                (ctx.deliver)(*peer, group, msg);
            }
        }
    }
}

/// The loop `waker` wakes: it owns the connections it adopts, and the
/// listener if it has `acceptor`.
fn loop_main(waker: &LoopWaker, mut acceptor: Option<Acceptor>, ctx: &LoopCtx, cfg: &LoopConfig) {
    let shared = &waker.0;
    let mut conns: Vec<Conn> = Vec::new();
    let mut rbuf = vec![0; READ_BUF_MIN];
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut grace_until: Option<Instant> = None;
    // The next liveness probe: armed while this loop owns a connection
    // and heartbeats are on.
    let mut probe_at: Option<Instant> = None;
    loop {
        // Clear the wake-up flag before looking for work: a waker that
        // publishes after this line finds it false and writes the
        // eventfd, so the wait below cannot sleep through its work.
        shared.pending.swap(false, Ordering::AcqRel);
        let now = Instant::now();
        let mut progress = false;
        // Adopt newly registered connections.
        let fresh = std::mem::take(&mut *shared.inbox.lock());
        for Register { stream, queue, dialed } in fresh {
            ctx.counters.conns_opened.fetch_add(1, Ordering::Relaxed);
            let conn = Conn {
                reader: Reader {
                    kind: dialed.map_or(Kind::Handshake, Kind::Frames),
                    tail: Vec::new(),
                },
                last_rx: now,
                writer: PeerWriter::new(queue, waker.clone(), Arc::clone(&ctx.counters)),
                stream,
            };
            // Edge-triggered both ways: a round that read anything
            // rescans before parking, so no byte waits on a level.
            match shared.poller.add(conn.stream.as_ref(), READABLE_EDGE | WRITABLE_EDGE, CONN_TOKEN)
            {
                Ok(()) => conns.push(conn),
                // epoll is out of memory or watches: a socket the loop
                // cannot wait on is retired at once.
                Err(_) => conn.retire(ctx),
            }
            progress = true;
        }
        if let Some(acceptor) = acceptor.as_mut() {
            progress |= acceptor.accept_ready(now, &ctx.counters);
        }
        // Probe: claim the heartbeat slot of every connection past its
        // handshake, which the scan below writes out ahead of queued data.
        probe_at = match probe_at {
            _ if conns.is_empty() || cfg.heartbeat_interval.is_zero() => None,
            Some(at) if now >= at => {
                for c in conns.iter().filter(|c| matches!(c.reader.kind, Kind::Frames(_))) {
                    c.writer.queue.push_heartbeat(&ctx.counters);
                }
                Some(now + cfg.heartbeat_interval)
            }
            Some(at) => Some(at),
            None => Some(now + cfg.heartbeat_interval),
        };
        // Scan every connection, retiring the ones that are done for.
        let mut i = 0;
        while i < conns.len() {
            let Some(conn) = conns.get_mut(i) else { break };
            match conn.service(now, &mut rbuf, ctx, cfg, &mut progress) {
                Ok(()) => i += 1,
                Err(kind) => {
                    if matches!(kind, Retire::Idle) {
                        ctx.counters.idle_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let gone = conns.swap_remove(i);
                    gone.retire(ctx);
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
            let pending = conns.iter().any(|c| !c.writer.queue.is_drained());
            if !pending || now >= deadline {
                for gone in conns.drain(..) {
                    gone.retire(ctx);
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
            .chain(probe_at)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use vsgm_types::AppMsg;

    type Got = Arc<Mutex<Vec<(ProcessId, Option<GroupId>, NetMsg)>>>;

    /// A loop context whose handler records every frame it is given.
    fn recording_ctx() -> (LoopCtx, Got) {
        let got: Got = Arc::default();
        let sink = Arc::clone(&got);
        let deliver: FrameHandler =
            Box::new(move |peer, group, msg| sink.lock().unwrap().push((peer, group, msg)));
        let ctx = LoopCtx { deliver, counters: Arc::default(), peers: Arc::default() };
        (ctx, got)
    }

    fn config(max_frame_len: usize) -> LoopConfig {
        LoopConfig {
            max_frame_len,
            read_idle_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
            writer_queue: 1,
        }
    }

    fn reader() -> Reader {
        Reader { kind: Kind::Handshake, tail: Vec::new() }
    }

    /// Feeds `reads` to a fresh reader, one `take` each, and returns the
    /// frames it delivered and the heartbeats it heard. The stream's
    /// handshake is announced once.
    fn feed<'a>(
        reads: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<(ProcessId, Option<GroupId>, NetMsg)>, u64) {
        let (ctx, got) = recording_ctx();
        let cfg = config(1 << 26);
        let mut r = reader();
        let shaken = std::cell::Cell::new(0);
        for bytes in reads {
            assert!(r.take(bytes, &ctx, &cfg, &|_| shaken.set(shaken.get() + 1)).is_ok());
        }
        assert_eq!(shaken.get(), 1, "the handshake is announced once");
        assert!(r.tail.is_empty(), "a whole stream leaves no tail");
        assert!(r.tail.capacity() <= TAIL_KEEP, "an emptied tail kept {}", r.tail.capacity());
        let frames = std::mem::take(&mut *got.lock().unwrap());
        (frames, ctx.counters.heartbeats_heard.load(Ordering::Relaxed))
    }

    /// One stream — handshake, heartbeat, frames of 1 B, 4 KiB − 1,
    /// 4 KiB + 1 and 70 KiB of payload, bare and group-enveloped — reads
    /// the same whether it arrives whole, a byte at a time, or cut in two
    /// at any offset: the tail carries every unit across its read
    /// boundaries.
    #[test]
    fn framing_survives_every_read_boundary() {
        let mut stream = 7u64.to_le_bytes().to_vec();
        stream.extend_from_slice(&0u32.to_le_bytes());
        let msg = |len: usize| NetMsg::App(AppMsg::from(vec![len as u8; len]));
        stream.extend_from_slice(&codec::encode_frame(&msg(1)));
        for (g, len) in [(3, 4095), (4, 4097), (5, 70 << 10)] {
            codec::append_frame_grouped(&mut stream, GroupId::new(g), &msg(len));
        }
        let (whole, beats) = feed([stream.as_slice()]);
        let p7 = ProcessId::new(7);
        let want = vec![
            (p7, None, msg(1)),
            (p7, Some(GroupId::new(3)), msg(4095)),
            (p7, Some(GroupId::new(4)), msg(4097)),
            (p7, Some(GroupId::new(5)), msg(70 << 10)),
        ];
        assert!(whole == want && beats == 1, "whole stream read wrong");
        assert!(feed(stream.chunks(1)) == (want.clone(), 1), "byte-at-a-time read wrong");
        for cut in 0..=stream.len() {
            let (head, rest) = stream.split_at(cut);
            assert!(feed([head, rest]) == (want.clone(), 1), "stream cut at {cut} read wrong");
        }
    }

    /// A length prefix over `max_frame_len` is refused when its last byte
    /// arrives, even with its first bytes carried over in the tail.
    #[test]
    fn an_oversize_prefix_split_across_reads_is_rejected() {
        let (ctx, got) = recording_ctx();
        let cfg = config(1024);
        let mut r = reader();
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
        let (first, second) = bytes.split_at(10);
        assert!(r.take(first, &ctx, &cfg, &|_| {}).is_ok());
        assert_eq!(r.tail.len(), 2);
        assert!(matches!(r.take(second, &ctx, &cfg, &|_| {}), Err(Retire::Poisoned)));
        assert_eq!(ctx.counters.oversize_rejected.load(Ordering::Relaxed), 1);
        assert!(got.lock().unwrap().is_empty());
    }

    /// A legal prefix claiming 60 MiB reserves nothing: the tail holds
    /// what arrived, in a capacity a small multiple of it.
    #[test]
    fn a_claimed_length_allocates_nothing() {
        let (ctx, _) = recording_ctx();
        let cfg = config(1 << 26);
        let mut r = reader();
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(60u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 10]);
        for chunk in bytes.chunks(3) {
            assert!(r.take(chunk, &ctx, &cfg, &|_| {}).is_ok());
        }
        assert_eq!(r.tail.len(), 14);
        assert!(r.tail.capacity() <= 2 * bytes.len(), "capacity {}", r.tail.capacity());
    }
}
