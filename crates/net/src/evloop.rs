//! The readiness-loop core of [`crate::TcpTransport`]: a small fixed
//! pool of loop threads owns *all* sockets, replacing the old
//! thread-per-connection reader and writer threads.
//!
//! Each loop thread repeatedly scans the connections it owns:
//!
//! * **inbound connections** are drained with non-blocking reads into
//!   the loop's one read buffer; complete frames are decoded *in place*
//!   by [`crate::codec::decode_body_routed`] (one payload copy, when the
//!   frame is handed over) and given to the transport's [`FrameHandler`]
//!   on the loop thread. A connection keeps only the bytes of an
//!   unfinished frame; malformed or oversized frames tear it down;
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
//! The loops are the transport's only threads, so its periodic work is
//! theirs too: a loop that owns an outbound connection probes it once per
//! `heartbeat_interval`, claiming the queue's reserved heartbeat slot
//! ([`crate::writer::OutQueue::push_heartbeat`]) for the scan to write.
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
use crate::sys::{Events, Poller, READABLE, READABLE_EDGE, WRITABLE_EDGE};
use crate::tiered::{blocking, Tiered};
use crate::writer::OutQueue;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
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

/// Everything a loop thread needs from the transport.
pub(crate) struct LoopCtx {
    /// Where decoded frames go ([`crate::TcpTransport::bind_with_handler`]).
    pub deliver: FrameHandler,
    /// The transport's counters (shared with senders).
    pub counters: Arc<Counters>,
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
    /// Probe each outbound connection this often (`Duration::ZERO`
    /// disables probes).
    pub heartbeat_interval: Duration,
}

/// A connection handed to the pool.
pub(crate) enum Register {
    /// Accepted socket: handshake pending, read-only thereafter.
    Inbound(TcpStream),
    /// Dialed socket: write-only, held by the bounded frame queue
    /// senders push into, non-blocking and handshook.
    Outbound(Arc<OutQueue>),
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
        let shared =
            self.loops.get(i).ok_or_else(|| io::Error::other("transport has no event loop"))?;
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

/// An accepted connection: read-only.
struct Inbound {
    stream: TcpStream,
    reader: Reader,
    last_rx: Instant,
}

/// A connection one loop owns.
enum Conn {
    In(Inbound),
    /// A dialed connection: write-only, its socket and write state in
    /// the queue.
    Out(Arc<OutQueue>),
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
            Conn::Out(queue) => !queue.is_drained(),
            Conn::In(_) => false,
        }
    }

    fn idle_deadline(&self, cfg: &LoopConfig) -> Option<Instant> {
        match self {
            Conn::In(c) => c.idle_deadline(cfg),
            Conn::Out(_) => None,
        }
    }

    /// One scan round, reading into the loop's buffer `rbuf`. `Err`
    /// means retire the connection.
    fn service(
        &mut self,
        now: Instant,
        rbuf: &mut Vec<u8>,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        progress: &mut bool,
    ) -> Result<(), Retire> {
        match self {
            Conn::In(c) => c.service(now, rbuf, ctx, cfg, progress),
            Conn::Out(queue) => {
                if queue.is_broken() {
                    // A sender declared the queue stalled; retire and account.
                    return Err(Retire::Gone);
                }
                let moved = queue
                    .write_out(&ctx.counters, MAX_COALESCE_FRAMES, MAX_FLUSH_BYTES)
                    .map_err(|()| Retire::Gone)?;
                *progress |= moved;
                Ok(())
            }
        }
    }

    /// Retires the connection: accounts unwritten frames as dropped,
    /// poisons sender handles, closes the socket.
    fn retire(self, ctx: &LoopCtx) {
        if let Conn::Out(queue) = self {
            let dropped = queue.drain_remaining();
            if dropped > 0 {
                ctx.counters.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
            }
        }
        ctx.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
    }
}

impl Inbound {
    fn new(stream: TcpStream, now: Instant) -> Inbound {
        Inbound { stream, reader: Reader { kind: Kind::Handshake, tail: Vec::new() }, last_rx: now }
    }

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

    fn service(
        &mut self,
        now: Instant,
        rbuf: &mut Vec<u8>,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
        progress: &mut bool,
    ) -> Result<(), Retire> {
        let mut heard = false;
        for _ in 0..MAX_READS_PER_ROUND {
            match self.stream.read(rbuf) {
                Ok(0) => {
                    // Peer closed; whatever parsed before this is final.
                    self.note_heard(ctx, heard, now);
                    return Err(Retire::Gone);
                }
                Ok(n) => {
                    self.last_rx = now;
                    heard = true;
                    *progress = true;
                    self.reader.take(rbuf.get(..n).unwrap_or_default(), now, ctx, cfg)?;
                    if n == rbuf.len() && n < READ_BUF_MAX {
                        rbuf.resize(n * 2, 0);
                    }
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
            if let Kind::Frames(peer) = self.reader.kind {
                ctx.last_heard.lock().insert(peer, now);
            }
        }
    }
}

impl Reader {
    /// Takes one read's `bytes`, received at `now`: tops the tail up to
    /// the end of its unit and consumes it, consumes every complete unit
    /// that follows in place, and keeps what is left as the new tail.
    fn take(
        &mut self,
        mut bytes: &[u8],
        now: Instant,
        ctx: &LoopCtx,
        cfg: &LoopConfig,
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
            if parse(&mut self.kind, &self.tail, now, ctx, cfg)? > 0 {
                self.tail.clear();
                if self.tail.capacity() > TAIL_KEEP {
                    self.tail = Vec::new();
                }
            }
        }
        let used = parse(&mut self.kind, bytes, now, ctx, cfg)?;
        self.tail.extend_from_slice(bytes.get(used..).unwrap_or_default());
        Ok(())
    }
}

/// Consumes every complete handshake/heartbeat/frame at the front of
/// `bytes` and returns how many bytes they took.
fn parse(
    kind: &mut Kind,
    bytes: &[u8],
    now: Instant,
    ctx: &LoopCtx,
    cfg: &LoopConfig,
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
                ctx.last_heard.lock().insert(peer, now);
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

fn loop_main(shared: &LoopShared, mut acceptor: Option<Acceptor>, ctx: &LoopCtx, cfg: &LoopConfig) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut rbuf = vec![0; READ_BUF_MIN];
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut grace_until: Option<Instant> = None;
    // The next liveness probe: armed while this loop owns an outbound
    // connection and heartbeats are on.
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
        for reg in fresh {
            ctx.counters.conns_opened.fetch_add(1, Ordering::Relaxed);
            let (conn, watched) = match reg {
                Register::Inbound(stream) => {
                    let conn = Inbound::new(stream, now);
                    let watched = shared.poller.add(&conn.stream, READABLE, CONN_TOKEN);
                    (Conn::In(conn), watched)
                }
                Register::Outbound(queue) => {
                    let watched = queue.watch(&shared.poller, WRITABLE_EDGE, CONN_TOKEN);
                    (Conn::Out(queue), watched)
                }
            };
            match watched {
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
        // Probe: claim every outbound connection's heartbeat slot, which
        // the scan below writes out ahead of queued data.
        let dialed = conns.iter().any(|c| matches!(c, Conn::Out(_)));
        probe_at = match probe_at {
            _ if !dialed || cfg.heartbeat_interval.is_zero() => None,
            Some(at) if now >= at => {
                for c in &conns {
                    if let Conn::Out(queue) = c {
                        queue.push_heartbeat(&ctx.counters);
                    }
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
            let pending = conns.iter().any(Conn::has_unflushed);
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
        (LoopCtx { deliver, counters: Arc::default(), last_heard: Arc::default() }, got)
    }

    fn config(max_frame_len: usize) -> LoopConfig {
        LoopConfig {
            max_frame_len,
            read_idle_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::ZERO,
        }
    }

    fn reader() -> Reader {
        Reader { kind: Kind::Handshake, tail: Vec::new() }
    }

    /// Feeds `reads` to a fresh reader, one `take` each, and returns the
    /// frames it delivered and the heartbeats it heard.
    fn feed<'a>(
        reads: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<(ProcessId, Option<GroupId>, NetMsg)>, u64) {
        let (ctx, got) = recording_ctx();
        let cfg = config(1 << 26);
        let mut r = reader();
        for bytes in reads {
            assert!(r.take(bytes, Instant::now(), &ctx, &cfg).is_ok());
        }
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
        assert!(r.take(first, Instant::now(), &ctx, &cfg).is_ok());
        assert_eq!(r.tail.len(), 2);
        assert!(matches!(r.take(second, Instant::now(), &ctx, &cfg), Err(Retire::Poisoned)));
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
            assert!(r.take(chunk, Instant::now(), &ctx, &cfg).is_ok());
        }
        assert_eq!(r.tail.len(), 14);
        assert!(r.tail.capacity() <= 2 * bytes.len(), "capacity {}", r.tail.capacity());
    }
}
