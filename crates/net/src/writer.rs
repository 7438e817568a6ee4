//! Per-connection outbound write state: the socket of one connection
//! (dialed or accepted, and shared with the loop that reads it), a
//! bounded frame queue with a reserved heartbeat slot, the bytes started
//! on the socket but not yet all written, and whether the connection is
//! dead.
//!
//! The queue is what makes the transport honor the `CO_RFIFO` channel
//! envelope under concurrency:
//!
//! * every byte on the socket is written under the connection's
//!   [`OutQueue`] lock, so frames never tear and each producer's frames
//!   leave in the order it pushed them. Two kinds of thread write:
//!   - the event loop ([`crate::evloop`]), which drains the queue into
//!     one coalesced buffer and writes it, keeping the unwritten tail
//!     here across rounds;
//!   - a batch pusher ([`PeerWriter::push_batch`]) that finds the
//!     connection idle — nothing queued, nothing unwritten, no heartbeat
//!     pending. It writes its buffer itself, with one non-blocking
//!     `write` on its own thread. What the socket does not take stays
//!     here as the unwritten tail, ahead of the queue and the heartbeat
//!     slot, and the loop finishes it.
//!
//!   Every other push only enqueues and wakes the loop;
//! * the queue is bounded in frames, so one stalled peer exerts
//!   backpressure on its own channel without blocking writes to other
//!   peers — a producer that cannot enqueue within its timeout declares
//!   the connection broken instead of wedging the multicast;
//! * heartbeats do NOT compete with data for queue slots: a reserved
//!   out-of-band slot ([`OutQueue::push_heartbeat`], claimed by the
//!   owning event loop) always accepts the next probe and the drain
//!   emits it *ahead* of queued data, so a queue sitting at the
//!   backpressure watermark can no longer delay liveness probes past
//!   `heartbeat_interval` and trigger false suspicion of a
//!   healthy-but-busy peer;
//! * the drain coalesces every frame already queued into one buffered
//!   socket write, turning N queued frames into one syscall.

use crate::evloop::LoopWaker;
use crate::stats::Counters;
use crate::tiered::{Tiered, TieredCondvar, TieredGuard};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An emptied write buffer keeps its capacity for the next one up to
/// this size; a larger one (a burst, an oversized frame) is freed.
const KEEP_WBUF_BYTES: usize = 64 << 10;

/// Why an enqueue did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The connection died (socket error) or the transport shut down.
    Closed,
    /// The queue stayed full for the whole timeout — the peer is stalled.
    Timeout,
}

/// Complete frames queued as one buffer: one per-frame push, or one
/// batch push that found the connection busy.
struct Chunk {
    bytes: Vec<u8>,
    frames: u64,
}

struct OutInner {
    chunks: VecDeque<Chunk>,
    /// Frames in `chunks`: what the cap and the reported depth count.
    queued: usize,
    /// The reserved heartbeat slot: set by the loop's probe regardless of
    /// how full the queue is, drained ahead of it.
    hb_pending: bool,
    /// The connection's socket, which its loop reads through a handle of
    /// its own; `None` once the loop retired it (or for a queue that was
    /// never given one).
    sock: Option<Arc<TcpStream>>,
    /// Bytes started on the socket: `wbuf[wpos..]` is unwritten and goes
    /// out before anything queued, heartbeat included.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Frames `wbuf` carries, credited to `frames_flushed` only once the
    /// whole buffer is on the wire.
    wframes: u64,
}

/// Writes what a non-blocking socket takes of `buf`, retrying
/// interrupted calls: all of it, or up to the point it would block.
fn write_some(mut sock: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    let mut sent = 0;
    while let Some(src) = buf.get(sent..).filter(|s| !s.is_empty()) {
        match sock.write(src) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

impl OutInner {
    /// Nothing queued, nothing unwritten, no probe pending: a push may
    /// write at once.
    fn is_idle(&self) -> bool {
        self.chunks.is_empty() && !self.hb_pending && self.wpos == self.wbuf.len()
    }

    /// Writes what the socket takes of `wbuf[wpos..]`. `Ok(true)` once
    /// all of it is written (accounted as one flush), `Ok(false)` when
    /// the socket is full, `Err` on a socket error or a retired socket.
    fn write_wbuf(&mut self, counters: &Counters, progress: &mut bool) -> io::Result<bool> {
        let unwritten = self.wbuf.get(self.wpos..).unwrap_or(&[]);
        if !unwritten.is_empty() {
            let sock = self.sock.as_ref().ok_or(io::ErrorKind::NotConnected)?;
            let n = write_some(sock, unwritten)?;
            *progress |= n > 0;
            self.wpos += n;
            if self.wpos < self.wbuf.len() {
                return Ok(false);
            }
        }
        if self.wframes > 0 {
            counters.flushes.fetch_add(1, Ordering::Relaxed);
            counters.frames_flushed.fetch_add(self.wframes, Ordering::Relaxed);
        }
        self.wframes = 0;
        self.wpos = 0;
        if self.wbuf.capacity() > KEEP_WBUF_BYTES {
            self.wbuf = Vec::new();
        }
        self.wbuf.clear();
        Ok(true)
    }

    /// Moves the heartbeat slot and then every chunk already queued (up
    /// to `max_frames` / `max_bytes`, whole chunks only) into `wbuf`,
    /// heartbeat first.
    fn take_batch(&mut self, max_frames: u64, max_bytes: usize) -> TakenBatch {
        let mut taken = TakenBatch::default();
        if self.hb_pending {
            self.hb_pending = false;
            self.wbuf.extend_from_slice(&HEARTBEAT_FRAME);
            taken.frames += 1;
            taken.heartbeat = true;
        }
        while taken.frames < max_frames.max(1) && (taken.frames == 0 || self.wbuf.len() < max_bytes)
        {
            let Some(c) = self.chunks.pop_front() else { break };
            self.wbuf.extend_from_slice(&c.bytes);
            taken.frames += c.frames;
            self.queued = self.queued.saturating_sub(usize::try_from(c.frames).unwrap_or(0));
        }
        self.wframes += taken.frames;
        taken
    }
}

/// What one drain of the queue into the write buffer carried.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TakenBatch {
    /// Frames moved into the flush buffer (heartbeat included).
    pub frames: u64,
    /// Whether the reserved heartbeat slot was drained.
    pub heartbeat: bool,
}

/// Bounded MPSC queue of encoded frames feeding one connection, and the
/// connection's socket. See the module docs for who writes it.
pub(crate) struct OutQueue {
    /// The queue's only lock: held across the paired condvar waits
    /// (required) and across non-blocking socket `write`s (every byte on
    /// the socket is written under it), never while taking any other
    /// lock.
    inner: Tiered<OutInner, 1>,
    /// Paired with `inner`, and only ever waited on with it.
    not_full: TieredCondvar<1>,
    cap: usize,
    /// The connection is dead: its loop retired it, or a sender found it
    /// stalled. Pushes read it under the lock and refuse a dead queue;
    /// senders looking the connection up and the loop before it writes
    /// read it bare.
    broken: AtomicBool,
}

/// The zero-length heartbeat frame: a bare 4-byte length prefix of 0.
const HEARTBEAT_FRAME: [u8; 4] = [0, 0, 0, 0];

impl OutQueue {
    /// A queue of `cap` frames feeding `sock` (`None`: a queue with no
    /// socket, which only the loop-side drain empties).
    pub(crate) fn new(cap: usize, sock: Option<Arc<TcpStream>>) -> OutQueue {
        OutQueue {
            inner: Tiered::new(OutInner {
                chunks: VecDeque::new(),
                queued: 0,
                hb_pending: false,
                sock,
                wbuf: Vec::new(),
                wpos: 0,
                wframes: 0,
            }),
            not_full: TieredCondvar::new(),
            cap: cap.max(1),
            broken: AtomicBool::new(false),
        }
    }

    /// Enqueues `frames` frames as one chunk, waiting up to `timeout` for
    /// room; a chunk larger than the whole queue goes in once it is
    /// empty. Returns the queue depth after the push.
    fn push_chunk(
        &self,
        mut g: TieredGuard<'_, OutInner, 1>,
        bytes: Vec<u8>,
        frames: u64,
        timeout: Duration,
    ) -> Result<usize, PushError> {
        let deadline = Instant::now() + timeout;
        let want = usize::try_from(frames).unwrap_or(usize::MAX);
        loop {
            if self.is_broken() {
                return Err(PushError::Closed);
            }
            if g.queued == 0 || g.queued.saturating_add(want) <= self.cap {
                g.chunks.push_back(Chunk { bytes, frames });
                g.queued = g.queued.saturating_add(want);
                return Ok(g.queued);
            }
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                return Err(PushError::Timeout);
            };
            g = self.not_full.wait_timeout(g, left);
        }
    }

    /// Enqueues one frame, waiting up to `timeout` for space. Returns the
    /// queue depth after the push.
    fn push(&self, frame: Vec<u8>, timeout: Duration) -> Result<usize, PushError> {
        self.push_chunk(self.inner.lock(), frame, 1, timeout)
    }

    /// Hands `bytes`, `frames` complete frames, to the connection. If it
    /// is idle they are written here and now, and what the socket does
    /// not take stays as the unwritten tail; otherwise they are queued
    /// as one chunk, as [`OutQueue::push`] queues one frame. Returns the
    /// queue depth after the push and whether the loop has work to do.
    fn push_batch(
        &self,
        bytes: &[u8],
        frames: u64,
        timeout: Duration,
        counters: &Counters,
    ) -> Result<(usize, bool), PushError> {
        let mut g = self.inner.lock();
        if self.is_broken() {
            return Err(PushError::Closed);
        }
        if !g.is_idle() || g.sock.is_none() {
            let depth = self.push_chunk(g, bytes.to_vec(), frames, timeout)?;
            counters.frames_enqueued.fetch_add(frames, Ordering::Relaxed);
            return Ok((depth, true));
        }
        counters.frames_enqueued.fetch_add(frames, Ordering::Relaxed);
        counters.coalesce_max.fetch_max(frames, Ordering::Relaxed);
        // A socket error writes nothing: the loop meets the same error,
        // retires the connection and counts the frames as dropped.
        let sent = g.sock.as_ref().map_or(Ok(0), |s| write_some(s, bytes)).unwrap_or(0);
        match bytes.get(sent..).filter(|rest| !rest.is_empty()) {
            None => {
                counters.flushes.fetch_add(1, Ordering::Relaxed);
                counters.frames_flushed.fetch_add(frames, Ordering::Relaxed);
                Ok((0, false))
            }
            Some(rest) => {
                g.wbuf.extend_from_slice(rest);
                g.wframes = frames;
                Ok((0, true))
            }
        }
    }

    /// Claims the reserved heartbeat slot and counts the probe. Never
    /// waits and never fails on a full queue — that is the point:
    /// liveness probes must not queue behind data. A broken queue takes
    /// no probe; one arriving while the last is still pending joins it,
    /// counted as a probe but not as a frame. Returns whether a frame
    /// was enqueued.
    pub(crate) fn push_heartbeat(&self, counters: &Counters) -> bool {
        let mut g = self.inner.lock();
        if self.is_broken() {
            return false;
        }
        counters.heartbeats.fetch_add(1, Ordering::Relaxed);
        if g.hb_pending {
            return false;
        }
        g.hb_pending = true;
        counters.frames_enqueued.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drains the reserved heartbeat slot and then every frame already
    /// queued (up to `max_frames` / `max_bytes`) into `buf`, heartbeat
    /// first: the loop's drain, without the socket.
    #[cfg(test)]
    fn take_batch(&self, buf: &mut Vec<u8>, max_frames: u64, max_bytes: usize) -> TakenBatch {
        let mut g = self.inner.lock();
        let taken = g.take_batch(max_frames, max_bytes);
        buf.append(&mut g.wbuf);
        g.wframes = 0;
        self.not_full.notify_all();
        taken
    }

    /// The loop's side: writes the unwritten tail, then drains the queue
    /// into coalesced writes until it is empty or the socket is full.
    /// Returns whether anything moved; `Err` means retire the connection
    /// (a socket error; a broken queue the loop retires before writing).
    pub(crate) fn write_out(
        &self,
        counters: &Counters,
        max_frames: u64,
        max_bytes: usize,
    ) -> Result<bool, ()> {
        let mut g = self.inner.lock();
        let mut progress = false;
        loop {
            match g.write_wbuf(counters, &mut progress) {
                Ok(true) => {}
                Ok(false) => return Ok(progress),
                Err(_) => return Err(()),
            }
            let taken = g.take_batch(max_frames, max_bytes);
            if taken.frames == 0 {
                return Ok(progress);
            }
            self.not_full.notify_all();
            counters.coalesce_max.fetch_max(taken.frames, Ordering::Relaxed);
            progress = true;
        }
    }

    /// Whether nothing is left to write (no frames, no pending probe, no
    /// unwritten tail).
    pub(crate) fn is_drained(&self) -> bool {
        self.inner.lock().is_idle()
    }

    /// Whether the connection is dead ([`OutQueue::mark_broken`],
    /// [`OutQueue::drain_remaining`]).
    pub(crate) fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Declares the connection dead: pushes fail from now on, one waiting
    /// for room wakes to fail, and its loop tears the socket down at its
    /// next round instead of flushing. The lock is taken before the
    /// wake-up, so a pusher that saw the queue alive is already waiting.
    fn mark_broken(&self) {
        self.broken.store(true, Ordering::Release);
        let _g = self.inner.lock();
        self.not_full.notify_all();
    }

    /// Retires the connection: marks it dead, empties the queue and
    /// closes the socket, returning how many frames (probe and
    /// unwritten tail included) were thrown away — the teardown side of
    /// the `enqueued == flushed + dropped` conservation law.
    pub(crate) fn drain_remaining(&self) -> u64 {
        self.broken.store(true, Ordering::Release);
        let mut g = self.inner.lock();
        g.sock = None;
        let mut n = g.queued as u64 + g.wframes;
        g.chunks.clear();
        g.queued = 0;
        g.wbuf = Vec::new();
        g.wpos = 0;
        g.wframes = 0;
        if g.hb_pending {
            g.hb_pending = false;
            n += 1;
        }
        self.not_full.notify_all();
        n
    }
}

/// Handle to one connection's outbound side: clone-cheap, shared between
/// the transport's peer record, senders and the event loop that owns the
/// connection and retires it.
#[derive(Clone)]
pub(crate) struct PeerWriter {
    pub(crate) queue: Arc<OutQueue>,
    waker: LoopWaker,
    counters: Arc<Counters>,
}

impl PeerWriter {
    pub(crate) fn new(
        queue: Arc<OutQueue>,
        waker: LoopWaker,
        counters: Arc<Counters>,
    ) -> PeerWriter {
        PeerWriter { queue, waker, counters }
    }

    /// Enqueues an already-encoded frame and wakes the owning loop;
    /// returns the post-push depth.
    pub(crate) fn push(&self, frame: Vec<u8>, timeout: Duration) -> Result<usize, PushError> {
        let depth = self.queue.push(frame, timeout)?;
        self.counters.frames_enqueued.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
        Ok(depth)
    }

    /// Hands `frames` already-encoded frames, concatenated in `bytes`,
    /// to the connection in one push: written at once on this thread if
    /// the connection is idle, else queued as one chunk. Wakes the loop
    /// only if that left it work. Returns the post-push depth.
    pub(crate) fn push_batch(
        &self,
        bytes: &[u8],
        frames: u64,
        timeout: Duration,
    ) -> Result<usize, PushError> {
        let (depth, wake) = self.queue.push_batch(bytes, frames, timeout, &self.counters)?;
        if wake {
            self.waker.wake();
        }
        Ok(depth)
    }

    /// Whether the loop (or a stalled-queue sender) declared the
    /// connection dead.
    pub(crate) fn is_broken(&self) -> bool {
        self.queue.is_broken()
    }

    /// Marks the connection dead and wakes the loop so it tears the
    /// socket down and accounts the queue remnants as dropped.
    pub(crate) fn mark_broken(&self) {
        self.queue.mark_broken();
        self.waker.wake();
    }

    /// Same connection (not merely same peer): a retiring connection
    /// clears its peer's record only if it is the installed writer, never
    /// a newer connection installed in its place.
    pub(crate) fn same_as(&self, other: &PeerWriter) -> bool {
        Arc::ptr_eq(&self.queue, &other.queue)
    }
}

impl std::fmt::Debug for PeerWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerWriter").field("broken", &self.is_broken()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;

    fn q(cap: usize) -> OutQueue {
        OutQueue::new(cap, None)
    }

    fn frames_in(buf: &[u8]) -> Vec<Vec<u8>> {
        // Split a coalesced buffer back into length-prefixed frames.
        let mut out = Vec::new();
        let mut rest = buf;
        while let Some((len, tail)) = rest.split_first_chunk::<4>() {
            let n = u32::from_le_bytes(*len) as usize;
            let (body, tail) = tail.split_at(n);
            out.push(body.to_vec());
            rest = tail;
        }
        assert!(rest.is_empty(), "trailing bytes in coalesced buffer");
        out
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// A connected loopback pair: the non-blocking writing end, shared
    /// as a transport's loop shares it, and the blocking reading end.
    fn socket_pair() -> (Arc<TcpStream>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let out = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        out.set_nonblocking(true).unwrap();
        let (inb, _) = listener.accept().unwrap();
        (Arc::new(out), inb)
    }

    /// Reads `inb` to its end and splits what arrived into frames.
    fn read_frames(mut inb: TcpStream) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        inb.read_to_end(&mut all).unwrap();
        frames_in(&all)
    }

    /// Plays the event loop: writes `q` out until it is drained.
    fn drive_until_drained(q: &OutQueue, stats: &Counters) {
        while !q.is_drained() {
            if !q.write_out(stats, 256, 1 << 20).unwrap() {
                std::thread::yield_now();
            }
        }
    }

    fn conserved(s: &Counters) -> bool {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        get(&s.frames_enqueued) == get(&s.frames_flushed) + get(&s.frames_dropped)
    }

    #[test]
    fn fifo_order_and_coalescing() {
        let q = q(64);
        for b in [b"aa".as_slice(), b"bb", b"cc"] {
            q.push(frame(b), Duration::from_secs(1)).unwrap();
        }
        let mut buf = Vec::new();
        let taken = q.take_batch(&mut buf, 32, 1 << 20);
        assert_eq!(taken, TakenBatch { frames: 3, heartbeat: false });
        assert_eq!(frames_in(&buf), vec![b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]);
        assert!(q.is_drained());
    }

    /// The pinned heartbeat-priority regression, queue half: a queue
    /// full of data must still accept a probe (reserved slot), and the
    /// drain must emit the probe *before* the queued data. Pre-rewrite,
    /// heartbeats were ordinary frames: a full queue rejected them
    /// (`push` with a zero timeout timed out) and the prober silently
    /// skipped the beat — the false-suspicion mechanism.
    #[test]
    fn heartbeat_has_a_reserved_slot_and_front_priority() {
        let q = q(2);
        q.push(frame(b"d1"), Duration::from_secs(1)).unwrap();
        q.push(frame(b"d2"), Duration::from_secs(1)).unwrap();
        // Queue is at capacity: a data push would time out...
        assert_eq!(q.push(frame(b"d3"), Duration::from_millis(5)), Err(PushError::Timeout));
        // ...but the probe still lands, and coalesces with a second one.
        let c = Counters::default();
        assert!(q.push_heartbeat(&c));
        assert!(!q.push_heartbeat(&c), "second probe coalesces into the pending one");
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!((get(&c.heartbeats), get(&c.frames_enqueued)), (2, 1));
        let mut buf = Vec::new();
        let taken = q.take_batch(&mut buf, 32, 1 << 20);
        assert_eq!(taken, TakenBatch { frames: 3, heartbeat: true });
        let frames = frames_in(&buf);
        assert_eq!(frames.first().map(Vec::len), Some(0), "heartbeat drains first");
        assert_eq!(&frames[1..], &[b"d1".to_vec(), b"d2".to_vec()]);
    }

    #[test]
    fn bounded_queue_times_out_then_recovers() {
        let q = q(1);
        q.push(frame(b"x"), Duration::from_secs(1)).unwrap();
        assert_eq!(q.push(frame(b"y"), Duration::from_millis(10)), Err(PushError::Timeout));
        let mut buf = Vec::new();
        q.take_batch(&mut buf, 32, 1 << 20);
        // Space freed: the next push succeeds.
        assert_eq!(q.push(frame(b"y"), Duration::from_millis(10)), Ok(1));
    }

    /// The cap and the depth count frames, however many a queued buffer
    /// carries; a buffer larger than the whole queue waits for it to
    /// empty rather than forever.
    #[test]
    fn the_cap_and_the_depth_count_frames_not_buffers() {
        let q = q(4);
        let stats = Counters::default();
        let three = [frame(b"a"), frame(b"b"), frame(b"c")].concat();
        let t = Duration::from_millis(5);
        assert_eq!(q.push_batch(&three, 3, t, &stats), Ok((3, true)));
        assert_eq!(q.push_batch(&three, 3, t, &stats), Err(PushError::Timeout));
        assert_eq!(q.push(frame(b"d"), t), Ok(4));
        assert_eq!(q.push(frame(b"e"), t), Err(PushError::Timeout));
        let mut buf = Vec::new();
        assert_eq!(q.take_batch(&mut buf, 2, 1 << 20).frames, 3, "whole buffers only");
        assert_eq!(q.take_batch(&mut buf, 32, 1 << 20).frames, 1);
        let nine = [three.clone(), three.clone(), three].concat();
        assert_eq!(q.push_batch(&nine, 9, t, &stats), Ok((9, true)), "an empty queue takes it");
        assert_eq!(stats.frames_enqueued.load(Ordering::Relaxed), 12);
    }

    /// Marking a queue broken refuses every later push and probe, and
    /// wakes a pusher waiting for room on a full queue with `Closed`
    /// long before its own timeout.
    #[test]
    fn a_broken_queue_refuses_pushes_and_wakes_a_blocked_pusher() {
        let q = q(1);
        q.push(frame(b"full"), Duration::from_secs(1)).unwrap();
        let blocked = std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                let t0 = Instant::now();
                (q.push(frame(b"waits"), Duration::from_secs(30)), t0.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            q.mark_broken();
            pusher.join().unwrap()
        });
        assert_eq!(blocked.0, Err(PushError::Closed));
        assert!(blocked.1 < Duration::from_secs(10), "woken only after {:?}", blocked.1);
        let stats = Counters::default();
        assert_eq!(q.push(frame(b"late"), Duration::ZERO), Err(PushError::Closed));
        assert_eq!(
            q.push_batch(&frame(b"late"), 1, Duration::ZERO, &stats),
            Err(PushError::Closed)
        );
        assert!(!q.push_heartbeat(&stats), "a broken queue takes no probe");
        assert_eq!(stats.heartbeats.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drain_remaining_counts_data_and_pending_probe() {
        let q = q(8);
        q.push(frame(b"a"), Duration::from_secs(1)).unwrap();
        q.push(frame(b"b"), Duration::from_secs(1)).unwrap();
        assert!(q.push_heartbeat(&Counters::default()));
        assert_eq!(q.drain_remaining(), 3);
        assert!(q.is_drained() && q.is_broken());
        assert_eq!(q.push(frame(b"c"), Duration::from_millis(5)), Err(PushError::Closed));
    }

    /// Concurrent producers against one consumer: every pushed frame is
    /// drained exactly once, in an order that preserves each producer's
    /// own sequence. (This is the queue half of the old writer-thread
    /// TSan smoke; the loop half lives in the tcp tests.)
    #[test]
    fn concurrent_producers_drain_exactly_once_in_producer_order() {
        let q = Arc::new(q(16));
        const PRODUCERS: u8 = 3;
        const PER: u32 = 400;
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got: Vec<Vec<u8>> = Vec::new();
                let mut buf = Vec::new();
                while got.len() < (PRODUCERS as usize) * (PER as usize) {
                    buf.clear();
                    if q.take_batch(&mut buf, 8, 1 << 20).frames == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    got.extend(frames_in(&buf));
                }
                got
            })
        };
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        let mut body = vec![t];
                        body.extend_from_slice(&i.to_le_bytes());
                        q.push(frame(&body), Duration::from_secs(10)).unwrap();
                    }
                });
            }
        });
        let got = consumer.join().unwrap();
        let mut next = [0u32; PRODUCERS as usize];
        for body in &got {
            let (t, seq) = body.split_first().unwrap();
            let i = u32::from_le_bytes(seq.try_into().unwrap());
            assert_eq!(i, next[*t as usize], "producer {t} reordered");
            next[*t as usize] += 1;
        }
        assert_eq!(next, [PER; PRODUCERS as usize]);
    }

    /// A batch push to an idle connection is written on the pusher's
    /// thread: one flush, every frame credited, nothing left for a loop.
    #[test]
    fn an_idle_connection_takes_a_batch_push_in_one_inline_write() {
        let (out, inb) = socket_pair();
        let q = OutQueue::new(8, Some(out));
        let stats = Counters::default();
        let batch = [frame(b"x"), frame(b"yy"), frame(b"zzz")].concat();
        assert_eq!(q.push_batch(&batch, 3, Duration::from_secs(1), &stats), Ok((0, false)));
        assert!(q.is_drained(), "nothing queued, nothing unwritten");
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!((get(&stats.flushes), get(&stats.frames_flushed)), (1, 3));
        assert!(conserved(&stats));
        q.drain_remaining();
        assert_eq!(read_frames(inb), [b"x".to_vec(), b"yy".to_vec(), b"zzz".to_vec()]);
    }

    /// An inline push into a socket that fills up leaves its unwritten
    /// tail at the front of the connection, ahead of a heartbeat claimed
    /// after it and of frames queued after it: the receiver reads every
    /// frame whole, the tail's frames first.
    #[test]
    fn an_inline_tail_goes_out_ahead_of_a_pending_heartbeat() {
        const BIG: usize = 64 << 10;
        const FRAMES: u64 = 256; // 16 MiB: more than loopback buffers hold
        let (out, inb) = socket_pair();
        let q = OutQueue::new(8, Some(out));
        let stats = Counters::default();
        let batch: Vec<u8> = (0..FRAMES).flat_map(|i| frame(&vec![i as u8; BIG])).collect();
        let (depth, wake) = q.push_batch(&batch, FRAMES, Duration::from_secs(1), &stats).unwrap();
        assert_eq!((depth, wake), (0, true), "the socket took part of the batch");
        assert!(!q.is_drained());
        assert_eq!(stats.frames_flushed.load(Ordering::Relaxed), 0, "a tail is not flushed");
        assert!(q.push_heartbeat(&stats));
        q.push(frame(b"after"), Duration::from_secs(1)).unwrap();
        stats.frames_enqueued.fetch_add(1, Ordering::Relaxed);
        // A second batch finds the connection busy and queues.
        let later = frame(b"later");
        assert_eq!(q.push_batch(&later, 1, Duration::from_secs(1), &stats), Ok((2, true)));
        let reader = std::thread::spawn(move || read_frames(inb));
        drive_until_drained(&q, &stats);
        q.drain_remaining();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), FRAMES as usize + 3);
        for (i, body) in got.iter().take(FRAMES as usize).enumerate() {
            assert!(body.len() == BIG && body.iter().all(|b| *b == i as u8), "frame {i} torn");
        }
        assert_eq!(&got[FRAMES as usize..], &[vec![], b"after".to_vec(), b"later".to_vec()]);
        assert!(conserved(&stats));
        assert_eq!(stats.frames_dropped.load(Ordering::Relaxed), 0);
    }

    /// Batch pushers (inline when they find the connection idle), frame
    /// pushers, a heartbeat prober and a loop, all at once on one
    /// socket: the receiver reads only whole frames, each producer's in
    /// the order it pushed them, and every frame is accounted once.
    #[test]
    fn concurrent_batch_frame_and_heartbeat_pushers_keep_each_producers_order() {
        const PER: u32 = 300;
        const BATCHERS: u8 = 2;
        const PRODUCERS: u8 = BATCHERS + 1;
        let (out, inb) = socket_pair();
        let q = OutQueue::new(64, Some(out));
        let stats = Counters::default();
        let body = |t: u8, i: u32| {
            let mut b = vec![t];
            b.extend_from_slice(&i.to_le_bytes());
            b
        };
        let reader = std::thread::spawn(move || read_frames(inb));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) || !q.is_drained() {
                    if !q.write_out(&stats, 8, 1 << 20).unwrap() {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    q.push_heartbeat(&stats);
                    std::thread::yield_now();
                }
            });
            let pushers: Vec<_> = (0..PRODUCERS)
                .map(|t| {
                    let (q, stats) = (&q, &stats);
                    s.spawn(move || {
                        let mut i = 0;
                        while i < PER {
                            if t < BATCHERS {
                                let n = (i % 5 + 1).min(PER - i);
                                let batch: Vec<u8> =
                                    (i..i + n).flat_map(|j| frame(&body(t, j))).collect();
                                let t10 = Duration::from_secs(10);
                                q.push_batch(&batch, u64::from(n), t10, stats).unwrap();
                                i += n;
                            } else {
                                q.push(frame(&body(t, i)), Duration::from_secs(10)).unwrap();
                                stats.frames_enqueued.fetch_add(1, Ordering::Relaxed);
                                i += 1;
                            }
                        }
                    })
                })
                .collect();
            for p in pushers {
                p.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        q.drain_remaining();
        let got = reader.join().unwrap();
        let mut next = [0u32; PRODUCERS as usize];
        for b in got.iter().filter(|b| !b.is_empty()) {
            assert_eq!(b.len(), 5, "torn frame {b:?}");
            let (t, seq) = b.split_first().unwrap();
            let i = u32::from_le_bytes(seq.try_into().unwrap());
            assert_eq!(i, next[*t as usize], "producer {t} reordered");
            next[*t as usize] += 1;
        }
        assert_eq!(next, [PER; PRODUCERS as usize]);
        let heartbeats = got.iter().filter(|b| b.is_empty()).count() as u64;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(get(&stats.frames_flushed), u64::from(PER) * 3 + heartbeats);
        assert!(conserved(&stats));
    }

    /// Tearing a connection down in the middle of an inline push's tail
    /// closes its socket at once, though the queue's handles live on, and
    /// drops every frame not wholly written — the tail's, a queued
    /// batch's, a queued frame and the pending probe — so that
    /// `enqueued == flushed + dropped` holds, frame for frame.
    #[test]
    fn conservation_holds_for_multi_frame_buffers_torn_down_mid_tail() {
        const BIG: usize = 64 << 10;
        const FRAMES: u64 = 256;
        let (out, inb) = socket_pair();
        let q = OutQueue::new(8, Some(out));
        let stats = Counters::default();
        let small = [frame(b"s1"), frame(b"s2")].concat();
        assert_eq!(q.push_batch(&small, 2, Duration::from_secs(1), &stats), Ok((0, false)));
        let batch: Vec<u8> = (0..FRAMES).flat_map(|_| frame(&[7; BIG])).collect();
        q.push_batch(&batch, FRAMES, Duration::from_secs(1), &stats).unwrap();
        q.push_batch(&small, 2, Duration::from_secs(1), &stats).unwrap();
        q.push(frame(b"one"), Duration::from_secs(1)).unwrap();
        assert!(q.push_heartbeat(&stats));
        stats.frames_enqueued.fetch_add(1, Ordering::Relaxed);
        let dropped = q.drain_remaining();
        stats.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
        assert_eq!(dropped, FRAMES + 2 + 1 + 1);
        assert_eq!(stats.frames_flushed.load(Ordering::Relaxed), 2);
        assert!(conserved(&stats));
        // The socket is closed though `q` is alive: the reader meets the
        // end of the stream after the bytes that were written.
        let mut inb = inb;
        inb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut all = Vec::new();
        inb.read_to_end(&mut all).unwrap();
        assert!(all.len() > small.len() && all.len() < small.len() + batch.len());
        assert_eq!(&all[..small.len()], &small[..]);
        assert_eq!(q.push(frame(b"late"), Duration::ZERO), Err(PushError::Closed));
    }
}
