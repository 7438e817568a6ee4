//! A reliable datagram service over UDP — the substrate of the paper's
//! reference \[36\] (Shnaiderman, *Implementation of Reliable Datagram
//! Service in the LAN environment*), which the authors' C++
//! implementation used as its `CO_RFIFO`.
//!
//! Per ordered peer pair the service provides gap-free FIFO delivery over
//! lossy datagrams via:
//!
//! * per-peer sequence numbers on data frames;
//! * cumulative acknowledgments (receiver acks `next_expected`);
//! * a retransmission loop resending unacknowledged frames;
//! * receiver-side reordering buffers releasing in-order prefixes.
//!
//! [`UdpTransport::set_loss`] injects random outbound datagram loss so
//! tests exercise the recovery machinery deterministically.

use crate::codec::{self, WireFormat};
use crate::tcp::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsgm_ioa::SimRng;
use vsgm_types::{NetMsg, ProcSet, ProcessId};

const FRAME_DATA: u8 = 0;
const FRAME_ACK: u8 = 1;
/// Stay inside a safe single-datagram size.
const MAX_PAYLOAD: usize = 60_000;
const RETRANSMIT_AFTER: Duration = Duration::from_millis(40);
const RETRANSMIT_TICK: Duration = Duration::from_millis(10);

#[derive(Default)]
struct PeerSend {
    next_seq: u64,
    /// seq → (encoded frame, last transmission instant).
    unacked: BTreeMap<u64, (Vec<u8>, Instant)>,
}

#[derive(Default)]
struct PeerRecv {
    next_expected: u64,
    buffer: BTreeMap<u64, NetMsg>,
}

struct Shared {
    me: ProcessId,
    socket: UdpSocket,
    // vsgm-lock-tier(1): the retransmit sweep holds this while taking
    // send_state, so the address book always comes first.
    addr_book: Mutex<HashMap<ProcessId, SocketAddr>>,
    // vsgm-lock-tier(2): taken under addr_book by the retransmit sweep,
    // bare everywhere else.
    send_state: Mutex<HashMap<ProcessId, PeerSend>>,
    // vsgm-lock-tier(3): leaf — reorder buffers, receive path only.
    recv_state: Mutex<HashMap<ProcessId, PeerRecv>>,
    // vsgm-lock-tier(4): leaf — loss-injection knob, read per datagram.
    loss: Mutex<Option<(f64, SimRng)>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Sends a raw datagram, applying injected loss (acks and data alike —
    /// real networks do not distinguish).
    fn transmit(&self, to: SocketAddr, frame: &[u8]) -> io::Result<()> {
        if let Some((p, rng)) = self.loss.lock().as_mut() {
            if rng.chance(*p) {
                return Ok(()); // dropped on the (virtual) wire
            }
        }
        self.socket.send_to(frame, to).map(|_| ())
    }

    fn addr_of(&self, peer: ProcessId) -> io::Result<SocketAddr> {
        self.addr_book.lock().get(&peer).copied().ok_or_else(|| {
            io::Error::new(ErrorKind::NotFound, format!("no address registered for {peer}"))
        })
    }
}

/// UDP implementation of [`Transport`] with reliability per \[36\].
///
/// ```no_run
/// use vsgm_net::{UdpTransport, Transport};
/// use vsgm_types::{ProcessId, NetMsg, AppMsg};
///
/// # fn main() -> std::io::Result<()> {
/// let a = UdpTransport::bind(ProcessId::new(1), "127.0.0.1:0")?;
/// let b = UdpTransport::bind(ProcessId::new(2), "127.0.0.1:0")?;
/// a.register_peer(ProcessId::new(2), b.local_addr());
/// b.register_peer(ProcessId::new(1), a.local_addr());
/// a.send(&[ProcessId::new(2)].into_iter().collect(), &NetMsg::App(AppMsg::from("hi")))?;
/// # Ok(())
/// # }
/// ```
pub struct UdpTransport {
    shared: Arc<Shared>,
    incoming: Receiver<(ProcessId, NetMsg)>,
    local_addr: SocketAddr,
}

impl UdpTransport {
    /// Binds a socket and starts the receive and retransmission loops.
    ///
    /// # Errors
    ///
    /// Returns any socket error.
    pub fn bind(me: ProcessId, addr: &str) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind(addr)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let shared = Arc::new(Shared {
            me,
            socket,
            addr_book: Mutex::new(HashMap::new()),
            send_state: Mutex::new(HashMap::new()),
            recv_state: Mutex::new(HashMap::new()),
            loss: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let (tx, rx) = unbounded();
        spawn_recv_loop(Arc::clone(&shared), tx);
        spawn_retransmit_loop(Arc::clone(&shared));
        Ok(UdpTransport { shared, incoming: rx, local_addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Records where `peer` can be reached.
    pub fn register_peer(&self, peer: ProcessId, addr: SocketAddr) {
        self.shared.addr_book.lock().insert(peer, addr);
    }

    /// Injects random outbound datagram loss with probability `p`
    /// (deterministic per `seed`); pass `p = 0.0` to disable.
    pub fn set_loss(&self, p: f64, seed: u64) {
        *self.shared.loss.lock() =
            if p > 0.0 { Some((p, SimRng::new(seed))) } else { None };
    }

    /// Number of frames awaiting acknowledgment (for tests).
    pub fn unacked(&self) -> usize {
        self.shared.send_state.lock().values().map(|s| s.unacked.len()).sum()
    }
}

impl Transport for UdpTransport {
    fn me(&self) -> ProcessId {
        self.shared.me
    }

    fn send(&self, to: &ProcSet, msg: &NetMsg) -> io::Result<()> {
        let body = codec::encode_body(msg, WireFormat::default())?;
        if body.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds datagram limit {MAX_PAYLOAD}", body.len()),
            ));
        }
        for q in to {
            if *q == self.shared.me {
                continue;
            }
            let addr = self.shared.addr_of(*q)?;
            let mut state = self.shared.send_state.lock();
            let peer = state.entry(*q).or_default();
            let seq = peer.next_seq;
            peer.next_seq += 1;
            let frame = encode_frame(FRAME_DATA, self.shared.me, seq, &body);
            peer.unacked.insert(seq, (frame.clone(), Instant::now()));
            drop(state);
            self.shared.transmit(addr, &frame)?;
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<(ProcessId, NetMsg)> {
        self.incoming.recv_timeout(timeout).ok()
    }

    fn try_recv(&self) -> Option<(ProcessId, NetMsg)> {
        self.incoming.try_recv().ok()
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for UdpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpTransport")
            .field("me", &self.shared.me)
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn encode_frame(kind: u8, from: ProcessId, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + body.len());
    out.push(kind);
    out.extend_from_slice(&from.raw().to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// A structurally valid datagram.
#[derive(Debug, PartialEq, Eq)]
enum Frame<'a> {
    /// Sequenced payload bytes (still to be JSON-decoded).
    Data { from: ProcessId, seq: u64, body: &'a [u8] },
    /// Cumulative acknowledgment: everything below `seq` was received.
    Ack { from: ProcessId, seq: u64 },
}

/// Pure, total parser for raw datagrams off the wire. Anything malformed
/// — truncated headers, unknown frame kinds, payload bytes on an ack —
/// is rejected with `None`; no input can panic or allocate. The receive
/// loop depends on this totality: a hostile or corrupted datagram must
/// cost nothing but its own bytes.
fn parse_frame(frame: &[u8]) -> Option<Frame<'_>> {
    let (kind, rest) = frame.split_first()?;
    let (from_bytes, rest) = rest.split_first_chunk::<8>()?;
    let (seq_bytes, body) = rest.split_first_chunk::<8>()?;
    let from = ProcessId::new(u64::from_le_bytes(*from_bytes));
    let seq = u64::from_le_bytes(*seq_bytes);
    match *kind {
        FRAME_DATA => Some(Frame::Data { from, seq, body }),
        FRAME_ACK if body.is_empty() => Some(Frame::Ack { from, seq }),
        _ => None,
    }
}

#[expect(
    clippy::expect_used,
    reason = "thread-spawn failure is OS resource exhaustion at transport startup, \
              not a protocol state: there is nothing to unwind to"
)]
fn spawn_recv_loop(shared: Arc<Shared>, tx: Sender<(ProcessId, NetMsg)>) {
    std::thread::Builder::new()
        .name("vsgm-udp-recv".into())
        .spawn(move || {
            let mut buf = vec![0u8; MAX_PAYLOAD + 64];
            while !shared.shutdown.load(Ordering::SeqCst) {
                let (len, _src) = match shared.socket.recv_from(&mut buf) {
                    Ok(x) => x,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => return,
                };
                let Some(frame) = buf.get(..len).and_then(parse_frame) else {
                    continue; // malformed datagram: ignored, never fatal
                };
                match frame {
                    Frame::Ack { from, seq } => {
                        // Cumulative: everything below `seq` is received.
                        let mut state = shared.send_state.lock();
                        if let Some(peer) = state.get_mut(&from) {
                            peer.unacked.retain(|s, _| *s >= seq);
                        }
                    }
                    Frame::Data { from, seq, body } => {
                        // Accepts binary and JSON bodies alike (codec sniffs
                        // the leading byte); garbage is skipped, never fatal.
                        let Some(msg) = codec::decode_body(body) else { continue };
                        let ack_to = shared.addr_of(from).ok();
                        let mut state = shared.recv_state.lock();
                        let peer = state.entry(from).or_default();
                        if seq >= peer.next_expected {
                            peer.buffer.insert(seq, msg);
                            // Release the in-order prefix.
                            while let Some(m) = peer.buffer.remove(&peer.next_expected) {
                                peer.next_expected += 1;
                                if tx.send((from, m)).is_err() {
                                    return;
                                }
                            }
                        }
                        let ack_seq = peer.next_expected;
                        drop(state);
                        if let Some(addr) = ack_to {
                            let ack = encode_frame(FRAME_ACK, shared.me, ack_seq, &[]);
                            let _ = shared.transmit(addr, &ack);
                        }
                    }
                }
            }
        })
        .expect("spawn udp recv thread");
}

#[expect(
    clippy::expect_used,
    reason = "thread-spawn failure is OS resource exhaustion at transport startup, \
              not a protocol state: there is nothing to unwind to"
)]
fn spawn_retransmit_loop(shared: Arc<Shared>) {
    std::thread::Builder::new()
        .name("vsgm-udp-retx".into())
        .spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(RETRANSMIT_TICK);
                let now = Instant::now();
                // Collect due frames under the lock, transmit outside it.
                let mut due: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
                {
                    let addr_book = shared.addr_book.lock();
                    let mut state = shared.send_state.lock();
                    for (peer, ps) in state.iter_mut() {
                        let Some(addr) = addr_book.get(peer).copied() else { continue };
                        for (frame, last) in ps.unacked.values_mut() {
                            if now.duration_since(*last) >= RETRANSMIT_AFTER {
                                *last = now;
                                due.push((addr, frame.clone()));
                            }
                        }
                    }
                }
                for (addr, frame) in due {
                    let _ = shared.transmit(addr, &frame);
                }
            }
        })
        .expect("spawn udp retransmit thread");
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsgm_types::AppMsg;

    fn p(i: u64) -> ProcessId {
        ProcessId::new(i)
    }

    fn pair() -> (UdpTransport, UdpTransport) {
        let a = UdpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let b = UdpTransport::bind(p(2), "127.0.0.1:0").unwrap();
        a.register_peer(p(2), b.local_addr());
        b.register_peer(p(1), a.local_addr());
        (a, b)
    }

    fn only(i: u64) -> ProcSet {
        [p(i)].into_iter().collect()
    }

    #[test]
    fn basic_send_receive() {
        let (a, b) = pair();
        a.send(&only(2), &NetMsg::App(AppMsg::from("over udp"))).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("arrives");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("over udp")));
    }

    #[test]
    fn fifo_preserved_without_loss() {
        let (a, b) = pair();
        for k in 0..50 {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("m{k}").as_str()))).unwrap();
        }
        for k in 0..50 {
            let (_, msg) = b.recv_timeout(Duration::from_secs(5)).expect("arrives");
            assert_eq!(msg, NetMsg::App(AppMsg::from(format!("m{k}").as_str())));
        }
    }

    #[test]
    fn fifo_recovered_under_heavy_loss() {
        let (a, b) = pair();
        // 30% of a's outbound datagrams (data AND acks it sends back) drop.
        a.set_loss(0.3, 42);
        b.set_loss(0.3, 43);
        const COUNT: usize = 80;
        for k in 0..COUNT {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("m{k}").as_str()))).unwrap();
        }
        for k in 0..COUNT {
            let (_, msg) = b
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|| panic!("message {k} never recovered"));
            assert_eq!(msg, NetMsg::App(AppMsg::from(format!("m{k}").as_str())), "at {k}");
        }
    }

    #[test]
    fn acks_clear_the_retransmit_queue() {
        let (a, b) = pair();
        a.send(&only(2), &NetMsg::App(AppMsg::from("x"))).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.unacked() > 0 {
            assert!(Instant::now() < deadline, "ack never cleared the queue");
            std::thread::sleep(Duration::from_millis(5));
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
    fn oversized_payload_rejected() {
        let (a, _b) = pair();
        let big = NetMsg::App(AppMsg::from(vec![0u8; MAX_PAYLOAD + 1]));
        let err = a.send(&only(2), &big).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn unknown_peer_errors() {
        let a = UdpTransport::bind(p(1), "127.0.0.1:0").unwrap();
        let err = a.send(&only(9), &NetMsg::App(AppMsg::from("x"))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
    }

    #[test]
    fn frame_parser_is_total_over_a_malformed_corpus() {
        // A corpus of hostile datagrams: every prefix of a valid frame,
        // every single-byte corruption of its header, random byte soup,
        // and structurally wrong-but-plausible frames. The parser must
        // reject (or accept) each without panicking.
        let valid = encode_frame(FRAME_DATA, p(3), 9, b"payload");
        assert_eq!(
            parse_frame(&valid),
            Some(Frame::Data { from: p(3), seq: 9, body: b"payload" })
        );
        for cut in 0..valid.len() {
            let prefix = valid.get(..cut).unwrap();
            if cut < 17 {
                assert_eq!(parse_frame(prefix), None, "truncated header at {cut} accepted");
            } else {
                // Truncation inside the body still parses — the JSON
                // layer above rejects it.
                assert!(matches!(parse_frame(prefix), Some(Frame::Data { .. })));
            }
        }
        for i in 0..valid.len().min(17) {
            let mut mutated = valid.clone();
            if let Some(b) = mutated.get_mut(i) {
                *b ^= 0xFF;
            }
            let _ = parse_frame(&mutated); // any verdict, but no panic
        }
        let mut rng = SimRng::new(0xF0221);
        for _ in 0..2_000 {
            let len = rng.range(0, 64) as usize;
            let soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            let _ = parse_frame(&soup); // must not panic on any input
        }
        // Unknown frame kinds are rejected even with a well-formed header.
        let unknown = encode_frame(7, p(1), 1, b"");
        assert_eq!(parse_frame(&unknown), None);
        // An ack carrying payload bytes is malformed.
        let fat_ack = encode_frame(FRAME_ACK, p(1), 1, b"x");
        assert_eq!(parse_frame(&fat_ack), None);
        // A bare ack is fine.
        let ack = encode_frame(FRAME_ACK, p(2), 5, b"");
        assert_eq!(parse_frame(&ack), Some(Frame::Ack { from: p(2), seq: 5 }));
        // Binary-codec garbage: well-formed datagram headers whose bodies
        // claim to be BINARY_V1 but are truncations, corruptions, or soup.
        // The layer that decodes them must stay total too.
        let valid_body =
            codec::encode_body(&NetMsg::App(AppMsg::from("bin")), WireFormat::Binary).unwrap();
        for cut in 0..valid_body.len() {
            let truncated = valid_body.get(..cut).unwrap();
            let frame = encode_frame(FRAME_DATA, p(3), 1, truncated);
            if let Some(Frame::Data { body, .. }) = parse_frame(&frame) {
                assert_eq!(codec::decode_body(body), None, "truncated binary body at {cut}");
            }
        }
        for _ in 0..2_000 {
            let len = rng.range(1, 64) as usize;
            let mut soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            if let Some(first) = soup.first_mut() {
                *first = codec::BINARY_V1; // force the binary-decode path
            }
            let frame = encode_frame(FRAME_DATA, p(3), 1, &soup);
            if let Some(Frame::Data { body, .. }) = parse_frame(&frame) {
                let _ = codec::decode_body(body); // must not panic
            }
        }
    }

    #[test]
    fn garbage_datagrams_do_not_disrupt_delivery() {
        // Blast malformed datagrams at b's socket, then check a real
        // message still goes through the same socket unharmed.
        let (a, b) = pair();
        let noise = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut rng = SimRng::new(0xBAD);
        for _ in 0..200 {
            let len = rng.range(0, 48) as usize;
            let soup: Vec<u8> = (0..len).map(|_| rng.range(0, 256) as u8).collect();
            noise.send_to(&soup, b.local_addr()).unwrap();
        }
        a.send(&only(2), &NetMsg::App(AppMsg::from("through the noise"))).unwrap();
        let (from, msg) = b.recv_timeout(Duration::from_secs(5)).expect("survives garbage");
        assert_eq!(from, p(1));
        assert_eq!(msg, NetMsg::App(AppMsg::from("through the noise")));
    }

    #[test]
    fn duplicate_datagrams_not_redelivered() {
        // Loss on b's acks forces a to retransmit data b already has; b
        // must deduplicate.
        let (a, b) = pair();
        b.set_loss(0.8, 7); // most acks drop → many retransmissions
        const COUNT: usize = 10;
        for k in 0..COUNT {
            a.send(&only(2), &NetMsg::App(AppMsg::from(format!("d{k}").as_str()))).unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < COUNT && Instant::now() < deadline {
            if let Some((_, msg)) = b.recv_timeout(Duration::from_millis(50)) {
                got.push(msg);
            }
        }
        assert_eq!(got.len(), COUNT);
        // Nothing extra shows up afterwards.
        b.set_loss(0.0, 0);
        std::thread::sleep(Duration::from_millis(200));
        assert!(b.try_recv().is_none(), "duplicate delivered");
    }
}
