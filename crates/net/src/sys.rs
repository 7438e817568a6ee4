//! The transport's only `unsafe` code: `extern "C"` declarations of the
//! Linux readiness calls the event loops park on — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, `read` and `write` — wrapped in
//! a safe [`Poller`] that owns its two descriptors as [`OwnedFd`]s, and
//! of `listen`, which [`bind_listener`] calls to lengthen a bound
//! listener's accept queue.
//!
//! There is no portable fallback. The benchmark, the memory soaks and the
//! fd/thread-leak tests already read `/proc`, so the workspace runs on
//! Linux only, and the `compile_error!`s below say so at build time
//! rather than shipping a second, untested loop. The workspace denies
//! `unsafe_code`, and the one `#[expect(unsafe_code)]` on this module in
//! `lib.rs` keeps every non-test `unsafe` block in this file; clippy's
//! `undocumented_unsafe_blocks` puts each behind a `// SAFETY:` comment
//! (DESIGN.md §10, §16).

use std::io;
use std::net::TcpListener;
use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!(
    "vsgm-net's event loops park on epoll and eventfd, which only Linux has \
     (the benchmark, the soaks and the leak tests need Linux's /proc as well)"
);

#[cfg(any(
    target_arch = "mips",
    target_arch = "mips64",
    target_arch = "sparc",
    target_arch = "sparc64"
))]
compile_error!(
    "vsgm-net's epoll/eventfd flag values are the generic Linux ones; \
     this architecture numbers O_CLOEXEC and O_NONBLOCK differently"
);

/// `struct epoll_event`. The kernel packs it on x86-64 only (12 bytes);
/// every other architecture aligns `data` naturally (16 bytes).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

const EPOLL_CTL_ADD: c_int = 1;
/// `O_CLOEXEC`, which `EPOLL_CLOEXEC` and `EFD_CLOEXEC` alias.
const O_CLOEXEC: c_int = 0o2_000_000;
/// `O_NONBLOCK`, which `EFD_NONBLOCK` aliases.
const O_NONBLOCK: c_int = 0o4_000;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLET: u32 = 1 << 31;

/// Interest in bytes to read, reported for as long as there are some.
pub(crate) const READABLE: u32 = EPOLLIN;
/// Interest in new arrivals (a listener's backlog), reported once per
/// arrival rather than for as long as the backlog is non-empty.
pub(crate) const READABLE_EDGE: u32 = EPOLLIN | EPOLLET;
/// Interest in send-buffer space, reported once each time space frees up
/// — a writable socket is the normal state and must not wake the loop.
pub(crate) const WRITABLE_EDGE: u32 = EPOLLOUT | EPOLLET;

/// One event loop's readiness source: an epoll instance plus the eventfd
/// that other threads write to wake it.
pub(crate) struct Poller {
    epoll: OwnedFd,
    wake: OwnedFd,
}

/// The buffer [`Poller::wait`] fills: the tokens of the registrations
/// that became ready.
pub(crate) struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// Room for `n` events per wait (at least one).
    pub(crate) fn with_capacity(n: usize) -> Events {
        Events { buf: vec![EpollEvent { events: 0, data: 0 }; n.max(1)], len: 0 }
    }

    /// Tokens of the registrations the last wait reported.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf.iter().take(self.len).map(|e| e.data)
    }
}

/// Adopts a descriptor a creating call just returned, or its error.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: only called on the return value of epoll_create1/eventfd; a
    // non-negative one is a fresh descriptor that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

impl Poller {
    /// A new epoll instance with its eventfd registered under
    /// `wake_token`.
    pub(crate) fn new(wake_token: u64) -> io::Result<Poller> {
        // SAFETY: no pointer arguments; the result is checked by `owned`.
        let epoll = owned(unsafe { epoll_create1(O_CLOEXEC) })?;
        // SAFETY: as above.
        let wake = owned(unsafe { eventfd(0, O_CLOEXEC | O_NONBLOCK) })?;
        let poller = Poller { epoll, wake };
        poller.add(&poller.wake, READABLE, wake_token)?;
        Ok(poller)
    }

    /// Watches `fd` for `interest`; its events carry `token`. Closing
    /// the descriptor ends the watch.
    pub(crate) fn add(&self, fd: &impl AsFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events: interest, data: token };
        // SAFETY: both descriptors are open for the duration of the call
        // (one owned, one borrowed), and `event` is a live epoll_event
        // the kernel only reads.
        let rc = unsafe {
            epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd.as_fd().as_raw_fd(), &mut event)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Parks until a watched descriptor is ready, [`Poller::notify`] is
    /// called, or `timeout` passes (`None`: no timeout). Rounds the
    /// timeout up to whole milliseconds, so a wait for a deadline never
    /// ends before it. A signal or an error ends the wait with no
    /// events; the caller's next round rescans everything anyway.
    pub(crate) fn wait(&self, events: &mut Events, timeout: Option<Duration>) {
        let ms = timeout.map_or(-1, |d| {
            c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        let cap = c_int::try_from(events.buf.len()).unwrap_or(c_int::MAX);
        // SAFETY: `buf` holds at least `cap` initialized events the kernel
        // may overwrite, and the epoll descriptor is owned and open.
        let n = unsafe { epoll_wait(self.epoll.as_raw_fd(), events.buf.as_mut_ptr(), cap, ms) };
        events.len = usize::try_from(n).unwrap_or(0);
    }

    /// Wakes the thread parked in [`Poller::wait`], or makes its next
    /// wait return at once.
    pub(crate) fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: writes the 8 bytes of a live u64 to the owned eventfd.
        // It fails only when the counter is about to overflow, and then
        // the eventfd is readable already.
        unsafe { write(self.wake.as_raw_fd(), std::ptr::from_ref(&one).cast(), 8) };
    }

    /// Resets the eventfd after a wait reported it, so the next wait
    /// parks again.
    pub(crate) fn drain_notify(&self) {
        let mut count: u64 = 0;
        // SAFETY: reads at most 8 bytes into a live u64 from the owned,
        // non-blocking eventfd.
        unsafe { read(self.wake.as_raw_fd(), std::ptr::from_mut(&mut count).cast(), 8) };
    }
}

/// Binds a listener on `addr` whose accept queue holds `backlog`
/// connections: `listen` again on a listening socket only resizes its
/// queue, which the kernel caps at `net.core.somaxconn`.
pub(crate) fn bind_listener(addr: &str, backlog: c_int) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    // SAFETY: no pointer arguments, and the descriptor is borrowed from
    // a listener that is open for the duration of the call.
    if unsafe { listen(listener.as_raw_fd(), backlog) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(listener)
}
