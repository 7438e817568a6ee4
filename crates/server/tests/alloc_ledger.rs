//! The cost ledger: heap allocations and live heap bytes, counted exactly
//! by a counting global allocator and pinned.
//!
//! An allocation is one call to `alloc`, `alloc_zeroed` or `realloc`;
//! live bytes are the bytes requested and not yet freed. Each thread
//! keeps its own counts, so tests running side by side do not mix theirs.
//! Three pins:
//!
//! * a quiescent [`Endpoint`] poll — `step(None, …)` with nothing enabled
//!   — allocates nothing, under each forwarding strategy, both in a
//!   settled view and in the middle of a view change;
//! * allocations per multicast on a bare [`GroupInstance`] at
//!   n = 2/4/8/16 — n joins, 128 warm-up multicasts, then 640 counted
//!   ones, each followed by `Run` and `drain_outputs`, as a shard worker
//!   steps them — stay within upper bounds;
//! * the live heap of one group of four at the end of set-up (four joins,
//!   one multicast from each member) and once it has gone quiet (22
//!   multicasts, then `Stabilize`) stays within upper bounds. Unlike a
//!   resident-set reading it is the same on every run.
//!
//! A change that moves a count updates its pin and says why. These are
//! release-mode tests (ignored in debug builds, whose `debug_assert`s
//! allocate); `scripts/check.sh` runs them by name:
//! `cargo test --release -p vsgm-server --test alloc_ledger -- --nocapture`
//! prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use vsgm_core::{Config, Effect, Endpoint, ForwardStrategyKind, Input};
use vsgm_obs::NoopRecorder;
use vsgm_server::{GroupCmd, GroupInstance};
use vsgm_types::{AppMsg, GroupId, ProcSet, ProcessId, StartChangeId, View, ViewId};

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed, so far.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations and live
/// bytes.
struct Counting;

/// Counts one allocation that grew the live heap by `grown` bytes.
fn count(grown: isize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    live(grown);
}

fn live(grown: isize) {
    let _ = LIVE.try_with(|b| b.set(b.get() + grown));
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an `unsafe impl`; this one forwards to `System`"
)]
// SAFETY: every method passes its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract; counting only bumps thread-local
// `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What `f` returns, and the bytes it left allocated on this thread: the
/// heap the returned value holds.
fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let kept = f();
    (kept, LIVE.with(Cell::get) - before)
}

fn p(i: u64) -> ProcessId {
    ProcessId::new(i)
}

/// End-points `p1..=pn` on an instant FIFO mesh: each input is stepped,
/// then every end-point is polled, until nothing is left to deliver. A
/// block is answered at once.
struct Mesh {
    eps: Vec<Endpoint>,
    inbox: VecDeque<(usize, Input)>,
}

impl Mesh {
    fn new(n: u64, forward: ForwardStrategyKind) -> Mesh {
        let cfg = Config { forward, ..Config::default() };
        let eps = (1..=n).map(|i| Endpoint::new(p(i), cfg.clone())).collect();
        Mesh { eps, inbox: VecDeque::new() }
    }

    fn to_all(&mut self, input: impl Fn() -> Input) {
        for i in 0..self.eps.len() {
            self.inbox.push_back((i, input()));
        }
        self.settle();
    }

    fn settle(&mut self) {
        loop {
            while let Some((i, input)) = self.inbox.pop_front() {
                self.step(i, Some(input));
            }
            for i in 0..self.eps.len() {
                self.step(i, None);
            }
            if self.inbox.is_empty() {
                return;
            }
        }
    }

    fn step(&mut self, i: usize, input: Option<Input>) {
        let mut out = Vec::new();
        self.eps[i].step(input, &mut NoopRecorder, &mut out);
        let from = self.eps[i].pid();
        for effect in out {
            match effect {
                Effect::NetSend { to, msg } => {
                    for q in to.iter().filter(|q| **q != from) {
                        let k = (q.raw() - 1) as usize;
                        self.inbox.push_back((k, Input::Net { from, msg: msg.clone() }));
                    }
                }
                Effect::Block => self.inbox.push_back((i, Input::BlockOk)),
                _ => {}
            }
        }
    }
}

/// Every end-point's poll, taken when nothing is enabled, allocates
/// nothing.
fn assert_quiescent_polls_allocate_nothing(mesh: &mut Mesh, at: &str) {
    for ep in &mut mesh.eps {
        let mut out = Vec::new();
        let n = allocations(|| ep.step(None, &mut NoopRecorder, &mut out));
        assert!(out.is_empty(), "{at}: {} was not quiescent: {out:?}", ep.pid());
        assert_eq!(n, 0, "{at}: {}'s quiescent poll allocated", ep.pid());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode ledger; scripts/check.sh runs it by name")]
fn a_quiescent_poll_allocates_nothing_under_each_forwarding_strategy() {
    use ForwardStrategyKind::{Disabled, Eager, MinCopy};
    for forward in [Disabled, Eager, MinCopy] {
        let mut mesh = Mesh::new(4, forward);
        let members: ProcSet = (1..=4).map(p).collect();
        let change = |cid: u64| {
            let set = members.clone();
            move || Input::StartChange { cid: StartChangeId::new(cid), set: set.clone() }
        };
        let view = |epoch: u64, cid: u64| {
            let starts = members.iter().map(|q| (*q, StartChangeId::new(cid)));
            View::new(ViewId::new(epoch, 0), members.iter().copied(), starts)
        };
        mesh.to_all(change(1));
        let v1 = view(1, 1);
        mesh.to_all(|| Input::MbrshpView(v1.clone()));
        for k in 0..8u64 {
            let msg = AppMsg::from(format!("m{k}").as_str());
            mesh.inbox.push_back(((k % 4) as usize, Input::AppSend(msg)));
        }
        mesh.settle();
        let at = format!("{forward:?}, settled view");
        assert_quiescent_polls_allocate_nothing(&mut mesh, &at);
        // The next change, its syncs exchanged and its view not yet in:
        // the forwarding walk runs over every sync record.
        mesh.to_all(change(2));
        assert!(mesh.eps.iter().all(Endpoint::reconfiguring));
        assert_quiescent_polls_allocate_nothing(&mut mesh, &format!("{forward:?}, mid-change"));
        let v2 = view(2, 2);
        mesh.to_all(|| Input::MbrshpView(v2.clone()));
        assert!(mesh.eps.iter().all(|ep| ep.current_view() == &v2));
    }
}

/// One shard-worker step.
fn step(g: &mut GroupInstance, cmd: GroupCmd) {
    g.apply(cmd);
    g.apply(GroupCmd::Run);
    g.drain_outputs();
}

/// The multicasts counted per group.
const COUNTED: u64 = 640;

/// Allocations over [`COUNTED`] multicasts in a group of `n`, each member
/// multicasting in turn.
fn allocations_over_the_counted_multicasts(n: u64) -> u64 {
    const WARM_UP: u64 = 128;
    let mut g = GroupInstance::new(GroupId::new(n), n, 0);
    for i in 1..=n {
        step(&mut g, GroupCmd::Join(p(i)));
    }
    let msg = AppMsg::from("ledger");
    let send = |k: u64| GroupCmd::Send { from: p(1 + k % n), msg: msg.clone() };
    for k in 0..WARM_UP {
        step(&mut g, send(k));
    }
    let counted = allocations(|| {
        for k in WARM_UP..WARM_UP + COUNTED {
            step(&mut g, send(k));
        }
    });
    assert!(g.finish().is_empty());
    counted
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode ledger; scripts/check.sh runs it by name")]
fn allocations_per_multicast_stay_within_their_pins() {
    // (n, allocations over the counted multicasts): upper bounds, each
    // set at the count measured when it was pinned.
    let pins = [(2, 4_640), (4, 6_180), (8, 12_730), (16, 27_480)];
    for (n, pin) in pins {
        let total = allocations_over_the_counted_multicasts(n);
        let per = total as f64 / COUNTED as f64;
        println!("n = {n:>2}: {per:.2} allocations per multicast ({total}; pin {pin})");
        assert!(total <= pin, "n = {n}: {total} allocations, pinned at {pin}");
    }
}

/// A group of four after four joins and `multicasts` round-robin from its
/// members, each a shard-worker step with a fresh 64-byte payload, as a
/// client sends, then a `Stabilize` with `quiet`; and the live bytes it
/// holds.
fn group_of_four_holding(multicasts: u64, quiet: bool) -> (GroupInstance, isize) {
    live_bytes(|| {
        let mut g = GroupInstance::new(GroupId::new(1), 4, 0);
        for i in 1..=4 {
            step(&mut g, GroupCmd::Join(p(i)));
        }
        for k in 0..multicasts {
            step(&mut g, GroupCmd::Send { from: p(1 + k % 4), msg: AppMsg::new(vec![0x5Au8; 64]) });
        }
        if quiet {
            step(&mut g, GroupCmd::Stabilize);
        }
        g
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode ledger; scripts/check.sh runs it by name")]
fn a_group_of_four_holds_no_more_live_bytes_than_pinned() {
    // (state, multicasts, Stabilize, live bytes): upper bounds, each set
    // at the bytes measured when it was pinned.
    let pins = [("set-up end", 4, false, 9_288), ("quiet after 22 multicasts", 22, true, 8_712)];
    for (state, multicasts, quiet, pin) in pins {
        let (mut g, bytes) = group_of_four_holding(multicasts, quiet);
        println!("{state}: {bytes} live bytes per group of four (pin {pin})");
        assert!(g.finish().is_empty());
        assert!(bytes <= pin, "{state}: {bytes} live bytes, pinned at {pin}");
    }
}
