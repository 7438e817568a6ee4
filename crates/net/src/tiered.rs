//! Locks that know their place in the lock order.
//!
//! Every lock the transport and the daemon share between threads is a
//! [`Tiered`] lock of a fixed tier `N`, a type parameter. A thread takes
//! locks in strictly increasing tier order, so two threads can never
//! wait on each other's locks. A thread that can park — sleep, dial,
//! wait on a channel or on epoll — does so through [`blocking`], holding
//! no tracked guard, so a slow peer or an idle loop never stalls every
//! thread that needs the same lock. The one hold across a blocking call
//! that is there by design goes through [`blocking_holding`], which names
//! the tier it keeps and says why at the call site.
//!
//! Debug builds check both rules as they run. Each thread keeps the stack
//! of tiers it holds: [`Tiered::lock`] panics on a tier not above every
//! one held (an inversion, or two locks of one tier nested), and
//! [`blocking`] panics if any tracked guard is held. Every violation is
//! also kept for [`violations`], so a test sees one that killed a thread
//! it does not join; [`sites_reached`] lists the lock and blocking call
//! sites that ran under the tracker. Release builds carry no tracker: a
//! [`Tiered`] is its mutex and a [`TieredGuard`] the mutex's guard.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A mutex of tier `N` in the lock order.
///
/// Poisoning is ignored: the data behind every tiered lock is updated in
/// single statements, so a panic under a guard leaves it consistent.
#[derive(Default)]
pub struct Tiered<T, const N: u8> {
    mutex: Mutex<T>,
}

impl<T, const N: u8> Tiered<T, N> {
    /// A lock of tier `N` around `value`.
    pub const fn new(value: T) -> Self {
        Tiered { mutex: Mutex::new(value) }
    }

    /// Takes the lock. Debug builds panic first if this thread holds a
    /// tracked guard of tier `N` or above.
    #[track_caller]
    pub fn lock(&self) -> TieredGuard<'_, T, N> {
        #[cfg(debug_assertions)]
        let held = tracker::take(N, std::panic::Location::caller());
        TieredGuard {
            guard: self.mutex.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }
}

/// The guard of a [`Tiered`] lock; the tier counts as held until it
/// drops.
pub struct TieredGuard<'a, T, const N: u8> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: tracker::Held,
}

impl<T, const N: u8> Deref for TieredGuard<'_, T, N> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T, const N: u8> DerefMut for TieredGuard<'_, T, N> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A condition variable waited on with a guard of tier `N` — the one
/// blocking call made holding a guard, which the wait itself releases.
#[derive(Default)]
pub struct TieredCondvar<const N: u8>(Condvar);

impl<const N: u8> TieredCondvar<N> {
    /// A condition variable for guards of tier `N`.
    pub const fn new() -> Self {
        TieredCondvar(Condvar::new())
    }

    /// Releases `guard`, waits up to `timeout` for a notification, and
    /// takes the lock again.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: TieredGuard<'a, T, N>,
        timeout: Duration,
    ) -> TieredGuard<'a, T, N> {
        let TieredGuard {
            guard,
            #[cfg(debug_assertions)]
            _held,
        } = guard;
        let (guard, _) =
            self.0.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
        TieredGuard {
            guard,
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Runs `call`, which can park the thread. Debug builds panic first if
/// this thread holds any tracked guard.
#[track_caller]
pub fn blocking<R>(call: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    tracker::expect_held(&[], "", std::panic::Location::caller());
    call()
}

/// [`blocking`], holding the guard of tier `N` on purpose: `why` says why
/// that hold is bounded. Debug builds panic first unless this thread
/// holds exactly that one tracked guard.
#[track_caller]
pub fn blocking_holding<const N: u8, R>(why: &str, call: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    tracker::expect_held(&[N], &format!("because {why}"), std::panic::Location::caller());
    #[cfg(not(debug_assertions))]
    let _ = why;
    call()
}

// The tracker lives in the guard and in thread-local state, never in the
// lock; release builds compile it out of the guard too.
const _: () = assert!(size_of::<Tiered<u64, 1>>() == size_of::<Mutex<u64>>());
#[cfg(not(debug_assertions))]
const _: () =
    assert!(size_of::<TieredGuard<'static, u64, 1>>() == size_of::<MutexGuard<'static, u64>>());

#[cfg(debug_assertions)]
pub use tracker::{sites_reached, violations};

#[cfg(debug_assertions)]
mod tracker {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::panic::Location;
    use std::sync::{Mutex, PoisonError};

    /// A call site: source file and line.
    type Site = (&'static str, u32);

    thread_local! {
        /// The tiers this thread holds, strictly increasing.
        static HELD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        /// The sites this thread has already reported to `REACHED`.
        static SEEN: RefCell<BTreeSet<Site>> = const { RefCell::new(BTreeSet::new()) };
    }

    static REACHED: Mutex<BTreeSet<Site>> = Mutex::new(BTreeSet::new());
    static VIOLATIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Every lock and blocking call site any thread has reached, sorted.
    pub fn sites_reached() -> Vec<(&'static str, u32)> {
        REACHED.lock().unwrap_or_else(PoisonError::into_inner).iter().copied().collect()
    }

    /// Every lock-order or blocking-call violation seen so far.
    pub fn violations() -> Vec<String> {
        VIOLATIONS.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// One held tier, popped when the guard that owns it drops.
    pub(super) struct Held(u8);

    impl Drop for Held {
        fn drop(&mut self) {
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|t| *t == self.0) {
                    held.remove(i);
                }
            });
        }
    }

    fn reached(at: &'static Location<'static>) {
        let site = (at.file(), at.line());
        if SEEN.with_borrow_mut(|seen| seen.insert(site)) {
            REACHED.lock().unwrap_or_else(PoisonError::into_inner).insert(site);
        }
    }

    #[expect(clippy::panic, reason = "a violation must stop the thread that made it")]
    fn violation(message: String) -> ! {
        VIOLATIONS.lock().unwrap_or_else(PoisonError::into_inner).push(message.clone());
        panic!("{message}");
    }

    pub(super) fn take(tier: u8, at: &'static Location<'static>) -> Held {
        reached(at);
        let in_order = HELD.with_borrow_mut(|held| {
            let in_order = held.last().is_none_or(|top| *top < tier);
            if in_order {
                held.push(tier);
            }
            in_order
        });
        if !in_order {
            let held = HELD.with_borrow(Vec::clone);
            violation(format!("lock order: tier {tier} taken at {at} holding tiers {held:?}"));
        }
        Held(tier)
    }

    pub(super) fn expect_held(allowed: &[u8], why: &str, at: &'static Location<'static>) {
        reached(at);
        if !HELD.with_borrow(|held| held.as_slice() == allowed) {
            let held = HELD.with_borrow(Vec::clone);
            violation(format!(
                "blocking call at {at} holding tiers {held:?}; it may hold {allowed:?} {why}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        catch_unwind(f).is_err()
    }

    #[test]
    fn increasing_tiers_nest_and_release_in_any_order() {
        let (a, b, c) = (Tiered::<u8, 1>::new(1), Tiered::<u8, 2>::new(2), Tiered::<u8, 3>::new(3));
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        let gc = c.lock();
        assert_eq!(*gb + *gc, 5);
        drop((gb, gc));
        blocking(|| ());
        // Each tier is free again.
        drop(c.lock());
        drop(a.lock());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the tracker is compiled into debug builds only")]
    fn an_inversion_and_a_same_tier_nesting_panic_in_debug_builds() {
        assert!(panics(|| {
            let (low, high) = (Tiered::<(), 1>::new(()), Tiered::<(), 2>::new(()));
            let _g = high.lock();
            let _h = low.lock();
        }));
        assert!(panics(|| {
            let (x, y) = (Tiered::<(), 4>::new(()), Tiered::<(), 4>::new(()));
            let _g = x.lock();
            let _h = y.lock();
        }));
        // The unwinding dropped both guards: nothing is held.
        blocking(|| ());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the tracker is compiled into debug builds only")]
    fn a_blocking_call_under_a_guard_panics_unless_it_names_that_one_tier() {
        let (outer, inner) = (Tiered::<(), 0>::new(()), Tiered::<(), 3>::new(()));
        assert!(panics(|| {
            let _g = inner.lock();
            blocking(|| ());
        }));
        let g = outer.lock();
        blocking_holding::<0, _>("the test holds it", || ());
        assert!(panics(|| {
            let _h = inner.lock();
            blocking_holding::<0, _>("the test holds it", || ());
        }));
        drop(g);
        assert!(panics(|| blocking_holding::<0, _>("nothing is held", || ())));
    }

    #[test]
    fn a_guard_waits_on_its_condvar_and_keeps_its_tier() {
        let (m, cv) = (Tiered::<u8, 2>::new(7), TieredCondvar::<2>::new());
        let g = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert_eq!(*g, 7);
        #[cfg(debug_assertions)]
        assert!(panics(std::panic::AssertUnwindSafe(|| drop(Tiered::<(), 2>::new(()).lock()))));
        drop(g);
        drop(Tiered::<(), 2>::new(()).lock());
    }
}
