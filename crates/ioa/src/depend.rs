//! Dependency (commutativity) metadata for scheduled transitions, and the
//! sleep sets built on it — the kernel of DPOR-style partial-order
//! reduction (`vsgm-explore`).
//!
//! Two transitions are **independent** when, from every state where both
//! are enabled, (a) firing one leaves the other enabled and (b) firing
//! them in either order reaches the same state. Under that contract, two
//! interleavings that differ only by swapping adjacent independent
//! transitions are equivalent (they are linearizations of the same
//! Mazurkiewicz trace), so an explorer that checks one of them may soundly
//! skip the other.
//!
//! [`Dependence`] is the interface a transition type implements to declare
//! a *conservative over-approximation* of dependence: declaring two
//! transitions dependent when they actually commute only costs pruning
//! power, while declaring them independent when they do not commute is
//! unsound. [`SleepSet`] implements the classic sleep-set algorithm of
//! Godefroid's thesis over that relation: a set of transitions whose
//! exploration from the current state is provably redundant because an
//! equivalent interleaving was (or will be) explored from a sibling
//! branch.

/// A conservative dependence relation over a transition alphabet.
///
/// Implementations must be symmetric (`a.dependent(b) == b.dependent(a)`)
/// and may only return `false` when the two transitions genuinely commute
/// from every common state *and* neither can disable the other. When in
/// doubt, return `true`: over-approximating dependence is always sound.
pub trait Dependence {
    /// Whether `self` and `other` may fail to commute (or may enable /
    /// disable one another).
    fn dependent(&self, other: &Self) -> bool;
}

/// A sleep set: transitions that need not be explored from the current
/// state because an equivalent schedule is covered by a sibling branch.
///
/// Usage, per DFS node:
///
/// 1. Skip every enabled transition contained in the sleep set.
/// 2. After exploring transition `t`, [`SleepSet::insert`] `t` so later
///    siblings do not re-explore interleavings that merely postpone `t`.
/// 3. For the child state reached by firing `t`, start from
///    [`SleepSet::inherit`]\(`t`\): the entries independent of `t` stay
///    asleep (their redundancy argument survives `t`), the rest wake up.
#[derive(Debug, Clone, Default)]
pub struct SleepSet<T> {
    asleep: Vec<T>,
}

impl<T: Dependence + Clone + PartialEq> SleepSet<T> {
    /// The empty sleep set (used at the DFS root).
    pub fn new() -> Self {
        SleepSet { asleep: Vec::new() }
    }

    /// Whether `t` is asleep (exploring it here is redundant).
    pub fn contains(&self, t: &T) -> bool {
        self.asleep.iter().any(|s| s == t)
    }

    /// Puts `t` to sleep for the *current* state's remaining branches.
    pub fn insert(&mut self, t: T) {
        if !self.contains(&t) {
            self.asleep.push(t);
        }
    }

    /// The sleep set for the child state reached by firing `fired`: keeps
    /// exactly the entries independent of `fired`.
    pub fn inherit(&self, fired: &T) -> Self {
        SleepSet { asleep: self.asleep.iter().filter(|s| !s.dependent(fired)).cloned().collect() }
    }

    /// Number of sleeping transitions.
    pub fn len(&self) -> usize {
        self.asleep.len()
    }

    /// Whether nothing is asleep.
    pub fn is_empty(&self) -> bool {
        self.asleep.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy alphabet: transitions on a named channel; two transitions are
    /// dependent iff they touch the same channel.
    #[derive(Debug, Clone, PartialEq)]
    struct OnChannel(u8);

    impl Dependence for OnChannel {
        fn dependent(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    #[test]
    fn insert_and_contains() {
        let mut s = SleepSet::new();
        assert!(s.is_empty());
        s.insert(OnChannel(1));
        s.insert(OnChannel(1)); // idempotent
        s.insert(OnChannel(2));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&OnChannel(1)));
        assert!(!s.contains(&OnChannel(3)));
    }

    #[test]
    fn inherit_keeps_independent_drops_dependent() {
        let mut s = SleepSet::new();
        s.insert(OnChannel(1));
        s.insert(OnChannel(2));
        let child = s.inherit(&OnChannel(2));
        // Channel 1 commutes with the fired transition: still asleep.
        assert!(child.contains(&OnChannel(1)));
        // Channel 2 is dependent on it: woken up in the child.
        assert!(!child.contains(&OnChannel(2)));
        assert_eq!(child.len(), 1);
    }

    #[test]
    fn inherit_from_empty_is_empty() {
        let s: SleepSet<OnChannel> = SleepSet::new();
        assert!(s.inherit(&OnChannel(7)).is_empty());
    }
}
