//! The enabled/fire interface implemented by algorithm automata.

use std::fmt;

/// An I/O automaton's locally controlled behavior, in precondition/effect
/// style (§2).
///
/// Implementations expose the set of locally controlled actions whose
/// preconditions currently hold ([`Automaton::enabled_actions`]) and
/// execute one atomically ([`Automaton::fire`]), returning the externally
/// visible effects. Input actions are ordinary methods on the concrete
/// types (inputs are always enabled, so they need no precondition
/// machinery).
pub trait Automaton {
    /// A locally controlled action, possibly parameterized.
    type Action: Clone + fmt::Debug;
    /// An externally visible effect of firing an action.
    type Effect;

    /// Locally controlled actions enabled in the current state, in a
    /// deterministic canonical order.
    fn enabled_actions(&self) -> Vec<Self::Action>;

    /// Fires one action. Implementations may assume (and should
    /// `debug_assert!`) that `action` is currently enabled.
    fn fire(&mut self, action: &Self::Action) -> Vec<Self::Effect>;
}
