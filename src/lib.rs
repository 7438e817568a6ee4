//! Intentionally empty: the `vsgm` root package only hosts the repository-level
//! `tests/` and `examples/` targets.
