//! Benchmark-hosting package; see the `benches/` directory. Experiment
//! tables come from `cargo run --release -p vsgm-harness --bin experiments`;
//! the targets here time kernels that need a wall clock.
