//! The verifier's benchmark: a seeded program generator, a span tracer that
//! times each layer from outside through its public functions, and the
//! workload runners the `perfbench` binary exposes to `run.py`.

pub mod daemon;
pub mod gen;
pub mod json;
pub mod pass;
pub mod trace;
