//! Shared plumbing for the reproduction binaries: CLI options, the
//! common run-matrix driver used by the Figure 6/7 binaries, and the
//! self-contained benchmark harness behind `fullsim_bench`.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod matrix;
#[cfg(unix)]
pub mod submit;

pub use cli::Options;
pub use harness::{measure, to_bench_json, BenchStats};
