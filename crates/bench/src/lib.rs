//! Shared plumbing for the reproduction binaries: CLI options and the
//! common run-matrix driver used by the Figure 6/7 binaries. (Throughput
//! is measured by the repo benchmark, `benchmark/run.sh`.)

#![forbid(unsafe_code)]

pub mod cli;
pub mod matrix;
#[cfg(unix)]
pub mod submit;

pub use cli::Options;
