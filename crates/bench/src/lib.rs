//! The reproduction binaries: `tcmp-fig`'s command line, its local
//! campaign door and the analytic tables, plus the daemon client.
//! (Throughput is measured by the repo benchmark, `benchmark/run.sh`.)

#![forbid(unsafe_code)]

pub mod cli;
pub mod matrix;
#[cfg(unix)]
pub mod submit;
pub mod tables;

pub use cli::Options;
