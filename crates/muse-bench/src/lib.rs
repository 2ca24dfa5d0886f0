//! # muse-bench
//!
//! The experiment harness reproducing every table and figure of the MuSE
//! graphs paper's evaluation (§7):
//!
//! | Paper artifact | Function | Harness target |
//! |---|---|---|
//! | Fig. 5a/5b | transmission ratio vs. event-node ratio | `fig5a`, `fig5b` |
//! | Fig. 5c/5d | transmission ratio vs. network size | `fig5c`, `fig5d` |
//! | Fig. 6a/6b | transmission ratio vs. event rate skew | `fig6a`, `fig6b` |
//! | Fig. 7a/7b | transmission ratio vs. query selectivity | `fig7a`, `fig7b` |
//! | Fig. 7c | transmission ratio vs. workload size | `fig7c` |
//! | Fig. 7d | construction time and projection counts | `fig7d` |
//! | Table 3 | case-study transmission ratios (AND/SEQ/QWL) | `table3` |
//! | Fig. 8 | case-study latency and throughput (MS vs. OP) | `fig8` |
//!
//! Run with `cargo run -p muse-bench --release --bin harness -- all`.
//! Every other wall-clock number (join engine, codec, checkpoint and
//! telemetry cost, multi-query set-up) comes from the pinned benchmark
//! under `bench/`, run with `bench/run.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod observe;
pub mod runner;
mod stats;
pub mod telemetry;
#[cfg(test)]
mod transport_stress;

pub use experiments::{all_experiments, run_experiment, ExperimentOutput};
pub use runner::{evaluate_workload, StrategyCosts, SweepSettings};
pub use telemetry::{TelemetryCollector, TelemetryOutput};
