//! # muse-runtime
//!
//! A distributed CEP execution engine for MuSE graph evaluation plans —
//! the Rust counterpart of the paper's C#/Ambrosia query processor (§7.3).
//!
//! A [`deploy::Deployment`] turns a MuSE graph into per-node tasks (event
//! sources and partial-match joins) plus a routing table describing the
//! exchange of matches. The node semantics — inject, join, sink
//! attribution, transmission accounting, fan-out, checkpoint — live once, in
//! a private node core; two thin drivers run it:
//!
//! * [`sim`] — a deterministic discrete-event simulator with a virtual
//!   clock, used for correctness validation and transmission accounting;
//! * [`threaded`] — a thread-per-node executor on `crossbeam` channels for
//!   wall-clock latency and throughput measurements (Fig. 8).
//!
//! [`matcher`] implements the query semantics (skip-till-any-match, §2.2):
//! [`matcher::JoinTask`] is the one engine on the data path, and the
//! centralized [`matcher::Evaluator`] is the reference that distributed
//! runs are verified against. [`checkpoint`] provides
//! snapshot/restore of executor state — the stand-in for Ambrosia's virtual
//! resiliency; [`codec`] is the compact wire format used for transmission
//! byte accounting and snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod codec;
pub mod deploy;
pub mod drift;
pub mod matcher;
pub mod metrics;
mod node;
pub mod sim;
pub mod telemetry;
pub mod threaded;

pub use deploy::{Deployment, Route, TaskKind, TaskSpec};
pub use drift::{CostDrift, VertexDrift};
pub use matcher::{Evaluator, JoinTask, Match};
pub use metrics::Metrics;
pub use sim::{run_simulation, SimConfig, SimExecutor, SimReport};
pub use telemetry::{RunTelemetry, TelemetrySpec};
pub use threaded::{run_threaded, ThreadedConfig, ThreadedReport};
