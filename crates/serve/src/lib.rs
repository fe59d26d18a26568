//! `fssga-serve` — the always-on simulation service.
//!
//! A long-running TCP server that accepts simulation and churn jobs as
//! length-prefixed JSON frames, multiplexes them onto the engine
//! through the [`fssga_engine::Runner`] builder, and streams per-round
//! metrics back to the client incrementally through the engine's
//! [`fssga_engine::Tracer`] hooks. Every job runs under three budgets —
//! nodes (admission-time rejection), rounds (engine budget), and
//! wall-clock (a deadline on the job's cancel token, which the engine
//! polls at round boundaries) — and a bounded queue sheds load
//! explicitly when the service is busy. The server runs the accept
//! thread and the workers, and nothing else.
//!
//! The wire protocol is fully documented in DESIGN.md §12; the crate
//! layout mirrors its sections:
//!
//! * [`wire`] — framing: 4-byte big-endian length + UTF-8 JSON.
//! * [`json`] — the dependency-free JSON tree (the workspace has no
//!   serde by policy).
//! * [`job`] — the job schema, server [`job::Limits`], and the closed
//!   set of [`job::codes`] error codes.
//! * [`exec`] — the protocol registry and the [`exec::JobCancel`]
//!   cancellation handle, which carries the job's wall deadline.
//! * [`pool`] — the bounded [`pool::JobQueue`] (backpressure) and the
//!   [`pool::WorkerPool`] that drains it.
//! * [`server`] — accept loop, per-connection protocol driver,
//!   admission, and the ordered graceful shutdown.
//!
//! Determinism is the service's headline guarantee: a job is a pure
//! function of its spec, so the streamed metrics and the `done`
//! frame's final-state fingerprint are bit-identical to a direct
//! in-process [`fssga_engine::Runner`] run of the same spec — the
//! end-to-end tests assert exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod job;
pub mod json;
pub mod pool;
pub mod server;
pub mod wire;

pub use exec::{census_sketch, execute, JobCancel};
pub use fssga_engine::fingerprint;
pub use job::{codes, ChurnSpec, GraphSpec, JobError, JobKind, JobSpec, Limits, Proto};
pub use json::Json;
pub use pool::{JobQueue, QueuedJob, WorkerPool};
pub use server::{serve, ServeConfig, ServerHandle};
pub use wire::{read_frame, write_frame, FrameError, MAX_FRAME};
