//! Execution engine for FSSGA networks (Section 3.4: "running" an
//! algorithm).
//!
//! The engine's central design decision is that protocol code **cannot see
//! raw neighbour lists**. A node activation hands the protocol a
//! [`NeighborView`] that answers only the questions a mod-thresh program
//! could ask — `μ_q ≡ r (mod m)` and `μ_q >= t` — so any protocol written
//! against this crate is an SM function of its neighbour multiset *by
//! construction* (properties S0–S2 of the paper). A recording mode
//! captures which moduli and thresholds a protocol actually uses, and
//! [`compile`] turns a protocol into a bona fide
//! [`fssga_core::ProbFssga`] whose behaviour is cross-checked against the
//! native implementation.
//!
//! Components:
//!
//! * [`protocol`] — the [`Protocol`] and [`StateSpace`] traits.
//! * [`view`] — the restricted [`NeighborView`] and its recorder.
//! * [`network`] — graph + per-node states + O(deg) activation tally.
//! * [`runner`] — the unified [`Runner`] facade: one builder covering
//!   synchronous rounds, the asynchronous activation policies of Section
//!   3.4 (uniform-random, round-robin sweeps, random-permutation sweeps),
//!   fully adversarial orders, and engine selection (interpreter vs
//!   compiled kernel).
//! * [`kernel`] — the compiled execution path: the network's own states
//!   and `DynGraph` rows reduced row by row (batched histogram /
//!   run-length reductions instead of per-neighbour fold chains), dense
//!   transition tables over `StateSpace::index`, and a dirty-set
//!   synchronous scheduler. The kernel keeps no copy of the network.
//! * [`pool`] — the persistent [`ShardPool`] behind multi-threaded kernel
//!   rounds: workers parked between rounds, shard indices handed out
//!   through one atomic counter. Select it with [`Runner::threads`];
//!   per-shard load is observable through [`ShardRoundMetrics`] events.
//!   Coins derive from `(round seed, node id)`, not from thread
//!   interleaving, so every thread count is bit-identical.
//! * [`faults`] — timed decreasing-benign fault plans (Section 1).
//! * [`sensitivity`] — the Section 2 k-sensitivity harness: critical sets,
//!   the [`Sensitive`] trait, the empirical single-fault sweep, and
//!   "reasonably correct" verdicts.
//! * [`campaign`] — the deterministic fault-campaign engine: declarative
//!   [`Campaign`]s, replayable [`CampaignTrace`]s, automatic snapshot
//!   chains.
//! * [`churn`] — the streaming churn engine: seeded, rate-configurable
//!   [`ChurnStream`]s of arrivals *and* departures interleaved into the
//!   kernel's round loop, with a continuous sliding-window oracle and
//!   per-burst recovery-time metrics ([`ChurnRoundMetrics`]).
//! * [`shrink`] — delta-debugging minimization of failing fault schedules
//!   to 1-minimal counterexamples.
//! * [`obs`] — the zero-cost-when-disabled observability layer: the
//!   [`Tracer`] trait, per-round [`RoundMetrics`], and the built-in
//!   [`Counters`] / [`JsonlTrace`] sinks.
//! * [`interp`] — run a table-level [`fssga_core::ProbFssga`] directly.
//! * [`compile`] — protocol → mod-thresh FSSGA extraction.

// Unsafe policy: the engine is the only workspace crate allowed to
// contain `unsafe`, and only in the [`pool`] module (the lifetime-erased
// job pointer of the sharded kernel). Everything else is checked Rust;
// the clippy `undocumented_unsafe_blocks` workspace lint additionally
// requires a `// SAFETY:` comment on every block that remains.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod churn;
pub mod compile;
pub mod faults;
pub mod history;
pub mod interp;
pub mod kernel;
pub mod network;
pub mod obs;
#[allow(unsafe_code)]
pub mod pool;
pub mod protocol;
pub mod runner;
pub mod sensitivity;
pub mod shrink;
pub mod view;

/// Deterministic RNG, re-exported from the graph substrate so that the
/// whole workspace draws from one generator family.
pub mod rng {
    pub use fssga_graph::rng::{SplitMix64, Xoshiro256};
}

pub use campaign::{Campaign, CampaignOutcome, CampaignTrace, RunPolicy};
pub use churn::{
    run_churn_oracle_traced, run_churn_traced, ChurnConfig, ChurnOptions, ChurnReport, ChurnStream,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use history::History;
pub use kernel::{CompiledKernel, KernelPlan};
pub use network::{Metrics, Network};
pub use obs::{
    fingerprint, ChannelTrace, ChurnRoundMetrics, Counters, FaultSurgery, JsonlTrace, NullTracer,
    RoundLog, RoundMetrics, RunMetrics, ShardRoundMetrics, Tee, Tracer,
};
pub use pool::ShardPool;
pub use protocol::{Protocol, StateSpace};
pub use runner::{AsyncPolicy, Budget, CancelToken, Engine, Policy, RunReport, Runner};
pub use sensitivity::{
    reasonably_correct, sweep_single_faults, FaultInjector, Sensitive, SensitiveProtocol,
    SensitivityClass, SensitivityReport, Verdict,
};
pub use shrink::{shrink_schedule, ShrinkResult};
pub use view::NeighborView;
