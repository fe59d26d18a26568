//! Observability: zero-cost-when-disabled tracing of engine execution.
//!
//! The paper's claims are quantitative — O(n log n) expected activations
//! for leader election (§4), the 0/1/Θ(n) sensitivity ranking (§2),
//! synchronizer overhead (§4.2) — so the engine must be able to *report*
//! what it did, per round, without slowing down runs that do not ask.
//!
//! The design is a single [`Tracer`] trait threaded generically through
//! every stepper ([`crate::Runner`], [`crate::CompiledKernel`], the
//! interpreter paths, and [`crate::Campaign`]):
//!
//! * **Disabled is free.** [`NullTracer::enabled`] returns a constant
//!   `false`; every traced stepper hoists `tracer.enabled()` out of its
//!   hot loop, so the `NullTracer` monomorphization compiles to exactly
//!   the untraced code. The recorded engine baseline
//!   (`BENCH_engine.json`) is the regression guard: medians with
//!   `NullTracer` must stay within noise of the pre-tracing kernels.
//! * **One event per round.** Steppers emit a [`RoundMetrics`] after each
//!   synchronous round (or asynchronous sweep); fault surgeries between
//!   rounds surface both as [`RoundMetrics::faults`] counts and — from
//!   the campaign engine — as discrete [`FaultSurgery`] events.
//! * **Sinks compose.** [`Counters`] aggregates rounds into a
//!   [`RunMetrics`] summary (what [`crate::RunReport::metrics`] carries),
//!   [`RoundLog`] keeps every event for tests, [`JsonlTrace`] streams a
//!   replayable JSON-lines log (the `fssga-bench` / `fssga-chaos` CI
//!   artifact), and [`Tee`] fans one event stream into two sinks.
//!
//! The per-round counters double as a cross-engine correctness oracle:
//! the interpreter and the compiled kernel must agree bit-for-bit on the
//! engine-invariant projection ([`RoundMetrics::invariant`]), which
//! `tests/kernel_equivalence.rs` checks for every protocol in the
//! workspace.

use std::io::Write;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::time::Duration;

use crate::faults::FaultKind;
use crate::runner::CancelToken;

/// A sink for per-round engine events.
///
/// Implementations should keep [`Tracer::round`] cheap — it is called
/// once per synchronous round, never per node. The per-node cost of
/// tracing (neighbour-read and dispatch counting) is paid only when
/// [`Tracer::enabled`] returns `true`; steppers hoist that call out of
/// their hot loops, so a tracer whose `enabled` is a constant `false`
/// (like [`NullTracer`]) costs nothing at all.
///
/// The trait is dyn-compatible: `&mut dyn Tracer` works wherever a
/// concrete sink type would be awkward (CLI plumbing), at the price of a
/// virtual call per round.
pub trait Tracer {
    /// Whether this sink wants events. Steppers consult this once per
    /// round and skip all metric bookkeeping when it is `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// One synchronous round (or asynchronous sweep) completed.
    fn round(&mut self, metrics: &RoundMetrics);

    /// A fault surgery was applied (emitted by the campaign engine at the
    /// tick a fault fires; plain [`crate::Network`] fault injection is
    /// reported via [`RoundMetrics::faults`] instead).
    #[inline]
    fn fault(&mut self, surgery: &FaultSurgery) {
        let _ = surgery;
    }

    /// One shard's share of a sharded synchronous round (emitted by the
    /// sharded kernel only, *before* the round's [`Tracer::round`] event).
    ///
    /// Workers never call this. Per-shard counters are buffered in each
    /// shard's arena during the evaluation phase and the committing
    /// thread emits them in ascending shard order once the round's
    /// barrier has passed — so sinks (including line-oriented ones like
    /// [`JsonlTrace`]) see a deterministic, thread-count-independent
    /// event stream. Defaults to a no-op: sinks that only care about
    /// whole rounds ignore shards entirely.
    #[inline]
    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        let _ = metrics;
    }

    /// One round of a streaming churn run completed (emitted by the
    /// [`crate::churn`] harness *after* the round's [`Tracer::round`]
    /// event). Carries the churn-specific view of the round: events
    /// applied, population counts, recovery completions, and the
    /// continuous-oracle verdict when one was taken. Defaults to a no-op
    /// so existing sinks are unaffected.
    #[inline]
    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        let _ = metrics;
    }
}

/// The do-nothing sink: [`Tracer::enabled`] is a constant `false`, so
/// every traced stepper monomorphized with `NullTracer` compiles to the
/// untraced code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn round(&mut self, _metrics: &RoundMetrics) {}
}

/// Mutable references to tracers are tracers (lets callers keep ownership
/// of a sink while threading it through a [`crate::Runner`] or a
/// [`crate::Campaign`]). Also covers `&mut dyn Tracer`.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn round(&mut self, metrics: &RoundMetrics) {
        (**self).round(metrics);
    }

    #[inline]
    fn fault(&mut self, surgery: &FaultSurgery) {
        (**self).fault(surgery);
    }

    #[inline]
    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        (**self).shard_round(metrics);
    }

    #[inline]
    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        (**self).churn_round(metrics);
    }
}

/// What one synchronous round (or asynchronous sweep) did.
///
/// Engine-invariant fields — identical between the interpreter and the
/// compiled kernel for the same trajectory — are `round`, `eligible`,
/// `changes`, and `faults` (see [`Self::invariant`]). Scheduling fields
/// (`scheduled`, `activations`, `neighbor_reads`) legitimately differ:
/// the kernel's dirty-set scheduler skips provably-quiescent nodes, which
/// is the optimisation the metrics exist to measure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Cumulative round counter of the network after this round (sweep
    /// index within the run, for asynchronous sweeps).
    pub round: u64,
    /// Nodes that *could* activate: alive with at least one live
    /// neighbour. Purely topology-determined, hence engine-invariant.
    pub eligible: u64,
    /// Nodes the round scheduled: the dirty-set occupancy on a sparse
    /// kernel round, and `eligible` on the interpreter and on a kernel
    /// all-round (its first round, the round after a dense commit or an
    /// out-of-band write, and every round of a probabilistic protocol).
    /// Surgery reschedules only nodes that keep a neighbour, but a node
    /// isolated after it was marked stays scheduled and is not evaluated,
    /// so a sparse round can schedule more than `eligible`; `activations`
    /// never exceeds either.
    pub scheduled: u64,
    /// Nodes actually evaluated (transition computed). The interpreter
    /// evaluates every eligible node; the kernel may evaluate fewer.
    pub activations: u64,
    /// Activations that changed a node's state. Engine-invariant.
    pub changes: u64,
    /// Neighbour states read while tallying multisets (= the sum of
    /// degrees over evaluated nodes).
    pub neighbor_reads: u64,
    /// Activations the kernel looked up in its transition table over
    /// per-state count classes ([`crate::KernelPlan::Tabular`]).
    pub tabular: u64,
    /// Activations computed by the protocol's own code: a declared fold
    /// ([`crate::KernelPlan::Fold`]), a native `transition` call
    /// ([`crate::KernelPlan::Direct`]), or any interpreter activation.
    pub direct: u64,
    /// Topology surgeries applied to the network since the previous
    /// traced round: every [`FaultKind`] event that changed the graph,
    /// arrivals included.
    pub faults: u64,
}

impl RoundMetrics {
    /// The engine-invariant projection: `(round, eligible, changes,
    /// faults)`. Bit-identical between the interpreter and the compiled
    /// kernel on the same trajectory — the lockstep oracle in
    /// `tests/kernel_equivalence.rs` asserts exactly this.
    pub fn invariant(&self) -> (u64, u64, u64, u64) {
        (self.round, self.eligible, self.changes, self.faults)
    }

    /// One JSON-lines record (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"t\":\"round\",\"round\":{},\"eligible\":{},\"scheduled\":{},\
             \"activations\":{},\"changes\":{},\"neighbor_reads\":{},\
             \"tabular\":{},\"direct\":{},\"faults\":{}}}",
            self.round,
            self.eligible,
            self.scheduled,
            self.activations,
            self.changes,
            self.neighbor_reads,
            self.tabular,
            self.direct,
            self.faults
        )
    }
}

/// One shard's share of a sharded synchronous round.
///
/// The sharded kernel buffers these per-arena while workers evaluate and
/// emits them from the committing thread in ascending shard order, so the
/// event stream is deterministic regardless of thread count or scheduling
/// (see [`Tracer::shard_round`]). Summed over `0..shards`, the counters
/// equal the corresponding fields of the round's [`RoundMetrics`] —
/// `tests/shard_equivalence.rs` asserts exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRoundMetrics {
    /// Cumulative round counter of the network after this round.
    pub round: u64,
    /// This shard's index (`0..shards`).
    pub shard: u32,
    /// Total shard count of the round, so a single event is
    /// self-describing in a streamed trace.
    pub shards: u32,
    /// Nodes this shard was scheduled to evaluate: the entries of its
    /// worklist slice, or on an all-round the eligible nodes of its id
    /// range (which it evaluates, so this equals `activations`).
    pub scheduled: u64,
    /// Nodes this shard actually evaluated.
    pub activations: u64,
    /// Evaluations that proposed a state change.
    pub changes: u64,
    /// Neighbour states this shard read while tallying multisets. The
    /// per-shard spread of this field is the load-imbalance signal that
    /// the pooled evaluator's degree-weighted worklist cut flattens.
    pub neighbor_reads: u64,
}

impl ShardRoundMetrics {
    /// One JSON-lines record (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"t\":\"shard\",\"round\":{},\"shard\":{},\"shards\":{},\
             \"scheduled\":{},\"activations\":{},\"changes\":{},\
             \"neighbor_reads\":{}}}",
            self.round,
            self.shard,
            self.shards,
            self.scheduled,
            self.activations,
            self.changes,
            self.neighbor_reads
        )
    }
}

/// What one round of a streaming churn run did (emitted by the
/// [`crate::churn`] harness alongside the round's [`RoundMetrics`]).
///
/// `activations` and `changes` duplicate the corresponding
/// [`RoundMetrics`] fields so a churn trace is self-contained: the
/// recompute-work-per-event ratio (`BENCH_churn.json`) divides summed
/// `activations` by summed `arrivals + departures` without re-joining
/// two event streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnRoundMetrics {
    /// Cumulative round counter of the network after this round.
    pub round: u64,
    /// Arrival events (`add-node` / `add-edge`) applied before this
    /// round's step.
    pub arrivals: u64,
    /// Departure events (`node` / `edge` removals) applied before this
    /// round's step.
    pub departures: u64,
    /// Alive nodes after this round's events and step.
    pub alive: u64,
    /// Live edges after this round's events and step.
    pub edges: u64,
    /// Nodes the engine actually evaluated this round (the bounded
    /// recompute work the dirty-set scheduler admits).
    pub activations: u64,
    /// Activations that changed a node's state.
    pub changes: u64,
    /// If a churn burst finished reconverging this round: the number of
    /// rounds from the burst's round to quiescence (the recovery-time
    /// sample). `None` while converging or when nothing was pending.
    pub recovered_in: Option<u64>,
    /// Continuous-oracle verdict, when this round took one: whether the
    /// sliding window of recent snapshots was reasonably correct.
    /// `None` on rounds where the oracle was not consulted.
    pub oracle: Option<bool>,
}

impl ChurnRoundMetrics {
    /// One JSON-lines record (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let recovered = match self.recovered_in {
            Some(r) => r.to_string(),
            None => "null".to_owned(),
        };
        let oracle = match self.oracle {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        format!(
            "{{\"t\":\"churn\",\"round\":{},\"arrivals\":{},\"departures\":{},\
             \"alive\":{},\"edges\":{},\"activations\":{},\"changes\":{},\
             \"recovered_in\":{},\"oracle\":{}}}",
            self.round,
            self.arrivals,
            self.departures,
            self.alive,
            self.edges,
            self.activations,
            self.changes,
            recovered,
            oracle
        )
    }
}

/// A discrete fault-surgery event, emitted by the campaign engine and the
/// churn harness for every applied event: the tick (or round) it fired
/// at plus what died or joined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSurgery {
    /// The campaign tick (or round) at which the fault was applied.
    pub round: u64,
    /// What died or joined.
    pub kind: FaultKind,
}

impl FaultSurgery {
    /// One JSON-lines record (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let ids = match self.kind {
            FaultKind::Edge(u, v) | FaultKind::AddEdge(u, v) => format!("\"u\":{u},\"v\":{v}"),
            FaultKind::Node(v) | FaultKind::AddNode(v) => format!("\"v\":{v}"),
        };
        format!(
            "{{\"t\":\"fault\",\"round\":{},\"kind\":\"{}\",{ids}}}",
            self.round,
            self.kind.tag()
        )
    }
}

/// Whole-run aggregate of [`RoundMetrics`] — what an observed
/// [`crate::Runner`] run attaches to its [`crate::RunReport`].
///
/// All counter fields are sums over the run's rounds; `eligible` and
/// `scheduled` sum *per-round* values, so they count node-rounds, not
/// nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Rounds (or sweeps) aggregated.
    pub rounds: u64,
    /// Total eligible node-rounds.
    pub eligible: u64,
    /// Total scheduled node-rounds (dirty-set occupancy summed).
    pub scheduled: u64,
    /// Total activations.
    pub activations: u64,
    /// Total state changes.
    pub changes: u64,
    /// Total neighbour states read.
    pub neighbor_reads: u64,
    /// Total tabular-plan dispatches.
    pub tabular: u64,
    /// Total direct/native dispatches.
    pub direct: u64,
    /// Total fault surgeries applied.
    pub faults: u64,
    /// Largest single-round `scheduled` value (peak dirty-set occupancy).
    pub max_scheduled: u64,
}

impl RunMetrics {
    /// Folds one round event into the aggregate.
    pub fn absorb(&mut self, r: &RoundMetrics) {
        self.rounds += 1;
        self.eligible += r.eligible;
        self.scheduled += r.scheduled;
        self.activations += r.activations;
        self.changes += r.changes;
        self.neighbor_reads += r.neighbor_reads;
        self.tabular += r.tabular;
        self.direct += r.direct;
        self.faults += r.faults;
        self.max_scheduled = self.max_scheduled.max(r.scheduled);
    }

    /// Mean activations per round (0.0 for an empty run).
    pub fn activations_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.activations as f64 / self.rounds as f64
        }
    }

    /// Fraction of eligible node-rounds the scheduler *skipped*:
    /// `1 − activations / eligible`. On the interpreter this is 0; on the
    /// kernel's dirty path it measures how much work the dirty set saved
    /// (the "dirty-set hit rate" column of `BENCH_engine.json`).
    pub fn dirty_hit_rate(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            1.0 - self.activations as f64 / self.eligible as f64
        }
    }
}

/// The aggregating sink: folds every round into a [`RunMetrics`].
/// [`crate::Runner`] tees one of these alongside any user tracer to
/// enrich its report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// The aggregate so far.
    pub run: RunMetrics,
}

impl Tracer for Counters {
    fn round(&mut self, metrics: &RoundMetrics) {
        self.run.absorb(metrics);
    }
}

/// A keep-everything sink for tests and offline analysis.
#[derive(Clone, Debug, Default)]
pub struct RoundLog {
    /// Every round event, in order.
    pub rounds: Vec<RoundMetrics>,
    /// Every fault-surgery event, in order.
    pub faults: Vec<FaultSurgery>,
    /// Every per-shard event, in order (round-major, then shard-ascending
    /// — the order the sharded kernel guarantees).
    pub shards: Vec<ShardRoundMetrics>,
    /// Every churn-round event, in order.
    pub churns: Vec<ChurnRoundMetrics>,
}

impl Tracer for RoundLog {
    fn round(&mut self, metrics: &RoundMetrics) {
        self.rounds.push(*metrics);
    }

    fn fault(&mut self, surgery: &FaultSurgery) {
        self.faults.push(*surgery);
    }

    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        self.shards.push(*metrics);
    }

    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        self.churns.push(*metrics);
    }
}

/// A streaming JSON-lines sink: one `{"t":"round",...}` object per round
/// and one `{"t":"fault",...}` per surgery, in event order — the
/// replayable trace artifact `fssga-bench --trace-out` and
/// `fssga-chaos --trace-out` upload from CI.
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    out: W,
}

impl<W: Write> JsonlTrace<W> {
    /// A sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("flush jsonl trace");
        self.out
    }
}

impl<W: Write> Tracer for JsonlTrace<W> {
    fn round(&mut self, metrics: &RoundMetrics) {
        writeln!(self.out, "{}", metrics.to_jsonl()).expect("write jsonl trace");
    }

    fn fault(&mut self, surgery: &FaultSurgery) {
        writeln!(self.out, "{}", surgery.to_jsonl()).expect("write jsonl trace");
    }

    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        writeln!(self.out, "{}", metrics.to_jsonl()).expect("write jsonl trace");
    }

    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        writeln!(self.out, "{}", metrics.to_jsonl()).expect("write jsonl trace");
    }
}

/// A tracer that streams each event's JSONL line into a bounded
/// [`SyncSender`] channel — the sink behind `fssga-serve`'s incremental
/// per-round streaming: a worker thread runs the simulation with a
/// `ChannelTrace` while a connection thread drains the receiver and
/// writes frames to the client socket.
///
/// Flow control is cooperative, not blocking-forever:
///
/// * **Channel full** (slow consumer): the sink retries `try_send` with
///   a short sleep, re-checking the attached [`CancelToken`] between
///   attempts — so a run whose tracer is wedged on a stalled client
///   still stops when the token is cancelled or its deadline passes.
///   Once the token reads cancelled, further events are dropped
///   (counted in [`ChannelTrace::lost`]).
/// * **Receiver dropped** (client gone): the sink fires the token
///   itself, turning a disconnect into a prompt cooperative
///   cancellation, and drops subsequent events.
///
/// Without a token the full-channel retry spins until the consumer
/// drains (pure backpressure), and a disconnect silently drops events.
#[derive(Debug)]
pub struct ChannelTrace {
    tx: SyncSender<String>,
    cancel: Option<CancelToken>,
    lost: u64,
}

impl ChannelTrace {
    /// A sink sending every event line into `tx`.
    pub fn new(tx: SyncSender<String>) -> Self {
        Self {
            tx,
            cancel: None,
            lost: 0,
        }
    }

    /// As [`Self::new`], with a [`CancelToken`] that is both *consulted*
    /// (stop retrying once cancelled) and *fired* (when the receiver
    /// hangs up).
    pub fn with_cancel(tx: SyncSender<String>, cancel: CancelToken) -> Self {
        Self {
            tx,
            cancel: Some(cancel),
            lost: 0,
        }
    }

    /// Events dropped because the run was cancelled or the receiver
    /// disappeared.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Sends one line under the flow control above: the tracer's events
    /// go through here, and so can a caller's own final line.
    pub fn send(&mut self, mut line: String) {
        loop {
            match self.tx.try_send(line) {
                Ok(()) => return,
                Err(TrySendError::Full(l)) => {
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        self.lost += 1;
                        return;
                    }
                    line = l;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(TrySendError::Disconnected(_)) => {
                    if let Some(c) = &self.cancel {
                        c.cancel();
                    }
                    self.lost += 1;
                    return;
                }
            }
        }
    }
}

impl Tracer for ChannelTrace {
    fn round(&mut self, metrics: &RoundMetrics) {
        self.send(metrics.to_jsonl());
    }

    fn fault(&mut self, surgery: &FaultSurgery) {
        self.send(surgery.to_jsonl());
    }

    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        self.send(metrics.to_jsonl());
    }

    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        self.send(metrics.to_jsonl());
    }
}

/// Fans one event stream into two sinks (`Tee(a, b)` forwards to `a`
/// then `b`). Enabled iff either side is, so tracing work is done once
/// even when only one side listens.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Tracer, B: Tracer> Tracer for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn round(&mut self, metrics: &RoundMetrics) {
        self.0.round(metrics);
        self.1.round(metrics);
    }

    #[inline]
    fn fault(&mut self, surgery: &FaultSurgery) {
        self.0.fault(surgery);
        self.1.fault(surgery);
    }

    #[inline]
    fn shard_round(&mut self, metrics: &ShardRoundMetrics) {
        self.0.shard_round(metrics);
        self.1.shard_round(metrics);
    }

    #[inline]
    fn churn_round(&mut self, metrics: &ChurnRoundMetrics) {
        self.0.churn_round(metrics);
        self.1.churn_round(metrics);
    }
}

/// FNV-1a-style hash over state indices (one `u64` word per index): the
/// one final-state fingerprint shared by the service's `done` frames, the
/// bench's bit-identity asserts and the `BENCH_*.json` baselines, so
/// "bit-identical" means the same thing everywhere. Feed it
/// `net.states().iter().map(|s| s.index())`.
///
/// The multiplier is `0x1000_0000_01b3`, not the standard 64-bit FNV
/// prime `0x100_0000_01b3`; recorded fingerprints depend on it, so it
/// stays.
pub fn fingerprint(indices: impl Iterator<Item = usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in indices {
        h ^= i as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_pinned() {
        // Recorded `done` frames and BENCH_*.json fingerprints depend on
        // these exact values; a change here silently invalidates them.
        assert_eq!(fingerprint(std::iter::empty()), 0xcbf2_9ce4_8422_2325);
        let indices = [0usize, 1, 2, 3, 255, 65_535, 70_000];
        assert_eq!(fingerprint(indices.into_iter()), 0x96ed_80ab_2141_126d);
    }

    fn sample(round: u64) -> RoundMetrics {
        RoundMetrics {
            round,
            eligible: 10,
            scheduled: 4,
            activations: 3,
            changes: 2,
            neighbor_reads: 12,
            tabular: 3,
            direct: 0,
            faults: 1,
        }
    }

    #[test]
    fn null_tracer_is_disabled() {
        assert!(!NullTracer.enabled());
        let mut n = NullTracer;
        let r = &mut n;
        assert!(
            !<&mut NullTracer as Tracer>::enabled(&r),
            "blanket impl preserves it"
        );
    }

    #[test]
    fn counters_aggregate_rounds() {
        let mut c = Counters::default();
        c.round(&sample(1));
        c.round(&RoundMetrics {
            scheduled: 9,
            ..sample(2)
        });
        assert_eq!(c.run.rounds, 2);
        assert_eq!(c.run.eligible, 20);
        assert_eq!(c.run.activations, 6);
        assert_eq!(c.run.changes, 4);
        assert_eq!(c.run.faults, 2);
        assert_eq!(c.run.max_scheduled, 9);
        assert_eq!(c.run.activations_per_round(), 3.0);
        let hit = c.run.dirty_hit_rate();
        assert!((hit - 0.7).abs() < 1e-12, "1 - 6/20 = 0.7, got {hit}");
    }

    #[test]
    fn empty_run_metrics_are_finite() {
        let m = RunMetrics::default();
        assert_eq!(m.activations_per_round(), 0.0);
        assert_eq!(m.dirty_hit_rate(), 0.0);
    }

    #[test]
    fn jsonl_round_format_is_stable() {
        assert_eq!(
            sample(7).to_jsonl(),
            "{\"t\":\"round\",\"round\":7,\"eligible\":10,\"scheduled\":4,\
             \"activations\":3,\"changes\":2,\"neighbor_reads\":12,\
             \"tabular\":3,\"direct\":0,\"faults\":1}"
        );
    }

    #[test]
    fn jsonl_fault_format_is_stable() {
        let e = FaultSurgery {
            round: 3,
            kind: FaultKind::Edge(1, 2),
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"t\":\"fault\",\"round\":3,\"kind\":\"edge\",\"u\":1,\"v\":2}"
        );
        let n = FaultSurgery {
            round: 4,
            kind: FaultKind::Node(9),
        };
        assert_eq!(
            n.to_jsonl(),
            "{\"t\":\"fault\",\"round\":4,\"kind\":\"node\",\"v\":9}"
        );
    }

    #[test]
    fn jsonl_sink_streams_events_in_order() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.round(&sample(1));
        sink.fault(&FaultSurgery {
            round: 1,
            kind: FaultKind::Node(5),
        });
        sink.round(&sample(2));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"t\":\"round\"") && lines[0].contains("\"round\":1"));
        assert!(lines[1].contains("\"t\":\"fault\""));
        assert!(lines[2].contains("\"round\":2"));
    }

    #[test]
    fn tee_forwards_to_both_and_ors_enablement() {
        let mut tee = Tee(NullTracer, Counters::default());
        assert!(tee.enabled(), "counters side is live");
        tee.round(&sample(1));
        assert_eq!(tee.1.run.rounds, 1);
        let off = Tee(NullTracer, NullTracer);
        assert!(!off.enabled());
    }

    #[test]
    fn jsonl_shard_format_is_stable() {
        let s = ShardRoundMetrics {
            round: 2,
            shard: 1,
            shards: 4,
            scheduled: 8,
            activations: 7,
            changes: 3,
            neighbor_reads: 21,
        };
        assert_eq!(
            s.to_jsonl(),
            "{\"t\":\"shard\",\"round\":2,\"shard\":1,\"shards\":4,\
             \"scheduled\":8,\"activations\":7,\"changes\":3,\
             \"neighbor_reads\":21}"
        );
    }

    #[test]
    fn shard_events_route_to_logs_and_jsonl_but_not_counters() {
        let s = ShardRoundMetrics {
            round: 1,
            shard: 0,
            shards: 2,
            ..Default::default()
        };
        let mut log = RoundLog::default();
        log.shard_round(&s);
        assert_eq!(log.shards, vec![s]);

        let mut sink = JsonlTrace::new(Vec::new());
        sink.shard_round(&s);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\"t\":\"shard\""));

        // Counters aggregate whole rounds only: shard events are the
        // per-shard *decomposition* of a round, so folding them in too
        // would double-count.
        let mut tee = Tee(Counters::default(), RoundLog::default());
        tee.shard_round(&s);
        assert_eq!(tee.0.run, RunMetrics::default());
        assert_eq!(tee.1.shards.len(), 1);
    }

    #[test]
    fn invariant_projection_picks_engine_invariant_fields() {
        let m = sample(5);
        assert_eq!(m.invariant(), (5, 10, 2, 1));
    }

    #[test]
    fn jsonl_churn_format_is_stable() {
        let c = ChurnRoundMetrics {
            round: 9,
            arrivals: 2,
            departures: 1,
            alive: 40,
            edges: 77,
            activations: 6,
            changes: 3,
            recovered_in: Some(4),
            oracle: Some(true),
        };
        assert_eq!(
            c.to_jsonl(),
            "{\"t\":\"churn\",\"round\":9,\"arrivals\":2,\"departures\":1,\
             \"alive\":40,\"edges\":77,\"activations\":6,\"changes\":3,\
             \"recovered_in\":4,\"oracle\":true}"
        );
        let quiet = ChurnRoundMetrics {
            round: 10,
            alive: 40,
            edges: 77,
            ..Default::default()
        };
        assert_eq!(
            quiet.to_jsonl(),
            "{\"t\":\"churn\",\"round\":10,\"arrivals\":0,\"departures\":0,\
             \"alive\":40,\"edges\":77,\"activations\":0,\"changes\":0,\
             \"recovered_in\":null,\"oracle\":null}"
        );
    }

    #[test]
    fn channel_trace_streams_lines_and_cancels_on_disconnect() {
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let token = CancelToken::new();
        let mut sink = ChannelTrace::with_cancel(tx, token.clone());
        sink.round(&sample(1));
        assert_eq!(rx.recv().unwrap(), sample(1).to_jsonl());
        drop(rx);
        sink.round(&sample(2));
        assert!(token.is_cancelled(), "receiver hangup fires the token");
        assert_eq!(sink.lost(), 1);
    }

    #[test]
    fn channel_trace_drops_instead_of_blocking_once_cancelled() {
        let fired = CancelToken::new();
        fired.cancel();
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        for token in [fired, expired] {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let mut sink = ChannelTrace::with_cancel(tx, token);
            sink.round(&sample(1)); // fills the only slot
            sink.round(&sample(2)); // full + cancelled: dropped, no deadlock
            assert_eq!(sink.lost(), 1);
            assert_eq!(rx.try_iter().count(), 1, "only the first event landed");
        }
    }

    #[test]
    fn churn_events_route_to_logs_and_jsonl() {
        let c = ChurnRoundMetrics {
            round: 1,
            arrivals: 1,
            ..Default::default()
        };
        let mut log = RoundLog::default();
        log.churn_round(&c);
        assert_eq!(log.churns, vec![c]);

        let mut sink = JsonlTrace::new(Vec::new());
        sink.churn_round(&c);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\"t\":\"churn\""));

        // Tee fans churn events into both sides; a &mut reference
        // forwards them through the blanket impl.
        let mut tee = Tee(RoundLog::default(), RoundLog::default());
        let mut by_ref: &mut Tee<RoundLog, RoundLog> = &mut tee;
        Tracer::churn_round(&mut by_ref, &c);
        assert_eq!(tee.0.churns.len(), 1);
        assert_eq!(tee.1.churns.len(), 1);
    }
}
