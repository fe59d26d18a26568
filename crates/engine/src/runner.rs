//! The unified run facade: one builder for every execution mode —
//! synchronous rounds, the asynchronous activation policies of Section
//! 3.4, and fully adversarial orders:
//!
//! ```
//! use fssga_engine::{Budget, Network, Policy, Runner};
//! # use fssga_engine::{impl_state_space, NeighborView, Protocol};
//! # #[derive(Copy, Clone, PartialEq, Eq, Debug)]
//! # enum S { A, B }
//! # impl_state_space!(S { A, B });
//! # struct Flip;
//! # impl Protocol for Flip {
//! #     type State = S;
//! #     const COMPILED: bool = true;
//! #     fn transition(&self, o: S, n: &NeighborView<'_, S>, _c: u32) -> S {
//! #         if o == S::B || n.some(S::B) { S::B } else { S::A }
//! #     }
//! # }
//! # let g = fssga_graph::generators::path(4);
//! # let mut net = Network::new(&g, Flip, |v| if v == 0 { S::B } else { S::A });
//! let report = Runner::new(&mut net)
//!     .policy(Policy::Sync)
//!     .budget(Budget::Fixpoint(100))
//!     .seed(0)
//!     .run();
//! assert!(report.reached_fixpoint());
//! ```
//!
//! The runner also decides *how* to execute: with [`Engine::Auto`] (the
//! default), synchronous rounds of a protocol that opted in via
//! [`Protocol::COMPILED`] run on the [`crate::CompiledKernel`] — the
//! network's own states reduced row by row over its `DynGraph`
//! adjacency (a declared fold, a count-class automaton or a run-length
//! tally per row), with dirty-set scheduling that churn surgery keeps in
//! step — and everything else
//! runs on the interpreter. Trajectories
//! (states, change counts, fixpoint rounds) are bit-identical between
//! engines; only the `activations` metric differs (the kernel provably
//! skips no-op re-evaluations). [`Runner::threads`] spreads kernel
//! rounds over a worker pool with the same trajectory; the interpreter,
//! the reference oracle, always runs on the calling thread.
//!
//! # Observability
//!
//! Attach any [`Tracer`] with [`Runner::tracer`] to receive one
//! [`crate::RoundMetrics`] event per round (or per asynchronous sweep),
//! or call [`Runner::observed`] to just collect the aggregate: either way
//! the run's [`RunReport::metrics`] carries a [`RunMetrics`] summary.
//! Tracing is zero-cost when absent — the default [`NullTracer`] path
//! monomorphizes to the untraced steppers. Bounded state recording rides
//! the same hook: [`Runner::record`] snapshots into a [`History`] (which
//! can stride or decimate; see [`crate::history`]) at the start of the
//! run and after every round.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fssga_graph::rng::Xoshiro256;
use fssga_graph::NodeId;

use crate::history::History;
use crate::network::{Metrics, Network};
use crate::obs::{Counters, NullTracer, RoundMetrics, RunMetrics, Tee, Tracer};
use crate::protocol::Protocol;

/// A cheap, cloneable cancellation flag for cooperative run interruption,
/// with an optional wall-clock deadline.
///
/// Clones share one flag and one deadline: hand one clone to
/// [`Runner::cancel`] (or [`crate::ChurnOptions::cancel`]) and keep
/// another to call [`CancelToken::cancel`] from any thread. The run
/// stops at the next **round boundary** after the flag is set or the
/// deadline ([`CancelToken::with_deadline`]) passes, reporting
/// [`RunReport::cancelled`].
///
/// Round granularity is a deliberate safety choice, not a limitation:
/// a synchronous round — sharded or not — is the engine's atomic unit of
/// progress. Workers of a sharded round write proposals into per-shard
/// scratch arenas and nothing becomes visible until the committing
/// thread merges them in shard order; interrupting *between* rounds
/// therefore can never leave half-committed states or a torn dirty set
/// (see DESIGN.md §12 for the full argument).
/// The token is checked once per round (or per asynchronous
/// activation). Without a deadline a check is one relaxed atomic load;
/// with one it also reads the clock, until the first check past the
/// deadline sets the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<TokenState>);

/// What the clones of one [`CancelToken`] share.
#[derive(Debug, Default)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token without a deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that also reads cancelled once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self(Arc::new(TokenState {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }))
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has a deadline and it has passed.
    pub fn past_deadline(&self) -> bool {
        self.0.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.0.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let expired = self.past_deadline();
        if expired {
            self.cancel();
        }
        expired
    }
}

/// Which execution engine [`Runner`] uses for synchronous rounds.
/// (Asynchronous activations always run on the interpreter — single-node
/// activation is exactly what the interpreter is for.)
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Kernel if the protocol opted in ([`Protocol::COMPILED`]) and query
    /// recording is off; interpreter otherwise.
    #[default]
    Auto,
    /// Always the interpreter (per-activation `transition` calls).
    Interpreter,
    /// Always the compiled kernel. Panics if query recording is enabled.
    Kernel,
}

/// The multi-threaded kernel round
/// ([`Network::sync_step_kernel_sharded_seeded_traced`]), monomorphized by
/// [`Runner::threads`] where its `P: Sync` bounds hold, so the bound-free
/// [`Runner::run`] can dispatch to it without infecting every caller with
/// `Send + Sync` requirements.
type ShardedStep<P> = fn(&mut Network<P>, u64, usize, &mut dyn Tracer) -> usize;

/// Asynchronous activation orders. All three satisfy the paper's fairness
/// assumption ("each node activates at least once per unit time") in
/// expectation or deterministically; fully adversarial orders are
/// available through [`Policy::Order`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsyncPolicy {
    /// Each step activates a uniformly random alive node.
    UniformRandom,
    /// Repeated sweeps in fixed id order.
    RoundRobin,
    /// Repeated sweeps, each in a fresh random order.
    RandomPermutation,
}

/// Activation order.
#[derive(Clone, Copy, Debug, Default)]
pub enum Policy<'o> {
    /// Synchronous rounds (Definition 3.10's synchronous successor).
    #[default]
    Sync,
    /// Asynchronous single-node activations under a fairness policy.
    Async(AsyncPolicy),
    /// Fully adversarial: activate exactly these nodes, in this order.
    Order(&'o [NodeId]),
}

/// How much work to do.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many synchronous rounds (or asynchronous sweeps).
    Rounds(usize),
    /// Exactly this many single-node activations (asynchronous policies
    /// only).
    Steps(usize),
    /// Run until a round (or sweep) changes nothing, up to this many.
    Fixpoint(usize),
}

/// What a [`Runner`] did. All counters cover this run only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Synchronous rounds or asynchronous sweeps executed.
    pub rounds: usize,
    /// Node activations performed (kernel runs count only re-evaluated
    /// nodes; see [`Metrics`]).
    pub activations: u64,
    /// Activations that changed a node's state.
    pub changes: u64,
    /// The 1-based round/sweep at which a fixpoint (no changes) was first
    /// observed, if any. For an empty asynchronous sweep set this is
    /// `Some(1)` (vacuous fixpoint).
    pub fixpoint: Option<usize>,
    /// Whether the run stopped early because its [`CancelToken`] fired
    /// (always at a round/activation boundary — never mid-round). All
    /// other counters cover the work actually done before the stop.
    pub cancelled: bool,
    /// Raw counter delta for this run.
    pub counters: Metrics,
    /// Aggregated per-round metrics — present iff the run was observed
    /// (a tracer was attached or [`Runner::observed`] was called).
    pub metrics: Option<RunMetrics>,
}

impl RunReport {
    /// Whether the run observed a quiescent round/sweep.
    pub fn reached_fixpoint(&self) -> bool {
        self.fixpoint.is_some()
    }
}

/// Builder for a single run. See the [module docs](self) for engine
/// selection and the observability hooks.
pub struct Runner<'n, 'r, 'o, 'h, P: Protocol, T: Tracer = NullTracer> {
    net: &'n mut Network<P>,
    policy: Policy<'o>,
    budget: Budget,
    seed: u64,
    rng: Option<&'r mut Xoshiro256>,
    engine: Engine,
    tracer: T,
    record: Option<&'h mut History<P::State>>,
    observe: bool,
    cancel: Option<CancelToken>,
    /// Thread count for kernel rounds; set by [`Self::threads`] together
    /// with the round it dispatches to.
    threads: usize,
    sharded: Option<ShardedStep<P>>,
}

impl<'n, P: Protocol> Runner<'n, '_, '_, '_, P, NullTracer> {
    /// A runner over `net` with defaults: synchronous rounds, fixpoint
    /// budget of 1 000 000, seed 0, engine [`Engine::Auto`], no tracer.
    pub fn new(net: &'n mut Network<P>) -> Self {
        Self {
            net,
            policy: Policy::Sync,
            budget: Budget::Fixpoint(1_000_000),
            seed: 0,
            rng: None,
            engine: Engine::Auto,
            tracer: NullTracer,
            record: None,
            observe: false,
            cancel: None,
            threads: 1,
            sharded: None,
        }
    }
}

impl<'n, 'r, 'o, 'h, P: Protocol, T: Tracer> Runner<'n, 'r, 'o, 'h, P, T> {
    /// Sets the activation order.
    pub fn policy(mut self, policy: Policy<'o>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the work budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Seeds the runner's own RNG (ignored if [`Self::rng`] is given).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Draws all randomness (round seeds, coins, activation orders) from
    /// an external generator instead of a run-local one — for callers
    /// that interleave runs with other seeded decisions (fault
    /// campaigns).
    pub fn rng(mut self, rng: &'r mut Xoshiro256) -> Self {
        self.rng = Some(rng);
        self
    }

    /// Selects the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a per-round event sink (pass `&mut sink` to keep
    /// ownership). The run is then observed: the report additionally
    /// carries a [`RunMetrics`] aggregate.
    pub fn tracer<T2: Tracer>(self, tracer: T2) -> Runner<'n, 'r, 'o, 'h, P, T2> {
        Runner {
            net: self.net,
            policy: self.policy,
            budget: self.budget,
            seed: self.seed,
            rng: self.rng,
            engine: self.engine,
            tracer,
            record: self.record,
            observe: self.observe,
            cancel: self.cancel,
            threads: self.threads,
            sharded: self.sharded,
        }
    }

    /// Observes the run without an external sink: collects the
    /// [`RunMetrics`] aggregate into [`RunReport::metrics`].
    pub fn observed(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Attaches a cooperative [`CancelToken`]: the run stops at the next
    /// round (or activation) boundary after the token fires and the
    /// report carries [`RunReport::cancelled`]. Pass a clone and keep
    /// the original to cancel from another thread (a client-disconnect
    /// handler); a token built with [`CancelToken::with_deadline`] also
    /// stops the run once its deadline passes.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Snapshots states into `history` at the start of the run and after
    /// every synchronous round / asynchronous sweep (once at the end for
    /// step- and order-driven runs). Use a strided or capped [`History`]
    /// to bound memory on long runs.
    pub fn record(mut self, history: &'h mut History<P::State>) -> Self {
        self.record = Some(history);
        self
    }

    fn use_kernel(&self) -> bool {
        match self.engine {
            Engine::Auto => P::COMPILED && !self.net.recording_enabled(),
            Engine::Interpreter => false,
            Engine::Kernel => true,
        }
    }

    /// Executes the run.
    pub fn run(self) -> RunReport {
        let kernel = self.use_kernel();
        let step = SyncStep {
            kernel,
            threads: self.threads,
            sharded: self.sharded.filter(|_| kernel && self.threads > 1),
        };
        let observe = self.observe || self.tracer.enabled();
        let Runner {
            net,
            policy,
            budget,
            seed,
            rng,
            mut tracer,
            record,
            cancel,
            ..
        } = self;
        if observe {
            let mut counters = Counters::default();
            let mut tee = Tee(&mut tracer, &mut counters);
            let mut report = run_core(
                net, policy, budget, seed, rng, record, cancel, &mut tee, step,
            );
            report.metrics = Some(counters.run);
            report
        } else {
            run_core(
                net,
                policy,
                budget,
                seed,
                rng,
                record,
                cancel,
                &mut NullTracer,
                step,
            )
        }
    }
}

impl<P, T> Runner<'_, '_, '_, '_, P, T>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
    T: Tracer,
{
    /// Runs kernel rounds over `threads` threads (clamped to at least 1):
    /// each round's worklist is cut into one contiguous, degree-weighted
    /// slice per thread and evaluated over a persistent
    /// [`crate::ShardPool`]. The trajectory is **bit-identical** to the
    /// single-threaded run: coins derive from `(round_seed, node)` and the
    /// slices' results commit in worklist order, as one thread's do.
    /// Interpreter runs ignore the thread count.
    ///
    /// This is the only builder knob requiring `P: Sync` — it captures
    /// the monomorphized multi-threaded round here so [`Self::run`]
    /// itself stays free of `Send + Sync` bounds.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.sharded = Some(|net, round_seed, threads, mut t| {
            net.sync_step_kernel_sharded_seeded_traced(round_seed, threads, &mut t)
        });
        self
    }
}

/// How a run performs one synchronous round: the multi-threaded kernel
/// when [`Runner::threads`] asked for more than one thread, else the
/// 1-thread kernel or the interpreter. Generic over the tracer, so traced
/// and untraced runs share it.
struct SyncStep<P: Protocol> {
    kernel: bool,
    threads: usize,
    sharded: Option<ShardedStep<P>>,
}

impl<P: Protocol> SyncStep<P> {
    fn round<Tr: Tracer>(&self, net: &mut Network<P>, round_seed: u64, tracer: &mut Tr) -> usize {
        match self.sharded {
            Some(step) => step(net, round_seed, self.threads, tracer),
            None if self.kernel => net.sync_step_kernel_seeded_traced(round_seed, tracer),
            None => net.sync_step_seeded_traced(round_seed, tracer),
        }
    }
}

/// The shared driver: `step` performs one synchronous round; everything
/// else (budgets, async sweeps, history recording, reporting) is
/// engine-independent. Asynchronous sweeps are
/// traced here (per sweep) since individual activations have no round
/// structure of their own; step- and order-driven runs emit one
/// aggregate event with `round == 0`.
#[allow(clippy::too_many_arguments)]
fn run_core<P: Protocol, Tr: Tracer>(
    net: &mut Network<P>,
    policy: Policy<'_>,
    budget: Budget,
    seed: u64,
    rng: Option<&mut Xoshiro256>,
    mut record: Option<&mut History<P::State>>,
    cancel: Option<CancelToken>,
    tracer: &mut Tr,
    step: SyncStep<P>,
) -> RunReport {
    let before = net.metrics.clone();
    let tr = tracer.enabled();
    // One token check per round/activation boundary (a relaxed load, and
    // a clock read if the token has a deadline); `None` folds to a
    // constant `false`.
    let mut cancelled = false;
    let stop = |cancelled: &mut bool| -> bool {
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            *cancelled = true;
        }
        *cancelled
    };
    let mut local_rng;
    let rng: &mut Xoshiro256 = match rng {
        Some(r) => r,
        None => {
            local_rng = Xoshiro256::seed_from_u64(seed);
            &mut local_rng
        }
    };
    if let Some(h) = record.as_deref_mut() {
        h.record(net);
    }
    let mut rounds = 0usize;
    let mut fixpoint: Option<usize> = None;
    match policy {
        Policy::Sync => {
            let (max_rounds, stop_at_fixpoint) = match budget {
                Budget::Rounds(k) => (k, false),
                Budget::Fixpoint(k) => (k, true),
                Budget::Steps(_) => panic!(
                    "Budget::Steps counts single activations; \
                     synchronous execution needs Budget::Rounds or Budget::Fixpoint"
                ),
            };
            for round in 1..=max_rounds {
                if stop(&mut cancelled) {
                    break;
                }
                let round_seed = if P::RANDOMNESS > 1 { rng.next_u64() } else { 0 };
                let changed = step.round(net, round_seed, tracer);
                rounds = round;
                if let Some(h) = record.as_deref_mut() {
                    h.record(net);
                }
                if changed == 0 {
                    fixpoint.get_or_insert(round);
                    if stop_at_fixpoint {
                        break;
                    }
                }
            }
        }
        Policy::Async(policy) => match budget {
            Budget::Steps(steps) => {
                // Activations land on *alive* nodes only; dead slots
                // would dilute the budget (their "activation" is a
                // no-op). Topology cannot change during the run, so
                // the alive set is computed once.
                let alive: Vec<NodeId> = net.graph().alive_nodes().collect();
                let mut reads = 0u64;
                if !alive.is_empty() {
                    let n = alive.len();
                    match policy {
                        AsyncPolicy::UniformRandom => {
                            for _ in 0..steps {
                                if stop(&mut cancelled) {
                                    break;
                                }
                                let v = alive[rng.gen_index(n)];
                                if tr && net.can_activate(v) {
                                    reads += net.graph().degree(v) as u64;
                                }
                                net.activate(v, rng);
                            }
                        }
                        AsyncPolicy::RoundRobin => {
                            for i in 0..steps {
                                if stop(&mut cancelled) {
                                    break;
                                }
                                let v = alive[i % n];
                                if tr && net.can_activate(v) {
                                    reads += net.graph().degree(v) as u64;
                                }
                                net.activate(v, rng);
                            }
                        }
                        AsyncPolicy::RandomPermutation => {
                            let mut order = alive;
                            let mut idx = order.len(); // reshuffle first
                            for _ in 0..steps {
                                if stop(&mut cancelled) {
                                    break;
                                }
                                if idx == order.len() {
                                    rng.shuffle(&mut order);
                                    idx = 0;
                                }
                                let v = order[idx];
                                idx += 1;
                                if tr && net.can_activate(v) {
                                    reads += net.graph().degree(v) as u64;
                                }
                                net.activate(v, rng);
                            }
                        }
                    }
                }
                if tr {
                    emit_aggregate(net, tracer, &before, 0, steps as u64, reads);
                }
            }
            Budget::Rounds(sweeps) | Budget::Fixpoint(sweeps) => {
                let stop_at_fixpoint = matches!(budget, Budget::Fixpoint(_));
                if stop_at_fixpoint {
                    assert!(
                        policy != AsyncPolicy::UniformRandom,
                        "fixpoint detection needs sweep-based policies"
                    );
                }
                let alive: Vec<NodeId> = net.graph().alive_nodes().collect();
                let mut order = alive.clone();
                if order.is_empty() {
                    fixpoint = Some(1);
                } else {
                    for sweep in 1..=sweeps {
                        if stop(&mut cancelled) {
                            break;
                        }
                        match policy {
                            AsyncPolicy::RandomPermutation => rng.shuffle(&mut order),
                            // A uniform-random "sweep" is |alive|
                            // independent draws (no fairness
                            // guarantee — hence no fixpoint mode).
                            AsyncPolicy::UniformRandom => {
                                for slot in order.iter_mut() {
                                    *slot = alive[rng.gen_index(alive.len())];
                                }
                            }
                            AsyncPolicy::RoundRobin => {}
                        }
                        let sweep_before = net.metrics.clone();
                        let mut reads = 0u64;
                        let mut changed = false;
                        for &v in &order {
                            if tr && net.can_activate(v) {
                                reads += net.graph().degree(v) as u64;
                            }
                            if net.activate(v, rng) {
                                changed = true;
                            }
                        }
                        rounds = sweep;
                        if let Some(h) = record.as_deref_mut() {
                            h.record(net);
                        }
                        if tr {
                            emit_aggregate(
                                net,
                                tracer,
                                &sweep_before,
                                sweep as u64,
                                order.len() as u64,
                                reads,
                            );
                        }
                        if !changed {
                            fixpoint.get_or_insert(sweep);
                            if stop_at_fixpoint {
                                break;
                            }
                        }
                    }
                }
            }
        },
        Policy::Order(order) => {
            let mut reads = 0u64;
            for &v in order {
                if stop(&mut cancelled) {
                    break;
                }
                if tr && net.can_activate(v) {
                    reads += net.graph().degree(v) as u64;
                }
                net.activate(v, rng);
            }
            if tr {
                emit_aggregate(net, tracer, &before, 0, order.len() as u64, reads);
            }
        }
    }
    // Step- and order-driven runs have no per-round hook; snapshot once
    // at the end (sync rounds and async sweeps recorded above).
    let tail_record = matches!(policy, Policy::Order(_))
        || (matches!(policy, Policy::Async(_)) && matches!(budget, Budget::Steps(_)));
    if tail_record {
        if let Some(h) = record {
            h.record(net);
        }
    }
    let counters = net.metrics.since(&before);
    RunReport {
        rounds,
        activations: counters.activations,
        changes: counters.changes,
        fixpoint,
        cancelled,
        counters,
        metrics: None,
    }
}

/// Emits one asynchronous-phase [`RoundMetrics`] event: activation and
/// change counts come from the network's counter delta, eligibility is
/// not re-derived (individual activations have no synchronous-round
/// eligibility semantics), and every interpreter activation is a direct
/// dispatch.
fn emit_aggregate<P: Protocol, Tr: Tracer>(
    net: &mut Network<P>,
    tracer: &mut Tr,
    since: &Metrics,
    round: u64,
    scheduled: u64,
    reads: u64,
) {
    let delta = net.metrics.since(since);
    let faults = net.take_pending_faults();
    tracer.round(&RoundMetrics {
        round,
        eligible: delta.activations,
        scheduled,
        activations: delta.activations,
        changes: delta.changes,
        neighbor_reads: reads,
        tabular: 0,
        direct: delta.activations,
        faults,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;
    use crate::protocol::StateSpace;
    use crate::view::NeighborView;
    use fssga_graph::generators;
    use std::time::Duration;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Tick {
        A,
        B,
    }
    impl_state_space!(Tick { A, B });

    /// Oscillates forever: no fixpoint, so budgets and cancellation are
    /// the only ways out.
    struct Osc;
    impl Protocol for Osc {
        type State = Tick;
        fn transition(&self, own: Tick, _n: &NeighborView<'_, Tick>, _c: u32) -> Tick {
            match own {
                Tick::A => Tick::B,
                Tick::B => Tick::A,
            }
        }
    }

    #[test]
    fn pre_fired_token_stops_before_any_round() {
        let g = fssga_graph::generators::path(4);
        let fired = CancelToken::new();
        fired.cancel();
        let expired = CancelToken::with_deadline(Instant::now());
        for token in [fired, expired] {
            let mut net = Network::new(&g, Osc, |_| Tick::A);
            let report = Runner::new(&mut net)
                .budget(Budget::Rounds(100))
                .cancel(token)
                .run();
            assert!(report.cancelled);
            assert_eq!(report.rounds, 0);
            assert_eq!(report.activations, 0);
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let g = generators::path(10);
        let run = |cancel: Option<CancelToken>| {
            let mut net = infected_net(&g);
            let mut r = Runner::new(&mut net).budget(Budget::Fixpoint(100));
            if let Some(token) = cancel {
                r = r.cancel(token);
            }
            let report = r.run();
            let fp = crate::fingerprint(net.states().iter().map(|s| s.index()));
            (report, fp)
        };
        let plain = run(None);
        assert_eq!(plain.0.fixpoint, Some(10));
        assert!(!plain.0.cancelled);
        let distant = Instant::now() + Duration::from_secs(3600);
        for token in [CancelToken::new(), CancelToken::with_deadline(distant)] {
            assert_eq!(run(Some(token)), plain);
        }
    }

    #[test]
    fn async_sweeps_observe_cancellation() {
        let g = fssga_graph::generators::cycle(6);
        let mut net = Network::new(&g, Osc, |_| Tick::A);
        let token = CancelToken::new();
        token.cancel();
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Steps(1000))
            .cancel(token)
            .run();
        assert!(report.cancelled);
        assert_eq!(report.activations, 0);
    }

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Infect {
        Healthy,
        Infected,
    }
    impl_state_space!(Infect { Healthy, Infected });

    struct Spread;
    impl Protocol for Spread {
        type State = Infect;
        const COMPILED: bool = true;
        fn transition(&self, own: Infect, nbrs: &NeighborView<'_, Infect>, _c: u32) -> Infect {
            if own == Infect::Infected || nbrs.some(Infect::Infected) {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        }
    }

    fn infected_net(g: &fssga_graph::Graph) -> Network<Spread> {
        Network::new(g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        })
    }

    fn all_infected(net: &Network<Spread>) -> bool {
        net.states().iter().all(|&s| s == Infect::Infected)
    }

    #[test]
    fn sync_fixpoint_on_path() {
        let g = generators::path(10);
        let mut net = infected_net(&g);
        // 9 spreading rounds + 1 quiescent round.
        let report = Runner::new(&mut net).budget(Budget::Fixpoint(100)).run();
        assert_eq!(report.fixpoint, Some(10));
        assert_eq!(report.rounds, 10);
        assert!(all_infected(&net));
    }

    #[test]
    fn sync_fixpoint_budget_exceeded() {
        let g = generators::path(10);
        let mut net = infected_net(&g);
        let report = Runner::new(&mut net).budget(Budget::Fixpoint(3)).run();
        assert_eq!(report.fixpoint, None);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn kernel_and_interpreter_engines_agree() {
        let g = generators::grid(6, 6);
        let mut a = infected_net(&g);
        let mut b = infected_net(&g);
        let ra = Runner::new(&mut a)
            .engine(Engine::Interpreter)
            .budget(Budget::Fixpoint(100))
            .run();
        let rb = Runner::new(&mut b)
            .engine(Engine::Kernel)
            .budget(Budget::Fixpoint(100))
            .run();
        assert_eq!(ra.fixpoint, rb.fixpoint);
        assert_eq!(ra.changes, rb.changes);
        assert_eq!(a.states(), b.states());
        assert!(
            rb.activations <= ra.activations,
            "dirty-set never evaluates more"
        );
    }

    #[test]
    fn round_robin_sweeps_converge() {
        let g = generators::cycle(12);
        let mut net = infected_net(&g);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Fixpoint(100))
            .rng(&mut rng)
            .run();
        // Round-robin in id order spreads clockwise a full arc per sweep,
        // so very few sweeps are needed — but at least 2 (last is quiet).
        assert!(report.fixpoint.expect("converges") >= 2);
        assert!(all_infected(&net));
    }

    #[test]
    fn random_permutation_sweeps_converge() {
        let g = generators::grid(5, 5);
        let mut net = infected_net(&g);
        let mut rng = Xoshiro256::seed_from_u64(10);
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RandomPermutation))
            .budget(Budget::Fixpoint(200))
            .rng(&mut rng)
            .run();
        assert!(report.reached_fixpoint());
        assert!(all_infected(&net));
    }

    #[test]
    fn uniform_random_eventually_spreads() {
        let g = generators::path(6);
        let mut net = infected_net(&g);
        let mut rng = Xoshiro256::seed_from_u64(11);
        Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::UniformRandom))
            .budget(Budget::Steps(10_000))
            .rng(&mut rng)
            .run();
        assert!(all_infected(&net));
    }

    #[test]
    #[should_panic(expected = "sweep-based")]
    fn uniform_random_fixpoint_rejected() {
        let g = generators::path(3);
        let mut net = infected_net(&g);
        let _ = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::UniformRandom))
            .budget(Budget::Fixpoint(10))
            .run();
    }

    #[test]
    #[should_panic(expected = "Budget::Steps")]
    fn sync_step_budget_rejected() {
        let g = generators::path(3);
        let mut net = infected_net(&g);
        let _ = Runner::new(&mut net).budget(Budget::Steps(10)).run();
    }

    #[test]
    fn dead_nodes_do_not_dilute_step_budgets() {
        // Kill an interior node: a 5-step round-robin budget must perform
        // 5 real activations over the 5 survivors, not 4 + a wasted slot.
        let g = generators::path(6);
        let mut net = infected_net(&g);
        net.remove_node(3);
        let mut rng = Xoshiro256::seed_from_u64(20);
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Steps(5))
            .rng(&mut rng)
            .run();
        assert_eq!(report.activations, 5, "every step hits an alive node");
        // Same for the random policies: budgets land on alive nodes only.
        for policy in [AsyncPolicy::UniformRandom, AsyncPolicy::RandomPermutation] {
            let mut net = infected_net(&g);
            net.remove_node(3);
            let report = Runner::new(&mut net)
                .policy(Policy::Async(policy))
                .budget(Budget::Steps(50))
                .rng(&mut rng)
                .run();
            assert_eq!(report.activations, 50, "{policy:?}");
        }
    }

    #[test]
    fn fixpoint_sweeps_skip_dead_nodes() {
        let g = generators::path(8);
        let mut net = infected_net(&g);
        net.remove_node(7); // leaf: the rest still converges
        let mut rng = Xoshiro256::seed_from_u64(21);
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Fixpoint(100))
            .rng(&mut rng)
            .run();
        assert!(report.reached_fixpoint());
        let infected = net
            .states()
            .iter()
            .take(7)
            .filter(|&&s| s == Infect::Infected)
            .count();
        assert_eq!(infected, 7);
        // A sweep over an all-dead graph terminates immediately.
        let mut net = infected_net(&g);
        for v in 0..8 {
            net.remove_node(v);
        }
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Fixpoint(10))
            .rng(&mut rng)
            .run();
        assert_eq!(report.fixpoint, Some(1));
        assert_eq!(report.activations, 0);
    }

    #[test]
    fn adversarial_order_can_stall_or_finish() {
        let g = generators::path(4);
        // Worst order: far end first — nothing to see, no spread beyond 1.
        let mut net = infected_net(&g);
        let report = Runner::new(&mut net)
            .policy(Policy::Order(&[3, 2, 1]))
            .run();
        assert_eq!(report.changes, 1, "only node 1 sees the infection");
        // Best order: 1, 2, 3 — full spread in one pass.
        let mut net2 = infected_net(&g);
        let report2 = Runner::new(&mut net2)
            .policy(Policy::Order(&[1, 2, 3]))
            .run();
        assert_eq!(report2.changes, 3);
        assert!(all_infected(&net2));
    }

    #[test]
    fn run_rounds_counts_changes() {
        let g = generators::path(5);
        let mut net = infected_net(&g);
        let mut rng = Xoshiro256::seed_from_u64(14);
        let report = Runner::new(&mut net)
            .budget(Budget::Rounds(2))
            .rng(&mut rng)
            .run();
        assert_eq!(report.changes, 2);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.fixpoint, None, "no quiescent round seen yet");
    }

    #[test]
    fn async_sweep_rounds_budget_runs_exactly_k() {
        let g = generators::path(12);
        let mut net = infected_net(&g);
        let mut rng = Xoshiro256::seed_from_u64(15);
        let report = Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RoundRobin))
            .budget(Budget::Rounds(3))
            .rng(&mut rng)
            .run();
        assert_eq!(report.rounds, 3);
        assert_eq!(report.activations, 36);
    }
}
