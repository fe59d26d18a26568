//! A network of identical automata: graph + per-node states + the O(deg)
//! activation machinery.

use std::cell::RefCell;

use fssga_core::multiset::Multiset;
use fssga_graph::rng::{SplitMix64, Xoshiro256};
use fssga_graph::{DynGraph, Graph, NodeId};

use crate::faults::FaultKind;
use crate::kernel::{CompiledKernel, Evaluate, Inline, KernelPlan};
use crate::obs::{NullTracer, RoundMetrics, Tracer};
use crate::pool::ShardPool;
use crate::protocol::{Protocol, StateSpace};
use crate::view::{NeighborView, QueryRecorder};

/// The coin a node draws in a synchronous round: a pure function of
/// `(round_seed, node, r)`, shared by the interpreter, the compiled kernel
/// on any thread count, and the table-level interpreter so that all of
/// them agree bit-for-bit.
#[inline]
pub fn round_coin(round_seed: u64, v: NodeId, r: u32) -> u32 {
    if r <= 1 {
        return 0;
    }
    let mut sm = SplitMix64::new(round_seed ^ (v as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    (sm.next_u64() % r as u64) as u32
}

/// Execution counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Individual node activations performed.
    pub activations: u64,
    /// Synchronous rounds performed.
    pub rounds: u64,
    /// Activations that changed the node's state.
    pub changes: u64,
}

impl Metrics {
    /// Field-wise difference `self - earlier`. The counters are monotone,
    /// so this is the cost of everything executed since `earlier` was
    /// cloned — what [`crate::RunReport`] reports per run.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            activations: self.activations - earlier.activations,
            rounds: self.rounds - earlier.rounds,
            changes: self.changes - earlier.changes,
        }
    }
}

/// A graph whose every node runs the same [`Protocol`] automaton.
///
/// The graph is a [`DynGraph`]: the paper's *decreasing benign faults*
/// (edge/node deletion) can be injected mid-run. A node with no remaining
/// neighbours never activates — an SM function's domain is `Q^+`, so a
/// degree-0 node has nothing to read and simply holds its state; dead
/// nodes likewise freeze.
pub struct Network<P: Protocol> {
    protocol: P,
    graph: DynGraph,
    states: Vec<P::State>,
    /// The second state buffer, always as long as `states`: the write
    /// target of interpreter rounds and of kernel all-rounds, which fill
    /// every slot and then swap it with `states`. Its contents are
    /// meaningless between rounds.
    next: Vec<P::State>,
    scratch: Vec<u32>,
    touched: Vec<u32>,
    recorder: Option<RefCell<QueryRecorder>>,
    /// Compiled execution engine, built on demand (see
    /// [`Self::ensure_kernel`]). Every state write outside it
    /// (interpreter rounds, async activations, [`Self::set_state`])
    /// makes its next round an all-round (`mark_kernel_stale`).
    kernel: Option<CompiledKernel<P>>,
    /// Fault surgeries applied since the last *traced* round; drained
    /// into [`RoundMetrics::faults`] by the traced steppers and left
    /// untouched otherwise.
    pending_faults: u64,
    /// Persistent worker pool for sharded rounds — built on first use,
    /// rebuilt when the requested thread count changes, parked between
    /// rounds so sharded stepping pays no spawn cost per round.
    pool: Option<ShardPool>,
    /// Execution counters (public for instrumentation).
    ///
    /// `rounds` and `changes` agree bit-for-bit between the interpreter
    /// and kernel paths. `activations` does not: the kernel's dirty-set
    /// scheduler skips nodes whose neighbourhood is unchanged (they
    /// provably would not change state), so it reports *fewer*
    /// activations for the same trajectory.
    pub metrics: Metrics,
}

impl<P: Protocol> Network<P> {
    /// Builds a network over `graph`, with per-node initial states from
    /// `init` (this is where distinguished roles — originator, target,
    /// sink membership — enter, per the paper's per-algorithm setups).
    pub fn new(graph: &Graph, protocol: P, mut init: impl FnMut(NodeId) -> P::State) -> Self {
        let n = graph.n();
        let states: Vec<P::State> = (0..n as NodeId).map(&mut init).collect();
        Self {
            protocol,
            graph: DynGraph::from_graph(graph),
            next: states.clone(),
            states,
            scratch: vec![0; P::State::COUNT],
            touched: Vec::with_capacity(64),
            recorder: None,
            kernel: None,
            pending_faults: 0,
            pool: None,
            metrics: Metrics::default(),
        }
    }

    /// Like [`Self::new`], but compiles the execution kernel eagerly at
    /// construction (the [`crate::Runner`] otherwise builds it on first
    /// use).
    pub fn new_compiled(graph: &Graph, protocol: P, init: impl FnMut(NodeId) -> P::State) -> Self {
        let mut net = Self::new(graph, protocol, init);
        net.ensure_kernel();
        net
    }

    /// Number of node slots.
    pub fn n(&self) -> usize {
        self.graph.n_slots()
    }

    /// The current (possibly fault-reduced) topology.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All node states (dead nodes keep their last state).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The state of node `v`.
    pub fn state(&self, v: NodeId) -> P::State {
        self.states[v as usize]
    }

    /// Overwrites the state of node `v` (test setup, oracles).
    pub fn set_state(&mut self, v: NodeId, s: P::State) {
        self.states[v as usize] = s;
        self.mark_kernel_stale();
    }

    /// A state write outside the kernel breaks its dirty-set invariant,
    /// so its next round re-evaluates every node.
    fn mark_kernel_stale(&mut self) {
        if let Some(kernel) = &mut self.kernel {
            kernel.mark_all_dirty();
        }
    }

    /// Compiles the execution kernel for the current topology if not
    /// already built. Idempotent; cheap to call before every kernel
    /// round.
    pub fn ensure_kernel(&mut self) {
        if self.kernel.is_none() {
            self.kernel = Some(CompiledKernel::new(self));
        }
    }

    /// Discards any compiled kernel and rebuilds one from scratch on the
    /// current topology: a fresh plan and dirty set with every node
    /// scheduled. This is the from-scratch baseline the churn bench and
    /// the incremental-repair equivalence tests race against the
    /// in-place kernel updates of [`Self::add_edge`],
    /// [`Self::remove_edge`] and the other surgeries.
    pub fn rebuild_kernel(&mut self) {
        self.kernel = None;
        self.ensure_kernel();
    }

    /// The compiled kernel, if one has been built.
    pub fn kernel(&self) -> Option<&CompiledKernel<P>> {
        self.kernel.as_ref()
    }

    /// Which evaluation plan the compiled kernel selected, if built.
    pub fn kernel_plan(&self) -> Option<KernelPlan> {
        self.kernel.as_ref().map(|k| k.plan())
    }

    /// Starts recording the mod/thresh queries the protocol performs.
    pub fn enable_recording(&mut self) {
        self.recorder = Some(RefCell::new(QueryRecorder::new(P::State::COUNT)));
    }

    /// The recorded queries so far, if recording is enabled.
    pub fn recorded_queries(&self) -> Option<QueryRecorder> {
        self.recorder.as_ref().map(|r| r.borrow().clone())
    }

    /// Removes an edge (a benign fault). Returns whether it existed.
    ///
    /// Every surgery changes the graph first and then, only if the graph
    /// changed, tells the compiled kernel, which reschedules the nodes
    /// whose neighbour multisets changed without any state change — the
    /// one event the dirty-set invariant cannot observe on its own.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            self.pending_faults += 1;
            if let Some(k) = self.kernel.as_mut() {
                k.on_edge_removed(&self.graph, u, v);
            }
        }
        removed
    }

    /// Removes a node and its edges (a benign fault). Returns whether it
    /// was alive. The node's state is frozen; it never activates again
    /// and neighbours no longer see it.
    pub fn remove_node(&mut self, v: NodeId) -> bool {
        // Only the kernel needs the former neighbours: each of them lost
        // a multiset entry.
        let former = match &self.kernel {
            Some(_) if (v as usize) < self.graph.n_slots() => self.graph.neighbors(v).to_vec(),
            _ => Vec::new(),
        };
        let removed = self.graph.remove_node(v);
        if removed {
            self.pending_faults += 1;
            if let Some(k) = self.kernel.as_mut() {
                k.on_node_removed(&self.graph, v, &former);
            }
        }
        removed
    }

    /// Adds an edge between two alive nodes (a churn arrival). Returns
    /// whether it was added (`false` for self-loops, dead endpoints, or
    /// an existing edge). Both endpoints are rescheduled, since their
    /// neighbour multisets grew without any state change.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let added = self.graph.add_edge(u, v);
        if added {
            self.pending_faults += 1;
            if let Some(k) = self.kernel.as_mut() {
                k.on_edge_added(&self.graph, u, v);
            }
        }
        added
    }

    /// Adds a fresh, isolated, alive node with the given initial state
    /// and returns its id (always the previous [`Self::n`]). The node
    /// cannot activate until an edge attaches it.
    pub fn add_node(&mut self, state: P::State) -> NodeId {
        let v = self.graph.add_node();
        self.states.push(state);
        self.next.push(state);
        self.pending_faults += 1;
        if let Some(k) = self.kernel.as_mut() {
            k.on_node_added(v);
        }
        v
    }

    /// Applies one fault or churn event and returns whether it changed
    /// the network. Arrivals start in `init(v)`. An
    /// [`FaultKind::AddNode`] whose id is not the next slot ([`Self::n`])
    /// is stale and skipped; removals and edge arrivals that name missing,
    /// dead or already-present structure are skipped by the surgery
    /// itself.
    pub fn apply_fault(&mut self, kind: FaultKind, init: impl FnOnce(NodeId) -> P::State) -> bool {
        match kind {
            FaultKind::Edge(u, v) => self.remove_edge(u, v),
            FaultKind::Node(v) => self.remove_node(v),
            FaultKind::AddNode(v) => {
                let fresh = v as usize == self.n();
                if fresh {
                    self.add_node(init(v));
                }
                fresh
            }
            FaultKind::AddEdge(u, v) => self.add_edge(u, v),
        }
    }

    /// Drains the fault-surgery counter ("faults since the last traced
    /// round") — called exactly once per traced round.
    pub(crate) fn take_pending_faults(&mut self) -> u64 {
        std::mem::take(&mut self.pending_faults)
    }

    /// Tallies the neighbour states of `v` into the scratch counter.
    /// Callers must invoke [`Self::clear_scratch`] afterwards.
    fn tally(&mut self, v: NodeId) {
        for &w in self.graph.neighbors(v) {
            let idx = self.states[w as usize].index();
            if self.scratch[idx] == 0 {
                self.touched.push(idx as u32);
            }
            self.scratch[idx] += 1;
        }
        // Canonical presence order (ascending state index) so
        // `present_states` iterates identically across the interpreter,
        // the compiled kernel and the verifier's exhaustive driver.
        self.touched.sort_unstable();
    }

    fn clear_scratch(&mut self) {
        for &idx in &self.touched {
            self.scratch[idx as usize] = 0;
        }
        self.touched.clear();
    }

    /// The neighbour multiset of `v` as a core [`Multiset`] — for
    /// cross-validation against table-level FSSGA programs.
    pub fn multiset_of(&self, v: NodeId) -> Multiset {
        let mut ms = Multiset::empty(P::State::COUNT);
        for &w in self.graph.neighbors(v) {
            ms.push(self.states[w as usize].index());
        }
        ms
    }

    /// Whether `v` can activate (alive with at least one neighbour).
    pub fn can_activate(&self, v: NodeId) -> bool {
        self.graph.is_alive(v) && self.graph.degree(v) > 0
    }

    /// Asynchronously activates node `v` (Definition 3.10's asynchronous
    /// successor): reads neighbours atomically, replaces `σ(v)`. The coin
    /// is drawn from `rng` iff the protocol is probabilistic. Returns
    /// whether the state changed; a node that cannot activate returns
    /// `false` without consuming randomness.
    pub fn activate(&mut self, v: NodeId, rng: &mut Xoshiro256) -> bool {
        if !self.can_activate(v) {
            return false;
        }
        let coin = if P::RANDOMNESS > 1 {
            rng.gen_range(P::RANDOMNESS as u64) as u32
        } else {
            0
        };
        self.activate_with_coin(v, coin)
    }

    /// Activation with an explicit coin (the synchronous path and the
    /// compiler use this).
    pub fn activate_with_coin(&mut self, v: NodeId, coin: u32) -> bool {
        if !self.can_activate(v) {
            return false;
        }
        self.tally(v);
        let view = NeighborView::new_with_presence(
            &self.scratch,
            Some(&self.touched),
            self.recorder.as_ref(),
        );
        let old = self.states[v as usize];
        let new = self.protocol.transition(old, &view, coin);
        self.clear_scratch();
        self.states[v as usize] = new;
        self.mark_kernel_stale();
        self.metrics.activations += 1;
        let changed = new != old;
        if changed {
            self.metrics.changes += 1;
        }
        changed
    }

    /// The coin node `v` uses in the synchronous round with seed
    /// `round_seed`. Deriving coins from `(round_seed, v)` — rather than
    /// from a shared stream — makes multi-threaded kernel rounds
    /// bit-identical to single-threaded ones.
    #[inline]
    pub(crate) fn coin_for(round_seed: u64, v: NodeId) -> u32 {
        round_coin(round_seed, v, P::RANDOMNESS)
    }

    /// One synchronous round (Definition 3.10's synchronous successor):
    /// every activatable node computes its new state from the *old*
    /// network state; all updates land at once. Returns the number of
    /// nodes whose state changed.
    pub fn sync_step(&mut self, rng: &mut Xoshiro256) -> usize {
        let round_seed = if P::RANDOMNESS > 1 { rng.next_u64() } else { 0 };
        self.sync_step_seeded(round_seed)
    }

    /// Synchronous round with an explicit seed. Every engine derives its
    /// coins from the same seed, so engines agree round by round.
    pub fn sync_step_seeded(&mut self, round_seed: u64) -> usize {
        self.sync_step_seeded_traced(round_seed, &mut NullTracer)
    }

    /// Like [`Self::sync_step_seeded`], but emits one [`RoundMetrics`]
    /// event to `tracer` after the round. With [`NullTracer`] (whose
    /// `enabled` is a constant `false`) this monomorphizes to exactly the
    /// untraced round: the per-node read counting is behind the hoisted
    /// flag and the evaluated count is recovered from the existing
    /// activation counter.
    pub fn sync_step_seeded_traced<T: Tracer>(&mut self, round_seed: u64, tracer: &mut T) -> usize {
        let trace = tracer.enabled();
        let before_activations = self.metrics.activations;
        let mut reads = 0u64;
        let n = self.n();
        let mut changed = 0;
        for v in 0..n as NodeId {
            if !self.can_activate(v) {
                self.next[v as usize] = self.states[v as usize];
                continue;
            }
            if trace {
                reads += self.graph.degree(v) as u64;
            }
            self.tally(v);
            let view = NeighborView::new_with_presence(
                &self.scratch,
                Some(&self.touched),
                self.recorder.as_ref(),
            );
            let old = self.states[v as usize];
            let new = self
                .protocol
                .transition(old, &view, Self::coin_for(round_seed, v));
            self.clear_scratch();
            self.next[v as usize] = new;
            self.metrics.activations += 1;
            if new != old {
                changed += 1;
            }
        }
        std::mem::swap(&mut self.states, &mut self.next);
        self.mark_kernel_stale();
        self.metrics.rounds += 1;
        self.metrics.changes += changed as u64;
        if trace {
            // The interpreter evaluates every eligible node, so one
            // counter serves as eligible, scheduled, and activations; all
            // interpreter dispatches are native `transition` calls.
            let evaluated = self.metrics.activations - before_activations;
            tracer.round(&RoundMetrics {
                round: self.metrics.rounds,
                eligible: evaluated,
                scheduled: evaluated,
                activations: evaluated,
                changes: changed as u64,
                neighbor_reads: reads,
                tabular: 0,
                direct: evaluated,
                faults: self.take_pending_faults(),
            });
        }
        changed
    }

    /// Kernel round with an explicit seed (see
    /// [`Self::sync_step_seeded`]). Bit-identical trajectory to the
    /// interpreter; see the [`Metrics`] note about activation counts.
    pub fn sync_step_kernel_seeded(&mut self, round_seed: u64) -> usize {
        self.sync_step_kernel_seeded_traced(round_seed, &mut NullTracer)
    }

    /// Like [`Self::sync_step_kernel_seeded`], but forwards one
    /// [`RoundMetrics`] event per round to `tracer`.
    pub fn sync_step_kernel_seeded_traced<T: Tracer>(
        &mut self,
        round_seed: u64,
        tracer: &mut T,
    ) -> usize {
        self.kernel_round(round_seed, Inline, tracer)
    }

    /// The body of both kernel entry points: builds the kernel on demand
    /// and runs one [`CompiledKernel`] round with `eval` evaluating the
    /// worklist.
    fn kernel_round<E: Evaluate<P>, T: Tracer>(
        &mut self,
        round_seed: u64,
        eval: E,
        tracer: &mut T,
    ) -> usize {
        assert!(
            self.recorder.is_none(),
            "query recording requires the interpreter stepper"
        );
        self.ensure_kernel();
        let faults = if tracer.enabled() {
            self.take_pending_faults()
        } else {
            0
        };
        let mut kernel = self.kernel.take().expect("ensured above");
        debug_assert_eq!(self.next.len(), self.states.len());
        let changed = kernel.round(
            &self.protocol,
            &self.graph,
            &mut self.states,
            &mut self.next,
            &mut self.metrics,
            round_seed,
            eval,
            tracer,
            faults,
        );
        self.kernel = Some(kernel);
        changed
    }

    pub(crate) fn recording_enabled(&self) -> bool {
        self.recorder.is_some()
    }
}

impl<P: Protocol> Network<P>
where
    P: Sync,
    P::State: Send + Sync,
{
    /// Kernel round with an explicit seed, evaluated over `threads`
    /// threads. Bit-identical to [`Self::sync_step_kernel_seeded`] for
    /// any thread count: it is the same round, and at `threads <= 1` it
    /// builds no pool and no shard arenas. Emits per-shard
    /// [`crate::ShardRoundMetrics`] (when the pool actually runs)
    /// followed by the round's [`RoundMetrics`], all from this thread in
    /// deterministic order. The worker pool persists inside the network
    /// across rounds; it is rebuilt only when `threads` changes.
    pub fn sync_step_kernel_sharded_seeded_traced<T: Tracer>(
        &mut self,
        round_seed: u64,
        threads: usize,
        tracer: &mut T,
    ) -> usize {
        if threads <= 1 {
            return self.kernel_round(round_seed, Inline, tracer);
        }
        let mut pool = match self.pool.take() {
            Some(pool) if pool.threads() == threads => pool,
            _ => ShardPool::new(threads),
        };
        let changed = self.kernel_round(round_seed, &mut pool, tracer);
        self.pool = Some(pool);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;
    use fssga_graph::generators;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Infect {
        Healthy,
        Infected,
    }
    impl_state_space!(Infect { Healthy, Infected });

    /// State 1 spreads to neighbours (iterated OR).
    struct Spread;
    impl Protocol for Spread {
        type State = Infect;
        fn transition(&self, own: Infect, nbrs: &NeighborView<'_, Infect>, _coin: u32) -> Infect {
            if own == Infect::Infected || nbrs.some(Infect::Infected) {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        }
    }

    fn seeded(net_seed: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(net_seed)
    }

    #[test]
    fn sync_spread_takes_distance_rounds() {
        let g = generators::path(6);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        let mut rng = seeded(1);
        for round in 1..=5 {
            let changed = net.sync_step(&mut rng);
            assert_eq!(changed, 1, "round {round} infects exactly one new node");
            let infected = net
                .states()
                .iter()
                .filter(|&&s| s == Infect::Infected)
                .count();
            assert_eq!(infected, round + 1);
        }
        assert_eq!(net.sync_step(&mut rng), 0, "fixpoint reached");
        assert_eq!(net.metrics.rounds, 6);
    }

    #[test]
    fn async_activation_only_updates_target() {
        let g = generators::path(3);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        let mut rng = seeded(2);
        assert!(!net.activate(2, &mut rng), "node 2 sees no infection yet");
        assert!(net.activate(1, &mut rng));
        assert_eq!(net.state(1), Infect::Infected);
        assert_eq!(net.state(2), Infect::Healthy);
        assert!(net.activate(2, &mut rng));
        assert_eq!(net.metrics.activations, 3);
        assert_eq!(net.metrics.changes, 2);
    }

    #[test]
    fn faults_block_spread() {
        let g = generators::path(4);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.remove_edge(1, 2);
        let mut rng = seeded(3);
        for _ in 0..10 {
            net.sync_step(&mut rng);
        }
        assert_eq!(net.state(1), Infect::Infected);
        assert_eq!(net.state(2), Infect::Healthy, "cut isolates the right half");
    }

    #[test]
    fn isolated_node_never_activates() {
        let g = generators::path(3);
        let mut net = Network::new(&g, Spread, |_| Infect::Healthy);
        net.remove_node(1); // isolates 0 and 2
        net.set_state(0, Infect::Infected);
        let mut rng = seeded(4);
        assert!(!net.activate(0, &mut rng));
        assert_eq!(net.sync_step(&mut rng), 0);
        assert!(!net.can_activate(1));
    }

    #[test]
    fn dead_node_invisible_to_neighbors() {
        let g = generators::star(4);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 1 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.remove_node(1);
        let mut rng = seeded(5);
        for _ in 0..5 {
            net.sync_step(&mut rng);
        }
        assert_eq!(net.state(0), Infect::Healthy, "infection died with node 1");
    }

    #[test]
    fn multiset_of_matches_tally() {
        let g = generators::star(5);
        let net = Network::new(&g, Spread, |v| {
            if v % 2 == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        let ms = net.multiset_of(0);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms.mu(Infect::Infected.index()), 2); // nodes 2, 4
        assert_eq!(ms.mu(Infect::Healthy.index()), 2); // nodes 1, 3
    }

    #[test]
    fn recording_observes_protocol_queries() {
        let g = generators::cycle(4);
        let mut net = Network::new(&g, Spread, |_| Infect::Healthy);
        net.enable_recording();
        let mut rng = seeded(6);
        net.sync_step(&mut rng);
        let rec = net.recorded_queries().unwrap();
        // Spread asks only some(Infected): threshold 1 everywhere, no mods.
        assert_eq!(rec.thresholds, vec![1, 1]);
        assert_eq!(rec.moduli, vec![1, 1]);
    }

    #[test]
    fn coin_derivation_is_stable() {
        // Same (seed, node) -> same coin, independent of anything else.
        struct Coiny;
        impl Protocol for Coiny {
            type State = Infect;
            const RANDOMNESS: u32 = 8;
            fn transition(&self, _own: Infect, _n: &NeighborView<'_, Infect>, coin: u32) -> Infect {
                if coin.is_multiple_of(2) {
                    Infect::Healthy
                } else {
                    Infect::Infected
                }
            }
        }
        let a = Network::<Coiny>::coin_for(42, 7);
        let b = Network::<Coiny>::coin_for(42, 7);
        assert_eq!(a, b);
        assert!(a < 8);
        let coins: std::collections::HashSet<u32> = (0..100u32)
            .map(|v| Network::<Coiny>::coin_for(42, v))
            .collect();
        assert!(coins.len() > 1, "different nodes get different coins");
    }
}
