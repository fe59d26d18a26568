//! The compiled execution path: row reductions over the network's own
//! states and [`DynGraph`] rows, plus a dirty-set synchronous scheduler.
//!
//! The interpreter path ([`crate::network`]) re-tallies every
//! neighbourhood into a scratch multiplicity vector and calls the
//! protocol's `transition` closure per activation. Theorem 3.7 says that
//! closure is an SM function over a *finite* abstraction of the
//! multiset — Lemma 3.9's per-state count classes: state `j`'s count
//! matters only below a tail `T_j` and modulo a period `M_j`.
//! [`CompiledKernel`] picks the first plan that applies:
//!
//! 1. **Fold plan** — the protocol declares [`Protocol::FOLD`]. A row is
//!    one pass of the fold's `join` and one `finish(own, joined)`: no
//!    buffer, sort, run-length encoding, view or coin, and no discovery
//!    at compile time. The [`Fold`] contract, which `fssga-verify`
//!    checks, makes any combination tree over the row equal
//!    `transition`, so one pass in adjacency order is faithful. Census
//!    and shortest paths take this plan.
//! 2. **Tabular plan** — when the class space is small
//!    (`Π_j (T_j + M_j)` within budget), a row is folded through Lemma
//!    3.9's class automaton one neighbour at a time: from class 0, the
//!    empty multiset's, each neighbour's state steps the class through a
//!    successor table built once from [`ClassSpace::successor`]. The
//!    row's class is then looked up in the table
//!    [`crate::compile::tabulate`] filled (`(own state, coin, class) →
//!    new state`) — the same discovery and table `compile_protocol`
//!    turns into clauses. No protocol code runs on the hot path: one
//!    table load per neighbour and one per activation. Count classes
//!    commute across states, so any order of the row gives the same
//!    class.
//! 3. **Direct plan** — otherwise the kernel gathers the row's state
//!    indices into a small contiguous buffer, sorts it, and
//!    run-length-encodes it into a *sparse* [`NeighborView`] for the
//!    native `transition` — no `|Q|`-length scratch vector, no
//!    per-activation allocation.
//!
//! The kernel keeps no copy of the network. Every plan reads neighbour
//! states straight from the network's state vector over the sorted
//! [`DynGraph`] rows. A round writes either that vector, once per
//! change, or every slot of the network's second state buffer, which
//! then swaps with it (below). Fault and churn surgery changes the graph
//! first; the kernel's hooks then only adjust the eligible count and the
//! dirty set.
//!
//! On top of any plan sits a **dirty-set scheduler**: a node is
//! re-evaluated in round `t + 1` only if its own state or a neighbour's
//! state changed in round `t`, or a fault changed its neighbourhood. The
//! invariant is that every *clean* node is at a local fixpoint —
//! `transition(σ(v), μ(v), 0) == σ(v)` — which is preserved because any
//! event that could break it (a neighbour change, an edge/node removal,
//! an out-of-band state write) marks the node dirty. Skipped nodes would
//! not have changed, so per-round *change* counts are bit-identical to
//! the interpreter; per-round *activation* counts are not (that is the
//! point) and [`crate::network::Metrics`] documents the difference.
//!
//! The scheduler switches direction with the size of the frontier, as
//! direction-optimizing BFS (Beamer, Asanović and Patterson, SC 2012) and
//! Ligra's dense and sparse frontiers (Shun and Blelloch, PPoPP 2013) do.
//! A round that changes more than `n / DENSE_FRONTIER` nodes commits
//! *dense*: it schedules every node for the next round, an *all-round*,
//! instead of marking each changed node and its neighbours. The
//! invariant makes that safe: evaluating a clean node changes nothing. A
//! sparser round commits by marking. A probabilistic protocol draws a
//! fresh coin every round, so none of its nodes is ever clean: every one
//! of its rounds is an all-round. The dirty flags are a bitset, one bit
//! per node slot, and the worklist lists exactly the set bits between
//! rounds, so a sparse round costs O(worklist) and never scans the
//! bitset.
//!
//! An all-round is double-buffered, as Definition 3.10's synchronous
//! successor and the interpreter's round are: it evaluates every slot,
//! in id order, into the network's second state buffer — an ineligible
//! slot copies its old state — counts the changes without a branch, and
//! swaps the two buffers. It builds no worklist and no pending buffer.
//! If it changed more than n/8 nodes the next round is an all-round
//! again; otherwise one ascending pass marks every slot that differs
//! between the buffers, with its neighbours, which hands the run back to
//! the dirty set.
//!
//! Every round, on any thread count, is one function:
//! `CompiledKernel::round`. It takes the worklist, has an evaluator
//! evaluate either that worklist into the pending buffer or every slot
//! into the second buffer, and commits. Only the evaluator varies, and
//! each plan's body is one function, `eval_chunk`, serving both loops.
//! The inline evaluator runs on the calling thread. The pooled one cuts
//! the round, in its order, into one contiguous piece per thread of
//! near-equal weight, node `v` weighing `degree(v) + 1` in the live
//! [`DynGraph`] (Ligra splits its frontier the same way, not the vertex
//! set): a worklist into slices, an all-round into id ranges. Each
//! piece evaluates with its own arena (evaluation buffers, counters and,
//! for a worklist, a pending buffer — no contention on any global
//! structure) on a persistent [`crate::ShardPool`], parked between
//! rounds. A worklist's arenas are appended in slice order; an
//! all-round's ranges each write their own disjoint slice of the second
//! buffer.
//!
//! No result depends on the order in which a round evaluates its nodes:
//! evaluators read the frozen pre-round states, each node's new state is
//! written once, and coins come from
//! [`round_coin`]`(round_seed, v, r)` — a function of the node, never of
//! the evaluation order or the thread. States, change counts and every
//! [`RoundMetrics`] field are therefore bit-identical for any order and
//! any thread count. Both evaluators also keep the round's order, so
//! `pending`, and with it the next round's worklist, is the same
//! sequence at every thread count. The order serves locality only: a
//! dense frontier is rebuilt in ascending id order (`DENSE_FRONTIER`).

use std::marker::PhantomData;
use std::sync::Mutex;

use fssga_core::ClassSpace;
use fssga_graph::{DynGraph, NodeId};

use crate::compile::tabulate;
use crate::network::{round_coin, Metrics, Network};
use crate::obs::{RoundMetrics, ShardRoundMetrics, Tracer};
use crate::pool::ShardPool;
use crate::protocol::{Fold, Protocol, StateSpace};
use crate::view::NeighborView;

/// Largest count-class space `Π_j (T_j + M_j)` the tabular plan will
/// tabulate. Beyond this the kernel falls back to the direct plan.
const ACC_BUDGET: u128 = 1 << 12;

/// Smallest round — worklist entries, or slots of an all-round — worth
/// waking the shard pool for. Below this the pooled evaluator evaluates
/// inline on the calling thread (evaluation order never changes a
/// result — sparse late rounds just skip the wakeup latency). The wakeup is `fssga-bench micro`'s
/// `pool/empty-epoch/2-threads` row, a 25–59 µs median on a 2-vCPU host:
/// the inline cost of hundreds to thousands of activations there, so
/// this threshold is a floor, not a measured break-even.
const SHARD_MIN_WORK: usize = 256;

/// Where the scheduler switches direction, as a divisor of the node
/// count `n`. Both choices change no state, change count or fingerprint;
/// they trade scheduling work against evaluations.
///
/// - A round that changes more than `n / DENSE_FRONTIER` nodes commits
///   dense and the next round evaluates every node. Marking would cost
///   up to `1 + degree` attempts per changed node, mostly on nodes
///   already marked. In a 250×250 torus census fixpoint (2-vCPU host),
///   the 38 of 251 rounds that scheduled more than n/8 nodes took 84%
///   of the run when every round marked; 19 rounds change more than n/8.
/// - A worklist longer than `n / DENSE_FRONTIER` is rebuilt by one
///   ascending scan over the bitset's words; a shorter one keeps its
///   marking order. The order changes no result, only locality. On a
///   50,000-node power-law graph hubs mark neighbours across the whole id
///   space, and evaluating dense rounds in marking order made 1-thread
///   `KUnison<8>` 1.7–2.7× slower per activation (137–190 vs 63–72 ns).
///   Sparse rounds are cheaper left unsorted: perfbench torus-seq's
///   `op_ms` was 7.2–7.4 ms, against 8.6–11.4 ms with sorted sparse
///   worklists.
const DENSE_FRONTIER: usize = 8;

/// Rows up to this length are reduced by insertion sort (branch-light,
/// no recursion) before run-length encoding; longer rows use
/// `sort_unstable`.
const SMALL_SORT: usize = 32;

/// Which evaluation plan a [`CompiledKernel`] ended up with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelPlan {
    /// One pass of the protocol's declared [`Fold`] per row.
    Fold,
    /// One table lookup per activation over the per-state count classes.
    Tabular,
    /// Per-row sorted tally + native `transition`.
    Direct,
}

/// Per-evaluation-pass counters, folded into [`RoundMetrics`] by the
/// traced steppers. Only `evaluated` and `changes` are maintained when
/// tracing is disabled (the hot loops skip the rest of the bookkeeping).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct EvalStats {
    /// Nodes evaluated (alive, degree > 0).
    evaluated: u64,
    /// Evaluations whose new state differs from the old one.
    changes: u64,
    /// Neighbour states read (sum of degrees over evaluated nodes).
    reads: u64,
    /// Evaluations dispatched through the tabular plan's table.
    tabular: u64,
    /// Evaluations computed by the protocol's own code: a declared fold
    /// or a native `transition` call.
    direct: u64,
}

enum Plan {
    /// The protocol's declared [`Fold`], read from `P::FOLD`.
    Fold,
    /// [`tabulate`]'s per-state count classes, their successor table
    /// `step[class * |Q| + s]` ([`ClassSpace::successor`]) and the
    /// transition table `trans[(own * R + coin) * space.len() + class]`
    /// with `R = max(1, RANDOMNESS)`.
    Tabular {
        space: ClassSpace,
        step: Vec<u16>,
        trans: Vec<u32>,
    },
    Direct,
}

/// The tabular plan's successor table: `step[class * q + s]` is the class
/// after one more neighbour in state `s`. Every state has at least two
/// classes, so `ACC_BUDGET = 2^12` allows at most 12 states: the table
/// holds at most 4,096 × 12 entries, 96 KiB.
fn successor_table(space: &ClassSpace, q: usize) -> Vec<u16> {
    (0..space.len() * q)
        .map(|i| {
            u16::try_from(space.successor(i / q, i % q)).expect("ACC_BUDGET fits class ids in u16")
        })
        .collect()
}

/// Reusable per-evaluator buffers for the direct plan: the gathered row
/// of state indices (`row`) and its run-length encoding (`idx`/`cnt`).
/// One set lives on the kernel for inline evaluation and one in each
/// shard arena — never shared, never reallocated on the hot path.
#[derive(Default)]
struct EvalBufs {
    row: Vec<u32>,
    idx: Vec<u32>,
    cnt: Vec<u32>,
}

/// One shard's private evaluation workspace. Shards write *only* here
/// and, on an all-round, to their own slice of the network's second
/// state buffer — the global worklist, pending buffer, and dirty flags
/// are written exclusively by the committing thread.
struct ShardArena<P: Protocol> {
    /// This shard's proposed `(node, new state)` writes, in slice order;
    /// unused on an all-round.
    out: Vec<(NodeId, P::State)>,
    /// This shard's private evaluation buffers.
    bufs: EvalBufs,
    /// This shard's evaluation counters for the round.
    stats: EvalStats,
}

/// The compiled execution engine for one [`Network`].
///
/// Holds only what the network does not: the evaluation plan, the
/// dirty-set bookkeeping, the pending buffer, the evaluation buffers and
/// the shard arenas. Every round reads the network's states and
/// [`DynGraph`] rows. An all-round writes every slot into the network's
/// second state buffer, which then swaps with the states; any other
/// round commits its changes through the pending buffer. Constructed
/// lazily by [`Network::ensure_kernel`] or eagerly by
/// [`Network::new_compiled`]; driven by [`crate::Runner`].
pub struct CompiledKernel<P: Protocol> {
    /// The next round evaluates every slot (an all-round): set at
    /// construction, by a dense commit and by [`Self::mark_all_dirty`].
    /// The marks below are kept meanwhile and cleared by the prologue.
    all: bool,
    /// "Re-evaluate next round" flags, bit `v % 64` of word `v / 64` —
    /// the kernel's only per-node field.
    dirty: Vec<u64>,
    /// Exactly the nodes whose dirty bit is set, in marking order,
    /// between rounds.
    worklist: Vec<NodeId>,
    /// Two-phase commit buffer of a worklist round: `(node, new state)`
    /// for its changes only, so sparse late rounds do O(changes), not
    /// O(n). An all-round does not touch it.
    pending: Vec<(NodeId, P::State)>,
    /// Nodes currently able to activate (alive, degree > 0); maintained
    /// incrementally across fault surgeries so traced rounds report it
    /// for free.
    eligible: u64,
    plan: Plan,
    /// Inline evaluation buffers.
    bufs: EvalBufs,
    /// One arena per pool thread, sized by the pooled evaluator when the
    /// thread count changes.
    arenas: Vec<Mutex<ShardArena<P>>>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol> CompiledKernel<P> {
    /// Compiles a kernel for the network's current topology and protocol.
    /// Its first round is an all-round.
    ///
    /// A protocol that declares [`Protocol::FOLD`] gets the fold plan and
    /// skips [`tabulate`]'s discovery.
    pub fn new(net: &Network<P>) -> Self {
        let g = net.graph();
        let n = g.n_slots();
        // Dead nodes have empty rows, so degree > 0 means alive too.
        let eligible = (0..n as NodeId).filter(|&v| g.degree(v) > 0).count() as u64;
        let plan = if P::FOLD.is_some() {
            Plan::Fold
        } else {
            match tabulate(net.protocol(), ACC_BUDGET) {
                Ok((space, trans)) => Plan::Tabular {
                    step: successor_table(&space, P::State::COUNT),
                    space,
                    trans,
                },
                Err(_) => Plan::Direct,
            }
        };
        Self {
            all: true,
            dirty: vec![0; n.div_ceil(64)],
            worklist: Vec::new(),
            pending: Vec::new(),
            eligible,
            plan,
            bufs: EvalBufs::default(),
            arenas: Vec::new(),
            _protocol: PhantomData,
        }
    }

    /// Which plan compilation selected.
    pub fn plan(&self) -> KernelPlan {
        match self.plan {
            Plan::Fold => KernelPlan::Fold,
            Plan::Tabular { .. } => KernelPlan::Tabular,
            Plan::Direct => KernelPlan::Direct,
        }
    }

    /// Nodes the next round will schedule: every eligible node
    /// ([`Self::eligible_count`]) when it is an all-round, the dirty set
    /// otherwise.
    pub fn dirty_count(&self) -> usize {
        if self.all {
            self.eligible as usize
        } else {
            self.worklist.len()
        }
    }

    #[inline]
    fn mark_dirty(&mut self, v: NodeId) {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.worklist.push(v);
        }
    }

    /// `v` changed state: it and every neighbour are rescheduled.
    fn mark_changed(&mut self, graph: &DynGraph, v: NodeId) {
        self.mark_dirty(v);
        for &w in graph.neighbors(v) {
            self.mark_dirty(w);
        }
    }

    /// Re-schedules every node (out-of-band state writes, interpreter
    /// interleaving, recompilation).
    pub(crate) fn mark_all_dirty(&mut self) {
        self.all = true;
    }

    // Surgery hooks. `Network` calls each one after it has changed
    // `graph`, and only when the graph actually changed, so the hooks
    // trust the event: they keep `eligible` in step with the new degrees
    // and reschedule every node whose neighbour multiset changed without
    // a state change — the one event the dirty-set invariant cannot see
    // on its own.

    /// A node that just lost a neighbour: no longer eligible if that was
    /// its last one, and rescheduled otherwise. An isolated node cannot
    /// activate, so marking it would schedule what no round evaluates.
    fn on_neighbor_lost(&mut self, graph: &DynGraph, w: NodeId) {
        if graph.degree(w) == 0 {
            self.eligible -= 1;
        } else {
            self.mark_dirty(w);
        }
    }

    /// Edge `{u, v}` was removed: both endpoints lost a neighbour.
    pub(crate) fn on_edge_removed(&mut self, graph: &DynGraph, u: NodeId, v: NodeId) {
        self.on_neighbor_lost(graph, u);
        self.on_neighbor_lost(graph, v);
    }

    /// Alive node `v` was removed; `former_neighbors` are its neighbours
    /// *before* removal, and each of them lost a multiset entry.
    pub(crate) fn on_node_removed(
        &mut self,
        graph: &DynGraph,
        v: NodeId,
        former_neighbors: &[NodeId],
    ) {
        debug_assert!(!graph.is_alive(v));
        if !former_neighbors.is_empty() {
            self.eligible -= 1;
        }
        for &w in former_neighbors {
            self.on_neighbor_lost(graph, w);
        }
    }

    /// Edge `{u, v}` was added: both endpoints gained a neighbour.
    pub(crate) fn on_edge_added(&mut self, graph: &DynGraph, u: NodeId, v: NodeId) {
        for w in [u, v] {
            if graph.degree(w) == 1 {
                self.eligible += 1;
            }
            self.mark_dirty(w);
        }
    }

    /// A fresh node `v` joined, isolated and alive, in the next slot.
    /// Degree 0: not eligible, and nothing to schedule until an edge
    /// arrives.
    pub(crate) fn on_node_added(&mut self, v: NodeId) {
        let v = v as usize;
        debug_assert_eq!(
            self.dirty.len(),
            v.div_ceil(64),
            "arrivals take the next slot"
        );
        self.dirty.resize((v + 1).div_ceil(64), 0);
    }

    /// Always 0: the kernel owns no adjacency. Every round reads the
    /// network's [`DynGraph`] rows.
    pub fn arena_len(&self) -> usize {
        0
    }

    /// Nodes currently able to activate (alive, degree > 0) — what a
    /// traced round reports as [`RoundMetrics::eligible`].
    pub fn eligible_count(&self) -> u64 {
        self.eligible
    }

    /// One synchronous round over `states` on the topology `graph`: the
    /// kernel's only round body, on any thread count. Returns the number
    /// of nodes whose state changed; updates `metrics` (one round,
    /// `evaluated` activations, `changed` changes).
    ///
    /// The prologue ([`Self::take_worklist`]) takes the worklist and
    /// clears the dirty set. `eval` then evaluates the round's
    /// [`Target`], the only step that differs between thread counts:
    ///
    /// - an all-round evaluates every slot, in id order, into `next`, and
    ///   `states` and `next` swap;
    /// - any other round evaluates its worklist into `pending`.
    ///
    /// [`Self::commit`] schedules the next round. When `tracer` is
    /// enabled the round then emits the evaluator's
    /// [`ShardRoundMetrics`] followed by its [`RoundMetrics`]. `faults` is
    /// the number of fault surgeries applied since the previous traced
    /// round, forwarded into that event. `next` must be as long as
    /// `states`; what it holds before the round is never read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round<E: Evaluate<P>, T: Tracer>(
        &mut self,
        protocol: &P,
        graph: &DynGraph,
        states: &mut Vec<P::State>,
        next: &mut Vec<P::State>,
        metrics: &mut Metrics,
        round_seed: u64,
        eval: E,
        tracer: &mut T,
        faults: u64,
    ) -> usize {
        let trace = tracer.enabled();
        debug_assert_eq!(
            self.dirty.len(),
            states.len().div_ceil(64),
            "kernel desynced"
        );
        let all = std::mem::take(&mut self.all);
        // An all-round drops the marks made since the last round: it
        // evaluates every slot anyway.
        let mut work = self.take_worklist(states.len());
        let (target, scheduled) = if all {
            (Target::All(next), self.eligible)
        } else {
            self.pending.clear();
            (Target::List(&work), work.len() as u64)
        };
        let mut shards = Vec::new();
        let stats = if trace {
            eval.evaluate::<true>(
                self,
                protocol,
                graph,
                states,
                target,
                round_seed,
                &mut shards,
            )
        } else {
            eval.evaluate::<false>(
                self,
                protocol,
                graph,
                states,
                target,
                round_seed,
                &mut shards,
            )
        };
        // Hand the buffer back so the commit marks into it.
        work.clear();
        debug_assert!(self.worklist.is_empty());
        self.worklist = work;
        if all {
            std::mem::swap(states, next);
        }
        let changed = stats.changes as usize;
        self.commit(graph, states, next, all, changed);
        metrics.rounds += 1;
        metrics.activations += stats.evaluated;
        metrics.changes += stats.changes;
        if trace {
            for s in &mut shards {
                s.round = metrics.rounds;
                tracer.shard_round(s);
            }
            tracer.round(&RoundMetrics {
                round: metrics.rounds,
                eligible: self.eligible,
                scheduled,
                activations: stats.evaluated,
                changes: stats.changes,
                neighbor_reads: stats.reads,
                tabular: stats.tabular,
                direct: stats.direct,
                faults,
            });
        }
        changed
    }

    /// The round's prologue over `n` node slots: takes the worklist and
    /// clears every dirty bit.
    ///
    /// - A worklist longer than `n / DENSE_FRONTIER` is rebuilt in
    ///   ascending order by one scan over the bitset's words.
    /// - A shorter one keeps its marking order; clearing it touches only
    ///   the words it names, so a sparse round costs O(worklist).
    fn take_worklist(&mut self, n: usize) -> Vec<NodeId> {
        let mut work = std::mem::take(&mut self.worklist);
        if work.len() > n / DENSE_FRONTIER {
            work.clear();
            for (i, word) in self.dirty.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    work.push((i * 64) as NodeId + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            // Every set bit is on the worklist, so zeroing the words it
            // names clears them all.
            for &v in &work {
                self.dirty[v as usize / 64] = 0;
            }
        }
        work
    }

    /// Schedules the round after one that changed `changed` nodes. A
    /// worklist round's changes are still in `pending`, and the commit
    /// writes them to `states`. An all-round (`all`) has already swapped
    /// its states in, and `old` holds the states before it.
    ///
    /// - More than `n / DENSE_FRONTIER` changes, or any round of a
    ///   probabilistic protocol, make the next round an all-round.
    /// - Otherwise each changed node and its neighbours are marked dirty,
    ///   in `pending`'s order, or in id order after an all-round: the
    ///   order in which an all-round over a `0..n` worklist would have
    ///   left them in `pending`.
    fn commit(
        &mut self,
        graph: &DynGraph,
        states: &mut [P::State],
        old: &[P::State],
        all: bool,
        changed: usize,
    ) {
        if P::RANDOMNESS > 1 || changed > states.len() / DENSE_FRONTIER {
            if !all {
                for &(v, s) in &self.pending {
                    states[v as usize] = s;
                }
            }
            self.all = true;
        } else if all {
            // Only an all-round that turned out sparse pays this pass.
            for v in 0..states.len() {
                if states[v] != old[v] {
                    self.mark_changed(graph, v as NodeId);
                }
            }
        } else {
            for i in 0..changed {
                let (v, s) = self.pending[i];
                states[v as usize] = s;
                self.mark_changed(graph, v);
            }
        }
    }
}

/// Cuts a round's nodes, in the order given, into `shards` contiguous
/// pieces of near-equal weight, node `v` weighing `degree(v) + 1` in
/// `graph` (one neighbour scan plus a constant), and returns where each
/// piece ends. The nodes are `work`, or every slot id `0..n` for an
/// all-round (`None`), whose total weight is `n + 2m` with no extra
/// pass. Piece `k` ends after the first node at which the weight prefix
/// reaches `k/shards` of the total, so every piece is within one node's
/// weight of `total / shards`; pieces may be empty, and the walk stops
/// at the last boundary.
fn cut(work: Option<&[NodeId]>, graph: &DynGraph, shards: usize) -> Vec<usize> {
    let weight = |v: NodeId| graph.degree(v) as u64 + 1;
    let n = graph.n_slots();
    let (len, total) = match work {
        Some(work) => (work.len(), work.iter().map(|&v| weight(v)).sum()),
        None => (n, (n + 2 * graph.m()) as u64),
    };
    let mut ends = Vec::with_capacity(shards);
    let mut acc = 0;
    for i in 0..len {
        if ends.len() + 1 == shards {
            break;
        }
        acc += weight(work.map_or(i as NodeId, |work| work[i]));
        while ends.len() + 1 < shards && acc * shards as u64 >= total * (ends.len() + 1) as u64 {
            ends.push(i + 1);
        }
    }
    ends.resize(shards, len);
    ends
}

/// What a round evaluates, and where each result goes.
pub(crate) enum Target<'a, S> {
    /// The listed nodes, in list order; each change is appended to the
    /// kernel's `pending`.
    List(&'a [NodeId]),
    /// Every slot, in id order; each slot's new state (its old one if it
    /// cannot activate) is written to the same slot of `next`, the
    /// network's second state buffer.
    All(&'a mut [S]),
}

/// The varying step of [`CompiledKernel::round`]: evaluates `target`
/// against the frozen `states` over `graph`'s rows, in `target`'s order,
/// and returns the counts. One that fans out over shards pushes one
/// [`ShardRoundMetrics`] per shard into `shards` when `TRACE` is set (the
/// round stamps them). The `TRACE` split happens before any worker
/// wakes, so each hot loop is monomorphized with a compile-time constant.
pub(crate) trait Evaluate<P: Protocol> {
    #[allow(clippy::too_many_arguments)]
    fn evaluate<const TRACE: bool>(
        self,
        kernel: &mut CompiledKernel<P>,
        protocol: &P,
        graph: &DynGraph,
        states: &[P::State],
        target: Target<'_, P::State>,
        round_seed: u64,
        shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats;
}

/// Evaluates on the calling thread with the kernel's own buffers — no
/// pool, no arenas, no `Sync` bounds.
pub(crate) struct Inline;

impl<P: Protocol> Evaluate<P> for Inline {
    fn evaluate<const TRACE: bool>(
        self,
        k: &mut CompiledKernel<P>,
        protocol: &P,
        graph: &DynGraph,
        states: &[P::State],
        target: Target<'_, P::State>,
        round_seed: u64,
        _shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats {
        let (plan, bufs) = (&k.plan, &mut k.bufs);
        match target {
            Target::List(work) => {
                let (nodes, out) = (work.iter().copied(), &mut k.pending);
                eval_chunk::<P, TRACE>(protocol, graph, plan, states, nodes, round_seed, out, bufs)
            }
            Target::All(next) => {
                let (nodes, out) = (0..next.len() as NodeId, &mut Slots { base: 0, next });
                eval_chunk::<P, TRACE>(protocol, graph, plan, states, nodes, round_seed, out, bufs)
            }
        }
    }
}

/// Evaluates over the pool, one contiguous piece of the round per thread
/// ([`cut`]), each with its own arena. A worklist round's shards write
/// their arenas, which are appended in slice order, so `pending` comes
/// out in `work`'s order as inline. An all-round's shards each write the
/// slice of `next` over their id range. Rounds of fewer than
/// [`SHARD_MIN_WORK`] nodes or slots are not worth a wakeup and run
/// [`Inline`].
impl<P> Evaluate<P> for &mut ShardPool
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    fn evaluate<const TRACE: bool>(
        self,
        k: &mut CompiledKernel<P>,
        protocol: &P,
        graph: &DynGraph,
        states: &[P::State],
        target: Target<'_, P::State>,
        round_seed: u64,
        shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats {
        let n_shards = self.threads();
        let (work, len) = match &target {
            Target::List(work) => (Some(*work), work.len()),
            Target::All(next) => (None, next.len()),
        };
        if n_shards <= 1 || len < SHARD_MIN_WORK {
            return Inline
                .evaluate::<TRACE>(k, protocol, graph, states, target, round_seed, shards);
        }
        k.arenas.resize_with(n_shards, || {
            Mutex::new(ShardArena {
                out: Vec::new(),
                bufs: EvalBufs::default(),
                stats: EvalStats::default(),
            })
        });
        let ends = cut(work, graph, n_shards);
        let start = |s: usize| s.checked_sub(1).map_or(0, |p| ends[p]);
        // An all-round hands each shard the disjoint slice of `next` over
        // its id range.
        let mut slots = Vec::new();
        if let Target::All(mut next) = target {
            let mut base = 0;
            for &end in &ends {
                let (head, tail) = std::mem::take(&mut next).split_at_mut(end - base);
                slots.push(Mutex::new(Slots { base, next: head }));
                (base, next) = (end, tail);
            }
        }
        let (plan, arenas, list) = (&k.plan, &k.arenas, work.unwrap_or_default());
        // Each claimed shard locks its own arena and slice (uncontended —
        // shard indices are handed out exactly once per epoch).
        self.run(n_shards, &|s| {
            let mut guard = arenas[s].lock().expect("shard arena poisoned");
            let arena = &mut *guard;
            let (lo, hi) = (start(s), ends[s]);
            arena.stats = match slots.get(s) {
                Some(slot) => {
                    let mut slot = slot.lock().expect("shard slice poisoned");
                    eval_chunk::<P, TRACE>(
                        protocol,
                        graph,
                        plan,
                        states,
                        lo as NodeId..hi as NodeId,
                        round_seed,
                        &mut *slot,
                        &mut arena.bufs,
                    )
                }
                None => {
                    arena.out.clear();
                    eval_chunk::<P, TRACE>(
                        protocol,
                        graph,
                        plan,
                        states,
                        list[lo..hi].iter().copied(),
                        round_seed,
                        &mut arena.out,
                        &mut arena.bufs,
                    )
                }
            };
        });
        let mut stats = EvalStats::default();
        for (s, arena) in k.arenas.iter_mut().enumerate() {
            let a = arena.get_mut().expect("shard arena poisoned");
            if TRACE {
                shards.push(ShardRoundMetrics {
                    round: 0, // stamped by the round after commit
                    shard: s as u32,
                    shards: n_shards as u32,
                    // An all-round schedules the eligible slots of each
                    // range: exactly the ones it evaluates.
                    scheduled: match work {
                        Some(_) => (ends[s] - start(s)) as u64,
                        None => a.stats.evaluated,
                    },
                    activations: a.stats.evaluated,
                    changes: a.stats.changes,
                    neighbor_reads: a.stats.reads,
                });
            }
            stats.evaluated += a.stats.evaluated;
            stats.changes += a.stats.changes;
            stats.reads += a.stats.reads;
            stats.tabular += a.stats.tabular;
            stats.direct += a.stats.direct;
            if work.is_some() {
                k.pending.append(&mut a.out);
            }
        }
        stats
    }
}

/// Where an evaluation loop sends each node's result.
trait Sink<S> {
    /// `v`'s state after the round is `new()`, which differs from its
    /// old state when `changed` is set. A node that cannot activate (dead
    /// or isolated) keeps its old state.
    fn put(&mut self, v: NodeId, changed: bool, new: impl FnOnce() -> S);
}

/// A worklist round's sink: the changes alone, appended in order.
impl<S> Sink<S> for Vec<(NodeId, S)> {
    #[inline]
    fn put(&mut self, v: NodeId, changed: bool, new: impl FnOnce() -> S) {
        if changed {
            self.push((v, new()));
        }
    }
}

/// An all-round's sink: the slots `base..base + next.len()` of the
/// network's second state buffer, every one written.
struct Slots<'a, S> {
    base: usize,
    next: &'a mut [S],
}

impl<S> Sink<S> for Slots<'_, S> {
    #[inline]
    fn put(&mut self, v: NodeId, _changed: bool, new: impl FnOnce() -> S) {
        self.next[v as usize - self.base] = new();
    }
}

/// Branch-light in-place insertion sort for short gathered rows.
#[inline]
fn insertion_sort(a: &mut [u32]) {
    for i in 1..a.len() {
        let x = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > x {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = x;
    }
}

/// The shared inner loop, the one body of each plan: evaluates `nodes`
/// over the frozen `states`, reading each node's neighbours from its
/// `graph` row, and sends every result to `out` — a worklist round's
/// pending buffer or an all-round's slice of the second state buffer
/// ([`Sink`]). Changes are counted without a branch. `bufs` is the
/// evaluator's private workspace. With `TRACE` false every metric branch
/// is a compile-time constant and the loop is the untraced hot path.
///
/// Every plan is a *segmented row reduction*: read the row's states,
/// then reduce them — the declared fold's `join` for the fold plan, the
/// class automaton's successor table for the tabular plan, or sort +
/// run-length encoding into a sparse [`NeighborView`] for the direct
/// plan. Regrouping the SM reduction this way is faithful by symmetry
/// (the transition depends only on the multiset), so results are
/// bit-identical to the one-neighbour-at-a-time fold.
#[allow(clippy::too_many_arguments)]
fn eval_chunk<P: Protocol, const TRACE: bool>(
    protocol: &P,
    graph: &DynGraph,
    plan: &Plan,
    states: &[P::State],
    nodes: impl Iterator<Item = NodeId>,
    round_seed: u64,
    out: &mut impl Sink<P::State>,
    bufs: &mut EvalBufs,
) -> EvalStats {
    let mut stats = EvalStats::default();
    let (mut evaluated, mut changes) = (0u64, 0u64);
    match plan {
        Plan::Fold => {
            let Fold { join, finish } = P::FOLD.expect("the fold plan implies a declared fold");
            for v in nodes {
                let old = states[v as usize];
                // Dead nodes have empty rows: one test skips both.
                let row = graph.neighbors(v);
                let Some((&first, rest)) = row.split_first() else {
                    out.put(v, false, || old);
                    continue;
                };
                let mut acc = states[first as usize];
                for &w in rest {
                    acc = join(acc, states[w as usize]);
                }
                let new = finish(old, acc);
                evaluated += 1;
                if TRACE {
                    stats.reads += row.len() as u64;
                }
                let changed = new != old;
                changes += changed as u64;
                out.put(v, changed, || new);
            }
            // The protocol's own code computed every activation.
            if TRACE {
                stats.direct = evaluated;
            }
        }
        Plan::Tabular { space, step, trans } => {
            let q = P::State::COUNT;
            let (r, len) = (P::RANDOMNESS.max(1) as usize, space.len());
            for v in nodes {
                // Dead nodes have empty rows: one test skips both.
                let row = graph.neighbors(v);
                if row.is_empty() {
                    out.put(v, false, || states[v as usize]);
                    continue;
                }
                // Lemma 3.9's automaton, one neighbour at a time from the
                // empty multiset's class 0: the row's class index.
                let mut acc = 0;
                for &w in row {
                    acc = step[acc * q + states[w as usize].index()] as usize;
                }
                let old = states[v as usize];
                let own = old.index();
                let coin = round_coin(round_seed, v, P::RANDOMNESS) as usize;
                let new_idx = trans[(own * r + coin) * len + acc] as usize;
                evaluated += 1;
                if TRACE {
                    stats.reads += row.len() as u64;
                }
                let changed = new_idx != own;
                changes += changed as u64;
                // An all-round writes every slot. Skipping `from_index`
                // on unchanged ones took a 1-thread walk round on a
                // 50,000-node power-law graph from 1,446 to 1,356 µs
                // (medians of per-run minima, 2-vCPU host).
                out.put(v, changed, || {
                    if changed {
                        P::State::from_index(new_idx)
                    } else {
                        old
                    }
                });
            }
            if TRACE {
                stats.tabular = evaluated;
            }
        }
        Plan::Direct => {
            for v in nodes {
                let old = states[v as usize];
                let row = graph.neighbors(v);
                let len = row.len();
                if len == 0 {
                    out.put(v, false, || old);
                    continue;
                }
                let coin = round_coin(round_seed, v, P::RANDOMNESS);
                // Sort + run-length encode: ascending indices are the
                // canonical `present_states` order (identical to the
                // interpreter's).
                bufs.row.clear();
                bufs.row
                    .extend(row.iter().map(|&w| states[w as usize].index() as u32));
                if len <= SMALL_SORT {
                    insertion_sort(&mut bufs.row);
                } else {
                    bufs.row.sort_unstable();
                }
                bufs.idx.clear();
                bufs.cnt.clear();
                let mut i = 0;
                while i < len {
                    let s = bufs.row[i];
                    let mut j = i + 1;
                    while j < len && bufs.row[j] == s {
                        j += 1;
                    }
                    bufs.idx.push(s);
                    bufs.cnt.push((j - i) as u32);
                    i = j;
                }
                let view: NeighborView<'_, P::State> =
                    NeighborView::new_sparse(&bufs.idx, &bufs.cnt, None);
                let new = protocol.transition(old, &view, coin);
                evaluated += 1;
                if TRACE {
                    stats.reads += len as u64;
                }
                let changed = new != old;
                changes += changed as u64;
                out.put(v, changed, || new);
            }
            if TRACE {
                stats.direct = evaluated;
            }
        }
    }
    stats.evaluated = evaluated;
    stats.changes = changes;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::impl_state_space;
    use crate::obs::NullTracer;
    use fssga_graph::rng::Xoshiro256;
    use fssga_graph::{generators, Graph};

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
        fn transition(&self, own: Infect, nbrs: &NeighborView<'_, Infect>, _coin: u32) -> Infect {
            if own == Infect::Infected || nbrs.some(Infect::Infected) {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        }
    }

    fn infected_path(n: usize) -> Network<Spread> {
        let g = generators::path(n);
        Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        })
    }

    #[test]
    fn kernel_matches_interpreter_per_round() {
        let g = generators::grid(5, 7);
        let mut a = Network::new(&g, Spread, |v| {
            if v % 9 == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        let mut b = Network::new(&g, Spread, |v| {
            if v % 9 == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        b.ensure_kernel();
        for round in 0..12 {
            let ca = a.sync_step_seeded(round);
            let cb = b.sync_step_kernel_seeded(round);
            assert_eq!(ca, cb, "round {round} change counts differ");
            assert_eq!(a.states(), b.states(), "round {round} states differ");
        }
    }

    #[test]
    fn dirty_set_quiesces() {
        let mut net = infected_path(10);
        net.ensure_kernel();
        // Path of 10: 9 spreading rounds, then the worklist drains.
        for round in 0..9 {
            assert_eq!(net.sync_step_kernel_seeded(round), 1);
        }
        assert_eq!(net.sync_step_kernel_seeded(99), 0);
        assert_eq!(net.kernel().unwrap().dirty_count(), 0, "worklist drained");
        let before = net.metrics.activations;
        assert_eq!(net.sync_step_kernel_seeded(100), 0);
        assert_eq!(
            net.metrics.activations, before,
            "quiescent round evaluates nothing"
        );
    }

    #[test]
    fn fault_hooks_reschedule_neighbours() {
        // Drive to fixpoint, then delete the infection's only bridge; the
        // kernel must re-evaluate the affected endpoints (here: nothing
        // changes state, but the evaluation must happen).
        let mut net = infected_path(6);
        net.ensure_kernel();
        while net.sync_step_kernel_seeded(0) > 0 {}
        assert_eq!(net.kernel().unwrap().dirty_count(), 0);
        net.remove_edge(2, 3);
        assert_eq!(
            net.kernel().unwrap().dirty_count(),
            2,
            "both endpoints rescheduled"
        );
        let before = net.metrics.activations;
        net.sync_step_kernel_seeded(1);
        assert_eq!(net.metrics.activations, before + 2);
    }

    #[test]
    fn node_removal_reschedules_former_neighbours() {
        let converged = |g: &Graph| {
            let mut net = Network::new(g, Spread, |v| {
                if v == 0 {
                    Infect::Infected
                } else {
                    Infect::Healthy
                }
            });
            net.ensure_kernel();
            while net.sync_step_kernel_seeded(0) > 0 {}
            net
        };
        // The centre of a 3×3 grid: its 4 neighbours keep 2 others each.
        let mut net = converged(&generators::grid(3, 3));
        net.remove_node(4);
        assert_eq!(net.kernel().unwrap().dirty_count(), 4);
        let before = net.metrics.activations;
        net.sync_step_kernel_seeded(1);
        assert_eq!(net.metrics.activations, before + 4);
        // A star's hub: all 4 leaves lost their only neighbour, so none
        // is eligible and none is scheduled.
        let mut net = converged(&generators::star(5));
        net.remove_node(0);
        let k = net.kernel().unwrap();
        assert_eq!((k.eligible_count(), k.dirty_count()), (0, 0));
    }

    #[test]
    fn interpreter_interleaving_invalidates_dirty_set() {
        let mut net = infected_path(6);
        net.ensure_kernel();
        while net.sync_step_kernel_seeded(0) > 0 {}
        // Out-of-band write through the interpreter-facing API...
        net.set_state(5, Infect::Healthy);
        // ...must force a full re-evaluation on the next kernel round.
        let before = net.metrics.activations;
        net.sync_step_kernel_seeded(1);
        assert_eq!(net.metrics.activations, before + 6);
        assert_eq!(net.state(5), Infect::Infected, "re-infected by neighbour");

        // Both buffers' writers interleaved, against an interpreter-only
        // twin: a kernel all-round, an interpreter round, an out-of-band
        // write, an arrival, then kernel rounds.
        let mut net = infected_path(6);
        let mut twin = infected_path(6);
        net.ensure_kernel();
        assert!(net.kernel().unwrap().all, "a new kernel's first round");
        assert_eq!(net.sync_step_kernel_seeded(0), twin.sync_step_seeded(0));
        assert_eq!(net.sync_step_seeded(1), twin.sync_step_seeded(1));
        for n in [&mut net, &mut twin] {
            n.set_state(4, Infect::Infected);
            let v = n.add_node(Infect::Healthy);
            assert!(n.add_edge(v, 5));
        }
        for round in 2..10 {
            let changed = net.sync_step_kernel_seeded(round);
            assert_eq!(changed, twin.sync_step_seeded(round), "round {round}");
            assert_eq!(net.states(), twin.states(), "round {round}");
        }
        assert!(net.states().iter().all(|&s| s == Infect::Infected));
    }

    /// 5000 states ** 2 classes blows the accumulator budget.
    #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Big(u16);
    impl StateSpace for Big {
        const COUNT: usize = 5000;
        fn index(self) -> usize {
            self.0 as usize
        }
        fn from_index(i: usize) -> Self {
            Big(i as u16)
        }
    }

    /// The largest state in the closed neighbourhood: the direct plan.
    struct MaxOf;
    impl Protocol for MaxOf {
        type State = Big;
        const COMPILED: bool = true;
        fn transition(&self, own: Big, nbrs: &NeighborView<'_, Big>, _c: u32) -> Big {
            nbrs.present_states().fold(own, Big::max)
        }
    }

    /// [`MaxOf`] declared as a fold: the fold plan.
    struct FoldMax;
    impl Protocol for FoldMax {
        type State = Big;
        const COMPILED: bool = true;
        const FOLD: Option<Fold<Big>> = Some(Fold {
            join: Big::max,
            finish: Big::max,
        });
        fn transition(&self, own: Big, nbrs: &NeighborView<'_, Big>, c: u32) -> Big {
            MaxOf.transition(own, nbrs, c)
        }
    }

    #[test]
    fn direct_plan_used_for_large_state_spaces() {
        let g = generators::cycle(8);
        let mut net = Network::new(&g, MaxOf, |v| Big(v as u16 * 37 % 5000));
        net.ensure_kernel();
        assert_eq!(net.kernel_plan(), Some(KernelPlan::Direct));
        let mut reference = Network::new(&g, MaxOf, |v| Big(v as u16 * 37 % 5000));
        for round in 0..8 {
            net.sync_step_kernel_seeded(round);
            reference.sync_step_seeded(round);
            assert_eq!(net.states(), reference.states());
        }
    }

    /// Coin-driven two-state protocol (RANDOMNESS = 2): the dirty set is
    /// unsound for it, which the scheduling tests below rely on.
    struct Flip;
    impl Protocol for Flip {
        type State = Infect;
        const RANDOMNESS: u32 = 2;
        const COMPILED: bool = true;
        fn transition(&self, _own: Infect, _n: &NeighborView<'_, Infect>, coin: u32) -> Infect {
            if coin == 0 {
                Infect::Healthy
            } else {
                Infect::Infected
            }
        }
    }

    #[test]
    fn probabilistic_protocols_skip_dirty_set() {
        let g = generators::cycle(6);
        let mut a = Network::new(&g, Flip, |_| Infect::Healthy);
        let mut b = Network::new(&g, Flip, |_| Infect::Healthy);
        b.ensure_kernel();
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..10 {
            let seed = rng.next_u64();
            a.sync_step_seeded(seed);
            b.sync_step_kernel_seeded(seed);
            assert_eq!(a.states(), b.states());
        }
    }

    /// Every round of a probabilistic protocol is an all-round, so a dead
    /// node is copied into the second buffer and swapped back every
    /// round: its state must survive each swap, in lockstep with the
    /// interpreter, inline and pooled. The removed node has just changed,
    /// so the second buffer still holds its older state.
    #[test]
    fn dead_state_survives_probabilistic_all_rounds() {
        let g = generators::torus(16, 16);
        let init = |v: NodeId| [Infect::Healthy, Infect::Infected][v.is_multiple_of(3) as usize];
        for threads in [1, 3] {
            let mut a = Network::new(&g, Flip, init);
            let mut b = Network::new(&g, Flip, init);
            let mut rng = Xoshiro256::seed_from_u64(13);
            let (mut before, mut frozen) = (a.states().to_vec(), None);
            for round in 0..8 {
                if round == 3 {
                    let moved = |v: &NodeId| a.state(*v) != before[*v as usize];
                    let v = (0..g.n() as NodeId).find(moved).expect("round 2 moved");
                    assert!(a.remove_node(v) && b.remove_node(v));
                    frozen = Some((v, b.state(v)));
                }
                before = a.states().to_vec();
                let seed = rng.next_u64();
                let changed =
                    b.sync_step_kernel_sharded_seeded_traced(seed, threads, &mut NullTracer);
                assert_eq!(changed, a.sync_step_seeded(seed), "round {round}");
                assert_eq!(a.states(), b.states(), "{threads} threads, round {round}");
                if let Some((v, s)) = frozen {
                    assert_eq!(b.state(v), s, "{threads} threads, round {round}");
                }
            }
        }
    }

    /// An all-round against the same round run as a worklist round over
    /// `0..n`: the evaluator into `pending`, then the marking commit. The
    /// states, change count, `all` flag, next worklist and dirty bits
    /// must match, for each plan, at 1 and 3 threads, on a torus with a
    /// dead slot and an isolated slot, through dense and sparse results.
    /// Each round starts a fresh kernel, whose first round is an
    /// all-round, on the interpreter's states.
    #[test]
    fn all_rounds_match_listed_rounds() {
        fn check<P>(protocol: impl Fn() -> P, init: fn(NodeId) -> P::State, plan: KernelPlan)
        where
            P: Protocol + Sync,
            P::State: Send + Sync + std::fmt::Debug,
        {
            let (mut dense, mut sparse) = (0, 0);
            for threads in [1, 3] {
                let mut pool = ShardPool::new(threads);
                let mut net = Network::new(&generators::torus(16, 16), protocol(), init);
                assert!(net.remove_node(5));
                net.add_node(init(256));
                let ids: Vec<NodeId> = (0..net.n() as NodeId).collect();
                assert_eq!(ids.len(), 257, "one isolated slot past the torus");
                for round in 0..14 {
                    let ctx = format!("{plan:?}, {threads} threads, round {round}");
                    let (p, g, s) = (net.protocol(), net.graph(), net.states());
                    let mut m = Metrics::default();
                    let mut a = CompiledKernel::new(&net);
                    assert_eq!(a.plan(), plan);
                    // The second buffer starts out holding other states.
                    let (mut sa, mut na) = (s.to_vec(), s.to_vec());
                    na.rotate_left(1);
                    let trace = &mut NullTracer;
                    let ca = a.round(p, g, &mut sa, &mut na, &mut m, round, &mut pool, trace, 0);
                    let mut b = CompiledKernel::new(&net);
                    b.all = false;
                    let listed = Target::List(&ids);
                    let stats = (&mut pool).evaluate::<false>(
                        &mut b,
                        p,
                        g,
                        s,
                        listed,
                        round,
                        &mut Vec::new(),
                    );
                    let mut sb = s.to_vec();
                    b.commit(g, &mut sb, &[], false, stats.changes as usize);
                    assert_eq!(sa, sb, "{ctx}: states");
                    assert_eq!(ca as u64, stats.changes, "{ctx}: change count");
                    assert_eq!(a.all, b.all, "{ctx}: all flag");
                    assert_eq!(a.worklist, b.worklist, "{ctx}: next worklist");
                    assert_eq!(a.dirty, b.dirty, "{ctx}: dirty bits");
                    assert_eq!(na, s, "{ctx}: the second buffer holds the old states");
                    if a.all {
                        dense += 1;
                    } else {
                        sparse += 1;
                    }
                    net.sync_step_seeded(round);
                    assert_eq!(net.states(), sa, "{ctx}: the interpreter's round");
                }
            }
            assert!(
                dense > 0 && sparse > 0,
                "{plan:?}: {dense} dense, {sparse} sparse"
            );
        }
        let peak = |v: NodeId| Big(if v == 100 { 9 } else { (v % 3) as u16 });
        check(|| FoldMax, peak, KernelPlan::Fold);
        check(|| MaxOf, peak, KernelPlan::Direct);
        let seed = |v: NodeId| [Infect::Healthy, Infect::Infected][v.is_multiple_of(50) as usize];
        check(|| Spread, seed, KernelPlan::Tabular);
    }

    #[test]
    fn repeated_fault_mid_run_stays_lockstep_with_interpreter() {
        // Network-level double removal: the first succeeds, the second
        // reports `false` and the kernel mirror must stay consistent with
        // the interpreter's topology through the rest of the run.
        let mut a = infected_path(8);
        let mut b = infected_path(8);
        b.ensure_kernel();
        for round in 0..3 {
            a.sync_step_seeded(round);
            b.sync_step_kernel_seeded(round);
        }
        for net in [&mut a, &mut b] {
            assert!(net.remove_edge(4, 5));
            assert!(!net.remove_edge(4, 5), "second removal is a no-op");
            assert!(!net.remove_edge(5, 4), "either orientation");
        }
        for round in 3..10 {
            let ca = a.sync_step_seeded(round);
            let cb = b.sync_step_kernel_seeded(round);
            assert_eq!(ca, cb, "round {round}");
            assert_eq!(a.states(), b.states(), "round {round}");
        }
    }

    #[test]
    fn eligible_count_tracks_faults() {
        let mut net = infected_path(5);
        net.ensure_kernel();
        let eligible = |net: &Network<Spread>| net.kernel().unwrap().eligible_count();
        assert_eq!(eligible(&net), 5);
        // Cutting the end edge isolates node 0.
        assert!(net.remove_edge(0, 1));
        assert_eq!(eligible(&net), 4);
        // Removing interior node 2 kills it and isolates node 1.
        assert!(net.remove_node(2));
        assert_eq!(eligible(&net), 2, "nodes 3 and 4 remain eligible");
        // An arrival is eligible only once an edge attaches it.
        let v = net.add_node(Infect::Healthy);
        assert_eq!(eligible(&net), 2);
        assert!(net.add_edge(v, 0));
        assert_eq!(eligible(&net), 4, "the arrival and node 0 joined");
    }

    #[test]
    fn surgery_noops_leave_the_kernel_unchanged() {
        // `Network` calls the kernel's surgery hooks only when the graph
        // changed. A surgery that changes nothing must report `false`
        // and reschedule nothing.
        let mut net = infected_path(6);
        net.ensure_kernel();
        assert!(net.remove_edge(2, 3));
        assert!(net.remove_node(4));
        while net.sync_step_kernel_seeded(0) > 0 {}
        let counts = |net: &Network<Spread>| {
            let k = net.kernel().unwrap();
            (k.eligible_count(), k.dirty_count())
        };
        let before = counts(&net);
        assert_eq!(before, (3, 0), "nodes 0..=2 eligible, worklist drained");
        assert!(!net.remove_edge(2, 3), "repeated edge removal");
        assert!(!net.remove_edge(3, 2), "either orientation");
        assert!(!net.remove_edge(0, 5), "phantom edge");
        assert!(!net.remove_node(4), "repeated node removal");
        assert!(!net.add_edge(1, 2), "duplicate edge addition");
        let stale = FaultKind::AddNode(9);
        assert!(
            !net.apply_fault(stale, |_| Infect::Healthy),
            "stale arrival"
        );
        assert_eq!(net.n(), 6);
        assert_eq!(counts(&net), before);
    }

    #[test]
    fn randomized_protocol_is_never_dirty_scheduled() {
        use crate::obs::RoundLog;
        let g = generators::cycle(6);
        let mut net = Network::new(&g, Flip, |_| Infect::Healthy);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        let mut log = RoundLog::default();
        let mut m = Metrics::default();
        let mut states = net.states().to_vec();
        let mut next = states.clone();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..8 {
            k.round(
                net.protocol(),
                net.graph(),
                &mut states,
                &mut next,
                &mut m,
                rng.next_u64(),
                Inline,
                &mut log,
                0,
            );
        }
        for r in &log.rounds {
            assert_eq!(
                r.scheduled, r.eligible,
                "every eligible node must be scheduled every round"
            );
            assert_eq!(r.activations, r.eligible, "and evaluated");
        }
    }

    #[test]
    fn traced_step_reports_round_metrics() {
        use crate::obs::RoundLog;
        let mut net = infected_path(6);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        let mut log = RoundLog::default();
        let mut m = Metrics::default();
        let mut states = net.states().to_vec();
        let mut next = states.clone();
        k.round(
            net.protocol(),
            net.graph(),
            &mut states,
            &mut next,
            &mut m,
            0,
            Inline,
            &mut log,
            0,
        );
        let r = log.rounds[0];
        assert_eq!(r.round, 1);
        assert_eq!(r.eligible, 6);
        assert_eq!(r.scheduled, 6, "first round schedules everything");
        assert_eq!(r.activations, 6);
        assert_eq!(r.changes, 1);
        assert_eq!(r.neighbor_reads, 10, "path of 6: degree sum 2*5");
        assert_eq!(r.tabular + r.direct, r.activations, "dispatch totals");
    }

    #[test]
    fn edge_addition_reschedules_endpoints() {
        // Cut the path, reach fixpoint with the right half healthy, then
        // *add* a bridging edge: infection must resume through it.
        let mut net = infected_path(6);
        net.ensure_kernel();
        net.remove_edge(2, 3);
        while net.sync_step_kernel_seeded(0) > 0 {}
        assert_eq!(net.state(3), Infect::Healthy);
        assert!(net.add_edge(1, 4), "fresh bridge");
        assert_eq!(
            net.kernel().unwrap().dirty_count(),
            2,
            "both endpoints rescheduled"
        );
        let mut round = 1;
        while net.sync_step_kernel_seeded(round) > 0 {
            round += 1;
        }
        assert_eq!(net.state(4), Infect::Infected, "spread crossed the bridge");
        assert!(!net.add_edge(1, 4), "duplicate addition reports false");
    }

    #[test]
    fn node_arrival_joins_after_first_edge() {
        let mut net = infected_path(4);
        net.ensure_kernel();
        while net.sync_step_kernel_seeded(0) > 0 {}
        let v = net.add_node(Infect::Healthy);
        assert_eq!(v, 4);
        assert_eq!(
            net.kernel().unwrap().dirty_count(),
            0,
            "an isolated arrival needs no re-evaluation"
        );
        assert!(net.add_edge(v, 3));
        let mut round = 1;
        while net.sync_step_kernel_seeded(round) > 0 {
            round += 1;
        }
        assert_eq!(net.state(v), Infect::Infected, "arrival caught the spread");
    }

    /// `Mixed` queries a threshold of 3 on one state and parity on
    /// another: the tabular plan with a tail and a period above 1.
    #[test]
    fn tabular_tails_and_periods_match_the_interpreter() {
        use crate::compile::tests::{Mixed, Tri};
        let mut rng = Xoshiro256::seed_from_u64(17);
        let graphs = [
            generators::torus(6, 6),
            generators::star(14),
            generators::connected_gnp(40, 0.2, &mut rng),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let init = |v: NodeId| Tri::from_index((v as usize * 7 + i) % 3);
            let mut a = Network::new(g, Mixed, init);
            let mut b = Network::new(g, Mixed, init);
            b.ensure_kernel();
            match &b.kernel().unwrap().plan {
                Plan::Tabular { space, .. } => {
                    assert_eq!(space.tails(), [1, 3, 1]);
                    assert_eq!(space.periods(), [1, 1, 2]);
                }
                _ => panic!("graph {i}: expected the tabular plan"),
            }
            let mut changes = 0;
            for round in 0..16 {
                let ca = a.sync_step_seeded(round);
                let cb = b.sync_step_kernel_seeded(round);
                assert_eq!(ca, cb, "graph {i}, round {round}: change counts");
                assert_eq!(a.states(), b.states(), "graph {i}, round {round}: states");
                changes += ca;
            }
            assert!(changes > 0, "graph {i}: the run must move");
        }
    }

    fn xor(a: Infect, b: Infect) -> Infect {
        if a == b {
            Infect::Healthy
        } else {
            Infect::Infected
        }
    }

    /// `Infect` read as a bit: a node flips when an odd number of its
    /// neighbours are `Infected`. `join = finish = XOR` is associative and
    /// commutative but not idempotent, so the fold plan must count
    /// multiplicities; no shipped fold does.
    struct OddFlip;
    impl Protocol for OddFlip {
        type State = Infect;
        const MODULI_LCM: u32 = 2;
        const COMPILED: bool = true;
        const FOLD: Option<Fold<Infect>> = Some(Fold {
            join: xor,
            finish: xor,
        });
        fn transition(&self, own: Infect, nbrs: &NeighborView<'_, Infect>, _c: u32) -> Infect {
            if nbrs.congruent(Infect::Infected, 1, 2) {
                xor(own, Infect::Infected)
            } else {
                own
            }
        }
    }

    #[test]
    fn non_idempotent_fold_matches_the_interpreter() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let graphs = [
            generators::torus(6, 6),
            generators::star(14),
            generators::connected_gnp(40, 0.2, &mut rng),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let init = |v: NodeId| {
                if v.is_multiple_of(3) {
                    Infect::Infected
                } else {
                    Infect::Healthy
                }
            };
            let mut a = Network::new(g, OddFlip, init);
            let mut b = Network::new(g, OddFlip, init);
            b.ensure_kernel();
            // Two states would tabulate: the declared fold wins.
            assert_eq!(b.kernel_plan(), Some(KernelPlan::Fold), "graph {i}");
            let mut changes = 0;
            for round in 0..16 {
                let ca = a.sync_step_seeded(round);
                let cb = b.sync_step_kernel_seeded(round);
                assert_eq!(ca, cb, "graph {i}, round {round}: change counts");
                assert_eq!(a.states(), b.states(), "graph {i}, round {round}: states");
                changes += ca;
            }
            assert!(changes > 0, "graph {i}: the run must move");
        }
    }

    /// The invariant the scheduler leans on, checked directly: after
    /// every round that was not committed dense, evaluating every clean
    /// node changes nothing, through sparse and dense rounds and surgery.
    #[test]
    fn clean_nodes_stay_at_a_local_fixpoint() {
        use crate::compile::tests::{Mixed, Tri};
        /// Runs 16 rounds with surgery after round 4; returns the dense
        /// rounds and the clean nodes checked.
        fn check<P: Protocol>(mut net: Network<P>, ctx: &str) -> [usize; 2] {
            net.ensure_kernel();
            let (mut dense, mut checked) = (0, 0);
            for round in 0..16 {
                if round == 4 {
                    let v = net.graph().n_slots() as NodeId / 2;
                    net.remove_node(v);
                    let w = net.add_node(net.state(0));
                    net.add_edge(w, 0);
                }
                net.sync_step_kernel_seeded(round);
                let k = net.kernel().unwrap();
                if k.all {
                    dense += 1;
                    continue;
                }
                let clean: Vec<NodeId> = (0..net.states().len() as NodeId)
                    .filter(|&v| k.dirty[v as usize / 64] >> (v % 64) & 1 == 0)
                    .collect();
                let mut out = Vec::new();
                let (p, g, s) = (net.protocol(), net.graph(), net.states());
                let bufs = &mut EvalBufs::default();
                let clean_ids = clean.iter().copied();
                eval_chunk::<P, false>(p, g, &k.plan, s, clean_ids, 0, &mut out, bufs);
                assert!(out.is_empty(), "{ctx}, round {round}: {out:?} would change");
                checked += clean.len();
            }
            [dense, checked]
        }
        let mut rng = Xoshiro256::seed_from_u64(29);
        let graphs = [
            generators::torus(6, 6),
            generators::star(14),
            generators::connected_gnp(40, 0.2, &mut rng),
        ];
        let mut totals = [0, 0];
        for (i, g) in graphs.iter().enumerate() {
            let init = |v: NodeId| Tri::from_index((v as usize * 7 + i) % 3);
            let mut runs = vec![check(Network::new(g, Mixed, init), &format!("{i}, Mixed"))];
            let init =
                |v: NodeId| [Infect::Healthy, Infect::Infected][v.is_multiple_of(5) as usize];
            runs.push(check(
                Network::new(g, OddFlip, init),
                &format!("{i}, OddFlip"),
            ));
            runs.push(check(
                Network::new(g, Spread, init),
                &format!("{i}, Spread"),
            ));
            for [dense, checked] in runs {
                totals = [totals[0] + dense, totals[1] + checked];
            }
        }
        assert!(
            totals[0] > 0 && totals[1] > 0,
            "dense rounds, checks: {totals:?}"
        );
    }

    /// The dirty bitset and its worklist against a `BTreeSet` model and
    /// the marking order, over seeded sequences of surgery hooks, sparse
    /// and dense commits, prologues, whole all-rounds of `Spread`,
    /// `mark_all_dirty` and arrivals. The sizes straddle word boundaries,
    /// so arrivals add words.
    #[test]
    fn dirty_bitset_matches_a_set_model() {
        use std::collections::BTreeSet;
        let (mut all_rounds, mut sparse_all_rounds) = (0, 0);
        for n in [63usize, 64, 65, 130] {
            let net = Network::new(&generators::cycle(n), Spread, |_| Infect::Healthy);
            let mut graph = net.graph().clone();
            let mut states = net.states().to_vec();
            let mut next = states.clone();
            let mut k = CompiledKernel::new(&net);
            let mut rng = Xoshiro256::seed_from_u64(n as u64);
            let mut metrics = Metrics::default();
            // The model: the marked set, its marking order, the all flag.
            let (mut model, mut order, mut all) = (BTreeSet::new(), Vec::new(), true);
            let mark = |model: &mut BTreeSet<NodeId>, order: &mut Vec<NodeId>, v| {
                if model.insert(v) {
                    order.push(v);
                }
            };
            for step in 0..300 {
                let slots = states.len();
                let pick = |rng: &mut Xoshiro256| rng.gen_range(slots as u64) as NodeId;
                let ctx = format!("n {n}, step {step}");
                match rng.gen_range(7) {
                    0 => {
                        let (u, v) = (pick(&mut rng), pick(&mut rng));
                        if graph.add_edge(u, v) {
                            k.on_edge_added(&graph, u, v);
                            mark(&mut model, &mut order, u);
                            mark(&mut model, &mut order, v);
                        }
                    }
                    1 => {
                        let v = pick(&mut rng);
                        if let Some(&u) = graph.neighbors(v).first() {
                            graph.remove_edge(u, v);
                            k.on_edge_removed(&graph, u, v);
                            for w in [u, v] {
                                if graph.degree(w) > 0 {
                                    mark(&mut model, &mut order, w);
                                }
                            }
                        }
                    }
                    2 => {
                        let v = pick(&mut rng);
                        let former = graph.neighbors(v).to_vec();
                        if graph.remove_node(v) {
                            k.on_node_removed(&graph, v, &former);
                            for w in former {
                                if graph.degree(w) > 0 {
                                    mark(&mut model, &mut order, w);
                                }
                            }
                        }
                    }
                    3 => {
                        // Distinct changed nodes, sometimes past n/8.
                        let mut changed = BTreeSet::new();
                        for _ in 0..rng.gen_range(slots as u64 / 4) {
                            changed.insert(pick(&mut rng));
                        }
                        k.pending = changed.iter().map(|&v| (v, Infect::Infected)).collect();
                        k.commit(&graph, &mut states, &[], false, changed.len());
                        if changed.len() > slots / DENSE_FRONTIER {
                            all = true;
                        } else {
                            for &v in &changed {
                                mark(&mut model, &mut order, v);
                                for &w in graph.neighbors(v) {
                                    mark(&mut model, &mut order, w);
                                }
                            }
                        }
                    }
                    4 => {
                        k.mark_all_dirty();
                        all = true;
                    }
                    5 => {
                        let v = graph.add_node();
                        k.on_node_added(v);
                        states.push(Infect::Healthy);
                        next.push(Infect::Healthy);
                        let u = pick(&mut rng);
                        if graph.add_edge(v, u) {
                            k.on_edge_added(&graph, v, u);
                            mark(&mut model, &mut order, v);
                            mark(&mut model, &mut order, u);
                        }
                    }
                    _ if all => {
                        // A whole all-round: every slot into `next`, the
                        // swap, then a dense flag or, for a sparse result,
                        // the marks of its changes in id order.
                        let before = states.clone();
                        let mut log = crate::obs::RoundLog::default();
                        let changes = k.round(
                            &Spread,
                            &graph,
                            &mut states,
                            &mut next,
                            &mut metrics,
                            0,
                            Inline,
                            &mut log,
                            0,
                        );
                        let infected = |v: NodeId| before[v as usize] == Infect::Infected;
                        let want: Vec<Infect> = (0..slots as NodeId)
                            .map(|v| {
                                let row = graph.neighbors(v);
                                let hit = !row.is_empty() && row.iter().any(|&w| infected(w));
                                [before[v as usize], Infect::Infected][hit as usize]
                            })
                            .collect();
                        assert_eq!(states, want, "{ctx}: all-round states");
                        let eligible = (0..slots as NodeId).filter(|&v| graph.degree(v) > 0);
                        let r = log.rounds[0];
                        assert_eq!(r.scheduled, eligible.count() as u64, "{ctx}: scheduled");
                        assert_eq!(r.changes, changes as u64, "{ctx}: changes");
                        (model, order) = (BTreeSet::new(), Vec::new());
                        all_rounds += 1;
                        all = changes > slots / DENSE_FRONTIER;
                        if !all {
                            sparse_all_rounds += 1;
                            for v in (0..slots as NodeId)
                                .filter(|&v| want[v as usize] != before[v as usize])
                            {
                                mark(&mut model, &mut order, v);
                                for &w in graph.neighbors(v) {
                                    mark(&mut model, &mut order, w);
                                }
                            }
                        }
                    }
                    _ => {
                        let work = k.take_worklist(slots);
                        let want: Vec<NodeId> = if order.len() > slots / DENSE_FRONTIER {
                            model.iter().copied().collect()
                        } else {
                            order.clone()
                        };
                        assert_eq!(work, want, "{ctx}: scheduled set or its order");
                        assert!(k.dirty.iter().all(|&w| w == 0), "{ctx}: a bit survived");
                        (model, order) = (BTreeSet::new(), Vec::new());
                        k.worklist = work;
                        k.worklist.clear();
                    }
                }
                let bits: BTreeSet<NodeId> = (0..states.len() as NodeId)
                    .filter(|&v| k.dirty[v as usize / 64] >> (v % 64) & 1 == 1)
                    .collect();
                assert_eq!(bits, model, "{ctx}: dirty bits");
                assert_eq!(k.worklist, order, "{ctx}: worklist");
                assert_eq!(k.dirty.len(), states.len().div_ceil(64), "{ctx}: words");
                let eligible = graph.alive_nodes().filter(|&v| graph.degree(v) > 0).count();
                assert_eq!(k.eligible_count(), eligible as u64, "{ctx}: eligible");
                let want = if all { eligible } else { model.len() };
                assert_eq!(k.dirty_count(), want, "{ctx}: dirty_count");
                assert_eq!(k.all, all, "{ctx}: all-round flag");
            }
        }
        assert!(
            sparse_all_rounds > 0 && sparse_all_rounds < all_rounds,
            "{sparse_all_rounds} of {all_rounds} all-rounds were sparse"
        );
    }

    /// The pieces of `work` that [`cut`]'s `ends` mark.
    fn pieces<'a>(work: &'a [NodeId], ends: &[usize]) -> Vec<&'a [NodeId]> {
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts.zip(ends).map(|(lo, &hi)| &work[lo..hi]).collect()
    }

    /// [`cut`] of a worklist, as slices.
    fn cut_worklist<'a>(work: &'a [NodeId], graph: &DynGraph, shards: usize) -> Vec<&'a [NodeId]> {
        pieces(work, &cut(Some(work), graph, shards))
    }

    /// Per-slice weights (`degree + 1` summed) and their max-over-mean
    /// ratio.
    fn cut_weights(graph: &DynGraph, slices: &[&[NodeId]]) -> (Vec<u64>, f64) {
        let weights: Vec<u64> = slices
            .iter()
            .map(|s| s.iter().map(|&v| graph.degree(v) as u64 + 1).sum())
            .collect();
        let mean = weights.iter().sum::<u64>() as f64 / weights.len() as f64;
        let max = *weights.iter().max().unwrap() as f64;
        (weights, max / mean)
    }

    #[test]
    fn cut_slices_concatenate_to_the_worklist() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let g = DynGraph::from_graph(&generators::preferential_attachment(300, 3, &mut rng));
        for len in [0, 1, 2, 5, 64, 299, 300] {
            // Distinct ids in a seeded order, as a marking order is.
            let mut work: Vec<NodeId> = (0..300).collect();
            for i in (1..work.len()).rev() {
                work.swap(i, rng.gen_range(i as u64 + 1) as usize);
            }
            work.truncate(len);
            for shards in 1..=8 {
                let slices = cut_worklist(&work, &g, shards);
                assert_eq!(slices.len(), shards, "len {len}, {shards} shards");
                assert_eq!(slices.concat(), work, "len {len}, {shards} shards");
            }
        }
    }

    /// On an all-round the cut lands where the prefix sums of `degree + 1`
    /// over `0..n` first reach `k/shards` of the total (found here by
    /// binary search), which is where the cut of a `0..n` worklist lands,
    /// also after surgery leaves dead, weight-1 slots and an arrival.
    #[test]
    fn all_round_cut_follows_the_degree_prefix() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut churned = DynGraph::from_graph(&generators::torus(20, 20));
        for v in [3, 77, 150, 151, 399] {
            churned.remove_node(v);
        }
        let w = churned.add_node();
        churned.add_edge(w, 0);
        let graphs = [
            DynGraph::from_graph(&generators::torus(20, 20)),
            DynGraph::from_graph(&generators::star(1000)),
            DynGraph::from_graph(&generators::preferential_attachment(2000, 3, &mut rng)),
            churned,
        ];
        for (i, g) in graphs.iter().enumerate() {
            let n = g.n_slots();
            let work: Vec<NodeId> = (0..n as NodeId).collect();
            let prefix: Vec<u64> = work
                .iter()
                .scan(0, |acc, &v| {
                    *acc += g.degree(v) as u64 + 1;
                    Some(*acc)
                })
                .collect();
            let total = prefix[n - 1];
            for shards in [2usize, 3, 4, 7] {
                let ends: Vec<usize> = (1..shards)
                    .map(|k| {
                        prefix.partition_point(|&p| p * (shards as u64) < total * k as u64) + 1
                    })
                    .chain([n])
                    .collect();
                assert_eq!(cut(None, g, shards), ends, "graph {i}, {shards} shards");
                let listed = cut(Some(&work), g, shards);
                assert_eq!(listed, ends, "graph {i}, {shards} shards, listed");
            }
        }
    }

    #[test]
    fn cut_balances_skewed_all_rounds() {
        // Star: the hub carries a third of the weight, so an even node
        // count would hand slice 0 about two thirds of it.
        let g = DynGraph::from_graph(&generators::star(1000));
        let work: Vec<NodeId> = (0..1000).collect();
        let slices = pieces(&work, &cut(None, &g, 2));
        assert!(
            slices[0].len() < 301,
            "hub slice takes {} leaves",
            slices[0].len() - 1
        );
        let (_, imbalance) = cut_weights(&g, &slices);
        assert!(imbalance < 1.01, "star imbalance {imbalance}");
        let mut rng = Xoshiro256::seed_from_u64(7);
        let g = DynGraph::from_graph(&generators::preferential_attachment(2000, 3, &mut rng));
        let work: Vec<NodeId> = (0..2000).collect();
        let (_, imbalance) = cut_weights(&g, &pieces(&work, &cut(None, &g, 4)));
        assert!(imbalance < 1.25, "power-law imbalance {imbalance}");
    }

    /// A sparse worklist is cut by its own weight, in marking order: ids
    /// crowded into one quarter of the id space still spread over every
    /// slice, each within one node's weight (5 on a torus) of even.
    #[test]
    fn marking_order_worklist_splits_evenly() {
        let g = DynGraph::from_graph(&generators::torus(32, 32));
        // A wavefront's marking order: breadth-first from node 0 over the
        // first quarter's ids.
        let mut work = vec![0];
        let mut i = 0;
        while let Some(&v) = work.get(i) {
            for &w in g.neighbors(v) {
                if w < 256 && !work.contains(&w) {
                    work.push(w);
                }
            }
            i += 1;
        }
        assert_eq!(work.len(), 256);
        for shards in [2, 3, 4] {
            let slices = cut_worklist(&work, &g, shards);
            let (weights, _) = cut_weights(&g, &slices);
            let even = 5 * 256 / shards as u64;
            for (k, &w) in weights.iter().enumerate() {
                assert!(
                    w.abs_diff(even) <= 5,
                    "{shards} shards, slice {k}: {weights:?}"
                );
            }
        }
    }

    /// Both evaluators keep the worklist's order, so after every round
    /// the pending buffer and the next worklist are the same sequence at
    /// 1, 2 and 3 threads — through pooled rounds whose worklist keeps
    /// marking order (between `SHARD_MIN_WORK` and `n / DENSE_FRONTIER`
    /// entries, so `n` must exceed 2,048 slots).
    #[test]
    fn pooled_rounds_keep_the_inline_worklist() {
        use crate::obs::RoundLog;
        let g = generators::torus(64, 64);
        let n = g.n();
        let mut nets: Vec<Network<Spread>> = (0..3)
            .map(|_| {
                Network::new(&g, Spread, |v| {
                    [Infect::Healthy, Infect::Infected][(v == 0) as usize]
                })
            })
            .collect();
        let mut logs: Vec<RoundLog> = (0..3).map(|_| RoundLog::default()).collect();
        for round in 0..70 {
            for (t, (net, log)) in nets.iter_mut().zip(&mut logs).enumerate() {
                net.sync_step_kernel_sharded_seeded_traced(round, t + 1, log);
            }
            let k = |t: usize| nets[t].kernel().unwrap();
            for t in [1, 2] {
                let ctx = format!("round {round}, {} threads", t + 1);
                assert_eq!(k(t).pending, k(0).pending, "{ctx}: pending");
                assert_eq!(k(t).worklist, k(0).worklist, "{ctx}: worklist");
                assert_eq!(k(t).all, k(0).all, "{ctx}: all-round flag");
            }
        }
        assert!(nets[0].states().iter().all(|&s| s == Infect::Infected));
        let log = &logs[1];
        let marking_order = log
            .rounds
            .iter()
            .filter(|r| r.scheduled as usize <= n / DENSE_FRONTIER)
            .filter(|r| log.shards.iter().any(|s| s.round == r.round))
            .count();
        assert!(
            marking_order >= 10,
            "{marking_order} pooled marking-order rounds"
        );
    }

    #[test]
    fn incremental_growth_matches_rebuilt_kernel() {
        // After a mixed churn batch, the incrementally-repaired kernel
        // must evolve bit-identically to a kernel rebuilt from scratch.
        let g = generators::grid(4, 4);
        let init = |v: NodeId| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        };
        let mut inc = Network::new(&g, Spread, init);
        inc.ensure_kernel();
        for round in 0..3 {
            inc.sync_step_kernel_seeded(round);
        }
        // Churn batch: removals and arrivals interleaved.
        inc.remove_edge(0, 1);
        let a = inc.add_node(Infect::Healthy);
        inc.add_edge(a, 5);
        inc.remove_node(10);
        let b = inc.add_node(Infect::Healthy);
        inc.add_edge(b, a);
        inc.add_edge(b, 15);
        // Rebuild path: same topology and states, fresh kernel.
        let snap = inc.graph().snapshot();
        let mut rebuilt = Network::new(&snap, Spread, |v| inc.state(v));
        for w in 0..snap.n() as NodeId {
            if !inc.graph().is_alive(w) {
                rebuilt.remove_node(w);
            }
        }
        rebuilt.ensure_kernel();
        for round in 3..12 {
            let ci = inc.sync_step_kernel_seeded(round);
            let cr = rebuilt.sync_step_kernel_seeded(round);
            assert_eq!(ci, cr, "round {round} change counts");
            assert_eq!(inc.states(), rebuilt.states(), "round {round} states");
        }
    }
}
