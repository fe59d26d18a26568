//! The compiled execution path: packed-state batched reductions + CSR
//! adjacency + a dirty-set synchronous scheduler.
//!
//! The interpreter path ([`crate::network`]) re-tallies every
//! neighbourhood into a scratch multiplicity vector and calls the
//! protocol's `transition` closure per activation. Theorem 3.7 says that
//! closure is an SM function over a *finite* abstraction of the
//! multiset — each state's count only matters up to a threshold bound `B`
//! and modulo a period `M`. [`CompiledKernel`] exploits this twice:
//!
//! 1. **Tabular plan** — when the abstract count space is small
//!    (`(B + M)^|Q|` within budget), the whole round becomes a batched
//!    reduction: histogram the row's packed state indices into a tiny
//!    stack array, map each count to its class digit with `class_of`,
//!    and look the digit-vector accumulator up in a `trans` table
//!    (`(own state, coin, accumulator) → new state`). No branches, no
//!    protocol code, no serially-dependent table loads on the hot path.
//!    Count classes commute across states, so the histogram form equals
//!    the one-neighbour-at-a-time left fold by construction — this is
//!    the divide-and-conquer regrouping of symmetric-FSA reductions.
//! 2. **Direct plan** — when the state space is too large to tabulate
//!    (census sketches, distance labels), the kernel gathers the row's
//!    packed indices into a small contiguous buffer, sorts it, and
//!    run-length-encodes it into a *sparse* [`NeighborView`] — no
//!    `|Q|`-length scratch vector in the loop, no per-activation
//!    allocation, no `DynGraph` pointer chasing. Very long rows fall
//!    back to the dense scratch tally, where one O(len) scatter beats
//!    an O(len log len) sort.
//!
//! Both plans read neighbour states from a [`PackedStates`] mirror — a
//! 4/8/16/32-bit index array chosen from `|Q|` — so the inner gather
//! touches a fraction of the memory that full state words would, which
//! on a single-core host is where the round time goes.
//!
//! On top of either plan sits a **dirty-set scheduler** (deterministic
//! protocols only): a node is re-evaluated in round `t + 1` only if its
//! own state or a neighbour's state changed in round `t`, or a fault
//! touched its neighbourhood. The invariant is that every *clean* node is
//! at a local fixpoint — `transition(σ(v), μ(v), 0) == σ(v)` — which is
//! preserved because any event that could break it (a neighbour change, an
//! edge/node removal, an out-of-band state write) marks the node dirty.
//! Skipped nodes would not have changed, so per-round *change* counts are
//! bit-identical to the interpreter; per-round *activation* counts are
//! not (that is the point) and [`crate::network::Metrics`] documents the
//! difference.
//!
//! Every round, on any thread count, is one function:
//! `CompiledKernel::round`. It takes the worklist, has an evaluator
//! fill the pending buffer, and commits. Only the evaluator varies. The
//! inline one runs on the calling thread. The pooled one splits node ids
//! into contiguous, degree-weighted shards ([`fssga_graph::Partition`]),
//! each shard evaluates into its own arena (pending buffer, scratch
//! vector, counters — no contention on any global structure), and the
//! arenas are concatenated in ascending shard order. Because shards are
//! contiguous and the worklist is sorted, that concatenation *is* the
//! inline evaluation order, and coins come from
//! [`round_coin`]`(round_seed, v, r)` — never from thread interleaving —
//! so results are bit-identical for any thread count. Threads come from
//! a persistent [`crate::ShardPool`], parked between rounds.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Mutex;

use fssga_graph::{NodeId, Partition};

use crate::network::{round_coin, Metrics, Network};
use crate::obs::{RoundMetrics, ShardRoundMetrics, Tracer};
use crate::packed::PackedStates;
use crate::pool::ShardPool;
use crate::protocol::{Protocol, StateSpace};
use crate::view::{NeighborView, QueryRecorder};

/// Largest abstract-count space `(B + M)^|Q|` the tabular plan will
/// enumerate. Beyond this the kernel falls back to the direct plan.
const ACC_BUDGET: u64 = 1 << 12;

/// Largest total table size the tabular plan will materialize (the
/// historical fold + trans budget; kept unchanged so plan selection is
/// stable even though the fold table itself gave way to per-row
/// histograms).
const ENTRY_BUDGET: u64 = 1 << 22;

/// How many times table construction re-runs bound discovery before
/// giving up on the tabular plan.
const DISCOVERY_ROUNDS: usize = 8;

/// Smallest worklist worth waking the shard pool for. Below this the
/// pooled evaluator evaluates inline on the calling thread (same
/// canonical order, so the trajectory is unchanged — sparse late rounds
/// just skip the wakeup latency).
const SHARD_MIN_WORK: usize = 256;

/// Rows up to this length are reduced by insertion sort (branch-light,
/// no recursion) before run-length encoding; longer rows use
/// `sort_unstable`.
const SMALL_SORT: usize = 32;

/// Rows longer than this skip the sort+RLE path and tally into the dense
/// `|Q|`-length scratch vector instead: one O(len) scatter beats an
/// O(len log len) sort once a hub row is big enough.
const DENSE_MIN: usize = 128;

/// Which evaluation plan a [`CompiledKernel`] ended up with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelPlan {
    /// Dense fold/trans tables over the abstract count space.
    Tabular,
    /// CSR tally into a reusable scratch vector + native `transition`.
    Direct,
}

/// Per-evaluation-pass counters, folded into [`RoundMetrics`] by the
/// traced steppers. Only `evaluated` is maintained when tracing is
/// disabled (the hot loops skip the rest of the bookkeeping).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct EvalStats {
    /// Nodes evaluated (alive, degree > 0).
    evaluated: u64,
    /// Neighbour states read (sum of degrees over evaluated nodes).
    reads: u64,
    /// Evaluations dispatched through the dense tables.
    tabular: u64,
    /// Evaluations dispatched through a native `transition` call.
    direct: u64,
}

/// Dense tables for the tabular plan.
///
/// Counts per state are abstracted to *classes* `0..B+M`: class `c < B`
/// means "exactly `c` neighbours", class `c >= B` means "at least `B`
/// neighbours, congruent to `c - B` modulo `M` (offset from `B`)". An
/// accumulator is the base-`B+M` number whose digit `j` is state `j`'s
/// class; folding one neighbour increments one digit with saturation into
/// the modular tail. Both increments and queries (`μ >= t` for `t <= B`,
/// `μ mod m` for `m | M`) are well-defined on classes, which is exactly
/// what the recorder-driven bound discovery certifies.
struct Tables {
    /// Number of accumulator values `C^|Q|`, `C = B + M` (exact-count
    /// bound `B` = max threshold queried; period `M` = lcm of moduli).
    acc_count: usize,
    /// `trans[(own * R + coin) * acc_count + acc]` — new state index.
    trans: Vec<u32>,
    /// Coin range `R = max(1, RANDOMNESS)`.
    randomness: usize,
    /// Exact-count bound `B` (max threshold the protocol queries).
    bound: u64,
    /// Modular period `M` (lcm of the moduli the protocol queries).
    period: u64,
    /// Class radix `C = B + M`; the accumulator is the base-`C` number
    /// whose digit `j` is `class_of(count_j, B, M)`.
    classes: u64,
}

enum Plan {
    Tabular(Tables),
    Direct,
}

/// Reusable per-evaluator buffers for the packed hot loop: the gathered
/// row (`row`), its run-length encoding (`idx`/`cnt`), and the dense
/// fallback tally (`scratch`, lazily sized to `|Q|`; `touched` lists its
/// nonzero indices). One set lives on the kernel for inline evaluation
/// and one in each shard arena — never shared, never reallocated on the
/// hot path.
#[derive(Default)]
struct EvalBufs {
    row: Vec<u32>,
    idx: Vec<u32>,
    cnt: Vec<u32>,
    scratch: Vec<u32>,
    touched: Vec<u32>,
}

/// One shard's private evaluation workspace. Shards write *only* here
/// during the parallel phase — the global worklist, pending buffer, and
/// dirty flags are touched exclusively by the committing thread.
struct ShardArena<P: Protocol> {
    /// This shard's proposed `(node, new state)` writes, in node order.
    out: Vec<(NodeId, P::State)>,
    /// This shard's private evaluation buffers.
    bufs: EvalBufs,
    /// This shard's evaluation counters for the round.
    stats: EvalStats,
}

/// The sharded-execution state: a degree-weighted contiguous partition
/// plus one arena per shard. Built lazily on the first pooled round and
/// rebuilt when the shard count changes. Fault surgeries do *not*
/// trigger a rebuild — a stale partition only costs balance, never
/// correctness, because dead nodes and shrunken rows are skipped by the
/// evaluator itself.
struct Sharding<P: Protocol> {
    partition: Partition,
    arenas: Vec<Mutex<ShardArena<P>>>,
}

/// The compiled execution engine for one [`Network`].
///
/// Holds a flat CSR mirror of the network's topology (kept in sync with
/// fault injection via [`Network::remove_edge`] / [`Network::remove_node`])
/// plus the evaluation plan and dirty-set bookkeeping. Constructed lazily
/// by [`Network::ensure_kernel`] or eagerly by [`Network::new_compiled`];
/// driven by [`crate::Runner`].
pub struct CompiledKernel<P: Protocol> {
    /// Row starts (slack layout). Removals shrink a row in place;
    /// additions fill the row's slack, and a full row is relocated to the
    /// end of `targets` with doubled capacity (amortized O(1) per
    /// insertion) — see [`Self::on_edge_added`].
    offsets: Vec<u32>,
    /// Live length of each row (`<= row_cap`).
    row_len: Vec<u32>,
    /// Allocated width of each row. Starts at the construction-time
    /// degree; removals leave `row_len < row_cap` slack that later
    /// additions reuse, and growth doubles it.
    row_cap: Vec<u32>,
    /// Mutable neighbour targets; removal swap-removes within the row.
    targets: Vec<NodeId>,
    /// `targets` slots abandoned by relocated rows. When more than half
    /// the arena is abandoned, [`Self::compact`] rebuilds it tight.
    dead_space: usize,
    /// Alive mirror.
    alive: Vec<bool>,
    /// Whether the dirty-set scheduler is sound (deterministic protocol).
    use_dirty: bool,
    dirty: Vec<bool>,
    /// With the dirty set on, exactly the nodes with `dirty[v]` set,
    /// between rounds; always empty otherwise.
    worklist: Vec<NodeId>,
    /// Two-phase commit buffer: `(node, new state)` for this round's
    /// changes only, so sparse late rounds do O(changes), not O(n).
    pending: Vec<(NodeId, P::State)>,
    /// Nodes currently able to activate (alive, degree > 0); maintained
    /// incrementally across fault surgeries so traced rounds report it
    /// for free.
    eligible: u64,
    plan: Plan,
    /// Width-minimal mirror of the state vector (`packed.get(v) ==
    /// states[v].index()` whenever `packed_stale` is false): encoded at
    /// construction, dual-written by [`Self::commit`], grown by
    /// [`Self::on_node_added`], re-encoded at the top of a step after
    /// out-of-band writes.
    packed: PackedStates,
    /// Set by [`Self::mark_all_dirty`] (out-of-band state writes); the
    /// next step re-encodes `packed` before evaluating.
    packed_stale: bool,
    /// Inline evaluation buffers.
    bufs: EvalBufs,
    /// Sharded-execution state (partition + per-shard arenas), built on
    /// the first pooled round.
    sharding: Option<Sharding<P>>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol> CompiledKernel<P> {
    /// Compiles a kernel for the network's current topology and protocol.
    ///
    /// The dirty-set scheduler runs iff the protocol is deterministic
    /// (`P::RANDOMNESS <= 1`): a probabilistic node draws a fresh coin
    /// every round, so a "clean" node is *not* at a local fixpoint and
    /// skipping it would change the trajectory.
    pub fn new(net: &Network<P>) -> Self {
        let g = net.graph();
        let n = g.n_slots();
        let (full_offsets, targets) = g.csr_arrays();
        let row_len: Vec<u32> = (0..n)
            .map(|v| full_offsets[v + 1] - full_offsets[v])
            .collect();
        let mut offsets = full_offsets;
        offsets.truncate(n);
        let alive: Vec<bool> = (0..n as NodeId).map(|v| g.is_alive(v)).collect();
        let eligible = (0..n).filter(|&i| alive[i] && row_len[i] > 0).count() as u64;
        let use_dirty = P::RANDOMNESS <= 1;
        let plan = match build_tables::<P>(net.protocol()) {
            Some(t) => Plan::Tabular(t),
            None => Plan::Direct,
        };
        Self {
            offsets,
            row_cap: row_len.clone(),
            row_len,
            targets,
            dead_space: 0,
            alive,
            use_dirty,
            dirty: vec![true; n],
            worklist: if use_dirty {
                (0..n as NodeId).collect()
            } else {
                Vec::new()
            },
            pending: Vec::new(),
            eligible,
            plan,
            packed: PackedStates::encode(net.states()),
            packed_stale: false,
            bufs: EvalBufs::default(),
            sharding: None,
            _protocol: PhantomData,
        }
    }

    /// Which plan compilation selected.
    pub fn plan(&self) -> KernelPlan {
        match self.plan {
            Plan::Tabular(_) => KernelPlan::Tabular,
            Plan::Direct => KernelPlan::Direct,
        }
    }

    /// Bits per node in the packed state mirror (4, 8, 16, or 32 —
    /// chosen from `|Q|`; see [`PackedStates`]).
    pub fn packed_width_bits(&self) -> u32 {
        self.packed.width_bits()
    }

    /// Whether the dirty-set scheduler is active (deterministic protocols
    /// only; probabilistic ones re-draw coins every round, so every node
    /// must be re-evaluated).
    pub fn uses_dirty_set(&self) -> bool {
        self.use_dirty
    }

    /// Nodes currently scheduled for re-evaluation (everything, for
    /// probabilistic protocols).
    pub fn dirty_count(&self) -> usize {
        if self.use_dirty {
            self.worklist.len()
        } else {
            self.alive.iter().filter(|&&a| a).count()
        }
    }

    #[inline]
    fn mark_dirty(&mut self, v: NodeId) {
        if self.use_dirty && !self.dirty[v as usize] {
            self.dirty[v as usize] = true;
            self.worklist.push(v);
        }
    }

    /// Re-schedules every node (out-of-band state writes, interpreter
    /// interleaving, recompilation).
    pub(crate) fn mark_all_dirty(&mut self) {
        // The packed mirror is invalidated by the same out-of-band writes
        // that invalidate the dirty set — and it must be flagged even
        // when there is no dirty set to invalidate (probabilistic
        // protocols), so this runs before the early return below.
        self.packed_stale = true;
        if !self.use_dirty {
            return;
        }
        self.dirty.iter_mut().for_each(|d| *d = true);
        self.worklist.clear();
        self.worklist.extend(0..self.dirty.len() as NodeId);
    }

    /// Removes `target` from `v`'s CSR row, if present. Returns whether a
    /// removal happened; an empty row or a missing target is a no-op
    /// (double-remove must not underflow `row_len` or corrupt the row).
    /// Maintains the incremental `eligible` count.
    fn remove_from_row(&mut self, v: NodeId, target: NodeId) -> bool {
        let vi = v as usize;
        let len = self.row_len[vi] as usize;
        if len == 0 {
            return false;
        }
        let start = self.offsets[vi] as usize;
        let row = &mut self.targets[start..start + len];
        match row.iter().position(|&w| w == target) {
            Some(i) => {
                row.swap(i, len - 1);
                self.row_len[vi] -= 1;
                if self.row_len[vi] == 0 && self.alive[vi] {
                    self.eligible -= 1;
                }
                true
            }
            None => false,
        }
    }

    /// Fault hook: edge `{u, v}` was removed from the live topology. Both
    /// endpoints must be re-evaluated — their neighbour multisets changed
    /// even though no *state* did, which is exactly the case the dirty-set
    /// invariant cannot see on its own. A repeated or phantom removal is
    /// a no-op: nothing changed, so nothing is rescheduled.
    pub(crate) fn on_edge_removed(&mut self, u: NodeId, v: NodeId) {
        let removed_u = self.remove_from_row(u, v);
        let removed_v = self.remove_from_row(v, u);
        if removed_u || removed_v {
            self.mark_dirty(u);
            self.mark_dirty(v);
        }
    }

    /// Fault hook: node `v` was removed; `former_neighbors` are its
    /// neighbours *before* removal. Every former neighbour lost a
    /// multiset entry and must be re-evaluated. Idempotent: removing an
    /// already-dead node is a no-op.
    pub(crate) fn on_node_removed(&mut self, v: NodeId, former_neighbors: &[NodeId]) {
        let vi = v as usize;
        if !self.alive[vi] {
            return;
        }
        for &w in former_neighbors {
            if self.remove_from_row(w, v) {
                self.mark_dirty(w);
            }
        }
        if self.row_len[vi] > 0 {
            self.eligible -= 1;
        }
        self.row_len[vi] = 0;
        self.alive[vi] = false;
        // The dead node's row capacity is abandoned for good — no future
        // insertion can reuse it (arrivals get fresh zero-capacity rows).
        // Account it as dead space so removal-heavy churn trips the
        // compaction threshold; before this, those slots were invisible
        // to the accounting and the arena grew without bound relative to
        // the live topology. (Slack *inside* live rows — `row_len <
        // row_cap` after edge removals — is different: later insertions
        // reuse it, so it is not dead.)
        self.dead_space += self.row_cap[vi] as usize;
        self.row_cap[vi] = 0;
        self.maybe_compact();
    }

    /// Churn hook: edge `{u, v}` was added to the live topology. Both
    /// endpoints' multisets grew, so both are rescheduled. Idempotent: a
    /// repeated or phantom addition (target already in the row, dead
    /// endpoint) is a no-op and reschedules nothing.
    pub(crate) fn on_edge_added(&mut self, u: NodeId, v: NodeId) {
        let added_u = self.push_to_row(u, v);
        let added_v = self.push_to_row(v, u);
        if added_u || added_v {
            self.mark_dirty(u);
            self.mark_dirty(v);
        }
    }

    /// Churn hook: a fresh node with id `v` joined, isolated and alive,
    /// in state `state`. `v` must be the next unused slot id (stale
    /// arrivals are skipped — the same contract as
    /// [`crate::FaultKind::AddNode`]). The new row starts with zero
    /// capacity; its first edge allocates via [`Self::grow_row`].
    /// Invalidates the sharded partition, which only covers the id space
    /// it was built over.
    pub(crate) fn on_node_added(&mut self, v: NodeId, state: P::State) {
        let vi = v as usize;
        if vi != self.row_len.len() {
            return;
        }
        self.offsets.push(self.targets.len() as u32);
        self.row_len.push(0);
        self.row_cap.push(0);
        self.alive.push(true);
        self.dirty.push(false);
        self.packed.push(state.index() as u32);
        // Degree 0: not eligible, nothing to schedule until an edge
        // arrives and on_edge_added marks it dirty.
        self.sharding = None;
    }

    /// Appends `target` to `v`'s CSR row, if absent. Returns whether an
    /// insertion happened. Fills the row's slack when there is any;
    /// otherwise relocates the row to the end of the arena with doubled
    /// capacity. Maintains the incremental `eligible` count.
    fn push_to_row(&mut self, v: NodeId, target: NodeId) -> bool {
        let vi = v as usize;
        if !self.alive[vi] {
            return false;
        }
        let len = self.row_len[vi] as usize;
        let start = self.offsets[vi] as usize;
        if self.targets[start..start + len].contains(&target) {
            return false;
        }
        if len == self.row_cap[vi] as usize {
            self.grow_row(vi);
        }
        let start = self.offsets[vi] as usize;
        self.targets[start + len] = target;
        self.row_len[vi] += 1;
        if len == 0 {
            self.eligible += 1;
        }
        self.debug_check_row(vi);
        true
    }

    /// Relocates row `vi` to the end of the arena with capacity
    /// `max(2, 2 * cap)`. Doubling makes insertion amortized O(1) and
    /// bounds per-row capacity at twice its peak length; the abandoned
    /// slots are tracked in `dead_space` and reclaimed by
    /// [`Self::compact`] once they exceed half the arena.
    ///
    /// Compaction is considered *before* the relocation, against the
    /// prospective dead space `dead_space + cap` (the slots this
    /// relocation is about to abandon). Ordering is load-bearing:
    /// `compact()` repacks every row tight (`row_cap = row_len`), so if
    /// it ran *after* the relocation it would confiscate the slack just
    /// allocated here while the caller (`push_to_row`) still holds a
    /// pending write into it — `targets[start + len]` would then be the
    /// next row's first slot (silent adjacency corruption) or one past
    /// the arena end (panic), and `row_len += 1` would leave `row_len >
    /// row_cap` standing. Triggering on the prospective total first
    /// means the row is relocated into a freshly-compacted arena and its
    /// new slack survives until the caller's write lands.
    fn grow_row(&mut self, vi: usize) {
        let doomed = self.row_cap[vi] as usize;
        if (self.dead_space + doomed) * 2 > self.targets.len() && self.targets.len() > 64 {
            self.compact();
        }
        // Re-read after the possible compaction: it moved the row and
        // tightened its capacity.
        let len = self.row_len[vi] as usize;
        let old_cap = self.row_cap[vi] as usize;
        let old_start = self.offsets[vi] as usize;
        let new_cap = (old_cap * 2).max(2);
        let new_start = self.targets.len();
        self.targets.extend_from_within(old_start..old_start + len);
        self.targets.resize(new_start + new_cap, 0);
        self.offsets[vi] = new_start as u32;
        self.row_cap[vi] = new_cap as u32;
        self.dead_space += old_cap;
        self.debug_check_row(vi);
    }

    /// Compacts if dead slots exceed half the arena (the same threshold
    /// `grow_row` applies prospectively). Removal paths call this after
    /// abandoning a dead node's capacity; there is never a pending write
    /// at those call sites, so compacting immediately is safe.
    fn maybe_compact(&mut self) {
        if self.dead_space * 2 > self.targets.len() && self.targets.len() > 64 {
            self.compact();
        }
    }

    /// Rebuilds the arena tight: every row packed at its live length, no
    /// slack, no dead space. O(n + m); triggered only when at least half
    /// the arena is abandoned, so the cost is amortized against the
    /// growth that created the garbage.
    ///
    /// **Must not run between a row growth and the write into the grown
    /// slack** — see [`Self::grow_row`] for the ordering contract.
    fn compact(&mut self) {
        let n = self.row_len.len();
        let total: usize = self.row_len.iter().map(|&l| l as usize).sum();
        let mut tight = Vec::with_capacity(total);
        for v in 0..n {
            let start = self.offsets[v] as usize;
            let len = self.row_len[v] as usize;
            self.offsets[v] = tight.len() as u32;
            tight.extend_from_slice(&self.targets[start..start + len]);
            self.row_cap[v] = len as u32;
        }
        self.targets = tight;
        self.dead_space = 0;
        // Conservation: with every row tight and no dead slots, the rows
        // must tile the arena exactly.
        debug_assert_eq!(
            self.targets.len(),
            self.row_cap.iter().map(|&c| c as usize).sum::<usize>(),
            "compacted arena must equal the sum of row capacities"
        );
    }

    /// Cheap per-row invariant probe on the surgery hot paths (debug
    /// builds only): the row fits its capacity and the capacity fits the
    /// arena.
    #[inline]
    fn debug_check_row(&self, vi: usize) {
        debug_assert!(
            self.row_len[vi] <= self.row_cap[vi],
            "row {vi}: len {} exceeds cap {}",
            self.row_len[vi],
            self.row_cap[vi]
        );
        debug_assert!(
            self.offsets[vi] as usize + self.row_cap[vi] as usize <= self.targets.len(),
            "row {vi} extends past the arena end"
        );
    }

    /// Full arena validation — the test oracle behind the equivalence
    /// suites. Checks, for every row: `row_len <= row_cap` and
    /// `offset + row_cap <= arena`; that rows with nonzero capacity are
    /// pairwise disjoint; conservation (`Σ row_cap + dead_space ==
    /// arena`, which holds exactly through every surgery); and that dead
    /// space is at most half the arena (the compaction threshold, modulo
    /// the small-arena cutoff).
    ///
    /// O(n log n); uses hard `assert!`s so integration tests (compiled
    /// without `cfg(test)` for this crate) fail loudly in release runs
    /// too.
    pub fn validate_arena(&self) {
        let n = self.row_len.len();
        assert_eq!(self.offsets.len(), n, "offsets length mismatch");
        assert_eq!(self.row_cap.len(), n, "row_cap length mismatch");
        let mut cap_total = 0usize;
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            let len = self.row_len[v] as usize;
            let cap = self.row_cap[v] as usize;
            let start = self.offsets[v] as usize;
            assert!(len <= cap, "row {v}: len {len} exceeds cap {cap}");
            assert!(
                start + cap <= self.targets.len(),
                "row {v} extends past the arena end"
            );
            cap_total += cap;
            if cap > 0 {
                spans.push((start, cap));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "rows overlap: [{}, +{}) and [{}, +{})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        assert_eq!(
            cap_total + self.dead_space,
            self.targets.len(),
            "conservation: capacities + dead space must tile the arena"
        );
        assert!(
            self.dead_space * 2 <= self.targets.len().max(64),
            "dead space {} exceeds half the arena {}",
            self.dead_space,
            self.targets.len()
        );
    }

    /// The live CSR row of node `v` — its neighbour multiset, in arena
    /// order. Exposed so equivalence tests can audit the incremental
    /// mirror against a from-scratch rebuild.
    pub fn row(&self, v: NodeId) -> &[NodeId] {
        let vi = v as usize;
        let start = self.offsets[vi] as usize;
        &self.targets[start..start + self.row_len[vi] as usize]
    }

    /// Total `targets` arena slots (live + slack + abandoned) — exposed
    /// so tests and benchmarks can watch the slack-growth/compaction
    /// policy at work.
    pub fn arena_len(&self) -> usize {
        self.targets.len()
    }

    /// Arena slots abandoned by relocated rows and not yet compacted.
    pub fn dead_space(&self) -> usize {
        self.dead_space
    }

    /// Nodes currently able to activate (alive, degree > 0) — what a
    /// traced round reports as [`RoundMetrics::eligible`].
    pub fn eligible_count(&self) -> u64 {
        self.eligible
    }

    /// One synchronous round over `states`: the kernel's only round body,
    /// on any thread count. Returns the number of nodes whose state
    /// changed; updates `metrics` (one round, `evaluated` activations,
    /// `changed` changes).
    ///
    /// The prologue refreshes the packed mirror and takes the round's
    /// worklist: the dirty set sorted ascending, or every node id when the
    /// dirty set is off. `eval` evaluates it into `pending` — the only
    /// step that differs between thread counts. The epilogue hands the
    /// worklist buffer back, commits with dirty marking and, when
    /// `tracer` is enabled, emits the evaluator's [`ShardRoundMetrics`]
    /// followed by the round's [`RoundMetrics`]. `faults` is the number
    /// of fault surgeries applied since the previous traced round,
    /// forwarded into that event.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round<E: Evaluate<P>, T: Tracer>(
        &mut self,
        protocol: &P,
        states: &mut [P::State],
        metrics: &mut Metrics,
        round_seed: u64,
        eval: E,
        tracer: &mut T,
        faults: u64,
    ) -> usize {
        let trace = tracer.enabled();
        self.refresh_packed(states);
        self.pending.clear();
        let mut work = std::mem::take(&mut self.worklist);
        let scheduled = if self.use_dirty {
            work.sort_unstable();
            for &v in &work {
                self.dirty[v as usize] = false;
            }
            work.len() as u64
        } else {
            // Fresh coins every round: every node is scheduled.
            work.extend(0..self.row_len.len() as NodeId);
            self.eligible
        };
        let mut shards = Vec::new();
        let stats = if trace {
            eval.evaluate::<true>(self, protocol, states, &work, round_seed, &mut shards)
        } else {
            eval.evaluate::<false>(self, protocol, states, &work, round_seed, &mut shards)
        };
        // Hand the buffer back so commit() pushes into it.
        work.clear();
        debug_assert!(self.worklist.is_empty());
        self.worklist = work;
        let changed = self.commit(states, metrics, stats.evaluated);
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
                changes: changed as u64,
                neighbor_reads: stats.reads,
                tabular: stats.tabular,
                direct: stats.direct,
                faults,
            });
        }
        changed
    }

    /// Re-encodes the packed mirror if an out-of-band write invalidated
    /// it. Runs at the top of every round, before evaluation reads it.
    fn refresh_packed(&mut self, states: &[P::State]) {
        if self.packed_stale {
            self.packed.reencode(states);
            self.packed_stale = false;
        }
        debug_assert_eq!(self.packed.len(), states.len(), "packed mirror desynced");
    }

    /// Applies `self.pending`, marks changed nodes + their neighbours
    /// dirty, keeps the packed mirror in sync, bumps metrics.
    fn commit(&mut self, states: &mut [P::State], metrics: &mut Metrics, evaluated: u64) -> usize {
        let changed = self.pending.len();
        for i in 0..changed {
            let (v, s) = self.pending[i];
            states[v as usize] = s;
            self.packed.set(v as usize, s.index() as u32);
            if self.use_dirty {
                self.mark_dirty(v);
                let start = self.offsets[v as usize] as usize;
                let len = self.row_len[v as usize] as usize;
                for k in start..start + len {
                    let w = self.targets[k];
                    self.mark_dirty(w);
                }
            }
        }
        metrics.rounds += 1;
        metrics.activations += evaluated;
        metrics.changes += changed as u64;
        changed
    }

    /// Builds (or rebuilds) the partition + arenas for `shards` shards.
    /// Weighted by the *live* CSR row lengths, so a kernel sharded after
    /// fault surgeries balances the surviving topology.
    fn ensure_sharding(&mut self, shards: usize) {
        let rebuild = match &self.sharding {
            Some(s) => s.partition.shards() != shards,
            None => true,
        };
        if !rebuild {
            return;
        }
        let partition = Partition::from_degrees(&self.row_len, shards);
        let arenas = (0..shards)
            .map(|_| {
                Mutex::new(ShardArena {
                    out: Vec::new(),
                    bufs: EvalBufs::default(),
                    stats: EvalStats::default(),
                })
            })
            .collect();
        self.sharding = Some(Sharding { partition, arenas });
    }
}

/// Splits a sorted worklist into per-shard subslices along the
/// partition's boundaries. Zero-copy: shard `k` gets exactly the work
/// items whose ids fall in `partition.range(k)`, and concatenating the
/// slices in shard order reproduces `work` verbatim.
fn split_by_partition<'a>(work: &'a [NodeId], partition: &Partition) -> Vec<&'a [NodeId]> {
    let mut out = Vec::with_capacity(partition.shards());
    let mut rest = work;
    for k in 0..partition.shards() {
        let end = partition.range(k).end;
        let cut = rest.partition_point(|&v| v < end);
        let (head, tail) = rest.split_at(cut);
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "worklist node beyond the last shard");
    out
}

/// The varying step of [`CompiledKernel::round`]: evaluates the sorted
/// `work` against the frozen `states`, leaving `(node, new state)` for
/// every changed node in the kernel's `pending`, in `work` order. An
/// evaluator that fans out over shards pushes one [`ShardRoundMetrics`]
/// per shard into `shards` when `TRACE` is set (the round stamps them).
/// The `TRACE` split happens before any worker wakes, so each hot loop
/// is monomorphized with a compile-time constant.
pub(crate) trait Evaluate<P: Protocol> {
    fn evaluate<const TRACE: bool>(
        self,
        kernel: &mut CompiledKernel<P>,
        protocol: &P,
        states: &[P::State],
        work: &[NodeId],
        round_seed: u64,
        shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats;
}

/// Evaluates on the calling thread with the kernel's own buffers — no
/// pool, no partition, no `Sync` bounds.
pub(crate) struct Inline;

impl<P: Protocol> Evaluate<P> for Inline {
    fn evaluate<const TRACE: bool>(
        self,
        k: &mut CompiledKernel<P>,
        protocol: &P,
        states: &[P::State],
        work: &[NodeId],
        round_seed: u64,
        _shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats {
        let csr = CsrRef {
            offsets: &k.offsets,
            row_len: &k.row_len,
            targets: &k.targets,
            alive: &k.alive,
        };
        eval_chunk::<P, TRACE>(
            protocol,
            &csr,
            &k.plan,
            &k.packed,
            states,
            work,
            round_seed,
            &mut k.pending,
            &mut k.bufs,
        )
    }
}

/// Evaluates over the pool, one contiguous shard per thread. Worklists
/// shorter than [`SHARD_MIN_WORK`] are not worth a wakeup and run
/// [`Inline`], in the same canonical order.
impl<P> Evaluate<P> for &mut ShardPool
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    fn evaluate<const TRACE: bool>(
        self,
        k: &mut CompiledKernel<P>,
        protocol: &P,
        states: &[P::State],
        work: &[NodeId],
        round_seed: u64,
        shards: &mut Vec<ShardRoundMetrics>,
    ) -> EvalStats {
        let n_shards = self.threads();
        if n_shards <= 1 || work.len() < SHARD_MIN_WORK {
            return Inline.evaluate::<TRACE>(k, protocol, states, work, round_seed, shards);
        }
        k.ensure_sharding(n_shards);
        let sharding = k.sharding.as_mut().expect("just ensured");
        let split = split_by_partition(work, &sharding.partition);
        let csr = CsrRef {
            offsets: &k.offsets,
            row_len: &k.row_len,
            targets: &k.targets,
            alive: &k.alive,
        };
        let (plan, packed, arenas) = (&k.plan, &k.packed, &sharding.arenas);
        // Each claimed shard locks its own arena (uncontended — shard
        // indices are handed out exactly once per epoch).
        self.run(n_shards, &|s| {
            let mut guard = arenas[s].lock().expect("shard arena poisoned");
            let arena = &mut *guard;
            arena.out.clear();
            arena.stats = eval_chunk::<P, TRACE>(
                protocol,
                &csr,
                plan,
                packed,
                states,
                split[s],
                round_seed,
                &mut arena.out,
                &mut arena.bufs,
            );
        });
        // Merge in ascending shard order: contiguous shards over a
        // sorted worklist concatenate to the inline order.
        let mut stats = EvalStats::default();
        for (s, arena) in sharding.arenas.iter_mut().enumerate() {
            let a = arena.get_mut().expect("shard arena poisoned");
            if TRACE {
                shards.push(ShardRoundMetrics {
                    round: 0, // stamped by the round after commit
                    shard: s as u32,
                    shards: n_shards as u32,
                    scheduled: split[s].len() as u64,
                    activations: a.stats.evaluated,
                    changes: a.out.len() as u64,
                    neighbor_reads: a.stats.reads,
                });
            }
            stats.evaluated += a.stats.evaluated;
            stats.reads += a.stats.reads;
            stats.tabular += a.stats.tabular;
            stats.direct += a.stats.direct;
            k.pending.append(&mut a.out);
        }
        stats
    }
}

/// Borrowed CSR arrays, cheap to copy into worker closures.
#[derive(Clone, Copy)]
struct CsrRef<'a> {
    offsets: &'a [u32],
    row_len: &'a [u32],
    targets: &'a [NodeId],
    alive: &'a [bool],
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

/// The shared inner loop: evaluates `nodes` over frozen `states` (whose
/// packed mirror is `packed`), appending `(node, new state)` for changed
/// nodes to `out`. `bufs` is the evaluator's private workspace
/// (`bufs.scratch` must be all-zero between calls — the dense fallback
/// restores that itself). With `TRACE` false every metric branch is a
/// compile-time constant and the loop is the untraced hot path,
/// unchanged.
///
/// Both plans are *segmented CSR reductions*: gather the row's packed
/// state indices into one contiguous buffer (a width dispatch per row,
/// then a tight widening loop the compiler vectorizes), then reduce the
/// buffer — a tiny per-state histogram mapped through [`class_of`] for
/// the tabular plan, or sort + run-length encoding into a sparse
/// [`NeighborView`] for the direct plan. Regrouping the SM reduction
/// this way is faithful by symmetry (the transition depends only on the
/// multiset), so results are bit-identical to the one-neighbour-at-a-
/// time fold this replaced.
#[allow(clippy::too_many_arguments)]
fn eval_chunk<P: Protocol, const TRACE: bool>(
    protocol: &P,
    csr: &CsrRef<'_>,
    plan: &Plan,
    packed: &PackedStates,
    states: &[P::State],
    nodes: &[NodeId],
    round_seed: u64,
    out: &mut Vec<(NodeId, P::State)>,
    bufs: &mut EvalBufs,
) -> EvalStats {
    let mut stats = EvalStats::default();
    let mut evaluated = 0u64;
    match plan {
        Plan::Tabular(t) => {
            let q = P::State::COUNT;
            // `classes >= 2` and `classes^q <= ACC_BUDGET = 2^12` bound
            // the tabular alphabet at 12 states; the histogram lives in
            // registers/L1.
            debug_assert!(q <= 16, "tabular plan implies a tiny alphabet");
            let mut hist = [0u32; 16];
            for &v in nodes {
                let vi = v as usize;
                let len = csr.row_len[vi] as usize;
                if len == 0 || !csr.alive[vi] {
                    continue;
                }
                let start = csr.offsets[vi] as usize;
                packed.gather(&csr.targets[start..start + len], &mut bufs.row);
                hist[..q].fill(0);
                for &s in &bufs.row {
                    hist[s as usize] += 1;
                }
                // Digit-wise accumulator: digit j = class of state j's
                // count. Count classes are exactly how the per-neighbour
                // fold saturates, so this equals the fold chain while
                // replacing `len` serially-dependent table loads with a
                // q-digit polynomial evaluation.
                let mut acc = 0u64;
                let mut weight = 1u64;
                for &h in &hist[..q] {
                    acc += class_of(h as u64, t.bound, t.period) * weight;
                    weight *= t.classes;
                }
                let own = states[vi].index();
                let coin = round_coin(round_seed, v, P::RANDOMNESS) as usize;
                let new_idx =
                    t.trans[(own * t.randomness + coin) * t.acc_count + acc as usize] as usize;
                evaluated += 1;
                if TRACE {
                    stats.reads += len as u64;
                }
                if new_idx != own {
                    out.push((v, P::State::from_index(new_idx)));
                }
            }
            if TRACE {
                stats.tabular = evaluated;
            }
        }
        Plan::Direct => {
            for &v in nodes {
                let vi = v as usize;
                let len = csr.row_len[vi] as usize;
                if len == 0 || !csr.alive[vi] {
                    continue;
                }
                let start = csr.offsets[vi] as usize;
                packed.gather(&csr.targets[start..start + len], &mut bufs.row);
                let old = states[vi];
                let coin = round_coin(round_seed, v, P::RANDOMNESS);
                let new = if len <= DENSE_MIN {
                    // Sort + run-length encode: ascending indices are the
                    // canonical `present_states` order (identical to the
                    // interpreter and to a from-scratch build, however
                    // incremental surgery permuted the arena row).
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
                    protocol.transition(old, &view, coin)
                } else {
                    // Hub rows: one O(len) scatter into the dense tally
                    // beats sorting. Allocated lazily — most protocols
                    // and graphs never take this branch.
                    if bufs.scratch.len() < P::State::COUNT {
                        bufs.scratch.resize(P::State::COUNT, 0);
                    }
                    for &s in &bufs.row {
                        if bufs.scratch[s as usize] == 0 {
                            bufs.touched.push(s);
                        }
                        bufs.scratch[s as usize] += 1;
                    }
                    bufs.touched.sort_unstable();
                    let new = {
                        let view: NeighborView<'_, P::State> = NeighborView::new_with_presence(
                            &bufs.scratch,
                            Some(&bufs.touched),
                            None,
                        );
                        protocol.transition(old, &view, coin)
                    };
                    for &s in bufs.touched.iter() {
                        bufs.scratch[s as usize] = 0;
                    }
                    bufs.touched.clear();
                    new
                };
                evaluated += 1;
                if TRACE {
                    stats.reads += len as u64;
                }
                if new != old {
                    out.push((v, new));
                }
            }
            if TRACE {
                stats.direct = evaluated;
            }
        }
    }
    stats.evaluated = evaluated;
    stats
}

/// The count class of an exact count `x` under bound `b`, period `m`.
#[inline]
fn class_of(x: u64, b: u64, m: u64) -> u64 {
    if x < b {
        x
    } else {
        b + (x - b) % m
    }
}

/// Builds the tabular plan, or `None` if the protocol's abstract count
/// space exceeds the budget or bound discovery fails to converge.
///
/// Bound discovery mirrors [`crate::compile`]: start from the declared
/// `MAX_THRESHOLD` / `MODULI_LCM`, evaluate the transition on *every*
/// abstract multiset with a recorder attached, and grow the bounds until
/// the recorded queries are subsumed — at which point the classes are a
/// sound abstraction of the counts and the tables are exact.
fn build_tables<P: Protocol>(protocol: &P) -> Option<Tables> {
    let q = P::State::COUNT;
    let r = P::RANDOMNESS.max(1) as usize;
    let mut bound = (P::MAX_THRESHOLD as u64).max(1);
    let mut period = (P::MODULI_LCM as u64).max(1);
    for _ in 0..DISCOVERY_ROUNDS {
        let classes = bound + period;
        let mut acc_count: u64 = 1;
        for _ in 0..q {
            acc_count = acc_count.checked_mul(classes)?;
            if acc_count > ACC_BUDGET {
                return None;
            }
        }
        let entries = acc_count * q as u64 + acc_count * (q as u64) * (r as u64);
        if entries > ENTRY_BUDGET {
            return None;
        }
        let acc_total = acc_count as usize;

        let recorder = RefCell::new(QueryRecorder::new(q));
        let mut trans = vec![0u32; q * r * acc_total];
        let mut counts = vec![0u32; q];
        for a in 0..acc_total {
            // Decode accumulator `a` into representative counts: exact
            // classes map to themselves; tail class `c` represents `c`
            // (the smallest count with that bound/residue signature).
            let mut rem = a as u64;
            let mut empty = true;
            for c in counts.iter_mut() {
                let digit = rem % classes;
                rem /= classes;
                *c = digit as u32;
                if digit > 0 {
                    empty = false;
                }
            }
            for own in 0..q {
                for coin in 0..r {
                    let idx = (own * r + coin) * acc_total + a;
                    trans[idx] = if empty {
                        // Degree-0 nodes never activate; identity keeps
                        // the table total.
                        own as u32
                    } else {
                        let view: NeighborView<'_, P::State> =
                            NeighborView::new(&counts, Some(&recorder));
                        protocol
                            .transition(P::State::from_index(own), &view, coin as u32)
                            .index() as u32
                    };
                }
            }
        }

        let rec = recorder.borrow();
        let need_bound = rec.thresholds.iter().copied().max().unwrap_or(1);
        let need_period = rec
            .moduli
            .iter()
            .copied()
            .fold(1, fssga_core::modthresh::lcm);
        if need_bound > bound || !period.is_multiple_of(need_period) {
            bound = bound.max(need_bound);
            period = fssga_core::modthresh::lcm(period, need_period);
            continue;
        }

        // Bounds subsumed: the representative-count evaluation above is
        // exact on classes. The evaluator computes accumulators directly
        // from per-row histograms via `class_of`, so the table set is
        // just `trans` plus the class parameters.
        return Some(Tables {
            acc_count: acc_total,
            trans,
            randomness: r,
            bound,
            period,
            classes,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;
    use crate::obs::NullTracer;
    use fssga_graph::generators;
    use fssga_graph::rng::Xoshiro256;

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
    fn tabular_plan_selected_for_small_protocols() {
        let mut net = infected_path(4);
        net.ensure_kernel();
        assert_eq!(net.kernel_plan(), Some(KernelPlan::Tabular));
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
        let g = generators::star(5);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.ensure_kernel();
        while net.sync_step_kernel_seeded(0) > 0 {}
        net.remove_node(0);
        let k = net.kernel().unwrap();
        // All 4 leaves lost their only neighbour.
        assert_eq!(k.dirty_count(), 4);
        // Leaves are now degree 0: the next round evaluates nobody but
        // still drains the worklist.
        net.sync_step_kernel_seeded(1);
        assert_eq!(net.kernel().unwrap().dirty_count(), 0);
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
    }

    #[test]
    fn direct_plan_used_for_large_state_spaces() {
        // 5000 states ** 2 classes blows the accumulator budget.
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
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
        struct MaxOf;
        impl Protocol for MaxOf {
            type State = Big;
            const COMPILED: bool = true;
            fn transition(&self, own: Big, nbrs: &NeighborView<'_, Big>, _c: u32) -> Big {
                let mut best = own.0;
                for s in nbrs.present_states() {
                    best = best.max(s.0);
                }
                Big(best)
            }
        }
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
        assert!(!b.kernel().unwrap().uses_dirty_set());
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..10 {
            let seed = rng.next_u64();
            a.sync_step_seeded(seed);
            b.sync_step_kernel_seeded(seed);
            assert_eq!(a.states(), b.states());
        }
    }

    #[test]
    fn double_edge_removal_is_a_noop() {
        // Regression: a second removal of the same edge used to scan a
        // stale row slice and could underflow `row_len`; now it must
        // leave the CSR mirror untouched and reschedule nothing.
        let mut net = infected_path(6);
        net.ensure_kernel();
        while net.sync_step_kernel_seeded(0) > 0 {}
        let mut k = CompiledKernel::new(&net);
        let mut states = net.states().to_vec();
        let mut m = Metrics::default();
        while k.dirty_count() > 0 {
            k.round(
                net.protocol(),
                &mut states,
                &mut m,
                0,
                Inline,
                &mut NullTracer,
                0,
            );
        }
        let eligible = k.eligible_count();
        k.on_edge_removed(2, 3);
        assert_eq!(k.dirty_count(), 2);
        let row2 = k.row_len[2];
        let row3 = k.row_len[3];
        // Fire the same surgery again: no row shrinks, nothing new dirty.
        k.on_edge_removed(2, 3);
        k.on_edge_removed(3, 2);
        assert_eq!(k.row_len[2], row2, "row 2 must not shrink again");
        assert_eq!(k.row_len[3], row3, "row 3 must not shrink again");
        assert_eq!(k.dirty_count(), 2, "no-op surgery reschedules nothing");
        assert_eq!(k.eligible_count(), eligible);
        // Phantom edge (never existed): also a no-op.
        k.on_edge_removed(0, 5);
        assert_eq!(k.dirty_count(), 2);
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
    fn double_node_removal_is_idempotent() {
        let g = generators::star(5);
        let mut net = Network::new(&g, Spread, |_| Infect::Healthy);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        assert_eq!(k.eligible_count(), 5);
        let former: Vec<NodeId> = (1..5).collect();
        k.on_node_removed(0, &former);
        // Hub dead, 4 isolated leaves: nobody is eligible.
        assert_eq!(k.eligible_count(), 0);
        let dirty = k.dirty_count();
        k.on_node_removed(0, &former);
        assert_eq!(k.eligible_count(), 0, "second removal is a no-op");
        assert_eq!(k.dirty_count(), dirty);
    }

    #[test]
    fn eligible_count_tracks_faults() {
        let mut net = infected_path(5);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        assert_eq!(k.eligible_count(), 5);
        // Cutting the end edge isolates node 0.
        k.on_edge_removed(0, 1);
        assert_eq!(k.eligible_count(), 4);
        // Removing interior node 2 kills it and isolates node 1.
        k.on_node_removed(2, &[1, 3]);
        assert_eq!(k.eligible_count(), 2, "nodes 3 and 4 remain eligible");
    }

    #[test]
    fn randomized_protocol_is_never_dirty_scheduled() {
        use crate::obs::RoundLog;
        let g = generators::cycle(6);
        let mut net = Network::new(&g, Flip, |_| Infect::Healthy);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        assert!(!k.uses_dirty_set());
        let mut log = RoundLog::default();
        let mut m = Metrics::default();
        let mut states = net.states().to_vec();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..8 {
            k.round(
                net.protocol(),
                &mut states,
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
        k.round(net.protocol(), &mut states, &mut m, 0, Inline, &mut log, 0);
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
    fn node_addition_grows_the_mirror() {
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

    #[test]
    fn slack_growth_doubles_and_compacts() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Spread, |_| Infect::Healthy);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        // Row 0 starts tight at cap 1 (degree 1). Growing it past its
        // capacity must relocate with doubling and account dead space.
        k.on_node_added(2, Infect::Healthy);
        k.on_edge_added(0, 2);
        assert_eq!(k.row_len[0], 2);
        assert!(k.row_cap[0] >= 2, "row relocated with more capacity");
        assert!(k.dead_space() > 0, "old allocation abandoned");
        // Hammer one hub row: arena stays bounded by compaction.
        for i in 3..200u32 {
            k.on_node_added(i, Infect::Healthy);
            k.on_edge_added(0, i);
        }
        assert_eq!(k.row_len[0], 199);
        let live: usize = k.row_len.iter().map(|&l| l as usize).sum();
        // Doubling bounds per-row capacity at 2x its live length, and the
        // compaction trigger bounds dead space at half the arena — so the
        // arena is at most ~4x the live entries.
        assert!(
            k.arena_len() <= 4 * live + 64,
            "arena {} not bounded by ~4x live {live}",
            k.arena_len()
        );
        assert!(
            k.dead_space() * 2 <= k.arena_len(),
            "compaction keeps dead space under half the arena"
        );
        // The row must still be intact: every target present exactly once.
        let start = k.offsets[0] as usize;
        let mut row: Vec<NodeId> = k.targets[start..start + k.row_len[0] as usize].to_vec();
        row.sort_unstable();
        let want: Vec<NodeId> = std::iter::once(1).chain(2..200).collect();
        assert_eq!(row, want);
    }

    /// Abandons removable `ballast` nodes until the *next* growth of
    /// `hub`'s (full) row must run the prospective compaction inside
    /// `grow_row`. Returns the hub row capacity at the armed point.
    ///
    /// Before the removal-accounting fix, a removed node's capacity was
    /// never added to `dead_space`, so the trigger window is unreachable
    /// and the final assertion here fails — this helper is the pre-fix
    /// discriminator for both mid-growth tests below.
    fn arm_mid_growth_compaction(
        net: &mut Network<Spread>,
        hub: NodeId,
        ballast: &[NodeId],
    ) -> usize {
        let cap = {
            let k = net.kernel().unwrap();
            assert_eq!(
                k.row_len[hub as usize], k.row_cap[hub as usize],
                "hub row must be full so the next push grows it"
            );
            k.row_cap[hub as usize] as usize
        };
        for &v in ballast {
            {
                let k = net.kernel().unwrap();
                if (k.dead_space() + cap) * 2 > k.arena_len() {
                    return cap;
                }
            }
            assert!(net.remove_node(v));
        }
        let k = net.kernel().unwrap();
        assert!(
            (k.dead_space() + cap) * 2 > k.arena_len(),
            "abandoned {} ballast rows without arming the compaction \
             trigger: dead space {} of arena {} (removal accounting lost)",
            ballast.len(),
            k.dead_space(),
            k.arena_len()
        );
        cap
    }

    /// Audits every live CSR row against a kernel rebuilt from scratch,
    /// then runs both in lockstep for `rounds`.
    fn assert_matches_rebuilt(net: &mut Network<Spread>, rounds: std::ops::Range<u64>) {
        let snap = net.graph().snapshot();
        let mut rebuilt = Network::new(&snap, Spread, |v| net.state(v));
        for w in 0..snap.n() as NodeId {
            if !net.graph().is_alive(w) {
                rebuilt.remove_node(w);
            }
        }
        rebuilt.ensure_kernel();
        {
            let (ki, kr) = (net.kernel().unwrap(), rebuilt.kernel().unwrap());
            for w in 0..snap.n() as NodeId {
                if net.graph().is_alive(w) {
                    let mut a = ki.row(w).to_vec();
                    let mut b = kr.row(w).to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "row {w} diverged from the rebuilt kernel");
                }
            }
        }
        for round in rounds {
            let ca = net.sync_step_kernel_seeded(round);
            let cb = rebuilt.sync_step_kernel_seeded(round);
            assert_eq!(ca, cb, "round {round} change counts");
            assert_eq!(net.states(), rebuilt.states(), "round {round} states");
        }
    }

    /// Ballast whose abandonment never touches the hub rows: isolated
    /// pairs `v—w`, so each removed node contributes its whole cap-2 row
    /// to dead space (1:1 dead-to-arena ratio within the ballast region).
    fn ballast_pairs(net: &mut Network<Spread>, pairs: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            let v = net.add_node(Infect::Healthy);
            let w = net.add_node(Infect::Healthy);
            assert!(net.add_edge(v, w));
            out.push(v);
            out.push(w);
        }
        out
    }

    #[test]
    fn compaction_fires_mid_growth_on_interior_row() {
        // Regression for the mid-growth compaction bug: row 0 has the
        // lowest index, so compaction packs it *first* and other rows
        // follow it. Before the fix, a compaction firing inside
        // `grow_row` repacked the arena tight after the grown slack was
        // reserved, and the pending neighbour write landed in the next
        // row's first slot instead of row 0's own slack.
        let g = generators::path(2);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.ensure_kernel();
        // Fill row 0 until it sits exactly at a doubling boundary.
        let mut spokes = vec![1u32];
        loop {
            let k = net.kernel().unwrap();
            if k.row_cap[0] >= 64 && k.row_len[0] == k.row_cap[0] {
                break;
            }
            let v = net.add_node(Infect::Healthy);
            assert!(net.add_edge(0, v));
            spokes.push(v);
        }
        let ballast = ballast_pairs(&mut net, 300);
        let cap = arm_mid_growth_compaction(&mut net, 0, &ballast);
        let dead_before = net.kernel().unwrap().dead_space();
        // The poisoned push: row 0 is full and the prospective trigger
        // is armed, so this growth compacts first, relocates the row,
        // and the pending write must land in the fresh slack.
        let trigger = net.add_node(Infect::Healthy);
        assert!(net.add_edge(0, trigger));
        spokes.push(trigger);
        {
            let k = net.kernel().unwrap();
            k.validate_arena();
            // Compaction observably ran inside the growth: all prior
            // garbage was reclaimed, leaving exactly the relocated
            // row's tightened capacity behind.
            assert_eq!(k.dead_space(), cap, "compaction ran inside grow_row");
            assert!(dead_before > k.dead_space(), "garbage was reclaimed");
            let mut row: Vec<NodeId> = k.row(0).to_vec();
            row.sort_unstable();
            spokes.sort_unstable();
            assert_eq!(row, spokes, "write landed in row 0's own slack");
        }
        assert_matches_rebuilt(&mut net, 0..5);
    }

    #[test]
    fn compaction_fires_mid_growth_on_last_arena_row() {
        // Same scenario, but the grown row is the highest-index node:
        // compaction packs it at the very end of the arena, so before
        // the fix the pending write targeted one slot *past* the arena
        // (an out-of-bounds panic rather than silent corruption).
        let g = generators::path(2);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.ensure_kernel();
        // Persistent partners the hub will connect to, plus an isolated
        // spare kept for the poisoned push: its empty row (cap 0) grows
        // without abandoning anything, so the only dead space left after
        // the trigger is the hub row's own relocation.
        let partners: Vec<NodeId> = (0..64).map(|_| net.add_node(Infect::Healthy)).collect();
        let spare = net.add_node(Infect::Healthy);
        let ballast = ballast_pairs(&mut net, 300);
        // The hub arrives last: highest node index, hence the last row
        // the compaction pass packs.
        let hub = net.add_node(Infect::Healthy);
        for &p in &partners {
            assert!(net.add_edge(hub, p));
        }
        {
            let k = net.kernel().unwrap();
            assert_eq!(k.row_len[hub as usize], 64);
            assert_eq!(k.row_cap[hub as usize], 64, "doubling lands exactly full");
        }
        let cap = arm_mid_growth_compaction(&mut net, hub, &ballast);
        // The poisoned push: the spare is not yet adjacent to the hub.
        assert!(net.add_edge(hub, spare));
        {
            let k = net.kernel().unwrap();
            k.validate_arena();
            assert_eq!(k.dead_space(), cap, "compaction ran inside grow_row");
            let mut row: Vec<NodeId> = k.row(hub).to_vec();
            row.sort_unstable();
            let mut want = partners.clone();
            want.push(spare);
            want.sort_unstable();
            assert_eq!(row, want, "write stayed inside the arena");
        }
        assert_matches_rebuilt(&mut net, 0..5);
    }

    #[test]
    fn removal_heavy_churn_keeps_arena_bounded() {
        // Seeded removal-heavy sweep. Before the fix, a removed node's
        // capacity was never counted as dead space, compaction never
        // fired, and the arena grew linearly with churn volume. After
        // it, doubling bounds each live row at 2x its length and the
        // compaction trigger bounds garbage at half the arena, so the
        // arena stays within ~4x the live entries no matter how long
        // the churn runs.
        let g = generators::grid(8, 8);
        let mut net = Network::new(&g, Spread, |v| {
            if v == 0 {
                Infect::Infected
            } else {
                Infect::Healthy
            }
        });
        net.ensure_kernel();
        let mut rng = Xoshiro256::seed_from_u64(0x0C5A);
        let mut alive: Vec<NodeId> = (1..64).collect();
        for cycle in 0..30u64 {
            let removals = alive.len() / 2;
            for _ in 0..removals {
                let i = rng.next_u64() as usize % alive.len();
                let v = alive.swap_remove(i);
                assert!(net.remove_node(v));
            }
            for _ in 0..removals {
                let v = net.add_node(Infect::Healthy);
                for _ in 0..3 {
                    let w = alive[rng.next_u64() as usize % alive.len()];
                    net.add_edge(v, w);
                }
                alive.push(v);
            }
            for r in 0..2 {
                net.sync_step_kernel_seeded(cycle * 2 + r);
            }
            net.kernel().unwrap().validate_arena();
        }
        let k = net.kernel().unwrap();
        let live: usize = k.row_len.iter().map(|&l| l as usize).sum();
        assert!(live > 0, "churn must leave live structure behind");
        assert!(
            k.arena_len() <= 4 * live + 64,
            "arena {} not bounded by ~4x live {live}",
            k.arena_len()
        );
    }

    #[test]
    fn stale_node_addition_is_skipped() {
        let mut net = infected_path(3);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        k.on_node_added(7, Infect::Healthy); // not the next slot: must be ignored
        assert_eq!(k.row_len.len(), 3);
        k.on_node_added(3, Infect::Healthy);
        assert_eq!(k.row_len.len(), 4);
    }

    #[test]
    fn duplicate_edge_addition_is_a_noop() {
        let mut net = infected_path(4);
        net.ensure_kernel();
        let mut k = CompiledKernel::new(&net);
        let mut states = net.states().to_vec();
        let mut m = Metrics::default();
        while k.dirty_count() > 0 {
            k.round(
                net.protocol(),
                &mut states,
                &mut m,
                0,
                Inline,
                &mut NullTracer,
                0,
            );
        }
        k.on_edge_added(1, 2); // already adjacent in the path
        assert_eq!(k.dirty_count(), 0, "phantom addition reschedules nothing");
        assert_eq!(k.row_len[1], 2);
    }

    #[test]
    fn tabular_fold_increment_saturates_into_tail() {
        // bound 2, period 3: classes 0,1 exact; 2,3,4 = "≥2, ≡0,1,2 (mod 3)".
        assert_eq!(class_of(0, 2, 3), 0);
        assert_eq!(class_of(1, 2, 3), 1);
        assert_eq!(class_of(2, 2, 3), 2);
        assert_eq!(class_of(4, 2, 3), 4);
        assert_eq!(class_of(5, 2, 3), 2);
        assert_eq!(class_of(7, 2, 3), 4);
    }
}
