//! Mutable graphs supporting faults *and* churn.
//!
//! The paper's fault model (Section 1) only ever removes structure: "a node
//! or edge may permanently be deleted from the graph because it
//! malfunctions, but nodes and edges never join the network". [`DynGraph`]
//! started as exactly that deletion-only interface; the streaming churn
//! engine extends it with *arrivals* ([`DynGraph::add_node`],
//! [`DynGraph::add_edge`]) so that long-running degradation-and-recovery
//! workloads can grow the network live. Removal-only consumers are
//! unaffected: ids remain stable forever (dead slots are never recycled;
//! new nodes always get fresh ids at the end of the id space).

use crate::{Edge, Graph, NodeId};

/// A row that outgrows its slots gets room for `GROWTH` times its length,
/// so a row that keeps growing moves O(log deg) times.
const GROWTH: u32 = 2;

/// The fewest slots a grown row gets, so a fresh node's first few edges
/// cost one move, not one each.
const MIN_CAP: u32 = 4;

/// `add_edge` compacts the buffer once holes fill more than
/// `1 / HOLE_RATIO` of it: at 2, an arrival leaves the buffer at most
/// twice the slots rows reserve, and compaction's O(n + m) copy is paid
/// for by the surgery that made the holes.
const HOLE_RATIO: usize = 2;

/// An undirected graph from which edges and nodes can be removed, and to
/// which new nodes and edges can be added.
///
/// Every row lives in one flat buffer, `targets`: node `v`'s neighbours
/// are `targets[start..start + len]`, sorted ascending, inside `cap`
/// slots reserved for it. Building from a [`Graph`] copies its CSR arrays
/// (each row's capacity is its length), and an activation reads one span
/// of one buffer. Membership tests are O(log deg) binary searches, and
/// insertions/removals are O(deg) shifts within the row. Keeping rows
/// sorted means high-degree power-law nodes do not degrade churn
/// application to quadratic scans, and [`Self::snapshot`] can export
/// without re-sorting.
///
/// A row that is full when an edge arrives grows in place if its slots
/// end the buffer, and otherwise moves to the buffer's end with room for
/// `max(4, 2 · len)`; its old slots become holes. A removal shifts within
/// the row and keeps its capacity. Once holes fill more than half the
/// buffer, [`Self::add_edge`] rewrites every row at its own length — only
/// after it has written both endpoint rows, never between a row's move
/// and the write into it.
///
/// Node deletion marks the node dead; dead nodes keep their id (ids are
/// stable for the lifetime of the simulation) but have no neighbours, no
/// slots, and are skipped by schedulers. Node arrival appends a fresh,
/// empty row at the end of the id space — dead ids are never revived.
#[derive(Clone, Debug)]
pub struct DynGraph {
    /// Each node's `(start, len)` in `targets`: the only per-node field
    /// a round reads.
    rows: Vec<(u32, u32)>,
    /// Slots reserved for each row, from its `start`; only surgery reads
    /// them.
    caps: Vec<u32>,
    /// The rows' neighbour ids.
    targets: Vec<NodeId>,
    /// Slots of `targets` that no row owns.
    holes: usize,
    alive: Vec<bool>,
    m: usize,
    alive_count: usize,
}

impl DynGraph {
    /// Starts from an immutable snapshot: a copy of its CSR arrays.
    pub fn from_graph(g: &Graph) -> Self {
        // CSR rows are already sorted ascending, so the invariant holds
        // from the start.
        let (offsets, targets) = g.csr();
        let rows: Vec<(u32, u32)> = offsets.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
        Self {
            caps: rows.iter().map(|&(_, len)| len).collect(),
            rows,
            targets: targets.to_vec(),
            holes: 0,
            alive: vec![true; g.n()],
            m: g.m(),
            alive_count: g.n(),
        }
    }

    /// Total node slots (alive or dead); ids range over `0..n_slots()`.
    pub fn n_slots(&self) -> usize {
        self.rows.len()
    }

    /// Number of alive nodes.
    pub fn n_alive(&self) -> usize {
        self.alive_count
    }

    /// Number of remaining undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether node `v` is still alive.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v as usize]
    }

    /// Current neighbours of `v`, sorted ascending. Empty for dead nodes.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (start, len) = self.rows[v as usize];
        &self.targets[start as usize..(start + len) as usize]
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.rows[v as usize].1 as usize
    }

    /// Whether `{u,v}` is currently an edge. O(log deg(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates alive node ids.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_slots() as NodeId).filter(move |&v| self.alive[v as usize])
    }

    /// Adds a fresh, isolated, alive node and returns its id (always the
    /// previous `n_slots()` — ids grow monotonically; dead slots are never
    /// recycled, so every id ever handed out stays meaningful).
    pub fn add_node(&mut self) -> NodeId {
        let v = self.n_slots() as NodeId;
        self.rows.push((self.buffer_end(), 0));
        self.caps.push(0);
        self.alive.push(true);
        self.alive_count += 1;
        v
    }

    /// Adds the edge `{u, v}`. Returns `true` if it was added; `false`
    /// (and no mutation) if `u == v`, either endpoint is dead or out of
    /// range, or the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let (ui, vi) = (u as usize, v as usize);
        if u == v || vi >= self.n_slots() || ui >= self.n_slots() {
            return false;
        }
        if !self.alive[ui] || !self.alive[vi] {
            return false;
        }
        let Err(pos_u) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect_err("adjacency rows out of sync");
        self.insert_at(ui, pos_u, v);
        self.insert_at(vi, pos_v, u);
        self.m += 1;
        // Both rows are written, so rewriting every row at its own
        // length loses nothing.
        if self.holes > self.targets.len() / HOLE_RATIO {
            self.compact();
        }
        true
    }

    /// Removes the edge `{u, v}`. Returns `true` if it existed.
    /// Out-of-range ids are a no-op (trace-sourced churn events may name
    /// structure that never materialized).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.n_slots() || v as usize >= self.n_slots() {
            return false;
        }
        let removed = self.remove_from(u as usize, v);
        if removed {
            let also = self.remove_from(v as usize, u);
            debug_assert!(also, "adjacency rows out of sync");
            self.m -= 1;
        }
        removed
    }

    /// Removes node `v` and all incident edges. Returns `true` if it was
    /// alive. Out-of-range ids are a no-op, like [`Self::remove_edge`].
    /// The dead row's slots become holes; a dead row never grows again,
    /// because [`Self::add_edge`] rejects dead endpoints.
    pub fn remove_node(&mut self, v: NodeId) -> bool {
        let vi = v as usize;
        if vi >= self.n_slots() || !self.alive[vi] {
            return false;
        }
        self.alive[vi] = false;
        self.alive_count -= 1;
        let (start, len) = self.rows[vi];
        self.m -= len as usize;
        // Each neighbour's row is disjoint from `v`'s, so reading `v`'s
        // row by index while shifting theirs is sound.
        for i in start..start + len {
            let u = self.targets[i as usize];
            let removed = self.remove_from(u as usize, v);
            debug_assert!(removed, "adjacency rows out of sync");
        }
        self.rows[vi].1 = 0;
        self.holes += std::mem::take(&mut self.caps[vi]) as usize;
        true
    }

    /// The buffer's length as a row start.
    fn buffer_end(&self) -> u32 {
        u32::try_from(self.targets.len()).expect("adjacency buffer exceeds u32 slots")
    }

    /// Inserts `x` at position `pos` of row `v`, first making room: a full
    /// row grows in place when its slots end the buffer, and otherwise
    /// moves to the end, leaving its old slots as holes.
    fn insert_at(&mut self, v: usize, pos: usize, x: NodeId) {
        let (mut start, len) = self.rows[v];
        let cap = self.caps[v];
        if len == cap {
            let grown = len.saturating_mul(GROWTH).max(MIN_CAP);
            if start + cap != self.buffer_end() {
                let moved = self.buffer_end();
                let row = start as usize..(start + len) as usize;
                self.targets.extend_from_within(row);
                self.holes += cap as usize;
                start = moved;
            }
            self.targets.resize(start as usize + grown as usize, 0);
            self.caps[v] = grown;
        }
        let (s, e) = (start as usize, (start + len) as usize);
        self.targets.copy_within(s + pos..e, s + pos + 1);
        self.targets[s + pos] = x;
        self.rows[v] = (start, len + 1);
    }

    /// Binary-search removal from row `v`, preserving sortedness; the
    /// row keeps its slots. O(log deg) to find, O(deg) to shift.
    fn remove_from(&mut self, v: usize, x: NodeId) -> bool {
        let (start, len) = self.rows[v];
        let (s, e) = (start as usize, (start + len) as usize);
        match self.targets[s..e].binary_search(&x) {
            Ok(i) => {
                self.targets.copy_within(s + i + 1..e, s + i);
                self.rows[v].1 = len - 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Rewrites every row at its own length, in id order, into a fresh
    /// buffer with no holes.
    fn compact(&mut self) {
        let mut targets = Vec::with_capacity(2 * self.m);
        for (v, row) in self.rows.iter_mut().enumerate() {
            let (start, len) = *row;
            let new_start = targets.len() as u32;
            targets.extend_from_slice(&self.targets[start as usize..(start + len) as usize]);
            *row = (new_start, len);
            self.caps[v] = len;
        }
        self.targets = targets;
        self.holes = 0;
    }

    /// Snapshot of the *current* graph as a CSR [`Graph`] over all node
    /// slots (dead nodes appear isolated). Useful for handing the exact
    /// oracles a consistent view mid-fault-campaign. Rows are maintained
    /// sorted, so the export is one O(n + m) pass with no intermediate
    /// edge list and no sort.
    pub fn snapshot(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n_slots() + 1);
        let mut targets = Vec::with_capacity(2 * self.m);
        offsets.push(0u32);
        for v in 0..self.n_slots() as NodeId {
            targets.extend_from_slice(self.neighbors(v));
            offsets.push(targets.len() as u32);
        }
        Graph::from_sorted_csr(offsets, targets)
    }

    /// Iterates remaining undirected edges, each once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n_slots() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The set of alive nodes reachable from `start` in the current graph
    /// (`start` included, if alive).
    pub fn component_of(&self, start: NodeId) -> Vec<NodeId> {
        if !self.is_alive(start) {
            return Vec::new();
        }
        let mut seen = vec![false; self.n_slots()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start as usize] = true;
        while let Some(v) = stack.pop() {
            out.push(v);
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether the alive part of the graph is connected (vacuously true if
    /// fewer than two alive nodes remain).
    pub fn is_connected(&self) -> bool {
        let mut alive = self.alive_nodes();
        match alive.next() {
            None => true,
            Some(v) => self.component_of(v).len() == self.n_alive(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::Xoshiro256;
    use std::collections::BTreeSet;

    /// An adjacency model that shares no code with [`DynGraph`]: every
    /// edge `{u, w}` as the ordered pairs `(u, w)` and `(w, u)`, the alive
    /// flags, and each node's highest degree so far.
    struct Model {
        pairs: BTreeSet<(NodeId, NodeId)>,
        alive: Vec<bool>,
        peak: Vec<usize>,
    }

    impl Model {
        fn of(g: &Graph) -> Self {
            let pairs = g.edges().flat_map(|(u, w)| [(u, w), (w, u)]).collect();
            let peak = g.nodes().map(|v| g.degree(v)).collect();
            Model {
                pairs,
                alive: vec![true; g.n()],
                peak,
            }
        }

        fn live(&self, v: NodeId) -> bool {
            self.alive.get(v as usize).copied().unwrap_or(false)
        }

        fn degree(&self, v: NodeId) -> usize {
            self.pairs.range((v, 0)..=(v, NodeId::MAX)).count()
        }

        fn add_node(&mut self) -> NodeId {
            self.alive.push(true);
            self.peak.push(0);
            self.alive.len() as NodeId - 1
        }

        fn add_edge(&mut self, u: NodeId, w: NodeId) -> bool {
            if u == w || !self.live(u) || !self.live(w) || !self.pairs.insert((u, w)) {
                return false;
            }
            self.pairs.insert((w, u));
            for x in [u, w] {
                let d = self.degree(x);
                self.peak[x as usize] = self.peak[x as usize].max(d);
            }
            true
        }

        fn remove_edge(&mut self, u: NodeId, w: NodeId) -> bool {
            self.pairs.remove(&(u, w)) && self.pairs.remove(&(w, u))
        }

        fn remove_node(&mut self, v: NodeId) -> bool {
            if !self.live(v) {
                return false;
            }
            self.alive[v as usize] = false;
            self.pairs.retain(|&(u, w)| u != v && w != v);
            true
        }
    }

    /// `d` agrees with `model` on every observable, and its buffer keeps
    /// the layout's invariants.
    fn assert_matches(d: &DynGraph, model: &Model) {
        let n = model.alive.len();
        assert_eq!(d.n_slots(), n);
        assert_eq!(d.n_alive(), model.alive.iter().filter(|&&a| a).count());
        assert_eq!(2 * d.m(), model.pairs.len());
        // The ordered pairs list every row, sorted, in id order.
        let mut pairs = model.pairs.iter().peekable();
        let mut spans = Vec::new();
        let (mut reserved, mut bound) = (0, 0);
        for v in 0..n {
            let id = v as NodeId;
            let row = d.neighbors(id);
            for &w in row {
                assert_eq!(pairs.next(), Some(&(id, w)), "row {v}");
            }
            assert_ne!(
                pairs.peek().map(|p| p.0),
                Some(id),
                "row {v} lacks a neighbour"
            );
            assert_eq!(d.degree(id), row.len());
            assert_eq!(d.is_alive(id), model.alive[v]);
            assert!(!d.has_edge(id, id));
            if let Some(&w) = row.first() {
                assert!(d.has_edge(id, w) && d.has_edge(w, id));
            }
            // The row within its slots, its slots inside the buffer and
            // bounded by its growth rule.
            let ((start, len), cap) = (d.rows[v], d.caps[v]);
            let most = (GROWTH as usize * model.peak[v]).max(MIN_CAP as usize);
            assert!(len <= cap, "row {v}: {len} entries in {cap} slots");
            assert!(
                (start + cap) as usize <= d.targets.len(),
                "row {v} overruns"
            );
            assert!(cap as usize <= most, "row {v}: {cap} slots");
            if cap > 0 {
                spans.push((start, cap));
            }
            reserved += cap as usize;
            bound += most;
        }
        // No two rows' slots overlap, and the hole count is exact.
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[0].0 + pair[0].1 <= pair[1].0,
                "slots overlap: {pair:?}"
            );
        }
        assert_eq!(reserved + d.holes, d.targets.len(), "hole count");
        // `add_edge` leaves at most `1 / HOLE_RATIO` of the buffer in
        // holes, and only `add_edge` grows it, so the buffer stays within
        // `HOLE_RATIO / (HOLE_RATIO - 1)` times the slots rows may
        // reserve. Removals keep capacity, so that bound is on each
        // row's highest degree; with no removals it is `8m + 8n` here.
        assert!(
            d.targets.len() * (HOLE_RATIO - 1) <= HOLE_RATIO * bound,
            "buffer {} slots against a bound of {bound} reserved",
            d.targets.len()
        );
    }

    /// A seeded mix of arrivals and removals checked against [`Model`]
    /// after every operation. `random_churn_agrees_with_rebuild` reads
    /// its oracle from the same structure, so only an independent model
    /// can catch a row that is wrong in a consistent way. One endpoint in
    /// eight is any id up to two past the end (dead, out of range or
    /// equal), for the no-ops. Kept Miri-light: at most 64 nodes and
    /// 1,500 operations.
    #[test]
    fn surgery_agrees_with_an_independent_model() {
        fn pick(rng: &mut Xoshiro256, d: &DynGraph) -> NodeId {
            let alive: Vec<NodeId> = d.alive_nodes().collect();
            if alive.is_empty() || rng.gen_range(8) == 0 {
                rng.gen_range(d.n_slots() as u64 + 2) as NodeId
            } else {
                *rng.choose(&alive)
            }
        }
        let mut compactions = 0;
        for seed in 0..3u64 {
            let mut rng = Xoshiro256::seed_from_u64(0x5107_0000 + seed);
            let g = generators::gnp(16, 0.2, &mut rng);
            let mut d = DynGraph::from_graph(&g);
            let mut model = Model::of(&g);
            assert_matches(&d, &model);
            for _ in 0..500 {
                // Node 0 is a hub that never dies: one edge event in three
                // names it.
                let u = if rng.gen_range(3) == 0 {
                    0
                } else {
                    pick(&mut rng, &d)
                };
                let w = pick(&mut rng, &d);
                let holes = d.holes;
                match rng.gen_range(32) {
                    0..=1 if d.n_slots() < 64 => assert_eq!(d.add_node(), model.add_node()),
                    0..=19 => assert_eq!(d.add_edge(u, w), model.add_edge(u, w)),
                    20..=25 if !model.pairs.is_empty() => {
                        let k = rng.gen_range(model.pairs.len() as u64) as usize;
                        let &(u, w) = model.pairs.iter().nth(k).expect("k < len");
                        assert_eq!(d.remove_edge(u, w), model.remove_edge(u, w));
                    }
                    20..=30 => assert_eq!(d.remove_edge(u, w), model.remove_edge(u, w)),
                    _ if w != 0 => assert_eq!(d.remove_node(w), model.remove_node(w)),
                    _ => {}
                }
                if holes > 0 && d.holes == 0 {
                    compactions += 1;
                }
                assert_matches(&d, &model);
            }
        }
        assert!(compactions > 0, "the mix never compacted");
    }

    /// A hub whose row keeps filling up while its neighbours' rows grow
    /// behind it moves to the buffer's end again and again, and keeps
    /// its row each time.
    #[test]
    fn a_growing_hub_moves_and_keeps_its_row() {
        let g = Graph::from_edges(40, &[]);
        let mut d = DynGraph::from_graph(&g);
        let mut model = Model::of(&g);
        let mut starts = BTreeSet::new();
        for leaf in 1..40 {
            assert!(d.add_edge(0, leaf) && model.add_edge(0, leaf));
            if leaf > 1 {
                assert!(d.add_edge(leaf - 1, leaf) && model.add_edge(leaf - 1, leaf));
            }
            starts.insert(d.rows[0].0);
            assert_matches(&d, &model);
        }
        assert!(
            starts.len() >= 4,
            "the hub moved {} times",
            starts.len() - 1
        );
    }

    /// The insert that moves a row can also push holes past half the
    /// buffer. Compaction runs only after both rows are written, so the
    /// new neighbour survives it. Compacting between the move and the
    /// write would squeeze the moved row back to its old length, and the
    /// write would spill into the next row.
    #[test]
    fn compaction_after_a_moving_insert_keeps_the_new_edge() {
        // Hub 0 with leaves 1..=4, and the edge {5, 6}.
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]);
        let mut d = DynGraph::from_graph(&g);
        let mut model = Model::of(&g);
        for v in 0..4 {
            assert!(d.remove_node(v) && model.remove_node(v));
        }
        assert_eq!((d.holes, d.targets.len()), (7, 10));
        assert_eq!(
            d.rows[5],
            (8, 1),
            "row 5 is full and does not end the buffer"
        );
        assert_eq!(d.caps[5], 1);
        assert!(d.add_edge(5, 4) && model.add_edge(5, 4));
        assert_eq!(d.neighbors(5), &[4, 6]);
        assert_eq!(d.neighbors(4), &[5]);
        assert_eq!(d.neighbors(6), &[5], "the write stayed inside row 5");
        assert_eq!(d.holes, 0, "the moving insert compacted");
        assert_eq!(d.targets.len(), 2 * d.m());
        assert_matches(&d, &model);
    }

    fn assert_sorted(d: &DynGraph) {
        for v in 0..d.n_slots() as NodeId {
            assert!(
                d.neighbors(v).windows(2).all(|w| w[0] < w[1]),
                "row {v} not strictly sorted: {:?}",
                d.neighbors(v)
            );
        }
    }

    #[test]
    fn starts_equal_to_source() {
        let g = generators::cycle(5);
        let d = DynGraph::from_graph(&g);
        assert_eq!(d.n_alive(), 5);
        assert_eq!(d.m(), 5);
        assert!(d.is_connected());
        assert_sorted(&d);
        for v in g.nodes() {
            assert_eq!(d.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn edge_removal_updates_both_sides() {
        let g = generators::cycle(4);
        let mut d = DynGraph::from_graph(&g);
        assert!(d.remove_edge(0, 1));
        assert!(!d.has_edge(0, 1));
        assert!(!d.has_edge(1, 0));
        assert_eq!(d.m(), 3);
        assert!(d.is_connected(), "cycle minus one edge is a path");
        assert!(!d.remove_edge(0, 1), "double removal reports false");
        assert_sorted(&d);
    }

    #[test]
    fn node_removal_clears_incident_edges() {
        let g = generators::complete(4);
        let mut d = DynGraph::from_graph(&g);
        assert!(d.remove_node(2));
        assert!(!d.is_alive(2));
        assert_eq!(d.n_alive(), 3);
        assert_eq!(d.m(), 3, "K4 minus a node is K3");
        assert_eq!(d.degree(2), 0);
        assert!(!d.remove_node(2));
        for v in [0u32, 1, 3] {
            assert!(!d.neighbors(v).contains(&2));
        }
        assert_sorted(&d);
    }

    #[test]
    fn node_arrival_gets_a_fresh_id() {
        let g = generators::path(3);
        let mut d = DynGraph::from_graph(&g);
        let v = d.add_node();
        assert_eq!(v, 3);
        assert_eq!(d.n_slots(), 4);
        assert_eq!(d.n_alive(), 4);
        assert!(d.is_alive(v));
        assert_eq!(d.degree(v), 0);
        assert!(!d.is_connected(), "a fresh node starts isolated");
        assert!(d.add_edge(v, 2));
        assert!(d.is_connected());
        assert_sorted(&d);
    }

    #[test]
    fn dead_ids_are_never_recycled() {
        let g = generators::path(3);
        let mut d = DynGraph::from_graph(&g);
        d.remove_node(1);
        let v = d.add_node();
        assert_eq!(v, 3, "arrivals extend the id space past dead slots");
        assert!(!d.is_alive(1));
    }

    #[test]
    fn add_edge_rejects_invalid_endpoints() {
        let g = generators::path(4);
        let mut d = DynGraph::from_graph(&g);
        assert!(!d.add_edge(0, 0), "self-loop");
        assert!(!d.add_edge(0, 1), "already present");
        assert!(!d.add_edge(1, 0), "already present, reversed");
        assert!(!d.add_edge(0, 9), "out of range");
        d.remove_node(3);
        assert!(!d.add_edge(2, 3), "dead endpoint");
        assert_eq!(d.m(), 2);
        assert!(d.add_edge(0, 2));
        assert_eq!(d.m(), 3);
        assert!(d.has_edge(2, 0));
        assert_sorted(&d);
    }

    #[test]
    fn disconnection_is_detected() {
        let g = generators::path(4); // 0-1-2-3
        let mut d = DynGraph::from_graph(&g);
        d.remove_edge(1, 2);
        assert!(!d.is_connected());
        assert_eq!(d.component_of(0), vec![0, 1]);
        assert_eq!(d.component_of(3), vec![2, 3]);
    }

    #[test]
    fn snapshot_round_trips() {
        let g = generators::grid(3, 3);
        let mut d = DynGraph::from_graph(&g);
        d.remove_edge(0, 1);
        d.remove_node(8);
        let s = d.snapshot();
        assert_eq!(s.n(), 9);
        assert_eq!(s.m(), d.m());
        assert!(!s.has_edge(0, 1));
        assert_eq!(s.degree(8), 0);
    }

    #[test]
    fn snapshot_covers_arrivals() {
        let g = generators::cycle(4);
        let mut d = DynGraph::from_graph(&g);
        let v = d.add_node();
        d.add_edge(v, 0);
        d.add_edge(v, 2);
        let s = d.snapshot();
        assert_eq!(s.n(), 5);
        assert_eq!(s.m(), 6);
        assert_eq!(s.neighbors(v), &[0, 2]);
        assert!(s.has_edge(0, v));
    }

    #[test]
    fn component_of_dead_node_is_empty() {
        let g = generators::path(3);
        let mut d = DynGraph::from_graph(&g);
        d.remove_node(1);
        assert!(d.component_of(1).is_empty());
        assert!(!d.is_connected());
    }

    #[test]
    fn fully_deleted_graph_is_trivially_connected() {
        let g = generators::path(3);
        let mut d = DynGraph::from_graph(&g);
        for v in 0..3 {
            d.remove_node(v);
        }
        assert_eq!(d.n_alive(), 0);
        assert_eq!(d.m(), 0);
        assert!(d.is_connected());
    }

    /// Satellite property: a random interleaving of add/remove operations
    /// leaves `DynGraph` agreeing with a from-scratch rebuild of the same
    /// final edge set (nodes, edges, degrees, connectivity). Deterministic
    /// seeded sweep, kept Miri-light (CI runs this file under Miri).
    #[test]
    fn random_churn_agrees_with_rebuild() {
        for seed in 0..4u64 {
            let mut rng = Xoshiro256::seed_from_u64(0xD1CE_0000 + seed);
            let g = generators::gnp(12, 0.3, &mut rng);
            let mut d = DynGraph::from_graph(&g);
            for _ in 0..60 {
                match rng.gen_range(4) {
                    0 => {
                        let v = d.add_node();
                        // Attach to a random alive node so arrivals matter.
                        let pool: Vec<NodeId> = d.alive_nodes().filter(|&u| u != v).collect();
                        if !pool.is_empty() {
                            let u = *rng.choose(&pool);
                            d.add_edge(v, u);
                        }
                    }
                    1 => {
                        let pool: Vec<NodeId> = d.alive_nodes().collect();
                        if pool.len() >= 2 {
                            let u = *rng.choose(&pool);
                            let w = *rng.choose(&pool);
                            d.add_edge(u, w);
                        }
                    }
                    2 => {
                        let edges: Vec<Edge> = d.edges().collect();
                        if !edges.is_empty() {
                            let (u, w) = *rng.choose(&edges);
                            d.remove_edge(u, w);
                        }
                    }
                    _ => {
                        let pool: Vec<NodeId> = d.alive_nodes().collect();
                        if pool.len() > 2 {
                            d.remove_node(*rng.choose(&pool));
                        }
                    }
                }
            }
            assert_sorted(&d);
            // From-scratch rebuild: replay only the surviving edge set into
            // a fresh builder-backed Graph and compare every observable.
            let rebuilt = {
                let mut b = crate::GraphBuilder::new(d.n_slots());
                for (u, v) in d.edges() {
                    b.add_edge(u, v);
                }
                b.build()
            };
            let snap = d.snapshot();
            assert_eq!(snap.n(), rebuilt.n());
            assert_eq!(snap.m(), rebuilt.m());
            assert_eq!(d.m(), rebuilt.m());
            for v in 0..d.n_slots() as NodeId {
                assert_eq!(snap.neighbors(v), rebuilt.neighbors(v), "row {v}");
                assert_eq!(d.degree(v), rebuilt.degree(v));
            }
            // Connectivity of the alive part must agree with a BFS over
            // the rebuilt snapshot restricted to alive nodes.
            let first_alive = d.alive_nodes().next();
            if let Some(start) = first_alive {
                let reach = d.component_of(start);
                let mut seen = vec![false; rebuilt.n()];
                let mut stack = vec![start];
                seen[start as usize] = true;
                let mut count = 0usize;
                while let Some(v) = stack.pop() {
                    count += 1;
                    for &w in rebuilt.neighbors(v) {
                        if !seen[w as usize] {
                            seen[w as usize] = true;
                            stack.push(w);
                        }
                    }
                }
                assert_eq!(reach.len(), count);
                assert_eq!(d.is_connected(), count == d.n_alive());
            }
        }
    }
}
