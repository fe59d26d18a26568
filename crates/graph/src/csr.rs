//! Immutable undirected graphs in compressed sparse row (CSR) form.

use crate::{Edge, NodeId};

/// An immutable, undirected, simple graph.
///
/// Adjacency is stored in CSR form: `targets[offsets[v]..offsets[v+1]]` are
/// the (sorted) neighbours of `v`. This is the densest practical layout: one
/// contiguous scan per neighbourhood, which is exactly the access pattern of
/// a node activation in the FSSGA engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Self-loops and duplicate edges are rejected with a panic: the paper's
    /// model is over simple graphs, and silently deduplicating would mask
    /// generator bugs.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut deg = vec![0u32; n];
        for &(u, v) in edges {
            assert!(u != v, "self-loop ({u},{v}) not allowed");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut targets = vec![0 as NodeId; offsets[n] as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let span = &mut targets[offsets[v] as usize..offsets[v + 1] as usize];
            span.sort_unstable();
            for w in span.windows(2) {
                assert!(w[0] != w[1], "duplicate edge ({v},{})", w[0]);
            }
        }
        Self { offsets, targets }
    }

    /// Builds a graph directly from CSR arrays whose rows are already
    /// sorted. Fast path for [`crate::DynGraph::snapshot`]: skips the edge
    /// list and the per-edge scatter of [`Self::from_edges`].
    pub(crate) fn from_sorted_csr(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        #[cfg(debug_assertions)]
        for v in 0..offsets.len().saturating_sub(1) {
            let row = &targets[offsets[v] as usize..offsets[v + 1] as usize];
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
        Self { offsets, targets }
    }

    /// The CSR arrays `(offsets, targets)`: what
    /// [`crate::DynGraph::from_graph`] copies.
    pub(crate) fn csr(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Whether `{u, v}` is an edge (binary search over the sorted row).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates the node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, &[(2, 0), (3, 0), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let g2 = Graph::from_edges(3, &[(0, 1)]);
        assert!(!g2.has_edge(1, 2));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let es: Vec<Edge> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Graph::from_edges(5, &[(0, 1)]);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.m(), 1);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        Graph::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn handshake_lemma() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, 2 * g.m());
    }
}
