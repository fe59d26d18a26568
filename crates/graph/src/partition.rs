//! Degree-aware node partitioning for sharded execution.
//!
//! The engine's sharded synchronous round (see `fssga-engine`) assigns
//! each shard one *contiguous* range of node ids. Contiguity is a
//! deliberate invariant, not a simplification:
//!
//! * CSR adjacency rows of a shard stay contiguous in memory, so a
//!   shard's evaluation pass is the same forward scan the sequential
//!   kernel does — no gather lists, no index translation.
//! * A worklist sorted by node id splits into per-shard subslices at the
//!   range boundaries by binary search: zero copies, no per-node
//!   lookups.
//! * The shard of a node is a binary search over `shards + 1`
//!   boundaries.
//!
//! Within that constraint the partitioner balances *work*, not node
//! counts: evaluating a node costs one neighbour scan plus a constant, so
//! node `v` is weighted `degree(v) + 1` and boundaries are placed by
//! prefix sums so every shard carries ≈ `total / shards` weight. On
//! skewed (power-law) graphs this is the difference between one shard
//! owning all the hubs and an even spread; [`Partition::imbalance`] and
//! [`CutStats`] make the residual skew observable.

use crate::csr::Graph;
use crate::NodeId;

/// A contiguous, degree-weighted assignment of node ids to shards.
///
/// Shard `k` owns the id range `starts[k] .. starts[k + 1]`; ranges cover
/// `0..n` without gaps or overlap (empty shards are allowed when
/// `shards > n`). Build one with [`Partition::by_degree`] (from a graph)
/// or [`Partition::from_degrees`] (from any degree slice — the engine
/// uses its fault-adjusted CSR row lengths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `shards + 1` boundaries; shard `k` is `starts[k]..starts[k+1]`.
    starts: Vec<u32>,
    /// Per-shard total weight (`degree + 1` summed over the range).
    weights: Vec<u64>,
}

/// Edge-cut statistics of a [`Partition`] on a concrete graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutStats {
    /// Edges whose endpoints live in different shards.
    pub cut: usize,
    /// Total edges in the graph.
    pub total: usize,
}

impl CutStats {
    /// Fraction of edges crossing a shard boundary (0.0 for an edgeless
    /// graph).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cut as f64 / self.total as f64
        }
    }
}

impl Partition {
    /// Partitions `0..degrees.len()` into `shards` contiguous ranges of
    /// near-equal total weight, where node `v` weighs `degrees[v] + 1`.
    ///
    /// Boundary `k` is placed at the first node where the weight prefix
    /// sum reaches `k/shards` of the total, so every shard's weight is
    /// within one node's weight of the ideal `total / shards`.
    ///
    /// Panics if `shards == 0`.
    pub fn from_degrees(degrees: &[u32], shards: usize) -> Self {
        assert!(shards > 0, "a partition needs at least one shard");
        let n = degrees.len();
        let total: u64 = degrees.iter().map(|&d| d as u64 + 1).sum();
        let mut starts = vec![n as u32; shards + 1];
        starts[0] = 0;
        let mut boundary = 1usize;
        let mut acc = 0u64;
        for (v, &d) in degrees.iter().enumerate() {
            acc += d as u64 + 1;
            while boundary < shards && acc * shards as u64 >= total * boundary as u64 {
                starts[boundary] = (v + 1) as u32;
                boundary += 1;
            }
        }
        let weights = (0..shards)
            .map(|k| {
                degrees[starts[k] as usize..starts[k + 1] as usize]
                    .iter()
                    .map(|&d| d as u64 + 1)
                    .sum()
            })
            .collect();
        Self { starts, weights }
    }

    /// Partitions the nodes of `g` (see [`Self::from_degrees`]).
    pub fn by_degree(g: &Graph, shards: usize) -> Self {
        let degrees: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
        Self::from_degrees(&degrees, shards)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.weights.len()
    }

    /// Number of nodes partitioned.
    pub fn n(&self) -> usize {
        *self.starts.last().expect("starts is never empty") as usize
    }

    /// The node-id range owned by shard `k`.
    pub fn range(&self, k: usize) -> std::ops::Range<NodeId> {
        self.starts[k]..self.starts[k + 1]
    }

    /// The shard owning node `v` (binary search over the boundaries).
    pub fn shard_of(&self, v: NodeId) -> usize {
        debug_assert!((v as usize) < self.n());
        // partition_point: number of boundaries <= v, minus the leading 0.
        self.starts.partition_point(|&s| s <= v) - 1
    }

    /// The dense node → shard map, materialized for tests; the engine
    /// splits sorted worklists by range instead.
    pub fn assignments(&self) -> Vec<u32> {
        let mut shard_of = vec![0u32; self.n()];
        for k in 0..self.shards() {
            let r = self.range(k);
            shard_of[r.start as usize..r.end as usize].fill(k as u32);
        }
        shard_of
    }

    /// Total weight (`degree + 1` summed) of shard `k`.
    pub fn weight(&self, k: usize) -> u64 {
        self.weights[k]
    }

    /// Max-over-mean weight ratio: 1.0 is a perfect balance; `shards` is
    /// the worst case (one shard owns everything). Empty partitions
    /// report 1.0.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.weights.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.shards() as f64;
        let max = *self.weights.iter().max().expect("at least one shard") as f64;
        max / mean
    }

    /// Counts the edges of `g` crossing shard boundaries. `g` must have
    /// the same node count the partition was built for.
    pub fn cut_stats(&self, g: &Graph) -> CutStats {
        assert_eq!(g.n(), self.n(), "partition/graph node count mismatch");
        let cut = g
            .edges()
            .filter(|&(u, v)| self.shard_of(u) != self.shard_of(v))
            .count();
        CutStats { cut, total: g.m() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::rng::Xoshiro256;

    #[test]
    fn ranges_cover_all_nodes_without_overlap() {
        let g = generators::torus(8, 8);
        for shards in [1, 2, 3, 4, 7, 8] {
            let p = Partition::by_degree(&g, shards);
            assert_eq!(p.shards(), shards);
            assert_eq!(p.n(), g.n());
            let mut covered = 0usize;
            for k in 0..shards {
                let r = p.range(k);
                assert_eq!(r.start as usize, covered, "shard {k} must be contiguous");
                covered = r.end as usize;
            }
            assert_eq!(covered, g.n());
        }
    }

    #[test]
    fn shard_of_matches_ranges_and_assignments() {
        let g = generators::grid(5, 9);
        let p = Partition::by_degree(&g, 4);
        let dense = p.assignments();
        for v in g.nodes() {
            let k = p.shard_of(v);
            assert!(p.range(k).contains(&v));
            assert_eq!(dense[v as usize] as usize, k);
        }
    }

    #[test]
    fn regular_graph_splits_evenly() {
        // Torus: every degree 4, so weights must differ by at most one
        // node's weight (5).
        let g = generators::torus(10, 10);
        let p = Partition::by_degree(&g, 4);
        let max = (0..4).map(|k| p.weight(k)).max().unwrap();
        let min = (0..4).map(|k| p.weight(k)).min().unwrap();
        assert!(max - min <= 5, "near-equal split, got spread {}", max - min);
        assert!(p.imbalance() < 1.02);
    }

    #[test]
    fn degree_weighting_balances_skewed_graphs() {
        // Star: the hub (node 0) carries a third of the total weight. A
        // node-count split (500/500) would hand shard 0 the hub *plus*
        // half the leaves — ~2/3 of the work. The degree-aware cut
        // instead gives shard 0 the hub and far fewer leaves, so the
        // weights come out near-equal.
        let g = generators::star(1000);
        let p = Partition::by_degree(&g, 2);
        assert!(
            p.range(0).len() < 300,
            "hub shard takes few leaves, got {}",
            p.range(0).len()
        );
        assert!(p.imbalance() < 1.01, "imbalance {}", p.imbalance());
        // A node-count split of the same graph would be ~4/3 imbalanced.
        let half_weight = (1000 + 2 * 499) as f64;
        let naive_imbalance = half_weight / ((1000 + 2 * 999) as f64 / 2.0);
        assert!(p.imbalance() < naive_imbalance);
    }

    #[test]
    fn more_shards_than_nodes_leaves_empties() {
        let g = generators::path(3);
        let p = Partition::by_degree(&g, 8);
        assert_eq!(p.shards(), 8);
        let covered: usize = (0..8).map(|k| p.range(k).len()).sum();
        assert_eq!(covered, 3);
        for v in g.nodes() {
            let k = p.shard_of(v);
            assert!(p.range(k).contains(&v));
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let g = generators::cycle(12);
        let p = Partition::by_degree(&g, 1);
        assert_eq!(p.range(0), 0..12);
        assert_eq!(p.imbalance(), 1.0);
        assert_eq!(p.cut_stats(&g).cut, 0);
    }

    #[test]
    fn cut_stats_count_boundary_edges() {
        // Path of 10 split in two: exactly the middle edge is cut.
        let g = generators::path(10);
        let p = Partition::by_degree(&g, 2);
        let cs = p.cut_stats(&g);
        assert_eq!(cs.total, 9);
        assert_eq!(cs.cut, 1);
        assert!((cs.fraction() - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn from_degrees_accepts_fault_adjusted_rows() {
        // The engine passes live row lengths, not the original degrees:
        // zeroed rows (dead nodes) still occupy a slot with weight 1.
        let degrees = [4u32, 0, 0, 4, 4, 4];
        let p = Partition::from_degrees(&degrees, 2);
        assert_eq!(p.n(), 6);
        let w0 = p.weight(0);
        let w1 = p.weight(1);
        assert_eq!(w0 + w1, 4 + 1 + 1 + 1 + 5 + 5 + 5);
        assert!(w0.abs_diff(w1) <= 5);
    }

    #[test]
    fn power_law_partition_is_balanced() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let g = generators::preferential_attachment(2000, 3, &mut rng);
        let p = Partition::by_degree(&g, 4);
        assert!(
            p.imbalance() < 1.25,
            "degree weighting keeps hubs spread, got {}",
            p.imbalance()
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        Partition::from_degrees(&[1, 2, 3], 0);
    }
}
