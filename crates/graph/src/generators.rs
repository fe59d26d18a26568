//! Topology generators for the experiment suite.
//!
//! Each generator documents which experiments use it. Random generators
//! take an explicit [`Xoshiro256`] so results are reproducible; several of
//! them guarantee connectivity, which the FSSGA model assumes ("We assume
//! the network is connected and has more than one node", Section 3.4).

use crate::rng::Xoshiro256;
use crate::{Graph, GraphBuilder, NodeId};

/// Path graph `P_n`: `0 - 1 - ... - n-1`. Diameter n-1; every edge a bridge.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1);
    let edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle graph `C_n` (n >= 3): bridgeless, bipartite iff n even.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3");
    let mut edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    edges.push((n as NodeId - 1, 0));
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges: Vec<_> = (0..n as NodeId)
        .flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)))
        .collect();
    Graph::from_edges(n, &edges)
}

/// Star `K_{1,n-1}` with centre 0. The degree-stress topology for the
/// random-walk experiment E8 (walker at a node of degree d).
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let edges: Vec<_> = (1..n as NodeId).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// `rows x cols` grid (4-neighbour lattice). Bipartite; diameter
/// `rows + cols - 2`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// `rows x cols` torus (grid with wraparound). 4-regular when both sides
/// exceed 2; vertex-transitive, so a good "perfectly symmetric" stress case
/// for symmetry-breaking protocols. With both sides at least 3 the
/// `2 * rows * cols` right and down edges are distinct, so the edge list
/// has no duplicate for `Graph::from_edges` to reject.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both sides >= 3");
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols)));
            edges.push((id(r, c), id((r + 1) % rows, c)));
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: usize) -> Graph {
    assert!((1..=20).contains(&d));
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d / 2);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if v < w {
                edges.push((v as NodeId, w as NodeId));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Complete binary tree on `n` nodes (heap indexing: children of `v` are
/// `2v+1`, `2v+2`).
pub fn binary_tree(n: usize) -> Graph {
    assert!(n >= 1);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        edges.push((((v - 1) / 2) as NodeId, v as NodeId));
    }
    Graph::from_edges(n, &edges)
}

/// Uniformly random labelled tree on `n` nodes, via a random Prüfer-like
/// attachment: node `v` attaches to a uniform previous node. (Not the
/// uniform-spanning-tree distribution, but produces the long-and-stringy to
/// broom-shaped variety the experiments need.)
pub fn random_tree(n: usize, rng: &mut Xoshiro256) -> Graph {
    assert!(n >= 1);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        let parent = rng.gen_index(v) as NodeId;
        edges.push((parent, v as NodeId));
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)`. May be disconnected.
pub fn gnp(n: usize, p: f64, rng: &mut Xoshiro256) -> Graph {
    let mut b = GraphBuilder::new(n);
    if p >= 1.0 {
        return complete(n);
    }
    if p > 0.0 {
        // Geometric skipping (Batagelj-Brandes): O(n + m) instead of O(n^2).
        let log1mp = (1.0 - p).ln();
        let mut v: i64 = 1;
        let mut w: i64 = -1;
        let n = n as i64;
        while v < n {
            let r = rng.gen_f64().max(f64::MIN_POSITIVE);
            w += 1 + (r.ln() / log1mp).floor() as i64;
            while w >= v && v < n {
                w -= v;
                v += 1;
            }
            if v < n {
                b.add_edge(v as NodeId, w as NodeId);
            }
        }
    }
    b.build()
}

/// Connected `G(n, p)`: a `G(n, p)` sample unioned with a uniform random
/// attachment tree, guaranteeing connectivity while keeping the G(n,p)
/// degree character for `p` above the connectivity threshold.
pub fn connected_gnp(n: usize, p: f64, rng: &mut Xoshiro256) -> Graph {
    assert!(n >= 1);
    let base = gnp(n, p, rng);
    let mut b = GraphBuilder::new(n);
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    for v in 1..n {
        let parent = rng.gen_index(v) as NodeId;
        if parent != v as NodeId {
            b.add_edge(parent, v as NodeId);
        }
    }
    b.build()
}

/// Power-law (scale-free) graph via preferential attachment
/// (Barabási–Albert): nodes `0..=m` start as a clique, then each new node
/// attaches `m` edges to distinct existing nodes chosen with probability
/// proportional to their current degree. Connected by construction, with
/// a heavy-tailed degree distribution — the adversarial workload for
/// splitting a round's work by degree (a handful of hubs carry most of
/// the edge weight, unlike the regular tori of the engine baseline).
pub fn preferential_attachment(n: usize, m: usize, rng: &mut Xoshiro256) -> Graph {
    assert!(m >= 1, "each new node needs at least one attachment");
    assert!(n > m, "need more nodes than attachments per node");
    // `endpoints` lists every node once per incident edge, so a uniform
    // draw from it is a degree-proportional draw over nodes. Every edge is
    // new: the clique's pairs are distinct, and node `v`'s targets are
    // distinct and older than `v`.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    for u in 0..=m as NodeId {
        for v in (u + 1)..=m as NodeId {
            endpoints.extend([u, v]);
        }
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
    for v in (m + 1) as NodeId..n as NodeId {
        chosen.clear();
        while chosen.len() < m {
            let t = endpoints[rng.gen_index(endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            endpoints.extend([v, t]);
        }
    }
    // `endpoints` holds each edge as a consecutive pair.
    let edges: Vec<_> = endpoints.chunks_exact(2).map(|e| (e[0], e[1])).collect();
    Graph::from_edges(n, &edges)
}

/// Complete bipartite graph `K_{a,b}`; sides are `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a >= 1 && b >= 1);
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in 0..b {
            edges.push((u as NodeId, (a + v) as NodeId));
        }
    }
    Graph::from_edges(a + b, &edges)
}

/// Random connected bipartite graph: sides `0..a` / `a..a+b`, each cross
/// pair kept with probability `p`, plus a connecting zig-zag spine.
/// Always 2-colourable — the positive instances for experiment E5.
pub fn random_bipartite(a: usize, b: usize, p: f64, rng: &mut Xoshiro256) -> Graph {
    assert!(a >= 1 && b >= 1);
    let mut g = GraphBuilder::new(a + b);
    // Spine: 0 - a - 1 - (a+1) - 2 - ... keeps it connected.
    let spine = a.max(b);
    for i in 0..spine {
        let u = (i.min(a - 1)) as NodeId;
        let v = (a + i.min(b - 1)) as NodeId;
        g.add_edge(u, v);
        if i + 1 < spine {
            let u2 = ((i + 1).min(a - 1)) as NodeId;
            if u2 != u {
                g.add_edge(u2, v);
            }
        }
    }
    for u in 0..a {
        for v in 0..b {
            if rng.gen_bool(p) {
                g.add_edge(u as NodeId, (a + v) as NodeId);
            }
        }
    }
    g.build()
}

/// Barbell: two `K_k` cliques joined by a path of `bridge_len` edges. The
/// canonical slow-mixing graph; its path edges are bridges — used by the
/// bridge-finding experiment E2.
pub fn barbell(k: usize, bridge_len: usize) -> Graph {
    assert!(k >= 2 && bridge_len >= 1);
    let n = 2 * k + bridge_len.saturating_sub(1);
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    let right0 = k + bridge_len - 1;
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge((right0 + u) as NodeId, (right0 + v) as NodeId);
        }
    }
    // Path from clique-A node k-1 through k, k+1, ..., to clique-B node right0.
    let mut prev = (k - 1) as NodeId;
    for i in 0..bridge_len {
        let next = (k + i) as NodeId;
        b.add_edge(prev, next.min((right0) as NodeId));
        prev = next;
    }
    b.build()
}

/// Lollipop: a `K_k` clique with a path of `tail` extra nodes hanging off.
/// Maximizes hitting time (Θ(n^3)) — stress case for walk-based protocols.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 2);
    let n = k + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    for i in 0..tail {
        b.add_edge((k + i - 1).max(k - 1) as NodeId, (k + i) as NodeId);
    }
    b.build()
}

/// Wheel `W_n`: a cycle on `n-1` nodes plus a hub adjacent to all of them.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4);
    let mut b = GraphBuilder::new(n);
    let rim = n - 1;
    for i in 0..rim {
        b.add_edge(i as NodeId, ((i + 1) % rim) as NodeId);
        b.add_edge(i as NodeId, rim as NodeId);
    }
    b.build()
}

/// The Petersen graph: 3-regular, girth 5, bridgeless, non-bipartite.
pub fn petersen() -> Graph {
    let mut edges = Vec::new();
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5)); // outer C5
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
        edges.push((i, 5 + i)); // spokes
    }
    Graph::from_edges(10, &edges)
}

/// Cycle `C_n` with `chords` uniformly random extra chords (connected,
/// mostly bridgeless). Workload for the bridge-detection experiment: with
/// chords the cycle has no bridges, so every edge counter should blow past
/// ±1 eventually.
pub fn cycle_with_chords(n: usize, chords: usize, rng: &mut Xoshiro256) -> Graph {
    assert!(n >= 4);
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId);
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < chords * 50 + 100 {
        attempts += 1;
        let u = rng.gen_index(n) as NodeId;
        let v = rng.gen_index(n) as NodeId;
        if u != v && !b.has_edge(u, v) && b.add_edge(u, v) {
            added += 1;
        }
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Every edge is a bridge — the all-bridges workload for E2.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1);
    let n = spine * (1 + legs);
    let mut edges = Vec::new();
    for s in 1..spine {
        edges.push(((s - 1) as NodeId, s as NodeId));
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            edges.push((s as NodeId, next as NodeId));
            next += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// Two cliques sharing a single cut vertex ("bowtie" for k=3). The shared
/// vertex is an articulation point but no edge is a bridge.
pub fn two_cliques_shared_vertex(k: usize) -> Graph {
    assert!(k >= 3);
    let n = 2 * k - 1;
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    // Second clique on {k-1, k, ..., 2k-2}: shares node k-1.
    for u in (k - 1)..n {
        for v in (u + 1)..n {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Every connected simple graph on `n` labelled vertices (`1 <= n <= 5`),
/// enumerated by edge-subset bitmask in a fixed, deterministic order.
///
/// The bounded model checker (`fssga-verify`) quantifies over this family
/// when a named-graph family is not exhaustive enough; tests use it to
/// cross-check structural invariants on *all* small topologies. Counts are
/// the OEIS A001187 labelled connected graphs: 1, 1, 4, 38, 728 for
/// n = 1..=5 — the n ≤ 5 cap keeps the enumeration (2^10 masks at n = 5)
/// trivially cheap while the n = 6 count (26704) would already dominate
/// any checker built on top.
pub fn all_connected_graphs(n: usize) -> Vec<Graph> {
    assert!(
        (1..=5).contains(&n),
        "all_connected_graphs supports 1 <= n <= 5, got {n}"
    );
    // All unordered vertex pairs, in lexicographic order: bit i of a mask
    // decides whether pairs[i] is an edge.
    let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
        .flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)))
        .collect();
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << pairs.len()) {
        let edges: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        let g = Graph::from_edges(n, &edges);
        if crate::exact::is_connected(&g) {
            out.push(g);
        }
    }
    out
}

/// An odd cycle glued onto a random bipartite graph — guaranteed
/// non-2-colourable instances for experiment E5.
pub fn bipartite_plus_odd_cycle(a: usize, b: usize, p: f64, rng: &mut Xoshiro256) -> Graph {
    let base = random_bipartite(a, b, p, rng);
    let mut g = GraphBuilder::new(base.n());
    for (u, v) in base.edges() {
        g.add_edge(u, v);
    }
    // Close a triangle on two side-A nodes and one side-B node:
    // side-A nodes are never adjacent in the bipartite base.
    if a >= 2 {
        g.add_edge(0, 1);
        g.add_edge(0, a as NodeId);
        g.add_edge(1, a as NodeId);
    }
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(0xF55A)
    }

    #[test]
    fn all_connected_graphs_counts_match_oeis_a001187() {
        for (n, expect) in [(1usize, 1usize), (2, 1), (3, 4), (4, 38), (5, 728)] {
            let family = all_connected_graphs(n);
            assert_eq!(family.len(), expect, "n = {n}");
            for g in &family {
                assert_eq!(g.n(), n);
                assert!(exact::is_connected(g));
            }
        }
    }

    #[test]
    fn all_connected_graphs_is_deterministic_and_duplicate_free() {
        let a = all_connected_graphs(4);
        let b = all_connected_graphs(4);
        let edge_sets = |fam: &[Graph]| -> Vec<Vec<(NodeId, NodeId)>> {
            fam.iter().map(|g| g.edges().collect()).collect()
        };
        let (ea, eb) = (edge_sets(&a), edge_sets(&b));
        assert_eq!(ea, eb, "enumeration order must be stable");
        let mut dedup = ea.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ea.len(), "no duplicate edge sets");
    }

    #[test]
    #[should_panic(expected = "1 <= n <= 5")]
    fn all_connected_graphs_rejects_large_n() {
        let _ = all_connected_graphs(6);
    }

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!((g.n(), g.m()), (5, 4));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(exact::is_connected(&g));
        assert_eq!(exact::bridges(&g).len(), 4);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!((g.n(), g.m()), (6, 6));
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(exact::bridges(&g).is_empty());
        assert!(exact::bipartition(&g).is_some());
        assert!(exact::bipartition(&cycle(7)).is_none());
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|v| g.degree(v) == 1));
        assert_eq!(exact::bridges(&g).len(), 9);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // 17
        assert!(exact::is_connected(&g));
        assert!(exact::bipartition(&g).is_some());
        let d = exact::bfs_distances(&g, &[0]);
        assert_eq!(d[11], 5); // (0,0) -> (2,3): 2+3
    }

    #[test]
    fn preferential_attachment_is_connected_and_heavy_tailed() {
        let mut r = rng();
        let g = preferential_attachment(2000, 2, &mut r);
        assert_eq!(g.n(), 2000);
        assert!(exact::is_connected(&g));
        assert!(g.min_degree() >= 2, "every node attaches m = 2 edges");
        // Heavy tail: the max degree dwarfs the mean (~2m = 4).
        assert!(
            g.max_degree() > 10 * (2 * g.m() / g.n()),
            "expected hubs, max degree {}",
            g.max_degree()
        );
        // Determinism: same seed, same graph.
        let again = preferential_attachment(2000, 2, &mut rng());
        assert_eq!(g, again);
    }

    /// `torus`, `complete` and `preferential_attachment` list their edges
    /// straight into `Graph::from_edges`. Each must equal its
    /// `GraphBuilder`-built twin row for row — for preferential
    /// attachment, on the same RNG draws.
    #[test]
    fn edge_list_generators_match_builder_twins() {
        fn same(g: &Graph, twin: GraphBuilder, ctx: &str) {
            let twin = twin.build();
            assert_eq!(g.n(), twin.n(), "{ctx}: nodes");
            for v in twin.nodes() {
                assert_eq!(g.neighbors(v), twin.neighbors(v), "{ctx}: row {v}");
            }
            assert_eq!(*g, twin, "{ctx}");
        }
        for (rows, cols) in [(3, 3), (3, 7), (32, 32)] {
            let id = |r: usize, c: usize| (r * cols + c) as NodeId;
            let mut b = GraphBuilder::new(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    b.add_edge(id(r, c), id(r, (c + 1) % cols));
                    b.add_edge(id(r, c), id((r + 1) % rows, c));
                }
            }
            same(&torus(rows, cols), b, &format!("torus {rows}x{cols}"));
        }
        for n in [1, 2, 7] {
            let mut b = GraphBuilder::new(n);
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    b.add_edge(u, v);
                }
            }
            same(&complete(n), b, &format!("complete {n}"));
        }
        for (n, m) in [(5, 1), (50, 3), (2000, 4)] {
            for seed in 0..3 {
                let g = preferential_attachment(n, m, &mut Xoshiro256::seed_from_u64(seed));
                let rng = &mut Xoshiro256::seed_from_u64(seed);
                let mut b = GraphBuilder::new(n);
                let mut endpoints = Vec::new();
                for u in 0..=m as NodeId {
                    for v in (u + 1)..=m as NodeId {
                        b.add_edge(u, v);
                        endpoints.extend([u, v]);
                    }
                }
                for v in (m + 1) as NodeId..n as NodeId {
                    let mut chosen = Vec::new();
                    while chosen.len() < m {
                        let t = endpoints[rng.gen_index(endpoints.len())];
                        if !chosen.contains(&t) {
                            chosen.push(t);
                        }
                    }
                    for t in chosen {
                        assert!(b.add_edge(v, t), "({v}, {t}) drawn twice");
                        endpoints.extend([v, t]);
                    }
                }
                same(
                    &g,
                    b,
                    &format!("preferential attachment ({n}, {m}), seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 5);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(exact::is_connected(&g));
        assert!(exact::bridges(&g).is_empty());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(exact::diameter(&g), Some(4));
        assert!(exact::bipartition(&g).is_some());
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15);
        assert_eq!(g.m(), 14);
        assert!(exact::is_connected(&g));
        assert_eq!(exact::bridges(&g).len(), 14, "every tree edge is a bridge");
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut r = rng();
        for n in [1usize, 2, 10, 100] {
            let g = random_tree(n, &mut r);
            assert_eq!(g.m(), n - 1);
            assert!(exact::is_connected(&g));
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng();
        assert_eq!(gnp(10, 0.0, &mut r).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut r).m(), 45);
    }

    #[test]
    fn gnp_density_close_to_p() {
        let mut r = rng();
        let n = 200;
        let g = gnp(n, 0.1, &mut r);
        let expected = 0.1 * (n * (n - 1) / 2) as f64;
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "m = {got}, expected ~{expected}"
        );
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut r = rng();
        for &p in &[0.0, 0.01, 0.1] {
            let g = connected_gnp(100, p, &mut r);
            assert!(exact::is_connected(&g), "p = {p}");
        }
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.m(), 12);
        assert!(exact::bipartition(&g).is_some());
    }

    #[test]
    fn random_bipartite_is_bipartite_and_connected() {
        let mut r = rng();
        for _ in 0..10 {
            let g = random_bipartite(8, 12, 0.2, &mut r);
            assert!(exact::is_connected(&g));
            assert!(exact::bipartition(&g).is_some());
        }
    }

    #[test]
    fn bipartite_plus_odd_cycle_is_odd() {
        let mut r = rng();
        let g = bipartite_plus_odd_cycle(8, 12, 0.2, &mut r);
        assert!(exact::is_connected(&g));
        assert!(exact::bipartition(&g).is_none());
    }

    #[test]
    fn barbell_bridges_are_the_path() {
        let g = barbell(5, 3);
        assert!(exact::is_connected(&g));
        let bridges = exact::bridges(&g);
        assert_eq!(
            bridges.len(),
            3,
            "the 3 path edges are bridges: {bridges:?}"
        );
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(5, 4);
        assert_eq!(g.n(), 9);
        assert!(exact::is_connected(&g));
        assert_eq!(exact::bridges(&g).len(), 4);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(7);
        assert_eq!(g.degree(6), 6);
        assert!(exact::bridges(&g).is_empty());
        assert!(exact::bipartition(&g).is_none(), "wheels contain triangles");
    }

    #[test]
    fn petersen_shape() {
        let g = petersen();
        assert_eq!((g.n(), g.m()), (10, 15));
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert_eq!(exact::diameter(&g), Some(2));
        assert!(exact::bridges(&g).is_empty());
    }

    #[test]
    fn cycle_with_chords_has_no_bridges() {
        let mut r = rng();
        let g = cycle_with_chords(30, 5, &mut r);
        assert_eq!(g.m(), 35);
        assert!(exact::bridges(&g).is_empty());
    }

    #[test]
    fn caterpillar_all_bridges() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert_eq!(exact::bridges(&g).len(), g.m());
    }

    #[test]
    fn shared_vertex_cliques_no_bridges_one_cut_vertex() {
        let g = two_cliques_shared_vertex(4);
        assert_eq!(g.n(), 7);
        assert!(exact::bridges(&g).is_empty());
        assert_eq!(exact::articulation_points(&g), vec![3]);
    }
}

/// Approximately `d`-regular random graph on `n` nodes via `d` rounds of
/// random perfect matchings (`n` even; duplicate/self pairs are skipped,
/// so a few nodes may fall short of degree `d`). Retries until connected.
/// Good low-diameter expander-ish workloads for diffusion experiments.
pub fn random_near_regular(n: usize, d: usize, rng: &mut Xoshiro256) -> Graph {
    assert!(n >= 4 && n.is_multiple_of(2) && d >= 2);
    for _attempt in 0..200 {
        let mut b = GraphBuilder::new(n);
        for _ in 0..d {
            let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut perm);
            for pair in perm.chunks(2) {
                if pair[0] != pair[1] && !b.has_edge(pair[0], pair[1]) {
                    b.add_edge(pair[0], pair[1]);
                }
            }
        }
        let g = b.build();
        if crate::exact::is_connected(&g) {
            return g;
        }
    }
    panic!("random_near_regular failed to produce a connected graph");
}

#[cfg(test)]
mod near_regular_tests {
    use super::*;
    use crate::exact;

    #[test]
    fn near_regular_shape() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        let g = random_near_regular(64, 4, &mut rng);
        assert!(exact::is_connected(&g));
        // Degrees concentrate near d.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!((3.0..=4.0).contains(&avg), "avg degree {avg}");
        assert!(g.max_degree() <= 4);
        // Expander-ish: diameter is logarithmic, far below n.
        assert!(exact::diameter(&g).unwrap() <= 10);
    }
}
