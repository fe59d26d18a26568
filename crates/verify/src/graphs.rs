//! The checker's instance families.
//!
//! Bounded model checking is only as strong as the instances it covers,
//! so the family is exhaustive where that is affordable: *every*
//! connected graph on up to four nodes (via
//! [`fssga_graph::generators::all_connected_graphs`]), topped up with the
//! named shapes the paper's arguments single out (paths, cycles, stars,
//! cliques) at the sizes where exhaustive enumeration stops paying. The
//! growth probe runs on a second, larger list.

use fssga_graph::rng::Xoshiro256;
use fssga_graph::{generators, Graph};

/// A graph with a stable human-readable name, used in diagnostics and
/// witnesses.
pub struct NamedGraph {
    /// Stable name, e.g. `"all-n3-#2"` or `"cycle-5"`.
    pub name: String,
    /// The instance itself.
    pub graph: Graph,
}

impl NamedGraph {
    fn new(name: impl Into<String>, graph: Graph) -> Self {
        Self {
            name: name.into(),
            graph,
        }
    }
}

/// The standard family for a protocol capped at `max_nodes`: every
/// connected graph on `2..=min(max_nodes, 4)` nodes, then named paths,
/// cycles, stars and cliques for each larger size up to `max_nodes`.
/// Ordered by node count so that the first violating instance a check
/// reports is minimal within the family.
pub fn family(max_nodes: usize) -> Vec<NamedGraph> {
    assert!(max_nodes >= 2, "instance family needs max_nodes >= 2");
    let mut out = Vec::new();
    for n in 2..=max_nodes.min(4) {
        for (i, g) in generators::all_connected_graphs(n).into_iter().enumerate() {
            out.push(NamedGraph::new(format!("all-n{n}-#{i}"), g));
        }
    }
    for n in 5..=max_nodes {
        out.push(NamedGraph::new(format!("path-{n}"), generators::path(n)));
        out.push(NamedGraph::new(format!("cycle-{n}"), generators::cycle(n)));
        out.push(NamedGraph::new(format!("star-{n}"), generators::star(n)));
        out.push(NamedGraph::new(
            format!("clique-{n}"),
            generators::complete(n),
        ));
    }
    out
}

/// Paths only — the firing-squad protocol is specified for path graphs
/// and is not meaningful elsewhere.
pub fn paths(max_nodes: usize) -> Vec<NamedGraph> {
    assert!(max_nodes >= 2, "instance family needs max_nodes >= 2");
    (2..=max_nodes)
        .map(|n| NamedGraph::new(format!("path-{n}"), generators::path(n)))
        .collect()
}

/// The growth probe's graphs, in the order it runs them: small,
/// structurally diverse and deterministic for `seed`. The cycle gives
/// degree-2 symmetry, the star a hub, the clique the largest
/// multiplicities, the grid mixed degrees, and the random graphs the
/// rest.
pub(crate) fn probe(seed: u64) -> Vec<NamedGraph> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    vec![
        NamedGraph::new("cycle-8", generators::cycle(8)),
        NamedGraph::new("path-9", generators::path(9)),
        NamedGraph::new("star-7", generators::star(7)),
        NamedGraph::new("clique-6", generators::complete(6)),
        NamedGraph::new("grid-3x4", generators::grid(3, 4)),
        NamedGraph::new("gnp-16", generators::connected_gnp(16, 0.25, &mut rng)),
        NamedGraph::new("gnp-24", generators::connected_gnp(24, 0.15, &mut rng)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_graph::exact;

    #[test]
    fn family_is_connected_and_size_ordered() {
        let fam = family(6);
        assert!(fam.iter().all(|g| exact::is_connected(&g.graph)));
        let sizes: Vec<usize> = fam.iter().map(|g| g.graph.n()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted, "family must be ordered by node count");
        // 1 + 4 + 38 exhaustive graphs, plus 4 named shapes at n = 5, 6.
        assert_eq!(fam.len(), 1 + 4 + 38 + 4 + 4);
    }

    #[test]
    fn family_names_are_unique() {
        let fam = family(6);
        let mut names: Vec<&str> = fam.iter().map(|g| g.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fam.len());
    }

    #[test]
    fn paths_family_is_paths() {
        let fam = paths(5);
        assert_eq!(fam.len(), 4);
        for g in &fam {
            assert_eq!(g.graph.m(), g.graph.n() - 1);
            assert!(g.name.starts_with("path-"));
        }
    }
}
