//! Graph substrate for the `fssga` workspace.
//!
//! The paper ("Symmetric Network Computation", Pritchard & Vempala, SPAA
//! 2006) assumes an undirected, connected network of anonymous nodes. This
//! crate supplies everything the model and its experiments need from the
//! graph side:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR representation used for
//!   fault-free runs and as the snapshot type everywhere else.
//! * [`DynGraph`] — a mutable adjacency structure supporting the paper's
//!   *decreasing benign faults* (edge and node deletion) and, since the
//!   streaming-churn work, arrivals too: nodes append at fresh ids and
//!   edges insert into sorted adjacency in O(log deg + deg).
//! * [`generators`] — the topology families used by the experiments (paths,
//!   cycles, grids, tori, hypercubes, random graphs, trees, barbells, ...).
//! * [`exact`] — classical centralized reference algorithms (BFS, bridges
//!   via Tarjan, components, bipartiteness, diameter) that serve as oracles
//!   when validating the distributed FSSGA protocols.
//! * [`rng`] — a small deterministic PRNG (splitmix64-seeded xoshiro256**)
//!   so that every simulation in the workspace is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dynamic;
pub mod exact;
pub mod generators;
pub mod rng;

mod csr;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use dynamic::DynGraph;
pub use rng::Xoshiro256;

/// Node identifier. Graphs in this workspace are bounded by `u32` on
/// purpose: it halves the memory traffic of adjacency arrays (see the Rust
/// Performance Book's "Smaller Integers" guidance) and no experiment in the
/// paper needs more than a few million nodes.
pub type NodeId = u32;

/// An undirected edge, stored with `min(u,v) <= max(u,v)`.
pub type Edge = (NodeId, NodeId);
