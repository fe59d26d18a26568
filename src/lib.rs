//! # fssga — Symmetric Network Computation
//!
//! A Rust reproduction of *"Symmetric Network Computation"* (David
//! Pritchard and Santosh Vempala, SPAA 2006): the finite-state symmetric
//! graph automaton (FSSGA) model, the equivalence theorem for symmetric
//! multi-input functions, the paper's algorithm portfolio, the
//! k-sensitivity fault-tolerance framework, and the isotonic-web-automaton
//! simulations.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`graph`] — graph substrate: CSR graphs, generators, exact oracles,
//!   fault surgery, deterministic RNG.
//! * [`core`] — the paper's Section 3: sequential / parallel / mod-thresh
//!   SM programs and the constructive Theorem 3.7 conversions, plus the
//!   FSSGA automaton definitions — and the §5 extensions (semi-lattice
//!   detection, mod-atom essentiality, program minimization, tape
//!   families).
//! * [`engine`] — Section 3.4 "running": synchronous and asynchronous
//!   schedulers, the model-enforcing `NeighborView`, fault injection, and
//!   the Section 2 sensitivity harness.
//! * [`protocols`] — Sections 1, 2 and 4: census, bridge finding, shortest
//!   paths, 2-colouring, the α synchronizer, BFS, the random walk, Milgram
//!   and greedy-tourist traversals, and randomized leader election.
//! * [`iwa`] — Section 5.1: isotonic web automata and the mutual
//!   simulations between IWA and FSSGA.
//! * [`serve`] — the always-on simulation service: framed TCP job
//!   protocol, per-job budgets (the wall budget a deadline on the job's
//!   cancel token), backpressure, and streamed per-round metrics
//!   (DESIGN.md §12).
//! * [`verify`] — bounded exhaustive model checking of the protocols'
//!   semantic contracts: confluence / order-independence, semantic
//!   totality within declared query bounds, and sensitivity-class
//!   certification, with minimized replayable witnesses.
//!
//! ## Quickstart
//!
//! ```
//! use fssga::graph::generators;
//! use fssga::engine::{Budget, Network, Runner};
//! use fssga::protocols::two_coloring::{TwoColoring, Color};
//!
//! // Is a 6-cycle bipartite? Run the paper's Section 4.1 automaton.
//! let g = generators::cycle(6);
//! let mut net = Network::new(&g, &TwoColoring, |v| TwoColoring::init(v == 0));
//! let rounds = Runner::new(&mut net).budget(Budget::Fixpoint(100)).run().fixpoint.expect("converges");
//! assert!(rounds <= 100);
//! assert!(net.states().iter().all(|&s| s != Color::Failed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fssga_analysis as analysis;
pub use fssga_core as core;
pub use fssga_engine as engine;
pub use fssga_graph as graph;
pub use fssga_iwa as iwa;
pub use fssga_protocols as protocols;
pub use fssga_serve as serve;
pub use fssga_verify as verify;
