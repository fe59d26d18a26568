//! Incremental kernel repair vs full rebuild under streaming churn.
//!
//! The compiled kernel follows every arrival and departure in place: it
//! reads the network's own graph, and its surgery hooks keep the
//! eligible count and the dirty set in step. This suite drives a
//! ~10k-event mixed arrival/departure [`ChurnStream`] through every
//! protocol in the workspace twice: once on the incremental path, and
//! once on a twin that calls [`Network::rebuild_kernel`] (a fresh dirty
//! set with every node scheduled) after each churn batch — plus an
//! uncompiled interpreter twin as the semantic arbiter. States must agree
//! across all three after every round: the in-place updates (and the
//! compiled kernel itself) must be semantically invisible.

use fssga::engine::rng::Xoshiro256;
use fssga::engine::{ChurnConfig, ChurnStream, Network, Protocol};
use fssga::graph::{generators, DynGraph, NodeId};
use fssga::protocols::bfs::{Bfs, BfsState};
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::election::{ElectState, Election};
use fssga::protocols::firing_squad::{FiringSquad, FsspState};
use fssga::protocols::greedy_tourist::{TourLabel, TouristBfs};
use fssga::protocols::parity::{KParity, ParityState};
use fssga::protocols::random_walk::{RandomWalk, WalkState};
use fssga::protocols::shortest_paths::ShortestPaths;
use fssga::protocols::synchronizer::{Alpha, AlphaState};
use fssga::protocols::traversal::{TravState, Traversal};
use fssga::protocols::two_coloring::TwoColoring;
use fssga::protocols::unison::{KUnison, UnisonState};

/// The shared event stream: a mixed arrival/departure churn over a
/// 16x16 torus, dense enough to exceed 10k scheduled events. Node 0 is
/// protected because several protocols pin their source / agent there.
fn stream() -> (fssga::graph::Graph, ChurnStream) {
    let g = generators::torus(16, 16);
    let s = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: 0xC0FF_EE07,
            horizon: 500,
            rate: 21.0,
            protected: vec![0],
            ..ChurnConfig::default()
        },
    );
    assert!(s.len() >= 10_000, "stream too small: {}", s.len());
    (g, s)
}

/// Replays `stream` on three identical networks in lockstep: `a` repairs
/// its kernel incrementally, `b` rebuilds it from scratch after every
/// round that applied at least one event, and `c` runs the uncompiled
/// interpreter as the semantic arbiter. All draw the same round seeds.
/// States must be bit-identical across all three after every round.
fn lockstep_under_churn<P: Protocol>(
    name: &str,
    mut a: Network<P>,
    mut b: Network<P>,
    mut c: Network<P>,
    init: impl Fn(NodeId) -> P::State + Copy,
    stream: &ChurnStream,
) {
    let mut plan_a = stream.plan();
    let mut plan_b = stream.plan();
    let mut plan_c = stream.plan();
    let mut rng = Xoshiro256::seed_from_u64(stream.seed());
    for round in 0..stream.horizon() {
        plan_a.apply_due_with(&mut a, round, init);
        let applied = plan_b.apply_due_with(&mut b, round, init);
        plan_c.apply_due_with(&mut c, round, init);
        if applied > 0 {
            b.rebuild_kernel();
        }
        let seed = rng.next_u64();
        let ca = a.sync_step_kernel_seeded(seed);
        let cb = b.sync_step_kernel_seeded(seed);
        let cc = c.sync_step_seeded(seed);
        assert_eq!(
            (ca, cb),
            (cb, cc),
            "{name}: change counts diverged at round {round} (applied={applied})"
        );
        assert_eq!(
            a.states(),
            b.states(),
            "{name}: incremental vs rebuilt kernel states diverged at round {round}"
        );
        assert_eq!(
            a.states(),
            c.states(),
            "{name}: kernel vs interpreter states diverged at round {round}"
        );
        assert_eq!(
            (a.graph().n_alive(), a.graph().m()),
            (b.graph().n_alive(), b.graph().m()),
            "{name}: topology diverged at round {round}"
        );
        // The surgery hooks keep the eligible count incrementally; it
        // must equal a recount over the graph every round.
        let g = a.graph();
        let eligible = g.alive_nodes().filter(|&v| g.degree(v) > 0).count() as u64;
        assert_eq!(
            a.kernel().map(|k| k.eligible_count()),
            Some(eligible),
            "{name}: incremental eligible count drifted at round {round}"
        );
    }
    assert!(
        a.graph().n_alive() > 0,
        "{name}: churn annihilated the network — stream too hot for the test"
    );
}

fn census_sketch(v: NodeId) -> FmSketch<8> {
    let mut rng = Xoshiro256::seed_from_u64(0xABCD ^ (v as u64).wrapping_mul(0x9E37_79B9));
    FmSketch::random_init(&mut rng)
}

#[test]
fn all_protocols_repair_bit_identically_under_churn() {
    let (g, s) = stream();
    let last = g.n() as NodeId - 1;

    let init = |v: NodeId| TwoColoring::init(v == 0);
    lockstep_under_churn(
        "two-coloring",
        Network::new_compiled(&g, TwoColoring, init),
        Network::new_compiled(&g, TwoColoring, init),
        Network::new(&g, TwoColoring, init),
        init,
        &s,
    );

    lockstep_under_churn(
        "census",
        Network::new_compiled(&g, Census::<8>, census_sketch),
        Network::new_compiled(&g, Census::<8>, census_sketch),
        Network::new(&g, Census::<8>, census_sketch),
        census_sketch,
        &s,
    );

    let init = |v: NodeId| ShortestPaths::<32>::init(v == 0);
    lockstep_under_churn(
        "shortest-paths",
        Network::new_compiled(&g, ShortestPaths::<32>, init),
        Network::new_compiled(&g, ShortestPaths::<32>, init),
        Network::new(&g, ShortestPaths::<32>, init),
        init,
        &s,
    );

    let init = |v: NodeId| AlphaState::init(TwoColoring::init(v == 0));
    lockstep_under_churn(
        "alpha-synchronizer",
        Network::new_compiled(&g, Alpha(TwoColoring), init),
        Network::new_compiled(&g, Alpha(TwoColoring), init),
        Network::new(&g, Alpha(TwoColoring), init),
        init,
        &s,
    );

    let init = move |v: NodeId| BfsState::init(v == 0, v == last);
    lockstep_under_churn(
        "bfs",
        Network::new_compiled(&g, Bfs, init),
        Network::new_compiled(&g, Bfs, init),
        Network::new(&g, Bfs, init),
        init,
        &s,
    );

    let init = |v: NodeId| {
        if v == 0 {
            WalkState::Flip
        } else {
            WalkState::Blank
        }
    };
    lockstep_under_churn(
        "random-walk",
        Network::new_compiled(&g, RandomWalk, init),
        Network::new_compiled(&g, RandomWalk, init),
        Network::new(&g, RandomWalk, init),
        init,
        &s,
    );

    let init = |v: NodeId| TravState::init(v == 0);
    lockstep_under_churn(
        "traversal",
        Network::new_compiled(&g, Traversal, init),
        Network::new_compiled(&g, Traversal, init),
        Network::new(&g, Traversal, init),
        init,
        &s,
    );

    let init = |v: NodeId| {
        if v == 0 {
            TourLabel::Star
        } else {
            TourLabel::Target
        }
    };
    lockstep_under_churn(
        "greedy-tourist",
        Network::new_compiled(&g, TouristBfs, init),
        Network::new_compiled(&g, TouristBfs, init),
        Network::new(&g, TouristBfs, init),
        init,
        &s,
    );

    let init = |_: NodeId| ElectState::init();
    lockstep_under_churn(
        "leader-election",
        Network::new_compiled(&g, Election, init),
        Network::new_compiled(&g, Election, init),
        Network::new(&g, Election, init),
        init,
        &s,
    );

    let init = |v: NodeId| FsspState::init(v == 0);
    lockstep_under_churn(
        "firing-squad",
        Network::new_compiled(&g, FiringSquad, init),
        Network::new_compiled(&g, FiringSquad, init),
        Network::new(&g, FiringSquad, init),
        init,
        &s,
    );

    let init = |v: NodeId| ParityState::init(v == 0);
    lockstep_under_churn(
        "k-parity",
        Network::new_compiled(&g, KParity::<4>, init),
        Network::new_compiled(&g, KParity::<4>, init),
        Network::new(&g, KParity::<4>, init),
        init,
        &s,
    );

    // Arrivals join the clock; the original population starts in unison.
    let n0 = g.n() as NodeId;
    let init = move |v: NodeId| {
        if v < n0 {
            UnisonState::at(0)
        } else {
            UnisonState::joining()
        }
    };
    lockstep_under_churn(
        "k-unison",
        Network::new_compiled(&g, KUnison::<4>, init),
        Network::new_compiled(&g, KUnison::<4>, init),
        Network::new(&g, KUnison::<4>, init),
        init,
        &s,
    );
}
