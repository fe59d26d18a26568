//! Incremental kernel repair vs full rebuild under streaming churn.
//!
//! The compiled kernel follows every arrival and departure in place: it
//! reads the network's own graph, and its surgery hooks keep the
//! eligible count and the dirty set in step. This suite drives a
//! ~10k-event mixed arrival/departure [`ChurnStream`], in bursts, through
//! every protocol in the workspace three times: once on the incremental
//! path, once on a twin that calls [`Network::rebuild_kernel`] (a fresh
//! dirty set with every node scheduled) after each churn batch, and once
//! on a twin whose kernel rounds are spread over a four-thread pool —
//! plus an uncompiled interpreter twin as the semantic arbiter. States
//! must agree across all four after every round: the in-place updates,
//! the shard split and the compiled kernel itself must be semantically
//! invisible.

use std::collections::BTreeSet;

use fssga::engine::rng::Xoshiro256;
use fssga::engine::{ChurnConfig, ChurnStream, FaultEvent, Network, Protocol, RoundLog};
use fssga::graph::{generators, DynGraph, Graph, NodeId};
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

/// Rounds from one burst of the shared stream to the next.
const BURST_EVERY: u64 = 10;

/// The shared event stream: mixed arrivals and departures over a 24x24
/// torus, in 50 bursts of about 210 events, one every `BURST_EVERY`
/// rounds. A burst reschedules far more than the kernel's
/// `SHARD_MIN_WORK = 256` nodes, so the sharded twin runs post-burst
/// rounds on its pool, and the quiet rounds between let the protocols
/// settle into sparse rounds that run inline. Node 0 is protected
/// because several protocols pin their source / agent there.
fn stream() -> (Graph, ChurnStream) {
    let g = generators::torus(24, 24);
    let bursts = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: 0xC0FF_EE07,
            horizon: 50,
            rate: 210.0,
            protected: vec![0],
            ..ChurnConfig::default()
        },
    );
    let events = bursts
        .events()
        .iter()
        .map(|e| FaultEvent {
            time: e.time * BURST_EVERY,
            kind: e.kind,
        })
        .collect();
    let s = ChurnStream::from_events(bursts.seed(), bursts.horizon() * BURST_EVERY, events);
    assert!(s.len() >= 10_000, "stream too small: {}", s.len());
    (g, s)
}

/// Replays `stream` on four networks built on `g` from `protocol` and
/// `init`, in lockstep: `a` repairs its kernel incrementally, `b`
/// rebuilds it from scratch after every round that applied at least one
/// event, `c` runs the uncompiled interpreter as the semantic arbiter,
/// and `d` repairs incrementally like `a` but evaluates its kernel
/// rounds on a four-thread pool. All draw the same round seeds. States
/// and change counts must be bit-identical across all four after every
/// round.
fn lockstep_under_churn<P>(
    name: &str,
    g: &Graph,
    protocol: impl Fn() -> P,
    init: impl Fn(NodeId) -> P::State + Copy,
    stream: &ChurnStream,
) where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let mut a = Network::new_compiled(g, protocol(), init);
    let mut b = Network::new_compiled(g, protocol(), init);
    let mut c = Network::new(g, protocol(), init);
    let mut d = Network::new_compiled(g, protocol(), init);
    let mut plan_a = stream.plan();
    let mut plan_b = stream.plan();
    let mut plan_c = stream.plan();
    let mut plan_d = stream.plan();
    let mut rng = Xoshiro256::seed_from_u64(stream.seed());
    let mut log = RoundLog::default();
    for round in 0..stream.horizon() {
        plan_a.apply_due_with(&mut a, round, init);
        let applied = plan_b.apply_due_with(&mut b, round, init);
        plan_c.apply_due_with(&mut c, round, init);
        plan_d.apply_due_with(&mut d, round, init);
        if applied > 0 {
            b.rebuild_kernel();
        }
        let seed = rng.next_u64();
        let ca = a.sync_step_kernel_seeded(seed);
        let cb = b.sync_step_kernel_seeded(seed);
        let cc = c.sync_step_seeded(seed);
        let cd = d.sync_step_kernel_sharded_seeded_traced(seed, 4, &mut log);
        assert_eq!(
            [ca, cb, cd],
            [cc; 3],
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
            a.states(),
            d.states(),
            "{name}: sequential vs sharded kernel states diverged at round {round}"
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
    let pooled: BTreeSet<u64> = log.shards.iter().map(|s| s.round).collect();
    assert!(
        pooled.len() >= 25,
        "{name}: only {} rounds ran on the pool",
        pooled.len()
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
    lockstep_under_churn("two-coloring", &g, || TwoColoring, init, &s);

    lockstep_under_churn("census", &g, || Census::<8>, census_sketch, &s);

    let init = |v: NodeId| ShortestPaths::<32>::init(v == 0);
    lockstep_under_churn("shortest-paths", &g, || ShortestPaths::<32>, init, &s);

    let init = |v: NodeId| AlphaState::init(TwoColoring::init(v == 0));
    lockstep_under_churn("alpha-synchronizer", &g, || Alpha(TwoColoring), init, &s);

    let init = move |v: NodeId| BfsState::init(v == 0, v == last);
    lockstep_under_churn("bfs", &g, || Bfs, init, &s);

    let init = |v: NodeId| {
        if v == 0 {
            WalkState::Flip
        } else {
            WalkState::Blank
        }
    };
    lockstep_under_churn("random-walk", &g, || RandomWalk, init, &s);

    let init = |v: NodeId| TravState::init(v == 0);
    lockstep_under_churn("traversal", &g, || Traversal, init, &s);

    let init = |v: NodeId| {
        if v == 0 {
            TourLabel::Star
        } else {
            TourLabel::Target
        }
    };
    lockstep_under_churn("greedy-tourist", &g, || TouristBfs, init, &s);

    let init = |_: NodeId| ElectState::init();
    lockstep_under_churn("leader-election", &g, || Election, init, &s);

    let init = |v: NodeId| FsspState::init(v == 0);
    lockstep_under_churn("firing-squad", &g, || FiringSquad, init, &s);

    let init = |v: NodeId| ParityState::init(v == 0);
    lockstep_under_churn("k-parity", &g, || KParity::<4>, init, &s);

    // Arrivals join the clock; the original population starts in unison.
    let n0 = g.n() as NodeId;
    let init = move |v: NodeId| {
        if v < n0 {
            UnisonState::at(0)
        } else {
            UnisonState::joining()
        }
    };
    lockstep_under_churn("k-unison", &g, || KUnison::<4>, init, &s);
}
