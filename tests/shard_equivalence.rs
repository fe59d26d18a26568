//! Sharded execution equivalence: the kernel at any thread count
//! (`Runner::threads`) must be bit-identical to the sequential kernel and
//! the interpreter — same final states, same cumulative change counts —
//! for every protocol in the
//! workspace, on graphs large enough that rounds genuinely split into
//! shards (the kernel falls back to the inline path below
//! `SHARD_MIN_WORK = 256` scheduled nodes). Also covered: fault plans
//! replayed from a text-round-tripped [`CampaignTrace`], and the
//! decomposition contract that per-shard metrics sum to the round's
//! [`RoundMetrics`].

use fssga::engine::rng::Xoshiro256;
use fssga::engine::{
    Budget, Campaign, CampaignTrace, Engine, FaultEvent, FaultKind, FaultPlan, Network, Protocol,
    RoundLog, Runner,
};
use fssga::graph::{generators, Graph, NodeId};
use fssga::protocols::bfs::{Bfs, BfsState};
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::election::{ElectState, Election};
use fssga::protocols::firing_squad::{FiringSquad, FsspState};
use fssga::protocols::greedy_tourist::{TourLabel, TouristBfs};
use fssga::protocols::parity::{KParity, ParityState};
use fssga::protocols::random_walk::{RandomWalk, WalkState};
use fssga::protocols::shortest_paths::ShortestPaths;
use fssga::protocols::synchronizer::alpha_network;
use fssga::protocols::traversal::{TravState, Traversal};
use fssga::protocols::two_coloring::TwoColoring;
use fssga::protocols::unison::{KUnison, UnisonState};

/// Thread counts of the acceptance criteria.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Topologies big enough that early rounds exceed `SHARD_MIN_WORK`,
/// including a degree-skewed power-law graph, whose hubs the pooled
/// evaluator's degree-weighted cut spreads over the shards, and a star
/// whose 299-entry hub row is past the direct plan's insertion-sort
/// cutoff (32 entries).
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = Xoshiro256::seed_from_u64(0x5A);
    vec![
        ("torus", generators::torus(20, 20)),
        ("er", generators::connected_gnp(350, 0.02, &mut rng)),
        (
            "powerlaw",
            generators::preferential_attachment(400, 3, &mut rng),
        ),
        ("hub-star", generators::star(300)),
    ]
}

/// Runs `rounds` sharded synchronous rounds at `threads` threads and
/// returns the final states plus the cumulative change count.
fn run_sharded<P>(
    build: &dyn Fn() -> Network<P>,
    rounds: usize,
    seed: u64,
    threads: usize,
) -> (Vec<P::State>, u64)
where
    P: Protocol + Sync,
    P::State: Send + Sync + std::fmt::Debug,
{
    let mut net = build();
    Runner::new(&mut net)
        .engine(Engine::Kernel)
        .threads(threads)
        .budget(Budget::Rounds(rounds))
        .seed(seed)
        .run();
    (net.states().to_vec(), net.metrics.changes)
}

/// Asserts the run is thread-count-invariant: every entry of [`THREADS`]
/// reproduces the 1-thread states and change count bit-for-bit, and the
/// 1-thread run matches a kernel `Runner` that never set a thread count
/// and the interpreter.
fn assert_thread_invariant<P>(build: &dyn Fn() -> Network<P>, rounds: usize, seed: u64, ctx: &str)
where
    P: Protocol + Sync,
    P::State: Send + Sync + std::fmt::Debug,
{
    let (base_states, base_changes) = run_sharded(build, rounds, seed, THREADS[0]);
    for &threads in &THREADS[1..] {
        let (states, changes) = run_sharded(build, rounds, seed, threads);
        assert_eq!(
            base_states, states,
            "{ctx}: {threads} threads diverged from 1 thread"
        );
        assert_eq!(
            base_changes, changes,
            "{ctx}: change counts diverged at {threads} threads"
        );
    }
    for (engine, what) in [
        (Engine::Kernel, "sequential kernel"),
        (Engine::Interpreter, "interpreter"),
    ] {
        let mut seq = build();
        Runner::new(&mut seq)
            .engine(engine)
            .budget(Budget::Rounds(rounds))
            .seed(seed)
            .run();
        assert_eq!(
            base_states.as_slice(),
            seq.states(),
            "{ctx}: sharded run diverged from the {what}"
        );
        assert_eq!(base_changes, seq.metrics.changes, "{ctx}: {what} changes");
    }
}

/// Every protocol in the workspace, on every topology, is bit-identical
/// across 1/2/4/8 threads and against the sequential kernel.
#[test]
fn all_protocols_are_thread_count_invariant() {
    for (gname, g) in graphs() {
        let n = g.n();
        let last = (n - 1) as NodeId;
        let mut rng = Xoshiro256::seed_from_u64(7);
        let sketches: Vec<FmSketch<8>> = (0..n).map(|_| FmSketch::random_init(&mut rng)).collect();

        assert_thread_invariant(
            &|| Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0)),
            12,
            1,
            &format!("two-coloring/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, Census::<8>, |v| sketches[v as usize]),
            12,
            2,
            &format!("census/{gname}"),
        );
        assert_thread_invariant(
            &|| {
                Network::new(&g, ShortestPaths::<32>, |v| {
                    ShortestPaths::<32>::init(v == 0)
                })
            },
            12,
            3,
            &format!("shortest-paths/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, Bfs, |v| BfsState::init(v == 0, v == last)),
            12,
            4,
            &format!("bfs/{gname}"),
        );
        assert_thread_invariant(
            &|| {
                Network::new(&g, TouristBfs, |v| {
                    if v % 7 == 0 {
                        TourLabel::Target
                    } else {
                        TourLabel::Star
                    }
                })
            },
            12,
            5,
            &format!("greedy-tourist/{gname}"),
        );
        assert_thread_invariant(
            &|| {
                Network::new(&g, RandomWalk, |v| {
                    if v == 0 {
                        WalkState::Flip
                    } else {
                        WalkState::Blank
                    }
                })
            },
            12,
            6,
            &format!("random-walk/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, Election, |_| ElectState::init()),
            12,
            7,
            &format!("election/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, FiringSquad, |v| FsspState::init(v == 0)),
            12,
            8,
            &format!("firing-squad/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, Traversal, |v| TravState::init(v == 0)),
            12,
            9,
            &format!("traversal/{gname}"),
        );
        assert_thread_invariant(
            &|| {
                alpha_network(&g, ShortestPaths::<16>, |v| {
                    ShortestPaths::<16>::init(v == 0)
                })
            },
            12,
            10,
            &format!("alpha-synchronizer/{gname}"),
        );
        assert_thread_invariant(
            &|| Network::new(&g, KParity::<4>, |v| ParityState::init(v == 0)),
            12,
            11,
            &format!("k-parity/{gname}"),
        );
        assert_thread_invariant(
            &|| {
                Network::new(&g, KUnison::<4>, |v| {
                    if v % 5 == 0 {
                        UnisonState::joining()
                    } else {
                        UnisonState::at((v % 4) as u8)
                    }
                })
            },
            12,
            12,
            &format!("k-unison/{gname}"),
        );
    }
}

/// Pooled rounds whose worklist keeps its marking order: between
/// `SHARD_MIN_WORK` (256) and n/8 entries, so they need more than 2,048
/// node slots, which no graph above has. On a 64×64 torus the wavefronts
/// of shortest paths, two-colouring and BFS run through such rounds; each
/// protocol is thread-count invariant there, and a traced 2-thread run
/// proves the pool ran them.
#[test]
fn marking_order_rounds_are_thread_count_invariant() {
    fn check<P>(build: &dyn Fn() -> Network<P>, seed: u64, ctx: &str)
    where
        P: Protocol + Sync,
        P::State: Send + Sync + std::fmt::Debug,
    {
        const ROUNDS: usize = 80;
        assert_thread_invariant(build, ROUNDS, seed, ctx);
        let mut net = build();
        let n = net.n() as u64;
        let mut log = RoundLog::default();
        Runner::new(&mut net)
            .engine(Engine::Kernel)
            .threads(2)
            .budget(Budget::Rounds(ROUNDS))
            .seed(seed)
            .tracer(&mut log)
            .run();
        let pooled = log
            .rounds
            .iter()
            .filter(|r| r.scheduled <= n / 8)
            .filter(|r| log.shards.iter().any(|s| s.round == r.round))
            .count();
        assert!(pooled >= 10, "{ctx}: {pooled} pooled marking-order rounds");
    }
    let g = generators::torus(64, 64);
    let last = (g.n() - 1) as NodeId;
    check(
        &|| {
            Network::new(&g, ShortestPaths::<64>, |v| {
                ShortestPaths::<64>::init(v == 0)
            })
        },
        3,
        "shortest-paths/torus-64",
    );
    check(
        &|| Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0)),
        1,
        "two-coloring/torus-64",
    );
    check(
        &|| Network::new(&g, Bfs, |v| BfsState::init(v == 0, v == last)),
        4,
        "bfs/torus-64",
    );
}

/// Fault plans survive sharding: a schedule recorded by a [`Campaign`],
/// round-tripped through the [`CampaignTrace`] text format, is replayed
/// tick-by-tick on sharded networks — faults fire, then one sharded
/// round runs — and every thread count lands in the same states.
#[test]
fn campaign_fault_plans_replay_identically_under_sharding() {
    let g = generators::torus(18, 18);
    let mut rng = Xoshiro256::seed_from_u64(0xFA);
    let sketches: Vec<FmSketch<8>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let plan = FaultPlan::new(vec![
        FaultEvent {
            time: 2,
            kind: FaultKind::Edge(17, 18),
        },
        FaultEvent {
            time: 5,
            kind: FaultKind::Node(41),
        },
        FaultEvent {
            time: 8,
            kind: FaultKind::Edge(100, 101),
        },
    ]);
    // The campaign records which faults actually applied; the () oracle
    // keeps the run trivially conclusive — only the schedule matters here.
    let campaign = Campaign::new(
        &g,
        || Census::<8>,
        |v| sketches[v as usize],
        |_: &Network<Census<8>>| Some(()),
        |_: &Graph| (),
    )
    .horizon(12)
    .seed(3)
    .plan(plan);
    let recorded = campaign.run().trace;
    let trace = CampaignTrace::from_text(&recorded.to_text()).expect("trace round-trips");
    assert_eq!(trace, recorded);
    assert!(!trace.schedule.is_empty(), "plan must actually apply");

    let run = |threads: usize| {
        let mut net = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
        let mut cursor = 0;
        for tick in 0..trace.horizon {
            while cursor < trace.schedule.len() && trace.schedule[cursor].time <= tick {
                match trace.schedule[cursor].kind {
                    FaultKind::Edge(u, v) => net.remove_edge(u, v),
                    FaultKind::Node(v) => net.remove_node(v),
                    FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                        unreachable!("removal-only plan")
                    }
                };
                cursor += 1;
            }
            Runner::new(&mut net)
                .engine(Engine::Kernel)
                .threads(threads)
                .budget(Budget::Rounds(1))
                .seed(1000 + tick)
                .run();
        }
        (net.states().to_vec(), net.metrics.changes)
    };
    let (base_states, base_changes) = run(THREADS[0]);
    for &threads in &THREADS[1..] {
        let (states, changes) = run(threads);
        assert_eq!(base_states, states, "{threads} threads diverged");
        assert_eq!(base_changes, changes, "{threads} threads change count");
    }
}

/// The decomposition contract of [`fssga::engine::ShardRoundMetrics`]:
/// within any sharded round, shard events arrive in ascending shard
/// order, cover `0..shards` exactly once, and their scheduled /
/// activations / changes / neighbour-read counters sum to the round's
/// own [`fssga::engine::RoundMetrics`]. Also with 20 isolated arrivals
/// and one removed node, whose slots an all-round does not schedule, at
/// 2 and 4 threads.
#[test]
fn shard_metrics_sum_to_round_metrics() {
    let g = generators::torus(20, 20);
    let mut rng = Xoshiro256::seed_from_u64(0xC3);
    let sketches: Vec<FmSketch<8>> = (0..g.n() + 20)
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    for (churned, threads) in [(false, 4), (true, 2), (true, 4)] {
        let ctx = format!("churned {churned}, {threads} threads");
        let mut net = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
        if churned {
            for &sketch in &sketches[g.n()..] {
                net.add_node(sketch);
            }
            assert!(net.remove_node(7));
        }
        let mut log = RoundLog::default();
        Runner::new(&mut net)
            .engine(Engine::Kernel)
            .threads(threads)
            .budget(Budget::Fixpoint(4000))
            .seed(11)
            .tracer(&mut log)
            .run();
        let mut sharded_rounds = 0;
        for round in &log.rounds {
            let shards: Vec<_> = log
                .shards
                .iter()
                .filter(|s| s.round == round.round)
                .collect();
            if shards.is_empty() {
                continue; // inline fallback round (below SHARD_MIN_WORK)
            }
            sharded_rounds += 1;
            for (k, s) in shards.iter().enumerate() {
                assert_eq!(
                    s.shard as usize, k,
                    "{ctx}: shard events must arrive in order"
                );
                assert_eq!(s.shards as usize, shards.len(), "{ctx}: shard count stamp");
            }
            let sum = |f: &dyn Fn(&fssga::engine::ShardRoundMetrics) -> u64| {
                shards.iter().map(|s| f(s)).sum::<u64>()
            };
            let ctx = format!("{ctx}, round {}", round.round);
            assert_eq!(
                sum(&|s| s.scheduled),
                round.scheduled,
                "{ctx}: scheduled sum"
            );
            assert_eq!(
                sum(&|s| s.activations),
                round.activations,
                "{ctx}: activations sum"
            );
            assert_eq!(sum(&|s| s.changes), round.changes, "{ctx}: changes sum");
            assert_eq!(
                sum(&|s| s.neighbor_reads),
                round.neighbor_reads,
                "{ctx}: neighbor_reads sum"
            );
        }
        assert!(
            sharded_rounds >= 2,
            "{ctx}: workload must actually shard (got {sharded_rounds} sharded rounds)"
        );
    }
}
