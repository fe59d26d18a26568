//! Cross-engine equivalence: the compiled kernel (dense tables, CSR
//! adjacency, dirty-set scheduling, multi-threaded rounds) must be
//! bit-identical to the interpreter — same states after every round, the
//! same change counts, and the same per-round metrics on the
//! engine-invariant projection — for every protocol in the workspace, on
//! path / star / Erdős–Rényi / torus / hub-star topologies, with and without
//! mid-run faults and interpreter interleaving.

use fssga::engine::rng::Xoshiro256;
use fssga::engine::{
    Budget, Engine, FaultKind, KernelPlan, Network, Policy, Protocol, RoundLog, Runner,
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

/// The four benchmark topologies of the acceptance criteria, plus:
/// - a 300-node star whose 299-entry hub row is past the direct plan's
///   insertion-sort cutoff (32 entries), so the direct plan's
///   `sort_unstable` path and the fold plan's long rows are compared with
///   the interpreter;
/// - the torus with 8 isolated nodes appended, so the kernel's
///   all-rounds, which list every node id, must still schedule only the
///   eligible nodes.
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = Xoshiro256::seed_from_u64(0xEC);
    let torus = generators::torus(8, 8);
    let isolated = Graph::from_edges(72, &torus.edges().collect::<Vec<_>>());
    vec![
        ("path", generators::path(40)),
        ("star", generators::star(40)),
        ("er", generators::connected_gnp(48, 0.12, &mut rng)),
        ("torus", torus),
        ("hub-star", generators::star(300)),
        ("torus+isolated", isolated),
    ]
}

/// Steps `a` on the interpreter and `b` on the kernel, one synchronous
/// round at a time, asserting states and cumulative change counts agree
/// after every round. Both draw round seeds from identically-seeded RNGs.
///
/// Both runs carry a [`RoundLog`] tracer, and every round's metrics are
/// compared on the engine-invariant projection (round, eligible, changes,
/// faults) — bit-identical by contract — while the scheduling fields are
/// checked against the semantics each engine promises: the interpreter
/// evaluates every eligible node; the kernel may skip some (dirty set)
/// but never evaluates more, and its dispatch counts partition its
/// activations.
fn lockstep<P: Protocol>(a: Network<P>, b: Network<P>, rounds: usize, seed: u64, ctx: &str) {
    lockstep_across(a, b, rounds, seed, &[], ctx);
}

/// [`lockstep`] with `faults` applied to both networks before the given
/// (1-based) rounds; returns the kernel's log.
fn lockstep_across<P: Protocol>(
    mut a: Network<P>,
    mut b: Network<P>,
    rounds: usize,
    seed: u64,
    faults: &[(usize, FaultKind)],
    ctx: &str,
) -> RoundLog {
    let mut rng_a = Xoshiro256::seed_from_u64(seed);
    let mut rng_b = Xoshiro256::seed_from_u64(seed);
    let mut log_a = RoundLog::default();
    let mut log_b = RoundLog::default();
    for round in 1..=rounds {
        for &(_, kind) in faults.iter().filter(|&&(at, _)| at == round) {
            for net in [&mut a, &mut b] {
                assert!(
                    net.apply_fault(kind, |_| unreachable!("no arrivals")),
                    "{ctx}: {kind:?} changed nothing"
                );
            }
        }
        Runner::new(&mut a)
            .engine(Engine::Interpreter)
            .budget(Budget::Rounds(1))
            .rng(&mut rng_a)
            .tracer(&mut log_a)
            .run();
        Runner::new(&mut b)
            .engine(Engine::Kernel)
            .budget(Budget::Rounds(1))
            .rng(&mut rng_b)
            .tracer(&mut log_b)
            .run();
        assert_eq!(
            a.states(),
            b.states(),
            "{ctx}: states diverged at round {round}"
        );
        assert_eq!(
            a.metrics.changes, b.metrics.changes,
            "{ctx}: change counts diverged at round {round}"
        );
    }
    assert_eq!(log_a.rounds.len(), rounds, "{ctx}: interpreter round count");
    assert_eq!(log_b.rounds.len(), rounds, "{ctx}: kernel round count");
    let mut quiet = false;
    for (ma, mb) in log_a.rounds.iter().zip(&log_b.rounds) {
        let round = ma.round;
        assert_eq!(
            ma.invariant(),
            mb.invariant(),
            "{ctx}: engine-invariant metrics diverged at round {round}\n\
             interpreter: {ma:?}\n\
             kernel:      {mb:?}"
        );
        assert_eq!(
            ma.activations, ma.eligible,
            "{ctx}: interpreter must evaluate every eligible node (round {round})"
        );
        assert!(
            mb.activations <= ma.activations,
            "{ctx}: kernel evaluated more nodes than the interpreter (round {round})"
        );
        // A node isolated after it was marked stays scheduled but is not
        // evaluated, so `scheduled` may exceed `eligible`.
        assert!(
            mb.activations <= mb.scheduled && mb.activations <= mb.eligible,
            "{ctx}: kernel evaluated beyond its schedule or the eligible set (round {round})"
        );
        // Surgery reschedules only nodes that keep a neighbour. After a
        // round that changed nothing, one surgery therefore schedules
        // only nodes the next round evaluates.
        if quiet && mb.faults <= 1 {
            assert_eq!(
                mb.scheduled, mb.activations,
                "{ctx}: kernel scheduled a node it cannot evaluate (round {round})"
            );
        }
        quiet = mb.changes == 0;
        for (name, m) in [("interpreter", ma), ("kernel", mb)] {
            assert_eq!(
                m.tabular + m.direct,
                m.activations,
                "{ctx}: {name} dispatch counts must partition activations (round {round})"
            );
        }
        assert!(
            mb.neighbor_reads <= ma.neighbor_reads,
            "{ctx}: kernel read more neighbour states than the interpreter (round {round})"
        );
    }
    log_b
}

/// Runs each protocol on each topology and checks per-round equivalence.
#[test]
fn all_protocols_agree_on_all_topologies() {
    for (gname, g) in graphs() {
        let n = g.n();
        let last = (n - 1) as NodeId;
        let mut rng = Xoshiro256::seed_from_u64(7);
        let sketches: Vec<FmSketch<8>> = (0..n).map(|_| FmSketch::random_init(&mut rng)).collect();

        let mk = |init: &dyn Fn(NodeId) -> _| Network::new(&g, TwoColoring, init);
        lockstep(
            mk(&|v| TwoColoring::init(v == 0)),
            mk(&|v| TwoColoring::init(v == 0)),
            12,
            1,
            &format!("two-coloring/{gname}"),
        );

        let mk = |_: ()| Network::new(&g, Census::<8>, |v| sketches[v as usize]);
        lockstep(mk(()), mk(()), 12, 2, &format!("census/{gname}"));

        let mk = |_: ()| {
            Network::new(&g, ShortestPaths::<32>, |v| {
                ShortestPaths::<32>::init(v == 0)
            })
        };
        lockstep(mk(()), mk(()), 12, 3, &format!("shortest-paths/{gname}"));

        let mk = |_: ()| Network::new(&g, Bfs, |v| BfsState::init(v == 0, v == last));
        lockstep(mk(()), mk(()), 12, 4, &format!("bfs/{gname}"));

        let mk = |_: ()| {
            Network::new(&g, TouristBfs, |v| {
                if v % 7 == 0 {
                    TourLabel::Target
                } else {
                    TourLabel::Star
                }
            })
        };
        lockstep(mk(()), mk(()), 12, 5, &format!("greedy-tourist/{gname}"));

        let mk = |_: ()| {
            Network::new(&g, RandomWalk, |v| {
                if v == 0 {
                    WalkState::Flip
                } else {
                    WalkState::Blank
                }
            })
        };
        lockstep(mk(()), mk(()), 12, 6, &format!("random-walk/{gname}"));

        let mk = |_: ()| Network::new(&g, Election, |_| ElectState::init());
        lockstep(mk(()), mk(()), 12, 7, &format!("election/{gname}"));

        let mk = |_: ()| Network::new(&g, FiringSquad, |v| FsspState::init(v == 0));
        lockstep(mk(()), mk(()), 12, 8, &format!("firing-squad/{gname}"));

        let mk = |_: ()| Network::new(&g, Traversal, |v| TravState::init(v == 0));
        lockstep(mk(()), mk(()), 12, 9, &format!("traversal/{gname}"));

        let mk = |_: ()| Network::new(&g, KUnison::<8>, |v| UnisonState::at((v % 3) as u8));
        lockstep(mk(()), mk(()), 12, 11, &format!("k-unison/{gname}"));

        let mk = |_: ()| Network::new(&g, KParity::<4>, |v| ParityState::init(v == 0));
        lockstep(mk(()), mk(()), 12, 12, &format!("k-parity/{gname}"));

        let mk = |_: ()| {
            alpha_network(&g, ShortestPaths::<16>, |v| {
                ShortestPaths::<16>::init(v == 0)
            })
        };
        lockstep(
            mk(()),
            mk(()),
            12,
            10,
            &format!("alpha-synchronizer/{gname}"),
        );
    }
}

/// Removals against the kernel's schedule, traced in lockstep: a star
/// whose hub is a sink, beside a path whose first node (5) is one.
/// - Right after the sparse commit in which node 23 took its label and
///   marked node 24, the path's last edge goes: node 24 stays scheduled,
///   isolated, and is not evaluated.
/// - After convergence the hub goes and isolates every leaf; no leaf may
///   be scheduled.
#[test]
fn removals_reschedule_only_nodes_that_keep_a_neighbour() {
    let edges: Vec<_> = (1..5)
        .map(|v| (0, v))
        .chain((5..24).map(|v| (v, v + 1)))
        .collect();
    let g = Graph::from_edges(25, &edges);
    let build = || {
        Network::new(&g, ShortestPaths::<32>, |v| {
            ShortestPaths::<32>::init(v == 0 || v == 5)
        })
    };
    let faults = [(19, FaultKind::Edge(23, 24)), (24, FaultKind::Node(0))];
    let log = lockstep_across(build(), build(), 25, 13, &faults, "removals");
    let round = |r: usize| log.rounds[r - 1];
    assert_eq!(round(18).changes, 1, "round 18 commits sparse");
    assert_eq!(
        (round(19).scheduled, round(19).activations),
        (3, 2),
        "round 19 schedules nodes 22-24 and evaluates 22 and 23"
    );
    assert_eq!(round(23).changes, 0, "round 23 changes nothing");
    assert_eq!(
        (round(24).eligible, round(24).scheduled),
        (19, 0),
        "round 24 schedules no isolated leaf"
    );
}

/// A protocol that declares a fold takes the fold plan. Otherwise the
/// tabular plan takes every protocol whose per-state count classes fit
/// the kernel's budget (`Π_j (T_j + M_j) <= 4096`); larger alphabets run
/// on the direct plan.
#[test]
fn kernel_plans_follow_per_state_classes() {
    use KernelPlan::{Direct, Fold, Tabular};
    fn plan<P: Protocol>(p: P, init: impl FnMut(NodeId) -> P::State) -> (&'static str, KernelPlan) {
        let net = Network::new_compiled(&generators::cycle(8), p, init);
        (
            std::any::type_name::<P>(),
            net.kernel_plan().expect("compiled"),
        )
    }
    let plans = [
        (plan(RandomWalk, |_| WalkState::Blank), Tabular),
        (plan(KUnison::<8>, |_| UnisonState::at(0)), Tabular),
        (plan(KParity::<4>, |v| ParityState::init(v == 0)), Tabular),
        (plan(TwoColoring, |v| TwoColoring::init(v == 0)), Tabular),
        (plan(TouristBfs, |_| TourLabel::Star), Tabular),
        (plan(Census::<16>, |_| FmSketch(1)), Fold),
        (
            plan(ShortestPaths::<256>, |v| ShortestPaths::<256>::init(v == 0)),
            Fold,
        ),
        (plan(Bfs, |v| BfsState::init(v == 0, v == 4)), Direct),
        (plan(Election, |_| ElectState::init()), Direct),
        (plan(FiringSquad, |v| FsspState::init(v == 0)), Direct),
        (plan(Traversal, |v| TravState::init(v == 0)), Direct),
        (plan(KParity::<16>, |v| ParityState::init(v == 0)), Direct),
    ];
    for ((name, got), want) in plans {
        assert_eq!(got, want, "{name}");
    }
}

/// Benign faults mid-run: the kernel's CSR mirror and dirty-set
/// bookkeeping must track edge and node removals exactly.
#[test]
fn engines_agree_across_faults() {
    for (gname, g) in graphs() {
        let mut nets = [
            Network::new(&g, ShortestPaths::<32>, |v| {
                ShortestPaths::<32>::init(v == 0)
            }),
            Network::new(&g, ShortestPaths::<32>, |v| {
                ShortestPaths::<32>::init(v == 0)
            }),
        ];
        let engines = [Engine::Interpreter, Engine::Kernel];
        for (net, engine) in nets.iter_mut().zip(engines) {
            let step = |net: &mut _, k| {
                Runner::new(net)
                    .engine(engine)
                    .budget(Budget::Rounds(k))
                    .run();
            };
            step(net, 3);
            net.remove_edge(0, 1);
            step(net, 2);
            net.remove_node(5);
            step(net, 2);
            // Interpreter-path interleaving invalidates kernel caches.
            let mut rng = Xoshiro256::seed_from_u64(40);
            net.activate(2, &mut rng);
            Runner::new(net)
                .engine(engine)
                .budget(Budget::Fixpoint(1000))
                .run();
        }
        let [a, b] = nets;
        assert_eq!(a.states(), b.states(), "fault run diverged on {gname}");
        assert_eq!(a.metrics.changes, b.metrics.changes, "{gname}");
    }
}

/// Asynchronous sweeps always run on the interpreter; a kernel-backed
/// network must behave identically to a plain one when the two modes are
/// mixed (async sweep, then a compiled synchronous fixpoint).
#[test]
fn async_then_kernel_sync_matches_pure_interpreter() {
    for (gname, g) in graphs() {
        let build = || Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0));
        let max_rounds = 10 * g.n();
        let run = |mut net: Network<TwoColoring>, engine: Engine| {
            let mut rng = Xoshiro256::seed_from_u64(99);
            Runner::new(&mut net)
                .policy(Policy::Async(fssga::engine::AsyncPolicy::RandomPermutation))
                .budget(Budget::Rounds(2))
                .rng(&mut rng)
                .run();
            Runner::new(&mut net)
                .engine(engine)
                .budget(Budget::Fixpoint(max_rounds))
                .rng(&mut rng)
                .run();
            net
        };
        let a = run(build(), Engine::Interpreter);
        let b = run(build(), Engine::Kernel);
        assert_eq!(a.states(), b.states(), "mixed-mode run diverged on {gname}");
    }
}

/// Multi-threaded kernel rounds are bit-identical to the sequential
/// interpreter for any thread count. The graphs have at least 256 nodes
/// (the kernel's `SHARD_MIN_WORK`, below which a round never wakes the
/// pool) and sizes no thread count divides; every run asserts that the
/// pool actually ran.
#[test]
fn parallel_rounds_are_bit_identical() {
    let mut rng = Xoshiro256::seed_from_u64(0x7A3);
    let graphs = [
        ("torus-17x19", generators::torus(17, 19)),
        ("er-301", generators::connected_gnp(301, 0.02, &mut rng)),
    ];
    for (gname, g) in graphs {
        let build = || Network::new(&g, Traversal, |v| TravState::init(v == 0));
        let mut seq = build();
        Runner::new(&mut seq)
            .engine(Engine::Interpreter)
            .budget(Budget::Rounds(10))
            .seed(5)
            .run();
        for threads in [2usize, 3, 8] {
            assert_ne!(g.n() % threads, 0, "{gname}: {threads} divides n");
            let mut par = build();
            let mut log = RoundLog::default();
            Runner::new(&mut par)
                .engine(Engine::Kernel)
                .budget(Budget::Rounds(10))
                .seed(5)
                .threads(threads)
                .tracer(&mut log)
                .run();
            assert_eq!(
                seq.states(),
                par.states(),
                "{gname}: kernel with {threads} threads diverged"
            );
            assert_eq!(seq.metrics.changes, par.metrics.changes, "{gname}");
            assert!(
                !log.shards.is_empty(),
                "{gname}: the pool never ran at {threads} threads"
            );
        }
    }
}
