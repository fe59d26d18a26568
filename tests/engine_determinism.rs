//! Tier-1 engine determinism suite: multi-threaded kernel rounds must be
//! bit-identical to the sequential interpreter.
//!
//! This is the promoted form of the old proptest-only
//! `parallel_equals_sequential` property — it runs in every offline
//! tier-1 build, with no optional features, over a fixed grid of seeds,
//! graph sizes, and thread counts. Every graph has at least 256 nodes
//! (the kernel's `SHARD_MIN_WORK`, below which a round never wakes the
//! pool) and a size no thread count divides, and every run asserts that
//! the pool actually ran.

use fssga::engine::{
    Budget, Engine, NeighborView, Network, Protocol, RoundLog, Runner, StateSpace,
};
use fssga::graph::rng::Xoshiro256;
use fssga::graph::{generators, NodeId};
use fssga::protocols::bfs::{Bfs, BfsState};
use fssga::protocols::census::{Census, FmSketch};
use fssga::protocols::election::{ElectState, Election};
use fssga::protocols::firing_squad::{FiringSquad, FsspState};
use fssga::protocols::greedy_tourist::{TourLabel, TouristBfs};
use fssga::protocols::random_walk::{RandomWalk, WalkState};
use fssga::protocols::shortest_paths::ShortestPaths;
use fssga::protocols::synchronizer::alpha_network;
use fssga::protocols::traversal::{TravState, Traversal};
use fssga::protocols::two_coloring::TwoColoring;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum S4 {
    A,
    B,
    C,
    D,
}
fssga::engine::impl_state_space!(S4 { A, B, C, D });

/// A protocol whose transition hashes the visible mod/thresh statistics —
/// a worst case for determinism testing (every count and coin matters).
#[derive(Copy, Clone)]
struct Mixer;
impl Protocol for Mixer {
    type State = S4;
    const RANDOMNESS: u32 = 4;
    fn transition(&self, own: S4, nbrs: &NeighborView<'_, S4>, coin: u32) -> S4 {
        let mut acc = own.index() as u32 + coin;
        for (i, s) in [S4::A, S4::B, S4::C, S4::D].into_iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(nbrs.count_mod(s, 5) + 7 * nbrs.count_capped(s, 3) + i as u32);
        }
        S4::from_index((acc % 4) as usize)
    }
}

/// Steps the sequential interpreter and a `threads`-thread kernel in
/// lockstep, one round at a time from identically seeded generators, and
/// asserts equal states after every round. The Mixer is probabilistic, so
/// the kernel schedules every node every round and each round must have
/// run on the pool.
fn assert_lockstep<P, F>(
    protocol: P,
    init: F,
    n: usize,
    p: f64,
    gseed: u64,
    threads: usize,
    rounds: u32,
) where
    P: Protocol + Copy + Sync,
    P::State: PartialEq + std::fmt::Debug + Send + Sync,
    F: Fn(u32) -> P::State + Copy,
{
    let g = generators::connected_gnp(n, p, &mut Xoshiro256::seed_from_u64(gseed));
    assert!(
        g.n() >= 256 && !g.n().is_multiple_of(threads),
        "n={n} threads={threads}"
    );
    let mut seq_net = Network::new(&g, protocol, init);
    let mut par_net = Network::new(&g, protocol, init);
    let mut r1 = Xoshiro256::seed_from_u64(gseed ^ 0xABCD);
    let mut r2 = Xoshiro256::seed_from_u64(gseed ^ 0xABCD);
    let mut log = RoundLog::default();
    for round in 0..rounds {
        seq_net.sync_step(&mut r1);
        Runner::new(&mut par_net)
            .engine(Engine::Kernel)
            .threads(threads)
            .budget(Budget::Rounds(1))
            .rng(&mut r2)
            .tracer(&mut log)
            .run();
        assert_eq!(
            seq_net.states(),
            par_net.states(),
            "n={n} gseed={gseed} threads={threads} round={round}"
        );
    }
    assert_eq!(
        log.shards.len(),
        rounds as usize * threads,
        "n={n} threads={threads}: every round must run one shard per thread"
    );
}

/// Grid of seeds × sizes × thread counts on the count-hashing Mixer.
#[test]
fn parallel_equals_sequential_mixer() {
    let init = |v: u32| S4::from_index((v as usize * 13 + 5) % 4);
    for (gseed, n, threads) in [
        (1u64, 301usize, 2usize),
        (2, 334, 3),
        (3, 367, 4),
        (5, 401, 5),
        (8, 433, 6),
        (13, 466, 7),
        (21, 499, 8),
    ] {
        assert_lockstep(Mixer, init, n, 0.02, gseed, threads, 4);
    }
}

/// Runs `rounds` synchronous rounds of identically-built networks through
/// three entry points — the default [`Runner`], a 3-thread
/// [`Runner::threads`] run, and an explicit [`Engine::Interpreter`] run
/// (the reference oracle) — and asserts all three report the same change
/// count and end in the same states.
fn changes_parity<P>(build: &dyn Fn() -> Network<P>, rounds: usize, seed: u64, ctx: &str)
where
    P: Protocol + Sync,
    P::State: Send + Sync + std::fmt::Debug,
{
    let mut seq = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sequential = Runner::new(&mut seq)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .run()
        .changes;

    let mut par = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let parallel = Runner::new(&mut par)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .threads(3)
        .run()
        .changes;

    let mut oracle_net = build();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let oracle = Runner::new(&mut oracle_net)
        .engine(Engine::Interpreter)
        .budget(Budget::Rounds(rounds))
        .rng(&mut rng)
        .run()
        .changes;

    assert_eq!(
        sequential, parallel,
        "{ctx}: sequential vs parallel changes"
    );
    assert_eq!(
        sequential, oracle,
        "{ctx}: sequential vs interpreter changes"
    );
    assert_eq!(
        seq.states(),
        par.states(),
        "{ctx}: parallel states diverged"
    );
    assert_eq!(
        seq.states(),
        oracle_net.states(),
        "{ctx}: interpreter states diverged"
    );
}

/// `RunReport::changes` parity across the default runner, the 3-thread
/// runner, and the interpreter, for every protocol in the workspace (the
/// graph is large enough that kernel rounds really wake the pool instead
/// of evaluating inline).
#[test]
fn change_counts_agree_across_entry_points() {
    let g = generators::connected_gnp(300, 0.02, &mut Xoshiro256::seed_from_u64(0xD15C));
    let n = g.n();
    let last = (n - 1) as NodeId;
    let mut rng = Xoshiro256::seed_from_u64(7);
    let sketches: Vec<FmSketch<8>> = (0..n).map(|_| FmSketch::random_init(&mut rng)).collect();
    let rounds = 8;

    changes_parity(
        &|| Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0)),
        rounds,
        1,
        "two-coloring",
    );
    changes_parity(
        &|| Network::new(&g, Census::<8>, |v| sketches[v as usize]),
        rounds,
        2,
        "census",
    );
    changes_parity(
        &|| {
            Network::new(&g, ShortestPaths::<32>, |v| {
                ShortestPaths::<32>::init(v == 0)
            })
        },
        rounds,
        3,
        "shortest-paths",
    );
    changes_parity(
        &|| Network::new(&g, Bfs, |v| BfsState::init(v == 0, v == last)),
        rounds,
        4,
        "bfs",
    );
    changes_parity(
        &|| {
            Network::new(&g, TouristBfs, |v| {
                if v % 7 == 0 {
                    TourLabel::Target
                } else {
                    TourLabel::Star
                }
            })
        },
        rounds,
        5,
        "greedy-tourist",
    );
    changes_parity(
        &|| {
            Network::new(&g, RandomWalk, |v| {
                if v == 0 {
                    WalkState::Flip
                } else {
                    WalkState::Blank
                }
            })
        },
        rounds,
        6,
        "random-walk",
    );
    changes_parity(
        &|| Network::new(&g, Election, |_| ElectState::init()),
        rounds,
        7,
        "election",
    );
    changes_parity(
        &|| Network::new(&g, FiringSquad, |v| FsspState::init(v == 0)),
        rounds,
        8,
        "firing-squad",
    );
    changes_parity(
        &|| Network::new(&g, Traversal, |v| TravState::init(v == 0)),
        rounds,
        9,
        "traversal",
    );
    changes_parity(
        &|| {
            alpha_network(&g, ShortestPaths::<16>, |v| {
                ShortestPaths::<16>::init(v == 0)
            })
        },
        rounds,
        10,
        "alpha-synchronizer",
    );
}

/// Same grid on the randomized-coin path with thread counts that do not
/// divide the (prime) node count (stresses shard-boundary handling).
#[test]
fn parallel_equals_sequential_ragged_chunks() {
    let init = |v: u32| S4::from_index(v as usize % 4);
    for threads in [2usize, 3, 5, 7, 11] {
        assert_lockstep(
            Mixer,
            init,
            331,
            0.02,
            0xC0FFEE ^ threads as u64,
            threads,
            5,
        );
    }
}
