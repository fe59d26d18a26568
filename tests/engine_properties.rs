//! Property tests over the engine and graph substrate, driven by the
//! in-house seeded RNG so they are deterministic and offline. The
//! flagship parallel-vs-sequential determinism property lives in its own
//! suites, `tests/engine_determinism.rs` and `tests/shard_equivalence.rs`.

use fssga::engine::{
    Budget, Engine, NeighborView, Network, Protocol, RoundLog, Runner, StateSpace,
};
use fssga::graph::rng::Xoshiro256;
use fssga::graph::{exact, generators, Graph};

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum S4 {
    A,
    B,
    C,
    D,
}
fssga::engine::impl_state_space!(S4 { A, B, C, D });

/// A protocol whose transition hashes the visible mod/thresh statistics —
/// a worst case for determinism testing (every count matters).
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

/// Generator invariants: connected generators produce connected simple
/// graphs with the right counts.
#[test]
fn generator_invariants_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0x9E11);
    for trial in 0..40 {
        let n = 2 + (trial * 7) % 58;
        let p = (trial as f64) / 100.0;
        let g = generators::connected_gnp(n, p, &mut rng);
        assert_eq!(g.n(), n);
        assert!(exact::is_connected(&g), "trial {trial}");
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, 2 * g.m());
        let t = generators::random_tree(n, &mut rng);
        assert_eq!(t.m(), n - 1);
        assert!(exact::is_connected(&t));
        assert_eq!(exact::bridges(&t).len(), n - 1);
    }
}

/// Fault surgery keeps DynGraph and CSR snapshots consistent.
#[test]
fn snapshot_consistency_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0x5A17);
    for trial in 0..30 {
        let g = generators::connected_gnp(30, 0.15, &mut rng);
        let mut d = fssga::graph::DynGraph::from_graph(&g);
        let kills = 1 + trial % 7;
        for _ in 0..kills {
            let v = rng.gen_index(30) as u32;
            d.remove_node(v);
        }
        let snap: Graph = d.snapshot();
        assert_eq!(snap.m(), d.m());
        for v in 0..30u32 {
            let mut a: Vec<u32> = d.neighbors(v).to_vec();
            a.sort_unstable();
            assert_eq!(a, snap.neighbors(v).to_vec(), "trial {trial}, node {v}");
        }
    }
}

/// Deterministic replay: identical seeds give identical multi-round
/// probabilistic executions.
#[test]
fn replay_determinism_deterministic() {
    let g = generators::grid(8, 8);
    let init = |v: u32| S4::from_index(v as usize % 4);
    let run = |s: u64| {
        let mut net = Network::new(&g, Mixer, init);
        let mut rng = Xoshiro256::seed_from_u64(s);
        for _ in 0..6 {
            net.sync_step(&mut rng);
        }
        net.states().to_vec()
    };
    for seed in [0u64, 1, 42, 0xDEAD, 9_999] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

/// One round of `net` on the kernel over `threads` threads, drawing its
/// round seed from `rng` exactly as [`Network::sync_step`] does.
fn threaded_kernel_round<P>(
    net: &mut Network<P>,
    rng: &mut Xoshiro256,
    threads: usize,
    log: &mut RoundLog,
) where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    Runner::new(net)
        .engine(Engine::Kernel)
        .threads(threads)
        .budget(Budget::Rounds(1))
        .rng(rng)
        .tracer(log)
        .run();
}

#[test]
fn parallel_stepping_handles_huge_alphabets() {
    // The election automaton has ~69k states; each shard's scratch
    // arrays and presence lists must agree with the sequential
    // interpreter bit-for-bit even there. 400 nodes: above the kernel's
    // 256-node pool threshold, and not a multiple of the 6 threads.
    use fssga::protocols::election::{ElectState, Election};
    let mut rng = Xoshiro256::seed_from_u64(424242);
    let g = generators::connected_gnp(400, 0.015, &mut rng);
    let mut seq_net = Network::new(&g, Election, |_| ElectState::init());
    let mut par_net = Network::new(&g, Election, |_| ElectState::init());
    let mut r1 = Xoshiro256::seed_from_u64(7);
    let mut r2 = Xoshiro256::seed_from_u64(7);
    let mut log = RoundLog::default();
    for round in 0..40 {
        seq_net.sync_step(&mut r1);
        threaded_kernel_round(&mut par_net, &mut r2, 6, &mut log);
        assert_eq!(seq_net.states(), par_net.states(), "round {round}");
    }
    assert!(!log.shards.is_empty(), "the shard pool never ran");
}
