//! Micro-benchmarks behind `fssga-bench micro [--smoke]`: the small
//! per-experiment costs (sketch unions, walk steps, program conversions,
//! synchronizer sweeps, full traversals and elections, the IWA
//! simulation, native vs table-interpreted transitions), one dense
//! kernel all-round and the fixed cost of a pooled kernel round, timed
//! with the in-house [`Harness`] and printed one line per row. Fixpoints
//! are not timed here: `fssga-bench engine` records them against the
//! interpreter.

use fssga_core::convert::{mt_to_par, par_to_seq, seq_to_mt, DEFAULT_LIMIT};
use fssga_core::library;
use fssga_core::modthresh::{ModThreshProgram, Prop};
use fssga_core::multiset::Multiset;
use fssga_core::{FsmProgram, Fssga, ProbFssga};
use fssga_engine::compile::compile_protocol;
use fssga_engine::interp::InterpNetwork;
use fssga_engine::{Network, ShardPool, StateSpace};
use fssga_graph::{exact, generators, rng::Xoshiro256, NodeId};
use fssga_iwa::fssga_on_iwa::FssgaOnIwa;
use fssga_protocols::bridges::BridgeWalk;
use fssga_protocols::census::union_of_fresh_sketches;
use fssga_protocols::election::ElectionHarness;
use fssga_protocols::greedy_tourist::GreedyTourist;
use fssga_protocols::random_walk::WalkHarness;
use fssga_protocols::shortest_paths::ShortestPaths;
use fssga_protocols::synchronizer::alpha_network;
use fssga_protocols::traversal::TraversalHarness;
use fssga_protocols::two_coloring::TwoColoring;
use fssga_protocols::unison::{KUnison, UnisonState};

use crate::harness::Harness;

/// Runs every micro-benchmark; `smoke` selects the 1 ms / 3-sample
/// budget, which proves each row runs but measures nothing trustworthy.
pub fn run(smoke: bool) {
    let h = Harness::new(smoke);
    census(&h);
    bridges(&h);
    conversions(&h);
    synchronizer(&h);
    random_walk(&h);
    traversal(&h);
    election(&h);
    iwa(&h);
    native_vs_interpreted(&h);
    kernel_all_round(&h);
    pool(&h);
}

/// E1: unions of fresh FM sketches.
fn census(h: &Harness) {
    for n in [256usize, 1024, 4096] {
        let mut rng = Xoshiro256::seed_from_u64(1);
        h.bench(&format!("census/union-of-sketches/{n}"), || {
            union_of_fresh_sketches::<16>(n, &mut rng).estimate()
        });
    }
}

/// E2: random-walk step throughput vs the Tarjan oracle.
fn bridges(h: &Harness) {
    for n in [32usize, 128, 512] {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let g = generators::cycle_with_chords(n, n / 4, &mut rng);
        let mut walk = BridgeWalk::new(&g, 0);
        h.bench(&format!("bridges/1000-walk-steps/{n}"), || {
            walk.run(1000, &mut rng)
        });
    }
    for n in [128usize, 1024, 8192] {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let g = generators::connected_gnp(n, 8.0 / n as f64, &mut rng);
        h.bench(&format!("bridges/tarjan/{n}"), || exact::bridges(&g));
    }
}

/// E4: Theorem 3.7 conversion costs and the relative evaluation cost of
/// the three program representations.
fn conversions(h: &Harness) {
    for k in [4usize, 16, 64] {
        let seq = library::count_ones_mod_seq(k);
        h.bench(&format!("convert/seq-to-mt/count-mod/{k}"), || {
            seq_to_mt(&seq, DEFAULT_LIMIT).unwrap()
        });
    }
    for k in [2usize, 4, 8] {
        let mt = seq_to_mt(&library::count_ones_mod_seq(k), DEFAULT_LIMIT).unwrap();
        h.bench(&format!("convert/mt-to-par/count-mod/{k}"), || {
            mt_to_par(&mt, DEFAULT_LIMIT).unwrap()
        });
    }

    // Ablation: the same SM function evaluated as seq / par / mod-thresh.
    let seq = library::count_ones_mod_seq(8);
    let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
    let par = mt_to_par(&mt, DEFAULT_LIMIT).unwrap();
    let back = par_to_seq(&par);
    let ms = Multiset::from_counts(vec![1_000_003, 999_983]);
    h.bench("eval/representations/sequential", || seq.eval_multiset(&ms));
    h.bench("eval/representations/mod-thresh", || mt.eval_multiset(&ms));
    h.bench("eval/representations/parallel", || par.eval_multiset(&ms));
    h.bench("eval/representations/par-to-seq", || {
        back.eval_multiset(&ms)
    });
}

/// E6: the cost of the alpha-synchronizer wrapper.
fn synchronizer(h: &Harness) {
    let g = generators::grid(24, 24);

    let mut net = Network::new(&g, ShortestPaths::<256>, |v| {
        ShortestPaths::<256>::init(v == 0)
    });
    let mut rng = Xoshiro256::seed_from_u64(5);
    h.bench("synchronizer/one-sweep/raw-sync-round", || {
        net.sync_step(&mut rng)
    });

    let mut net = alpha_network(&g, ShortestPaths::<256>, |v| {
        ShortestPaths::<256>::init(v == 0)
    });
    let mut rng = Xoshiro256::seed_from_u64(5);
    let order: Vec<NodeId> = (0..g.n() as NodeId).collect();
    h.bench("synchronizer/one-sweep/alpha-wrapped-sweep", || {
        for &v in &order {
            net.activate(v, &mut rng);
        }
    });
}

/// E8: tournament-walk move latency by degree.
fn random_walk(h: &Harness) {
    for d in [4usize, 32, 256] {
        let g = generators::star(d + 1);
        let mut rng = Xoshiro256::seed_from_u64(6);
        h.bench(&format!("random-walk/one-move/star-degree/{d}"), || {
            let mut harness = WalkHarness::new(&g, 0);
            harness.run(1, 1_000_000, &mut rng)
        });
    }
}

/// E9/E10: full traversals by size.
fn traversal(h: &Harness) {
    for n in [16usize, 64] {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let g = generators::connected_gnp(n, (2.2 * (n as f64).ln()) / n as f64, &mut rng);
        h.bench(&format!("traversal/milgram-full/{n}"), || {
            let mut t = TraversalHarness::new(&g, 0);
            t.run(50_000 * n as u64, &mut rng, false)
        });
    }
    for n in [16usize, 64] {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let g = generators::connected_gnp(n, (2.2 * (n as f64).ln()) / n as f64, &mut rng);
        h.bench(&format!("traversal/greedy-tourist-full/{n}"), || {
            let mut t = GreedyTourist::new(&g, 0);
            t.run(50_000_000, &mut rng)
        });
    }
}

/// E11: full leader elections by size.
fn election(h: &Harness) {
    for n in [8usize, 16, 32] {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let g = generators::connected_gnp(n, (2.2 * (n as f64).ln()) / n as f64, &mut rng);
        h.bench(&format!("election/full/{n}"), || {
            let mut harness = ElectionHarness::new(&g);
            let run = harness.run(1_000_000, &mut rng);
            assert!(run.leader.is_some());
            run.rounds
        });
    }
}

/// E12: the cost of the IWA simulation vs the table interpreter, on a
/// one-step infection automaton.
fn iwa(h: &Harness) {
    let catch = ModThreshProgram::new(2, 2, vec![(Prop::some(1), 1)], 0).unwrap();
    let keep = ModThreshProgram::new(2, 2, vec![], 1).unwrap();
    let auto = ProbFssga::from_deterministic(
        Fssga::new(
            2,
            vec![FsmProgram::ModThresh(catch), FsmProgram::ModThresh(keep)],
        )
        .unwrap(),
    );
    let g = generators::grid(16, 16);

    let mut net = InterpNetwork::new(&g, &auto, |v| usize::from(v == 0));
    let mut seed = 0u64;
    h.bench("iwa/one-fssga-round/native-interp", || {
        seed += 1;
        net.sync_step_seeded(seed)
    });

    let mut sim = FssgaOnIwa::new(&auto, &g, |v| usize::from(v == 0));
    let mut seed = 0u64;
    h.bench("iwa/one-fssga-round/iwa-agent-simulation", || {
        seed += 1;
        sim.sync_round(seed)
    });
}

/// Engine ablation: a native Rust transition vs the same protocol
/// compiled to mod-thresh tables and run by the table interpreter.
fn native_vs_interpreted(h: &Harness) {
    let g = generators::grid(32, 32);
    let auto = compile_protocol(&TwoColoring, 1 << 16).unwrap();
    let mut net = Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0));
    let mut seed = 0u64;
    h.bench("engine/native-vs-interpreted/native-protocol", || {
        seed += 1;
        net.sync_step_seeded(seed)
    });
    let mut net = InterpNetwork::new(&g, &auto, |v| TwoColoring::init(v == 0).index());
    let mut seed = 0u64;
    h.bench(
        "engine/native-vs-interpreted/compiled-mod-thresh-tables",
        || {
            seed += 1;
            net.sync_step_seeded(seed)
        },
    );
}

/// One dense kernel all-round: `KUnison<8>` in lockstep on a 250×250
/// torus advances every node every round, so every round commits dense
/// and the next evaluates every slot into the second state buffer.
fn kernel_all_round(h: &Harness) {
    let g = generators::torus(250, 250);
    let mut net = Network::new_compiled(&g, KUnison::<8>, |_| UnisonState::at(0));
    assert_eq!(net.sync_step_kernel_seeded(0), g.n(), "lockstep");
    h.bench("kernel/all-round/kunison8-torus-250", || {
        net.sync_step_kernel_seeded(0)
    });
}

/// The fixed cost a pooled kernel round pays before it evaluates
/// anything, which the kernel's `SHARD_MIN_WORK` threshold weighs: one
/// empty epoch of a parked 2-thread [`ShardPool`], against spawning and
/// joining one scoped thread per round, the alternative the pool
/// replaced.
fn pool(h: &Harness) {
    let mut pool = ShardPool::new(2);
    h.bench("pool/empty-epoch/2-threads", || pool.run(2, &|_| {}));
    h.bench("pool/scoped-spawn-join/1-thread", || {
        std::thread::scope(|s| {
            s.spawn(|| {});
        })
    });
}
