//! Ablation benches for the engine design decisions called out in
//! DESIGN.md: interpreted mod-thresh tables vs native Rust transitions,
//! and the compiled kernel vs the interpreter (see `fssga-bench engine`
//! for the recorded large-n baseline, and `fssga-bench parallel` for
//! thread scaling).

use fssga_bench::harness::harness_from_args;
use fssga_engine::compile::compile_protocol;
use fssga_engine::interp::InterpNetwork;
use fssga_engine::{Budget, Engine, Network, Runner, StateSpace};
use fssga_graph::{generators, rng::Xoshiro256};
use fssga_protocols::two_coloring::TwoColoring;

fn main() {
    let mut h = harness_from_args();

    let g = generators::grid(128, 128);
    let mut net = Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0));
    let mut rng = Xoshiro256::seed_from_u64(10);
    h.bench("engine/sync-round-16k-nodes/sequential", || {
        net.sync_step(&mut rng)
    });

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

    // Kernel vs interpreter, full fixpoint from a fresh network each time.
    let g = generators::grid(64, 64);
    for (label, engine) in [
        ("interpreter", Engine::Interpreter),
        ("kernel", Engine::Kernel),
    ] {
        h.bench(&format!("engine/coloring-fixpoint-4k/{label}"), || {
            let mut net = Network::new(&g, TwoColoring, |v| TwoColoring::init(v == 0));
            Runner::new(&mut net)
                .engine(engine)
                .budget(Budget::Fixpoint(10 * 64 * 64))
                .run()
                .fixpoint
                .expect("stabilizes")
        });
    }
}
