//! Property test for the protocol → mod-thresh compiler: random decision
//! lists, wrapped as engine protocols, compile to tables whose network
//! behaviour is bit-identical to the native execution. Cases come from
//! the in-house seeded RNG, so the suite is deterministic and offline.

use fssga::core::modthresh::{ModThreshProgram, Prop};
use fssga::engine::compile::compile_protocol;
use fssga::engine::interp::InterpNetwork;
use fssga::engine::{impl_state_space, NeighborView, Network, Protocol, StateSpace};
use fssga::graph::generators;
use fssga::graph::rng::Xoshiro256;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum S3 {
    A,
    B,
    C,
}
impl_state_space!(S3 { A, B, C });

/// A protocol whose transition interprets one mod-thresh program per own
/// state, reading the view through exactly the queries the program's
/// atoms name.
struct MtProtocol {
    programs: [ModThreshProgram; 3],
}

impl Protocol for MtProtocol {
    type State = S3;

    fn transition(&self, own: S3, nbrs: &NeighborView<'_, S3>, _coin: u32) -> S3 {
        let prog = &self.programs[own.index()];
        // Reconstruct counts through view queries within the program's own
        // bounds: capped at T_j and mod M_j, then synthesize (the same
        // trick the alpha synchronizer uses).
        let t = prog.thresholds();
        let m = prog.moduli();
        let mut counts = [0u64; 3];
        for (j, c) in counts.iter_mut().enumerate() {
            let s = S3::from_index(j);
            let capped = u64::from(nbrs.count_capped(s, t[j].max(1) as u32));
            *c = if capped < t[j].max(1) {
                capped
            } else {
                let residue = u64::from(nbrs.count_mod(s, m[j] as u32));
                let tt = t[j].max(1);
                tt + (residue + m[j] - tt % m[j]) % m[j]
            };
        }
        S3::from_index(prog.eval_counts(&counts))
    }
}

/// Deterministic random atom over `s` states.
fn rand_atom(rng: &mut Xoshiro256, s: usize) -> Prop {
    let q = rng.gen_index(s);
    match rng.gen_range(3) {
        0 => Prop::below(q, 1 + rng.gen_range(3)),
        1 => {
            let m = 2 + rng.gen_range(2);
            Prop::mod_count(q, rng.gen_range(m), m)
        }
        _ => Prop::at_least(q, 1 + rng.gen_range(2)),
    }
}

/// Deterministic random program over 3 states: up to 2 clauses, each a
/// conjunction of 1–2 atoms.
fn rand_program(rng: &mut Xoshiro256) -> ModThreshProgram {
    let clauses: Vec<(Prop, usize)> = (0..rng.gen_index(3))
        .map(|_| {
            let mut guard = rand_atom(rng, 3);
            for _ in 0..rng.gen_index(2) {
                guard = guard.and(rand_atom(rng, 3));
            }
            (guard, rng.gen_index(3))
        })
        .collect();
    let default = rng.gen_index(3);
    ModThreshProgram::new(3, 3, clauses, default).expect("valid")
}

#[test]
fn random_protocols_compile_to_lockstep_tables_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0xC011_711E);
    for trial in 0..12u64 {
        let proto = MtProtocol {
            programs: [
                rand_program(&mut rng),
                rand_program(&mut rng),
                rand_program(&mut rng),
            ],
        };
        let auto = compile_protocol(&proto, 1 << 18).expect("small bounds");
        let g = generators::connected_gnp(18, 0.18, &mut Xoshiro256::seed_from_u64(trial * 97 + 5));
        let init = |v: u32| S3::from_index((v as usize * 7 + 1) % 3);
        let mut native = Network::new(&g, proto, init);
        let mut interp = InterpNetwork::new(&g, &auto, |v| init(v).index());
        for round in 0..12 {
            native.sync_step_seeded(round);
            interp.sync_step_seeded(round);
            let ids: Vec<usize> = native.states().iter().map(|s| s.index()).collect();
            assert_eq!(&ids, interp.states(), "trial {trial}, round {round}");
        }
    }
}
