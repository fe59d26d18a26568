//! Compiling a typed [`Protocol`] into a formal [`ProbFssga`].
//!
//! Because a protocol can only read its neighbours through
//! [`crate::NeighborView`], its transition function for a fixed own-state
//! and coin *is* a function of each state's count class — Lemma 3.9's
//! singletons below a tail `T_j` and residues modulo a period `M_j` — for
//! the largest threshold `T_j` and the lcm `M_j` of the moduli it ever
//! queries about state `j`. [`tabulate`] discovers those per-state bounds
//! with the query recorder and fills the transition table over the
//! resulting [`ClassSpace`] once. Two consumers read that one table:
//!
//! * [`compile_protocol`] turns it into a [`ModThreshProgram`] per
//!   (state, coin) — one clause per non-empty class, exactly the shape of
//!   Lemma 3.9's construction. The resulting programs are the *witness*
//!   that our algorithm implementations really are FSSGA automata
//!   (S0–S2): the `fssga-protocols` test suites compile each protocol and
//!   step the compiled tables and the native code side by side.
//! * [`crate::CompiledKernel`]'s tabular plan indexes it directly.

use std::cell::RefCell;

use fssga_core::modthresh::{ModThreshProgram, Prop};
use fssga_core::{ClassSpace, FsmProgram, ProbFssga, SmError};

use crate::protocol::{Protocol, StateSpace};
use crate::view::{NeighborView, QueryRecorder};

/// Compiles `protocol` to a probabilistic FSSGA. `clause_limit` bounds the
/// number of count classes, and so of clauses per (state, coin) program.
///
/// The program for own state `q` and coin `c` has one clause per
/// non-empty class of [`tabulate`]'s class space, guarded by the class's
/// Equation (4)/(5) proposition and returning the tabulated transition;
/// its last clause becomes the default.
pub fn compile_protocol<P: Protocol>(
    protocol: &P,
    clause_limit: u128,
) -> Result<ProbFssga, SmError> {
    let s = P::State::COUNT;
    let r = P::RANDOMNESS.max(1) as usize;
    let (space, table) = tabulate(protocol, clause_limit)?;
    let guards: Vec<(usize, Prop)> = (0..space.len())
        .filter(|&index| space.representative(index).is_some())
        .map(|index| (index, space.guard(index)))
        .collect();
    let programs = table
        .chunks(space.len())
        .enumerate()
        .map(|(k, row)| {
            let mut clauses: Vec<(Prop, usize)> = guards
                .iter()
                .map(|(index, guard)| (guard.clone(), row[*index] as usize))
                .collect();
            let default = clauses.pop().map_or(k / r, |(_, next)| next);
            Ok(FsmProgram::ModThresh(ModThreshProgram::new(
                s, s, clauses, default,
            )?))
        })
        .collect::<Result<Vec<_>, SmError>>()?;
    ProbFssga::new(s, r, programs)
}

/// Discovers `protocol`'s per-state count classes and tabulates its
/// transition over them.
///
/// Returns the class space and the table `t` with
/// `t[(own * R + coin) * space.len() + class] = new state index`, where
/// `R = max(1, RANDOMNESS)`. The class that holds only the empty
/// multiset maps every state to itself: no activating node has an empty
/// neighbourhood.
///
/// Discovery is a fixpoint. It starts every state at tail and period 1
/// (the [`QueryRecorder`] baseline), evaluates the transition on each
/// class representative for every `(own, coin)` with a recorder
/// attached, and merges what the recorder saw into the bounds until the
/// recorder is subsumed by them. At that point every query the
/// transition made is answered alike on a whole class, so the table is
/// exact. Each repeat grows `Π (T_j + M_j)`, which `limit` bounds:
/// a class space over `limit` fails with [`SmError::TooLarge`].
pub fn tabulate<P: Protocol>(protocol: &P, limit: u128) -> Result<(ClassSpace, Vec<u32>), SmError> {
    let s = P::State::COUNT;
    let r = P::RANDOMNESS.max(1) as usize;
    // Every state has at least two classes, so large alphabets fail
    // before the per-state vectors are allocated.
    if s >= 128 || (1u128 << s) > limit {
        let needed = if s >= 128 { u128::MAX } else { 1 << s };
        return Err(SmError::TooLarge { needed, limit });
    }
    let mut bounds = QueryRecorder::new(s);
    loop {
        let space = ClassSpace::new(bounds.thresholds.clone(), bounds.moduli.clone(), limit)?;
        let reps: Vec<Option<Vec<u32>>> = (0..space.len())
            .map(|index| {
                space
                    .representative(index)
                    .map(|counts| counts.iter().map(|&c| c as u32).collect())
            })
            .collect();
        let recorder = RefCell::new(QueryRecorder::new(s));
        let mut table = Vec::with_capacity(s * r * space.len());
        for own in 0..s {
            for coin in 0..r {
                table.extend(reps.iter().map(|rep| match rep {
                    None => own as u32,
                    Some(counts) => {
                        let view: NeighborView<'_, P::State> =
                            NeighborView::new(counts, Some(&recorder));
                        protocol
                            .transition(P::State::from_index(own), &view, coin as u32)
                            .index() as u32
                    }
                }));
            }
        }
        let seen = recorder.into_inner();
        if seen.subsumed_by(&bounds) {
            return Ok((space, table));
        }
        bounds.merge(&seen);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::impl_state_space;
    use crate::interp::InterpNetwork;
    use crate::network::Network;
    use fssga_core::multiset::Multiset;
    use fssga_graph::generators;
    use fssga_graph::rng::Xoshiro256;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    pub(crate) enum Tri {
        A,
        B,
        C,
    }
    impl_state_space!(Tri { A, B, C });

    /// Uses a threshold of 3 on B and parity of C. Compiled, so the
    /// kernel's tests also run it on the tabular plan.
    pub(crate) struct Mixed;
    impl Protocol for Mixed {
        type State = Tri;
        const COMPILED: bool = true;
        fn transition(&self, own: Tri, nbrs: &NeighborView<'_, Tri>, _c: u32) -> Tri {
            if nbrs.at_least(Tri::B, 3) {
                Tri::C
            } else if nbrs.congruent(Tri::C, 1, 2) {
                Tri::B
            } else {
                own
            }
        }
    }

    #[test]
    fn compiled_tables_match_native_on_all_small_multisets() {
        let auto = compile_protocol(&Mixed, 1 << 20).unwrap();
        assert_eq!(auto.num_states(), 3);
        assert_eq!(auto.randomness(), 1);
        for own in 0..3 {
            for ms in Multiset::enumerate_up_to(3, 6) {
                let counts: Vec<u32> = ms.counts().iter().map(|&c| c as u32).collect();
                let view: NeighborView<'_, Tri> = NeighborView::over(&counts);
                let native = Mixed.transition(Tri::from_index(own), &view, 0).index();
                let compiled = auto.transition(own, 0, &ms);
                assert_eq!(native, compiled, "own={own}, ms={:?}", ms.counts());
            }
        }
    }

    #[test]
    fn compiled_network_steps_identically() {
        let auto = compile_protocol(&Mixed, 1 << 20).unwrap();
        let g = generators::connected_gnp(40, 0.1, &mut Xoshiro256::seed_from_u64(5));
        let init = |v: u32| Tri::from_index((v as usize) % 3);
        let mut native = Network::new(&g, Mixed, init);
        let mut interp = InterpNetwork::new(&g, &auto, |v| (v as usize) % 3);
        for round in 0..20 {
            native.sync_step_seeded(round);
            interp.sync_step_seeded(round);
            let native_ids: Vec<usize> = native.states().iter().map(|s| s.index()).collect();
            assert_eq!(native_ids, interp.states(), "round {round}");
        }
    }

    /// Probabilistic protocol: coin chooses between two behaviours.
    struct Flip;
    impl Protocol for Flip {
        type State = Tri;
        const RANDOMNESS: u32 = 2;
        fn transition(&self, own: Tri, nbrs: &NeighborView<'_, Tri>, coin: u32) -> Tri {
            match coin {
                0 if nbrs.some(Tri::A) => Tri::A,
                1 if nbrs.some(Tri::C) => Tri::C,
                _ => own,
            }
        }
    }

    #[test]
    fn probabilistic_compile_and_lockstep() {
        let auto = compile_protocol(&Flip, 1 << 20).unwrap();
        assert_eq!(auto.randomness(), 2);
        let g = generators::grid(6, 6);
        let init_t = |v: u32| Tri::from_index((v as usize * 5 + 1) % 3);
        let mut native = Network::new(&g, Flip, init_t);
        let mut interp = InterpNetwork::new(&g, &auto, |v| (v as usize * 5 + 1) % 3);
        for round in 0..30 {
            native.sync_step_seeded(round * 31 + 7);
            interp.sync_step_seeded(round * 31 + 7);
            let native_ids: Vec<usize> = native.states().iter().map(|s| s.index()).collect();
            assert_eq!(native_ids, interp.states(), "round {round}");
        }
    }

    /// Discovery is per state: `Mixed` has tail 3 on `B` and period 2 on
    /// `C`, so 2 × 4 × 3 = 24 classes, one of them empty; `Flip` has
    /// 2 × 2 × 2. Each program keeps one clause per non-empty class, the
    /// last one as its default.
    #[test]
    fn clause_counts_are_pinned() {
        let (space, _) = tabulate(&Mixed, 1 << 20).unwrap();
        assert_eq!(
            (space.tails(), space.periods()),
            (&[1, 3, 1][..], &[1, 1, 2][..])
        );
        let clauses = |auto: &ProbFssga| -> Vec<usize> {
            (0..auto.num_states())
                .flat_map(|q| (0..auto.randomness()).map(move |c| (q, c)))
                .map(|(q, c)| match auto.program(q, c) {
                    FsmProgram::ModThresh(m) => m.num_clauses(),
                    other => panic!("not a mod-thresh program: {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            clauses(&compile_protocol(&Mixed, 1 << 20).unwrap()),
            [23; 3]
        );
        assert_eq!(clauses(&compile_protocol(&Flip, 1 << 20).unwrap()), [7; 6]);
    }

    #[test]
    fn clause_limit_respected() {
        struct Wide;
        impl Protocol for Wide {
            type State = Tri;
            fn transition(&self, own: Tri, nbrs: &NeighborView<'_, Tri>, _c: u32) -> Tri {
                // Thresholds of 50 on every state: 51^3 clause classes.
                if nbrs.at_least(Tri::A, 50)
                    && nbrs.at_least(Tri::B, 50)
                    && nbrs.at_least(Tri::C, 50)
                {
                    Tri::A
                } else {
                    own
                }
            }
        }
        assert!(matches!(
            compile_protocol(&Wide, 100),
            Err(SmError::TooLarge { .. })
        ));
        assert!(compile_protocol(&Wide, 1 << 20).is_ok());
    }
}
