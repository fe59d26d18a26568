//! Deciding whether a program truly needs mod atoms (paper §5.2).
//!
//! The paper closes with: "We have not yet found any practical use for
//! mod atoms. Perhaps they can be cleverly applied to one of these
//! problems, or else removed to yield a simpler model." This module makes
//! the question *decidable* for any given SM function: a threshold-only
//! program exists iff the function is eventually constant in every
//! multiplicity — i.e., on the periodic part of each state's count
//! classes (Lemma 3.9), the output must not depend on the residue.
//!
//! Soundness and completeness: a threshold-only program reads `μ_j` only
//! through `min(μ_j, T)`, so its value is eventually constant in `μ_j`;
//! conversely, if the value is eventually constant in every `μ_j`
//! (uniformly over the other counts, which the class product enumerates),
//! the decision list built from threshold classes alone computes it.

use crate::classes::{singleton, ClassSpace};
use crate::convert::orbit_classes;
use crate::modthresh::{ModThreshProgram, Prop};
use crate::multiset::Multiset;
use crate::seq::SeqProgram;
use crate::{Id, SmError};

/// A witness that a function genuinely depends on a residue: two
/// multisets equal in every coordinate except a `μ_j` shifted by the
/// period, with different outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModWitness {
    /// The state whose residue matters.
    pub state: Id,
    /// A multiset where the output differs from its period-shifted twin.
    pub multiset: Multiset,
    /// The twin (same classes except the `state` count moved one period).
    pub shifted: Multiset,
}

/// Decides whether `seq` has an equivalent *threshold-only* mod-thresh
/// program. Returns `Ok(None)` if it does (mod atoms removable),
/// `Ok(Some(witness))` if mod atoms are essential, and an error if the
/// program is not SM or the class product exceeds `limit`.
pub fn mod_atoms_essential(seq: &SeqProgram, limit: u128) -> Result<Option<ModWitness>, SmError> {
    seq.check_sm()?;
    let space = orbit_classes(seq, limit)?;
    let (tails, periods) = (space.tails(), space.periods());
    // Within each class, compare the output when one periodic state's
    // count moves to the next residue class (still >= its tail). The
    // class whose least member is the empty multiset is skipped: along a
    // state's residue cycle a non-constant output changes at two steps at
    // least, and only the step out of that class goes unchecked.
    for index in 0..space.len() {
        let counts = space.least(index);
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let base = Multiset::from_counts(counts.clone());
        let out = seq.eval_multiset(&base);
        for j in 0..counts.len() {
            if periods[j] <= 1 || counts[j] < tails[j] {
                continue; // not periodic in j in this class
            }
            let mut shifted = counts.clone();
            shifted[j] += 1;
            let tw = Multiset::from_counts(shifted);
            if seq.eval_multiset(&tw) != out {
                return Ok(Some(ModWitness {
                    state: j,
                    multiset: base,
                    shifted: tw,
                }));
            }
        }
    }
    Ok(None)
}

/// Builds the threshold-only program for a function whose mod atoms are
/// removable ([`mod_atoms_essential`] returned `None`): one clause per
/// threshold class combination — the [`ClassSpace`] with Lemma 3.9's
/// tails and period 1, guarded by thresh atoms alone.
pub fn to_threshold_only(seq: &SeqProgram, limit: u128) -> Result<ModThreshProgram, SmError> {
    if let Some(w) = mod_atoms_essential(seq, limit)? {
        return Err(SmError::NotSymmetric(format!(
            "mod atoms are essential: outputs differ on {:?} vs {:?} (state {})",
            w.multiset.counts(),
            w.shifted.counts(),
            w.state
        )));
    }
    let s = seq.num_inputs();
    let tails: Vec<u64> = (0..s).map(|j| seq.orbit_tail_period(j).0).collect();
    // Threshold classes only: {0}, {1}, ..., {t_j - 1}, {>= t_j}.
    let space = ClassSpace::new(tails, vec![1; s], limit)?;
    let mut clauses: Vec<(Prop, Id)> = (0..space.len())
        .filter_map(|index| {
            let counts = space.representative(index)?;
            let mut guard = Prop::True;
            for (j, c) in space.class_vector(index).into_iter().enumerate() {
                let t = space.tails()[j];
                if c < t {
                    guard = guard.and(singleton(j, c));
                } else if t > 0 {
                    guard = guard.and(Prop::below(j, t).not());
                }
            }
            Some((guard, seq.eval_multiset(&Multiset::from_counts(counts))))
        })
        .collect();
    let default = clauses
        .pop()
        .map_or_else(|| seq.output(seq.w0()), |(_, r)| r);
    ModThreshProgram::new(s, seq.num_outputs(), clauses, default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::first_disagreement;
    use crate::library;

    #[test]
    fn or_and_max_threshold_are_mod_free() {
        for seq in [
            library::or_seq(),
            library::and_seq(),
            library::max_state_seq(4),
            library::count_at_least_seq(2, 1, 3),
            library::all_equal_seq(3),
        ] {
            assert_eq!(mod_atoms_essential(&seq, 1 << 20).unwrap(), None);
        }
    }

    #[test]
    fn parity_needs_mod_atoms() {
        let w = mod_atoms_essential(&library::parity_seq(), 1 << 20)
            .unwrap()
            .expect("parity is the canonical mod function");
        assert_eq!(w.state, 1);
    }

    #[test]
    fn count_mod_k_needs_mod_atoms() {
        for k in [2usize, 3, 5] {
            assert!(
                mod_atoms_essential(&library::count_ones_mod_seq(k), 1 << 20)
                    .unwrap()
                    .is_some()
            );
        }
    }

    #[test]
    fn threshold_only_rewrite_is_equivalent() {
        for seq in [
            library::or_seq(),
            library::and_seq(),
            library::max_state_seq(3),
            library::count_at_least_seq(3, 2, 4),
            library::all_equal_seq(3),
        ] {
            let mt = to_threshold_only(&seq, 1 << 20).unwrap();
            // No mod atoms with modulus > 1 may appear.
            for (p, _) in mt.clauses() {
                p.visit_atoms(&mut |a| {
                    if let crate::modthresh::Atom::Mod { m, .. } = a {
                        assert!(*m <= 1, "threshold-only program contains a mod atom");
                    }
                });
            }
            assert!(
                first_disagreement(&seq, &mt, 10).is_none(),
                "rewrite changed the function"
            );
        }
    }

    #[test]
    fn rewrite_refuses_essential_mod_functions() {
        assert!(matches!(
            to_threshold_only(&library::parity_seq(), 1 << 20),
            Err(SmError::NotSymmetric(_))
        ));
    }

    #[test]
    fn witness_multisets_really_disagree() {
        let seq = library::count_ones_mod_seq(3);
        let w = mod_atoms_essential(&seq, 1 << 20).unwrap().unwrap();
        assert_ne!(
            seq.eval_multiset(&w.multiset),
            seq.eval_multiset(&w.shifted)
        );
    }
}
