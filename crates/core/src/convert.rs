//! The constructive conversions of Theorem 3.7.
//!
//! * [`par_to_seq`] — Lemma 3.5: conquer one input at a time.
//! * [`mt_to_par`] — Lemma 3.8: evaluate the multiplicity counters needed
//!   by a mod-thresh program in divide-and-conquer fashion, with working
//!   states `⊗_i (Z_{M_i} × {0..T_i-1, ∞})`.
//! * [`seq_to_mt`] — Lemma 3.9: exploit the eventual periodicity of the
//!   iterated processing map `g_j : w ↦ p(w, j)` to express the program as
//!   a decision list over per-state count classes.
//!
//! The compositions give the remaining three directions. The paper notes
//! that these constructions "can entail an exponential increase in program
//! complexity"; all builders therefore take (or default) a table-size
//! budget and return [`SmError::TooLarge`] rather than allocating
//! unboundedly. [`mt_to_par_cost`] and [`seq_to_mt_cost`] report the
//! would-be sizes analytically, which is what the blow-up experiment (E4)
//! plots.

use crate::classes::ClassSpace;
use crate::modthresh::{Atom, ModThreshProgram, Prop};
use crate::multiset::Multiset;
use crate::par::ParProgram;
use crate::seq::SeqProgram;
use crate::{Id, SmError};

/// Default table-entry budget for constructed programs (2^22 entries,
/// 16 MiB of `u32`s).
pub const DEFAULT_LIMIT: u128 = 1 << 22;

/// Lemma 3.5: every parallel SM program has an equivalent sequential
/// program with one extra working state `NIL`.
///
/// ```
/// use fssga_core::convert::{par_to_seq, seq_to_mt, mt_to_par, DEFAULT_LIMIT};
/// use fssga_core::library;
///
/// // The full Theorem 3.7 cycle, with equality decided (not sampled):
/// let seq = library::count_ones_mod_seq(3);
/// let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
/// let par = mt_to_par(&mt, DEFAULT_LIMIT).unwrap();
/// let back = par_to_seq(&par);
/// let verdict = fssga_core::equiv::decide_equiv_seq(&seq, &back, 1 << 22).unwrap();
/// assert!(verdict.is_none(), "extensionally identical");
/// ```
///
/// `W' = W ∪ {NIL}`, `w0 = NIL`, `p'(NIL, q) = α(q)`,
/// `p'(w, q) = p(α(q), w)`, and `β'` extends `β` arbitrarily on `NIL`
/// (inputs are nonempty, so `NIL` never reaches `β'`).
pub fn par_to_seq(par: &ParProgram) -> SeqProgram {
    let nw = par.num_working();
    let nil = nw; // index of the NIL state
    SeqProgram::from_fn(
        par.num_inputs(),
        nw + 1,
        par.num_outputs(),
        nil,
        |w, q| {
            if w == nil {
                par.lift(q)
            } else {
                par.combine(par.lift(q), w)
            }
        },
        |w| if w == nil { 0 } else { par.output(w) },
    )
    .expect("construction preserves well-formedness")
}

/// The number of working states Lemma 3.8 would build for `mt`
/// (`∏_i M_i · (T_i + 1)`), without materializing anything.
pub fn mt_to_par_cost(mt: &ModThreshProgram) -> u128 {
    let moduli = mt.moduli();
    let thresholds = mt.thresholds();
    moduli
        .iter()
        .zip(&thresholds)
        .map(|(&m, &t)| m as u128 * (t as u128 + 1))
        .product()
}

/// Lemma 3.8: every mod-thresh program has an equivalent parallel program.
///
/// The working state is, per input state `i`, a pair of finite counters:
/// a mod-`M_i` counter and a saturating counter in `{0..T_i-1, ∞}`
/// (represented as `0..=T_i` with `T_i` standing for "`>= T_i`"), where
/// `M_i` is the lcm of all moduli and `T_i` the max of all thresholds that
/// the program mentions for `i`. `α` is the indicator, `p` adds counters
/// component-wise, and `β` evaluates the decision list on the counters.
///
/// Fails with [`SmError::TooLarge`] if `|W|^2 + |W|` table entries exceed
/// `limit` (the `p` table is `|W| × |W|`).
pub fn mt_to_par(mt: &ModThreshProgram, limit: u128) -> Result<ParProgram, SmError> {
    let s = mt.num_inputs();
    let moduli = mt.moduli();
    let thresholds = mt.thresholds();
    // Per-state digit radix and stride for mixed-radix encoding.
    let radix: Vec<u64> = moduli
        .iter()
        .zip(&thresholds)
        .map(|(&m, &t)| m * (t + 1))
        .collect();
    let num_working = mt_to_par_cost(mt);
    let needed = num_working * num_working + num_working;
    if needed > limit {
        return Err(SmError::TooLarge { needed, limit });
    }
    let num_working = num_working as usize;
    let mut stride = vec![1u64; s];
    for i in 1..s {
        stride[i] = stride[i - 1] * radix[i - 1];
    }

    // Decode working state -> per-state (a_i, b_i) counters.
    let decode = |w: usize| -> Vec<(u64, u64)> {
        let mut w = w as u64;
        (0..s)
            .map(|i| {
                let digit = w % radix[i];
                w /= radix[i];
                (digit / (thresholds[i] + 1), digit % (thresholds[i] + 1))
            })
            .collect()
    };
    let encode = |counters: &[(u64, u64)]| -> usize {
        counters
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (a * (thresholds[i] + 1) + b) * stride[i])
            .sum::<u64>() as usize
    };

    // alpha: the Dirac indicator (δ_q^i, δ_q^i).
    let alpha: Vec<u32> = (0..s)
        .map(|q| {
            let counters: Vec<(u64, u64)> = (0..s)
                .map(|i| {
                    if i == q {
                        (1 % moduli[i], 1.min(thresholds[i]))
                    } else {
                        (0, 0)
                    }
                })
                .collect();
            encode(&counters) as u32
        })
        .collect();

    // p: component-wise (mod, saturating) addition.
    let mut ptab = vec![0u32; num_working * num_working];
    let decoded: Vec<Vec<(u64, u64)>> = (0..num_working).map(decode).collect();
    for w1 in 0..num_working {
        for w2 in 0..num_working {
            let combined: Vec<(u64, u64)> = (0..s)
                .map(|i| {
                    let (a1, b1) = decoded[w1][i];
                    let (a2, b2) = decoded[w2][i];
                    ((a1 + a2) % moduli[i], (b1 + b2).min(thresholds[i]))
                })
                .collect();
            ptab[w1 * num_working + w2] = encode(&combined) as u32;
        }
    }

    // beta: evaluate the decision list, answering atoms from the counters.
    let beta: Vec<u32> = (0..num_working)
        .map(|w| {
            let counters = &decoded[w];
            eval_mt_on_counters(mt, counters, &moduli) as u32
        })
        .collect();

    ParProgram::new(s, num_working, mt.num_outputs(), alpha, ptab, beta)
}

/// Evaluates a mod-thresh decision list given per-state `(a_i, b_i)`
/// counters, where `a_i = μ_i mod M_i` and `b_i = min(μ_i, T_i)`.
fn eval_mt_on_counters(mt: &ModThreshProgram, counters: &[(u64, u64)], moduli: &[u64]) -> Id {
    fn eval_prop(p: &Prop, counters: &[(u64, u64)], moduli: &[u64]) -> bool {
        match p {
            Prop::True => true,
            Prop::False => false,
            Prop::Not(inner) => !eval_prop(inner, counters, moduli),
            Prop::And(ps) => ps.iter().all(|p| eval_prop(p, counters, moduli)),
            Prop::Or(ps) => ps.iter().any(|p| eval_prop(p, counters, moduli)),
            Prop::Atom(Atom::Mod { state, r, m }) => {
                debug_assert_eq!(moduli[*state] % m, 0, "M_i must be a multiple of m");
                counters[*state].0 % m == *r
            }
            Prop::Atom(Atom::Thresh { state, t }) => counters[*state].1 < *t,
        }
    }
    for (prop, r) in mt.clauses() {
        if eval_prop(prop, counters, moduli) {
            return r;
        }
    }
    mt.default_result()
}

/// The number of clauses Lemma 3.9 would build for `seq`
/// (`∏_j (t_j + m_j)`), without materializing anything.
pub fn seq_to_mt_cost(seq: &SeqProgram) -> u128 {
    (0..seq.num_inputs())
        .map(|j| {
            let (t, m) = seq.orbit_tail_period(j);
            t as u128 + m as u128
        })
        .product()
}

/// Lemma 3.9: every sequential SM program has an equivalent mod-thresh
/// program.
///
/// For each input state `j`, the orbit of `w0` under `g_j : w ↦ p(w, j)`
/// is eventually periodic with tail `t_j` and period `m_j`; the value of
/// the function depends on `μ_j` only through its `~_j`-class — one of the
/// singletons `{0}, ..., {t_j - 1}` or the residue classes
/// `{n >= t_j : n ≡ i (mod m_j)}`. The constructed decision list has one
/// clause per non-empty class of the product [`ClassSpace`]; each clause
/// is the class's guard (Equations (4) and (5) of the paper) and returns
/// the sequential program's value on the class representative.
///
/// Requires the program to actually be SM ([`SmError::NotSymmetric`]
/// otherwise — for a non-symmetric program the value on a representative
/// is meaningless), and respects the clause budget `limit`.
pub fn seq_to_mt(seq: &SeqProgram, limit: u128) -> Result<ModThreshProgram, SmError> {
    seq.check_sm()?;
    let space = orbit_classes(seq, limit)?;
    let mut clauses: Vec<(Prop, Id)> = (0..space.len())
        .filter_map(|index| {
            let counts = space.representative(index)?;
            let result = seq.eval_multiset(&Multiset::from_counts(counts));
            Some((space.guard(index), result))
        })
        .collect();
    // The last clause becomes the default. (With no clauses every input
    // state is absorbing and the function is the constant β(w0).)
    let default = clauses
        .pop()
        .map_or_else(|| seq.output(seq.w0()), |(_, r)| r);
    ModThreshProgram::new(seq.num_inputs(), seq.num_outputs(), clauses, default)
}

/// Lemma 3.9's class space for `seq`: state `j`'s tail and period are
/// those of the orbit of `w0` under `g_j`.
pub(crate) fn orbit_classes(seq: &SeqProgram, limit: u128) -> Result<ClassSpace, SmError> {
    let (tails, periods) = (0..seq.num_inputs())
        .map(|j| seq.orbit_tail_period(j))
        .unzip();
    ClassSpace::new(tails, periods, limit)
}

/// Sequential → parallel, via Lemma 3.9 then Lemma 3.8 (the composite
/// direction whose existence is the paper's headline surprise).
pub fn seq_to_par(seq: &SeqProgram, limit: u128) -> Result<ParProgram, SmError> {
    let mt = seq_to_mt(seq, limit)?;
    mt_to_par(&mt, limit)
}

/// Parallel → mod-thresh, via Lemma 3.5 then Lemma 3.9.
pub fn par_to_mt(par: &ParProgram, limit: u128) -> Result<ModThreshProgram, SmError> {
    seq_to_mt(&par_to_seq(par), limit)
}

/// Mod-thresh → sequential, via Lemma 3.8 then Lemma 3.5.
pub fn mt_to_seq(mt: &ModThreshProgram, limit: u128) -> Result<SeqProgram, SmError> {
    Ok(par_to_seq(&mt_to_par(mt, limit)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    fn check_agree_seq_mt(seq: &SeqProgram, mt: &ModThreshProgram, max_total: u64) {
        for ms in Multiset::enumerate_up_to(seq.num_inputs(), max_total) {
            assert_eq!(
                seq.eval_multiset(&ms),
                mt.eval_multiset(&ms),
                "disagree on {ms:?}"
            );
        }
    }

    fn check_agree_mt_par(mt: &ModThreshProgram, par: &ParProgram, max_total: u64) {
        for ms in Multiset::enumerate_up_to(mt.num_inputs(), max_total) {
            assert_eq!(
                mt.eval_multiset(&ms),
                par.eval_multiset(&ms),
                "disagree on {ms:?}"
            );
        }
    }

    #[test]
    fn lemma_3_5_or() {
        let par = library::or_par();
        let seq = par_to_seq(&par);
        assert!(seq.is_sm());
        for ms in Multiset::enumerate_up_to(2, 6) {
            assert_eq!(par.eval_multiset(&ms), seq.eval_multiset(&ms));
        }
    }

    #[test]
    fn lemma_3_5_preserves_order_sensitivity_shape() {
        // par_to_seq on sum mod 3.
        let par = library::sum_mod_par(3);
        let seq = par_to_seq(&par);
        assert!(seq.is_sm());
        assert_eq!(seq.num_working(), par.num_working() + 1);
        for ms in Multiset::enumerate_up_to(3, 5) {
            assert_eq!(par.eval_multiset(&ms), seq.eval_multiset(&ms));
        }
    }

    #[test]
    fn lemma_3_8_two_coloring() {
        let mt = library::two_coloring_blank_mt();
        let par = mt_to_par(&mt, DEFAULT_LIMIT).unwrap();
        check_agree_mt_par(&mt, &par, 5);
        // The construction is exactly commutative/associative, hence SM.
        assert!(par.check_sm_with_limit(1 << 30).is_ok());
    }

    #[test]
    fn lemma_3_8_with_mod_atoms() {
        // Parity of state-1 count, plus a threshold on state 0.
        let mt = ModThreshProgram::new(
            2,
            2,
            vec![
                (Prop::mod_count(1, 1, 2).and(Prop::at_least(0, 2)), 1),
                (Prop::mod_count(1, 0, 4), 0),
            ],
            1,
        )
        .unwrap();
        let par = mt_to_par(&mt, DEFAULT_LIMIT).unwrap();
        // M = [1, 4], T = [2, 1]: |W| = (1*3) * (4*2) = 24.
        assert_eq!(par.num_working(), 24);
        check_agree_mt_par(&mt, &par, 9);
    }

    #[test]
    fn lemma_3_8_size_guard() {
        let mt = ModThreshProgram::new(
            3,
            2,
            vec![(
                Prop::mod_count(0, 0, 97)
                    .and(Prop::below(1, 50))
                    .and(Prop::below(2, 50)),
                1,
            )],
            0,
        )
        .unwrap();
        assert!(mt_to_par_cost(&mt) > 100_000);
        assert!(matches!(
            mt_to_par(&mt, 1000),
            Err(SmError::TooLarge { .. })
        ));
    }

    #[test]
    fn lemma_3_9_or() {
        let seq = library::or_seq();
        let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
        check_agree_seq_mt(&seq, &mt, 7);
    }

    #[test]
    fn lemma_3_9_parity() {
        let seq = library::parity_seq();
        let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
        check_agree_seq_mt(&seq, &mt, 8);
        // Parity genuinely needs a mod atom: find one.
        let mut has_mod = false;
        for (p, _) in mt.clauses() {
            p.visit_atoms(&mut |a| {
                if matches!(a, Atom::Mod { m, .. } if *m > 1) {
                    has_mod = true;
                }
            });
        }
        assert!(has_mod, "parity's mod-thresh program must use mod atoms");
    }

    #[test]
    fn lemma_3_9_max_state() {
        let seq = library::max_state_seq(4);
        let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
        check_agree_seq_mt(&seq, &mt, 5);
    }

    #[test]
    fn lemma_3_9_threshold() {
        let seq = library::count_at_least_seq(3, 1, 4);
        let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
        check_agree_seq_mt(&seq, &mt, 10);
    }

    #[test]
    fn lemma_3_9_rejects_non_sm() {
        let seq =
            SeqProgram::from_fn(2, 3, 2, 2, |_, q| q, |w| if w == 2 { 0 } else { w }).unwrap();
        assert!(matches!(
            seq_to_mt(&seq, DEFAULT_LIMIT),
            Err(SmError::NotSymmetric(_))
        ));
    }

    #[test]
    fn lemma_3_9_clause_guard() {
        let seq = library::count_ones_mod_seq(30);
        // t=0, m=30 for input 1; input 0 has (t,m) = (0,1): 30 combos.
        assert_eq!(seq_to_mt_cost(&seq), 30);
        assert!(matches!(seq_to_mt(&seq, 10), Err(SmError::TooLarge { .. })));
    }

    /// Lemma 3.9's output sizes for the programs of experiment E4a
    /// (`experiments_output.txt`): clauses counting the default, and atoms.
    #[test]
    fn lemma_3_9_sizes_are_pinned() {
        let cases = [
            ("OR", library::or_seq(), 2, 2),
            ("AND", library::and_seq(), 2, 2),
            ("parity", library::parity_seq(), 2, 2),
            ("count-ones mod 3", library::count_ones_mod_seq(3), 3, 4),
            ("count-ones mod 5", library::count_ones_mod_seq(5), 5, 8),
            ("max of 3 states", library::max_state_seq(3), 4, 11),
            ("min of 3 states", library::min_state_seq(3), 4, 11),
            ("threshold >=3", library::count_at_least_seq(2, 1, 3), 4, 8),
            ("all-equal (3)", library::all_equal_seq(3), 7, 27),
        ];
        for (name, seq, clauses, atoms) in cases {
            let mt = seq_to_mt(&seq, DEFAULT_LIMIT).unwrap();
            assert_eq!(
                (mt.num_clauses(), mt.atom_count()),
                (clauses, atoms),
                "{name}"
            );
        }
    }

    #[test]
    fn full_cycle_seq_to_par_to_seq() {
        let seq = library::count_ones_mod_seq(3);
        let par = seq_to_par(&seq, DEFAULT_LIMIT).unwrap();
        let back = par_to_seq(&par);
        for ms in Multiset::enumerate_up_to(2, 9) {
            let expect = seq.eval_multiset(&ms);
            assert_eq!(par.eval_multiset(&ms), expect);
            assert_eq!(back.eval_multiset(&ms), expect);
        }
    }

    #[test]
    fn full_cycle_mt_round_trip() {
        let mt = library::two_coloring_blank_mt();
        let seq = mt_to_seq(&mt, DEFAULT_LIMIT).unwrap();
        assert!(seq.is_sm());
        let mt2 = seq_to_mt(&seq, 1 << 26).unwrap();
        for ms in Multiset::enumerate_up_to(4, 4) {
            assert_eq!(mt.eval_multiset(&ms), mt2.eval_multiset(&ms));
        }
    }

    #[test]
    fn par_to_mt_composite() {
        let par = library::sum_mod_par(2);
        let mt = par_to_mt(&par, DEFAULT_LIMIT).unwrap();
        for ms in Multiset::enumerate_up_to(2, 8) {
            assert_eq!(par.eval_multiset(&ms), mt.eval_multiset(&ms));
        }
    }

    #[test]
    fn blowup_is_observable() {
        // The paper: conversions "can entail an exponential increase".
        // count_ones_mod(m) has 2-state inputs and m working states; its
        // mod-thresh program has ~m clauses, and converting THAT back to
        // parallel yields m*(1+1) * 1*(1+1)-ish working states — observe
        // super-constant growth across m.
        let costs: Vec<u128> = [2u64, 4, 8, 16]
            .iter()
            .map(|&m| seq_to_mt_cost(&library::count_ones_mod_seq(m as usize)))
            .collect();
        assert!(costs.windows(2).all(|w| w[1] >= w[0] * 2));
    }
}
