//! Mod-thresh programs (Definition 3.6) — the "programming language"
//! presentation of SM functions.
//!
//! A *mod atom* is `μ_i(q⃗) ≡ r (mod m)`; a *thresh atom* is
//! `μ_i(q⃗) < t`. Propositions close the atoms under finite conjunction,
//! disjunction and negation, and a program is a decision list
//! `(P_1, ..., P_{c-1}; r_1, ..., r_c)`: return `r_j` for the first true
//! `P_j`, else the default `r_c`. Such a function is automatically
//! symmetric, since it reads the input only through the multiplicities
//! `μ_i`.

use crate::classes::ClassSpace;
use crate::multiset::Multiset;
use crate::{Id, SmError};

/// An atomic proposition over the multiplicity vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Atom {
    /// `μ_state ≡ r (mod m)`, with `0 <= r < m`.
    Mod {
        /// The state whose multiplicity is tested.
        state: Id,
        /// The required residue.
        r: u64,
        /// The modulus (`>= 1`).
        m: u64,
    },
    /// `μ_state < t`, with `t >= 1`.
    Thresh {
        /// The state whose multiplicity is tested.
        state: Id,
        /// The strict upper bound.
        t: u64,
    },
}

impl Atom {
    /// Evaluates the atom against a multiplicity vector.
    pub fn eval(&self, counts: &[u64]) -> bool {
        match *self {
            Atom::Mod { state, r, m } => counts[state] % m == r,
            Atom::Thresh { state, t } => counts[state] < t,
        }
    }

    /// Validates ranges against an alphabet size.
    fn validate(&self, num_inputs: usize) -> Result<(), SmError> {
        match *self {
            Atom::Mod { state, r, m } => {
                if state >= num_inputs {
                    return Err(SmError::Malformed(format!(
                        "atom state {state} out of range"
                    )));
                }
                if m == 0 || r >= m {
                    return Err(SmError::Malformed(format!(
                        "mod atom needs 0 <= r < m, got r={r}, m={m}"
                    )));
                }
            }
            Atom::Thresh { state, t } => {
                if state >= num_inputs {
                    return Err(SmError::Malformed(format!(
                        "atom state {state} out of range"
                    )));
                }
                if t == 0 {
                    return Err(SmError::Malformed("thresh atom needs t >= 1".into()));
                }
            }
        }
        Ok(())
    }
}

/// A boolean combination of atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prop {
    /// Constant truth — identity for conjunction, handy in builders.
    True,
    /// Constant falsity.
    False,
    /// An atom.
    Atom(Atom),
    /// Logical negation.
    Not(Box<Prop>),
    /// Finite conjunction (empty = true).
    And(Vec<Prop>),
    /// Finite disjunction (empty = false).
    Or(Vec<Prop>),
}

impl Prop {
    /// The mod atom `μ_state ≡ r (mod m)`.
    pub fn mod_count(state: Id, r: u64, m: u64) -> Prop {
        Prop::Atom(Atom::Mod { state, r, m })
    }

    /// The thresh atom `μ_state < t`.
    pub fn below(state: Id, t: u64) -> Prop {
        Prop::Atom(Atom::Thresh { state, t })
    }

    /// `μ_state >= t`, i.e. `¬(μ_state < t)` — the paper's pseudocode
    /// constantly uses this shape ("some neighbour has state i" is
    /// `¬(μ_i < 1)`).
    pub fn at_least(state: Id, t: u64) -> Prop {
        Prop::Not(Box::new(Prop::below(state, t)))
    }

    /// "Some input is in `state`": `μ_state >= 1`.
    pub fn some(state: Id) -> Prop {
        Prop::at_least(state, 1)
    }

    /// "No input is in `state`": `μ_state < 1`.
    pub fn none(state: Id) -> Prop {
        Prop::below(state, 1)
    }

    /// "Exactly one input is in `state`": `μ >= 1 ∧ μ < 2`.
    pub fn exactly_one(state: Id) -> Prop {
        Prop::at_least(state, 1).and(Prop::below(state, 2))
    }

    /// Conjunction combinator.
    pub fn and(self, other: Prop) -> Prop {
        match (self, other) {
            (Prop::And(mut a), Prop::And(b)) => {
                a.extend(b);
                Prop::And(a)
            }
            (Prop::And(mut a), b) => {
                a.push(b);
                Prop::And(a)
            }
            (a, Prop::And(mut b)) => {
                b.insert(0, a);
                Prop::And(b)
            }
            (a, b) => Prop::And(vec![a, b]),
        }
    }

    /// Disjunction combinator.
    pub fn or(self, other: Prop) -> Prop {
        match (self, other) {
            (Prop::Or(mut a), Prop::Or(b)) => {
                a.extend(b);
                Prop::Or(a)
            }
            (Prop::Or(mut a), b) => {
                a.push(b);
                Prop::Or(a)
            }
            (a, Prop::Or(mut b)) => {
                b.insert(0, a);
                Prop::Or(b)
            }
            (a, b) => Prop::Or(vec![a, b]),
        }
    }

    /// Negation combinator.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Prop {
        Prop::Not(Box::new(self))
    }

    /// Evaluates against a multiplicity vector.
    pub fn eval(&self, counts: &[u64]) -> bool {
        match self {
            Prop::True => true,
            Prop::False => false,
            Prop::Atom(a) => a.eval(counts),
            Prop::Not(p) => !p.eval(counts),
            Prop::And(ps) => ps.iter().all(|p| p.eval(counts)),
            Prop::Or(ps) => ps.iter().any(|p| p.eval(counts)),
        }
    }

    /// Validates every atom in the proposition.
    fn validate(&self, num_inputs: usize) -> Result<(), SmError> {
        match self {
            Prop::True | Prop::False => Ok(()),
            Prop::Atom(a) => a.validate(num_inputs),
            Prop::Not(p) => p.validate(num_inputs),
            Prop::And(ps) | Prop::Or(ps) => ps.iter().try_for_each(|p| p.validate(num_inputs)),
        }
    }

    /// Visits every atom.
    pub fn visit_atoms<'a>(&'a self, f: &mut impl FnMut(&'a Atom)) {
        match self {
            Prop::True | Prop::False => {}
            Prop::Atom(a) => f(a),
            Prop::Not(p) => p.visit_atoms(f),
            Prop::And(ps) | Prop::Or(ps) => ps.iter().for_each(|p| p.visit_atoms(f)),
        }
    }

    /// Number of atoms (a crude size measure for the blow-up experiments).
    pub fn atom_count(&self) -> usize {
        let mut n = 0;
        self.visit_atoms(&mut |_| n += 1);
        n
    }

    /// Constant-folds the proposition: drops `true` conjuncts and `false`
    /// disjuncts, collapses trivial atoms (`μ ≡ 0 (mod 1)` is always
    /// true), simplifies double negation, and flattens singleton
    /// connectives. Purely syntactic — the function is unchanged.
    pub fn normalized(&self) -> Prop {
        match self {
            Prop::True => Prop::True,
            Prop::False => Prop::False,
            Prop::Atom(Atom::Mod { m: 1, .. }) => Prop::True,
            Prop::Atom(a) => Prop::Atom(a.clone()),
            Prop::Not(p) => match p.normalized() {
                Prop::True => Prop::False,
                Prop::False => Prop::True,
                Prop::Not(inner) => *inner,
                q => Prop::Not(Box::new(q)),
            },
            Prop::And(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    match p.normalized() {
                        Prop::True => {}
                        Prop::False => return Prop::False,
                        Prop::And(inner) => out.extend(inner),
                        q => out.push(q),
                    }
                }
                match out.len() {
                    0 => Prop::True,
                    1 => out.pop().unwrap(),
                    _ => Prop::And(out),
                }
            }
            Prop::Or(ps) => {
                let mut out = Vec::new();
                for p in ps {
                    match p.normalized() {
                        Prop::False => {}
                        Prop::True => return Prop::True,
                        Prop::Or(inner) => out.extend(inner),
                        q => out.push(q),
                    }
                }
                match out.len() {
                    0 => Prop::False,
                    1 => out.pop().unwrap(),
                    _ => Prop::Or(out),
                }
            }
        }
    }
}

/// A mod-thresh program `(P_1, ..., P_{c-1}; r_1, ..., r_c)`
/// (Definition 3.6): a decision list with a default result.
///
/// ```
/// use fssga_core::{ModThreshProgram, Multiset, Prop};
///
/// // "FAILED if both colours adjacent" — a clause from the paper's §4.1.
/// let p = ModThreshProgram::new(
///     4, 4,
///     vec![(Prop::some(1).and(Prop::some(2)), 3)],
///     0,
/// ).unwrap();
/// assert_eq!(p.eval_multiset(&Multiset::from_seq(4, &[1, 2, 0])), 3);
/// assert_eq!(p.eval_multiset(&Multiset::from_seq(4, &[1, 1, 0])), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModThreshProgram {
    num_inputs: usize,
    num_outputs: usize,
    clauses: Vec<(Prop, u32)>,
    default: u32,
}

impl ModThreshProgram {
    /// Builds a program, validating atoms and result ranges.
    pub fn new(
        num_inputs: usize,
        num_outputs: usize,
        clauses: Vec<(Prop, Id)>,
        default: Id,
    ) -> Result<Self, SmError> {
        if num_inputs == 0 || num_outputs == 0 {
            return Err(SmError::Malformed("empty alphabet not allowed".into()));
        }
        if default >= num_outputs {
            return Err(SmError::Malformed(format!(
                "default result {default} out of range"
            )));
        }
        let mut checked = Vec::with_capacity(clauses.len());
        for (prop, r) in clauses {
            prop.validate(num_inputs)?;
            if r >= num_outputs {
                return Err(SmError::Malformed(format!(
                    "clause result {r} out of range"
                )));
            }
            checked.push((prop, r as u32));
        }
        Ok(Self {
            num_inputs,
            num_outputs,
            clauses: checked,
            default: default as u32,
        })
    }

    /// `|Q|`.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// `|R|`.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of clauses `c` (the decision list length, counting the
    /// default).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() + 1
    }

    /// The guarded clauses `(P_j, r_j)`.
    pub fn clauses(&self) -> impl Iterator<Item = (&Prop, Id)> {
        self.clauses.iter().map(|(p, r)| (p, *r as Id))
    }

    /// The default result `r_c`.
    pub fn default_result(&self) -> Id {
        self.default as usize
    }

    /// Evaluates the decision list on a multiplicity vector.
    pub fn eval_counts(&self, counts: &[u64]) -> Id {
        debug_assert_eq!(counts.len(), self.num_inputs);
        for (prop, r) in &self.clauses {
            if prop.eval(counts) {
                return *r as Id;
            }
        }
        self.default as Id
    }

    /// Evaluates on a multiset (rejects the empty multiset, per `Q^+`).
    pub fn eval_multiset(&self, ms: &Multiset) -> Id {
        assert!(!ms.is_empty(), "SM functions take at least one input");
        assert_eq!(ms.alphabet(), self.num_inputs, "alphabet mismatch");
        self.eval_counts(ms.counts())
    }

    /// `M_i` of Lemma 3.8: the lcm of all moduli mentioned for state `i`
    /// (at least 1).
    pub fn moduli(&self) -> Vec<u64> {
        let mut m = vec![1u64; self.num_inputs];
        for (prop, _) in &self.clauses {
            prop.visit_atoms(&mut |a| {
                if let Atom::Mod {
                    state, m: modulus, ..
                } = *a
                {
                    m[state] = lcm(m[state], modulus);
                }
            });
        }
        m
    }

    /// `T_i` of Lemma 3.8: the max of all thresholds mentioned for state
    /// `i` (at least 1).
    pub fn thresholds(&self) -> Vec<u64> {
        let mut t = vec![1u64; self.num_inputs];
        for (prop, _) in &self.clauses {
            prop.visit_atoms(&mut |a| {
                if let Atom::Thresh { state, t: thresh } = *a {
                    t[state] = t[state].max(thresh);
                }
            });
        }
        t
    }

    /// Total atom count across all clauses (size measure).
    pub fn atom_count(&self) -> usize {
        self.clauses.iter().map(|(p, _)| p.atom_count()).sum()
    }
}

/// Least common multiple (used for `M_i`).
pub fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Greatest common divisor.
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Section 4.1 two-colouring transition for a BLANK node:
    /// states 0=BLANK, 1=RED, 2=BLUE, 3=FAILED.
    fn two_coloring_blank() -> ModThreshProgram {
        ModThreshProgram::new(
            4,
            4,
            vec![
                (Prop::some(3), 3),                    // a FAILED neighbour
                (Prop::some(1).and(Prop::some(2)), 3), // both colours adjacent
                (Prop::some(1), 2),                    // red neighbour -> become blue
                (Prop::some(2), 1),                    // blue neighbour -> become red
            ],
            0, // stay blank
        )
        .unwrap()
    }

    #[test]
    fn atoms_evaluate() {
        let counts = [3u64, 0, 7];
        assert!(Atom::Mod {
            state: 0,
            r: 1,
            m: 2
        }
        .eval(&counts));
        assert!(Atom::Mod {
            state: 2,
            r: 0,
            m: 7
        }
        .eval(&counts));
        assert!(!Atom::Mod {
            state: 2,
            r: 1,
            m: 7
        }
        .eval(&counts));
        assert!(Atom::Thresh { state: 1, t: 1 }.eval(&counts));
        assert!(!Atom::Thresh { state: 0, t: 3 }.eval(&counts));
    }

    #[test]
    fn prop_builders_evaluate() {
        let counts = [2u64, 5];
        assert!(Prop::some(0).eval(&counts));
        assert!(Prop::none(1).not().eval(&counts));
        assert!(Prop::at_least(1, 5).eval(&counts));
        assert!(!Prop::at_least(1, 6).eval(&counts));
        assert!(Prop::exactly_one(0).eval(&[1, 0]));
        assert!(!Prop::exactly_one(0).eval(&[2, 0]));
        assert!(Prop::True.eval(&counts));
        assert!(!Prop::False.eval(&counts));
        assert!(Prop::some(0).and(Prop::some(1)).eval(&counts));
        assert!(Prop::none(0).or(Prop::some(1)).eval(&counts));
    }

    #[test]
    fn and_or_flattening() {
        let p = Prop::some(0).and(Prop::some(1)).and(Prop::some(2));
        if let Prop::And(ps) = &p {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened And");
        }
        let q = Prop::some(0).or(Prop::some(1)).or(Prop::some(2));
        if let Prop::Or(ps) = &q {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened Or");
        }
    }

    #[test]
    fn two_coloring_clauses() {
        let p = two_coloring_blank();
        // FAILED neighbour dominates.
        assert_eq!(p.eval_counts(&[0, 1, 1, 1]), 3);
        // Both colours without FAILED: conflict.
        assert_eq!(p.eval_counts(&[5, 2, 1, 0]), 3);
        // Only red neighbours: become blue.
        assert_eq!(p.eval_counts(&[1, 2, 0, 0]), 2);
        // Only blue: become red.
        assert_eq!(p.eval_counts(&[1, 0, 1, 0]), 1);
        // All blank: stay blank (default).
        assert_eq!(p.eval_counts(&[4, 0, 0, 0]), 0);
    }

    #[test]
    fn eval_multiset_rejects_empty() {
        let p = two_coloring_blank();
        let ms = Multiset::empty(4);
        let r = std::panic::catch_unwind(|| p.eval_multiset(&ms));
        assert!(r.is_err());
    }

    #[test]
    fn moduli_and_thresholds_extraction() {
        let p = ModThreshProgram::new(
            2,
            2,
            vec![
                (Prop::mod_count(0, 1, 4).and(Prop::mod_count(0, 0, 6)), 1),
                (Prop::below(1, 7).or(Prop::below(1, 3)), 0),
            ],
            0,
        )
        .unwrap();
        assert_eq!(p.moduli(), vec![12, 1]);
        assert_eq!(p.thresholds(), vec![1, 7]);
        assert_eq!(p.atom_count(), 4);
    }

    #[test]
    fn validation_rejects_bad_atoms() {
        assert!(ModThreshProgram::new(2, 2, vec![(Prop::mod_count(0, 3, 3), 0)], 0).is_err());
        assert!(ModThreshProgram::new(2, 2, vec![(Prop::mod_count(0, 0, 0), 0)], 0).is_err());
        assert!(ModThreshProgram::new(2, 2, vec![(Prop::below(0, 0), 0)], 0).is_err());
        assert!(ModThreshProgram::new(2, 2, vec![(Prop::some(5), 0)], 0).is_err());
        assert!(ModThreshProgram::new(2, 2, vec![(Prop::True, 9)], 0).is_err());
        assert!(ModThreshProgram::new(2, 2, vec![], 9).is_err());
    }

    #[test]
    fn decision_list_order_matters() {
        let p =
            ModThreshProgram::new(2, 3, vec![(Prop::some(0), 1), (Prop::some(1), 2)], 0).unwrap();
        // Both clauses true: the first wins.
        assert_eq!(p.eval_counts(&[1, 1]), 1);
        assert_eq!(p.eval_counts(&[0, 1]), 2);
        assert_eq!(p.num_clauses(), 3);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 1), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(1, 9), 9);
    }

    #[test]
    fn symmetry_is_automatic() {
        // A mod-thresh program depends only on counts: permuting a
        // sequence cannot change its multiset image. Spot-check by
        // evaluating sequences through Multiset::from_seq.
        let p = two_coloring_blank();
        let a = Multiset::from_seq(4, &[1, 0, 0, 2]);
        let b = Multiset::from_seq(4, &[0, 2, 1, 0]);
        assert_eq!(p.eval_multiset(&a), p.eval_multiset(&b));
    }
}

impl ModThreshProgram {
    /// The per-state count-class space this program can distinguish:
    /// each `μ_i` matters only through its class in the [`ClassSpace`]
    /// with tails `T_i` and periods `M_i`, so one representative per class
    /// covers every behaviourally distinct input. Returns the class
    /// representatives' count vectors (nonempty inputs only). Public so
    /// `fssga-analysis` can decide clause liveness exactly over the same
    /// class space.
    pub fn class_representatives(&self, limit: u128) -> Result<Vec<Vec<u64>>, SmError> {
        let space = ClassSpace::new(self.thresholds(), self.moduli(), limit)?;
        Ok((0..space.len())
            .filter_map(|index| space.representative(index))
            .collect())
    }

    /// Removes clauses that can never fire (their guard is false on every
    /// input, or every input satisfying it is captured by an earlier
    /// clause) and collapses a trailing clause whose result equals the
    /// default. The check is *exact*: clause liveness is evaluated over
    /// the complete finite class space, not sampled. Errors with
    /// [`SmError::TooLarge`] if the class space exceeds `limit`.
    pub fn simplified(&self, limit: u128) -> Result<ModThreshProgram, SmError> {
        let reps = self.class_representatives(limit)?;
        // For each representative, which clause fires?
        let mut live = vec![false; self.clauses.len()];
        for counts in &reps {
            for (i, (prop, _)) in self.clauses.iter().enumerate() {
                if prop.eval(counts) {
                    live[i] = true;
                    break;
                }
            }
        }
        let mut clauses: Vec<(Prop, Id)> = self
            .clauses
            .iter()
            .zip(&live)
            .filter(|&(_, &l)| l)
            .map(|((p, r), _)| (p.normalized(), *r as Id))
            .collect();
        // Trailing clauses whose result equals the default are redundant.
        while let Some(&(_, r)) = clauses.last() {
            if r == self.default as Id {
                clauses.pop();
            } else {
                break;
            }
        }
        ModThreshProgram::new(
            self.num_inputs,
            self.num_outputs,
            clauses,
            self.default as Id,
        )
    }
}

#[cfg(test)]
mod simplify_tests {
    use super::*;
    use crate::multiset::Multiset;

    fn agree(a: &ModThreshProgram, b: &ModThreshProgram, depth: u64) {
        for ms in Multiset::enumerate_up_to(a.num_inputs(), depth) {
            assert_eq!(a.eval_multiset(&ms), b.eval_multiset(&ms), "{ms:?}");
        }
    }

    #[test]
    fn dead_clauses_are_removed() {
        // Second clause is shadowed by the first (same guard), third is
        // unsatisfiable (μ_0 < 1 AND μ_0 >= 2).
        let p = ModThreshProgram::new(
            2,
            3,
            vec![
                (Prop::some(0), 1),
                (Prop::some(0), 2),
                (Prop::none(0).and(Prop::at_least(0, 2)), 2),
            ],
            0,
        )
        .unwrap();
        let q = p.simplified(1 << 16).unwrap();
        assert_eq!(q.num_clauses(), 2, "one live clause + default");
        agree(&p, &q, 6);
    }

    #[test]
    fn trailing_default_clauses_collapse() {
        let p =
            ModThreshProgram::new(2, 2, vec![(Prop::some(1), 1), (Prop::some(0), 0)], 0).unwrap();
        let q = p.simplified(1 << 16).unwrap();
        assert_eq!(q.num_clauses(), 2);
        agree(&p, &q, 6);
    }

    #[test]
    fn live_programs_are_untouched() {
        let p = crate::library::two_coloring_blank_mt();
        let q = p.simplified(1 << 16).unwrap();
        assert_eq!(q.num_clauses(), p.num_clauses());
        agree(&p, &q, 4);
    }

    #[test]
    fn conversion_output_shrinks() {
        // Lemma 3.9 output contains one clause per class combination;
        // for OR most are redundant next to the default.
        let seq = crate::library::or_seq();
        let mt = crate::convert::seq_to_mt(&seq, 1 << 20).unwrap();
        let slim = mt.simplified(1 << 16).unwrap();
        assert!(slim.num_clauses() <= mt.num_clauses());
        agree(&mt, &slim, 7);
    }

    #[test]
    fn normalization_folds_constants() {
        let p = Prop::True
            .and(Prop::mod_count(0, 0, 1))
            .and(Prop::some(1))
            .and(Prop::True);
        assert_eq!(p.normalized().to_string(), "!(mu_1 < 1)");
        assert_eq!(
            Prop::some(0).not().not().normalized(),
            Prop::some(0).normalized().not().not().normalized()
        );
        assert_eq!(
            Prop::False.or(Prop::below(0, 2)).normalized().to_string(),
            "mu_0 < 2"
        );
        assert_eq!(Prop::True.not().normalized(), Prop::False);
    }

    #[test]
    fn normalization_preserves_semantics() {
        let p = Prop::some(0)
            .and(Prop::mod_count(1, 0, 1))
            .or(Prop::False)
            .or(Prop::below(1, 3).not().not());
        let q = p.normalized();
        for a in 0..5u64 {
            for b in 0..5u64 {
                assert_eq!(p.eval(&[a, b]), q.eval(&[a, b]), "({a},{b})");
            }
        }
    }

    #[test]
    fn mod_atom_classes_respected() {
        // Parity program: the simplifier must keep the mod clause.
        let p = crate::library::parity_mt(2, 1);
        let q = p.simplified(1 << 16).unwrap();
        agree(&p, &q, 8);
        assert!(q.num_clauses() >= 2);
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Mod { state, r, m } => write!(f, "mu_{state} = {r} (mod {m})"),
            Atom::Thresh { state, t } => write!(f, "mu_{state} < {t}"),
        }
    }
}

impl std::fmt::Display for Prop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Prop::True => write!(f, "true"),
            Prop::False => write!(f, "false"),
            Prop::Atom(a) => write!(f, "{a}"),
            Prop::Not(p) => write!(f, "!({p})"),
            Prop::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" & "))
            }
            Prop::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" | "))
            }
        }
    }
}

impl std::fmt::Display for ModThreshProgram {
    /// Renders the decision list in the paper's procedural style
    /// (Definition 3.6).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "procedure f(q)")?;
        for (i, (prop, r)) in self.clauses.iter().enumerate() {
            let kw = if i == 0 { "if" } else { "else if" };
            writeln!(f, "  {kw} {prop} then return {r}")?;
        }
        writeln!(f, "  else return {}", self.default)?;
        write!(f, "end procedure")
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn atoms_render() {
        assert_eq!(
            Atom::Mod {
                state: 2,
                r: 1,
                m: 3
            }
            .to_string(),
            "mu_2 = 1 (mod 3)"
        );
        assert_eq!(Atom::Thresh { state: 0, t: 4 }.to_string(), "mu_0 < 4");
    }

    #[test]
    fn props_render() {
        let p = Prop::some(1).and(Prop::below(0, 2));
        assert_eq!(p.to_string(), "(!(mu_1 < 1)) & (mu_0 < 2)");
        assert_eq!(Prop::True.to_string(), "true");
    }

    #[test]
    fn program_renders_like_definition_3_6() {
        let p = ModThreshProgram::new(
            2,
            3,
            vec![(Prop::some(1), 2), (Prop::mod_count(0, 0, 2), 1)],
            0,
        )
        .unwrap();
        let s = p.to_string();
        assert!(s.starts_with("procedure f(q)"), "{s}");
        assert!(s.contains("if !(mu_1 < 1) then return 2"), "{s}");
        assert!(s.contains("else if mu_0 = 0 (mod 2) then return 1"), "{s}");
        assert!(s.contains("else return 0"), "{s}");
    }
}
