//! The formal heart of the reproduction: Section 3 of Pritchard & Vempala,
//! *Symmetric Network Computation* (SPAA 2006).
//!
//! A **symmetric multi-input (SM) function** (Definition 3.1) maps finite
//! nonempty multisets over a finite alphabet `Q` to a finite result set `R`.
//! The paper gives three machine models for computing SM functions with
//! finite working memory and proves them equivalent (Theorem 3.7):
//!
//! * [`seq::SeqProgram`] — a *sequential* automaton `(W, w0, p, β)` folding
//!   the inputs one at a time (Definition 3.2);
//! * [`par::ParProgram`] — a *parallel* automaton `(W, α, p, β)` reducing
//!   the inputs pairwise over an arbitrary binary tree (Definition 3.4);
//! * [`modthresh::ModThreshProgram`] — a decision list over *mod* atoms
//!   `μ_i(q⃗) ≡ r (mod m)` and *thresh* atoms `μ_i(q⃗) < t`
//!   (Definition 3.6).
//!
//! The three constructive inclusions are implemented in [`convert`]:
//! Lemma 3.5 (`par_to_seq`), Lemma 3.8 (`mt_to_par`) and Lemma 3.9
//! (`seq_to_mt`); composing them yields all six conversions. Lemma 3.9's
//! per-state count classes are [`classes::ClassSpace`], the one
//! enumeration every class-walking procedure shares.
//!
//! Beyond the paper's statements, this crate makes the definitions
//! *executable*: [`check`] contains sound-and-complete decision procedures
//! for the symmetry conditions of Definitions 3.2 and 3.4 (via coarsest-
//! congruence computation on the working-state automaton), and [`equiv`]
//! decides extensional equality of programs.
//!
//! Finally, [`fssga`] packages SM functions into the paper's distributed
//! model (Definitions 3.10 and 3.11): a **finite-state symmetric graph
//! automaton** assigns to each own-state `q` an SM function `f[q]` applied
//! to the multiset of neighbour states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod classes;
pub mod convert;
pub mod diag;
pub mod equiv;
pub mod fssga;
pub mod library;
pub mod modfree;
pub mod modthresh;
pub mod multiset;
pub mod par;
pub mod semilattice;
pub mod seq;
pub mod tape;
pub mod tree;

pub use classes::ClassSpace;
pub use fssga::{FsmProgram, Fssga, ProbFssga};
pub use modthresh::{Atom, ModThreshProgram, Prop};
pub use multiset::Multiset;
pub use par::ParProgram;
pub use seq::SeqProgram;
pub use tree::CombTree;

/// Identifier of an input state (an element of `Q = {0, .., |Q|-1}`), a
/// working state (`W`), or a result (`R`). Program tables store these as
/// `u32` internally to keep the (possibly conversion-blown-up) tables
/// compact; the public API uses `usize`.
pub type Id = usize;

/// Errors produced by conversions and decision procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmError {
    /// The program violates the symmetry condition of its definition, so
    /// the requested operation (e.g. Lemma 3.9) is not defined for it.
    NotSymmetric(String),
    /// A constructed table would exceed the configured size budget. The
    /// paper notes the conversions "can entail an exponential increase in
    /// program complexity"; we surface that instead of thrashing memory.
    TooLarge {
        /// Table entries (or clauses) the construction would need.
        needed: u128,
        /// The caller's budget.
        limit: u128,
    },
    /// Structurally ill-formed program (table sizes inconsistent, ids out
    /// of range, modulus zero, ...).
    Malformed(String),
}

impl std::fmt::Display for SmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmError::NotSymmetric(why) => write!(f, "program is not an SM function: {why}"),
            SmError::TooLarge { needed, limit } => {
                write!(
                    f,
                    "construction needs {needed} table entries, limit is {limit}"
                )
            }
            SmError::Malformed(why) => write!(f, "malformed program: {why}"),
        }
    }
}

impl std::error::Error for SmError {}
