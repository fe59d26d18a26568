//! `fssga-verify`: a bounded exhaustive model checker for the semantic
//! contracts of the shipped FSSGA protocols.
//!
//! The paper's SM framework makes strong *semantic* promises — diffusion
//! protocols are order-independent (Church–Rosser under the adversarial
//! daemon), transitions are total SM functions of the neighbour multiset
//! within declared mod/thresh bounds, and each algorithm sits in a
//! declared Section 2 sensitivity class. `fssga-analysis` checks what it
//! can *syntactically*; this crate checks the claims *semantically*, by
//! exhaustively exploring every activation order (or every synchronous
//! coin vector) of each protocol's product state space on a family of
//! small graphs:
//!
//! * [`confluence`] — every maximal run reaches the same fixed point, and
//!   claimed semilattice joins satisfy the algebraic laws;
//! * [`fold`] — a declared `Protocol::FOLD` has an associative,
//!   commutative `join`, and fold-then-`finish` equals the transition on
//!   every small multiset;
//! * [`totality`] — no reachable transition panics, exceeds its declared
//!   query bounds, or distinguishes multisets its bounds cannot express;
//! * the growth probe — seeded synchronous runs on larger graphs, whose
//!   queries join exploration's in the bound comparison, and whose query
//!   signature must stop growing;
//! * [`sensitivity`] — exhaustive single-fault replay certifies the
//!   declared 0 / k / Θ(n) class.
//!
//! Every violation carries a minimized, replayable [`witness::Witness`].
//! The crate is wired into CI as the `fssga-lint verify` subcommand; the
//! deliberately broken protocols in [`broken`] keep the checker honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broken;
pub mod checker;
pub mod confluence;
pub mod explore;
pub mod fold;
pub mod graphs;
mod growth;
pub mod sensitivity;
pub mod shipped;
pub mod totality;
pub mod witness;

pub use fssga_core::diag::{Diagnostic, Report, Severity};
pub use shipped::{verify_shipped, verify_shipped_scaled, ProtocolVerification, VerifyScale};
