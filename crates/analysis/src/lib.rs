//! Static analysis for FSSGA programs.
//!
//! The paper's central artifact is a *program class* — sequential,
//! parallel and mod-thresh programs (Theorem 3.7) — whose conversions blow
//! up exponentially and whose SM property is a semantic side condition.
//! The rest of the workspace checks these properties dynamically, at
//! simulation time; this crate checks them *statically*, before a single
//! round runs:
//!
//! * [`deadcode`] — unreachable working states (sequential), unobtainable
//!   working values (parallel), and dead decision-list clauses with exact
//!   shadowing proofs or unsatisfiability verdicts over the Lemma 3.8/3.9
//!   count-class space.
//! * [`totality`] — raw-table audits: missing or out-of-range transition
//!   entries, decision lists with no default arm.
//! * [`sm_audit`] — the Definition 3.2 / 3.4 symmetry conditions, with a
//!   globally minimal replayable witness pair on failure.
//! * [`blowup`] — machine-readable accounting of state-count growth
//!   through the Theorem 3.7 conversion cycle per library program.
//! * [`lint`] — the shipped pass over every library program; the
//!   `fssga-lint` binary runs it and exits non-zero on violations.
//!
//! Protocols are checked by `fssga-verify`, whose model checker owns
//! every check of a protocol's queries against its declared bounds; the
//! `fssga-lint verify` subcommand runs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blowup;
pub mod deadcode;
pub mod lint;
pub mod sm_audit;
pub mod totality;

/// Diagnostics now live in `fssga-core` (so the semantic model checker in
/// `fssga-verify` can emit them without depending on this crate);
/// re-exported here so `fssga_analysis::diag::...` paths keep working.
pub use fssga_core::diag;
pub use fssga_core::diag::{Diagnostic, Report, Severity};
