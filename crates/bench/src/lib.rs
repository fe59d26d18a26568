//! Experiment harness for the reproduction.
//!
//! The paper is a theory paper: its "evaluation" is the set of theorems,
//! claims and complexity statements. This crate regenerates each of them
//! as a measured table — experiments E1–E14 of `DESIGN.md` — via
//! `cargo run -p fssga-bench --release --bin experiments [-- eN ...]`,
//! and hosts the dependency-free micro-benchmarks that
//! `fssga-bench micro` runs ([`micro`], timed by [`harness`]).
//!
//! Each experiment is an ordinary function returning a [`report::Table`],
//! so the integration tests can assert the *shape* of every result (who
//! wins, which exponent, where the crossover is) without re-parsing
//! stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fit;
pub mod harness;
pub mod micro;
pub mod report;

/// The default master seed for all experiments. Every experiment derives
/// its own streams from it, so the whole suite is reproducible.
pub const DEFAULT_SEED: u64 = 0xF55A_2006;
