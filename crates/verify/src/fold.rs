//! The fold contract check.
//!
//! A protocol that declares [`Protocol::FOLD`] lets the compiled kernel
//! evaluate a row as `finish(own, s1 ∘ s2 ∘ … ∘ sk)` with `∘ = join`,
//! and never call `transition`. That is sound only under the [`Fold`]
//! contract: `join` is associative and commutative, and
//! `finish(a, fold of M) == transition(a, M, c)` for every own state `a`,
//! non-empty neighbour multiset `M` and coin `c`. This module checks the
//! laws on every pair and triple of states and the agreement on every
//! multiset of one to four neighbours. Multiplicities count: `join` need
//! not be idempotent.

use fssga_core::diag::{Diagnostic, Report};
use fssga_core::Multiset;
use fssga_engine::{Fold, NeighborView, Protocol, StateSpace};
use fssga_protocols::contract::SemanticContract;

use crate::confluence::CASE_BUDGET;

const ANALYSIS: &str = "verify-fold";

/// Largest neighbour multiset the agreement check enumerates.
const MAX_NEIGHBOURS: usize = 4;

/// Checks `P::FOLD` against its contract; does nothing when the protocol
/// declares no fold. Alphabets whose triples or agreement cases exceed
/// the semilattice check's budget are skipped with a note.
pub fn check_fold<P: Protocol>(contract: &SemanticContract, protocol: &P, report: &mut Report) {
    let Some(Fold { join, finish }) = P::FOLD else {
        return;
    };
    let count = P::State::COUNT;
    let coins = P::RANDOMNESS.max(1);
    // Non-empty multisets of at most MAX_NEIGHBOURS: C(count + 4, 4) - 1
    // (saturating, so a huge alphabet only overshoots the budget).
    let multisets = (1..=MAX_NEIGHBOURS).fold(1usize, |c, k| c.saturating_mul(count + k) / k) - 1;
    let agreements = multisets
        .saturating_mul(count)
        .saturating_mul(coins as usize);
    if count.saturating_pow(3) > CASE_BUDGET || agreements > CASE_BUDGET {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!("fold check skipped: {count} states exceed the budget of {CASE_BUDGET} cases"),
        ));
        return;
    }

    let state = P::State::from_index;
    let mut errors = 0usize;
    let mut push = |report: &mut Report, message: &str, witness: String| {
        if errors < 3 {
            report.push(Diagnostic::error(ANALYSIS, contract.name, message).with_witness(witness));
        }
        errors += 1;
    };

    for a in (0..count).map(state) {
        for b in (0..count).map(state) {
            let (ab, ba) = (join(a, b), join(b, a));
            if ab != ba {
                push(
                    report,
                    "fold join is not commutative",
                    format!("join({a:?}, {b:?}) = {ab:?} but join({b:?}, {a:?}) = {ba:?}"),
                );
            }
            for c in (0..count).map(state) {
                let (left, right) = (join(ab, c), join(a, join(b, c)));
                if left != right {
                    push(
                        report,
                        "fold join is not associative",
                        format!(
                            "join(join({a:?}, {b:?}), {c:?}) = {left:?} but \
                             join({a:?}, join({b:?}, {c:?})) = {right:?}"
                        ),
                    );
                }
            }
        }
    }

    for ms in Multiset::enumerate_up_to(count, MAX_NEIGHBOURS as u64) {
        let counts: Vec<u32> = ms.counts().iter().map(|&c| c as u32).collect();
        let view = NeighborView::<P::State>::over(&counts);
        let neighbours: Vec<P::State> = ms.iter_elems().map(state).collect();
        let joined = neighbours
            .iter()
            .copied()
            .reduce(join)
            .expect("enumerated multisets are non-empty");
        for own in (0..count).map(state) {
            let folded = finish(own, joined);
            for coin in 0..coins {
                let direct = protocol.transition(own, &view, coin);
                if direct != folded {
                    let shown: Vec<String> = neighbours.iter().map(|s| format!("{s:?}")).collect();
                    push(
                        report,
                        "fold disagrees with the transition",
                        format!(
                            "f({own:?}, {{{}}}, coin {coin}) = {direct:?} but \
                             finish({own:?}, {joined:?}) = {folded:?}",
                            shown.join(", ")
                        ),
                    );
                }
            }
        }
    }

    let summary = if errors == 0 {
        format!(
            "fold contract holds: {count}^3 join triples, {multisets} neighbour multisets \
             × {count} own states × {coins} coin(s)"
        )
    } else {
        format!("{errors} fold violation(s), the first 3 reported")
    };
    report.push(Diagnostic::note(ANALYSIS, contract.name, summary));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_protocols::census::{self, Census};

    #[test]
    fn alphabets_past_the_budget_are_skipped_with_a_note() {
        let mut report = Report::new();
        check_fold(&census::CONTRACT, &Census::<16>, &mut report);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.diagnostics.len(), 1, "{report}");
        assert!(
            report.diagnostics[0]
                .message
                .starts_with("fold check skipped: 65536 states"),
            "{report}"
        );
    }
}
