//! The shipped lint pass: audits every built-in library program.
//!
//! [`lint_library`] is what the `fssga-lint` binary and the CI gate run.
//! It must stay clean on the shipped set — a lint error here means a
//! program in the library violates its own definition or dead code crept
//! into a decision list. Protocols are checked by `fssga-verify`
//! (`fssga-lint verify`), which owns every check of a protocol's queries.

use fssga_core::convert::DEFAULT_LIMIT;
use fssga_core::library;

use crate::diag::Report;
use crate::{deadcode, sm_audit, totality};

/// Class-space budget for exact clause-liveness decisions.
pub const MT_LIMIT: u128 = 1 << 16;

/// Audits every library program: dead code, totality, and the SM property.
pub fn lint_library() -> Report {
    let mut report = Report::new();

    let seqs = [
        ("library::or_seq", library::or_seq()),
        ("library::and_seq", library::and_seq()),
        ("library::parity_seq", library::parity_seq()),
        (
            "library::count_ones_mod_seq(3)",
            library::count_ones_mod_seq(3),
        ),
        (
            "library::count_ones_mod_seq(5)",
            library::count_ones_mod_seq(5),
        ),
        ("library::max_state_seq(4)", library::max_state_seq(4)),
        ("library::min_state_seq(4)", library::min_state_seq(4)),
        (
            "library::count_at_least_seq(3,1,3)",
            library::count_at_least_seq(3, 1, 3),
        ),
        ("library::all_equal_seq(3)", library::all_equal_seq(3)),
    ];
    for (name, p) in &seqs {
        report.extend(totality::audit_seq(name, p));
        report.extend(deadcode::audit_seq(name, p));
        report.extend(sm_audit::audit_seq(name, p));
    }

    let pars = [
        ("library::or_par", library::or_par()),
        ("library::sum_mod_par(4)", library::sum_mod_par(4)),
        ("library::max_state_par(5)", library::max_state_par(5)),
    ];
    for (name, p) in &pars {
        report.extend(deadcode::audit_par(name, p));
        report.extend(sm_audit::audit_par(name, p));
    }

    let mts = [
        (
            "library::two_coloring_blank_mt",
            library::two_coloring_blank_mt(),
        ),
        ("library::parity_mt(4,1)", library::parity_mt(4, 1)),
        (
            "library::exactly_one_mt(4,1)",
            library::exactly_one_mt(4, 1),
        ),
    ];
    for (name, p) in &mts {
        report.extend(totality::audit_mt(name, p));
        report.extend(deadcode::audit_mt(name, p, MT_LIMIT));
    }

    report
}

/// Blow-up accounting at the default conversion budget (re-exported here
/// so the binary and CI call one module).
pub fn blowup_table() -> Vec<crate::blowup::BlowupRow> {
    crate::blowup::library_blowup(DEFAULT_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_library_is_lint_clean() {
        let report = lint_library();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.warning_count(), 0, "{report}");
    }

    #[test]
    fn blowup_table_covers_library() {
        let rows = blowup_table();
        assert!(rows.len() >= 10);
    }
}
