//! Tier-1 gate: every shipped protocol passes its semantic contract.
//!
//! This runs the `fssga-verify` model checker at [`VerifyScale::quick`]
//! (instances up to four nodes, a few thousand configurations per
//! instance, exhaustive single-fault sweeps included) so the whole suite
//! stays fast; the CI `fssga-lint verify` gate runs the same checks at
//! full contract coverage.

use fssga::verify::{verify_shipped_scaled, Severity, VerifyScale};

#[test]
fn all_shipped_protocols_pass_quick_verification() {
    let results = verify_shipped_scaled(&VerifyScale::quick());
    assert_eq!(results.len(), 12, "one result per shipped protocol");

    let mut failures = Vec::new();
    for r in &results {
        assert!(
            !r.report.diagnostics.is_empty(),
            "{}: the checker must report at least its summary note",
            r.name
        );
        if !r.report.is_clean() {
            failures.push(format!("--- {} ---\n{}", r.name, r.report));
        }
    }
    assert!(
        failures.is_empty(),
        "semantic verification failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn quick_verification_exercises_every_check_kind() {
    let results = verify_shipped_scaled(&VerifyScale::quick());
    let all: Vec<_> = results
        .iter()
        .flat_map(|r| r.report.diagnostics.iter())
        .collect();
    // Census claims a semilattice: either certified silently (no errors)
    // or skipped with a note — but the confluence pass must have run on
    // the order-independent protocols and the sensitivity pass on all.
    for analysis in ["verify", "verify-sensitivity"] {
        assert!(
            all.iter().any(|d| d.analysis == analysis),
            "no diagnostics from {analysis}"
        );
    }
    // The shipped folds are checked against their transitions; no other
    // protocol declares one.
    for r in &results {
        let folds = r
            .report
            .diagnostics
            .iter()
            .filter(|d| d.analysis == "verify-fold")
            .map(|d| d.message.as_str())
            .collect::<Vec<_>>();
        if ["census", "shortest-paths"].contains(&r.name) {
            assert!(
                folds.len() == 1 && folds[0].starts_with("fold contract holds"),
                "{}: {folds:?}",
                r.name
            );
        } else {
            assert!(folds.is_empty(), "{}: {folds:?}", r.name);
        }
    }
    // Quick scale truncates nothing so badly that claims are lost: no
    // protocol may end with zero explored instances.
    for r in &results {
        let summary = r
            .report
            .diagnostics
            .iter()
            .find(|d| d.analysis == "verify")
            .unwrap_or_else(|| panic!("{}: missing summary note", r.name));
        assert!(
            !summary.message.starts_with("explored 0"),
            "{}: {}",
            r.name,
            summary.message
        );
        assert_eq!(summary.severity, Severity::Note);
    }
}
