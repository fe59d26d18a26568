//! Tier-1 gate: every shipped protocol passes its semantic contract.
//!
//! This runs the `fssga-verify` model checker at [`VerifyScale::quick`]
//! (instances up to four nodes, a few thousand configurations per
//! instance, exhaustive single-fault sweeps included, and the growth
//! probe on its larger graphs) so the whole suite stays fast; the CI
//! `fssga-lint verify` gate runs the same checks at full contract
//! coverage.

use std::sync::OnceLock;

use fssga::verify::broken::{crowd_counter_init, CrowdCounter, CROWD_COUNTER_CONTRACT};
use fssga::verify::checker::check_protocol;
use fssga::verify::graphs::family;
use fssga::verify::{verify_shipped_scaled, ProtocolVerification, Severity, VerifyScale};

/// The quick verification of every shipped protocol, run once for all
/// the tests that read it.
fn quick_results() -> &'static [ProtocolVerification] {
    static RESULTS: OnceLock<Vec<ProtocolVerification>> = OnceLock::new();
    RESULTS.get_or_init(|| verify_shipped_scaled(&VerifyScale::quick()))
}

#[test]
fn all_shipped_protocols_pass_quick_verification() {
    let results = quick_results();
    assert_eq!(results.len(), 12, "one result per shipped protocol");

    let mut failures = Vec::new();
    for r in results {
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
    let results = quick_results();
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
    for r in results {
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
    for r in results {
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

/// A query only a crowded neighbourhood triggers: exploration at the quick
/// scale's four nodes never makes it, so the bound comparison sees it
/// only through the growth probe's recorder.
#[test]
fn growth_probe_feeds_the_bound_comparison() {
    let max_nodes = CROWD_COUNTER_CONTRACT
        .max_nodes
        .min(VerifyScale::quick().max_nodes);
    let report = check_protocol(
        &CROWD_COUNTER_CONTRACT,
        &CrowdCounter,
        &family(max_nodes),
        |_, v| crowd_counter_init(v),
    );
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{report}");
    assert_eq!(errors[0].analysis, "verify-totality");
    assert!(
        errors[0]
            .message
            .contains("state A with threshold 3 > declared MAX_THRESHOLD 2"),
        "{report}"
    );
}
