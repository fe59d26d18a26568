//! Golden tests for the static analyzer, driven through the `fssga`
//! facade: injected violations must be caught with replayable
//! witnesses — the same pass that makes `fssga-lint` exit non-zero.
//! That the shipped library lints clean is `fssga-analysis`'s own unit
//! test (`lint::tests::shipped_library_is_lint_clean`).

use fssga::analysis::{deadcode, lint, sm_audit, totality, Severity};
use fssga::core::modthresh::{ModThreshProgram, Prop};
use fssga::core::SeqProgram;

/// §4.1 golden case: the paper's two-colouring decision list has no dead
/// clauses and every clause carries a live witness.
#[test]
fn paper_two_coloring_has_no_dead_clauses() {
    let mt = fssga::core::library::two_coloring_blank_mt();
    let report = deadcode::audit_mt("two_coloring_blank_mt", &mt, lint::MT_LIMIT);
    assert!(report.is_clean(), "{report}");
}

/// Injected dead clause: a clause fully shadowed by an earlier, weaker
/// guard is flagged as an error, and the printed report carries the
/// witness multiset that proves the shadowing.
#[test]
fn injected_dead_clause_is_flagged_with_witness() {
    let clauses = vec![
        (Prop::at_least(0, 1), 1), // fires whenever state 0 present
        (Prop::at_least(0, 2), 0), // shadowed: strictly stronger guard
    ];
    let mt = ModThreshProgram::new(2, 2, clauses, 0).unwrap();
    let report = deadcode::audit_mt("injected", &mt, lint::MT_LIMIT);
    assert!(!report.is_clean(), "shadowed clause must be an error");
    let rendered = format!("{report}");
    assert!(
        rendered.contains("witness"),
        "report must print the shadowing witness:\n{rendered}"
    );
    // The same report drives the binary's non-zero exit.
    assert!(report.error_count() >= 1);
}

/// Injected non-SM program: the left-projection automaton (output =
/// first input) is order-sensitive; the audit must reject it with a
/// minimal witness whose two orderings replay to different outputs.
#[test]
fn injected_non_sm_program_is_rejected_with_minimal_witness() {
    // States 0,1,2: w0 = 2 ("empty"); first input is latched forever.
    let p = vec![
        0, 0, // from state 0 (latched 0)
        1, 1, // from state 1 (latched 1)
        0, 1, // from the initial state: latch the input
    ];
    let beta = vec![0, 1, 0];
    let seq = SeqProgram::new(2, 3, 2, 2, p, beta).unwrap();
    let witness = sm_audit::check_seq_sm(&seq).expect_err("left projection is not SM");
    assert_eq!(witness.len(), 2, "minimal witness is a bare swapped pair");
    assert_ne!(
        seq.eval_seq(&witness.sequence_ab()),
        seq.eval_seq(&witness.sequence_ba()),
        "witness must replay"
    );
    let report = sm_audit::audit_seq("injected", &seq);
    assert_eq!(report.error_count(), 1);
    assert!(format!("{report}").contains("witness"));
}

/// Injected partiality: a decision list with no default arm is a totality
/// error.
#[test]
fn injected_missing_default_is_flagged() {
    let raw = totality::RawDecisionList {
        num_inputs: 2,
        num_outputs: 2,
        clauses: vec![(Prop::at_least(0, 1), 1)],
        default: None,
    };
    let report = totality::audit_decision_list("injected", &raw);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error));
}

/// The blow-up table is complete for the shipped library and every row
/// that finished its cycle satisfies the Lemma 3.5 bound par == roundtrip.
#[test]
fn blowup_accounting_is_complete() {
    let rows = lint::blowup_table();
    assert!(rows.len() >= 10);
    for row in &rows {
        assert!(row.min_states <= row.seq_states, "{}", row.name);
        if let (Some(par), Some(back)) = (row.par_states, row.roundtrip_seq_states) {
            assert!(back >= row.min_states, "{}", row.name);
            assert!(par >= 1, "{}", row.name);
        }
    }
}
