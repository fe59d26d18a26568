//! Golden tests for the checker's counterexamples: the deliberately
//! broken protocols in `fssga_verify::broken` must be caught, with
//! stable, minimized, *replayable* witnesses.

use fssga_verify::broken::{
    first_wins_init, FirstWins, ForgetfulOr, OrState, Overcounter, FIRST_WINS_CONTRACT,
    FORGETFUL_OR_CONTRACT, OVERCOUNTER_CONTRACT,
};
use fssga_verify::checker::check_protocol;
use fssga_verify::explore::{Explorer, NoObserver};
use fssga_verify::graphs::family;
use fssga_verify::Severity;

#[test]
fn first_wins_order_dependence_has_golden_witness() {
    let fam = family(FIRST_WINS_CONTRACT.max_nodes);
    let report = check_protocol(&FIRST_WINS_CONTRACT, &FirstWins, &fam, |_, v| {
        first_wins_init(v)
    });
    assert!(
        !report.is_clean(),
        "the seeded order-dependent protocol must fail verification"
    );

    // The first error is on the minimal instance (the family is
    // size-ordered), and its witness text is pinned: any change to the
    // exploration order, scheduling, or formatting shows up here.
    let first = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("at least one error");
    assert_eq!(first.analysis, "verify-confluence");
    let witness = first.witness.as_deref().expect("confluence witness");
    let golden = include_str!("golden/first_wins.txt");
    assert_eq!(
        witness,
        golden.trim_end(),
        "witness drifted from the golden file"
    );
}

#[test]
fn first_wins_witness_replays_to_distinct_fixpoints() {
    // Re-derive the diverging instance mechanically and replay both
    // schedules: the witness is not just text, it is machine-checkable.
    let fam = family(FIRST_WINS_CONTRACT.max_nodes);
    let init_of = |n: usize| -> Vec<u32> {
        (0..n as u32)
            .map(|v| {
                use fssga_engine::StateSpace;
                first_wins_init(v).index() as u32
            })
            .collect()
    };
    let diverging = fam
        .iter()
        .find_map(|g| {
            let explorer = Explorer::new(&FirstWins, &g.graph, FIRST_WINS_CONTRACT.config_budget);
            let ex = explorer.explore_async(&init_of(g.graph.n()), &mut NoObserver);
            (ex.terminals.len() > 1).then_some((g, ex))
        })
        .expect("FirstWins must diverge somewhere in the family");
    let (g, ex) = diverging;
    assert_eq!(g.name, "all-n4-#20", "minimal diverging instance");

    let init = init_of(g.graph.n());
    let explorer = Explorer::new(&FirstWins, &g.graph, FIRST_WINS_CONTRACT.config_budget);
    let a = explorer
        .replay(&init, &ex.schedule_to(ex.terminals[0]))
        .unwrap();
    let b = explorer
        .replay(&init, &ex.schedule_to(ex.terminals[1]))
        .unwrap();
    assert_eq!(a, ex.configs[ex.terminals[0]]);
    assert_eq!(b, ex.configs[ex.terminals[1]]);
    assert_ne!(a, b, "the two schedules must reach distinct fixpoints");
}

#[test]
fn overcounter_query_bound_violation_is_caught() {
    let fam = family(OVERCOUNTER_CONTRACT.max_nodes);
    let report = check_protocol(&OVERCOUNTER_CONTRACT, &Overcounter, &fam, |_, _| {
        fssga_verify::broken::OcState::Lo
    });
    assert!(!report.is_clean());
    // Both faces of the same defect: the recorder sees a threshold above
    // the declared bound, and two same-class multisets map differently.
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error
                && d.analysis == "verify-totality"
                && d.message.contains("threshold 3 > declared MAX_THRESHOLD 2")),
        "{report}"
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error
                && d.analysis == "verify-totality"
                && d.message
                    .contains("not a function of the declared count classes")),
        "{report}"
    );
}

#[test]
fn forgetful_or_fold_disagreement_has_golden_witness() {
    let fam = family(FORGETFUL_OR_CONTRACT.max_nodes);
    let report = check_protocol(&FORGETFUL_OR_CONTRACT, &ForgetfulOr, &fam, |_, v| {
        if v == 0 {
            OrState::On
        } else {
            OrState::Off
        }
    });
    // The transition is a lawful OR-diffusion: confluence and totality
    // pass, and every error is the fold check's.
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        !errors.is_empty(),
        "the seeded broken fold must fail: {report}"
    );
    assert!(
        errors
            .iter()
            .all(|d| d.analysis == "verify-fold"
                && d.message == "fold disagrees with the transition"),
        "{report}"
    );
    let witness = errors[0].witness.as_deref().expect("fold witness");
    let golden = include_str!("golden/forgetful_or.txt");
    assert_eq!(
        witness,
        golden.trim_end(),
        "witness drifted from the golden file"
    );
}
