//! Confluence (order-independence) checking.
//!
//! A protocol whose contract claims `order_independent` promises the
//! Church–Rosser property of the paper's SM framework: on any instance,
//! every maximal asynchronous run from the canonical initial
//! configuration reaches the *same* fixed point, no matter how the
//! daemon interleaves activations or what coins are drawn. Over the
//! finite explored transition graph this reduces to two checks:
//!
//! 1. the graph of state-*changing* transitions is acyclic (otherwise
//!    the daemon can loop forever — a non-termination witness), and
//! 2. it has exactly one sink (otherwise two schedules reach two
//!    different fixed points — a divergence witness).
//!
//! In a finite acyclic graph every maximal path ends in a sink, so
//! acyclicity plus a unique sink *is* confluence on that instance.
//!
//! Contracts additionally claiming `semilattice` get the algebraic
//! check: the induced binary operation `a ∘ b := f(a, {b})` must be
//! idempotent, commutative and associative, and transitions on
//! two-element multisets must equal the iterated join — the structure
//! the paper's Section 5 semilattice machinery detects syntactically,
//! here verified semantically.

use fssga_core::diag::{Diagnostic, Report};
use fssga_engine::{NeighborView, Protocol, StateSpace};
use fssga_protocols::contract::SemanticContract;

use crate::explore::{format_config, Exploration};
use crate::graphs::NamedGraph;
use crate::witness::Witness;

const ANALYSIS: &str = "verify-confluence";

/// Most cases an algebraic check enumerates (here, `|Q|^3` triples);
/// larger alphabets are skipped with a note.
pub(crate) const CASE_BUDGET: usize = 2_000_000;

/// Builds a witness for a schedule on a named instance.
fn witness<P: Protocol>(
    graph: &NamedGraph,
    init: &[u32],
    schedule: Vec<crate::witness::Step>,
    outcome: String,
) -> Witness {
    Witness {
        graph_name: graph.name.clone(),
        n: graph.graph.n(),
        edges: graph.graph.edges().collect(),
        init: init
            .iter()
            .map(|&q| format!("{:?}", P::State::from_index(q as usize)))
            .collect(),
        schedule,
        outcome,
    }
}

/// Assesses one explored instance against an `order_independent` claim.
pub fn assess<P: Protocol>(
    contract: &SemanticContract,
    graph: &NamedGraph,
    init: &[u32],
    ex: &Exploration,
    report: &mut Report,
) {
    if ex.panic.is_some() {
        return; // the totality pass reports the panic itself
    }
    if ex.truncated {
        report.push(Diagnostic::warning(
            ANALYSIS,
            contract.name,
            format!(
                "confluence NOT certified on {}: exploration budget of {} configurations \
                 exhausted before closure",
                graph.name, contract.config_budget
            ),
        ));
        return;
    }
    if let Some(cycle) = ex.find_cycle() {
        let entry = cycle[0];
        let w = witness::<P>(
            graph,
            init,
            ex.schedule_to(entry),
            format!(
                "reaches {} from which {} changing transition(s) loop back — the daemon \
                 can schedule this run forever",
                format_config::<P>(&ex.configs[entry]),
                cycle.len()
            ),
        );
        report.push(
            Diagnostic::error(
                ANALYSIS,
                contract.name,
                format!(
                    "non-terminating activation cycle on {} ({} reachable configurations)",
                    graph.name,
                    ex.configs.len()
                ),
            )
            .with_witness(w.to_string()),
        );
        return;
    }
    if ex.terminals.len() > 1 {
        let a = ex.terminals[0];
        let b = ex.terminals[1];
        let wa = witness::<P>(
            graph,
            init,
            ex.schedule_to(a),
            format!("fixpoint A = {}", format_config::<P>(&ex.configs[a])),
        );
        let wb = witness::<P>(
            graph,
            init,
            ex.schedule_to(b),
            format!("fixpoint B = {}", format_config::<P>(&ex.configs[b])),
        );
        report.push(
            Diagnostic::error(
                ANALYSIS,
                contract.name,
                format!(
                    "order-dependence on {}: {} distinct fixpoints reachable from one \
                     initial configuration",
                    graph.name,
                    ex.terminals.len()
                ),
            )
            .with_witness(format!("{wa}\n--- diverges from ---\n{wb}")),
        );
    }
}

/// Checks the semilattice laws of the induced join `a ∘ b := f(a, {b})`,
/// plus `f(a, {b, c}) = (a ∘ b) ∘ c` on two-element multisets.
pub fn check_semilattice<P: Protocol>(
    contract: &SemanticContract,
    protocol: &P,
    report: &mut Report,
) {
    let count = P::State::COUNT;
    if P::RANDOMNESS > 1 {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            "semilattice check skipped: protocol is randomized",
        ));
        return;
    }
    if count.pow(3) > CASE_BUDGET {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!("semilattice check skipped: {count}^3 triples exceed the budget"),
        ));
        return;
    }

    let mut counts = vec![0u32; count];
    let state = |i: usize| format!("{:?}", P::State::from_index(i));

    // The induced join table.
    let mut op = vec![0usize; count * count];
    for a in 0..count {
        for b in 0..count {
            counts[b] = 1;
            let touched = [b as u32];
            let view = NeighborView::<P::State>::over_sparse(&counts, &touched, None);
            op[a * count + b] = protocol
                .transition(P::State::from_index(a), &view, 0)
                .index();
            counts[b] = 0;
        }
    }

    let mut errors = 0usize;
    let mut push = |report: &mut Report, message: String, witness: String| {
        if errors < 3 {
            report.push(Diagnostic::error(ANALYSIS, contract.name, message).with_witness(witness));
        }
        errors += 1;
    };

    for a in 0..count {
        if op[a * count + a] != a {
            push(
                report,
                "induced join is not idempotent".into(),
                format!("{} ∘ {} = {}", state(a), state(a), state(op[a * count + a])),
            );
        }
        for b in 0..count {
            if op[a * count + b] != op[b * count + a] {
                push(
                    report,
                    "induced join is not commutative".into(),
                    format!(
                        "{} ∘ {} = {} but {} ∘ {} = {}",
                        state(a),
                        state(b),
                        state(op[a * count + b]),
                        state(b),
                        state(a),
                        state(op[b * count + a])
                    ),
                );
            }
            for c in 0..count {
                let left = op[op[a * count + b] * count + c];
                let right = op[a * count + op[b * count + c]];
                if left != right {
                    push(
                        report,
                        "induced join is not associative".into(),
                        format!(
                            "({} ∘ {}) ∘ {} = {} but {} ∘ ({} ∘ {}) = {}",
                            state(a),
                            state(b),
                            state(c),
                            state(left),
                            state(a),
                            state(b),
                            state(c),
                            state(right)
                        ),
                    );
                }
                // f(a, {b, c}) must equal the iterated join.
                counts[b] += 1;
                counts[c] += 1;
                let touched = if b == c {
                    vec![b as u32]
                } else {
                    vec![b.min(c) as u32, b.max(c) as u32]
                };
                let view = NeighborView::<P::State>::over_sparse(&counts, &touched, None);
                let direct = protocol
                    .transition(P::State::from_index(a), &view, 0)
                    .index();
                counts[b] -= 1;
                counts[c] -= 1;
                if direct != left {
                    push(
                        report,
                        "transition on a two-element multiset differs from the iterated join"
                            .into(),
                        format!(
                            "f({}, {{{}, {}}}) = {} but ({} ∘ {}) ∘ {} = {}",
                            state(a),
                            state(b),
                            state(c),
                            state(direct),
                            state(a),
                            state(b),
                            state(c),
                            state(left)
                        ),
                    );
                }
            }
        }
    }
    if errors > 3 {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!("{} further semilattice violations suppressed", errors - 3),
        ));
    }
}
