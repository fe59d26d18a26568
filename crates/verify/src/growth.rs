//! The query-growth probe: synchronous runs of a protocol on graphs
//! larger than its exploration family.
//!
//! Exploration covers every schedule, but only on graphs of at most the
//! contract's `max_nodes` nodes (three for election, traversal and the α
//! synchronizer), where no node has more than a few neighbours. A query
//! asked only in a crowded neighbourhood never shows up there. The probe
//! runs the protocol for 60 seeded synchronous rounds on each of seven
//! graphs of 6 to 24 nodes, the clique and the star among them, with the
//! network's query recorder on. The checker merges that recorder into
//! exploration's before the one comparison against the declared bounds
//! ([`crate::totality::TotalityObserver::finish`]).
//!
//! The probe also checks what no bound comparison can: that the query
//! signature stops growing. A protocol whose thresholds or moduli keep
//! growing round over round has no mod-thresh compilation and no finite
//! automaton, whatever it declares. Convergence is judged on the
//! aggregate — the largest threshold and the lcm of the moduli over all
//! states — because the set of queried states is bounded by the finite
//! state space anyway (election legitimately queries fresh states for
//! many rounds), while growing magnitudes are what break mod-thresh
//! compilability. The aggregate carries over from graph to graph and
//! must not grow in any graph's last 10 rounds; the states that push it
//! up there are the suspects.
//!
//! A transition that panics on a probe graph ends that graph's run; the
//! panic is reported as a `verify-totality` error, as exploration
//! reports one, and the probe goes on with the next graph.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fssga_core::diag::{Diagnostic, Report};
use fssga_core::modthresh::lcm;
use fssga_engine::view::QueryRecorder;
use fssga_engine::{Network, Protocol, StateSpace};
use fssga_graph::{Graph, NodeId};
use fssga_protocols::contract::SemanticContract;

use crate::explore::{format_config, panic_message};
use crate::{graphs, totality};

const ANALYSIS: &str = "verify-growth";

/// Synchronous rounds per probe graph. Election's first threshold-2
/// query on `cycle-8` arrives at round 39, so fewer rounds would move it
/// into the tail.
const ROUNDS: usize = 60;

/// Trailing rounds of each graph in which the aggregate must not grow.
const TAIL: usize = 10;

/// Seeds the random probe graphs and every round's coins.
const SEED: u64 = 0xF55A;

/// What the probe saw.
pub(crate) struct Growth {
    /// Every query made in every round on every probe graph.
    pub(crate) recorder: QueryRecorder,
    /// States (dense indices) that pushed the aggregate signature up in
    /// some graph's last 10 rounds. Empty exactly when the aggregate
    /// converged.
    pub(crate) suspects: Vec<u32>,
    /// One message per probe graph whose run panicked, naming the
    /// graph, the round and the panic message.
    pub(crate) panics: Vec<String>,
}

/// Runs `protocol` from `init` on every probe graph, recording its
/// queries.
pub(crate) fn probe<P: Protocol>(
    protocol: &P,
    init: impl Fn(&Graph, NodeId) -> P::State,
) -> Growth {
    let mut recorder = QueryRecorder::new(P::State::COUNT);
    let (mut agg_t, mut agg_m) = (1u64, 1u64);
    let mut suspect = vec![false; P::State::COUNT];
    let mut panics = Vec::new();
    for (gi, named) in graphs::probe(SEED).iter().enumerate() {
        let g = &named.graph;
        let mut net = Network::new(g, protocol, |v| init(g, v));
        net.enable_recording();
        for round in 0..ROUNDS {
            let seed = SEED ^ ((gi as u64) << 32) ^ round as u64;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| net.sync_step_seeded(seed))) {
                panics.push(format!(
                    "transition panics on growth-probe graph {} in round {round}: {}",
                    named.name,
                    panic_message(payload)
                ));
                break;
            }
            // The network's recorder is cumulative: reading it once, after
            // the last round before the tail, folds every earlier round
            // into the aggregate. From then on a round grew the aggregate
            // exactly when some state's entry now exceeds it.
            if round + TAIL + 1 < ROUNDS {
                continue;
            }
            let rec = net.recorded_queries().expect("recording enabled");
            let round_t = rec.thresholds.iter().copied().max().unwrap_or(1);
            let round_m = rec.moduli.iter().copied().fold(1, lcm);
            if round_t <= agg_t && agg_m.is_multiple_of(round_m) {
                continue;
            }
            if round + TAIL >= ROUNDS {
                for (q, s) in suspect.iter_mut().enumerate() {
                    *s |= rec.thresholds[q] > agg_t || !agg_m.is_multiple_of(rec.moduli[q]);
                }
            }
            agg_t = round_t.max(agg_t);
            agg_m = lcm(agg_m, round_m);
        }
        recorder.merge(&net.recorded_queries().expect("recording enabled"));
    }
    Growth {
        recorder,
        suspects: (0..P::State::COUNT as u32)
            .filter(|&q| suspect[q as usize])
            .collect(),
        panics,
    }
}

/// Reports an error per probe graph whose run panicked, and one if the
/// probe's aggregate signature was still growing in some graph's tail.
pub(crate) fn check<P: Protocol>(
    contract: &SemanticContract,
    growth: &Growth,
    report: &mut Report,
) {
    for panic in &growth.panics {
        report.push(Diagnostic::error(
            totality::ANALYSIS,
            contract.name,
            panic.clone(),
        ));
    }
    if growth.suspects.is_empty() {
        return;
    }
    report.push(
        Diagnostic::error(
            ANALYSIS,
            contract.name,
            format!(
                "query signature never converged within {ROUNDS} rounds: the protocol may not \
                 be finite-state realisable"
            ),
        )
        .with_witness(format!(
            "states whose queries grew in the last {TAIL} rounds of a probe graph: {}",
            format_config::<P>(&growth.suspects)
        )),
    );
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use fssga_core::diag::Severity;
    use fssga_engine::{impl_state_space, NeighborView, SensitivityClass};
    use fssga_protocols::contract::Scheduling;

    use super::*;
    use crate::checker::check_protocol;
    use crate::graphs::family;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Greedy {
        A,
        B,
    }
    impl_state_space!(Greedy { A, B });

    /// Queries an ever-larger threshold on each activation (interior
    /// mutability models a protocol whose queries depend on unbounded
    /// history): the query signature never settles, so the protocol is
    /// not finite-state realisable.
    struct RaisingThreshold(Cell<u32>);

    impl Protocol for RaisingThreshold {
        type State = Greedy;
        // Deliberately generous declaration: divergence must be caught by
        // the convergence check, not the bound comparison.
        const MAX_THRESHOLD: u32 = u32::MAX;

        fn transition(&self, own: Greedy, n: &NeighborView<'_, Greedy>, _c: u32) -> Greedy {
            let t = self.0.get();
            self.0.set(t + 1);
            let _ = n.at_least(Greedy::A, t.max(1));
            own
        }
    }

    const RAISING_CONTRACT: SemanticContract = SemanticContract {
        name: "raising-threshold",
        order_independent: false,
        semilattice: false,
        scheduling: Scheduling::Any,
        sensitivity: SensitivityClass::Linear,
        max_nodes: 3,
        config_budget: 1_000,
    };

    #[test]
    fn divergent_signature_flagged() {
        let report = check_protocol(
            &RAISING_CONTRACT,
            &RaisingThreshold(Cell::new(1)),
            &family(RAISING_CONTRACT.max_nodes),
            |_, _| Greedy::A,
        );
        let growth: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.analysis == ANALYSIS)
            .collect();
        assert_eq!(growth.len(), 1, "{report}");
        assert!(growth[0].message.contains("never converged"), "{report}");
        assert_eq!(
            growth[0].witness.as_deref(),
            Some("states whose queries grew in the last 10 rounds of a probe graph: [A]")
        );
        // The bounds are generous, so nothing else fails.
        assert_eq!(report.error_count(), 1, "{report}");
    }

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Lone {
        A,
    }
    impl_state_space!(Lone { A });

    /// Panics only in a crowded neighbourhood (μ_A ≥ 2 and degree ≥ 5):
    /// never on exploration's three-node graphs, but on the probe's star
    /// and clique.
    struct CrowdPanic;

    impl Protocol for CrowdPanic {
        type State = Lone;
        const MAX_THRESHOLD: u32 = 5;

        fn transition(&self, own: Lone, n: &NeighborView<'_, Lone>, _c: u32) -> Lone {
            if n.at_least(Lone::A, 2) && n.degree_at_least(5) {
                panic!("crowded neighbourhood");
            }
            own
        }
    }

    #[test]
    fn probe_panic_is_a_totality_error() {
        let contract = SemanticContract {
            name: "crowd-panic",
            ..RAISING_CONTRACT
        };
        let report = check_protocol(
            &contract,
            &CrowdPanic,
            &family(contract.max_nodes),
            |_, _| Lone::A,
        );
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            !errors.is_empty() && errors.iter().all(|d| d.analysis == totality::ANALYSIS),
            "{report}"
        );
        assert!(
            errors.iter().any(|d| d.message
                == "transition panics on growth-probe graph star-7 in round 0: \
                    crowded neighbourhood"),
            "{report}"
        );
    }
}
