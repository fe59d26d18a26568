//! The per-protocol checking pipeline: explore every instance of the
//! family under the contract's scheduling model, feeding one shared
//! semantic-totality observer, then assess confluence and the
//! semilattice laws where the contract claims them, and the fold
//! contract where the protocol declares a fold. The growth probe's
//! queries join exploration's before the one comparison against the
//! declared query bounds.

use fssga_core::diag::{Diagnostic, Report};
use fssga_engine::view::QueryRecorder;
use fssga_engine::{Protocol, StateSpace};
use fssga_graph::{Graph, NodeId};
use fssga_protocols::contract::{Scheduling, SemanticContract};

use crate::confluence;
use crate::explore::Explorer;
use crate::fold;
use crate::graphs::NamedGraph;
use crate::growth;
use crate::totality::{self, TotalityObserver};

/// Runs the semantic checks (exploration, totality, confluence,
/// semilattice, fold, query growth) for one protocol over an instance
/// family. Sensitivity certification is separate — it needs a
/// per-algorithm fault campaign, not just a transition function.
pub fn check_protocol<P: Protocol>(
    contract: &SemanticContract,
    protocol: &P,
    family: &[NamedGraph],
    init: impl Fn(&Graph, NodeId) -> P::State,
) -> Report {
    let mut report = Report::new();
    let mut observer = TotalityObserver::<P>::new();
    let mut recorder = QueryRecorder::new(P::State::COUNT);
    let mut instances = 0usize;
    let mut closed = 0usize;
    let mut max_configs = 0usize;

    for named in family.iter().filter(|g| g.graph.n() <= contract.max_nodes) {
        instances += 1;
        let g = &named.graph;
        let init_cfg: Vec<u32> = (0..g.n() as NodeId)
            .map(|v| init(g, v).index() as u32)
            .collect();
        let explorer = Explorer::new(protocol, g, contract.config_budget);
        let ex = match contract.scheduling {
            Scheduling::Any => explorer.explore_async(&init_cfg, &mut observer),
            Scheduling::SyncOnly => explorer.explore_sync(&init_cfg, &mut observer),
        };
        recorder.merge(&explorer.recorder.borrow());
        max_configs = max_configs.max(ex.configs.len());
        if !ex.truncated && ex.panic.is_none() {
            closed += 1;
        }
        totality::check_exploration::<P>(contract, named, &init_cfg, &ex, &mut report);
        if contract.order_independent {
            confluence::assess::<P>(contract, named, &init_cfg, &ex, &mut report);
        }
    }

    if contract.semilattice {
        confluence::check_semilattice(contract, protocol, &mut report);
    }
    fold::check_fold(contract, protocol, &mut report);

    // Larger graphs than the family: their queries join the exploration's
    // before the bound comparison.
    let growth = growth::probe(protocol, &init);
    recorder.merge(&growth.recorder);
    growth::check_convergence::<P>(contract, &growth, &mut report);

    let transitions = observer.transitions();
    let signatures = observer.distinct_signatures();
    observer.finish(contract, &recorder, &mut report);

    report.push(Diagnostic::note(
        "verify",
        contract.name,
        format!(
            "explored {instances} instance(s) ({closed} to closure), max {max_configs} \
             configurations, {transitions} transitions, {signatures} distinct count-class \
             signatures"
        ),
    ));
    report
}
