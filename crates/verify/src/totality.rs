//! Semantic totality: every transition the protocol can actually face is
//! defined, within bounds, and a function of the declared count classes.
//!
//! The syntactic totality pass in `fssga-analysis` checks mod-thresh
//! *programs*; this pass checks native protocols over their *reachable*
//! semantics. It verifies three things:
//!
//! * **no panics** — a transition that panics on a reachable
//!   `(state, coin, multiset)` triple is a partial function
//!   masquerading as total;
//! * **declared query bounds** — the [`QueryRecorder`] merged over
//!   exploration and the growth probe (`growth.rs`) must stay
//!   within `MAX_THRESHOLD` / `MODULI_LCM`, the bounds the α synchronizer
//!   relies on to synthesize its inner protocol's view. This is the one
//!   comparison against those declarations;
//! * **count-class functionality** — the result must depend on the
//!   neighbour multiset only through the classes
//!   `(min(μ_q, T), μ_q mod L)` that the declared bounds can express.
//!   Two reachable multisets in the same class mapping to different
//!   next states prove the protocol is *not* the SM function its bounds
//!   claim — a strictly semantic finding no syntactic pass can make.

use std::collections::HashMap;
use std::marker::PhantomData;

use fssga_core::diag::{Diagnostic, Report};
use fssga_engine::view::QueryRecorder;
use fssga_engine::{Protocol, StateSpace};
use fssga_protocols::contract::SemanticContract;

use crate::explore::{Exploration, TransitionCtx, TransitionObserver};
use crate::graphs::NamedGraph;
use crate::witness::{Step, Witness};

pub(crate) const ANALYSIS: &str = "verify-totality";

/// Cap on distinct signatures tracked before sampling stops (memory
/// guard for huge product-state protocols).
const SIG_CAP: usize = 2_000_000;

#[derive(Hash, PartialEq, Eq)]
struct SigKey {
    own: u32,
    coin: u32,
    /// Sparse count classes: `(state, min(count, T), count mod L)` for
    /// each state with nonzero count, sorted by state.
    sig: Vec<(u32, u32, u32)>,
}

struct SigEntry {
    next: u32,
    /// Sparse multiset witness: `(state, count)`.
    counts: Vec<(u32, u32)>,
}

/// A count-class functionality violation: two multisets in the same
/// declared class with different results.
struct SigConflict {
    own: u32,
    coin: u32,
    next_a: u32,
    counts_a: Vec<(u32, u32)>,
    next_b: u32,
    counts_b: Vec<(u32, u32)>,
}

/// The transition observer that accumulates semantic-totality evidence
/// across every explored instance of one protocol.
pub struct TotalityObserver<P: Protocol> {
    sig_map: HashMap<SigKey, SigEntry>,
    conflicts: Vec<SigConflict>,
    conflict_count: usize,
    saturated: bool,
    transitions: u64,
    _ph: PhantomData<P>,
}

impl<P: Protocol> Default for TotalityObserver<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> TotalityObserver<P> {
    /// A fresh observer.
    pub fn new() -> Self {
        Self {
            sig_map: HashMap::new(),
            conflicts: Vec::new(),
            conflict_count: 0,
            saturated: false,
            transitions: 0,
            _ph: PhantomData,
        }
    }

    /// Total transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Distinct `(state, coin, count-class)` signatures observed.
    pub fn distinct_signatures(&self) -> usize {
        self.sig_map.len()
    }
}

impl<P: Protocol> TransitionObserver for TotalityObserver<P> {
    fn observe(&mut self, ctx: TransitionCtx<'_>) {
        self.transitions += 1;
        if self.saturated {
            return;
        }
        let t = P::MAX_THRESHOLD;
        let l = P::MODULI_LCM.max(1);
        let sig: Vec<(u32, u32, u32)> = ctx
            .touched
            .iter()
            .map(|&q| {
                let c = ctx.counts[q as usize];
                (q, c.min(t), c % l)
            })
            .collect();
        let key = SigKey {
            own: ctx.own,
            coin: ctx.coin,
            sig,
        };
        match self.sig_map.get(&key) {
            Some(entry) => {
                if entry.next != ctx.next {
                    self.conflict_count += 1;
                    if self.conflicts.len() < 3 {
                        self.conflicts.push(SigConflict {
                            own: ctx.own,
                            coin: ctx.coin,
                            next_a: entry.next,
                            counts_a: entry.counts.clone(),
                            next_b: ctx.next,
                            counts_b: ctx
                                .touched
                                .iter()
                                .map(|&q| (q, ctx.counts[q as usize]))
                                .collect(),
                        });
                    }
                }
            }
            None => {
                if self.sig_map.len() >= SIG_CAP {
                    self.saturated = true;
                    return;
                }
                self.sig_map.insert(
                    key,
                    SigEntry {
                        next: ctx.next,
                        counts: ctx
                            .touched
                            .iter()
                            .map(|&q| (q, ctx.counts[q as usize]))
                            .collect(),
                    },
                );
            }
        }
    }
}

fn state<P: Protocol>(q: u32) -> String {
    format!("{:?}", P::State::from_index(q as usize))
}

fn multiset<P: Protocol>(counts: &[(u32, u32)]) -> String {
    if counts.is_empty() {
        return "{}".to_string();
    }
    let parts: Vec<String> = counts
        .iter()
        .map(|&(q, c)| format!("{}×{}", c, state::<P>(q)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Per-instance checks: reports a transition panic (with a replayable
/// witness schedule) and notes budget truncation for contracts whose
/// claims do not already escalate it.
pub fn check_exploration<P: Protocol>(
    contract: &SemanticContract,
    graph: &NamedGraph,
    init: &[u32],
    ex: &Exploration,
    report: &mut Report,
) {
    if let Some(p) = &ex.panic {
        let mut schedule = ex.schedule_to(p.config);
        schedule.push(Step::Activate {
            node: p.node,
            coin: p.coin,
        });
        let w = Witness {
            graph_name: graph.name.clone(),
            n: graph.graph.n(),
            edges: graph.graph.edges().collect(),
            init: init.iter().map(|&q| state::<P>(q)).collect(),
            schedule,
            outcome: format!(
                "the final activation panics: {} (from configuration {})",
                p.message,
                crate::explore::format_config::<P>(&ex.configs[p.config])
            ),
        };
        report.push(
            Diagnostic::error(
                ANALYSIS,
                contract.name,
                format!(
                    "transition panics on a reachable configuration of {}",
                    graph.name
                ),
            )
            .with_witness(w.to_string()),
        );
    }
    if ex.truncated && !contract.order_independent {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!(
                "exploration of {} truncated at the {}-configuration budget \
                 (bounded verification: totality checked on the explored prefix)",
                graph.name, contract.config_budget
            ),
        ));
    }
}

impl<P: Protocol> TotalityObserver<P> {
    /// Final verdicts after exploration and the growth probe: the merged
    /// recorder against the declared query bounds, and count-class
    /// functionality over the explored transitions.
    pub fn finish(
        self,
        contract: &SemanticContract,
        recorder: &QueryRecorder,
        report: &mut Report,
    ) {
        let mut bound_errors = 0usize;
        for q in 0..P::State::COUNT {
            if recorder.thresholds[q] > u64::from(P::MAX_THRESHOLD) {
                bound_errors += 1;
                if bound_errors <= 3 {
                    report.push(Diagnostic::error(
                        ANALYSIS,
                        contract.name,
                        format!(
                            "reachable transition queries state {} with threshold {} > declared \
                             MAX_THRESHOLD {}",
                            state::<P>(q as u32),
                            recorder.thresholds[q],
                            P::MAX_THRESHOLD
                        ),
                    ));
                }
            }
            if u64::from(P::MODULI_LCM.max(1)) % recorder.moduli[q] != 0 {
                bound_errors += 1;
                if bound_errors <= 3 {
                    report.push(Diagnostic::error(
                        ANALYSIS,
                        contract.name,
                        format!(
                            "reachable transition queries state {} with modulus lcm {} not \
                             dividing declared MODULI_LCM {}",
                            state::<P>(q as u32),
                            recorder.moduli[q],
                            P::MODULI_LCM.max(1)
                        ),
                    ));
                }
            }
        }
        if bound_errors > 3 {
            report.push(Diagnostic::note(
                ANALYSIS,
                contract.name,
                format!(
                    "{} further query-bound violations suppressed",
                    bound_errors - 3
                ),
            ));
        }

        for c in &self.conflicts {
            report.push(
                Diagnostic::error(
                    ANALYSIS,
                    contract.name,
                    "transition is not a function of the declared count classes \
                     (not the SM function its bounds claim)",
                )
                .with_witness(format!(
                    "own {}, coin {}: multiset {} maps to {} but multiset {} maps to {} — \
                     both multisets are identical under (min(μ, {}), μ mod {})",
                    state::<P>(c.own),
                    c.coin,
                    multiset::<P>(&c.counts_a),
                    state::<P>(c.next_a),
                    multiset::<P>(&c.counts_b),
                    state::<P>(c.next_b),
                    P::MAX_THRESHOLD,
                    P::MODULI_LCM.max(1),
                )),
            );
        }
        if self.conflict_count > self.conflicts.len() {
            report.push(Diagnostic::note(
                ANALYSIS,
                contract.name,
                format!(
                    "{} further count-class conflicts suppressed",
                    self.conflict_count - self.conflicts.len()
                ),
            ));
        }
        if self.saturated {
            report.push(Diagnostic::warning(
                ANALYSIS,
                contract.name,
                format!(
                    "signature table saturated at {SIG_CAP} entries; count-class \
                     functionality was sampled, not exhaustive"
                ),
            ));
        }
    }
}
