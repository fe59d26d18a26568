//! Deliberately broken protocols that validate the checker itself.
//!
//! A verifier that has never failed anything proves nothing. These
//! protocols are seeded defects: each violates exactly one checked
//! property, and the test suite (including the golden-witness test)
//! asserts the checker catches it with a stable, replayable, minimized
//! counterexample.

use fssga_engine::{impl_state_space, Fold, NeighborView, Protocol};
use fssga_graph::NodeId;
use fssga_protocols::contract::{Scheduling, SemanticContract};

/// States of the [`FirstWins`] toy protocol.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FwState {
    /// Undecided.
    Blank,
    /// Committed to faction A.
    A,
    /// Committed to faction B.
    B,
}
impl_state_space!(FwState { Blank, A, B });

/// A sticky "first faction to reach me wins" rumor: `Blank` adopts `A`
/// if any neighbour has it, else `B` if any neighbour has that; decided
/// nodes never change. The tie-break prefers `A`, but *which* faction
/// reaches an undecided node first depends on the activation order — a
/// textbook order-DEPENDENT protocol whose (falsely) declared
/// order-independence the confluence check must refute.
pub struct FirstWins;

impl Protocol for FirstWins {
    type State = FwState;

    fn transition(&self, own: FwState, nbrs: &NeighborView<'_, FwState>, _coin: u32) -> FwState {
        match own {
            FwState::Blank => {
                if nbrs.some(FwState::A) {
                    FwState::A
                } else if nbrs.some(FwState::B) {
                    FwState::B
                } else {
                    FwState::Blank
                }
            }
            decided => decided,
        }
    }
}

/// Canonical initial configuration: node 0 seeds `A`, node 1 seeds `B`,
/// everyone else is undecided.
pub fn first_wins_init(v: NodeId) -> FwState {
    match v {
        0 => FwState::A,
        1 => FwState::B,
        _ => FwState::Blank,
    }
}

/// The (false) contract [`FirstWins`] ships with: it claims
/// order-independence, which fails on the first four-node instance where
/// two undecided nodes sit between the seeds.
pub const FIRST_WINS_CONTRACT: SemanticContract = SemanticContract {
    name: "broken-first-wins",
    order_independent: true,
    semilattice: false,
    scheduling: Scheduling::Any,
    sensitivity: fssga_engine::SensitivityClass::Linear,
    max_nodes: 4,
    config_budget: 10_000,
};

/// States of the [`Overcounter`] toy protocol.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OcState {
    /// Few crowded neighbours seen so far.
    Lo,
    /// Saw at least three `Lo` neighbours at once.
    Hi,
}
impl_state_space!(OcState { Lo, Hi });

/// Queries `μ_Lo >= 3` while leaving `MAX_THRESHOLD` at its default of
/// 2 — the query-bound violation the semantic totality pass must flag
/// (and, equivalently, a transition that is not a function of the
/// declared count classes: multisets with two and three `Lo` neighbours
/// are identical under `min(μ, 2)` yet map to different states).
pub struct Overcounter;

impl Protocol for Overcounter {
    type State = OcState;

    fn transition(&self, own: OcState, nbrs: &NeighborView<'_, OcState>, _coin: u32) -> OcState {
        if own == OcState::Lo && nbrs.at_least(OcState::Lo, 3) {
            OcState::Hi
        } else {
            own
        }
    }
}

/// The contract [`Overcounter`] ships with.
pub const OVERCOUNTER_CONTRACT: SemanticContract = SemanticContract {
    name: "broken-overcounter",
    order_independent: false,
    semilattice: false,
    scheduling: Scheduling::Any,
    sensitivity: fssga_engine::SensitivityClass::Linear,
    max_nodes: 4,
    config_budget: 10_000,
};

/// States of the [`CrowdCounter`] toy protocol.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CrowdState {
    /// Faction A.
    A,
    /// Faction B.
    B,
}
impl_state_space!(CrowdState { A, B });

/// Asks `μ_A >= 3` only when `μ_A >= 2 ∧ μ_B >= 2`, while leaving
/// `MAX_THRESHOLD` at its default of 2. The over-threshold query needs a
/// node of degree at least 4, so exploration on graphs of at most four
/// nodes never makes it; only the growth probe's larger graphs do. A `B`
/// node in such a crowd with three `A` neighbours joins `A`.
pub struct CrowdCounter;

impl Protocol for CrowdCounter {
    type State = CrowdState;

    fn transition(
        &self,
        own: CrowdState,
        nbrs: &NeighborView<'_, CrowdState>,
        _coin: u32,
    ) -> CrowdState {
        if nbrs.at_least(CrowdState::A, 2)
            && nbrs.at_least(CrowdState::B, 2)
            && nbrs.at_least(CrowdState::A, 3)
        {
            CrowdState::A
        } else {
            own
        }
    }
}

/// Canonical initial configuration: even nodes `A`, odd nodes `B`.
pub fn crowd_counter_init(v: NodeId) -> CrowdState {
    if v.is_multiple_of(2) {
        CrowdState::A
    } else {
        CrowdState::B
    }
}

/// The contract [`CrowdCounter`] ships with, at the quick scale's four
/// nodes.
pub const CROWD_COUNTER_CONTRACT: SemanticContract = SemanticContract {
    name: "broken-crowd-counter",
    order_independent: false,
    semilattice: false,
    scheduling: Scheduling::Any,
    sensitivity: fssga_engine::SensitivityClass::Linear,
    max_nodes: 4,
    config_budget: 10_000,
};

/// States of the [`ForgetfulOr`] toy protocol.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OrState {
    /// Not yet reached.
    Off,
    /// Reached by the diffusion.
    On,
}
impl_state_space!(OrState { Off, On });

/// An OR-diffusion whose declared fold drops the node's own state:
/// `transition` keeps `On` once set, but `finish` returns the
/// neighbours' OR alone. `join` is a lawful OR, so the one defect is
/// the fold disagreeing with the transition — at an `On` node whose
/// neighbours are all `Off`, where the compiled kernel's fold plan would
/// switch the node off.
pub struct ForgetfulOr;

impl Protocol for ForgetfulOr {
    type State = OrState;
    const FOLD: Option<Fold<OrState>> = Some(Fold {
        join: |a, b| if a == OrState::On { a } else { b },
        finish: |_own, joined| joined,
    });

    fn transition(&self, own: OrState, nbrs: &NeighborView<'_, OrState>, _coin: u32) -> OrState {
        if own == OrState::On || nbrs.some(OrState::On) {
            OrState::On
        } else {
            OrState::Off
        }
    }
}

/// The contract [`ForgetfulOr`] ships with. Its transition is a true
/// OR-diffusion, so the order-independence claim holds; only the fold
/// check fails.
pub const FORGETFUL_OR_CONTRACT: SemanticContract = SemanticContract {
    name: "broken-forgetful-or",
    order_independent: true,
    semilattice: false,
    scheduling: Scheduling::Any,
    sensitivity: fssga_engine::SensitivityClass::Zero,
    max_nodes: 4,
    config_budget: 10_000,
};
