//! Section 2.2: decentralized shortest paths and clustering.
//!
//! Every node keeps one label `ℓ(v)`; sinks (the set `T`) pin theirs to 0
//! and everyone else repeatedly applies `ℓ(v) := 1 + min ℓ(neighbours)`,
//! capped at a maximum (the paper caps at `n` in case a component has no
//! sink). A node at distance `d` stabilizes at `d` within `d` rounds, and
//! the labels implicitly route packets along shortest paths to the
//! nearest sink ("data sinks" in the sensor-network motivation).
//!
//! The label cap is the const parameter `CAP`; the state space is
//! `{Sink} ∪ {0..=CAP}`, so this is finite-state for a fixed cap (the
//! paper's Section 2 algorithms allow integer state; in the FSSGA model
//! the same idea reappears mod 3 as the Section 4.3 BFS).

use fssga_engine::{Fold, NeighborView, Protocol, SensitiveProtocol, SensitivityClass, StateSpace};
use fssga_graph::exact::UNREACHABLE;
use fssga_graph::{Graph, NodeId};

/// Node state: a sink, or a tentative distance label in `0..=CAP`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SpState<const CAP: usize> {
    /// A member of the sink set `T` (label fixed at 0).
    Sink,
    /// A non-sink node with the given tentative label.
    Label(u16),
}

impl<const CAP: usize> SpState<CAP> {
    /// The effective label value (sinks are 0).
    pub fn label(self) -> u16 {
        match self {
            SpState::Sink => 0,
            SpState::Label(d) => d,
        }
    }
}

impl<const CAP: usize> StateSpace for SpState<CAP> {
    const COUNT: usize = CAP + 2;

    fn index(self) -> usize {
        match self {
            SpState::Sink => 0,
            SpState::Label(d) => 1 + d as usize,
        }
    }

    fn from_index(i: usize) -> Self {
        assert!(i < Self::COUNT);
        if i == 0 {
            SpState::Sink
        } else {
            SpState::Label((i - 1) as u16)
        }
    }
}

/// The `ℓ(v) := 1 + min` relaxation protocol.
///
/// The transition is a fold, so the compiled kernel takes the fold plan:
/// `join` keeps the neighbour with the smaller state index (`Sink` <
/// `Label(0)` < `Label(1)` < …, so the minimum label, and commutative on
/// states even though `Sink` and `Label(0)` share label 0), and `finish`
/// keeps a sink and otherwise relaxes to `min(label + 1, CAP)`.
pub struct ShortestPaths<const CAP: usize>;

impl<const CAP: usize> ShortestPaths<CAP> {
    /// Initial state: sinks are `Sink`, others start at the cap (the
    /// algorithm is monotone decreasing from above, which is also what
    /// makes re-convergence after faults work).
    pub fn init(is_sink: bool) -> SpState<CAP> {
        if is_sink {
            SpState::Sink
        } else {
            SpState::Label(CAP as u16)
        }
    }

    fn nearer(a: SpState<CAP>, b: SpState<CAP>) -> SpState<CAP> {
        if b.index() < a.index() {
            b
        } else {
            a
        }
    }

    fn relax(own: SpState<CAP>, nearest: SpState<CAP>) -> SpState<CAP> {
        match own {
            SpState::Sink => SpState::Sink,
            SpState::Label(_) => SpState::Label((nearest.label() + 1).min(CAP as u16)),
        }
    }
}

impl<const CAP: usize> Protocol for ShortestPaths<CAP> {
    type State = SpState<CAP>;
    const COMPILED: bool = true;
    const FOLD: Option<Fold<SpState<CAP>>> = Some(Fold {
        join: Self::nearer,
        finish: Self::relax,
    });

    fn transition(
        &self,
        own: SpState<CAP>,
        nbrs: &NeighborView<'_, SpState<CAP>>,
        _coin: u32,
    ) -> SpState<CAP> {
        match own {
            SpState::Sink => SpState::Sink,
            SpState::Label(_) => {
                // min over present neighbour labels, via present_states
                // (a chain of μ >= 1 queries — symmetric and finite).
                let mut best = CAP as u16;
                for s in nbrs.present_states() {
                    best = best.min(s.label());
                }
                SpState::Label((best + 1).min(CAP as u16))
            }
        }
    }
}

/// The relaxation recomputes every label from the *current* neighbour
/// minimum on each activation (it is self-stabilizing, not merely
/// monotone), so like census it is 0-sensitive: after any benign fault the
/// surviving component's labels re-converge to that component's true
/// distances.
impl<const CAP: usize> SensitiveProtocol for ShortestPaths<CAP> {
    fn algorithm_name() -> &'static str {
        "shortest-paths"
    }

    fn declared_class() -> SensitivityClass {
        SensitivityClass::Zero
    }
}

/// The checked semantic contract. The `1 + min` relaxation from the
/// all-`CAP` initial configuration is confluent: every label stays
/// `>= ` its true distance along any run, the unique fixed point is the
/// capped distance vector, and the checker verifies the changing-step
/// relation is acyclic on every family instance. It is *not* a
/// semilattice join (`a ∘ b = min(b)+1` is not idempotent).
pub const CONTRACT: crate::contract::SemanticContract = crate::contract::SemanticContract {
    name: "shortest-paths",
    order_independent: true,
    semilattice: false,
    scheduling: crate::contract::Scheduling::Any,
    sensitivity: SensitivityClass::Zero,
    max_nodes: 6,
    config_budget: 50_000,
};

/// Extracts all labels as distances (`UNREACHABLE` for nodes still at the
/// cap, which after convergence means "no sink in my component within CAP
/// hops").
pub fn labels_as_distances<const CAP: usize>(states: &[SpState<CAP>]) -> Vec<u32> {
    states
        .iter()
        .map(|s| match s {
            SpState::Sink => 0,
            SpState::Label(d) if (*d as usize) >= CAP => UNREACHABLE,
            SpState::Label(d) => *d as u32,
        })
        .collect()
}

/// Greedy sink routing: from `start`, repeatedly step to a minimum-label
/// neighbour; returns the path if it reaches a sink within `n` hops.
/// (The paper: "If each node routes packets to a minimum-label neighbour,
/// then every packet traverses a shortest path to the nearest sink.")
pub fn route_to_sink<const CAP: usize>(
    g: &Graph,
    states: &[SpState<CAP>],
    start: NodeId,
) -> Option<Vec<NodeId>> {
    let mut path = vec![start];
    let mut cur = start;
    for _ in 0..g.n() {
        if states[cur as usize] == SpState::Sink {
            return Some(path);
        }
        let next = g
            .neighbors(cur)
            .iter()
            .copied()
            .min_by_key(|&w| states[w as usize].label())?;
        if states[next as usize].label() >= states[cur as usize].label() {
            return None; // stuck in an unconverged or sink-free region
        }
        path.push(next);
        cur = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_engine::Network;
    use fssga_engine::{AsyncPolicy, Budget, Policy, Runner};
    use fssga_graph::rng::Xoshiro256;
    use fssga_graph::{exact, generators};

    const CAP: usize = 64;

    fn run<const C: usize>(
        g: &fssga_graph::Graph,
        sinks: &[NodeId],
    ) -> (Network<ShortestPaths<C>>, usize) {
        let mut net = Network::new(g, ShortestPaths::<C>, |v| {
            ShortestPaths::<C>::init(sinks.contains(&v))
        });
        let rounds = Runner::new(&mut net)
            .budget(Budget::Fixpoint(10 * C + 10))
            .run()
            .fixpoint
            .expect("must converge");
        (net, rounds)
    }

    #[test]
    fn labels_match_bfs_on_grid() {
        let g = generators::grid(5, 8);
        let sinks = [0u32];
        let (net, _) = run::<CAP>(&g, &sinks);
        let truth = exact::bfs_distances(&g, &sinks);
        assert_eq!(labels_as_distances(net.states()), truth);
    }

    #[test]
    fn multi_sink_labels_match_multi_source_bfs() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10 {
            let g = generators::connected_gnp(40, 0.08, &mut rng);
            let sinks = [3u32, 17, 31];
            let (net, _) = run::<CAP>(&g, &sinks);
            assert_eq!(
                labels_as_distances(net.states()),
                exact::bfs_distances(&g, &sinks)
            );
        }
    }

    #[test]
    fn converges_within_distance_rounds() {
        // "a node v at distance d from T will have its label stabilize at
        // d, within d rounds" — synchronous rounds; +1 for the quiescent
        // detection round.
        let g = generators::path(30);
        let (_, rounds) = run::<CAP>(&g, &[0]);
        assert!(rounds <= 30 + 1, "rounds = {rounds}");
    }

    #[test]
    fn cap_applies_in_sinkless_component() {
        let g = generators::path(6);
        let mut net = Network::new(&g, ShortestPaths::<8>, |v| ShortestPaths::<8>::init(v == 0));
        net.remove_edge(2, 3); // nodes 3..5 lose their sink
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(100))
            .run()
            .fixpoint
            .unwrap();
        let d = labels_as_distances(net.states());
        assert_eq!(&d[..3], &[0, 1, 2]);
        assert!(d[3..].iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn async_adversarial_sweeps_still_converge() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let g = generators::connected_gnp(30, 0.1, &mut rng);
        let sinks = [5u32];
        let mut net = Network::new(&g, ShortestPaths::<CAP>, |v| {
            ShortestPaths::<CAP>::init(sinks.contains(&v))
        });
        Runner::new(&mut net)
            .policy(Policy::Async(AsyncPolicy::RandomPermutation))
            .budget(Budget::Fixpoint(50 * CAP))
            .rng(&mut rng)
            .run()
            .fixpoint
            .expect("converges");
        assert_eq!(
            labels_as_distances(net.states()),
            exact::bfs_distances(&g, &sinks)
        );
    }

    #[test]
    fn zero_sensitive_recovery_after_fault() {
        // Remove an edge mid-run; labels re-converge to the new graph's
        // distances (0-sensitivity: no critical nodes at all)...
        let g = generators::grid(4, 6);
        let sinks = [0u32];
        let mut net = Network::new(&g, ShortestPaths::<CAP>, |v| {
            ShortestPaths::<CAP>::init(sinks.contains(&v))
        });
        let _rng = Xoshiro256::seed_from_u64(9);
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(1000))
            .run()
            .fixpoint
            .unwrap();
        net.remove_edge(0, 1); // distances through node 6 now longer
                               // ...but note: after deletion some labels must INCREASE, and the
                               // 1+min rule only creeps up by one per round — still converges.
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(10 * CAP))
            .run()
            .fixpoint
            .expect("re-converges");
        let snapshot = net.graph().snapshot();
        assert_eq!(
            labels_as_distances(net.states()),
            exact::bfs_distances(&snapshot, &sinks)
        );
    }

    #[test]
    fn routing_follows_shortest_paths() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let g = generators::connected_gnp(25, 0.15, &mut rng);
        let sinks = [0u32, 12];
        let (net, _) = run::<CAP>(&g, &sinks);
        let dist = exact::bfs_distances(&g, &sinks);
        for start in g.nodes() {
            let path = route_to_sink(&g, net.states(), start).expect("reaches a sink");
            assert_eq!(
                path.len() as u32 - 1,
                dist[start as usize],
                "path from {start} not shortest"
            );
            assert_eq!(path[0], start);
            assert!(sinks.contains(path.last().unwrap()));
            for w in path.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn compiled_protocol_matches_native() {
        // Small cap keeps the compiled alphabet tiny (CAP=3 -> 5 states).
        let auto = fssga_engine::compile::compile_protocol(&ShortestPaths::<3>, 1 << 20).unwrap();
        let g = generators::path(5);
        let mut native = Network::new(&g, ShortestPaths::<3>, |v| ShortestPaths::<3>::init(v == 0));
        let mut interp = fssga_engine::interp::InterpNetwork::new(&g, &auto, |v| {
            ShortestPaths::<3>::init(v == 0).index()
        });
        for round in 0..12 {
            native.sync_step_seeded(round);
            interp.sync_step_seeded(round);
            let ids: Vec<usize> = native.states().iter().map(|s| s.index()).collect();
            assert_eq!(&ids, interp.states());
        }
    }
}
