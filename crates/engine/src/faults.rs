//! Timed fault plans for the decreasing-benign fault model (Section 1),
//! extended with *arrival* events for the streaming churn engine.
//!
//! The paper's model only removes structure; [`FaultKind::AddNode`] and
//! [`FaultKind::AddEdge`] go beyond it so that long-running churn
//! workloads (ROADMAP item 3) can grow the network live. Removal-only
//! plans behave exactly as before, and legacy trace text parses
//! unchanged.

use fssga_graph::rng::Xoshiro256;
use fssga_graph::{DynGraph, NodeId};

use crate::network::Network;
use crate::protocol::{Protocol, StateSpace};

/// One churn event: a benign fault (removal) or an arrival.
///
/// The derived `Ord` is part of the replay contract: same-time events are
/// applied in `FaultKind` order (removals before arrivals, edges before
/// nodes within removals, node arrivals before edge arrivals), then by
/// ids — see [`FaultPlan::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// An edge dies.
    Edge(NodeId, NodeId),
    /// A node dies (with all incident edges).
    Node(NodeId),
    /// A fresh node joins the network, isolated, with the given id. The
    /// id must equal the node-slot count at application time (ids grow
    /// monotonically; dead slots are never recycled), otherwise the event
    /// is skipped as stale.
    AddNode(NodeId),
    /// A new edge appears between two alive nodes. Skipped if either
    /// endpoint is dead or the edge already exists.
    AddEdge(NodeId, NodeId),
}

impl FaultKind {
    /// The trace-text fields for this kind, as written inside `fault` /
    /// `event` lines: `edge {u} {v}`, `node {v}`, `add-node {v}`,
    /// `add-edge {u} {v}`. The removal tags are the legacy
    /// `campaign-trace v1` vocabulary; the arrival tags extend it without
    /// disturbing old traces.
    pub fn to_trace_fields(&self) -> String {
        match *self {
            FaultKind::Edge(u, v) => format!("edge {u} {v}"),
            FaultKind::Node(v) => format!("node {v}"),
            FaultKind::AddNode(v) => format!("add-node {v}"),
            FaultKind::AddEdge(u, v) => format!("add-edge {u} {v}"),
        }
    }

    /// Parses the fields written by [`Self::to_trace_fields`] from a
    /// whitespace token stream. Returns `None` on malformed input.
    pub fn from_trace_fields<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<FaultKind> {
        fn id<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<NodeId> {
            parts.next()?.parse().ok()
        }
        match parts.next()? {
            "edge" => Some(FaultKind::Edge(id(parts)?, id(parts)?)),
            "node" => Some(FaultKind::Node(id(parts)?)),
            "add-node" => Some(FaultKind::AddNode(id(parts)?)),
            "add-edge" => Some(FaultKind::AddEdge(id(parts)?, id(parts)?)),
            _ => None,
        }
    }
}

/// A fault scheduled at a point in (round/step) time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The time at or after which the fault fires.
    pub time: u64,
    /// What dies (or joins).
    pub kind: FaultKind,
}

/// A time-sorted sequence of faults, applied incrementally as simulated
/// time advances.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// Builds a plan; events are sorted by `(time, kind, ids)`. The full
    /// key (not just time) makes the ordering a function of the event
    /// *set*: shuffled input vectors replay bit-identically.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.time, e.kind));
        Self { events, cursor: 0 }
    }

    /// An empty plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// All events (sorted).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events not yet applied.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Applies every not-yet-applied fault with `time <= now`. Returns the
    /// number of faults applied. Faults that name already-dead or stale
    /// structure are silently skipped (a plan may kill a node and later
    /// "kill" one of its edges). Arriving nodes start in
    /// `P::State::from_index(0)`; use [`Self::apply_due_with`] to choose
    /// the initial state.
    pub fn apply_due<P: Protocol>(&mut self, net: &mut Network<P>, now: u64) -> usize {
        self.apply_due_with(net, now, |_| P::State::from_index(0))
    }

    /// [`Self::apply_due`] with an explicit initial state for arriving
    /// nodes (called with the new node's id).
    pub fn apply_due_with<P: Protocol>(
        &mut self,
        net: &mut Network<P>,
        now: u64,
        mut init: impl FnMut(NodeId) -> P::State,
    ) -> usize {
        let mut applied = 0;
        while self.cursor < self.events.len() && self.events[self.cursor].time <= now {
            net.apply_fault(self.events[self.cursor].kind, &mut init);
            self.cursor += 1;
            applied += 1;
        }
        applied
    }

    /// Generates a random removal-only plan: `count` faults at uniform
    /// times in `0..horizon`, each an edge fault with probability
    /// `edge_bias` (else a node fault), drawn from the *initial* topology.
    /// Nodes in `protected` are never killed directly (their edges may
    /// still be) — this is how sensitivity experiments spare the critical
    /// set.
    ///
    /// Always realizes exactly `count` events as long as at least one
    /// candidate pool (edges, or unprotected alive nodes) is non-empty:
    /// when the biased coin asks for a fault kind whose pool is empty, the
    /// event is drawn from the other pool instead of being dropped. If
    /// both pools are empty the plan is empty — callers can detect that
    /// via `events().len()`.
    pub fn random(
        graph: &DynGraph,
        count: usize,
        horizon: u64,
        edge_bias: f64,
        protected: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Self {
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let nodes: Vec<NodeId> = graph
            .alive_nodes()
            .filter(|v| !protected.contains(v))
            .collect();
        if edges.is_empty() && nodes.is_empty() {
            return Self::none();
        }
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let time = rng.gen_range(horizon.max(1));
            let want_edge = (rng.gen_bool(edge_bias) && !edges.is_empty()) || nodes.is_empty();
            let kind = if want_edge {
                let &(u, v) = rng.choose(&edges);
                FaultKind::Edge(u, v)
            } else {
                FaultKind::Node(*rng.choose(&nodes))
            };
            events.push(FaultEvent { time, kind });
        }
        Self::new(events)
    }

    /// [`Self::random`] extended with arrivals: each event is an arrival
    /// with probability `arrival_bias` (an [`FaultKind::AddEdge`] between
    /// two currently non-adjacent alive nodes when the `edge_bias` coin
    /// says edge and such a pair is found, else a fresh
    /// [`FaultKind::AddNode`]), and a departure otherwise. Events are
    /// assigned in chronological order against an evolving copy of the
    /// topology, so departures may target earlier arrivals and `AddNode`
    /// ids increase with time (the validity condition
    /// [`Self::apply_due_with`] checks). With `arrival_bias = 0.0` this
    /// is exactly [`Self::random`].
    #[allow(clippy::too_many_arguments)]
    pub fn random_with_arrivals(
        graph: &DynGraph,
        count: usize,
        horizon: u64,
        edge_bias: f64,
        arrival_bias: f64,
        protected: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Self {
        if arrival_bias <= 0.0 {
            return Self::random(graph, count, horizon, edge_bias, protected, rng);
        }
        let mut sim = graph.clone();
        let mut times: Vec<u64> = (0..count).map(|_| rng.gen_range(horizon.max(1))).collect();
        times.sort_unstable();
        let mut events = Vec::with_capacity(count);
        for time in times {
            let arrival = rng.gen_bool(arrival_bias);
            let kind = if arrival {
                Self::draw_arrival(&mut sim, edge_bias, rng)
            } else {
                match Self::draw_departure(&mut sim, edge_bias, protected, rng) {
                    Some(kind) => kind,
                    // Nothing left to remove: fall back to an arrival so
                    // the plan still realizes exactly `count` events.
                    None => Self::draw_arrival(&mut sim, edge_bias, rng),
                }
            };
            events.push(FaultEvent { time, kind });
        }
        Self::new(events)
    }

    /// Draws one arrival against `sim` and applies it there.
    fn draw_arrival(sim: &mut DynGraph, edge_bias: f64, rng: &mut Xoshiro256) -> FaultKind {
        if rng.gen_bool(edge_bias) && sim.n_alive() >= 2 {
            let pool: Vec<NodeId> = sim.alive_nodes().collect();
            for _ in 0..8 {
                let u = *rng.choose(&pool);
                let v = *rng.choose(&pool);
                if u != v && !sim.has_edge(u, v) {
                    let (u, v) = (u.min(v), u.max(v));
                    sim.add_edge(u, v);
                    return FaultKind::AddEdge(u, v);
                }
            }
            // Dense neighbourhood — give up on finding a missing pair.
        }
        FaultKind::AddNode(sim.add_node())
    }

    /// Draws one departure against `sim` and applies it there. `None` if
    /// both pools are empty.
    fn draw_departure(
        sim: &mut DynGraph,
        edge_bias: f64,
        protected: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Option<FaultKind> {
        let edges: Vec<(NodeId, NodeId)> = sim.edges().collect();
        let nodes: Vec<NodeId> = sim
            .alive_nodes()
            .filter(|v| !protected.contains(v))
            .collect();
        if edges.is_empty() && nodes.is_empty() {
            return None;
        }
        let want_edge = (rng.gen_bool(edge_bias) && !edges.is_empty()) || nodes.is_empty();
        Some(if want_edge {
            let &(u, v) = rng.choose(&edges);
            sim.remove_edge(u, v);
            FaultKind::Edge(u, v)
        } else {
            let v = *rng.choose(&nodes);
            sim.remove_node(v);
            FaultKind::Node(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;
    use crate::view::NeighborView;
    use fssga_graph::generators;

    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Unit {
        Only,
    }
    impl_state_space!(Unit { Only });

    struct Idle;
    impl Protocol for Idle {
        type State = Unit;
        fn transition(&self, own: Unit, _n: &NeighborView<'_, Unit>, _c: u32) -> Unit {
            own
        }
    }

    fn net(g: &fssga_graph::Graph) -> Network<Idle> {
        Network::new(g, Idle, |_| Unit::Only)
    }

    #[test]
    fn events_fire_in_time_order() {
        let g = generators::path(5);
        let mut n = net(&g);
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                time: 5,
                kind: FaultKind::Edge(1, 2),
            },
            FaultEvent {
                time: 2,
                kind: FaultKind::Node(4),
            },
        ]);
        assert_eq!(plan.remaining(), 2);
        assert_eq!(plan.apply_due(&mut n, 1), 0);
        assert_eq!(plan.apply_due(&mut n, 2), 1);
        assert!(!n.graph().is_alive(4));
        assert!(n.graph().has_edge(1, 2));
        assert_eq!(plan.apply_due(&mut n, 10), 1);
        assert!(!n.graph().has_edge(1, 2));
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn double_kill_is_harmless() {
        let g = generators::path(3);
        let mut n = net(&g);
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                time: 0,
                kind: FaultKind::Node(1),
            },
            FaultEvent {
                time: 1,
                kind: FaultKind::Edge(0, 1),
            },
            FaultEvent {
                time: 2,
                kind: FaultKind::Node(1),
            },
        ]);
        assert_eq!(plan.apply_due(&mut n, 100), 3);
        assert_eq!(n.graph().n_alive(), 2);
    }

    #[test]
    fn arrivals_apply_in_order() {
        let g = generators::path(3); // slots 0,1,2
        let mut n = net(&g);
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                time: 1,
                kind: FaultKind::AddNode(3),
            },
            FaultEvent {
                time: 1,
                kind: FaultKind::AddEdge(3, 2),
            },
            FaultEvent {
                time: 2,
                kind: FaultKind::AddNode(9), // stale id: skipped
            },
        ]);
        assert_eq!(plan.apply_due(&mut n, 1), 2);
        assert_eq!(n.graph().n_slots(), 4);
        assert!(n.graph().has_edge(2, 3));
        assert_eq!(plan.apply_due(&mut n, 5), 1, "stale arrival still consumed");
        assert_eq!(n.graph().n_slots(), 4, "stale arrival is a no-op");
        assert!(n.graph().is_connected());
    }

    #[test]
    fn same_time_arrival_pair_orders_node_before_edge() {
        // Derived FaultKind order: AddNode < AddEdge, so an arrival pair
        // scheduled at the same time works regardless of input order.
        let g = generators::path(2);
        let mut n = net(&g);
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                time: 3,
                kind: FaultKind::AddEdge(2, 0),
            },
            FaultEvent {
                time: 3,
                kind: FaultKind::AddNode(2),
            },
        ]);
        plan.apply_due(&mut n, 3);
        assert!(n.graph().has_edge(0, 2));
    }

    #[test]
    fn shuffled_inputs_replay_bit_identically() {
        // Satellite: same-round events are ordered by (time, kind, ids),
        // so the sorted plan is a function of the event *set*.
        let base = vec![
            FaultEvent {
                time: 4,
                kind: FaultKind::Node(1),
            },
            FaultEvent {
                time: 4,
                kind: FaultKind::Edge(2, 3),
            },
            FaultEvent {
                time: 4,
                kind: FaultKind::Edge(0, 1),
            },
            FaultEvent {
                time: 4,
                kind: FaultKind::AddNode(6),
            },
            FaultEvent {
                time: 2,
                kind: FaultKind::AddEdge(0, 5),
            },
            FaultEvent {
                time: 4,
                kind: FaultKind::Node(0),
            },
        ];
        let reference = FaultPlan::new(base.clone());
        let mut rng = Xoshiro256::seed_from_u64(99);
        for _ in 0..20 {
            let mut shuffled = base.clone();
            rng.shuffle(&mut shuffled);
            assert_eq!(FaultPlan::new(shuffled).events(), reference.events());
        }
    }

    #[test]
    fn random_plan_respects_protection() {
        let g = generators::complete(8);
        let base = net(&g);
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..20 {
            let plan = FaultPlan::random(base.graph(), 10, 50, 0.0, &[0, 1], &mut rng);
            for e in plan.events() {
                if let FaultKind::Node(v) = e.kind {
                    assert!(v != 0 && v != 1, "protected node scheduled to die");
                }
                assert!(e.time < 50);
            }
        }
    }

    #[test]
    fn random_plan_realizes_exact_count() {
        // Regression: node faults requested (edge_bias = 0) while every
        // node is protected used to silently drop events via `continue`;
        // now the events fall back to the edge pool.
        let g = generators::cycle(6);
        let base = net(&g);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let all: Vec<NodeId> = (0..6).collect();
        for count in [1usize, 5, 12] {
            let plan = FaultPlan::random(base.graph(), count, 30, 0.0, &all, &mut rng);
            assert_eq!(plan.events().len(), count, "count = {count}");
            assert!(plan
                .events()
                .iter()
                .all(|e| matches!(e.kind, FaultKind::Edge(_, _))));
        }
    }

    #[test]
    fn random_plan_empty_pools_yield_empty_plan() {
        let g = generators::path(3);
        let mut n = net(&g);
        for v in 0..3 {
            n.remove_node(v);
        }
        let mut rng = Xoshiro256::seed_from_u64(18);
        let plan = FaultPlan::random(n.graph(), 10, 20, 0.5, &[], &mut rng);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn random_plan_edge_bias_one_yields_edges_only() {
        let g = generators::cycle(10);
        let base = net(&g);
        let mut rng = Xoshiro256::seed_from_u64(8);
        let plan = FaultPlan::random(base.graph(), 15, 10, 1.0, &[], &mut rng);
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::Edge(_, _))));
    }

    #[test]
    fn arrival_plan_applies_cleanly_and_realizes_count() {
        let g = generators::cycle(8);
        let mut rng = Xoshiro256::seed_from_u64(41);
        for arrival_bias in [0.3, 0.7, 1.0] {
            let base = net(&g);
            let mut plan = FaultPlan::random_with_arrivals(
                base.graph(),
                24,
                40,
                0.5,
                arrival_bias,
                &[],
                &mut rng,
            );
            assert_eq!(plan.events().len(), 24);
            if arrival_bias >= 1.0 {
                assert!(plan
                    .events()
                    .iter()
                    .all(|e| matches!(e.kind, FaultKind::AddNode(_) | FaultKind::AddEdge(_, _))));
            }
            // Every AddNode must name the id that is fresh when it fires:
            // replay onto a live network and count the realized arrivals.
            let wanted = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::AddNode(_)))
                .count();
            let mut n = net(&g);
            plan.apply_due(&mut n, u64::MAX);
            assert_eq!(n.graph().n_slots(), 8 + wanted, "no stale AddNode ids");
        }
    }

    #[test]
    fn arrival_bias_zero_matches_random() {
        let g = generators::cycle(6);
        let base = net(&g);
        let a = FaultPlan::random_with_arrivals(
            base.graph(),
            10,
            20,
            0.5,
            0.0,
            &[],
            &mut Xoshiro256::seed_from_u64(5),
        );
        let b = FaultPlan::random(
            base.graph(),
            10,
            20,
            0.5,
            &[],
            &mut Xoshiro256::seed_from_u64(5),
        );
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn trace_fields_round_trip() {
        for kind in [
            FaultKind::Edge(3, 9),
            FaultKind::Node(7),
            FaultKind::AddNode(12),
            FaultKind::AddEdge(12, 1),
        ] {
            let text = kind.to_trace_fields();
            let parsed = FaultKind::from_trace_fields(&mut text.split_whitespace());
            assert_eq!(parsed, Some(kind), "{text}");
        }
        assert_eq!(
            FaultKind::from_trace_fields(&mut "frob 1 2".split_whitespace()),
            None
        );
        assert_eq!(
            FaultKind::from_trace_fields(&mut "edge 1".split_whitespace()),
            None
        );
    }
}
