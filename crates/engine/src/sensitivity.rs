//! The Section 2 k-sensitivity harness.
//!
//! A protocol exposes its *critical set* `χ(σ)` — the nodes whose failure
//! (or mutual disconnection) may break the run. The harness injects
//! benign faults that respect the critical set, runs the algorithm, and
//! asks the caller's oracle whether the final answer was "reasonably
//! correct": equal to the fault-free answer on some graph `G'` with
//! `G_0 ⊇ G' ⊇ G_f`. The experiments of E13 use this to reproduce the
//! paper's sensitivity ranking (0-sensitive diffusion < 1-sensitive
//! agents < Θ(n)-sensitive tree algorithms).

use fssga_graph::rng::Xoshiro256;
use fssga_graph::NodeId;

use crate::faults::FaultKind;
use crate::network::Network;
use crate::protocol::Protocol;

/// How a faulted run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The answer matches a fault-free execution on some admissible
    /// subgraph (Section 2's "reasonably correct").
    ReasonablyCorrect,
    /// The answer is wrong even though no critical failure occurred.
    Incorrect,
    /// The run did not produce an answer within the budget.
    Inconclusive,
}

/// Identifies the critical nodes `χ(σ)` from the current network state.
/// The closure form keeps protocol crates free to define χ per algorithm
/// (the agent's position, the spanning-tree interior, the empty set...).
pub type CriticalFn<'a, P> = dyn Fn(&Network<P>) -> Vec<NodeId> + 'a;

/// A randomized injector of *non-critical* benign faults.
///
/// Each call to [`FaultInjector::try_inject`] flips a biased coin; on
/// success it picks a uniformly random fault among those that (a) do not
/// kill a critical node, and (b) if `keep_critical_connected` is set, do
/// not split the critical set across components — the two clauses of the
/// paper's critical-failure definition.
pub struct FaultInjector {
    /// Probability of attempting a fault per call.
    pub rate: f64,
    /// Probability that an attempted fault is an edge fault.
    pub edge_bias: f64,
    /// Enforce clause (b) of the critical-failure definition.
    pub keep_critical_connected: bool,
    /// Upper bound on total faults injected.
    pub budget: usize,
    injected: usize,
}

impl FaultInjector {
    /// A new injector with the given attempt rate and fault budget.
    pub fn new(rate: f64, edge_bias: f64, budget: usize) -> Self {
        Self {
            rate,
            edge_bias,
            keep_critical_connected: true,
            budget,
            injected: 0,
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Possibly injects one fault that is non-critical with respect to
    /// `critical`. Returns the fault if one was applied.
    ///
    /// A bounded number of uniformly random candidates is tried first (the
    /// common case on permissive topologies); if none of them is
    /// admissible, every candidate is scanned from a random offset, so an
    /// admissible fault is found whenever one *exists* — rejection
    /// sampling alone used to miss rare valid faults and made campaigns
    /// flaky.
    pub fn try_inject<P: Protocol>(
        &mut self,
        net: &mut Network<P>,
        critical: &CriticalFn<'_, P>,
        rng: &mut Xoshiro256,
    ) -> Option<FaultKind> {
        if self.injected >= self.budget || !rng.gen_bool(self.rate) {
            return None;
        }
        let crit = critical(net);
        // Gather candidates from the live topology.
        let kind = if rng.gen_bool(self.edge_bias) {
            let edges: Vec<(NodeId, NodeId)> = net.graph().edges().collect();
            if edges.is_empty() {
                return None;
            }
            // Fast path: a bounded number of random candidates.
            let mut pick = None;
            for _ in 0..24 {
                let &(u, v) = rng.choose(&edges);
                if self.edge_ok(net, &crit, u, v) {
                    pick = Some(FaultKind::Edge(u, v));
                    break;
                }
            }
            // Slow path: exhaustive scan from a random offset.
            if pick.is_none() {
                let start = rng.gen_index(edges.len());
                pick = (0..edges.len())
                    .map(|i| edges[(start + i) % edges.len()])
                    .find(|&(u, v)| self.edge_ok(net, &crit, u, v))
                    .map(|(u, v)| FaultKind::Edge(u, v));
            }
            pick?
        } else {
            let nodes: Vec<NodeId> = net
                .graph()
                .alive_nodes()
                .filter(|v| !crit.contains(v))
                .collect();
            if nodes.is_empty() {
                return None;
            }
            let mut pick = None;
            for _ in 0..24 {
                let v = *rng.choose(&nodes);
                if self.node_ok(net, &crit, v) {
                    pick = Some(FaultKind::Node(v));
                    break;
                }
            }
            if pick.is_none() {
                let start = rng.gen_index(nodes.len());
                pick = (0..nodes.len())
                    .map(|i| nodes[(start + i) % nodes.len()])
                    .find(|&v| self.node_ok(net, &crit, v))
                    .map(FaultKind::Node);
            }
            pick?
        };
        match kind {
            FaultKind::Edge(u, v) => {
                net.remove_edge(u, v);
            }
            FaultKind::Node(v) => {
                net.remove_node(v);
            }
            // The injector models the paper's decreasing faults; it never
            // picks arrivals (`pick` above only constructs removals).
            FaultKind::AddNode(_) | FaultKind::AddEdge(_, _) => {
                unreachable!("fault injector generates removals only")
            }
        }
        self.injected += 1;
        Some(kind)
    }

    fn edge_ok<P: Protocol>(
        &self,
        net: &Network<P>,
        crit: &[NodeId],
        u: NodeId,
        v: NodeId,
    ) -> bool {
        if !self.keep_critical_connected || crit.len() <= 1 {
            return true;
        }
        critical_connected_without(net.graph(), crit, Some((u, v)), None)
    }

    fn node_ok<P: Protocol>(&self, net: &Network<P>, crit: &[NodeId], v: NodeId) -> bool {
        if crit.contains(&v) {
            return false;
        }
        if !self.keep_critical_connected || crit.len() <= 1 {
            return true;
        }
        critical_connected_without(net.graph(), crit, None, Some(v))
    }
}

/// Whether every node of `crit` stays in one connected component after
/// hypothetically removing `skip_edge` and/or `skip_node` — a direct BFS
/// over the live adjacency, with no graph clone (the injector calls this
/// once per candidate, so the old clone-per-probe was the hot allocation
/// of every campaign).
fn critical_connected_without(
    g: &fssga_graph::DynGraph,
    crit: &[NodeId],
    skip_edge: Option<(NodeId, NodeId)>,
    skip_node: Option<NodeId>,
) -> bool {
    let Some(&start) = crit.first() else {
        return true;
    };
    if Some(start) == skip_node || !g.is_alive(start) {
        return false;
    }
    let skipped = |a: NodeId, b: NodeId| -> bool {
        matches!(skip_edge, Some((u, v)) if (a, b) == (u, v) || (a, b) == (v, u))
    };
    let mut seen = vec![false; g.n_slots()];
    let mut stack = vec![start];
    seen[start as usize] = true;
    let mut reached = 1usize;
    let in_crit = |x: NodeId| crit.contains(&x);
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(v) {
            if Some(w) == skip_node || seen[w as usize] || skipped(v, w) {
                continue;
            }
            seen[w as usize] = true;
            if in_crit(w) {
                reached += 1;
                if reached == crit.len() {
                    return true;
                }
            }
            stack.push(w);
        }
    }
    reached == crit.len()
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

    #[test]
    fn injector_never_kills_critical_nodes() {
        let g = generators::complete(10);
        let mut net = Network::new(&g, Idle, |_| Unit::Only);
        let critical = |_: &Network<Idle>| vec![0, 1];
        let mut inj = FaultInjector::new(1.0, 0.0, 6);
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..50 {
            inj.try_inject(&mut net, &critical, &mut rng);
        }
        assert!(net.graph().is_alive(0));
        assert!(net.graph().is_alive(1));
        assert!(inj.injected() <= 6);
        assert!(inj.injected() >= 1);
    }

    #[test]
    fn injector_keeps_critical_set_connected() {
        // Path: criticals at the two ends; every interior fault would
        // disconnect them, so no node faults can fire and no interior
        // edge faults either.
        let g = generators::path(6);
        let mut net = Network::new(&g, Idle, |_| Unit::Only);
        let critical = |_: &Network<Idle>| vec![0, 5];
        let mut inj = FaultInjector::new(1.0, 0.5, 100);
        let mut rng = Xoshiro256::seed_from_u64(2);
        for _ in 0..200 {
            inj.try_inject(&mut net, &critical, &mut rng);
        }
        let comp = net.graph().component_of(0);
        assert!(comp.contains(&5), "criticals must remain co-located");
    }

    #[test]
    fn rare_valid_fault_is_always_found() {
        // A long path between the two criticals (every path edge is
        // inadmissible) with two pendant leaves in the middle (the only
        // admissible edge faults). Bounded rejection sampling alone missed
        // them for many seeds; the exhaustive fallback must find one every
        // time.
        let mut edges: Vec<(u32, u32)> = (0..50).map(|i| (i, i + 1)).collect();
        edges.push((25, 51));
        edges.push((25, 52));
        let g = fssga_graph::Graph::from_edges(53, &edges);
        let critical = |_: &Network<Idle>| vec![0, 50];
        for seed in 0..20u64 {
            let mut net = Network::new(&g, Idle, |_| Unit::Only);
            let mut inj = FaultInjector::new(1.0, 1.0, 1);
            let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
            let got = inj.try_inject(&mut net, &critical, &mut rng);
            assert!(
                matches!(got, Some(FaultKind::Edge(u, v)) if (u == 25 && v > 50) || (v == 25 && u > 50)),
                "seed {seed}: expected a pendant edge fault, got {got:?}"
            );
        }
    }

    #[test]
    fn budget_is_respected() {
        let g = generators::complete(12);
        let mut net = Network::new(&g, Idle, |_| Unit::Only);
        let critical = |_: &Network<Idle>| Vec::new();
        let mut inj = FaultInjector::new(1.0, 1.0, 3);
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..100 {
            inj.try_inject(&mut net, &critical, &mut rng);
        }
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let g = generators::complete(5);
        let mut net = Network::new(&g, Idle, |_| Unit::Only);
        let critical = |_: &Network<Idle>| Vec::new();
        let mut inj = FaultInjector::new(0.0, 0.5, 10);
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..100 {
            assert!(inj.try_inject(&mut net, &critical, &mut rng).is_none());
        }
        assert_eq!(net.graph().m(), 10);
    }
}

/// The declared asymptotic size of an algorithm's critical set `χ(σ)` —
/// the paper's sensitivity ranking (Section 2): iterated-function
/// diffusions are 0-sensitive, agent algorithms are O(1)-sensitive, and
/// tree-based algorithms are Θ(n)-sensitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SensitivityClass {
    /// `χ = ∅`: any benign fault leaves the algorithm reasonably correct.
    Zero,
    /// `|χ| ≤ k` at every instant, independent of `n`.
    Constant(usize),
    /// `|χ| = Θ(n)` on typical topologies.
    Linear,
}

impl SensitivityClass {
    /// The concrete bound on `|χ(σ)|` this class admits on an `n`-node
    /// instance.
    pub fn bound(self, n: usize) -> usize {
        match self {
            SensitivityClass::Zero => 0,
            SensitivityClass::Constant(k) => k,
            SensitivityClass::Linear => n,
        }
    }
}

/// A running algorithm instance that knows its own critical set.
///
/// Implemented by each protocol's harness (or `Network<P>` directly for
/// pure diffusion protocols), so campaigns and the empirical sensitivity
/// estimator can query `χ(σ)` without per-algorithm plumbing. The
/// *declared* class and set are cross-checked empirically by
/// [`sweep_single_faults`]: every single kill that breaks the run must
/// name a declared critical node.
pub trait Sensitive {
    /// Human-readable algorithm name (diagnostics, `fssga-chaos` output).
    fn algorithm(&self) -> &'static str;

    /// The declared asymptotic sensitivity class.
    fn sensitivity_class(&self) -> SensitivityClass;

    /// The critical nodes `χ(σ)` of the *current* configuration.
    fn critical_set(&self) -> Vec<NodeId>;
}

/// Sensitivity declaration for a bare protocol whose critical set is a
/// function of the network configuration alone (no driving harness) —
/// census, shortest paths, the α synchronizer. The orphan rule stops
/// protocol crates from implementing [`Sensitive`] on `Network<P>`
/// directly (both the trait and `Network` live here), so they implement
/// this on their local protocol type and the blanket impl below lifts it.
pub trait SensitiveProtocol: Protocol + Sized {
    /// Human-readable algorithm name.
    fn algorithm_name() -> &'static str;

    /// The declared asymptotic sensitivity class.
    fn declared_class() -> SensitivityClass;

    /// The critical nodes `χ(σ)` of `net`'s current configuration.
    /// Defaults to the empty set (the 0-sensitive case).
    fn critical_of(net: &Network<Self>) -> Vec<NodeId> {
        let _ = net;
        Vec::new()
    }
}

impl<P: SensitiveProtocol> Sensitive for Network<P> {
    fn algorithm(&self) -> &'static str {
        P::algorithm_name()
    }

    fn sensitivity_class(&self) -> SensitivityClass {
        P::declared_class()
    }

    fn critical_set(&self) -> Vec<NodeId> {
        P::critical_of(self)
    }
}

/// One probe of the empirical sensitivity sweep: a lone fault injected at
/// one instant of an otherwise fault-free run, and the verdict it caused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SingleFaultProbe {
    /// When the fault was injected.
    pub time: u64,
    /// The injected fault.
    pub kind: FaultKind,
    /// How the probed run ended.
    pub verdict: Verdict,
}

/// The result of a [`sweep_single_faults`] campaign: one verdict per
/// `(time, fault)` pair.
#[derive(Clone, Debug, Default)]
pub struct SensitivityReport {
    /// All probes, in sweep order.
    pub probes: Vec<SingleFaultProbe>,
}

impl SensitivityReport {
    /// Probes whose verdict was [`Verdict::Incorrect`].
    pub fn harmful(&self) -> impl Iterator<Item = &SingleFaultProbe> {
        self.probes
            .iter()
            .filter(|p| p.verdict == Verdict::Incorrect)
    }

    /// Nodes whose lone kill at `time` broke the run.
    pub fn harmful_nodes_at(&self, time: u64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .harmful()
            .filter(|p| p.time == time)
            .filter_map(|p| match p.kind {
                FaultKind::Node(v) => Some(v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The empirical lower bound on `max_t |χ(σ_t)|`: the largest number
    /// of distinct harmful node kills observed at any single instant.
    pub fn empirical_sensitivity(&self) -> usize {
        let mut times: Vec<u64> = self.probes.iter().map(|p| p.time).collect();
        times.sort_unstable();
        times.dedup();
        times
            .into_iter()
            .map(|t| self.harmful_nodes_at(t).len())
            .max()
            .unwrap_or(0)
    }

    /// Cross-checks the declared critical sets: every harmful node kill at
    /// instant `t` must name a node of `critical_at(t)` (the declared
    /// `χ(σ_t)` of the fault-free run). Returns the violations — empty
    /// means the declaration *covers* every empirically observed breakage.
    pub fn uncovered_by(
        &self,
        mut critical_at: impl FnMut(u64) -> Vec<NodeId>,
    ) -> Vec<(u64, NodeId)> {
        let mut times: Vec<u64> = self.probes.iter().map(|p| p.time).collect();
        times.sort_unstable();
        times.dedup();
        let mut out = Vec::new();
        for t in times {
            let declared = critical_at(t);
            for v in self.harmful_nodes_at(t) {
                if !declared.contains(&v) {
                    out.push((t, v));
                }
            }
        }
        out
    }
}

/// The empirical k-sensitivity estimator: for every `(time, fault)` pair
/// in `times × kinds`, runs one deterministic campaign with exactly that
/// lone fault injected and records the verdict. `run` receives the full
/// (single-event) schedule and must be a pure function of it — rebuild the
/// algorithm and reseed the RNG inside. The count of distinct node kills
/// that yield `Incorrect` at an instant lower-bounds `|χ(σ)|` there, which
/// is what certifies the paper's 0 / 1 / Θ(n) ranking.
pub fn sweep_single_faults(
    kinds: &[FaultKind],
    times: &[u64],
    mut run: impl FnMut(&[crate::faults::FaultEvent]) -> Verdict,
) -> SensitivityReport {
    let mut report = SensitivityReport::default();
    for &time in times {
        for &kind in kinds {
            let schedule = [crate::faults::FaultEvent { time, kind }];
            let verdict = run(&schedule);
            report.probes.push(SingleFaultProbe {
                time,
                kind,
                verdict,
            });
        }
    }
    report
}

/// The paper's "reasonably correct" predicate (Section 2), made
/// executable over the *realized* graph chain: an execution with answer
/// `answer` is reasonably correct if some graph `G'` with
/// `G0 ⊇ G' ⊇ G_f` yields the same answer in a fault-free run. Checking
/// every graph between the endpoints is exponential; the chain of graphs
/// that actually occurred (snapshot after each fault) is the natural
/// witness set, so this check is *sound* (a `true` is a genuine witness)
/// though not complete.
pub fn reasonably_correct<A: PartialEq>(
    snapshots: &[fssga_graph::Graph],
    answer: &A,
    mut fault_free_oracle: impl FnMut(&fssga_graph::Graph) -> A,
) -> bool {
    snapshots.iter().any(|g| fault_free_oracle(g) == *answer)
}

#[cfg(test)]
mod reasonable_tests {
    use super::*;
    use fssga_graph::{exact, generators, DynGraph};

    #[test]
    fn matching_any_chain_member_suffices() {
        // Oracle: number of connected components. Chain: path, then cut.
        let g0 = generators::path(6);
        let mut d = DynGraph::from_graph(&g0);
        let s0 = d.snapshot();
        d.remove_edge(2, 3);
        let s1 = d.snapshot();
        let oracle = |g: &fssga_graph::Graph| exact::connected_components(g).0;
        // An execution that answered "2 components" is reasonable w.r.t.
        // the post-fault graph...
        assert!(reasonably_correct(&[s0.clone(), s1.clone()], &2, oracle));
        // ...and one that answered "1" w.r.t. the initial graph.
        assert!(reasonably_correct(&[s0.clone(), s1.clone()], &1, oracle));
        // "3" matches nothing in the chain.
        assert!(!reasonably_correct(&[s0, s1], &3, oracle));
    }

    #[test]
    fn census_outcome_is_reasonable_under_partition() {
        use fssga_graph::rng::Xoshiro256;
        // End-to-end: a faulted census run's answer must equal a fault-free
        // run on SOME chain member — here, the post-cut graph.
        let mut rng = Xoshiro256::seed_from_u64(99);
        let g0 = generators::path(16);
        let sketches: Vec<u16> = (0..16).map(|_| 1u16 << rng.gen_index(6)).collect();
        // "Algorithm": OR of sketches over the component of node 0.
        let run = |g: &fssga_graph::Graph| -> u16 {
            let mut acc = 0u16;
            let comp = {
                let d = DynGraph::from_graph(g);
                d.component_of(0)
            };
            for v in comp {
                acc |= sketches[v as usize];
            }
            acc
        };
        let mut d = DynGraph::from_graph(&g0);
        let s0 = d.snapshot();
        d.remove_edge(7, 8);
        let s1 = d.snapshot();
        let faulted_answer = run(&s1); // diffusion converged after the cut
        assert!(reasonably_correct(&[s0, s1], &faulted_answer, run));
    }
}
