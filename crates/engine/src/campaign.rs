//! The deterministic fault-campaign engine.
//!
//! A [`Campaign`] declaratively bundles everything a fault experiment
//! needs — initial graph, protocol, scheduler policy, time budget, a
//! [`FaultPlan`], and a correctness oracle — and [`Campaign::run`]
//! interleaves them: at every tick the due faults fire (recording the
//! graph-snapshot chain the "reasonably correct" predicate of Section 2
//! needs, without caller boilerplate), then one unit of computation runs
//! (a synchronous round, or one asynchronous sweep). The outcome carries a
//! fully seed-deterministic, serializable [`CampaignTrace`] — seed,
//! policy, applied fault schedule, activation order, verdict — so any
//! failure replays bit-for-bit via [`Campaign::replay`], and the
//! delta-debugging shrinker ([`crate::shrink`]) can minimize a failing
//! schedule by re-running the campaign as its test function.

use fssga_graph::rng::Xoshiro256;
use fssga_graph::{Graph, NodeId};

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::network::Network;
use crate::obs::{FaultSurgery, NullTracer, Tracer};
use crate::protocol::Protocol;
use crate::runner::{AsyncPolicy, Budget, Engine, Policy, Runner};
use crate::sensitivity::{reasonably_correct, Verdict};
use crate::shrink::{shrink_schedule, ShrinkResult};

/// How simulated time advances: one tick is one synchronous round, or one
/// asynchronous sweep (`n_alive` single activations) under a policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPolicy {
    /// Synchronous rounds.
    Sync,
    /// Asynchronous sweeps under the given activation policy.
    Async(AsyncPolicy),
}

impl RunPolicy {
    fn tag(self) -> &'static str {
        match self {
            RunPolicy::Sync => "sync",
            RunPolicy::Async(AsyncPolicy::UniformRandom) => "async-uniform",
            RunPolicy::Async(AsyncPolicy::RoundRobin) => "async-round-robin",
            RunPolicy::Async(AsyncPolicy::RandomPermutation) => "async-random-permutation",
        }
    }

    fn from_tag(s: &str) -> Option<Self> {
        Some(match s {
            "sync" => RunPolicy::Sync,
            "async-uniform" => RunPolicy::Async(AsyncPolicy::UniformRandom),
            "async-round-robin" => RunPolicy::Async(AsyncPolicy::RoundRobin),
            "async-random-permutation" => RunPolicy::Async(AsyncPolicy::RandomPermutation),
            _ => return None,
        })
    }
}

/// The replayable record of one campaign run. Two runs of the same
/// [`Campaign`] produce equal traces (including the full activation
/// order), which is the determinism contract the shrinker and the replay
/// test lean on. [`CampaignTrace::to_text`] / [`CampaignTrace::from_text`]
/// round-trip the trace through a line-oriented text format (no external
/// serialization dependency).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignTrace {
    /// The RNG seed the run started from.
    pub seed: u64,
    /// The scheduling policy.
    pub policy: RunPolicy,
    /// The tick budget.
    pub horizon: u64,
    /// Faults actually applied, with the tick each fired at.
    pub schedule: Vec<FaultEvent>,
    /// Flattened asynchronous activation order (empty for [`RunPolicy::Sync`]).
    pub activations: Vec<NodeId>,
    /// The verdict the run ended with.
    pub verdict: Verdict,
}

fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::ReasonablyCorrect => "reasonably-correct",
        Verdict::Incorrect => "incorrect",
        Verdict::Inconclusive => "inconclusive",
    }
}

fn verdict_from_tag(s: &str) -> Option<Verdict> {
    Some(match s {
        "reasonably-correct" => Verdict::ReasonablyCorrect,
        "incorrect" => Verdict::Incorrect,
        "inconclusive" => Verdict::Inconclusive,
        _ => return None,
    })
}

impl CampaignTrace {
    /// Serializes the trace to a stable line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("campaign-trace v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("policy {}\n", self.policy.tag()));
        out.push_str(&format!("horizon {}\n", self.horizon));
        out.push_str(&format!("verdict {}\n", verdict_tag(self.verdict)));
        for e in &self.schedule {
            // `to_trace_fields` writes the legacy `edge {u} {v}` /
            // `node {v}` forms verbatim, so removal-only traces are
            // byte-identical to the original v1 format.
            out.push_str(&format!("fault {} {}\n", e.time, e.kind.to_trace_fields()));
        }
        if !self.activations.is_empty() {
            out.push_str("activations");
            for &v in &self.activations {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace from [`Self::to_text`] output.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("campaign-trace v1") {
            return Err("missing 'campaign-trace v1' header".into());
        }
        let mut seed = None;
        let mut policy = None;
        let mut horizon = None;
        let mut verdict = None;
        let mut schedule = Vec::new();
        let mut activations = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("seed") => {
                    seed = Some(parse_field(parts.next(), "seed")?);
                }
                Some("policy") => {
                    let tag = parts.next().ok_or("policy missing value")?;
                    policy = Some(RunPolicy::from_tag(tag).ok_or(format!("bad policy {tag:?}"))?);
                }
                Some("horizon") => {
                    horizon = Some(parse_field(parts.next(), "horizon")?);
                }
                Some("verdict") => {
                    let tag = parts.next().ok_or("verdict missing value")?;
                    verdict = Some(verdict_from_tag(tag).ok_or(format!("bad verdict {tag:?}"))?);
                }
                Some("fault") => {
                    let time: u64 = parse_field(parts.next(), "fault time")?;
                    // Accepts the legacy `edge` / `node` vocabulary plus
                    // the arrival tags (`add-node` / `add-edge`).
                    let kind = FaultKind::from_trace_fields(&mut parts)
                        .ok_or_else(|| format!("bad fault kind in {line:?}"))?;
                    schedule.push(FaultEvent { time, kind });
                }
                Some("activations") => {
                    for tok in parts {
                        activations.push(tok.parse().map_err(|_| format!("bad id {tok:?}"))?);
                    }
                }
                Some(other) => return Err(format!("unknown line {other:?}")),
                None => {}
            }
        }
        Ok(CampaignTrace {
            seed: seed.ok_or("missing seed")?,
            policy: policy.ok_or("missing policy")?,
            horizon: horizon.ok_or("missing horizon")?,
            schedule,
            activations,
            verdict: verdict.ok_or("missing verdict")?,
        })
    }
}

fn parse_field<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.ok_or(format!("{what} missing"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

/// The outcome of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOutcome<A> {
    /// The verdict.
    pub verdict: Verdict,
    /// The answer the run produced (`None` ⇒ [`Verdict::Inconclusive`]).
    pub answer: Option<A>,
    /// The replayable trace.
    pub trace: CampaignTrace,
    /// The graph-snapshot chain `G_0 ⊇ G_1 ⊇ … ⊇ G_f` (one snapshot
    /// before any fault plus one after every applied fault) — the witness
    /// set [`reasonably_correct`] judged the answer against.
    pub snapshots: Vec<Graph>,
}

/// The answer-extraction half of a campaign's oracle: reads the final
/// answer off the surviving network, `None` when inconclusive.
///
/// `Send + Sync` so a `&Campaign` can be shared across the worker pool
/// by [`Campaign::sweep_parallel`] — campaign oracles are pure functions
/// of their arguments plus immutable captures, so the bounds cost
/// nothing in practice.
pub type AnswerFn<'a, P, A> = Box<dyn Fn(&Network<P>) -> Option<A> + Send + Sync + 'a>;

/// A declarative fault campaign over a [`Protocol`] network.
///
/// Every run is a pure function of the campaign: the RNG is reseeded, the
/// network is rebuilt from the initial graph, and the fault plan is
/// re-walked, so [`Campaign::run`], [`Campaign::shrink`], and
/// [`Campaign::replay`] all agree bit-for-bit. The correctness oracle is
/// split in two: `answer` reads the final answer off the surviving network
/// (returning `None` when the run is inconclusive), and `reference`
/// computes the fault-free answer on an arbitrary snapshot-chain member;
/// the verdict is [`Verdict::ReasonablyCorrect`] iff some chain member's
/// reference answer equals the run's answer (Section 2's definition, with
/// the realized chain as the witness set).
pub struct Campaign<'a, P: Protocol, A: PartialEq> {
    graph: Graph,
    protocol: Box<dyn Fn() -> P + Send + Sync + 'a>,
    init: Box<dyn Fn(NodeId) -> P::State + Send + Sync + 'a>,
    answer: AnswerFn<'a, P, A>,
    reference: Box<dyn Fn(&Graph) -> A + Send + Sync + 'a>,
    policy: RunPolicy,
    horizon: u64,
    seed: u64,
    plan: FaultPlan,
    engine: Engine,
}

impl<'a, P: Protocol, A: PartialEq> Campaign<'a, P, A> {
    /// A new campaign with defaults: synchronous rounds, horizon 100,
    /// seed 0, no faults.
    pub fn new(
        graph: &Graph,
        protocol: impl Fn() -> P + Send + Sync + 'a,
        init: impl Fn(NodeId) -> P::State + Send + Sync + 'a,
        answer: impl Fn(&Network<P>) -> Option<A> + Send + Sync + 'a,
        reference: impl Fn(&Graph) -> A + Send + Sync + 'a,
    ) -> Self {
        Self {
            graph: graph.clone(),
            protocol: Box::new(protocol),
            init: Box::new(init),
            answer: Box::new(answer),
            reference: Box::new(reference),
            policy: RunPolicy::Sync,
            horizon: 100,
            seed: 0,
            plan: FaultPlan::none(),
            engine: Engine::Auto,
        }
    }

    /// Selects the execution engine for synchronous ticks (the compiled
    /// kernel's fault hooks keep its dirty-set bookkeeping consistent
    /// across mid-run topology changes, so trajectories are identical
    /// either way).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the scheduling policy.
    pub fn policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the tick budget.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault plan.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The campaign's fault plan.
    pub fn current_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The initial graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Runs the campaign with its configured plan.
    pub fn run(&self) -> CampaignOutcome<A> {
        self.run_with_schedule(self.plan.events())
    }

    /// Like [`Self::run`], forwarding per-tick [`crate::RoundMetrics`]
    /// events and discrete [`FaultSurgery`] events to `tracer` (the
    /// `fssga-chaos --trace-out` artifact comes from here).
    pub fn run_traced<T: Tracer>(&self, tracer: &mut T) -> CampaignOutcome<A> {
        self.run_with_schedule_traced(self.plan.events(), tracer)
    }

    /// Runs the campaign with an alternative fault schedule (the shrinker
    /// and the sensitivity estimator go through here); everything else —
    /// seed, policy, horizon — is taken from the campaign.
    pub fn run_with_schedule(&self, schedule: &[FaultEvent]) -> CampaignOutcome<A> {
        self.run_with_schedule_traced(schedule, &mut NullTracer)
    }

    /// Traced variant of [`Self::run_with_schedule`]; zero-cost with
    /// [`NullTracer`].
    pub fn run_with_schedule_traced<T: Tracer>(
        &self,
        schedule: &[FaultEvent],
        tracer: &mut T,
    ) -> CampaignOutcome<A> {
        let mut events = schedule.to_vec();
        events.sort_by_key(|e| e.time);
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut net = Network::new(&self.graph, (self.protocol)(), &self.init);
        let mut snapshots = vec![net.graph().snapshot()];
        let mut trace = CampaignTrace {
            seed: self.seed,
            policy: self.policy,
            horizon: self.horizon,
            schedule: Vec::new(),
            activations: Vec::new(),
            verdict: Verdict::Inconclusive,
        };
        let mut cursor = 0usize;
        for tick in 0..self.horizon {
            // Faults due at this tick fire first, each extending the
            // snapshot chain the oracle judges against.
            while cursor < events.len() && events[cursor].time <= tick {
                let ev = events[cursor];
                cursor += 1;
                // Arrivals use the campaign's own init closure, so a
                // joining node starts exactly as it would have at time
                // zero.
                if net.apply_fault(ev.kind, &self.init) {
                    trace.schedule.push(FaultEvent {
                        time: tick,
                        kind: ev.kind,
                    });
                    snapshots.push(net.graph().snapshot());
                    if tracer.enabled() {
                        tracer.fault(&FaultSurgery {
                            round: tick,
                            kind: ev.kind,
                        });
                    }
                }
            }
            match self.policy {
                RunPolicy::Sync => {
                    Runner::new(&mut net)
                        .engine(self.engine)
                        .budget(Budget::Rounds(1))
                        .rng(&mut rng)
                        .tracer(&mut *tracer)
                        .run();
                }
                RunPolicy::Async(policy) => {
                    // The order is materialized here (not inside the
                    // runner) because the trace records it — and because
                    // order-building must consume the RNG *before* the
                    // activations draw their coins, exactly as the
                    // pre-`Runner` code did.
                    let alive: Vec<NodeId> = net.graph().alive_nodes().collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let order: Vec<NodeId> = match policy {
                        AsyncPolicy::UniformRandom => (0..alive.len())
                            .map(|_| alive[rng.gen_index(alive.len())])
                            .collect(),
                        AsyncPolicy::RoundRobin => alive,
                        AsyncPolicy::RandomPermutation => {
                            let mut order = alive;
                            rng.shuffle(&mut order);
                            order
                        }
                    };
                    Runner::new(&mut net)
                        .policy(Policy::Order(&order))
                        .budget(Budget::Steps(order.len()))
                        .rng(&mut rng)
                        .tracer(&mut *tracer)
                        .run();
                    trace.activations.extend_from_slice(&order);
                }
            }
        }
        let answer = (self.answer)(&net);
        trace.verdict = match &answer {
            None => Verdict::Inconclusive,
            Some(a) => {
                if reasonably_correct(&snapshots, a, &self.reference) {
                    Verdict::ReasonablyCorrect
                } else {
                    Verdict::Incorrect
                }
            }
        };
        CampaignOutcome {
            verdict: trace.verdict,
            answer,
            trace,
            snapshots,
        }
    }

    /// Replays a previously emitted trace: reruns the campaign with the
    /// trace's schedule (seed, policy, and horizon must match this
    /// campaign's — they are asserted). By determinism the returned
    /// outcome's trace equals `trace` bit-for-bit.
    pub fn replay(&self, trace: &CampaignTrace) -> CampaignOutcome<A> {
        assert_eq!(trace.seed, self.seed, "replay seed mismatch");
        assert_eq!(trace.policy, self.policy, "replay policy mismatch");
        assert_eq!(trace.horizon, self.horizon, "replay horizon mismatch");
        self.run_with_schedule(&trace.schedule)
    }

    /// Fans the `times × kinds` single-fault probes of the empirical
    /// sensitivity estimator out over `threads` threads, with this
    /// campaign's [`Self::run_with_schedule`] as the probe body. Every
    /// probe is an independent, fully seed-deterministic run, and the
    /// report is merged in sweep order, so the result is bit-identical
    /// to `sweep_single_faults(kinds, times, |s| self.run_with_schedule(s)
    /// .verdict)` for any thread count.
    pub fn sweep_parallel(
        &self,
        kinds: &[FaultKind],
        times: &[u64],
        threads: usize,
    ) -> crate::sensitivity::SensitivityReport {
        crate::sensitivity::sweep_single_faults_parallel(kinds, times, threads, |schedule| {
            self.run_with_schedule(schedule).verdict
        })
    }

    /// If the configured plan yields [`Verdict::Incorrect`], delta-debugs
    /// the fault schedule to a 1-minimal failing counterexample (dropping
    /// events, advancing times, weakening node kills to single-edge cuts)
    /// and returns it; `None` if the campaign does not fail.
    pub fn shrink(&self) -> Option<ShrinkResult> {
        if self.run().verdict != Verdict::Incorrect {
            return None;
        }
        Some(shrink_schedule(
            self.plan.events(),
            &self.graph,
            self.horizon,
            |schedule| self.run_with_schedule(schedule).verdict == Verdict::Incorrect,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::NeighborView;
    use fssga_graph::generators;

    // An OR-diffusion over 4 bits: bit b set anywhere spreads everywhere
    // reachable. The "answer" is node 0's final mask; the fault-free
    // reference on a chain graph is the OR over node 0's component.
    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    struct Mask(u8);
    impl crate::protocol::StateSpace for Mask {
        const COUNT: usize = 16;
        fn index(self) -> usize {
            self.0 as usize
        }
        fn from_index(i: usize) -> Self {
            Mask(i as u8)
        }
    }

    struct Or;
    impl Protocol for Or {
        type State = Mask;
        fn transition(&self, own: Mask, nbrs: &NeighborView<'_, Mask>, _c: u32) -> Mask {
            let mut acc = own.0;
            for s in nbrs.present_states() {
                acc |= s.0;
            }
            Mask(acc)
        }
    }

    fn init_mask(v: NodeId) -> Mask {
        Mask(1 << (v % 4))
    }

    fn or_campaign(g: &Graph) -> Campaign<'_, Or, u8> {
        Campaign::new(
            g,
            || Or,
            init_mask,
            |net: &Network<Or>| Some(net.state(0).0),
            |g: &Graph| {
                let d = fssga_graph::DynGraph::from_graph(g);
                d.component_of(0)
                    .into_iter()
                    .map(|v| init_mask(v).0)
                    .fold(0, |a, b| a | b)
            },
        )
    }

    #[test]
    fn fault_free_campaign_is_reasonably_correct() {
        let g = generators::path(9);
        let out = or_campaign(&g).horizon(20).run();
        assert_eq!(out.verdict, Verdict::ReasonablyCorrect);
        assert_eq!(out.answer, Some(0b1111));
        assert_eq!(out.snapshots.len(), 1);
        assert!(out.trace.schedule.is_empty());
    }

    #[test]
    fn snapshot_chain_grows_per_applied_fault() {
        let g = generators::path(9);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                time: 0,
                kind: FaultKind::Edge(4, 5),
            },
            FaultEvent {
                time: 2,
                kind: FaultKind::Edge(4, 5), // already dead: not applied
            },
            FaultEvent {
                time: 3,
                kind: FaultKind::Node(7),
            },
        ]);
        let out = or_campaign(&g).horizon(20).plan(plan).run();
        assert_eq!(out.snapshots.len(), 3, "initial + 2 applied faults");
        assert_eq!(out.trace.schedule.len(), 2);
        // Cut at time 0 before any diffusion: node 0 sees exactly its own
        // side's bits, the fault-free answer on the post-cut graph.
        assert_eq!(out.verdict, Verdict::ReasonablyCorrect);
    }

    #[test]
    fn traces_are_deterministic_and_round_trip() {
        let g = generators::grid(3, 4);
        let plan = FaultPlan::new(vec![FaultEvent {
            time: 1,
            kind: FaultKind::Node(5),
        }]);
        for policy in [
            RunPolicy::Sync,
            RunPolicy::Async(AsyncPolicy::UniformRandom),
            RunPolicy::Async(AsyncPolicy::RoundRobin),
            RunPolicy::Async(AsyncPolicy::RandomPermutation),
        ] {
            let c = or_campaign(&g)
                .horizon(15)
                .seed(42)
                .policy(policy)
                .plan(plan.clone());
            let a = c.run();
            let b = c.run();
            assert_eq!(a.trace, b.trace, "{policy:?}");
            let parsed = CampaignTrace::from_text(&a.trace.to_text()).unwrap();
            assert_eq!(parsed, a.trace, "{policy:?} text round-trip");
            let replayed = c.replay(&a.trace);
            assert_eq!(replayed.trace, a.trace, "{policy:?} replay");
        }
    }

    #[test]
    fn legacy_trace_text_round_trips_byte_identically() {
        // Satellite: removal-only trace text from before the arrival
        // vocabulary existed must parse unchanged and re-serialize to the
        // same bytes.
        let legacy = "campaign-trace v1\n\
                      seed 42\n\
                      policy sync\n\
                      horizon 15\n\
                      verdict reasonably-correct\n\
                      fault 1 node 5\n\
                      fault 3 edge 2 6\n";
        let parsed = CampaignTrace::from_text(legacy).unwrap();
        assert_eq!(
            parsed.schedule,
            vec![
                FaultEvent {
                    time: 1,
                    kind: FaultKind::Node(5),
                },
                FaultEvent {
                    time: 3,
                    kind: FaultKind::Edge(2, 6),
                },
            ]
        );
        assert_eq!(parsed.to_text(), legacy, "byte-identical re-serialization");

        // The extended vocabulary round-trips through the same parser.
        let churny = "campaign-trace v1\n\
                      seed 7\n\
                      policy sync\n\
                      horizon 9\n\
                      verdict inconclusive\n\
                      fault 2 add-node 12\n\
                      fault 2 add-edge 12 3\n";
        let parsed = CampaignTrace::from_text(churny).unwrap();
        assert_eq!(parsed.schedule[0].kind, FaultKind::AddNode(12));
        assert_eq!(parsed.schedule[1].kind, FaultKind::AddEdge(12, 3));
        assert_eq!(parsed.to_text(), churny);
        assert!(CampaignTrace::from_text(
            "campaign-trace v1\nseed 1\npolicy sync\nhorizon 1\nverdict inconclusive\nfault 0 frob 1\n"
        )
        .is_err());
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        use crate::sensitivity::sweep_single_faults;
        let g = generators::grid(3, 4);
        let c = or_campaign(&g).horizon(12).seed(9);
        let kinds: Vec<FaultKind> = (0..g.n() as NodeId).map(FaultKind::Node).collect();
        let times = [0u64, 2, 5];
        let sequential =
            sweep_single_faults(&kinds, &times, |s| c.run_with_schedule(s).verdict).probes;
        for threads in [1usize, 2, 4, 8] {
            let parallel = c.sweep_parallel(&kinds, &times, threads).probes;
            assert_eq!(sequential, parallel, "{threads} threads");
        }
    }

    #[test]
    fn strict_oracle_fails_and_shrinks_to_one_event() {
        // Oracle that only accepts the *initial* graph's answer: any fault
        // that actually hides bits from node 0 is a failure. Bury one
        // decisive cut (the time-0 edge cut isolating nodes 0..=3 from the
        // bit-3 carrier) in a pile of harmless faults.
        let g = generators::path(8);
        let strict = Campaign::new(
            &g,
            || Or,
            init_mask,
            |net: &Network<Or>| Some(net.state(0).0),
            |_: &Graph| 0b1111u8, // the full union, regardless of faults
        )
        .horizon(20)
        .plan(FaultPlan::new(vec![
            FaultEvent {
                time: 0,
                kind: FaultKind::Edge(2, 3),
            },
            FaultEvent {
                time: 5,
                kind: FaultKind::Edge(5, 6),
            },
            FaultEvent {
                time: 9,
                kind: FaultKind::Node(7),
            },
        ]));
        assert_eq!(strict.run().verdict, Verdict::Incorrect);
        let shrunk = strict.shrink().expect("campaign fails, must shrink");
        assert_eq!(shrunk.schedule.len(), 1, "1-minimal: {:?}", shrunk.schedule);
        assert_eq!(
            strict.run_with_schedule(&shrunk.schedule).verdict,
            Verdict::Incorrect
        );
    }
}
