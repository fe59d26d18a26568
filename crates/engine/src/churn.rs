//! Streaming churn: long-running workloads where nodes and edges arrive
//! *and* depart while the protocol keeps executing.
//!
//! The paper's fault model (Section 1) only removes structure, and the
//! [`crate::campaign`] engine checks "reasonably correct" once, at the
//! horizon. Real deployments of self-stabilizing protocols face the
//! opposite regime: a stream of small topology events with the network
//! expected to *reconverge* after each burst. This module supplies that
//! regime in three deterministic, replayable pieces:
//!
//! * [`ChurnStream`] — a seeded, rate-configurable schedule of
//!   [`FaultEvent`]s (arrivals and departures) generated against an
//!   evolving mirror of the topology, with a line-oriented text format
//!   (`churn-stream v1`) like [`crate::CampaignTrace`]'s so streams can
//!   be archived and replayed byte-identically.
//! * The churn harness ([`run_churn_traced`] /
//!   [`run_churn_oracle_traced`]) — interleaves due events into the
//!   kernel's round loop, walking the stream in place with the one
//!   schedule cursor every [`FaultPlan`] uses. Every event goes through
//!   [`crate::Network::apply_fault`], which changes the graph and
//!   reschedules only the touched nodes, so per-event recompute work is
//!   bounded by the dirty-set scheduler instead of a from-scratch
//!   rebuild.
//! * Continuous oracle mode — a sliding window of topology snapshots
//!   checked with [`crate::reasonably_correct`] every `check_every`
//!   rounds (not only at the horizon), plus a recovery-time metric: the
//!   number of rounds from a churn burst's first event until the network
//!   is quiescent again (no state change and an empty dirty set). Both
//!   surface per round through [`Tracer::churn_round`] as
//!   [`ChurnRoundMetrics`] and aggregate into a [`ChurnReport`].
//!
//! Replay tolerance: like [`crate::FaultPlan`], events that name stale
//! structure (a dead endpoint, an already-present edge, an `add-node` id
//! that is not the next slot) are skipped silently, so a stream generated
//! against one evolution prefix stays safe to apply against another.

use fssga_graph::rng::Xoshiro256;
use fssga_graph::{DynGraph, Graph, NodeId};

use crate::faults::{read_schedule_text, FaultEvent, FaultKind, FaultPlan};
use crate::network::Network;
use crate::obs::{ChurnRoundMetrics, FaultSurgery, Tracer};
use crate::protocol::Protocol;
use crate::runner::CancelToken;
use crate::sensitivity::reasonably_correct;

/// Parameters for [`ChurnStream::generate`].
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// RNG seed; the stream is a pure function of `(initial topology,
    /// config)`.
    pub seed: u64,
    /// Rounds the stream spans; events carry times in `0..horizon`.
    pub horizon: u64,
    /// Mean events per round. Realized by a deterministic accumulator
    /// (`budget += rate` each round, one event drawn per whole unit), so
    /// fractional rates spread events evenly instead of clustering.
    pub rate: f64,
    /// Probability an event is an arrival (else a departure). Departures
    /// with empty candidate pools fall back to arrivals, so the realized
    /// event count tracks `rate * horizon` regardless.
    pub arrival_bias: f64,
    /// Probability an event targets an edge rather than a node.
    pub edge_bias: f64,
    /// Edges each arriving node immediately attaches to random existing
    /// nodes (each attachment is its own `add-edge` event at the same
    /// round and counts against the rate budget).
    pub attach: usize,
    /// Nodes never removed directly (their edges may still churn) — how
    /// oracle-critical nodes survive a long stream.
    pub protected: Vec<NodeId>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            horizon: 100,
            rate: 1.0,
            arrival_bias: 0.5,
            edge_bias: 0.7,
            attach: 2,
            protected: Vec::new(),
        }
    }
}

/// A seeded, replayable schedule of arrivals and departures.
///
/// Events are held as a [`FaultPlan`], sorted by `(time, kind, ids)`, so
/// a stream is a function of its event *set* and shuffled construction
/// orders replay bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnStream {
    seed: u64,
    horizon: u64,
    plan: FaultPlan,
}

impl ChurnStream {
    /// Builds a stream from explicit events (sorted on entry).
    pub fn from_events(seed: u64, horizon: u64, events: Vec<FaultEvent>) -> Self {
        Self {
            seed,
            horizon,
            plan: FaultPlan::new(events),
        }
    }

    /// The seed the stream was generated from (also seeds the round-coin
    /// stream when the harness replays it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds the stream spans.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// All events, sorted by `(time, kind, ids)`.
    pub fn events(&self) -> &[FaultEvent] {
        self.plan.events()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// Whether the stream carries no events.
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// The stream as a fresh [`FaultPlan`] (for the campaign engine or
    /// `fssga-chaos` replay).
    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }

    /// Generates a stream against `graph`. Events are drawn
    /// chronologically against an evolving mirror of the topology, so
    /// departures may target earlier arrivals and `add-node` ids increase
    /// with time. Candidate pools use lazy deletion (stale entries are
    /// dropped when drawn), so generation is near-linear in the event
    /// count even on large graphs.
    pub fn generate(graph: &DynGraph, cfg: &ChurnConfig) -> Self {
        let mut mirror = graph.clone();
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut alive: Vec<NodeId> = mirror.alive_nodes().collect();
        let mut edges: Vec<(NodeId, NodeId)> = mirror.edges().collect();
        let mut events = Vec::new();
        let mut budget = 0.0f64;
        for round in 0..cfg.horizon {
            budget += cfg.rate;
            while budget >= 1.0 {
                let emitted = Self::emit_one(
                    &mut mirror,
                    &mut alive,
                    &mut edges,
                    cfg,
                    round,
                    &mut events,
                    &mut rng,
                );
                budget -= emitted as f64;
            }
        }
        Self::from_events(cfg.seed, cfg.horizon, events)
    }

    /// Draws one event (arrival or departure) at `round`, applies it to
    /// the mirror, and appends it (plus any attachment edges) to
    /// `events`. Returns the number of events emitted (>= 1).
    fn emit_one(
        mirror: &mut DynGraph,
        alive: &mut Vec<NodeId>,
        edges: &mut Vec<(NodeId, NodeId)>,
        cfg: &ChurnConfig,
        round: u64,
        events: &mut Vec<FaultEvent>,
        rng: &mut Xoshiro256,
    ) -> usize {
        if !rng.gen_bool(cfg.arrival_bias) {
            if let Some(kind) = Self::draw_departure(mirror, alive, edges, cfg, rng) {
                events.push(FaultEvent { time: round, kind });
                return 1;
            }
            // Nothing left to remove: arrive instead so the realized
            // event count still tracks the configured rate.
        }
        Self::emit_arrival(mirror, alive, edges, cfg, round, events, rng)
    }

    /// One arrival: an `add-edge` between a random non-adjacent alive
    /// pair when the `edge_bias` coin says edge (and such a pair is found
    /// within a few tries), else a fresh node plus up to `attach`
    /// attachment edges.
    fn emit_arrival(
        mirror: &mut DynGraph,
        alive: &mut Vec<NodeId>,
        edges: &mut Vec<(NodeId, NodeId)>,
        cfg: &ChurnConfig,
        round: u64,
        events: &mut Vec<FaultEvent>,
        rng: &mut Xoshiro256,
    ) -> usize {
        if rng.gen_bool(cfg.edge_bias) && mirror.n_alive() >= 2 {
            for _ in 0..8 {
                let (Some(u), Some(v)) = (
                    Self::peek_alive(mirror, alive, rng),
                    Self::peek_alive(mirror, alive, rng),
                ) else {
                    break;
                };
                if u != v && !mirror.has_edge(u, v) {
                    let (u, v) = (u.min(v), u.max(v));
                    mirror.add_edge(u, v);
                    edges.push((u, v));
                    events.push(FaultEvent {
                        time: round,
                        kind: FaultKind::AddEdge(u, v),
                    });
                    return 1;
                }
            }
            // Dense neighbourhood — fall through to a node arrival.
        }
        let v = mirror.add_node();
        alive.push(v);
        events.push(FaultEvent {
            time: round,
            kind: FaultKind::AddNode(v),
        });
        let mut emitted = 1;
        for _ in 0..cfg.attach {
            for _ in 0..8 {
                let Some(w) = Self::peek_alive(mirror, alive, rng) else {
                    break;
                };
                if w != v && !mirror.has_edge(v, w) {
                    let (a, b) = (v.min(w), v.max(w));
                    mirror.add_edge(a, b);
                    edges.push((a, b));
                    events.push(FaultEvent {
                        time: round,
                        kind: FaultKind::AddEdge(a, b),
                    });
                    emitted += 1;
                    break;
                }
            }
        }
        emitted
    }

    /// One departure drawn from the lazy pools; `None` when both pools
    /// are exhausted (or every remaining node is protected).
    fn draw_departure(
        mirror: &mut DynGraph,
        alive: &mut Vec<NodeId>,
        edges: &mut Vec<(NodeId, NodeId)>,
        cfg: &ChurnConfig,
        rng: &mut Xoshiro256,
    ) -> Option<FaultKind> {
        let order: [bool; 2] = if rng.gen_bool(cfg.edge_bias) {
            [true, false]
        } else {
            [false, true]
        };
        for want_edge in order {
            if want_edge {
                if let Some((u, v)) = Self::take_edge(mirror, edges, rng) {
                    mirror.remove_edge(u, v);
                    return Some(FaultKind::Edge(u, v));
                }
            } else if let Some(v) = Self::take_node(mirror, alive, &cfg.protected, rng) {
                mirror.remove_node(v);
                return Some(FaultKind::Node(v));
            }
        }
        None
    }

    /// A random currently-live edge from the pool, dropping stale
    /// entries as they are drawn.
    fn take_edge(
        mirror: &DynGraph,
        edges: &mut Vec<(NodeId, NodeId)>,
        rng: &mut Xoshiro256,
    ) -> Option<(NodeId, NodeId)> {
        while !edges.is_empty() {
            let i = rng.gen_index(edges.len());
            let (u, v) = edges.swap_remove(i);
            if mirror.has_edge(u, v) {
                return Some((u, v));
            }
        }
        None
    }

    /// A random unprotected alive node, removed from the pool.
    fn take_node(
        mirror: &DynGraph,
        alive: &mut Vec<NodeId>,
        protected: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Option<NodeId> {
        let mut protected_hits = 0;
        while !alive.is_empty() && protected_hits < 16 {
            let i = rng.gen_index(alive.len());
            let v = alive[i];
            if !mirror.is_alive(v) {
                alive.swap_remove(i);
                continue;
            }
            if protected.contains(&v) {
                protected_hits += 1;
                continue;
            }
            alive.swap_remove(i);
            return Some(v);
        }
        None
    }

    /// A random alive node, left in the pool (stale entries dropped).
    fn peek_alive(
        mirror: &DynGraph,
        alive: &mut Vec<NodeId>,
        rng: &mut Xoshiro256,
    ) -> Option<NodeId> {
        while !alive.is_empty() {
            let i = rng.gen_index(alive.len());
            let v = alive[i];
            if mirror.is_alive(v) {
                return Some(v);
            }
            alive.swap_remove(i);
        }
        None
    }

    /// Serializes to the stable `churn-stream v1` line format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("churn-stream v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("horizon {}\n", self.horizon));
        for e in self.events() {
            out.push_str(&format!("event {} {}\n", e.time, e.kind.to_trace_fields()));
        }
        out
    }

    /// Parses [`Self::to_text`] output.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let (seed, horizon, events) =
            read_schedule_text(text, "churn-stream v1", "event", |tag, _| {
                Err(format!("unknown line {tag:?}"))
            })?;
        Ok(Self::from_events(seed, horizon, events))
    }
}

/// Harness knobs for [`run_churn_oracle_traced`].
#[derive(Clone, Debug)]
pub struct ChurnOptions {
    /// Sliding-window length: how many recent post-round topology
    /// snapshots the continuous oracle may match against (the streaming
    /// analogue of the campaign's snapshot chain).
    pub window: usize,
    /// Oracle cadence in rounds (`1` = every round). `0` disables the
    /// oracle and snapshotting entirely.
    pub check_every: u64,
    /// Cooperative cancellation: once the token reads cancelled (set, or
    /// past its deadline), the harness stops before applying the next
    /// round's events (the same round-boundary contract as
    /// [`crate::Runner`]'s — see [`CancelToken`]). The
    /// report then covers only the rounds actually executed
    /// (`report.rounds < stream.horizon()`).
    pub cancel: Option<CancelToken>,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        Self {
            window: 4,
            check_every: 1,
            cancel: None,
        }
    }
}

/// Aggregate outcome of a churn run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Arrival events applied (`add-node` / `add-edge`).
    pub arrivals: u64,
    /// Departure events applied (`node` / `edge`).
    pub departures: u64,
    /// Scheduled events skipped as stale (dead endpoints, duplicate
    /// edges, non-fresh `add-node` ids).
    pub skipped: u64,
    /// Node evaluations performed across the run — the total recompute
    /// work.
    pub activations: u64,
    /// Evaluations that changed a state.
    pub changes: u64,
    /// One sample per reconverged burst: rounds from the burst's first
    /// event until quiescence (no change, empty dirty set).
    pub recoveries: Vec<u64>,
    /// Continuous-oracle checks taken.
    pub oracle_checks: u64,
    /// Checks where no window snapshot matched the extracted answer.
    pub oracle_failures: u64,
    /// Alive nodes at the end of the run.
    pub final_alive: usize,
    /// Live edges at the end of the run.
    pub final_edges: usize,
}

impl ChurnReport {
    /// Total events applied.
    pub fn events(&self) -> u64 {
        self.arrivals + self.departures
    }

    /// Mean node evaluations per applied event — the quantity
    /// `BENCH_churn.json` compares against a from-scratch rebuild (which
    /// costs ~n evaluations per event).
    pub fn work_per_event(&self) -> f64 {
        if self.events() == 0 {
            0.0
        } else {
            self.activations as f64 / self.events() as f64
        }
    }

    /// The `q`-quantile (0.0..=1.0) of the recovery-time samples, 0 when
    /// none were collected.
    pub fn recovery_quantile(&self, q: f64) -> u64 {
        if self.recoveries.is_empty() {
            return 0;
        }
        let mut sorted = self.recoveries.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

/// Runs `stream` against `net` on the compiled kernel with no oracle:
/// due events are applied before each round, arriving nodes start in the
/// state `init` returns, and one [`ChurnRoundMetrics`] is emitted per
/// round. See [`run_churn_oracle_traced`] for the continuous-oracle
/// variant.
pub fn run_churn_traced<P: Protocol, T: Tracer>(
    net: &mut Network<P>,
    stream: &ChurnStream,
    init: impl FnMut(NodeId) -> P::State,
    tracer: &mut T,
) -> ChurnReport {
    let opts = ChurnOptions {
        window: 0,
        check_every: 0,
        cancel: None,
    };
    run_churn_oracle_traced(
        net,
        stream,
        &opts,
        init,
        |_| -> Option<()> { None },
        |_| (),
        tracer,
    )
}

/// [`run_churn_traced`] with continuous-oracle mode: every
/// `opts.check_every` rounds the harness extracts the network's current
/// `answer` and accepts it if it matches `oracle` on *any* snapshot in
/// the sliding window of recent topologies — the streaming form of the
/// paper's "reasonably correct" criterion ([`reasonably_correct`]).
/// `answer` may return `None` (no answer formed yet); such rounds are
/// not counted as checks.
///
/// Recovery times are measured per burst: when one or more events apply
/// in a round, a burst opens (if none is outstanding); it closes at the
/// first subsequent round that changes no state and leaves the dirty set
/// empty, recording `close_round - open_round + 1` rounds.
pub fn run_churn_oracle_traced<P: Protocol, A: PartialEq, T: Tracer>(
    net: &mut Network<P>,
    stream: &ChurnStream,
    opts: &ChurnOptions,
    mut init: impl FnMut(NodeId) -> P::State,
    mut answer: impl FnMut(&Network<P>) -> Option<A>,
    mut oracle: impl FnMut(&Graph) -> A,
    tracer: &mut T,
) -> ChurnReport {
    let mut rng = Xoshiro256::seed_from_u64(stream.seed);
    let mut report = ChurnReport::default();
    let mut window: Vec<Graph> = Vec::new();
    let mut cursor = 0usize;
    let mut burst: Option<u64> = None;
    let events = stream.events();
    let trace = tracer.enabled();

    for round in 0..stream.horizon {
        if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            break;
        }
        let (mut arrivals, mut departures) = (0u64, 0u64);
        FaultPlan::walk_due(
            events,
            &mut cursor,
            net,
            round,
            &mut init,
            |_, e, applied| {
                if !applied {
                    report.skipped += 1;
                    return;
                }
                match e.kind {
                    FaultKind::Edge(..) | FaultKind::Node(_) => departures += 1,
                    FaultKind::AddNode(_) | FaultKind::AddEdge(..) => arrivals += 1,
                }
                if trace {
                    tracer.fault(&FaultSurgery {
                        round,
                        kind: e.kind,
                    });
                }
            },
        );
        if arrivals + departures > 0 && burst.is_none() {
            burst = Some(round);
        }

        let round_seed = if P::RANDOMNESS > 1 { rng.next_u64() } else { 0 };
        let before_activations = net.metrics.activations;
        let before_changes = net.metrics.changes;
        let changed = net.sync_step_kernel_seeded_traced(round_seed, tracer);
        let activations = net.metrics.activations - before_activations;
        let changes = net.metrics.changes - before_changes;

        let quiescent = changed == 0 && net.kernel().is_none_or(|k| k.dirty_count() == 0);
        let recovered_in = match burst {
            Some(opened) if quiescent => {
                burst = None;
                let dt = round - opened + 1;
                report.recoveries.push(dt);
                Some(dt)
            }
            _ => None,
        };

        let mut verdict = None;
        if opts.check_every > 0 {
            window.push(net.graph().snapshot());
            if window.len() > opts.window.max(1) {
                window.remove(0);
            }
            if (round + 1) % opts.check_every == 0 {
                if let Some(ans) = answer(net) {
                    let ok = reasonably_correct(&window, &ans, &mut oracle);
                    report.oracle_checks += 1;
                    report.oracle_failures += u64::from(!ok);
                    verdict = Some(ok);
                }
            }
        }

        report.rounds += 1;
        report.arrivals += arrivals;
        report.departures += departures;
        report.activations += activations;
        report.changes += changes;

        if trace {
            tracer.churn_round(&ChurnRoundMetrics {
                round: net.metrics.rounds,
                arrivals,
                departures,
                alive: net.graph().n_alive() as u64,
                edges: net.graph().m() as u64,
                activations,
                changes,
                recovered_in,
                oracle: verdict,
            });
        }
    }

    report.final_alive = net.graph().n_alive();
    report.final_edges = net.graph().m();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_state_space;
    use crate::obs::RoundLog;
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

    fn cfg(seed: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            horizon: 60,
            rate: 1.5,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let g = DynGraph::from_graph(&generators::grid(4, 4));
        let a = ChurnStream::generate(&g, &cfg(7));
        let b = ChurnStream::generate(&g, &cfg(7));
        assert_eq!(a, b);
        let c = ChurnStream::generate(&g, &cfg(8));
        assert_ne!(a.events(), c.events(), "seed must matter");
    }

    #[test]
    fn rate_accumulator_realizes_the_budget() {
        // horizon * rate = 200 units of budget; every draw consumes at
        // least one and at most 1 + attach (a node arrival plus its
        // attachment edges), so the overshoot is bounded by one draw.
        let g = DynGraph::from_graph(&generators::grid(5, 5));
        let attach = 2;
        let stream = ChurnStream::generate(
            &g,
            &ChurnConfig {
                seed: 3,
                horizon: 100,
                rate: 2.0,
                attach,
                ..ChurnConfig::default()
            },
        );
        let n = stream.len();
        assert!(
            (200..=200 + attach).contains(&n),
            "expected ~200 events, got {n}"
        );
        assert!(stream.events().iter().all(|e| e.time < 100));
    }

    #[test]
    fn protected_nodes_survive_generation() {
        let g = DynGraph::from_graph(&generators::cycle(8));
        let stream = ChurnStream::generate(
            &g,
            &ChurnConfig {
                seed: 11,
                horizon: 80,
                rate: 1.0,
                arrival_bias: 0.2,
                protected: vec![0, 1],
                ..ChurnConfig::default()
            },
        );
        for e in stream.events() {
            if let FaultKind::Node(v) = e.kind {
                assert!(v != 0 && v != 1, "protected node {v} scheduled to die");
            }
        }
    }

    #[test]
    fn text_round_trips() {
        let g = DynGraph::from_graph(&generators::grid(4, 4));
        let stream = ChurnStream::generate(&g, &cfg(19));
        assert!(!stream.is_empty());
        let text = stream.to_text();
        assert!(text.starts_with("churn-stream v1\nseed 19\nhorizon 60\n"));
        let parsed = ChurnStream::from_text(&text).unwrap();
        assert_eq!(parsed, stream);
        assert!(ChurnStream::from_text("nope").is_err());
        assert!(ChurnStream::from_text("churn-stream v1\nseed 1\n").is_err());
        assert!(
            ChurnStream::from_text("churn-stream v1\nseed 1\nhorizon 2\nevent 0 frob 3\n").is_err()
        );
    }

    #[test]
    fn harness_applies_stream_and_tracks_recovery() {
        let g = generators::grid(4, 4);
        let mut net = Network::new_compiled(&g, Idle, |_| Unit::Only);
        let stream = ChurnStream::generate(net.graph(), &cfg(23));
        let mut log = RoundLog::default();
        let report = run_churn_traced(&mut net, &stream, |_| Unit::Only, &mut log);
        assert_eq!(report.rounds, stream.horizon());
        assert_eq!(log.churns.len() as u64, report.rounds);
        assert!(report.events() > 0, "stream must apply events");
        assert_eq!(
            report.events() + report.skipped,
            stream.len() as u64,
            "every event is either applied or accounted as skipped"
        );
        // Idle never changes state, so every burst recovers (the dirty
        // set drains in one round) and the samples are all 1.
        assert!(!report.recoveries.is_empty());
        assert!(report.recoveries.iter().all(|&r| r == 1));
        assert_eq!(report.recovery_quantile(0.5), 1);
        assert_eq!(report.final_alive, net.graph().n_alive());
        // Surgery events mirror the applied arrivals and departures.
        assert_eq!(log.faults.len() as u64, report.events());
        // No oracle: every per-round verdict is absent.
        assert!(log.churns.iter().all(|c| c.oracle.is_none()));
        let applied: u64 = log.churns.iter().map(|c| c.arrivals + c.departures).sum();
        assert_eq!(applied, report.events());
    }

    #[test]
    fn continuous_oracle_checks_every_round() {
        let g = generators::grid(3, 3);
        let mut net = Network::new_compiled(&g, Idle, |_| Unit::Only);
        let stream = ChurnStream::generate(net.graph(), &cfg(31));
        let mut log = RoundLog::default();
        let opts = ChurnOptions::default();
        // An oracle that recomputes the current edge count: matches the
        // freshest window snapshot by construction (snapshots preserve
        // live edges exactly), so every check passes.
        let report = run_churn_oracle_traced(
            &mut net,
            &stream,
            &opts,
            |_| Unit::Only,
            |net| Some(net.graph().m()),
            |g| g.m(),
            &mut log,
        );
        assert_eq!(report.oracle_checks, report.rounds);
        assert_eq!(report.oracle_failures, 0);
        assert!(log.churns.iter().all(|c| c.oracle == Some(true)));

        // A constantly-wrong answer fails every check.
        let mut net = Network::new_compiled(&g, Idle, |_| Unit::Only);
        let report = run_churn_oracle_traced(
            &mut net,
            &stream,
            &opts,
            |_| Unit::Only,
            |_| Some(usize::MAX),
            |g| g.m(),
            &mut crate::obs::NullTracer,
        );
        assert_eq!(report.oracle_failures, report.oracle_checks);
        assert!(report.oracle_checks > 0);
    }

    #[test]
    fn cancellation_stops_at_a_round_boundary() {
        let g = generators::grid(4, 4);
        let fired = CancelToken::new();
        fired.cancel();
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        for token in [fired, expired] {
            let mut net = Network::new_compiled(&g, Idle, |_| Unit::Only);
            let stream = ChurnStream::generate(net.graph(), &cfg(41));
            let opts = ChurnOptions {
                window: 0,
                check_every: 0,
                cancel: Some(token),
            };
            let report = run_churn_oracle_traced(
                &mut net,
                &stream,
                &opts,
                |_| Unit::Only,
                |_| -> Option<()> { None },
                |_| (),
                &mut crate::obs::NullTracer,
            );
            assert_eq!(report.rounds, 0, "a cancelled token stops before round 0");
            assert_eq!(report.events(), 0, "no events applied after cancellation");
        }
    }

    #[test]
    fn oracle_cadence_is_respected() {
        let g = generators::grid(3, 3);
        let mut net = Network::new_compiled(&g, Idle, |_| Unit::Only);
        let stream = ChurnStream::generate(net.graph(), &cfg(37));
        let opts = ChurnOptions {
            window: 4,
            check_every: 10,
            cancel: None,
        };
        let report = run_churn_oracle_traced(
            &mut net,
            &stream,
            &opts,
            |_| Unit::Only,
            |net| Some(net.graph().m()),
            |g| g.m(),
            &mut crate::obs::NullTracer,
        );
        assert_eq!(report.oracle_checks, stream.horizon() / 10);
    }
}
