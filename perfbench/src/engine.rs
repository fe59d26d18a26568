//! The engine workloads: `Runner` fixpoints and fixed-round runs timed
//! from outside, a churn stream through the converged census network,
//! and (traced) the same runs driven round by round.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fssga_engine::rng::{SplitMix64, Xoshiro256};
use fssga_engine::{
    run_churn_traced, Budget, ChurnConfig, ChurnStream, FaultEvent, Network, NullTracer, Protocol,
    RunReport, Runner, StateSpace, Tracer,
};
use fssga_graph::{exact, generators, DynGraph, Graph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_protocols::random_walk::{RandomWalk, WalkState};
use fssga_protocols::shortest_paths::{ShortestPaths, SpState};
use fssga_protocols::two_coloring::{Color, TwoColoring};
use fssga_protocols::unison::{KUnison, UnisonState};
use fssga_serve::{census_sketch, fingerprint};

use crate::probe::{ChurnProbe, Probe};
use crate::report::{geomean, median, quantile, Outcome};
use crate::Args;

const PATHS_CAP: usize = 256;
/// Interpreter rounds timed per run for the per-activation yardstick.
const INTERP_ROUNDS: usize = 3;
/// Fewest untraced passes, so every median has at least three samples.
const MIN_PASSES: usize = 3;
/// Set-ups timed per pass: the run's own networks plus extra builds that
/// are dropped at once, so `setup_s` is a quantile of many samples.
const SETUPS_PER_PASS: usize = 3;
/// The quantile of a kind's run times that `op_ms` and `ops_per_s` report,
/// and of the set-up times that `setup_s` reports. On a shared host other
/// tenants only ever add time, in phases that can cover most of a run; the
/// 10th percentile of the passes tracks the code's own cost where the
/// median follows the phases (see `perfbench/README.md`).
const RUN_QUANTILE: f64 = 0.1;

/// Per-kind timings and counters gathered over the passes of one run.
#[derive(Default)]
struct Tally {
    /// Untraced wall time of each run, s.
    run_s: Vec<f64>,
    /// Rounds and activations of the last untraced run.
    last: (usize, u64),
    /// Traced round-call time at the kind's thread count, Σ s.
    traced_s: f64,
    /// Untraced time of the runs that were also traced, Σ s.
    untraced_s: f64,
    /// 1-thread kernel round-call times, µs.
    round_us: Vec<f64>,
    activations: u64,
    eligible: u64,
    interp_s: f64,
    interp_activations: u64,
    /// 2-thread round-call time, Σ s (sharded kinds only).
    pooled_s: f64,
    pool: Probe,
    traced_passes: u64,
}

/// The churn phase's timings and counters.
#[derive(Default)]
struct ChurnTally {
    /// Untraced wall time of each stream, s.
    run_s: Vec<f64>,
    events_per_s: Vec<f64>,
    untraced_s: f64,
    traced_s: f64,
    surgery_ns: f64,
    events: u64,
    round_us: Vec<f64>,
    activations_per_event: f64,
    arena_ratio: f64,
    recovery_p99: f64,
}

/// Everything one run measured, keyed by operation kind.
#[derive(Default)]
struct Tallies {
    kinds: BTreeMap<&'static str, Tally>,
    churn: Option<ChurnTally>,
    /// Per set-up: Σ `Network::new` and Σ `ensure_kernel` time over the
    /// kinds, s.
    init_s: Vec<f64>,
    compile_s: Vec<f64>,
}

/// One kind of timed run: a protocol on a graph with its budget, seed,
/// thread count and independent output check.
struct Op<'a, P: Protocol> {
    name: &'static str,
    graph: &'a Graph,
    proto: fn() -> P,
    init: &'a dyn Fn(NodeId) -> P::State,
    rounds: usize,
    fixpoint: bool,
    seed: u64,
    threads: usize,
    check: &'a dyn Fn(&[P::State]) -> bool,
    /// Streamed through the converged network after the run.
    churn: Option<&'a ChurnStream>,
}

/// Object-safe face of [`Op`], so one workload can mix protocols.
trait Kind {
    /// One untraced run and, with `trace`, the same run traced round by
    /// round; returns the untraced network's (`Network::new`,
    /// `ensure_kernel`) time.
    fn pass(&self, trace: bool, t: &mut Tallies, out: &mut Outcome) -> (Duration, Duration);

    /// Builds a network and drops it; returns its (`Network::new`,
    /// `ensure_kernel`) time.
    fn setup(&self) -> (Duration, Duration);
}

/// What an untraced run left for the traced one to reproduce.
struct Untraced {
    init: Duration,
    compile: Duration,
    run_s: f64,
    fingerprint: u64,
    /// Stream wall time and final fingerprint, when the kind churns.
    churn: Option<(f64, u64)>,
}

impl<P> Op<'_, P>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    fn build(&self, compile: bool) -> (Network<P>, Duration, Duration) {
        let t = Instant::now();
        let mut net = Network::new(self.graph, (self.proto)(), self.init);
        let init = t.elapsed();
        let t = Instant::now();
        if compile {
            net.ensure_kernel();
        }
        (net, init, t.elapsed())
    }

    fn run(&self, net: &mut Network<P>) -> RunReport {
        let budget = if self.fixpoint {
            Budget::Fixpoint(self.rounds)
        } else {
            Budget::Rounds(self.rounds)
        };
        Runner::new(net)
            .budget(budget)
            .seed(self.seed)
            .threads(self.threads)
            .run()
    }

    fn verify(&self, net: &Network<P>, reached_fixpoint: bool) -> bool {
        (reached_fixpoint || !self.fixpoint) && (self.check)(net.states())
    }

    /// The run's rounds called one at a time, as [`Runner`] would call
    /// them; returns each call's time in µs.
    fn step_rounds<T: Tracer>(
        &self,
        net: &mut Network<P>,
        threads: usize,
        tracer: &mut T,
    ) -> (Vec<f64>, bool) {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut us = Vec::new();
        for _ in 0..self.rounds {
            let round_seed = if P::RANDOMNESS > 1 { rng.next_u64() } else { 0 };
            let t = Instant::now();
            let changed = if threads > 1 {
                net.sync_step_kernel_sharded_seeded_traced(round_seed, threads, tracer)
            } else {
                net.sync_step_kernel_seeded_traced(round_seed, tracer)
            };
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
            if changed == 0 && self.fixpoint {
                return (us, true);
            }
        }
        (us, false)
    }

    /// The untraced run, then the churn stream if the kind has one.
    fn untraced(&self, t: &mut Tallies, out: &mut Outcome) -> Untraced {
        let (mut net, init, compile) = self.build(true);
        let start = Instant::now();
        let report = self.run(&mut net);
        let run_s = start.elapsed().as_secs_f64();
        out.count(self.verify(&net, report.fixpoint.is_some()));
        let k = t.kinds.entry(self.name).or_default();
        k.run_s.push(run_s);
        k.last = (report.rounds, report.activations);
        let fp = state_fingerprint(&net);
        let churn = self.churn.map(|stream| {
            let start = Instant::now();
            let rep = run_churn_traced(&mut net, stream, self.init, &mut NullTracer);
            let churn_s = start.elapsed().as_secs_f64();
            let c = t.churn.get_or_insert_with(ChurnTally::default);
            c.run_s.push(churn_s);
            c.events_per_s.push(rep.events() as f64 / churn_s);
            let churn_fp = state_fingerprint(&net);
            out.count(settles(&mut net));
            (churn_s, churn_fp)
        });
        Untraced {
            init,
            compile,
            run_s,
            fingerprint: fp,
            churn,
        }
    }

    /// A fresh network's rounds, traced, must end on `fp` and pass the
    /// output check; returns the round-call times (µs) and the probe.
    fn traced(&self, threads: usize, fp: u64, out: &mut Outcome) -> (Network<P>, Vec<f64>, Probe) {
        let (mut net, ..) = self.build(true);
        let mut probe = Probe::default();
        let (us, fixed) = self.step_rounds(&mut net, threads, &mut probe);
        out.count(self.verify(&net, fixed) && state_fingerprint(&net) == fp);
        (net, us, probe)
    }
}

/// The service's state fingerprint, so "bit-identical" means the same
/// here as in `done` frames.
fn state_fingerprint<P: Protocol>(net: &Network<P>) -> u64 {
    fingerprint(net.states().iter().map(|s| s.index()))
}

/// After a churn stream: run to quiescence, then a from-scratch kernel
/// rebuild plus one round must change nothing.
fn settles<P: Protocol>(net: &mut Network<P>) -> bool {
    let quiet = Runner::new(net)
        .budget(Budget::Fixpoint(100_000))
        .run()
        .fixpoint
        .is_some();
    net.rebuild_kernel();
    quiet && net.sync_step_kernel_seeded(0) == 0
}

impl<P> Kind for Op<'_, P>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    fn pass(&self, trace: bool, t: &mut Tallies, out: &mut Outcome) -> (Duration, Duration) {
        let u = self.untraced(t, out);
        if !trace {
            return (u.init, u.compile);
        }

        // The same run, traced, at the kind's own thread count; sharded
        // kinds repeat it on one thread for the speedup.
        let (mut net, us, probe) = self.traced(self.threads, u.fingerprint, out);
        let traced_s = us.iter().sum::<f64>() / 1e6;
        let one = (self.threads > 1).then(|| self.traced(1, u.fingerprint, out));
        let (one_us, counts) = match &one {
            Some((_, one_us, one_probe)) => (one_us, one_probe),
            None => (&us, &probe),
        };

        // The interpreter's first rounds on the same network: the
        // per-activation yardstick for the kernel.
        let (mut interp, ..) = self.build(false);
        let mut interp_probe = Probe::default();
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let start = Instant::now();
        for _ in 0..INTERP_ROUNDS.min(self.rounds) {
            let round_seed = if P::RANDOMNESS > 1 { rng.next_u64() } else { 0 };
            interp.sync_step_seeded_traced(round_seed, &mut interp_probe);
        }
        let interp_s = start.elapsed().as_secs_f64();

        let k = t.kinds.entry(self.name).or_default();
        k.traced_passes += 1;
        k.untraced_s += u.run_s;
        k.traced_s += traced_s;
        k.activations = counts.activations;
        k.eligible = counts.eligible;
        k.round_us.extend_from_slice(one_us);
        k.interp_s += interp_s;
        k.interp_activations += interp_probe.activations;
        if self.threads > 1 {
            k.pooled_s += traced_s;
            k.pool.rounds += probe.rounds;
            k.pool.pooled_rounds += probe.pooled_rounds;
            k.pool.shard_max_reads += probe.shard_max_reads;
            k.pool.shard_mean_reads += probe.shard_mean_reads;
        }

        if let (Some(stream), Some((churn_s, churn_fp))) = (self.churn, u.churn) {
            let mut cp = ChurnProbe::start();
            let start = Instant::now();
            let rep = run_churn_traced(&mut net, stream, self.init, &mut cp);
            let traced_churn_s = start.elapsed().as_secs_f64();
            out.count(state_fingerprint(&net) == churn_fp);
            let live = 2 * net.graph().m();
            let arena = net.kernel().map_or(0, |k| k.arena_len());
            let c = t.churn.get_or_insert_with(ChurnTally::default);
            c.untraced_s += churn_s;
            c.traced_s += traced_churn_s;
            c.surgery_ns += cp.surgery_ns;
            c.events += cp.events;
            c.round_us.extend_from_slice(&cp.round_us);
            c.activations_per_event = rep.work_per_event();
            c.arena_ratio = arena as f64 / live.max(1) as f64;
            c.recovery_p99 = rep.recovery_quantile(0.99) as f64;
        }
        (u.init, u.compile)
    }

    fn setup(&self) -> (Duration, Duration) {
        let (_, init, compile) = self.build(true);
        (init, compile)
    }
}

/// Runs passes over `kinds` until `args.seconds` have elapsed (at least
/// [`MIN_PASSES`] untraced, or one traced), then reports.
fn measure(kinds: &[&dyn Kind], args: &Args, out: &mut Outcome) {
    let mut t = Tallies::default();
    let start = Instant::now();
    let min = if args.trace { 1 } else { MIN_PASSES };
    let mut passes = 0;
    while passes < min || start.elapsed().as_secs_f64() < args.seconds {
        let mut setups = Vec::new();
        for rep in 0..SETUPS_PER_PASS {
            let (mut init, mut compile) = (Duration::ZERO, Duration::ZERO);
            for kind in kinds {
                let (i, c) = if rep == 0 {
                    kind.pass(args.trace, &mut t, out)
                } else {
                    kind.setup()
                };
                init += i;
                compile += c;
            }
            t.init_s.push(init.as_secs_f64());
            t.compile_s.push(compile.as_secs_f64());
            setups.push(format!("{:.4}", (init + compile).as_secs_f64()));
        }
        passes += 1;
        out.hold_peak_rss();
        let mut line = format!("pass {passes}: setup {} s", setups.join("/"));
        for (name, k) in &t.kinds {
            line += &format!(
                " {name} {:.4} s ({} rounds, {} act)",
                k.run_s.last().copied().unwrap_or(0.0),
                k.last.0,
                k.last.1
            );
        }
        if let Some(c) = &t.churn {
            line += &format!(" churn {:.4} s", c.run_s.last().copied().unwrap_or(0.0));
        }
        println!("{line}");
    }
    if args.trace {
        report_layers(&t, out);
    } else {
        report_end_to_end(&t, out);
    }
}

/// Tracing off: the [`RUN_QUANTILE`]s of the set-ups and of each kind's
/// runs, summarised.
fn report_end_to_end(t: &Tallies, out: &mut Outcome) {
    let setup: Vec<f64> = t
        .init_s
        .iter()
        .zip(&t.compile_s)
        .map(|(i, c)| i + c)
        .collect();
    out.metric("setup_s", quantile(&setup, RUN_QUANTILE), "s");
    let mut times: Vec<f64> = t
        .kinds
        .values()
        .map(|k| quantile(&k.run_s, RUN_QUANTILE))
        .collect();
    if let Some(c) = &t.churn {
        times.push(quantile(&c.run_s, RUN_QUANTILE));
    }
    out.metric("op_ms", geomean(&times) * 1e3, "ms");
    out.metric(
        "ops_per_s",
        times.len() as f64 / times.iter().sum::<f64>(),
        "1/s",
    );
}

/// Tracing on: the per-layer metrics.
fn report_layers(t: &Tallies, out: &mut Outcome) {
    out.metric("network.init_ms", median(&t.init_s) * 1e3, "ms");
    out.metric("kernel.compile_ms", median(&t.compile_s) * 1e3, "ms");
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (name, k) in &t.kinds {
        out.metric(format!("{name}_s"), median(&k.run_s), "s");
        let one_thread_s = k.round_us.iter().sum::<f64>() / 1e6;
        let activations = k.activations * k.traced_passes;
        out.metric(
            format!("kernel.{name}.ns_per_activation"),
            one_thread_s * 1e9 / activations.max(1) as f64,
            "ns",
        );
        out.metric(
            format!("kernel.{name}.activations"),
            k.activations as f64,
            "count",
        );
        out.metric(
            format!("kernel.{name}.skip_rate"),
            1.0 - k.activations as f64 / k.eligible.max(1) as f64,
            "share",
        );
        out.metric(
            format!("kernel.{name}.round_us_p50"),
            median(&k.round_us),
            "us",
        );
        out.metric(
            format!("network.{name}.ns_per_activation"),
            k.interp_s * 1e9 / k.interp_activations.max(1) as f64,
            "ns",
        );
        if k.pool.rounds > 0 {
            out.metric(
                format!("pool.{name}.speedup"),
                one_thread_s / k.pooled_s,
                "ratio",
            );
            out.metric(
                format!("pool.{name}.imbalance"),
                k.pool.shard_max_reads / k.pool.shard_mean_reads.max(1.0),
                "ratio",
            );
            out.metric(
                format!("pool.{name}.pooled_share"),
                k.pool.pooled_rounds as f64 / k.pool.rounds as f64,
                "share",
            );
        }
        traced += k.traced_s;
        untraced += k.untraced_s;
    }
    if let Some(c) = &t.churn {
        out.metric("churn_events_per_s", median(&c.events_per_s), "1/s");
        out.metric(
            "churn.surgery_ns_per_event",
            c.surgery_ns / c.events.max(1) as f64,
            "ns",
        );
        out.metric("churn.round_us_p50", median(&c.round_us), "us");
        out.metric(
            "churn.activations_per_event",
            c.activations_per_event,
            "count",
        );
        out.metric("churn.arena_ratio", c.arena_ratio, "ratio");
        out.metric("churn.recovery_p99_rounds", c.recovery_p99, "rounds");
        traced += c.traced_s;
        untraced += c.untraced_s;
    }
    out.metric(
        "obs.overhead_share",
        (traced - untraced) / untraced,
        "share",
    );
}

/// The census sketches of nodes `0..n` and their union. `sketch` is a
/// function of the node alone, so arrivals past `n` derive theirs the same
/// way and a churn stream is as deterministic as the graph.
fn sketches(n: usize, sketch: impl Fn(NodeId) -> FmSketch<16>) -> (Vec<FmSketch<16>>, u16) {
    let s: Vec<FmSketch<16>> = (0..n as NodeId).map(sketch).collect();
    let union = s.iter().fold(0u16, |acc, x| acc | x.0);
    (s, union)
}

/// Every node holds the OR of all initial sketches.
fn census_check(union: u16) -> impl Fn(&[FmSketch<16>]) -> bool {
    move |states| states.iter().all(|s| s.0 == union)
}

/// Side of the `torus-seq` torus: 62,500 nodes, whose kernel arrays are
/// about the size of a 2 MiB L2, and 150–200 passes in a 30 s run, enough
/// for a steady [`RUN_QUANTILE`] (see `perfbench/README.md`).
const TORUS_SIDE: usize = 250;

/// The census sketch bits that `torus-seq` plants at one node instead of
/// drawing: FM bits 12–15, which 62,500 drawn sketches hold at 0 to about
/// 10 nodes each.
const PLANTED_BITS: u16 = 0xF000;

/// `torus-seq`: default `Runner` on a [`TORUS_SIDE`]² torus.
pub fn torus_seq(args: &Args, out: &mut Outcome) {
    // Every generated input draws from this one stream.
    let mut seeds = SplitMix64::new(args.seed);
    let g = generators::torus(TORUS_SIDE, TORUS_SIDE);
    let sketch_seed = seeds.next_u64();
    // Drawn, the rarest bits of the union have a seed-dependent number of
    // sources, so the census fixpoint took 161–251 rounds and 1.70–1.92M
    // activations by seed, which dominated the spread of `ops_per_s`.
    // Planted at one node they make one wave across the whole torus on
    // every seed (251 rounds; the torus is vertex-transitive, so which
    // node does not matter).
    let planted_at = (seeds.next_u64() % g.n() as u64) as NodeId;
    let sketch = |v: NodeId| {
        let planted = if v == planted_at { PLANTED_BITS } else { 0 };
        FmSketch((census_sketch(sketch_seed, v).0 & !PLANTED_BITS) | planted)
    };
    let (sk, union) = sketches(g.n(), sketch);
    let census_init = |v: NodeId| sk.get(v as usize).copied().unwrap_or_else(|| sketch(v));
    let census_ok = census_check(union);
    // 0.4 events per node, in 2,000 bursts on even rounds: the odd rounds
    // let a burst settle, so recovery times are observable.
    let dense = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: seeds.next_u64(),
            horizon: 2_000,
            rate: g.n() as f64 * 0.4 / 2_000.0,
            ..ChurnConfig::default()
        },
    );
    let stream = ChurnStream::from_events(
        dense.seed(),
        2 * dense.horizon(),
        dense
            .events()
            .iter()
            .map(|e| FaultEvent {
                time: 2 * e.time,
                kind: e.kind,
            })
            .collect(),
    );
    let dist = exact::bfs_distances(&g, &[0]);
    let paths_init = |v: NodeId| ShortestPaths::<PATHS_CAP>::init(v == 0);
    let paths_ok = |states: &[SpState<PATHS_CAP>]| {
        states.iter().zip(&dist).enumerate().all(|(v, (s, &d))| {
            let want = if v == 0 {
                SpState::Sink
            } else {
                SpState::Label(d.min(PATHS_CAP as u32) as u16)
            };
            *s == want
        })
    };
    let color_init = |v: NodeId| TwoColoring::init(v == 0);
    let color_ok = |states: &[Color]| {
        states.iter().all(|c| matches!(c, Color::Red | Color::Blue))
            && g.edges()
                .all(|(u, v)| states[u as usize] != states[v as usize])
    };
    let census = Op {
        name: "census",
        graph: &g,
        proto: || Census::<16>,
        init: &census_init,
        rounds: 100_000,
        fixpoint: true,
        seed: 0,
        threads: 1,
        check: &census_ok,
        churn: Some(&stream),
    };
    let paths = Op {
        name: "paths",
        graph: &g,
        proto: || ShortestPaths::<PATHS_CAP>,
        init: &paths_init,
        rounds: 100_000,
        fixpoint: true,
        seed: 0,
        threads: 1,
        check: &paths_ok,
        churn: None,
    };
    let coloring = Op {
        name: "coloring",
        graph: &g,
        proto: || TwoColoring,
        init: &color_init,
        rounds: 100_000,
        fixpoint: true,
        seed: 0,
        threads: 1,
        check: &color_ok,
        churn: None,
    };
    println!(
        "torus-seq: n={} m={} churn events={} horizon={}",
        g.n(),
        g.m(),
        stream.len(),
        stream.horizon()
    );
    measure(&[&census, &paths, &coloring], args, out);
}

/// Rounds of the fixed-round runs on the power-law graph: short enough
/// for about 60 passes in a 30 s run, so [`RUN_QUANTILE`] is steady.
const UNISON_ROUNDS: usize = 50;
const WALK_ROUNDS: usize = 50;

/// `powerlaw-sharded`: a 50,000-node preferential-attachment graph,
/// every run on two threads.
pub fn powerlaw_sharded(args: &Args, out: &mut Outcome) {
    // Every generated input draws from this one stream.
    let mut seeds = SplitMix64::new(args.seed);
    let g = generators::preferential_attachment(
        50_000,
        4,
        &mut Xoshiro256::seed_from_u64(seeds.next_u64()),
    );
    let sketch_seed = seeds.next_u64();
    let (sk, union) = sketches(g.n(), |v| census_sketch(sketch_seed, v));
    let census_init = |v: NodeId| sk[v as usize];
    let census_ok = census_check(union);
    let unison_init = |_| UnisonState::<8>::at(0);
    let phase = UnisonState::<8>::at((UNISON_ROUNDS % 8) as u8);
    let unison_ok = |states: &[UnisonState<8>]| states.iter().all(|&s| s == phase);
    let start = (seeds.next_u64() % g.n() as u64) as NodeId;
    let walk_init = |v: NodeId| {
        if v == start {
            WalkState::Flip
        } else {
            WalkState::Blank
        }
    };
    let walk_ok = |states: &[WalkState]| states.iter().filter(|s| s.is_walker()).count() == 1;
    let census = Op {
        name: "census",
        graph: &g,
        proto: || Census::<16>,
        init: &census_init,
        rounds: 100_000,
        fixpoint: true,
        seed: 0,
        threads: 2,
        check: &census_ok,
        churn: None,
    };
    let unison = Op {
        name: "unison",
        graph: &g,
        proto: || KUnison::<8>,
        init: &unison_init,
        rounds: UNISON_ROUNDS,
        fixpoint: false,
        seed: 0,
        threads: 2,
        check: &unison_ok,
        churn: None,
    };
    let walk = Op {
        name: "walk",
        graph: &g,
        proto: || RandomWalk,
        init: &walk_init,
        rounds: WALK_ROUNDS,
        fixpoint: false,
        seed: seeds.next_u64(),
        threads: 2,
        check: &walk_ok,
        churn: None,
    };
    println!(
        "powerlaw-sharded: n={} m={} max_degree={} walk start={start}",
        g.n(),
        g.m(),
        g.max_degree()
    );
    measure(&[&census, &unison, &walk], args, out);
}
