//! `fssga-bench` — the recorded performance baselines.
//!
//! ```text
//! fssga-bench engine                  # full baseline, writes BENCH_engine.json
//! fssga-bench engine --smoke          # tiny workloads, CI sanity only
//! fssga-bench engine --out path.json
//! fssga-bench engine --trace-out t.jsonl   # also emit a JSONL round trace
//! fssga-bench parallel                # thread-scaling baseline, BENCH_parallel.json
//! fssga-bench parallel --smoke [--out PATH] [--trace-out PATH]
//! fssga-bench golden [--out path.jsonl]    # regenerate the metrics snapshot
//! fssga-bench golden --check [--out path]  # diff against the recorded snapshot
//! fssga-bench churn                   # streaming-churn baseline, BENCH_churn.json
//! fssga-bench churn --smoke [--out PATH] [--trace-out PATH]
//! fssga-bench serve                   # service load baseline, BENCH_serve.json
//! fssga-bench serve --smoke [--out PATH] [--addr HOST:PORT] [--clients N]
//!                   [--jsonl-out PATH] [--shutdown]
//! ```
//!
//! The `engine` baseline races the interpreter against the compiled
//! kernel ([`fssga_engine::CompiledKernel`]) on synchronous fixpoint
//! runs at n ≥ 50 000 — census OR-diffusion and shortest-paths
//! relaxation on a torus — and records median wall times plus the
//! speedup. Both engines are bit-identical in trajectory (asserted here
//! on final states), so the speedup is a pure execution-path comparison.
//!
//! The `churn` baseline streams a mixed arrival/departure
//! [`fssga_engine::ChurnStream`] through a converged census network and
//! records the incremental repair cost per event against a from-scratch
//! kernel rebuild, the recovery-time distribution, and the sustained
//! event throughput. It also replays the same stream on the interpreter
//! (full recompute every round) and asserts the final states are
//! bit-identical — the dirty-set repair path must be semantically
//! invisible.
//!
//! The `serve` baseline is a load generator for the `fssga-serve`
//! service: it spawns many concurrent TCP clients (100 in full mode),
//! each submitting framed jobs from a fixed census / shortest-paths /
//! k-parity mix, retrying on `overloaded` sheds, and records sustained
//! jobs/sec plus the p50/p99/max submit-to-done latency. Every `done`
//! fingerprint is checked against an in-process run of the same spec,
//! so the baseline doubles as a concurrency bit-identity test. By
//! default it boots an in-process server on an ephemeral port;
//! `--addr` targets an already-running one instead (`--shutdown` then
//! sends the shutdown frame when finished).
//!
//! The timed runs carry a [`fssga_engine::NullTracer`] — the zero-cost
//! observability default — so the recorded medians are untraced numbers.
//! One extra *observed* kernel run per workload (never timed) collects
//! the [`RunMetrics`] columns (`kernel_activations_per_round`,
//! `dirty_hit_rate`) and, under `--trace-out`, streams every round event
//! to a replayable JSONL artifact.

use std::io::Write;
use std::time::Instant;

use fssga_bench::harness::fmt_ns;
use fssga_bench::DEFAULT_SEED;
use fssga_engine::{
    fingerprint, run_churn_traced, Budget, ChurnConfig, ChurnStream, Engine, Network, Protocol,
    RoundLog, RunMetrics, Runner, Tracer,
};
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{DynGraph, Graph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_protocols::shortest_paths::ShortestPaths;

/// Wall times (ns) and the fixpoint round for one engine on one workload.
struct Timing {
    times_ns: Vec<f64>,
    rounds: usize,
}

impl Timing {
    fn median_ns(&self) -> f64 {
        let mut t = self.times_ns.clone();
        t.sort_by(|a, b| a.total_cmp(b));
        t[t.len() / 2]
    }
}

/// One interpreter-vs-kernel comparison, plus the kernel's observed
/// per-round metrics (from a separate, untimed run).
struct Row {
    name: String,
    n: usize,
    interp: Timing,
    kernel: Timing,
    metrics: RunMetrics,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.interp.median_ns() / self.kernel.median_ns()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"n\":{},\"rounds\":{},\
             \"interpreter_median_ns\":{:.0},\"kernel_median_ns\":{:.0},\
             \"reps\":{},\"speedup\":{:.2},\
             \"kernel_activations_per_round\":{:.1},\"dirty_hit_rate\":{:.4}}}",
            self.name,
            self.n,
            self.interp.rounds,
            self.interp.median_ns(),
            self.kernel.median_ns(),
            self.interp.times_ns.len(),
            self.speedup(),
            self.metrics.activations_per_round(),
            self.metrics.dirty_hit_rate()
        )
    }
}

/// Times `reps` fixpoint runs of `engine`, returning wall times and the
/// (engine-independent) fixpoint round. `run` must build a fresh network
/// per call; it returns (fixpoint round, final states fingerprint).
fn time_engine(
    reps: usize,
    engine: Engine,
    mut run: impl FnMut(Engine) -> (usize, u64),
) -> (Timing, u64) {
    let mut times_ns = Vec::with_capacity(reps);
    let mut rounds = 0;
    let mut fingerprint = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let (r, f) = run(engine);
        times_ns.push(t.elapsed().as_nanos() as f64);
        rounds = r;
        fingerprint = f;
    }
    (Timing { times_ns, rounds }, fingerprint)
}

/// Races the interpreter against the kernel on fixpoint runs (at most
/// `budget` rounds) of fresh networks from `build`, asserting that both
/// engines agree on final states and rounds, then runs the kernel once
/// more, untimed and observed, for the metric columns and the trace.
fn engine_row<P: Protocol>(
    name: String,
    reps: usize,
    budget: usize,
    build: impl Fn() -> Network<P>,
    tracer: &mut dyn Tracer,
) -> Row {
    use fssga_engine::StateSpace;
    let run = |engine: Engine| {
        let mut net = build();
        let report = Runner::new(&mut net)
            .engine(engine)
            .budget(Budget::Fixpoint(budget))
            .run();
        (
            report.fixpoint.expect("fixpoint within budget"),
            fingerprint(net.states().iter().map(|s| s.index())),
        )
    };
    let (interp, fi) = time_engine(reps, Engine::Interpreter, run);
    let (kernel, fk) = time_engine(reps, Engine::Kernel, run);
    assert_eq!(fi, fk, "engines must agree on final states");
    assert_eq!(interp.rounds, kernel.rounds, "engines must agree on rounds");
    let mut net = build();
    let metrics = Runner::new(&mut net)
        .engine(Engine::Kernel)
        .budget(Budget::Fixpoint(budget))
        .observed()
        .tracer(tracer)
        .run()
        .metrics
        .expect("observed run carries metrics");
    Row {
        name,
        n: net.n(),
        interp,
        kernel,
        metrics,
    }
}

/// The census and shortest-paths rows on `g`, labelled `label`.
fn workload_rows(g: &Graph, label: &str, reps: usize, tracer: &mut dyn Tracer) -> [Row; 2] {
    const CAP: usize = 256;
    let mut rng = Xoshiro256::seed_from_u64(DEFAULT_SEED);
    let sketches: Vec<FmSketch<16>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    [
        engine_row(
            format!("census/{label}"),
            reps,
            10 * g.n(),
            || Network::new(g, Census::<16>, |v| sketches[v as usize]),
            tracer,
        ),
        engine_row(
            format!("shortest-paths/{label}"),
            reps,
            8 * CAP,
            || {
                Network::new(g, ShortestPaths::<CAP>, |v| {
                    ShortestPaths::<CAP>::init(v == 0)
                })
            },
            tracer,
        ),
    ]
}

fn engine_baseline(smoke: bool, out: &str, trace_out: Option<&str>) {
    use fssga_graph::generators;
    // Torus keeps every degree at 4 while the diameter (≈ side) sets the
    // number of rounds; side 224 puts n just past the 50k floor.
    let (side, reps) = if smoke { (32, 1) } else { (224, 5) };
    let g = generators::torus(side, side);
    println!(
        "engine baseline: torus {side}x{side} (n = {}), {reps} rep(s) per engine",
        g.n()
    );
    let run_rows = |tracer: &mut dyn Tracer| {
        let mut rows = Vec::from(workload_rows(
            &g,
            &format!("torus-{side}x{side}"),
            reps,
            tracer,
        ));
        if !smoke {
            // Scale row: one n = 10^6 rep per workload (the interpreter
            // twin dominates the wall time here; medians over reps add
            // nothing at this size). See EXPERIMENTS.md for the
            // protocol.
            let big = 1000usize;
            let gb = generators::torus(big, big);
            println!(
                "scale row: torus {big}x{big} (n = {}), 1 rep per engine",
                gb.n()
            );
            rows.extend(workload_rows(&gb, &format!("torus-{big}x{big}"), 1, tracer));
        }
        rows
    };
    let rows = match trace_out {
        Some(path) => {
            let f = std::io::BufWriter::new(std::fs::File::create(path).expect("create trace"));
            let mut sink = fssga_engine::JsonlTrace::new(f);
            let rows = run_rows(&mut sink);
            sink.into_inner().flush().expect("flush trace");
            println!("wrote {path}");
            rows
        }
        None => run_rows(&mut fssga_engine::NullTracer),
    };
    for row in &rows {
        println!(
            "{:<36} n={:<7} rounds={:<4} interp {:>12} kernel {:>12} speedup {:>6.2}x \
             act/round {:>9.1} dirty-hit {:>6.1}%",
            row.name,
            row.n,
            row.interp.rounds,
            fmt_ns(row.interp.median_ns()),
            fmt_ns(row.kernel.median_ns()),
            row.speedup(),
            row.metrics.activations_per_round(),
            100.0 * row.metrics.dirty_hit_rate()
        );
    }
    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\"bench\":\"engine\",\"smoke\":{},\"workloads\":[{}]}}\n",
        smoke,
        body.join(",")
    );
    std::fs::write(out, json).expect("write baseline json");
    println!("wrote {out}");
}

/// Thread counts recorded by the `parallel` baseline.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Kernel wall times for one workload across [`THREAD_COUNTS`].
struct ParRow {
    name: String,
    n: usize,
    rounds: usize,
    reps: usize,
    /// Median kernel wall time per entry of [`THREAD_COUNTS`].
    median_ns: Vec<f64>,
}

impl ParRow {
    fn to_json(&self) -> String {
        let medians: Vec<String> = self.median_ns.iter().map(|t| format!("{t:.0}")).collect();
        let speedups: Vec<String> = self
            .median_ns
            .iter()
            .map(|&t| format!("{:.2}", self.median_ns[0] / t))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"n\":{},\"rounds\":{},\"reps\":{},\
             \"median_ns\":[{}],\"speedup_vs_1\":[{}]}}",
            self.name,
            self.n,
            self.rounds,
            self.reps,
            medians.join(","),
            speedups.join(",")
        )
    }
}

/// Times `reps` sharded fixpoint runs per thread count. `run(threads)`
/// must build a fresh network, run it to fixpoint on the sharded
/// engine, and return (fixpoint round, final-state fingerprint); the
/// fingerprint is asserted identical across thread counts — the bench
/// re-proves the bit-identity contract on every recorded workload.
fn parallel_workload(
    name: &str,
    n: usize,
    reps: usize,
    mut run: impl FnMut(usize) -> (usize, u64),
) -> ParRow {
    let mut median_ns = Vec::with_capacity(THREAD_COUNTS.len());
    let mut rounds = 0;
    let mut base_fingerprint = None;
    for &threads in &THREAD_COUNTS {
        let mut times_ns = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let (r, f) = run(threads);
            times_ns.push(t.elapsed().as_nanos() as f64);
            rounds = r;
            match base_fingerprint {
                None => base_fingerprint = Some(f),
                Some(b) => assert_eq!(b, f, "{name}: {threads} threads diverged"),
            }
        }
        median_ns.push(Timing { times_ns, rounds }.median_ns());
    }
    ParRow {
        name: name.to_string(),
        n,
        rounds,
        reps,
        median_ns,
    }
}

fn parallel_baseline(smoke: bool, out: &str, trace_out: Option<&str>) {
    use fssga_engine::StateSpace;
    use fssga_graph::generators;
    let (side, pa_n, reps) = if smoke {
        (32, 2_000, 1)
    } else {
        (224, 50_000, 5)
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let torus = generators::torus(side, side);
    let mut rng = Xoshiro256::seed_from_u64(DEFAULT_SEED);
    let powerlaw = generators::preferential_attachment(pa_n, 4, &mut rng);
    println!(
        "parallel baseline: torus {side}x{side} (n = {}) + power-law (n = {pa_n}), \
         {reps} rep(s) x threads {THREAD_COUNTS:?}, host has {host_cpus} cpu(s)",
        torus.n()
    );

    fn census_run<'a>(
        g: &'a Graph,
        sketches: &'a [FmSketch<16>],
    ) -> impl FnMut(usize) -> (usize, u64) + 'a {
        use fssga_engine::StateSpace;
        move |threads: usize| {
            let mut net = Network::new(g, Census::<16>, |v| sketches[v as usize]);
            let report = Runner::new(&mut net)
                .engine(Engine::Kernel)
                .threads(threads)
                .budget(Budget::Fixpoint(10 * g.n()))
                .run();
            (
                report.fixpoint.expect("census converges"),
                fingerprint(net.states().iter().map(|s| s.index())),
            )
        }
    }
    let mut rng = Xoshiro256::seed_from_u64(DEFAULT_SEED);
    let torus_sketches: Vec<FmSketch<16>> = (0..torus.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(DEFAULT_SEED ^ 1);
    let pa_sketches: Vec<FmSketch<16>> = (0..powerlaw.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    const CAP: usize = 256;
    let sp_run = |threads: usize| {
        let mut net = Network::new(&torus, ShortestPaths::<CAP>, |v| {
            ShortestPaths::<CAP>::init(v == 0)
        });
        let report = Runner::new(&mut net)
            .engine(Engine::Kernel)
            .threads(threads)
            .budget(Budget::Fixpoint(8 * CAP))
            .run();
        (
            report.fixpoint.expect("relaxation converges"),
            fingerprint(net.states().iter().map(|s| s.index())),
        )
    };

    let rows = [
        parallel_workload(
            &format!("census/torus-{side}x{side}"),
            torus.n(),
            reps,
            census_run(&torus, &torus_sketches),
        ),
        parallel_workload(
            &format!("shortest-paths/torus-{side}x{side}"),
            torus.n(),
            reps,
            sp_run,
        ),
        parallel_workload(
            &format!("census/powerlaw-{pa_n}"),
            powerlaw.n(),
            reps,
            census_run(&powerlaw, &pa_sketches),
        ),
    ];
    for row in &rows {
        let cols: Vec<String> = THREAD_COUNTS
            .iter()
            .zip(&row.median_ns)
            .map(|(t, &ns)| format!("t{t} {:>10}", fmt_ns(ns)))
            .collect();
        println!(
            "{:<28} n={:<6} rounds={:<4} {}  speedup@4t {:.2}x",
            row.name,
            row.n,
            row.rounds,
            cols.join(" "),
            row.median_ns[0] / row.median_ns[2]
        );
    }
    // One observed, traced run at the top thread count: the JSONL stream
    // carries per-shard events, and must be byte-deterministic (the
    // committing thread emits shard lines in ascending shard order).
    if let Some(path) = trace_out {
        let f = std::io::BufWriter::new(std::fs::File::create(path).expect("create trace"));
        let mut sink = fssga_engine::JsonlTrace::new(f);
        let mut net = Network::new(&torus, Census::<16>, |v| torus_sketches[v as usize]);
        Runner::new(&mut net)
            .engine(Engine::Kernel)
            .threads(*THREAD_COUNTS.last().unwrap())
            .budget(Budget::Fixpoint(10 * torus.n()))
            .observed()
            .tracer(&mut sink)
            .run();
        sink.into_inner().flush().expect("flush trace");
        println!("wrote {path}");
    }
    let body: Vec<String> = rows.iter().map(ParRow::to_json).collect();
    let threads_json: Vec<String> = THREAD_COUNTS.iter().map(usize::to_string).collect();
    let json = format!(
        "{{\"bench\":\"parallel\",\"smoke\":{},\"host_cpus\":{},\
         \"threads\":[{}],\"workloads\":[{}]}}\n",
        smoke,
        host_cpus,
        threads_json.join(","),
        body.join(",")
    );
    std::fs::write(out, json).expect("write baseline json");
    println!("wrote {out}");
}

/// Deterministic sketch for a node id, shared by every replay of the
/// same stream so arriving nodes start identically everywhere.
fn churn_sketch(v: NodeId) -> FmSketch<16> {
    let mut rng =
        Xoshiro256::seed_from_u64(DEFAULT_SEED ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FmSketch::random_init(&mut rng)
}

fn churn_baseline(smoke: bool, out: &str, trace_out: Option<&str>) {
    use fssga_engine::StateSpace;
    use fssga_graph::generators;
    let (side, horizon, rate) = if smoke {
        (32, 64, 2.0)
    } else {
        (224, 2_000, 5.0)
    };
    let g = generators::torus(side, side);
    let stream = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: DEFAULT_SEED,
            horizon,
            rate,
            ..ChurnConfig::default()
        },
    );
    println!(
        "churn baseline: torus {side}x{side} (n = {}), {} scheduled events over {horizon} rounds",
        g.n(),
        stream.len()
    );

    let converge = |net: &mut Network<Census<16>>| {
        Runner::new(net)
            .engine(Engine::Kernel)
            .budget(Budget::Fixpoint(10 * g.n()))
            .run()
            .fixpoint
            .expect("census converges");
    };

    // From-scratch rebuild cost: one full kernel fixpoint on the initial
    // topology — what every event would cost if repair meant rebuilding.
    let mut rebuild = Network::new_compiled(&g, Census::<16>, churn_sketch);
    let t = Instant::now();
    converge(&mut rebuild);
    let rebuild_ns = t.elapsed().as_nanos() as f64;
    let rebuild_activations = rebuild.metrics.activations;

    // Incremental run: converge first, then stream the events through the
    // dirty-set kernel. The report's activations count only churn work
    // (the harness reads per-round metric deltas).
    let mut net = Network::new_compiled(&g, Census::<16>, churn_sketch);
    converge(&mut net);
    let t = Instant::now();
    let report = run_churn_traced(
        &mut net,
        &stream,
        churn_sketch,
        &mut fssga_engine::NullTracer,
    );
    let churn_ns = t.elapsed().as_nanos() as f64;
    let fp_kernel = fingerprint(net.states().iter().map(|s| s.index()));

    // Interpreter replay: full recompute every round — the from-scratch
    // semantics the incremental path must be indistinguishable from.
    let mut full = Network::new(&g, Census::<16>, churn_sketch);
    Runner::new(&mut full)
        .engine(Engine::Interpreter)
        .budget(Budget::Fixpoint(10 * g.n()))
        .run()
        .fixpoint
        .expect("census converges");
    let mut plan = stream.plan();
    for round in 0..stream.horizon() {
        plan.apply_due_with(&mut full, round, churn_sketch);
        full.sync_step_seeded(0);
    }
    let bit_identical = fingerprint(full.states().iter().map(|s| s.index())) == fp_kernel;
    assert!(
        bit_identical,
        "incremental kernel repair diverged from full recompute"
    );

    // One untimed traced replay when a JSONL artifact was requested.
    if let Some(path) = trace_out {
        let f = std::io::BufWriter::new(std::fs::File::create(path).expect("create trace"));
        let mut sink = fssga_engine::JsonlTrace::new(f);
        let mut traced = Network::new_compiled(&g, Census::<16>, churn_sketch);
        converge(&mut traced);
        let _ = run_churn_traced(&mut traced, &stream, churn_sketch, &mut sink);
        sink.into_inner().flush().expect("flush trace");
        println!("wrote {path}");
    }

    let events_per_sec = report.events() as f64 / (churn_ns / 1e9);
    let rebuild_ratio = rebuild_activations as f64 / report.work_per_event().max(f64::MIN_POSITIVE);
    println!(
        "applied {} events ({} arrivals, {} departures, {} skipped) in {}",
        report.events(),
        report.arrivals,
        report.departures,
        report.skipped,
        fmt_ns(churn_ns)
    );
    println!(
        "work/event {:>8.1} activations vs rebuild {} ({:.0}x cheaper)  \
         events/sec {:>9.0}  recovery p50/p99/max {}/{}/{} rounds  bit-identical {}",
        report.work_per_event(),
        rebuild_activations,
        rebuild_ratio,
        events_per_sec,
        report.recovery_quantile(0.5),
        report.recovery_quantile(0.99),
        report.recovery_quantile(1.0),
        bit_identical
    );
    let json = format!(
        "{{\"bench\":\"churn\",\"smoke\":{},\"n\":{},\"horizon\":{},\"rate\":{:.1},\
         \"scheduled_events\":{},\"applied_events\":{},\"arrivals\":{},\"departures\":{},\
         \"skipped\":{},\"rounds\":{},\"work_per_event\":{:.2},\"rebuild_activations\":{},\
         \"rebuild_ratio\":{:.1},\"rebuild_ns\":{:.0},\"events_per_sec\":{:.1},\
         \"elapsed_ns\":{:.0},\"recovery_p50\":{},\"recovery_p90\":{},\"recovery_p99\":{},\
         \"recovery_max\":{},\"bit_identical\":{},\"final_alive\":{},\"final_edges\":{}}}\n",
        smoke,
        g.n(),
        horizon,
        rate,
        stream.len(),
        report.events(),
        report.arrivals,
        report.departures,
        report.skipped,
        report.rounds,
        report.work_per_event(),
        rebuild_activations,
        rebuild_ratio,
        rebuild_ns,
        events_per_sec,
        churn_ns,
        report.recovery_quantile(0.5),
        report.recovery_quantile(0.9),
        report.recovery_quantile(0.99),
        report.recovery_quantile(1.0),
        bit_identical,
        report.final_alive,
        report.final_edges
    );
    std::fs::write(out, json).expect("write baseline json");
    println!("wrote {out}");
}

/// The golden observability snapshot: per-round metrics of a compiled
/// census run on `path(16)` — tiny, deterministic (sketches drawn from
/// [`DEFAULT_SEED`]), and exercising the dirty-set scheduler. CI
/// regenerates this and diffs it against the recorded file, so any
/// change to metric semantics must update the snapshot deliberately.
fn golden_metrics() -> String {
    use fssga_graph::generators;
    let g = generators::path(16);
    let mut rng = Xoshiro256::seed_from_u64(DEFAULT_SEED);
    let sketches: Vec<FmSketch<8>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let mut net = Network::new(&g, Census::<8>, |v| sketches[v as usize]);
    let mut log = RoundLog::default();
    Runner::new(&mut net)
        .engine(Engine::Kernel)
        .budget(Budget::Fixpoint(160))
        .tracer(&mut log)
        .run();
    let mut s = String::new();
    for r in &log.rounds {
        s.push_str(&r.to_jsonl());
        s.push('\n');
    }
    s
}

fn golden(check: bool, path: &str) {
    let fresh = golden_metrics();
    if check {
        let recorded = std::fs::read_to_string(path).expect("read recorded snapshot");
        if recorded != fresh {
            eprintln!("golden metrics snapshot drifted from {path}:");
            for (i, (a, b)) in recorded.lines().zip(fresh.lines()).enumerate() {
                if a != b {
                    eprintln!("line {}:\n  recorded: {a}\n  fresh:    {b}", i + 1);
                }
            }
            let (r, f) = (recorded.lines().count(), fresh.lines().count());
            if r != f {
                eprintln!("line counts differ: recorded {r}, fresh {f}");
            }
            std::process::exit(1);
        }
        println!("golden metrics snapshot matches {path}");
    } else {
        std::fs::write(path, fresh).expect("write snapshot");
        println!("wrote {path}");
    }
}

/// What one client's one job produced.
struct ServeJobResult {
    latency_ns: f64,
    fingerprint: String,
    round_frames: u64,
    sheds: u64,
    captured: Vec<String>,
}

/// Submits one job over a fresh connection (reconnecting after
/// `overloaded` sheds — the server closes the connection with the
/// error frame) and reads the stream to its final frame.
fn serve_submit(target: &str, spec_json: &str, capture: bool) -> Result<ServeJobResult, String> {
    use fssga_serve::{read_frame, write_frame, Json};
    use std::net::TcpStream;
    let mut sheds = 0u64;
    loop {
        let mut stream = TcpStream::connect(target).map_err(|e| format!("connect: {e}"))?;
        let t0 = Instant::now();
        write_frame(&mut stream, spec_json).map_err(|e| format!("submit: {e}"))?;
        let mut round_frames = 0u64;
        let mut captured = Vec::new();
        let shed = loop {
            let text = read_frame(&mut stream)
                .map_err(|e| format!("read: {e}"))?
                .ok_or("server closed mid-job")?;
            let v = Json::parse(&text).map_err(|e| format!("bad frame: {e}"))?;
            if capture {
                captured.push(text.clone());
            }
            match v.get("t").and_then(Json::as_str) {
                Some("accepted") => {}
                Some("round") | Some("shard") | Some("churn") | Some("fault") => round_frames += 1,
                Some("done") => {
                    let fingerprint = v
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .ok_or("done frame without fingerprint")?
                        .to_owned();
                    return Ok(ServeJobResult {
                        latency_ns: t0.elapsed().as_nanos() as f64,
                        fingerprint,
                        round_frames,
                        sheds,
                        captured,
                    });
                }
                Some("error") => {
                    let code = v.get("code").and_then(Json::as_str).unwrap_or("?");
                    if code == "overloaded" {
                        break true; // shed: back off and resubmit
                    }
                    return Err(format!("job failed: {text}"));
                }
                other => return Err(format!("unexpected frame type {other:?}")),
            }
        };
        if shed {
            sheds += 1;
            std::thread::sleep(std::time::Duration::from_millis(2 * sheds.min(25)));
        }
    }
}

/// Runs `spec_json` in-process through the service's own executor to
/// get the reference fingerprint the served runs must reproduce.
fn serve_local_fingerprint(spec_json: &str) -> String {
    use fssga_serve::{execute, JobCancel, JobSpec, Json, Limits};
    let v = Json::parse(spec_json).expect("spec json");
    let spec = JobSpec::parse(&v, &Limits::default()).expect("spec parses");
    let (tx, rx) = std::sync::mpsc::sync_channel(1 << 14);
    let done = execute(0, &spec, &JobCancel::new(), &tx).expect("local reference run");
    drop((tx, rx));
    Json::parse(&done)
        .expect("done json")
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_owned()
}

/// The service throughput/latency baseline (see the module docs).
fn serve_baseline(
    smoke: bool,
    out: &str,
    addr: Option<&str>,
    clients_override: Option<usize>,
    jsonl_out: Option<&str>,
    send_shutdown: bool,
) {
    use fssga_serve::{serve, write_frame, ServeConfig};
    let (default_clients, jobs_per_client, side) = if smoke { (8, 2, 8) } else { (100, 3, 12) };
    let clients = clients_override.unwrap_or(default_clients);
    let specs: Vec<String> = vec![
        format!(
            r#"{{"t":"job","proto":"census","graph":{{"gen":"torus","rows":{side},"cols":{side}}}}}"#
        ),
        format!(
            r#"{{"t":"job","proto":"shortest-paths","graph":{{"gen":"torus","rows":{side},"cols":{side}}}}}"#
        ),
        format!(
            r#"{{"t":"job","proto":"kparity","graph":{{"gen":"cycle","n":{}}}}}"#,
            side * side
        ),
    ];
    let expected: Vec<String> = specs.iter().map(|s| serve_local_fingerprint(s)).collect();

    let (workers, queue_cap) = (2usize, 32usize);
    let (handle, target) = match addr {
        Some(a) => (None, a.to_string()),
        None => {
            let h = serve(ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers,
                queue_cap,
                allow_shutdown: true,
                read_timeout_ms: 2_000,
                ..ServeConfig::default()
            })
            .expect("boot in-process server");
            let t = h.addr().to_string();
            (Some(h), t)
        }
    };
    println!(
        "serve load: {clients} clients x {jobs_per_client} jobs against {target} \
         ({} in-process)",
        if handle.is_some() { "booted" } else { "not" }
    );

    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|ci| {
            let target = target.clone();
            let specs = specs.clone();
            let expected = expected.clone();
            let capture = jsonl_out.is_some() && ci == 0;
            std::thread::spawn(move || -> Result<Vec<ServeJobResult>, String> {
                let mut results = Vec::new();
                for j in 0..jobs_per_client {
                    let which = (ci + j) % specs.len();
                    let r = serve_submit(&target, &specs[which], capture && j == 0)?;
                    if r.fingerprint != expected[which] {
                        return Err(format!(
                            "client {ci} job {j}: fingerprint {} != expected {}",
                            r.fingerprint, expected[which]
                        ));
                    }
                    results.push(r);
                }
                Ok(results)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut round_frames = 0u64;
    let mut sheds = 0u64;
    let mut captured: Vec<String> = Vec::new();
    for t in threads {
        let results = t
            .join()
            .expect("client thread")
            .unwrap_or_else(|e| panic!("serve load client failed: {e}"));
        for r in results {
            latencies.push(r.latency_ns);
            round_frames += r.round_frames;
            sheds += r.sheds;
            if !r.captured.is_empty() {
                captured = r.captured;
            }
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;

    if let (Some(path), false) = (jsonl_out, captured.is_empty()) {
        let mut text = captured.join("\n");
        text.push('\n');
        std::fs::write(path, text).expect("write jsonl artifact");
        println!("wrote {path}");
    }
    if let Some(a) = addr {
        if send_shutdown {
            let mut s = std::net::TcpStream::connect(a).expect("connect for shutdown");
            write_frame(&mut s, r#"{"t":"shutdown"}"#).expect("send shutdown");
            println!("sent shutdown frame to {a}");
        }
    }
    if let Some(h) = handle {
        h.shutdown();
    }

    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
    let jobs = latencies.len();
    let jobs_per_sec = jobs as f64 / (elapsed_ns / 1e9);
    println!(
        "{jobs} jobs ok ({sheds} sheds retried), {round_frames} streamed round frames, \
         all fingerprints bit-identical to in-process runs"
    );
    println!(
        "jobs/sec {jobs_per_sec:>7.1}  latency p50/p99/max {}/{}/{}",
        fmt_ns(pct(0.5)),
        fmt_ns(pct(0.99)),
        fmt_ns(pct(1.0)),
    );
    let json = format!(
        "{{\"bench\":\"serve\",\"smoke\":{},\"clients\":{},\"jobs_per_client\":{},\
         \"jobs\":{},\"workers\":{},\"queue_cap\":{},\"sheds\":{},\"round_frames\":{},\
         \"elapsed_ns\":{:.0},\"jobs_per_sec\":{:.1},\"latency_p50_ns\":{:.0},\
         \"latency_p90_ns\":{:.0},\"latency_p99_ns\":{:.0},\"latency_max_ns\":{:.0},\
         \"bit_identical\":true}}\n",
        smoke,
        clients,
        jobs_per_client,
        jobs,
        workers,
        queue_cap,
        sheds,
        round_frames,
        elapsed_ns,
        jobs_per_sec,
        pct(0.5),
        pct(0.9),
        pct(0.99),
        pct(1.0),
    );
    std::fs::write(out, json).expect("write baseline json");
    println!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let trace_out = flag("--trace-out");
    match args.first().map(String::as_str) {
        Some("engine") => {
            let out = flag("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());
            engine_baseline(smoke, &out, trace_out.as_deref());
        }
        Some("parallel") => {
            let out = flag("--out").unwrap_or_else(|| "BENCH_parallel.json".to_string());
            parallel_baseline(smoke, &out, trace_out.as_deref());
        }
        Some("golden") => {
            let out = flag("--out")
                .unwrap_or_else(|| "tests/golden/census_path16_metrics.jsonl".to_string());
            golden(check, &out);
        }
        Some("churn") => {
            let out = flag("--out").unwrap_or_else(|| "BENCH_churn.json".to_string());
            churn_baseline(smoke, &out, trace_out.as_deref());
        }
        Some("serve") => {
            let out = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
            let addr = flag("--addr");
            let clients = flag("--clients").map(|c| c.parse().expect("--clients is a count"));
            let jsonl_out = flag("--jsonl-out");
            let send_shutdown = args.iter().any(|a| a == "--shutdown");
            serve_baseline(
                smoke,
                &out,
                addr.as_deref(),
                clients,
                jsonl_out.as_deref(),
                send_shutdown,
            );
        }
        other => {
            eprintln!(
                "usage: fssga-bench engine [--smoke] [--out PATH] [--trace-out PATH]\n\
                 \x20      fssga-bench parallel [--smoke] [--out PATH] [--trace-out PATH]\n\
                 \x20      fssga-bench golden [--check] [--out PATH]\n\
                 \x20      fssga-bench churn [--smoke] [--out PATH] [--trace-out PATH]\n\
                 \x20      fssga-bench serve [--smoke] [--out PATH] [--addr HOST:PORT] \
                 [--clients N] [--jsonl-out PATH] [--shutdown]  \
                 (got {other:?})"
            );
            std::process::exit(2);
        }
    }
}
