//! `fssga-chaos` — smoke fault-campaign gate for the FSSGA workspace.
//!
//! Runs a suite of deterministic fault campaigns (lint-gate style): random
//! fault plans against the fault-tolerant algorithms under every
//! scheduling policy, a replay-determinism audit, and a deliberately
//! broken oracle whose counterexample is delta-debugged and printed with
//! its witness. Exits non-zero if any campaign that should be reasonably
//! correct is not, or if a trace fails to replay bit-for-bit.
//!
//! Usage:
//!     fssga-chaos                     # run the smoke suite
//!     fssga-chaos --seed N            # override the base seed
//!     fssga-chaos --trace-out PATH    # also write a JSONL round/fault trace
//!     fssga-chaos --churn-out PATH    # write a serialized smoke churn stream
//!     fssga-chaos --churn-replay PATH # replay a churn stream, audit determinism
//!
//! The trace artifact is one JSON-lines record per synchronous round
//! (`{"t":"round",...}` — see `fssga_engine::RoundMetrics::to_jsonl`)
//! interleaved with the fault surgeries the campaign applied
//! (`{"t":"fault",...}`), from a census campaign on the smoke grid.
//!
//! `--churn-replay` parses a `churn-stream v1` text file (the format
//! `--churn-out` emits), replays it twice against the 8x8 smoke torus —
//! census on the compiled kernel, continuous structural oracle every
//! round — and fails unless the two runs agree bit-for-bit (reports and
//! final states) with zero oracle failures.

use fssga_engine::campaign::{Campaign, RunPolicy};
use fssga_engine::faults::{FaultEvent, FaultKind, FaultPlan};
use fssga_engine::sensitivity::{Sensitive, Verdict};
use fssga_engine::{
    run_churn_oracle_traced, ChurnConfig, ChurnOptions, ChurnStream, Network, NullTracer,
};
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{generators, DynGraph, Graph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_protocols::shortest_paths::{labels_as_distances, ShortestPaths};
use fssga_protocols::synchronizer::BetaSynchronizer;

/// A fault schedule as one log field: `t=T <kind fields>`, comma-joined.
fn schedule_str(schedule: &[FaultEvent]) -> String {
    let events: Vec<String> = schedule
        .iter()
        .map(|e| format!("t={} {}", e.time, e.kind.to_trace_fields()))
        .collect();
    events.join(", ")
}

/// A census campaign with fixed sketches, read at node 0.
fn census_campaign(g: &Graph, seed: u64) -> Campaign<'static, Census<12>, u16> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sketches: Vec<FmSketch<12>> = (0..g.n())
        .map(|_| FmSketch::random_init(&mut rng))
        .collect();
    let reference = sketches.clone();
    Campaign::new(
        g,
        || Census::<12>,
        move |v| sketches[v as usize],
        |net: &Network<Census<12>>| net.graph().is_alive(0).then(|| net.state(0).0),
        move |g: &Graph| {
            let d = DynGraph::from_graph(g);
            d.component_of(0)
                .into_iter()
                .fold(0u16, |acc, v| acc | reference[v as usize].0)
        },
    )
    .seed(seed)
}

/// A shortest-paths campaign (sink 0), judged on the surviving labels.
fn sp_campaign(g: &Graph, seed: u64) -> Campaign<'static, ShortestPaths<64>, Vec<(NodeId, u32)>> {
    Campaign::new(
        g,
        || ShortestPaths::<64>,
        |v| ShortestPaths::<64>::init(v == 0),
        |net: &Network<ShortestPaths<64>>| {
            net.graph().is_alive(0).then(|| {
                let dist = labels_as_distances(net.states());
                net.graph()
                    .alive_nodes()
                    .map(|v| (v, dist[v as usize]))
                    .collect::<Vec<_>>()
            })
        },
        |g: &Graph| {
            let dist = fssga_graph::exact::bfs_distances(g, &[0]);
            g.nodes()
                .filter(|&v| g.degree(v) > 0)
                .map(|v| (v, dist[v as usize]))
                .collect::<Vec<_>>()
        },
    )
    .seed(seed)
}

/// Runs one campaign under every policy; returns the number of failures.
fn smoke<P, A>(name: &str, make: impl Fn(u64) -> Campaign<'static, P, A>, seed: u64) -> u32
where
    P: fssga_engine::Protocol,
    A: PartialEq + Clone,
{
    let mut failures = 0;
    for (i, policy) in RunPolicy::ALL.into_iter().enumerate() {
        let campaign = make(seed + i as u64).policy(policy);
        let out = campaign.run();
        let ok = out.verdict == Verdict::ReasonablyCorrect;
        // Determinism audit: the emitted trace must replay bit-for-bit.
        let replay_ok = campaign.replay(&out.trace).trace == out.trace;
        println!(
            "  {name:<16} {:<24} faults=[{}] verdict={:?} replay={}",
            policy.tag(),
            schedule_str(&out.trace.schedule),
            out.verdict,
            if replay_ok { "ok" } else { "MISMATCH" },
        );
        if !ok || !replay_ok {
            failures += 1;
            if !ok {
                // Print the minimized schedule so the log is actionable.
                if let Some(shrunk) = campaign.shrink() {
                    println!(
                        "    shrunk counterexample: [{}]",
                        schedule_str(&shrunk.schedule)
                    );
                }
            }
        }
    }
    failures
}

/// The per-node census sketch used by the churn replay: a pure function
/// of `(seed, v)` so arrivals get the same sketch in every run.
fn churn_sketch(seed: u64, v: NodeId) -> FmSketch<12> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FmSketch::random_init(&mut rng)
}

/// One churn replay run against the smoke torus: census on the compiled
/// kernel, continuous structural oracle (live-edge count against the
/// sliding topology window — snapshots preserve live edges exactly)
/// every round.
fn churn_run(stream: &ChurnStream, seed: u64) -> (fssga_engine::ChurnReport, Vec<FmSketch<12>>) {
    let g = generators::torus(8, 8);
    let mut net = Network::new_compiled(&g, Census::<12>, |v| churn_sketch(seed, v));
    let report = run_churn_oracle_traced(
        &mut net,
        stream,
        &ChurnOptions::default(),
        |v| churn_sketch(seed, v),
        |net: &Network<Census<12>>| Some(net.graph().m()),
        |g: &Graph| g.m(),
        &mut NullTracer,
    );
    (report, net.states().to_vec())
}

/// Replays a serialized churn stream twice and audits that the runs are
/// bit-identical with a clean oracle; returns the number of failures.
fn churn_replay(path: &str, seed: u64) -> u32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fssga-chaos: cannot read {path}: {e}");
            return 1;
        }
    };
    let stream = match ChurnStream::from_text(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fssga-chaos: bad churn stream in {path}: {e}");
            return 1;
        }
    };
    let (ra, fa) = churn_run(&stream, seed);
    let (rb, fb) = churn_run(&stream, seed);
    let deterministic = ra == rb && fa == fb;
    println!(
        "  churn-replay {path}: {} scheduled event(s), {} applied ({} arrivals, {} departures, \
         {} skipped) over {} round(s); work/event={:.2} oracle={}/{} clean replay={}",
        stream.len(),
        ra.events(),
        ra.arrivals,
        ra.departures,
        ra.skipped,
        ra.rounds,
        ra.work_per_event(),
        ra.oracle_checks - ra.oracle_failures,
        ra.oracle_checks,
        if deterministic { "ok" } else { "MISMATCH" },
    );
    u32::from(!deterministic) + u32::from(ra.oracle_failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 0xC4A05u64;
    let mut trace_out: Option<String> = None;
    let mut churn_out: Option<String> = None;
    let mut churn_replay_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }
            },
            "--churn-out" => match it.next() {
                Some(p) => churn_out = Some(p.clone()),
                None => {
                    eprintln!("--churn-out needs a path");
                    std::process::exit(2);
                }
            },
            "--churn-replay" => match it.next() {
                Some(p) => churn_replay_path = Some(p.clone()),
                None => {
                    eprintln!("--churn-replay needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown flag {other}; usage: fssga-chaos [--seed N] [--trace-out PATH] \
                     [--churn-out PATH] [--churn-replay PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let mut failures = 0u32;

    // --- Optional artifact: a replayable churn stream on the smoke torus. ---
    if let Some(path) = churn_out.as_deref() {
        let g = generators::torus(8, 8);
        let stream = ChurnStream::generate(
            &DynGraph::from_graph(&g),
            &ChurnConfig {
                seed,
                horizon: 120,
                rate: 2.0,
                protected: vec![0],
                ..ChurnConfig::default()
            },
        );
        std::fs::write(path, stream.to_text()).expect("write churn stream");
        println!(
            "fssga-chaos: wrote churn stream ({} event(s) over {} round(s)) to {path}",
            stream.len(),
            stream.horizon()
        );
    }

    // --- Churn replay: determinism + continuous-oracle audit. ---
    if let Some(path) = churn_replay_path.as_deref() {
        println!("fssga-chaos: churn stream replay...");
        failures += churn_replay(path, seed);
    }

    // --- Smoke campaigns: fault-tolerant algorithms must stay correct. ---
    println!("fssga-chaos: smoke campaigns (random non-critical fault plans)...");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let grid = generators::grid(5, 5);
    let gnp = generators::connected_gnp(24, 0.2, &mut rng);
    {
        let base = DynGraph::from_graph(&grid);
        let plan = FaultPlan::random(&base, 4, 12, 0.7, &[0], &mut rng);
        failures += smoke(
            "census/grid",
            |s| census_campaign(&grid, s).horizon(40).plan(plan.clone()),
            seed,
        );
    }
    {
        let base = DynGraph::from_graph(&gnp);
        let plan = FaultPlan::random(&base, 3, 10, 0.8, &[0], &mut rng);
        failures += smoke(
            "sssp/gnp",
            |s| sp_campaign(&gnp, s).horizon(80).plan(plan.clone()),
            seed + 10,
        );
    }

    // --- Optional artifact: replayable round/fault trace of one campaign. ---
    if let Some(path) = trace_out.as_deref() {
        use std::io::Write;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x7ACE);
        let base = DynGraph::from_graph(&grid);
        let plan = FaultPlan::random(&base, 4, 12, 0.7, &[0], &mut rng);
        let campaign = census_campaign(&grid, seed).horizon(40).plan(plan);
        let f = std::io::BufWriter::new(std::fs::File::create(path).expect("create trace file"));
        let mut sink = fssga_engine::JsonlTrace::new(f);
        let out = campaign.run_traced(&mut sink);
        sink.into_inner().flush().expect("flush trace file");
        println!(
            "fssga-chaos: wrote round/fault trace ({} fault(s), verdict={:?}) to {path}",
            out.trace.schedule.len(),
            out.verdict
        );
    }

    // --- Broken-oracle demo: must fail, shrink to one event, replay. ---
    println!("fssga-chaos: broken-oracle counterexample (expected to fail + shrink)...");
    let path = generators::path(10);
    let full = {
        let mut rng = Xoshiro256::seed_from_u64(seed + 20);
        let sketches: Vec<FmSketch<12>> = (0..path.n())
            .map(|_| FmSketch::random_init(&mut rng))
            .collect();
        sketches.iter().fold(0u16, |acc, s| acc | s.0)
    };
    let broken = {
        let mut rng = Xoshiro256::seed_from_u64(seed + 20);
        let sketches: Vec<FmSketch<12>> = (0..path.n())
            .map(|_| FmSketch::random_init(&mut rng))
            .collect();
        Campaign::new(
            &path,
            || Census::<12>,
            move |v| sketches[v as usize],
            |net: &Network<Census<12>>| net.graph().is_alive(0).then(|| net.state(0).0),
            move |_: &Graph| full, // ignores faults: deliberately wrong
        )
        .horizon(25)
        .plan(FaultPlan::new(vec![
            FaultEvent {
                time: 0,
                kind: FaultKind::Edge(3, 4),
            },
            FaultEvent {
                time: 8,
                kind: FaultKind::Node(9),
            },
        ]))
    };
    let out = broken.run();
    match broken.shrink() {
        Some(shrunk) if out.verdict == Verdict::Incorrect => {
            println!(
                "  verdict={:?}; shrunk {} -> {} event(s) in {} tests: [{}]",
                out.verdict,
                broken.current_plan().events().len(),
                shrunk.schedule.len(),
                shrunk.tests,
                schedule_str(&shrunk.schedule),
            );
            let minimal = broken.run_with_schedule(&shrunk.schedule);
            let witness_len = minimal.snapshots.len();
            println!(
                "  witness chain: {witness_len} snapshot(s); replay={}",
                if broken.replay(&minimal.trace).trace == minimal.trace {
                    "ok"
                } else {
                    "MISMATCH"
                }
            );
            if shrunk.schedule.len() != 1 || broken.replay(&minimal.trace).trace != minimal.trace {
                failures += 1;
            }
        }
        _ => {
            println!("  ERROR: broken oracle did not produce a shrinkable failure");
            failures += 1;
        }
    }

    // --- Sensitivity contrast: census χ=∅ vs β synchronizer χ=Θ(n). ---
    println!("fssga-chaos: declared sensitivity contrast...");
    let cyc = generators::cycle(12);
    let census_net = census_campaign(&cyc, seed).run(); // fault-free
    let beta = BetaSynchronizer::new(&cyc, 0);
    println!(
        "  census: class={:?} |chi|=0, fault-free verdict={:?}",
        fssga_engine::SensitivityClass::Zero,
        census_net.verdict
    );
    println!(
        "  beta-synchronizer: class={:?} |chi|={} of n={}",
        beta.sensitivity_class(),
        Sensitive::critical_set(&beta).len(),
        cyc.n()
    );
    if census_net.verdict != Verdict::ReasonablyCorrect {
        failures += 1;
    }
    if Sensitive::critical_set(&beta).len() < cyc.n() - 2 {
        println!("  ERROR: beta critical set unexpectedly small");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("fssga-chaos: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("fssga-chaos: all campaigns clean");
}
