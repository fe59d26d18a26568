//! Job execution: one validated [`JobSpec`] → one engine run.
//!
//! This module owns the protocol registry (the typed dispatch from
//! [`Proto`] to concrete engine invocations) and the cancellation
//! plumbing. Every run polls the job's [`JobCancel`] at round
//! boundaries, so the job stops at the next one once its wall deadline
//! passes or the connection writer finds the client gone; which of the
//! two happened decides the error code.
//!
//! Determinism contract: every job is a pure function of its
//! [`JobSpec`] — seeded topology, seeded initial states, deterministic
//! engines — so re-running a spec (here, through `fssga-bench`, or by a
//! direct [`Runner`] call following the recipes documented on
//! [`Proto`]) reproduces the streamed metrics and the final-state
//! fingerprint bit for bit. The `done` frame carries that fingerprint
//! (FNV-1a over final state indices, hex-encoded) as the witness.

use std::sync::mpsc::SyncSender;

use fssga_engine::{
    fingerprint, run_churn_oracle_traced, Budget, CancelToken, ChannelTrace, ChurnConfig,
    ChurnOptions, ChurnStream, Engine, Network, NullTracer, Protocol, RunReport, Runner,
    StateSpace, Tracer,
};
use fssga_graph::{DynGraph, NodeId};
use fssga_protocols::census::{Census, FmSketch};
use fssga_protocols::parity::{KParity, ParityState};
use fssga_protocols::shortest_paths::ShortestPaths;
use fssga_protocols::unison::{KUnison, UnisonState};

use crate::job::{codes, JobError, JobKind, JobSpec, Proto};
use crate::json::{self, Json};

/// One served job's cancel handle: the engine's [`CancelToken`], built
/// with the job's wall deadline (admission time + `wall_ms`). The
/// engine polls it at round boundaries; the connection writer cancels
/// it when the client is gone.
pub type JobCancel = CancelToken;

/// The per-node initial census sketch for job seed `seed` — derived
/// per node (not from a sequential RNG) so churn arrivals are just as
/// deterministic as the initial population.
pub fn census_sketch(seed: u64, v: NodeId) -> FmSketch<16> {
    use fssga_graph::rng::Xoshiro256;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FmSketch::random_init(&mut rng)
}

/// Executes `spec` as job `job`, streaming metric lines into `tx` when
/// the spec asks for it. Returns the final `done` line, or the
/// structured error to send instead. Blocking happens only inside the
/// engine and on the (cancellation-aware) stream channel.
pub fn execute(
    job: u64,
    spec: &JobSpec,
    cancel: &JobCancel,
    tx: &SyncSender<String>,
) -> Result<String, JobError> {
    match spec.kind {
        JobKind::Churn => churn_job(job, spec, cancel, tx),
        JobKind::Run => {
            let seed = spec.seed;
            match spec.proto {
                Proto::Census => run_job(job, spec, cancel, tx, Census::<16>, |v| {
                    census_sketch(seed, v)
                }),
                Proto::ShortestPaths => run_job(job, spec, cancel, tx, ShortestPaths::<256>, |v| {
                    ShortestPaths::<256>::init(v == 0)
                }),
                Proto::KParity => run_job(job, spec, cancel, tx, KParity::<16>, |v| {
                    ParityState::init(v == 0)
                }),
                Proto::KUnison => {
                    run_job(job, spec, cancel, tx, KUnison::<8>, |_| UnisonState::at(0))
                }
            }
        }
    }
}

/// Maps a finished run to its `done` line or structured error.
fn finish_run(
    job: u64,
    spec: &JobSpec,
    cancel: &JobCancel,
    report: &RunReport,
    fp: u64,
) -> Result<String, JobError> {
    if report.cancelled {
        return Err(cancel_error(cancel, spec));
    }
    if spec.fixpoint && report.fixpoint.is_none() {
        return Err(JobError::new(
            codes::BUDGET_ROUNDS,
            format!(
                "no fixpoint within the round budget ({} rounds)",
                spec.rounds
            ),
        ));
    }
    Ok(json::obj(vec![
        ("t", json::s("done")),
        ("job", json::nu(job)),
        ("kind", json::s("run")),
        ("rounds", json::nu(report.rounds as u64)),
        ("activations", json::nu(report.activations)),
        ("changes", json::nu(report.changes)),
        (
            "fixpoint",
            report.fixpoint.map_or(Json::Null, |r| json::nu(r as u64)),
        ),
        ("fingerprint", json::s(format!("{fp:016x}"))),
    ])
    .to_string())
}

/// The error for a cancelled job. Only a deadline's cancellation can
/// reach a client: the writer cancels only for a client that is already
/// gone, and nothing cancels a running job for a shutdown.
fn cancel_error(cancel: &JobCancel, spec: &JobSpec) -> JobError {
    if cancel.past_deadline() {
        JobError::new(
            codes::BUDGET_WALL,
            format!("wall budget of {} ms exhausted", spec.wall_ms),
        )
    } else {
        JobError::new(codes::DISCONNECTED, "client disconnected")
    }
}

/// One static-topology [`Runner`] run. The monomorphized heart of the
/// service: everything protocol-specific arrived via `proto` + `init`.
fn run_job<P>(
    job: u64,
    spec: &JobSpec,
    cancel: &JobCancel,
    tx: &SyncSender<String>,
    proto: P,
    init: impl FnMut(NodeId) -> P::State,
) -> Result<String, JobError>
where
    P: Protocol + Sync,
    P::State: Send + Sync,
{
    let g = spec.graph.build(spec.seed);
    let mut net = Network::new(&g, proto, init);
    let budget = if spec.fixpoint {
        Budget::Fixpoint(spec.rounds)
    } else {
        Budget::Rounds(spec.rounds)
    };
    let report = {
        let runner = Runner::new(&mut net)
            .budget(budget)
            .seed(spec.seed)
            .cancel(cancel.clone())
            .threads(spec.threads);
        if spec.stream {
            runner
                .tracer(ChannelTrace::with_cancel(tx.clone(), cancel.clone()))
                .run()
        } else {
            runner.run()
        }
    };
    let fp = fingerprint(net.states().iter().map(|s| s.index()));
    finish_run(job, spec, cancel, &report, fp)
}

/// One churn run: seeded stream over the dirty-set kernel, census
/// protocol (enforced at parse time), converge-then-churn like the
/// recorded churn baselines.
fn churn_job(
    job: u64,
    spec: &JobSpec,
    cancel: &JobCancel,
    tx: &SyncSender<String>,
) -> Result<String, JobError> {
    let c = spec
        .churn
        .as_ref()
        .expect("churn spec present for churn kind");
    let g = spec.graph.build(spec.seed);
    let stream = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: spec.seed,
            horizon: c.horizon,
            rate: c.rate,
            arrival_bias: c.arrival_bias,
            edge_bias: c.edge_bias,
            attach: c.attach,
            protected: Vec::new(),
        },
    );
    let seed = spec.seed;
    let mut net = Network::new_compiled(&g, Census::<16>, |v| census_sketch(seed, v));
    // Converge on the initial topology first (the baseline protocol:
    // churn measures *repair*, not initial convergence).
    let pre = Runner::new(&mut net)
        .engine(Engine::Kernel)
        .budget(Budget::Fixpoint(10 * g.n().max(1)))
        .cancel(cancel.clone())
        .run();
    if pre.cancelled {
        return Err(cancel_error(cancel, spec));
    }
    let opts = ChurnOptions {
        window: 0,
        check_every: 0,
        cancel: Some(cancel.clone()),
    };
    fn churn_run<T: Tracer>(
        net: &mut Network<Census<16>>,
        stream: &ChurnStream,
        opts: &ChurnOptions,
        seed: u64,
        tracer: &mut T,
    ) -> fssga_engine::ChurnReport {
        run_churn_oracle_traced(
            net,
            stream,
            opts,
            |v| census_sketch(seed, v),
            |_| -> Option<()> { None },
            |_| (),
            tracer,
        )
    }
    let report = if spec.stream {
        let mut tracer = ChannelTrace::with_cancel(tx.clone(), cancel.clone());
        churn_run(&mut net, &stream, &opts, seed, &mut tracer)
    } else {
        churn_run(&mut net, &stream, &opts, seed, &mut NullTracer)
    };
    if cancel.is_cancelled() {
        return Err(cancel_error(cancel, spec));
    }
    let fp = fingerprint(net.states().iter().map(|s| s.index()));
    Ok(json::obj(vec![
        ("t", json::s("done")),
        ("job", json::nu(job)),
        ("kind", json::s("churn")),
        ("rounds", json::nu(report.rounds)),
        ("events", json::nu(report.events())),
        ("arrivals", json::nu(report.arrivals)),
        ("departures", json::nu(report.departures)),
        ("activations", json::nu(report.activations)),
        ("changes", json::nu(report.changes)),
        ("final_alive", json::nu(report.final_alive as u64)),
        ("final_edges", json::nu(report.final_edges as u64)),
        ("fingerprint", json::s(format!("{fp:016x}"))),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Limits;
    use std::sync::mpsc::sync_channel;
    use std::time::{Duration, Instant};

    fn spec(text: &str) -> JobSpec {
        JobSpec::parse(&Json::parse(text).unwrap(), &Limits::default()).unwrap()
    }

    /// Runs a spec with a roomy channel, returning (stream lines, result).
    fn run(spec: &JobSpec) -> (Vec<String>, Result<String, JobError>) {
        let (tx, rx) = sync_channel(4096);
        let cancel = JobCancel::new();
        let out = execute(1, spec, &cancel, &tx);
        drop(tx);
        (rx.into_iter().collect(), out)
    }

    #[test]
    fn census_job_reports_fixpoint_and_fingerprint() {
        let s = spec(r#"{"proto":"census","graph":{"gen":"torus","rows":8,"cols":8}}"#);
        let (lines, out) = run(&s);
        let done = Json::parse(&out.unwrap()).unwrap();
        assert_eq!(done.get("t").and_then(Json::as_str), Some("done"));
        let rounds = done.get("rounds").and_then(Json::as_u64).unwrap();
        assert!(rounds > 0);
        assert!(done.get("fixpoint").and_then(Json::as_u64).is_some());
        let fp = done
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert_eq!(fp.len(), 16);
        // One streamed round event per executed round.
        let round_lines = lines
            .iter()
            .filter(|l| l.starts_with(r#"{"t":"round""#))
            .count();
        assert_eq!(round_lines as u64, rounds);
        // Same spec → bit-identical outcome.
        let (_, again) = run(&s);
        let done2 = Json::parse(&again.unwrap()).unwrap();
        assert_eq!(
            done2.get("fingerprint").and_then(Json::as_str),
            Some(fp.as_str())
        );
    }

    #[test]
    fn sharded_run_matches_sequential_fingerprint() {
        let base =
            spec(r#"{"proto":"shortest-paths","graph":{"gen":"torus","rows":12,"cols":12}}"#);
        let sharded = spec(
            r#"{"proto":"shortest-paths","graph":{"gen":"torus","rows":12,"cols":12},"threads":3}"#,
        );
        let fp = |s: &JobSpec| {
            let (_, out) = run(s);
            Json::parse(&out.unwrap())
                .unwrap()
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        };
        assert_eq!(
            fp(&base),
            fp(&sharded),
            "thread count must not change results"
        );
    }

    #[test]
    fn kunison_fixpoint_request_fails_with_budget_rounds() {
        let s = spec(r#"{"proto":"kunison","graph":{"gen":"cycle","n":8},"rounds":32}"#);
        let (_, out) = run(&s);
        assert_eq!(out.unwrap_err().code, codes::BUDGET_ROUNDS);
        // Bounded non-fixpoint mode succeeds with exactly the asked rounds.
        let s = spec(
            r#"{"proto":"kunison","graph":{"gen":"cycle","n":8},"rounds":32,"fixpoint":false}"#,
        );
        let (_, out) = run(&s);
        let done = Json::parse(&out.unwrap()).unwrap();
        assert_eq!(done.get("rounds").and_then(Json::as_u64), Some(32));
    }

    #[test]
    fn cancelled_job_reports_its_cause() {
        let run = spec(r#"{"proto":"census","graph":{"gen":"torus","rows":8,"cols":8}}"#);
        let churn = spec(
            r#"{"kind":"churn","proto":"census","graph":{"gen":"torus","rows":8,"cols":8},
                "rounds":48}"#,
        );
        let expired = || JobCancel::with_deadline(Instant::now());
        // The writer's case: the client is gone long before the deadline.
        let gone = || {
            let cancel = JobCancel::with_deadline(Instant::now() + Duration::from_secs(3600));
            cancel.cancel();
            cancel
        };
        for s in [&run, &churn] {
            for (cancel, code) in [
                (expired(), codes::BUDGET_WALL),
                (gone(), codes::DISCONNECTED),
            ] {
                let (tx, _rx) = sync_channel(4096);
                let err = execute(1, s, &cancel, &tx).unwrap_err();
                assert_eq!(err.code, code, "{:?}", s.kind);
            }
        }
    }

    #[test]
    fn churn_job_streams_and_replays_bit_identically() {
        let s = spec(
            r#"{"kind":"churn","proto":"census","graph":{"gen":"torus","rows":8,"cols":8},
                "rounds":48,"churn":{"rate":2.0}}"#,
        );
        let (lines, out) = run(&s);
        let done = Json::parse(&out.unwrap()).unwrap();
        assert_eq!(done.get("kind").and_then(Json::as_str), Some("churn"));
        assert!(done.get("events").and_then(Json::as_u64).unwrap() > 0);
        assert!(lines.iter().any(|l| l.starts_with(r#"{"t":"churn""#)));
        let (lines2, out2) = run(&s);
        assert_eq!(lines, lines2, "streamed churn metrics must replay exactly");
        assert_eq!(
            Json::parse(&out2.unwrap())
                .unwrap()
                .get("fingerprint")
                .and_then(Json::as_str),
            done.get("fingerprint").and_then(Json::as_str),
        );
    }

    #[test]
    fn stream_false_sends_nothing() {
        let s = spec(r#"{"proto":"census","graph":{"gen":"path","n":16},"stream":false}"#);
        let (lines, out) = run(&s);
        assert!(out.is_ok());
        assert!(lines.is_empty());
    }
}
