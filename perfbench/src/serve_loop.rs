//! The `serve-loop` workload: the service booted in-process on an
//! ephemeral loopback port, driven by two closed-loop clients.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use fssga_engine::rng::{SplitMix64, Xoshiro256};
use fssga_serve::{
    execute, read_frame, serve, write_frame, JobCancel, JobSpec, Json, Limits, ServeConfig,
    ServerHandle,
};

use crate::report::{geomean, median, quantile, Outcome};
use crate::Args;

/// Closed-loop clients, each with one connection at a time.
const CLIENTS: usize = 2;
/// Fewest jobs per run, so p99 has ten samples beyond it.
const MIN_JOBS: u64 = 1_000;
/// Seed variants per job kind in the pool.
const VARIANTS: usize = 4;
/// Server boots timed per run for `setup_s`. About one boot in six waits
/// out the accept loop's 10 ms poll; enough boots keep the median clear
/// of that mode.
const BOOTS: usize = 101;

/// The job mix: one template per kind, `{seed}` filled per variant.
const KINDS: [&str; 6] = [
    r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":32,"cols":32},"seed":{seed}}"#,
    r#"{"t":"job","proto":"shortest-paths","graph":{"gen":"torus","rows":32,"cols":32},"seed":{seed}}"#,
    r#"{"t":"job","proto":"kparity","graph":{"gen":"cycle","n":1024},"seed":{seed}}"#,
    r#"{"t":"job","proto":"kunison","graph":{"gen":"torus","rows":16,"cols":16},"rounds":500,"fixpoint":false,"seed":{seed}}"#,
    r#"{"t":"job","kind":"churn","proto":"census","graph":{"gen":"torus","rows":32,"cols":32},"churn":{"horizon":300},"seed":{seed}}"#,
    r#"{"t":"job","proto":"census","graph":{"gen":"preferential-attachment","n":2000,"m":4},"threads":2,"seed":{seed}}"#,
];

/// One job of the pool with the fingerprint an in-process run gives.
struct PoolJob {
    kind: usize,
    text: String,
    spec: JobSpec,
    fingerprint: String,
}

/// What the client saw of one job.
#[derive(Default)]
struct JobRecord {
    kind: usize,
    ok: bool,
    latency_s: f64,
    admit_s: f64,
    first_frame_s: Option<f64>,
    gaps_us: Vec<f64>,
    frames: u64,
    bytes: u64,
}

fn parse(text: &str) -> Result<JobSpec, String> {
    let v = Json::parse(text)?;
    JobSpec::parse(&v, &Limits::default()).map_err(|e| e.detail)
}

/// Runs `spec` in-process; returns the `done` fingerprint and the time.
fn run_local(spec: &JobSpec) -> (Option<String>, f64) {
    let (tx, rx) = sync_channel(1 << 16);
    let start = Instant::now();
    let done = execute(0, spec, &JobCancel::new(), &tx);
    let dt = start.elapsed().as_secs_f64();
    drop(tx);
    drop(rx);
    let fp = done.ok().and_then(|d| {
        Json::parse(&d)
            .ok()?
            .get("fingerprint")
            .and_then(Json::as_str)
            .map(str::to_owned)
    });
    (fp, dt)
}

fn pool(seeds: &mut SplitMix64) -> Vec<PoolJob> {
    let mut jobs = Vec::new();
    for (kind, template) in KINDS.iter().enumerate() {
        for _ in 0..VARIANTS {
            // Job seeds stay below 2^53 so JSON numbers carry them exactly.
            let text = template.replace("{seed}", &(seeds.next_u64() >> 12).to_string());
            let spec = parse(&text).expect("pool specs are valid");
            let fingerprint = run_local(&spec).0.expect("pool jobs run in-process");
            jobs.push(PoolJob {
                kind,
                text,
                spec,
                fingerprint,
            });
        }
    }
    jobs
}

fn boot() -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout_ms: 1_000,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral loopback port")
}

/// `serve()` to the first `pong`, in seconds.
fn boot_to_pong() -> Result<(f64, ServerHandle), String> {
    let start = Instant::now();
    let handle = boot();
    let mut s = TcpStream::connect(handle.addr()).map_err(|e| e.to_string())?;
    write_frame(&mut s, r#"{"t":"ping"}"#).map_err(|e| e.to_string())?;
    let reply = read_frame(&mut s).map_err(|e| e.to_string())?;
    let dt = start.elapsed().as_secs_f64();
    match reply.as_deref().map(Json::parse) {
        Some(Ok(v)) if v.get("t").and_then(Json::as_str) == Some("pong") => Ok((dt, handle)),
        other => Err(format!("no pong: {other:?}")),
    }
}

/// Submits one job over a fresh connection and reads to its last frame.
fn submit(addr: &str, job: &PoolJob, trace: bool) -> JobRecord {
    let mut rec = JobRecord {
        kind: job.kind,
        ..JobRecord::default()
    };
    let start = Instant::now();
    let Ok(mut s) = TcpStream::connect(addr) else {
        return rec;
    };
    if write_frame(&mut s, &job.text).is_err() {
        return rec;
    }
    let mut last = start;
    loop {
        let Ok(Some(frame)) = read_frame(&mut s) else {
            return rec;
        };
        let now = Instant::now();
        let Ok(v) = Json::parse(&frame) else {
            return rec;
        };
        rec.frames += 1;
        rec.bytes += 4 + frame.len() as u64;
        match v.get("t").and_then(Json::as_str) {
            Some("accepted") => rec.admit_s = (now - start).as_secs_f64(),
            Some("done") => {
                rec.latency_s = (now - start).as_secs_f64();
                rec.ok =
                    v.get("fingerprint").and_then(Json::as_str) == Some(job.fingerprint.as_str());
                return rec;
            }
            Some("error") | None => return rec,
            Some(_) => {
                if trace {
                    if rec.first_frame_s.is_none() {
                        rec.first_frame_s = Some((now - start).as_secs_f64() - rec.admit_s);
                    } else {
                        rec.gaps_us.push((now - last).as_nanos() as f64 / 1e3);
                    }
                }
            }
        }
        last = now;
    }
}

/// Both clients, closed loop, until `seconds` and [`MIN_JOBS`] are met.
fn load(
    addr: &str,
    jobs: &[PoolJob],
    seeds: &mut SplitMix64,
    args: &Args,
) -> (Vec<JobRecord>, f64) {
    let done = AtomicU64::new(0);
    let client_seeds: Vec<u64> = (0..CLIENTS).map(|_| seeds.next_u64()).collect();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = client_seeds
            .iter()
            .map(|&seed| {
                let done = &done;
                scope.spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(seed);
                    let mut out = Vec::new();
                    while start.elapsed() < deadline || done.load(Ordering::Relaxed) < MIN_JOBS {
                        let job = &jobs[rng.gen_index(jobs.len())];
                        out.push(submit(addr, job, args.trace));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (records, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, out: &mut Outcome) {
    // Every generated input draws from this one stream.
    let mut seeds = SplitMix64::new(args.seed);
    let jobs = pool(&mut seeds);

    let mut boots = Vec::new();
    for _ in 0..BOOTS {
        match boot_to_pong() {
            Ok((dt, handle)) => {
                boots.push(dt);
                handle.shutdown();
            }
            Err(e) => {
                eprintln!("boot failed: {e}");
                out.count(false);
            }
        }
    }
    println!(
        "boots: {} of {BOOTS}, p10/p50/p90 {:.3}/{:.3}/{:.3} ms",
        boots.len(),
        quantile(&boots, 0.1) * 1e3,
        median(&boots) * 1e3,
        quantile(&boots, 0.9) * 1e3
    );
    let (_, handle) = boot_to_pong().expect("boot the measured server");
    let addr = handle.addr().to_string();
    println!(
        "serve-loop: {} pool jobs in {} kinds, {CLIENTS} clients against {addr}",
        jobs.len(),
        KINDS.len()
    );
    let (records, wall_s) = load(&addr, &jobs, &mut seeds, args);
    handle.shutdown();

    for r in &records {
        out.count(r.ok);
    }
    let ok: Vec<&JobRecord> = records.iter().filter(|r| r.ok).collect();
    let latency_ms: Vec<f64> = ok.iter().map(|r| r.latency_s * 1e3).collect();
    let per_kind: Vec<f64> = (0..KINDS.len())
        .map(|k| {
            let xs: Vec<f64> = ok
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.latency_s * 1e3)
                .collect();
            median(&xs)
        })
        .collect();
    let jobs_per_s = ok.len() as f64 / wall_s;
    if !args.trace {
        out.metric("setup_s", median(&boots), "s");
        out.metric("op_ms", geomean(&per_kind), "ms");
        out.metric("ops_per_s", jobs_per_s, "1/s");
        return;
    }

    out.metric("job_latency_p50_ms", median(&latency_ms), "ms");
    out.metric("job_latency_p99_ms", quantile(&latency_ms, 0.99), "ms");
    out.metric("jobs_per_s", jobs_per_s, "1/s");
    let admit: Vec<f64> = ok.iter().map(|r| r.admit_s * 1e3).collect();
    out.metric("server.admit_ms_p50", median(&admit), "ms");
    out.metric("server.admit_ms_p99", quantile(&admit, 0.99), "ms");
    let first: Vec<f64> = ok.iter().filter_map(|r| r.first_frame_s).collect();
    out.metric("server.first_frame_ms_p50", median(&first) * 1e3, "ms");
    let gaps: Vec<f64> = ok.iter().flat_map(|r| r.gaps_us.iter().copied()).collect();
    out.metric("wire.frame_gap_us_p50", median(&gaps), "us");
    let n = ok.len().max(1) as f64;
    out.metric(
        "wire.frames_per_job",
        ok.iter().map(|r| r.frames).sum::<u64>() as f64 / n,
        "count",
    );
    out.metric(
        "wire.bytes_per_job",
        ok.iter().map(|r| r.bytes).sum::<u64>() as f64 / n,
        "bytes",
    );

    // In-process: execution with streaming (as served) and without.
    let (mut streamed, mut quiet, mut exec_ms) = (0.0, 0.0, Vec::new());
    for _ in 0..5 {
        for job in &jobs {
            let (fp, dt) = run_local(&job.spec);
            out.count(fp.as_deref() == Some(job.fingerprint.as_str()));
            streamed += dt;
            exec_ms.push(dt * 1e3);
            let silent = JobSpec {
                stream: false,
                ..job.spec.clone()
            };
            let (fp, dt) = run_local(&silent);
            out.count(fp.as_deref() == Some(job.fingerprint.as_str()));
            quiet += dt;
        }
    }
    out.metric("exec.ms_p50", median(&exec_ms), "ms");
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        for job in &jobs {
            std::hint::black_box(parse(std::hint::black_box(&job.text)).is_ok());
        }
    }
    out.metric(
        "job.parse_us",
        start.elapsed().as_secs_f64() * 1e6 / (reps * jobs.len()) as f64,
        "us",
    );
    out.metric("obs.overhead_share", (streamed - quiet) / quiet, "share");
}
