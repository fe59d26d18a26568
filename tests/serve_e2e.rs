//! End-to-end tests of the `fssga-serve` simulation service against
//! live TCP loopback connections (ephemeral ports, in-process server).
//!
//! The headline assertion is ISSUE-level: three jobs submitted
//! *concurrently* (census, shortest-paths, and a churn job) must
//! stream metric lines and report final-state fingerprints that are
//! **bit-identical** to direct in-process engine runs of the same
//! specs — the service layer adds scheduling, budgets, and transport,
//! but must be semantically invisible. A slow reader must get the same
//! bytes although the server then batches many frames per write. The
//! budget tests then assert
//! the structured failure modes: `budget-rounds` when a fixpoint
//! request exhausts its round budget, `budget-wall` when a job's
//! deadline passes (while it runs, while it waits in the queue, or
//! while its client has stopped reading), and `overloaded` when the
//! bounded queue sheds load.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use fssga::engine::{
    run_churn_oracle_traced, Budget, ChannelTrace, ChurnConfig, ChurnOptions, ChurnStream, Engine,
    Network, Runner, StateSpace,
};
use fssga::graph::{generators, DynGraph};
use fssga::protocols::census::Census;
use fssga::protocols::shortest_paths::ShortestPaths;
use fssga::protocols::unison::{KUnison, UnisonState};
use fssga::serve::{
    census_sketch, codes, fingerprint, read_frame, serve, write_frame, Json, Limits, ServeConfig,
    ServerHandle,
};

/// The shared test seed (the service default, spelled explicitly so
/// the direct runs below can't drift from the submitted specs).
const SEED: u64 = 0xF55A_2006;

fn boot(workers: usize, queue_cap: usize, limits: Limits) -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        limits,
        allow_shutdown: false,
        read_timeout_ms: 100,
    })
    .expect("boot server")
}

/// Everything one served job produced, split by frame type.
struct Served {
    streamed: Vec<String>,
    done: Option<Json>,
    error: Option<Json>,
}

/// Submits `spec` on a fresh connection and reads to the final frame,
/// pausing for `read_pause` after the `accepted` frame.
fn submit(addr: SocketAddr, spec: &str, read_pause: Duration) -> Served {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, spec).expect("submit");
    let mut served = Served {
        streamed: Vec::new(),
        done: None,
        error: None,
    };
    loop {
        let text = read_frame(&mut stream)
            .expect("read frame")
            .expect("final frame before close");
        let v = Json::parse(&text).expect("frame is JSON");
        match v.get("t").and_then(Json::as_str) {
            Some("accepted") => std::thread::sleep(read_pause),
            Some("done") => {
                served.done = Some(v);
                break;
            }
            Some("error") => {
                served.error = Some(v);
                break;
            }
            Some(_) => served.streamed.push(text),
            None => panic!("untagged frame: {text}"),
        }
    }
    assert!(
        read_frame(&mut stream).expect("post-final read").is_none(),
        "server closes the connection after the final frame"
    );
    served
}

fn done_fingerprint(served: &Served) -> String {
    served
        .done
        .as_ref()
        .unwrap_or_else(|| {
            panic!(
                "job failed: {:?}",
                served.error.as_ref().map(Json::to_string)
            )
        })
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("done carries a fingerprint")
        .to_owned()
}

/// Runs `run` with an engine-side [`ChannelTrace`] (the same sink the
/// service streams through) and returns the captured JSONL lines —
/// the reference the served stream must match byte for byte.
fn traced_lines(run: impl FnOnce(&mut ChannelTrace)) -> Vec<String> {
    let (tx, rx) = sync_channel(1 << 15);
    let mut tracer = ChannelTrace::new(tx);
    run(&mut tracer);
    drop(tracer);
    rx.into_iter().collect()
}

#[test]
fn three_concurrent_jobs_are_bit_identical_to_direct_runs() {
    let handle = boot(3, 8, Limits::default());
    let addr = handle.addr();
    let census_spec = r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":10,"cols":10}}"#;
    let sp_spec =
        r#"{"t":"job","proto":"shortest-paths","graph":{"gen":"torus","rows":10,"cols":10}}"#;
    let churn_spec = r#"{"t":"job","kind":"churn","proto":"census",
        "graph":{"gen":"torus","rows":10,"cols":10},"rounds":40,"churn":{"rate":2.0}}"#;

    let jobs: Vec<_> = [census_spec, sp_spec, churn_spec]
        .into_iter()
        .map(|spec| std::thread::spawn(move || submit(addr, spec, Duration::ZERO)))
        .collect();
    let [census_served, sp_served, churn_served]: [Served; 3] = jobs
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect::<Vec<_>>()
        .try_into()
        .map_err(|_| "three jobs")
        .unwrap();
    handle.shutdown();

    // Direct census run — the recipe documented on `serve::Proto`.
    let g = generators::torus(10, 10);
    let mut net = Network::new(&g, Census::<16>, |v| census_sketch(SEED, v));
    let lines = traced_lines(|t| {
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(Limits::default().max_rounds))
            .seed(SEED)
            .tracer(t)
            .run();
    });
    assert_eq!(
        census_served.streamed, lines,
        "census stream must be bit-identical"
    );
    assert_eq!(
        done_fingerprint(&census_served),
        format!(
            "{:016x}",
            fingerprint(net.states().iter().map(|s| s.index()))
        ),
    );

    // Direct shortest-paths run.
    let mut net = Network::new(&g, ShortestPaths::<256>, |v| {
        ShortestPaths::<256>::init(v == 0)
    });
    let lines = traced_lines(|t| {
        Runner::new(&mut net)
            .budget(Budget::Fixpoint(Limits::default().max_rounds))
            .seed(SEED)
            .tracer(t)
            .run();
    });
    assert_eq!(
        sp_served.streamed, lines,
        "shortest-paths stream must be bit-identical"
    );
    assert_eq!(
        done_fingerprint(&sp_served),
        format!(
            "{:016x}",
            fingerprint(net.states().iter().map(|s| s.index()))
        ),
    );

    // Direct churn run: converge, then stream the same seeded events.
    let stream = ChurnStream::generate(
        &DynGraph::from_graph(&g),
        &ChurnConfig {
            seed: SEED,
            horizon: 40,
            rate: 2.0,
            ..ChurnConfig::default()
        },
    );
    let mut net = Network::new_compiled(&g, Census::<16>, |v| census_sketch(SEED, v));
    Runner::new(&mut net)
        .engine(Engine::Kernel)
        .budget(Budget::Fixpoint(10 * g.n()))
        .run();
    let opts = ChurnOptions {
        window: 0,
        check_every: 0,
        cancel: None,
    };
    let lines = traced_lines(|t| {
        run_churn_oracle_traced(
            &mut net,
            &stream,
            &opts,
            |v| census_sketch(SEED, v),
            |_| -> Option<()> { None },
            |_| (),
            t,
        );
    });
    assert_eq!(
        churn_served.streamed, lines,
        "churn stream must be bit-identical"
    );
    assert_eq!(
        done_fingerprint(&churn_served),
        format!(
            "{:016x}",
            fingerprint(net.states().iter().map(|s| s.index()))
        ),
    );
}

#[test]
fn slow_reader_gets_a_byte_identical_batched_stream() {
    let handle = boot(1, 4, Limits::default());
    // 600 round frames, more than the 256-line stream channel holds. The
    // client reads nothing for 200 ms after `accepted`, so the server's
    // writer finds frames queued behind each other and sends them in one
    // write. Loopback socket buffers can absorb the whole stream, so the
    // channel need not fill here; `server::tests` fills it on purpose.
    let served = submit(
        handle.addr(),
        r#"{"t":"job","proto":"kunison","graph":{"gen":"torus","rows":16,"cols":16},
            "rounds":600,"fixpoint":false}"#,
        Duration::from_millis(200),
    );
    handle.shutdown();

    let g = generators::torus(16, 16);
    let mut net = Network::new(&g, KUnison::<8>, |_| UnisonState::at(0));
    let lines = traced_lines(|t| {
        Runner::new(&mut net)
            .budget(Budget::Rounds(600))
            .seed(SEED)
            .tracer(t)
            .run();
    });
    assert_eq!(lines.len(), 600);
    assert_eq!(
        served.streamed, lines,
        "a slow reader's stream must be bit-identical"
    );
    assert_eq!(
        done_fingerprint(&served),
        format!(
            "{:016x}",
            fingerprint(net.states().iter().map(|s| s.index()))
        ),
    );
}

#[test]
fn exhausted_round_budget_is_a_structured_error() {
    let handle = boot(1, 4, Limits::default());
    // KUnison never reaches a fixpoint; a fixpoint request with a
    // finite round budget must fail with `budget-rounds`.
    let served = submit(
        handle.addr(),
        r#"{"t":"job","proto":"kunison","graph":{"gen":"cycle","n":16},
            "rounds":25,"stream":false}"#,
        Duration::ZERO,
    );
    let err = served.error.expect("budget error frame");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some(codes::BUDGET_ROUNDS)
    );
    assert!(err.get("job").and_then(Json::as_u64).is_some());
    assert!(err
        .get("detail")
        .and_then(Json::as_str)
        .expect("detail text")
        .contains("25"));
    handle.shutdown();
}

#[test]
fn deadline_cancels_an_over_wall_budget_job() {
    let limits = Limits {
        max_wall_ms: 2_000,
        ..Limits::default()
    };
    let handle = boot(1, 4, limits);
    // A non-fixpoint KUnison run asking for the full round allowance:
    // far more work than 150 ms permits, so the deadline must stop it.
    let served = submit(
        handle.addr(),
        r#"{"t":"job","proto":"kunison","graph":{"gen":"cycle","n":512},
            "rounds":100000,"fixpoint":false,"wall_ms":150,"stream":false}"#,
        Duration::ZERO,
    );
    let err = served.error.expect("wall-budget error frame");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some(codes::BUDGET_WALL)
    );
    assert!(err
        .get("detail")
        .and_then(Json::as_str)
        .expect("detail text")
        .contains("150"));
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded() {
    // One worker, one queue slot: job A runs, job B parks, job C sheds.
    let limits = Limits {
        max_wall_ms: 2_000,
        ..Limits::default()
    };
    let handle = boot(1, 1, limits);
    let addr = handle.addr();
    let slow = r#"{"t":"job","proto":"kunison","graph":{"gen":"cycle","n":512},
        "rounds":100000,"fixpoint":false,"wall_ms":700,"stream":false}"#;
    let a = std::thread::spawn(move || submit(addr, slow, Duration::ZERO));
    std::thread::sleep(Duration::from_millis(200)); // let A reach a worker
    let b = std::thread::spawn(move || submit(addr, slow, Duration::ZERO));
    std::thread::sleep(Duration::from_millis(100)); // let B park in the queue
    let c = submit(addr, slow, Duration::ZERO);
    let err = c.error.expect("shed error frame");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some(codes::OVERLOADED)
    );
    // A and B run to their wall budgets and fail structurally, not
    // silently — the shed is the only `overloaded` outcome.
    for job in [a.join().unwrap(), b.join().unwrap()] {
        let code = job
            .error
            .expect("wall budget fires")
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_owned);
        assert_eq!(code.as_deref(), Some(codes::BUDGET_WALL));
    }
    handle.shutdown();
}

/// Submits `spec` on a fresh connection and returns it, unread past the
/// `accepted` frame, once the job is admitted.
fn admit(addr: SocketAddr, spec: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, spec).expect("submit");
    let text = read_frame(&mut stream).expect("read frame").expect("frame");
    assert!(text.starts_with(r#"{"t":"accepted""#), "{text}");
    stream
}

#[test]
fn job_queued_past_its_deadline_ends_with_budget_wall() {
    let handle = boot(1, 4, Limits::default());
    // The only worker runs this job until its 500 ms deadline, so the
    // job admitted behind it waits past its 50 ms deadline in the queue.
    let _slow = admit(
        handle.addr(),
        r#"{"t":"job","proto":"kunison","graph":{"gen":"cycle","n":512},
            "rounds":100000,"fixpoint":false,"wall_ms":500,"stream":false}"#,
    );
    let queued = submit(
        handle.addr(),
        r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":8,"cols":8},
            "wall_ms":50}"#,
        Duration::ZERO,
    );
    let err = queued.error.expect("wall-budget error frame");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some(codes::BUDGET_WALL)
    );
    assert!(queued.streamed.is_empty(), "no round ran past the deadline");
    handle.shutdown();
}

#[test]
fn stalled_client_is_cut_off_at_its_deadline() {
    const WALL: Duration = Duration::from_millis(500);
    const SLACK: Duration = Duration::from_secs(1);
    let limits = Limits {
        max_rounds: 1_000_000,
        ..Limits::default()
    };
    let handle = boot(1, 4, limits);
    let start = Instant::now();
    // A million streamed rounds of over 100 bytes each: far more than
    // the socket buffers and the stream channel hold, and this client
    // reads none of them, so the job waits on a full channel until its
    // deadline.
    let _stalled = admit(
        handle.addr(),
        r#"{"t":"job","proto":"kunison","graph":{"gen":"cycle","n":8},
            "rounds":1000000,"fixpoint":false,"wall_ms":500}"#,
    );
    // The only worker serves the next job once the stalled one ends.
    let next = submit(
        handle.addr(),
        r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":8,"cols":8}}"#,
        Duration::ZERO,
    );
    let elapsed = start.elapsed();
    assert!(
        next.done.is_some(),
        "{:?}",
        next.error.map(|e| e.to_string())
    );
    assert!(
        elapsed >= WALL && elapsed < WALL + SLACK,
        "the stalled job held the worker for {elapsed:?}"
    );
    handle.shutdown();
}
