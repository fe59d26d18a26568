//! The TCP front end: accept loop, per-connection protocol driver,
//! admission control, and ordered shutdown.
//!
//! # Connection lifecycle
//!
//! A connection may exchange any number of `ping`/`pong` frames, then
//! submit **at most one job**; after the job's final `done`/`error`
//! frame the server closes the connection. One-job-per-connection
//! keeps the framing unambiguous (every frame after `accepted` belongs
//! to that job) and makes client retry logic trivial.
//!
//! # Admission
//!
//! The handler thread parses and validates the request ([`crate::job`]
//! applies the node cap and clamps budgets), then tries a non-blocking
//! push onto the bounded [`JobQueue`]. A full queue sheds the job with
//! an `overloaded` error — backpressure is explicit and immediate, the
//! client never waits in an invisible line. On success the client gets
//! an `accepted` frame echoing the job id and the *effective* (post-
//! clamp) budgets, then the handler becomes the job's writer: it
//! drains the job's stream channel into frames until the worker drops
//! its end.
//!
//! # Ownership and shutdown order
//!
//! [`ServerHandle::shutdown`] tears down in dependency order:
//!
//! 1. the shutdown latch flips — admission starts refusing
//!    (`shutting-down`), the accept loop exits on its next poll;
//! 2. the accept thread is joined (no new connections);
//! 3. the queue closes — parked jobs drain, then workers see `None`;
//! 4. the worker pool is joined (running jobs finish within their wall
//!    budgets; the watchdog is still live to enforce that);
//! 5. the watchdog stops (nothing can register anymore).
//!
//! Handler threads are not joined: each one exits on its own when its
//! writer loop finishes or its idle read times out and observes the
//! latch. They hold only their socket and channel ends, so process
//! shutdown never blocks on a slow client.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::exec::JobCancel;
use crate::job::{codes, JobError, JobSpec, Limits};
use crate::json::{self, Json};
use crate::pool::{JobQueue, QueuedJob, WorkerPool};
use crate::watchdog::Watchdog;
use crate::wire::{read_frame, write_frame, FrameError};

/// Per-job stream channel capacity, in JSONL lines. Bounded so a slow
/// client backpressures the engine (via [`fssga_engine::ChannelTrace`])
/// instead of buffering an unbounded trace server-side.
const STREAM_CAPACITY: usize = 256;

/// Server configuration; `Default` gives the documented defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address. Use port 0 for an ephemeral port (tests/bench);
    /// the bound address is reported by [`ServerHandle::addr`].
    pub addr: String,
    /// Worker threads — the running-job concurrency bound.
    pub workers: usize,
    /// Parked-job capacity; pushes beyond it shed with `overloaded`.
    pub queue_cap: usize,
    /// Admission caps and budget clamps.
    pub limits: Limits,
    /// Whether a client `shutdown` frame is honoured (`false` answers
    /// it with `forbidden`). Enable for bench/CI drivers only.
    pub allow_shutdown: bool,
    /// Idle-read poll interval per connection, in milliseconds. Idle
    /// connections notice the shutdown latch within this bound.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7117".into(),
            workers: 2,
            queue_cap: 16,
            limits: Limits::default(),
            allow_shutdown: false,
            read_timeout_ms: 10_000,
        }
    }
}

/// Shared server state, one per [`serve`] call.
#[derive(Debug)]
struct Ctx {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    queue: Arc<JobQueue>,
}

/// A running server; dropping it without calling
/// [`ServerHandle::shutdown`] leaves the threads running (the binary
/// relies on that for its run-forever mode).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
    workers: Option<WorkerPool>,
    watchdog: Arc<Watchdog>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client-initiated `shutdown` has been requested (the
    /// binary polls this to decide when to begin teardown).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::Relaxed)
    }

    /// Graceful teardown in the order documented in the module docs.
    pub fn shutdown(mut self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.ctx.queue.close();
        if let Some(pool) = self.workers.take() {
            pool.join();
        }
        self.watchdog.stop();
    }
}

/// Binds, spawns the accept loop / workers / watchdog, and returns.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let queue = JobQueue::new(cfg.queue_cap);
    let watchdog = Watchdog::start();
    let workers = WorkerPool::spawn(cfg.workers, Arc::clone(&queue), Arc::clone(&watchdog));
    let ctx = Arc::new(Ctx {
        cfg,
        shutdown: AtomicBool::new(false),
        next_job: AtomicU64::new(1),
        queue,
    });
    let accept_ctx = Arc::clone(&ctx);
    let accept = std::thread::Builder::new()
        .name("fssga-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_ctx))
        .expect("spawn accept loop");
    Ok(ServerHandle {
        addr,
        ctx,
        accept: Some(accept),
        workers: Some(workers),
        watchdog,
    })
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    let mut conn = 0u64;
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn += 1;
                let ctx = Arc::clone(ctx);
                let _ = std::thread::Builder::new()
                    .name(format!("fssga-serve-conn-{conn}"))
                    .spawn(move || {
                        let _ = handle_connection(stream, &ctx);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            // Transient accept errors (e.g. aborted handshakes) are
            // not fatal to the server.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Sends one server frame, where `v` is already a JSON tree.
fn send(stream: &mut TcpStream, v: &Json) -> io::Result<()> {
    write_frame(stream, &v.to_string())
}

fn send_error(stream: &mut TcpStream, job: u64, e: &JobError) -> io::Result<()> {
    write_frame(stream, &e.to_jsonl(job))
}

fn handle_connection(mut stream: TcpStream, ctx: &Arc<Ctx>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(ctx.cfg.read_timeout_ms.max(1))))?;
    stream.set_write_timeout(Some(Duration::from_millis(10_000)))?;
    stream.set_nodelay(true)?;
    loop {
        let text = match read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => return Ok(()), // clean client close
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A timeout before a frame's first byte is an idle poll
                // tick: drop the connection if draining, otherwise keep
                // waiting for the next frame. A timeout inside a frame is
                // `FrameError::Stalled`, a bad frame.
                if ctx.shutdown.load(Ordering::Relaxed) {
                    let e = JobError::new(codes::SHUTTING_DOWN, "server draining");
                    let _ = send_error(&mut stream, 0, &e);
                    return Ok(());
                }
                continue;
            }
            Err(e) => {
                let err = JobError::new(codes::BAD_FRAME, e.to_string());
                let _ = send_error(&mut stream, 0, &err);
                return Ok(());
            }
        };
        let v = match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                let err = JobError::new(codes::BAD_FRAME, format!("frame is not JSON: {e}"));
                let _ = send_error(&mut stream, 0, &err);
                return Ok(());
            }
        };
        match v.get("t").and_then(Json::as_str) {
            Some("ping") => send(&mut stream, &json::obj(vec![("t", json::s("pong"))]))?,
            Some("shutdown") => {
                if !ctx.cfg.allow_shutdown {
                    let e =
                        JobError::new(codes::FORBIDDEN, "server started without --allow-shutdown");
                    let _ = send_error(&mut stream, 0, &e);
                    return Ok(());
                }
                ctx.shutdown.store(true, Ordering::Relaxed);
                send(&mut stream, &json::obj(vec![("t", json::s("bye"))]))?;
                return Ok(());
            }
            Some("job") => return handle_job(stream, ctx, &v),
            other => {
                let e = JobError::new(
                    codes::BAD_FRAME,
                    format!("unknown frame type {other:?} (job|ping|shutdown)"),
                );
                let _ = send_error(&mut stream, 0, &e);
                return Ok(());
            }
        }
    }
}

/// Admits one job and then acts as its writer until the final frame.
fn handle_job(mut stream: TcpStream, ctx: &Arc<Ctx>, v: &Json) -> io::Result<()> {
    let job = ctx.next_job.fetch_add(1, Ordering::Relaxed);
    if ctx.shutdown.load(Ordering::Relaxed) {
        let e = JobError::new(codes::SHUTTING_DOWN, "server draining");
        return send_error(&mut stream, job, &e);
    }
    let spec = match JobSpec::parse(v, &ctx.cfg.limits) {
        Ok(spec) => spec,
        Err(e) => return send_error(&mut stream, job, &e),
    };
    let (tx, rx) = sync_channel::<String>(STREAM_CAPACITY);
    let cancel = JobCancel::new();
    let queued = QueuedJob {
        id: job,
        spec: spec.clone(),
        cancel: cancel.clone(),
        deadline: Instant::now() + Duration::from_millis(spec.wall_ms),
        tx,
    };
    let depth = match ctx.queue.push(queued) {
        Ok(depth) => depth,
        Err(_rejected) => {
            let e = JobError::new(
                codes::OVERLOADED,
                format!("job queue full ({} parked)", ctx.cfg.queue_cap),
            );
            return send_error(&mut stream, job, &e);
        }
    };
    send(
        &mut stream,
        &json::obj(vec![
            ("t", json::s("accepted")),
            ("job", json::nu(job)),
            ("queue", json::nu(depth as u64)),
            ("rounds", json::nu(spec.rounds as u64)),
            ("wall_ms", json::nu(spec.wall_ms)),
            ("threads", json::nu(spec.threads as u64)),
        ]),
    )?;
    writer_loop(stream, rx, &cancel)
}

/// Drains the job's stream channel into frames. A write failure means
/// the client is gone: fire the cancel handle (so the engine stops at
/// the next round boundary) and keep draining the channel so the
/// worker's sends never wedge.
fn writer_loop(mut stream: TcpStream, rx: Receiver<String>, cancel: &JobCancel) -> io::Result<()> {
    let mut client_gone = false;
    for line in rx.iter() {
        if client_gone {
            continue; // drain without writing
        }
        if write_frame(&mut stream, &line).is_err() {
            cancel.fire(codes::DISCONNECTED);
            client_gone = true;
        }
    }
    if !client_gone {
        stream.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn connect(handle: &ServerHandle) -> TcpStream {
        TcpStream::connect(handle.addr()).expect("connect")
    }

    fn roundtrip(stream: &mut TcpStream, frame: &str) -> Json {
        write_frame(stream, frame).unwrap();
        let text = read_frame(stream).unwrap().expect("response frame");
        Json::parse(&text).unwrap()
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 2,
            allow_shutdown: true,
            read_timeout_ms: 50,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn ping_job_and_shutdown_round_trip() {
        let handle = serve(test_config()).unwrap();
        let mut c = connect(&handle);
        assert_eq!(
            roundtrip(&mut c, r#"{"t":"ping"}"#)
                .get("t")
                .and_then(Json::as_str),
            Some("pong")
        );
        let accepted = roundtrip(
            &mut c,
            r#"{"t":"job","proto":"census","graph":{"gen":"torus","rows":8,"cols":8}}"#,
        );
        assert_eq!(accepted.get("t").and_then(Json::as_str), Some("accepted"));
        let job = accepted.get("job").and_then(Json::as_u64).unwrap();
        let mut rounds = 0u64;
        loop {
            let v = Json::parse(&read_frame(&mut c).unwrap().expect("streamed frame")).unwrap();
            match v.get("t").and_then(Json::as_str) {
                Some("round") => rounds += 1,
                Some("done") => {
                    assert_eq!(v.get("job").and_then(Json::as_u64), Some(job));
                    assert_eq!(v.get("rounds").and_then(Json::as_u64), Some(rounds));
                    break;
                }
                other => panic!("unexpected frame type {other:?}"),
            }
        }
        assert!(
            read_frame(&mut c).unwrap().is_none(),
            "server closes after the final frame"
        );
        let mut c = connect(&handle);
        assert_eq!(
            roundtrip(&mut c, r#"{"t":"shutdown"}"#)
                .get("t")
                .and_then(Json::as_str),
            Some("bye")
        );
        assert!(handle.shutdown_requested());
        handle.shutdown();
    }

    #[test]
    fn bad_frames_get_structured_errors_and_a_close() {
        let handle = serve(test_config()).unwrap();
        let mut c = connect(&handle);
        let v = roundtrip(&mut c, "not json");
        assert_eq!(v.get("code").and_then(Json::as_str), Some(codes::BAD_FRAME));
        // A raw oversized length prefix also errors (and closes).
        let mut c = connect(&handle);
        c.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let text = read_frame(&mut c).unwrap().expect("error frame");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some(codes::BAD_FRAME));
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after protocol error");
        handle.shutdown();
    }

    /// Sends the start of a frame and nothing more: after its read
    /// timeout the server must answer `bad-frame` ("stalled") and close.
    fn assert_stalled_frame_closes(handle: &ServerHandle, start: &[u8]) {
        let mut c = connect(handle);
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(start).unwrap();
        let text = read_frame(&mut c).unwrap().expect("error frame");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some(codes::BAD_FRAME));
        let detail = v.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(detail.contains("stalled"), "{text}");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after a stalled frame");
    }

    #[test]
    fn stall_mid_prefix_is_a_bad_frame() {
        let handle = serve(test_config()).unwrap();
        let ping = r#"{"t":"ping"}"#;
        let prefix = (ping.len() as u32).to_be_bytes();
        assert_stalled_frame_closes(&handle, &prefix[..2]);
        handle.shutdown();
    }

    #[test]
    fn stall_mid_payload_is_a_bad_frame() {
        let handle = serve(test_config()).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, r#"{"t":"ping"}"#).unwrap();
        assert_stalled_frame_closes(&handle, &frame[..frame.len() - 3]);
        handle.shutdown();
    }

    #[test]
    fn idle_pause_between_frames_keeps_the_connection() {
        let handle = serve(test_config()).unwrap();
        let mut c = connect(&handle);
        for _ in 0..2 {
            let v = roundtrip(&mut c, r#"{"t":"ping"}"#);
            assert_eq!(v.get("t").and_then(Json::as_str), Some("pong"));
            // Four read timeouts pass with no frame in flight.
            std::thread::sleep(Duration::from_millis(200));
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_forbidden_without_opt_in() {
        let cfg = ServeConfig {
            allow_shutdown: false,
            ..test_config()
        };
        let handle = serve(cfg).unwrap();
        let mut c = connect(&handle);
        let v = roundtrip(&mut c, r#"{"t":"shutdown"}"#);
        assert_eq!(v.get("code").and_then(Json::as_str), Some(codes::FORBIDDEN));
        assert!(!handle.shutdown_requested());
        handle.shutdown();
    }
}
