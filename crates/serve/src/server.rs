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
//! its end, handing every frame already queued to one socket write.
//!
//! # Ownership and shutdown order
//!
//! [`ServerHandle::shutdown`] tears down in dependency order:
//!
//! 1. the shutdown latch flips — admission starts refusing
//!    (`shutting-down`) — and one connection to the listener's own
//!    address wakes the blocked accept loop, which sees the latch,
//!    drops that connection and exits;
//! 2. the accept thread is joined (no new connections);
//! 3. the queue closes — parked jobs drain, then workers see `None`;
//! 4. the worker pool is joined (running jobs finish within their wall
//!    budgets: each job's cancel token carries its deadline).
//!
//! Handler threads are not joined: each one exits on its own when its
//! writer loop finishes or its idle read times out and observes the
//! latch. They hold only their socket and channel ends, so process
//! shutdown never blocks on a slow client.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::exec::JobCancel;
use crate::job::{codes, JobError, JobSpec, Limits};
use crate::json::{self, Json};
use crate::pool::{JobQueue, QueuedJob, WorkerPool};
use crate::wire::{read_frame, write_frame, FrameError};

/// Per-job stream channel capacity, in JSONL lines. Bounded so a slow
/// client backpressures the engine (via [`fssga_engine::ChannelTrace`])
/// instead of buffering an unbounded trace server-side.
const STREAM_CAPACITY: usize = 256;

/// A writer stops gathering queued frames into one socket write once
/// its buffer holds this many bytes. Measured with perfbench's
/// serve-loop on a 2-vCPU host: peak RSS was 8.6–9.0 MB with one write
/// per frame and 9.0–9.5 MB at this cap (ten seeds); a 64 KiB cap
/// added another 1–3% on every seed tried (four) with the same latency.
const WRITE_BATCH: usize = 8 << 10;

/// How long [`ServerHandle::shutdown`] waits to open the connection
/// that wakes the accept loop. Bounded because a full accept backlog
/// (the loop backing off an accept error) drops the connect's SYNs,
/// and an unbounded connect would retry them for minutes.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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
    ///
    /// The accept loop blocks in `accept`, so after setting the latch
    /// this opens one connection to the listener's own address (loopback
    /// of the same family when bound to `0.0.0.0` or `::`) and drops it;
    /// the loop sees the latch, drops its end and exits. If that wake
    /// connection cannot be opened, the accept thread is not joined, so
    /// shutdown never hangs: the thread holds only the listener, and any
    /// connection it accepts later sees the latch and is dropped.
    pub fn shutdown(mut self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = h.join();
            }
        }
        self.ctx.queue.close();
        if let Some(pool) = self.workers.take() {
            pool.join();
        }
    }
}

/// Binds, spawns the accept loop and the workers, and returns.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let queue = JobQueue::new(cfg.queue_cap);
    let workers = WorkerPool::spawn(cfg.workers, Arc::clone(&queue));
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
    })
}

/// Where [`ServerHandle::shutdown`] connects to wake the accept loop:
/// the bound address, with an unspecified IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    let mut conn = 0u64;
    loop {
        let accepted = listener.accept();
        // Shutdown sets the latch before it opens the connection that
        // wakes this `accept`; whatever was accepted is dropped.
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                conn += 1;
                let ctx = Arc::clone(ctx);
                let _ = std::thread::Builder::new()
                    .name(format!("fssga-serve-conn-{conn}"))
                    .spawn(move || {
                        let _ = handle_connection(stream, &ctx);
                    });
            }
            // Accept errors are not fatal to the server. The back-off
            // keeps a persistent one (e.g. `EMFILE`) from spinning.
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
    let cancel = JobCancel::with_deadline(Instant::now() + Duration::from_millis(spec.wall_ms));
    let queued = QueuedJob {
        id: job,
        spec: spec.clone(),
        cancel: cancel.clone(),
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
    writer_loop(stream, rx, &cancel);
    Ok(())
}

/// Drains the job's stream channel into frames. It waits for the next
/// line, appends every line already queued behind it (up to
/// [`WRITE_BATCH`] bytes), and sends them with one write, so it never
/// delays a frame to wait for more. A write failure means the client
/// is gone: cancel the job (so the engine stops at the next round
/// boundary) and keep draining the channel so the worker's sends never
/// wedge.
fn writer_loop(mut stream: TcpStream, rx: Receiver<String>, cancel: &JobCancel) {
    let mut buf = Vec::with_capacity(WRITE_BATCH);
    let mut client_gone = false;
    while let Ok(line) = rx.recv() {
        if client_gone {
            continue; // drain without writing
        }
        buf.clear();
        let mut framed = write_frame(&mut buf, &line);
        while framed.is_ok() && buf.len() < WRITE_BATCH {
            let Ok(line) = rx.try_recv() else { break };
            framed = write_frame(&mut buf, &line);
        }
        if framed.and_then(|()| stream.write_all(&buf)).is_err() {
            cancel.cancel();
            client_gone = true;
        }
    }
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
        // No further connection: shutdown's own wake ends the accept.
        shutdown_within_bound(handle);
    }

    /// Runs `shutdown` on a helper thread and fails, instead of hanging,
    /// if it has not returned within 2 s.
    fn shutdown_within_bound(handle: ServerHandle) {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            handle.shutdown();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(2))
            .expect("shutdown returns within 2 s");
        helper.join().unwrap();
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let handle = serve(ServeConfig {
                addr: addr.into(),
                ..test_config()
            })
            .unwrap();
            std::thread::sleep(Duration::from_millis(50)); // idle in `accept`
            shutdown_within_bound(handle);
        }
    }

    #[test]
    fn writer_batches_queued_frames_without_reordering() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        // More lines than the channel holds, one of them longer than a
        // whole batch.
        let lines: Vec<String> = (0..2 * STREAM_CAPACITY)
            .map(|i| match i {
                7 => "x".repeat(WRITE_BATCH + 1),
                _ => format!(r#"{{"t":"round","round":{i}}}"#),
            })
            .collect();
        let (tx, rx) = sync_channel(STREAM_CAPACITY);
        // The channel is full before the writer starts, so its first
        // writes carry many frames each.
        for line in &lines[..STREAM_CAPACITY] {
            tx.send(line.clone()).unwrap();
        }
        let rest = lines[STREAM_CAPACITY..].to_vec();
        let producer =
            std::thread::spawn(move || rest.into_iter().for_each(|l| tx.send(l).unwrap()));
        let writer = std::thread::spawn(move || writer_loop(server_end, rx, &JobCancel::new()));
        for want in &lines {
            assert_eq!(read_frame(&mut client).unwrap().as_ref(), Some(want));
        }
        producer.join().unwrap();
        writer.join().unwrap();
        assert!(
            read_frame(&mut client).unwrap().is_none(),
            "writer closes at the end"
        );
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
