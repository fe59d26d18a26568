//! The bounded job queue and the worker pool that drains it.
//!
//! Backpressure lives here: [`JobQueue::push`] is non-blocking and
//! *rejects* when the queue is at capacity — the connection handler
//! turns that rejection into an `overloaded` error frame, so a client
//! learns immediately instead of waiting in an invisible line. Workers
//! block in [`JobQueue::pop`] between jobs.
//!
//! Ownership and shutdown: the queue is shared (`Arc`) between the
//! accept side (pushes) and the workers (pops). [`JobQueue::close`]
//! flips a latch — pushes start failing, pops drain what is already
//! queued and then return `None`, and each worker exits its loop.
//! [`WorkerPool::join`] then reaps the threads. The server tears down
//! in exactly that order (see [`crate::server`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use fssga_engine::ChannelTrace;

use crate::exec::{self, JobCancel};
use crate::job::{codes, JobError, JobSpec};

/// One admitted job, parked in the queue until a worker picks it up.
#[derive(Debug)]
pub struct QueuedJob {
    /// Server-unique job id (echoed in every response frame).
    pub id: u64,
    /// The validated, limit-clamped request.
    pub spec: JobSpec,
    /// Cancellation handle shared with the connection writer. Its
    /// deadline is admission time + the job's `wall_ms`: the clock
    /// starts at admission, so time spent queued counts against the
    /// budget — a shed-load guarantee, not a stopwatch.
    pub cancel: JobCancel,
    /// Stream channel back to the connection's writer loop.
    pub tx: SyncSender<String>,
}

/// Queue interior behind one mutex.
#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

/// The bounded, closable job queue.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    /// A queue admitting at most `cap` parked jobs (running jobs do
    /// not count — capacity bounds *waiting*, workers bound *running*).
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Admits `job`, returning the queue depth after the push, or the
    /// job back if the queue is full or closed (the caller sheds it).
    // The Err variant hands ownership of the whole job back to the
    // shedding caller on purpose; boxing it would add an allocation to
    // every admission to shrink a cold rejection path.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: QueuedJob) -> Result<usize, QueuedJob> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed || s.jobs.len() >= self.cap {
            return Err(job);
        }
        s.jobs.push_back(job);
        let depth = s.jobs.len();
        drop(s);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained (the worker-exit signal).
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    /// Closes the queue: future pushes fail, pops drain then end.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently parked (diagnostic only — racy by nature).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }
}

/// The fixed set of worker threads executing queued jobs.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads draining `queue`.
    pub fn spawn(workers: usize, queue: Arc<JobQueue>) -> Self {
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("fssga-serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Reaps the workers. Call only after [`JobQueue::close`], or this
    /// blocks until someone else closes the queue.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(queue: &JobQueue) {
    while let Some(job) = queue.pop() {
        // A panic inside the engine is an invariant violation, not a
        // protocol event — convert it to an `internal` error frame so
        // the worker (and the client's connection) survive it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            exec::execute(job.id, &job.spec, &job.cancel, &job.tx)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into());
            Err(JobError::new(codes::INTERNAL, msg))
        });
        let line = match outcome {
            Ok(done) => done,
            Err(e) => e.to_jsonl(job.id),
        };
        // The final line waits on a full channel like a streamed one,
        // and is dropped once the job's token reads cancelled (client
        // gone or deadline passed), so a stalled client cannot wedge
        // the worker. Dropping the sink drops the worker's `tx`; once
        // the tracer clones inside `execute` are gone too, the
        // connection's receiver disconnects and its writer loop ends.
        ChannelTrace::with_cancel(job.tx, job.cancel).send(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Limits;
    use crate::json::Json;
    use std::sync::mpsc::sync_channel;

    fn tiny_spec() -> JobSpec {
        JobSpec::parse(
            &Json::parse(r#"{"proto":"census","graph":{"gen":"path","n":8},"stream":false}"#)
                .unwrap(),
            &Limits::default(),
        )
        .unwrap()
    }

    fn queued(id: u64, tx: SyncSender<String>) -> QueuedJob {
        QueuedJob {
            id,
            spec: tiny_spec(),
            cancel: JobCancel::new(),
            tx,
        }
    }

    #[test]
    fn queue_bounds_and_sheds() {
        let q = JobQueue::new(2);
        let (tx, _rx) = sync_channel(8);
        assert_eq!(q.push(queued(1, tx.clone())).unwrap(), 1);
        assert_eq!(q.push(queued(2, tx.clone())).unwrap(), 2);
        let rejected = q.push(queued(3, tx.clone())).unwrap_err();
        assert_eq!(rejected.id, 3, "full queue returns the job for shedding");
        assert_eq!(q.pop().unwrap().id, 1, "FIFO order");
        q.close();
        assert!(q.push(queued(4, tx)).is_err(), "closed queue rejects");
        assert_eq!(q.pop().unwrap().id, 2, "close drains what was queued");
        assert!(q.pop().is_none(), "then signals worker exit");
    }

    #[test]
    fn workers_drain_jobs_to_final_frames() {
        let q = JobQueue::new(8);
        let pool = WorkerPool::spawn(2, Arc::clone(&q));
        let mut rxs = Vec::new();
        for id in 0..4 {
            let (tx, rx) = sync_channel(8);
            q.push(queued(id, tx)).unwrap();
            rxs.push((id, rx));
        }
        for (id, rx) in rxs {
            let line = rx.recv().expect("final frame");
            let v = Json::parse(&line).unwrap();
            assert_eq!(v.get("t").and_then(Json::as_str), Some("done"));
            assert_eq!(v.get("job").and_then(Json::as_u64), Some(id));
            assert!(rx.recv().is_err(), "channel closes after the final frame");
        }
        q.close();
        pool.join();
    }
}
