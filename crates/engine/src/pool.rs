//! A persistent worker pool for sharded synchronous rounds.
//!
//! The sharded kernel runs one job per round: "evaluate shard `k`" for
//! `k` in `0..shards`. Spawning and joining one scoped thread per round
//! costs more than waking a parked one: `fssga-bench micro` times one
//! `std::thread::scope` spawn + join (`pool/scoped-spawn-join/1-thread`)
//! at a 61–84 µs median and one empty 2-thread epoch of this pool
//! (`pool/empty-epoch/2-threads`) at 25–59 µs, on a 2-vCPU host. Either
//! dwarfs the evaluation of a sparse late round. [`ShardPool`] therefore
//! parks `threads - 1` workers on a condvar between rounds and reuses
//! them for the lifetime of the [`crate::Network`]; the calling thread
//! is always the remaining worker, so a pool of 1 runs everything
//! inline with no synchronization at all.
//!
//! Shard indices are handed out through a single shared atomic counter
//! (work stealing at shard granularity): a slow shard never blocks the
//! others, and `shards > threads` degrades gracefully. Determinism is
//! unaffected — *which* thread evaluates a shard is irrelevant because
//! shards write only to their own arenas and the caller merges arenas in
//! shard order after [`ShardPool::run`] returns.
//!
//! # Safety model
//!
//! The job closure is published to workers as a lifetime-erased raw
//! pointer. This is sound because [`ShardPool::run`] does not return
//! until every worker has finished the epoch (`active == 0`) and the
//! job slot is cleared while still under the lock — no worker can
//! observe the pointer after the borrow it was created from ends. A
//! panic inside the job on any thread is caught, the epoch still runs
//! to completion (remaining shards are drained), and the first payload
//! is re-thrown on the calling thread.

use std::any::Any;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

// Under `--cfg loom` (the CI model-checking job) every synchronization
// primitive is swapped for loom's permutation-exploring equivalent; the
// algorithm itself is identical. See `tests/loom_pool.rs`.
#[cfg(loom)]
use loom::{
    sync::{
        atomic::{AtomicUsize, Ordering},
        Arc, Condvar, Mutex,
    },
    thread::{self, JoinHandle},
};
#[cfg(not(loom))]
use std::{
    sync::{
        atomic::{AtomicUsize, Ordering},
        Arc, Condvar, Mutex,
    },
    thread::{self, JoinHandle},
};

/// The published job: a borrowed `Fn(usize) + Sync` with its lifetime
/// erased (see the module-level safety model).
#[derive(Copy, Clone)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: `Send` here really stands in for "a `&` to the pointee may be
// shared across threads": `Job` is `Copy`, so after one worker takes it
// out of the mutex-guarded slot, *every* worker (and the caller) holds a
// copy and dereferences the same pointee concurrently. That is sound on
// two conditions. (1) The pointee is `Sync` — guaranteed by the erased
// type itself and re-checked by `job_pointee_is_shareable` below, so a
// shared `&` to it is `Send`. (2) The pointee is still alive — `run`
// blocks until `active == 0` and clears the slot under the lock before
// returning, so no worker can observe the pointer after the borrow it
// was created from ends (module-level safety model).
unsafe impl Send for Job {}

/// Compile-time witness for the `Send` impl above: a shared reference to
/// the job pointee crosses threads, which is exactly `&T: Send`, i.e.
/// `T: Sync`. If the pointee type ever loses its `Sync` bound, this stops
/// compiling instead of the pool becoming silently unsound.
const _: () = {
    const fn job_pointee_is_shareable<T: ?Sized>()
    where
        for<'a> &'a T: Send,
    {
    }
    job_pointee_is_shareable::<dyn Fn(usize) + Sync>();
};

/// Coordination state guarded by the pool mutex.
struct State {
    /// Bumped once per `run`; workers use it to tell a fresh job from a
    /// spurious wakeup.
    epoch: u64,
    /// The current job, present only while an epoch is in flight.
    job: Option<Job>,
    /// Shard count of the current epoch.
    shards: usize,
    /// Workers still executing the current epoch.
    active: usize,
    /// Tells workers to exit (set by `Drop`).
    shutdown: bool,
    /// First panic payload caught during the epoch, re-thrown by `run`.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes parked workers when a new epoch (or shutdown) is posted.
    start: Condvar,
    /// Wakes the caller when the last worker finishes the epoch.
    done: Condvar,
    /// Next shard index to claim; reset to 0 each epoch.
    next_shard: AtomicUsize,
}

impl Shared {
    /// Claims shards off the counter and runs `f` on each until the
    /// epoch's shard supply is exhausted. Panics are caught and parked
    /// in the state so the epoch always drains.
    fn drain(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        loop {
            let k = self.next_shard.fetch_add(1, Ordering::Relaxed);
            if k >= shards {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(k))) {
                let mut st = self.state.lock().unwrap();
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
        }
    }
}

fn worker(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let (job, shards) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen {
                    seen = st.epoch;
                    break (st.job.expect("live epoch always has a job"), st.shards);
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        // SAFETY: `run` blocks until this worker decrements `active`,
        // so the pointee outlives this use (module-level safety model).
        let f = unsafe { &*job.0 };
        shared.drain(shards, f);
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// A fixed-size pool of parked workers executing one shard-indexed job
/// at a time (see the module docs for the design and safety model).
pub struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ShardPool {
    /// A pool executing jobs on `threads` threads total — `threads - 1`
    /// spawned workers plus the thread that calls [`Self::run`]. A
    /// `threads` of 0 is clamped to 1 (purely inline execution).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shards: 0,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            next_shard: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker(shared))
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total threads participating in [`Self::run`] (spawned workers plus
    /// the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(k)` once for every `k` in `0..shards`, spread over the
    /// pool, and returns when all calls have completed. The calling
    /// thread participates, so a 1-thread pool executes every shard
    /// inline in ascending order. If any call panics, the first payload
    /// is re-thrown here after the epoch drains.
    ///
    /// Takes `&mut self`: one epoch at a time, by construction.
    pub fn run(&mut self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        if shards == 0 {
            return;
        }
        if self.workers.is_empty() {
            // Inline fast path: no epoch bookkeeping, no fences.
            self.shared.next_shard.store(0, Ordering::Relaxed);
            self.shared.drain(shards, f);
            let mut st = self.shared.state.lock().unwrap();
            if let Some(payload) = st.panic.take() {
                drop(st);
                resume_unwind(payload);
            }
            return;
        }
        // SAFETY: same fat-pointer layout; the erased borrow outlives the
        // epoch because this function blocks until `active == 0` and
        // clears the job slot before returning.
        let job = Job(unsafe {
            mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            self.shared.next_shard.store(0, Ordering::Relaxed);
            st.job = Some(job);
            st.shards = shards;
            st.active = self.workers.len();
            st.epoch += 1;
            self.shared.start.notify_all();
        }
        self.shared.drain(shards, f);
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// The unit tests drive real std primitives; under `--cfg loom` they are
// compiled out (loom primitives panic outside `loom::model`) and the
// model-checking suite in `tests/loom_pool.rs` takes over.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_shard_runs_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let mut pool = ShardPool::new(threads);
            let hits: Vec<AtomicU64> = (0..13).map(|_| AtomicU64::new(0)).collect();
            pool.run(13, &|k| {
                hits[k].fetch_add(1, Ordering::Relaxed);
            });
            for (k, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "shard {k}, {threads} threads");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_epochs() {
        let mut pool = ShardPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(4, &|k| {
                total.fetch_add(k as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn zero_shards_is_a_noop() {
        let mut pool = ShardPool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let mut pool = ShardPool::new(4);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|k| {
                if k == 5 {
                    panic!("shard 5 exploded");
                }
            });
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard 5 exploded");
        // The pool survives the panic and keeps working.
        let ran = AtomicU64::new(0);
        pool.run(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_threads_clamps_to_inline() {
        let mut pool = ShardPool::new(0);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.run(5, &|k| order.lock().unwrap().push(k));
        // Inline execution is ascending, by construction.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
