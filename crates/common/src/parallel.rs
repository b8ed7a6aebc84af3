//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! The build environment cannot vendor rayon, so the workspace carries this
//! minimal substitute. The design constraint is **bit-identical results at
//! any thread count**: work is only ever split into disjoint index ranges
//! whose per-element computations are pure, so the partitioning cannot
//! influence any floating-point operation order. Reductions are performed
//! by the caller over the output buffer in index order, never across
//! threads.
//!
//! Thread count resolution, in priority order: the `SSPC_NUM_THREADS`
//! environment variable, then `RAYON_NUM_THREADS` (honored for familiarity
//! — scripts tuned for the rayon convention keep working), then
//! [`std::thread::available_parallelism`]. A value of `1` (or any parse
//! failure) runs inline with zero spawn overhead.
//!
//! That count is **one budget for the whole process**, not a per-section
//! allowance. [`num_threads`] hands each thread its share of it:
//!
//! * every thread of a [`for_each_mut_with`] fan-out, the caller
//!   included, sees `1` while the fan-out runs, so sections nested inside
//!   it (a restart's refit and assignment phases) run inline instead of
//!   multiplying threads;
//! * a long-lived job worker that holds a [`WorkerSlot`] sees
//!   [`job_share`] of the budget over every registered worker in the
//!   process, so a worker pool's jobs together never ask for more threads
//!   than the process has.

use crate::cancel;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

thread_local! {
    /// This thread's limit on [`num_threads`]: 1 while the thread works
    /// in a [`for_each_mut_with`] fan-out, unlimited otherwise.
    static CAP: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Whether this thread holds a [`WorkerSlot`].
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Job workers currently registered in this process ([`register_worker`]).
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide thread budget.
///
/// The environment variables are read on every call, so a process may
/// change them between parallel sections (the equivalence tests and the
/// benchmarks' thread sweeps do). The operating system's count is queried
/// once per process: `available_parallelism` costs tens of microseconds a
/// call, and the hot loop resolves the count several times per iteration.
fn process_threads() -> usize {
    for var in ["SSPC_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    static OS_THREADS: OnceLock<usize> = OnceLock::new();
    *OS_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Worker-thread count for the calling thread's data-parallel sections:
/// the process budget, or this thread's share of it (see the module
/// docs).
pub fn num_threads() -> usize {
    let own = if WORKER.with(Cell::get) {
        job_threads()
    } else {
        process_threads()
    };
    own.min(CAP.with(Cell::get))
}

/// Threads each job gets when `workers` job workers share a budget of
/// `total` threads: an even split, never below one.
pub fn job_share(total: usize, workers: usize) -> usize {
    (total / workers.max(1)).max(1)
}

/// The threads a registered worker's job runs with right now:
/// [`job_share`] of the process budget over the registered workers.
pub fn job_threads() -> usize {
    job_share(process_threads(), WORKERS.load(Ordering::Relaxed))
}

/// A long-lived job worker's place in the process-wide thread budget,
/// held for the worker's lifetime; dropping it leaves the budget. It
/// marks the thread that registered, so it cannot move to another one.
#[must_use = "dropping the slot unregisters the worker"]
#[derive(Debug)]
pub struct WorkerSlot {
    _thread: PhantomData<*const ()>,
}

/// Registers the calling thread as a job worker: until the slot drops,
/// its [`num_threads`] is [`job_threads`]. One slot per thread.
pub fn register_worker() -> WorkerSlot {
    WORKERS.fetch_add(1, Ordering::Relaxed);
    WORKER.with(|w| w.set(true));
    WorkerSlot {
        _thread: PhantomData,
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(false));
        WORKERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Minimum number of elements per spawned thread; below this the spawn
/// overhead dwarfs the work and everything runs inline.
pub const MIN_CHUNK: usize = 256;

/// Applies `f` to disjoint consecutive chunks of `out`, possibly in
/// parallel. `f` receives the chunk's starting index in `out`, the mutable
/// chunk itself, and a per-worker scratch value: `init` runs once per
/// spawned worker (once total when running inline) — the pattern for
/// reusable per-worker buffers (the assignment phase's gain buffer) that
/// must not be shared across threads.
///
/// The chunking is **not observable** in the result as long as `f` writes
/// `chunk[i]` purely from `(offset + i)` and shared read-only state — which
/// is the only sanctioned usage. Runs inline when a single thread is
/// resolved or the input is smaller than [`MIN_CHUNK`].
pub fn for_each_chunk_mut_with<T, S, I, F>(out: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    let threads = num_threads().min(out.len().div_ceil(MIN_CHUNK)).max(1);
    if threads == 1 {
        let mut scratch = init();
        f(0, out, &mut scratch);
        return;
    }
    let chunk_len = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            let init = &init;
            scope.spawn(move || {
                let mut scratch = init();
                f(idx * chunk_len, chunk, &mut scratch);
            });
        }
    });
}

/// Applies `f` to every element of `items`, possibly in parallel, where
/// each element is processed independently (`f` receives the element's
/// index, a mutable reference, and a per-worker scratch value).
///
/// Used for "one task per element" parallelism where each task is large
/// and their lengths vary (a cluster fit, a restart): the calling thread
/// and up to `num_threads() - 1` helpers take elements one at a time, in
/// index order, from a shared cursor, so no thread idles while work is
/// left. Runs inline for a single resolved thread or element. `init` runs
/// once per working thread (once total when running inline) and the
/// scratch is threaded through that thread's elements — the pattern for
/// reusable gather buffers whose contents must not leak between results.
///
/// While a fan-out runs, each of its threads, the caller included, sees
/// `num_threads() == 1`, and the helpers carry the caller's
/// [`cancel`] deadline. A panic in `f` stops the hand-out (no element
/// starts after it) and resumes on the caller, with its original
/// payload, once every thread has stopped.
pub fn for_each_mut_with<T, S, I, F>(items: &mut [T], init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        let mut scratch = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item, &mut scratch);
        }
        return;
    }
    let cursor = Mutex::new(items.iter_mut().enumerate());
    let next = || {
        cursor
            .lock()
            .expect("cursor lock is never held across f")
            .next()
    };
    let work = || {
        let cap = CAP.with(|c| c.replace(1));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = init();
            while let Some((i, item)) = next() {
                f(i, item, &mut scratch);
            }
        }));
        if outcome.is_err() {
            while next().is_some() {}
        }
        CAP.with(|c| c.set(cap));
        outcome
    };
    let deadline = cancel::deadline();
    let panic = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _deadline = deadline.map(cancel::deadline_guard);
                    work()
                })
            })
            .collect();
        let mut panic = work().err();
        for helper in helpers {
            if let Err(payload) = helper.join().expect("helper panics are caught") {
                panic.get_or_insert(payload);
            }
        }
        panic
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Why a [`TaskQueue::try_push`] was refused; the rejected task is handed
/// back so the producer can report or retry it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; retry later.
    Full(T),
    /// The queue was closed; no further tasks will ever be accepted.
    Closed(T),
}

/// Guarded queue state: the buffer plus the closed flag, updated together.
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer task queue for long-lived
/// worker pools (Mutex + Condvar; no dependencies).
///
/// This is the *control-plane* counterpart to the data-parallel helpers
/// above: [`for_each_chunk_mut_with`] splits one computation across threads,
/// while `TaskQueue` feeds a pool of persistent workers a stream of
/// independent tasks — the batch server's job queue. Pushing never blocks:
/// at capacity, [`TaskQueue::try_push`] refuses with [`PushError::Full`]
/// so the producer can surface backpressure instead of buffering without
/// bound. Popping blocks until a task or queue shutdown arrives.
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    task_ready: Condvar,
    capacity: usize,
}

impl<T> TaskQueue<T> {
    /// A queue refusing pushes beyond `capacity` pending tasks
    /// (capacity 0 refuses every push — useful for drills that need a
    /// deterministically full queue).
    pub fn bounded(capacity: usize) -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            task_ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a task and returns the queue depth including it, or hands
    /// the task back when the queue is full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`TaskQueue::close`].
    pub fn try_push(&self, task: T) -> std::result::Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(task));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(task));
        }
        state.items.push_back(task);
        let depth = state.items.len();
        drop(state);
        self.task_ready.notify_one();
        Ok(depth)
    }

    /// Blocks until a task is available and returns it, or `None` once the
    /// queue is closed **and** drained — the worker-loop exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(task) = state.items.pop_front() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self.task_ready.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: pending tasks still drain, further pushes fail,
    /// and blocked/future [`TaskQueue::pop`] calls return `None` once the
    /// buffer empties.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.task_ready.notify_all();
    }

    /// Number of tasks currently waiting (excludes tasks already popped by
    /// a worker).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when no tasks are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of pending tasks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes env mutation across the tests in this module.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<R>(n: &str, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SSPC_NUM_THREADS", n);
        let r = body();
        std::env::remove_var("SSPC_NUM_THREADS");
        r
    }

    #[test]
    fn chunked_fill_is_identical_across_thread_counts() {
        let compute = || {
            let mut out = vec![0.0f64; 10_000];
            for_each_chunk_mut_with(
                &mut out,
                || (),
                |offset, chunk, ()| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let idx = (offset + i) as f64;
                        *slot = (idx * 0.37).sin() + idx.sqrt();
                    }
                },
            );
            out
        };
        let serial = with_threads("1", compute);
        for n in ["2", "3", "8"] {
            let parallel = with_threads(n, compute);
            assert_eq!(serial, parallel, "thread count {n} changed the result");
        }
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        let run = || {
            let mut items = vec![0usize; 37];
            for_each_mut_with(&mut items, || (), |i, item, ()| *item += i * 2);
            items
        };
        let serial = with_threads("1", run);
        let parallel = with_threads("4", run);
        assert_eq!(serial, parallel);
        assert!(serial.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn fan_out_threads_see_one_thread_and_the_deadline() {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let _deadline = cancel::deadline_guard(deadline);
        let seen = with_threads("4", || {
            // Each thread holds one element at the barrier, so all four
            // threads take part.
            let barrier = std::sync::Barrier::new(4);
            let mut seen = vec![(0, None, None); 4];
            for_each_mut_with(
                &mut seen,
                || (),
                |_, slot, ()| {
                    barrier.wait();
                    *slot = (
                        num_threads(),
                        cancel::deadline(),
                        Some(std::thread::current().id()),
                    );
                },
            );
            assert_eq!(num_threads(), 4, "the cap lifts when the fan-out ends");
            seen
        });
        assert!(seen.iter().all(|&(n, d, _)| n == 1 && d == Some(deadline)));
        let threads: std::collections::HashSet<_> = seen.iter().filter_map(|s| s.2).collect();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn job_share_splits_the_budget_evenly() {
        assert_eq!(job_share(4, 0), 4, "no registered worker: the whole budget");
        assert_eq!(job_share(4, 1), 4);
        assert_eq!(job_share(4, 2), 2);
        assert_eq!(job_share(4, 3), 1);
        assert_eq!(job_share(2, 2), 1);
        assert_eq!(job_share(2, 8), 1, "never below one");
        assert_eq!(job_share(8, 3), 2);
    }

    #[test]
    fn registered_workers_see_their_share() {
        with_threads("8", || {
            std::thread::spawn(|| {
                let slot = register_worker();
                assert!(WORKERS.load(Ordering::Relaxed) >= 1);
                assert_eq!(num_threads(), job_threads());
                assert!(num_threads() <= 8);
                drop(slot);
                assert_eq!(num_threads(), 8, "the slot's drop leaves the budget");
            })
            .join()
            .unwrap();
        });
    }

    #[test]
    fn num_threads_honors_env_priority() {
        with_threads("3", || {
            assert_eq!(num_threads(), 3);
        });
        // RAYON_NUM_THREADS is honored when SSPC_NUM_THREADS is absent.
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SSPC_NUM_THREADS");
        std::env::set_var("RAYON_NUM_THREADS", "2");
        assert_eq!(num_threads(), 2);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn task_queue_delivers_every_task_exactly_once() {
        let queue = std::sync::Arc::new(TaskQueue::bounded(64));
        let total = 50usize;
        let done = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let queue = std::sync::Arc::clone(&queue);
                let done = std::sync::Arc::clone(&done);
                std::thread::spawn(move || {
                    while let Some(task) = queue.pop() {
                        done.lock().unwrap().push(task);
                    }
                })
            })
            .collect();
        for i in 0..total {
            queue.try_push(i).unwrap();
        }
        queue.close();
        for w in workers {
            w.join().unwrap();
        }
        let mut seen = done.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(queue.is_empty());
    }

    #[test]
    fn task_queue_enforces_capacity_and_close() {
        let queue = TaskQueue::bounded(2);
        assert_eq!(queue.capacity(), 2);
        assert_eq!(queue.try_push(1).unwrap(), 1);
        assert_eq!(queue.try_push(2).unwrap(), 2);
        assert!(matches!(queue.try_push(3), Err(PushError::Full(3))));
        assert_eq!(queue.len(), 2);

        queue.close();
        assert!(matches!(queue.try_push(4), Err(PushError::Closed(4))));
        // Pending tasks drain after close, then pop signals shutdown.
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);

        let zero = TaskQueue::bounded(0);
        assert!(matches!(zero.try_push(9), Err(PushError::Full(9))));
    }

    #[test]
    fn small_inputs_run_inline() {
        let mut out = vec![0u8; 16];
        for_each_chunk_mut_with(
            &mut out,
            || (),
            |offset, chunk, ()| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (offset + i) as u8;
                }
            },
        );
        assert_eq!(out[15], 15);
    }
}
