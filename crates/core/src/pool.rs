//! A reusable worker pool.
//!
//! The pool is created once (lazily, sized from
//! [`std::thread::available_parallelism`]), parks its workers on a condvar
//! between jobs, and exposes a scoped [`WorkerPool::run`] that borrows
//! stack data: the call does not return until every submitted task has
//! finished, which is what makes handing non-`'static` closures to the
//! workers sound.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// A lifetime-erased job. Only constructed inside [`WorkerPool::run`],
/// which blocks until the job has executed — the erased borrows outlive it.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is pushed (workers) or the pool shuts down.
    work_ready: Condvar,
}

/// Countdown latch: [`WorkerPool::run`] waits on it for task completion.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch { remaining: Mutex::new(n), done: Condvar::new() }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().unwrap();
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().unwrap();
        while *r > 0 {
            r = self.done.wait(r).unwrap();
        }
    }
}

/// A fixed set of parked worker threads executing borrowed-scope tasks.
pub struct WorkerPool {
    shared: &'static PoolShared,
    workers: usize,
}

/// The process-wide pool, created on first use.
static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// The shared process-wide pool, sized from available parallelism.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            WorkerPool::with_size(thread::available_parallelism().map_or(4, std::num::NonZero::get))
        })
    }

    /// Builds a pool with `workers` threads (at least one). The threads
    /// live for the process — use [`WorkerPool::global`] unless a specific
    /// width is required (benchmarks model fixed-width decode fleets).
    pub fn with_size(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
        }));
        for i in 0..workers {
            thread::Builder::new()
                .name(format!("fg-scan-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn scan worker");
        }
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers
    }

    /// Runs every task on the pool and returns their results in task order.
    /// Blocks until all tasks finish; a panicking task is re-raised here
    /// (after the remaining tasks complete), never on a worker.
    // The crate denies `unsafe_code`; this is its single exception — the
    // scoped-lifetime transmute below, justified at the site.
    #[allow(unsafe_code)]
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(n);
        {
            let mut state = self.shared.state.lock().unwrap();
            for (i, task) in tasks.into_iter().enumerate() {
                let slot = &slots[i];
                let latch = &latch;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let r = catch_unwind(AssertUnwindSafe(task));
                    *slot.lock().unwrap() = Some(r);
                    latch.count_down();
                });
                // SAFETY: `run` blocks on the latch until every job has
                // executed, so the borrows captured by `job` (tasks' `'env`
                // data, `slots`, `latch`) strictly outlive its execution.
                let job: Job = unsafe { std::mem::transmute(job) };
                state.queue.push_back(job);
            }
            self.shared.work_ready.notify_all();
        }
        latch.wait();
        slots
            .into_iter()
            .map(|s| match s.into_inner().unwrap().expect("latch counted") {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_tasks_and_orders_results() {
        let pool = WorkerPool::global();
        let tasks: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_stack_data() {
        let pool = WorkerPool::global();
        let data: Vec<u64> = (0..1000).collect();
        let hits = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..4)
            .map(|w| {
                let (data, hits) = (&data, &hits);
                move || {
                    let s: u64 = data.iter().skip(w).step_by(4).sum();
                    hits.fetch_add(1, Ordering::SeqCst);
                    s
                }
            })
            .collect();
        let parts = pool.run(tasks);
        assert_eq!(parts.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_is_reusable() {
        let pool = WorkerPool::global();
        for round in 0..50 {
            let out = pool.run((0..2).map(|i| move || round + i).collect::<Vec<_>>());
            assert_eq!(out, vec![round, round + 1]);
        }
    }

    #[test]
    fn sized_from_available_parallelism() {
        assert!(WorkerPool::global().size() >= 1);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = WorkerPool::global();
        let r = std::panic::catch_unwind(|| {
            pool.run(vec![
                Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
                Box::new(|| panic!("boom")),
            ])
        });
        assert!(r.is_err(), "worker panic must surface in the caller");
        // The pool survives the panic.
        assert_eq!(pool.run(vec![|| 7]), vec![7]);
    }
}
