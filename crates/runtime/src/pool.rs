//! The parallel execution engine's one worker pool.
//!
//! Every instruction of a compiled XOR program is element-wise, so any
//! byte range of a stripe can be executed independently (§6). The
//! process has one [`ExecPool`], [`ExecPool::global`]: a persistent set
//! of [`default_parallelism`] worker threads, built lazily by the first
//! call that hands it two or more stripes, each owning a reusable
//! grow-on-demand [`VarArena`], so a steady-state program run allocates
//! no scratch and concurrent callers never contend on a shared arena. A
//! codec's `parallelism` only caps how many stripes one call hands it; a
//! one-stripe call runs inline and never touches it.
//!
//! Work is submitted in *scopes*: [`ExecPool::run_scoped`] blocks until
//! every submitted task has finished, which is what lets tasks borrow
//! the caller's stack (input/output shard slices) without `'static`
//! bounds. Sharing one pool among every caller is safe because a pool
//! task only runs program stripes and never submits to the pool itself:
//! a worker never waits on a scope, so however many callers queue
//! stripes, every queued task is eventually run by a free worker.

use crate::arena::VarArena;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A task executed on a worker: it receives the worker's persistent
/// arena. The lifetime `'scope` is the borrow of the submitting call
/// frame; [`ExecPool::run_scoped`] blocks until the task completes, so
/// the borrow never escapes.
pub(crate) type ScopedTask<'scope> = Box<dyn FnOnce(&mut VarArena) + Send + 'scope>;

type StaticTask = Box<dyn FnOnce(&mut VarArena) + Send + 'static>;

/// Lock a mutex, recovering the guard from a poisoned lock.
///
/// Shared by the pool, the partitioner and the codecs above them: their
/// guarded state (queues, latches, program caches) stays internally
/// consistent even if a holder panicked mid-operation, so poisoning must
/// not wedge a long-lived shared structure permanently.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

use self::lock_unpoisoned as lock;

struct Queue {
    tasks: VecDeque<StaticTask>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
}

/// One scope's completion latch: how many tasks are still running, and
/// whether any of them panicked.
struct Latch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new((count, false)),
            done: Condvar::new(),
        })
    }

    fn complete_one(&self, panicked: bool) {
        let mut s = lock(&self.state);
        s.0 -= 1;
        s.1 |= panicked;
        if s.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every task completed; returns true if any panicked.
    fn wait(&self) -> bool {
        let mut s = lock(&self.state);
        while s.0 > 0 {
            s = self
                .done
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        s.1
    }
}

/// A persistent pool of worker threads for striped XOR-program execution.
///
/// Each worker owns one grow-on-demand [`VarArena`] that is reused across
/// every task it runs, so repeated encode/decode calls allocate nothing
/// once the arena has grown to the working-set size.
pub(crate) struct ExecPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ExecPool {
    /// Spawn a pool with `workers` threads (clamped to at least 1).
    fn new(workers: usize) -> ExecPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("xor-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        ExecPool { shared, handles }
    }

    /// The one pool, created lazily on first use and sized from
    /// [`default_parallelism`].
    pub(crate) fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ExecPool::new(default_parallelism()))
    }

    /// Run a batch of borrowed tasks to completion.
    ///
    /// Blocks until every task has finished (this is what makes the
    /// non-`'static` borrows sound: no task can outlive this call).
    ///
    /// # Panics
    /// Panics if any task panicked on a worker.
    pub(crate) fn run_scoped<'scope>(&self, tasks: Vec<ScopedTask<'scope>>) {
        if tasks.is_empty() {
            return;
        }
        let latch = Latch::new(tasks.len());
        {
            let mut q = lock(&self.shared.queue);
            for task in tasks {
                // SAFETY: the task is only *called* (and dropped) before
                // `latch.wait()` below returns — the latch is decremented
                // strictly after the task has been consumed — so every
                // borrow with lifetime 'scope stays live for as long as
                // the task exists. Erasing 'scope to 'static is therefore
                // sound; the fat-pointer layout is identical.
                let task = unsafe { std::mem::transmute::<ScopedTask<'scope>, StaticTask>(task) };
                let latch = latch.clone();
                q.tasks.push_back(Box::new(move |arena: &mut VarArena| {
                    let outcome = catch_unwind(AssertUnwindSafe(|| task(arena)));
                    latch.complete_one(outcome.is_err());
                }));
            }
            self.shared.work_ready.notify_all();
        }
        if latch.wait() {
            panic!("ExecPool worker task panicked");
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    // The worker's persistent arena: starts tiny, grows on demand inside
    // `run_with_arena`, and is then reused for every subsequent task.
    let mut arena = VarArena::new(1, 1, 1024);
    loop {
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared
                    .work_ready
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // The task wrapper already catches panics and reports them via
        // its latch; nothing to do here.
        task(&mut arena);
    }
}

/// The machine's available parallelism: the pool's size, and the stripe
/// cap of a codec built with `parallelism = 0`. Reading it does not
/// build the pool.
pub fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_tasks_see_borrowed_state_and_all_run() {
        let pool = ExecPool::new(3);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..16)
            .map(|_| {
                Box::new(|_: &mut VarArena| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pool_survives_many_scopes() {
        let pool = ExecPool::new(2);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            let tasks: Vec<ScopedTask<'_>> = (0..4)
                .map(|i| {
                    let sum = &sum;
                    Box::new(move |_: &mut VarArena| {
                        sum.fetch_add(i + round, Ordering::SeqCst);
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.run_scoped(tasks);
            assert_eq!(sum.load(Ordering::SeqCst), 6 + 4 * round);
        }
    }

    #[test]
    fn worker_arena_is_persistent_and_grows() {
        let pool = ExecPool::new(1);
        // Grow the single worker's arena, then observe the same capacity
        // from a later scope (no shrink, no realloc).
        pool.run_scoped(vec![Box::new(|arena: &mut VarArena| {
            if !arena.fits(4, 4096, 1024) {
                *arena = VarArena::new(4, 4096, 1024);
            }
        })]);
        let seen = Mutex::new((0usize, 0usize));
        pool.run_scoped(vec![Box::new(|arena: &mut VarArena| {
            *lock(&seen) = (arena.n_vars(), arena.array_len());
        })]);
        assert_eq!(*lock(&seen), (4, 4096));
    }

    #[test]
    fn panicking_task_propagates_but_pool_stays_usable() {
        let pool = ExecPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(vec![Box::new(|_: &mut VarArena| panic!("boom"))]);
        }));
        assert!(result.is_err());
        // The pool still executes new work afterwards.
        let ran = AtomicUsize::new(0);
        pool.run_scoped(vec![Box::new(|_: &mut VarArena| {
            ran.fetch_add(1, Ordering::SeqCst);
        })]);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ExecPool::global();
        let b = ExecPool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.handles.len(), default_parallelism());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ExecPool::new(0);
        assert_eq!(pool.handles.len(), 1);
    }
}
