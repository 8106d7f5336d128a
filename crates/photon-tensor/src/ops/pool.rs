//! A lazily-initialized, persistent worker pool for data-parallel kernels.
//!
//! Every compute kernel in the training hot path (GEMM, attention,
//! layernorm, …) funnels its parallelism through this module, so thread
//! creation happens **once per process** instead of once per kernel call
//! (the previous `crossbeam::thread::scope` design paid a spawn/join for
//! every GEMM).
//!
//! # Threading model
//!
//! A thread's compute budget is its [`Context`]'s width ([`max_threads`]).
//! A run sets its budget by entering a context (the CLI's `--threads N`
//! runs its command inside `Context { chunks: N, width: N, .. }`), so two
//! runs in one process keep their own. A thread outside every context
//! computes under the process default, resolved once:
//!
//! 1. the `PHOTON_THREADS` environment variable (`0` or `1` = serial);
//! 2. [`std::thread::available_parallelism`].
//!
//! The process has one set of workers, spawned with the default and never
//! resized: `n - 1` pool workers for a default of `n`, plus the submitting
//! thread, which always executes one chunk of every batch inline instead
//! of sleeping. A budget above the default sets the chunk count (and with
//! it the bits) but adds no workers.
//!
//! # Nested parallelism
//!
//! A thread computes under a [`Context`] of two numbers that are kept
//! apart because they answer different questions:
//!
//! * the **chunk count** ([`effective_parallelism`]) is arithmetic: it
//!   fixes how a kernel splits its work and, for the kernels that reduce
//!   across chunks, the order of the floating-point sums. Changing it
//!   changes results in the last bits.
//! * the **execution width** is scheduling: how many of the process's
//!   compute threads this thread's batches may occupy. At width 1
//!   [`run_tasks`] runs the whole batch on the caller, chunk by chunk, in
//!   place of a trip through the channel and the latch. It never changes a
//!   result.
//!
//! Coarse-grained drivers spawn threads of their own and divide the
//! context between them so that the layers together fill the cores once:
//! the round engine runs the cohort on at most [`max_threads`] client
//! lanes ([`Context::lanes`]: the width is divided, the chunk count is
//! kept, so a round is bit-identical on any lane count), DDP replicas and
//! sub-federation nodes take [`Context::split`] (both divided: a 8-thread
//! budget over 4 replicas gives each 2 chunks on 2 threads). A spawned
//! thread starts with empty thread-locals, so the spawner captures
//! [`Context::current`] and the thread [`Context::enter`]s it — which also
//! hands it the spawner's trace scope (recorder and actor lane), so a
//! replica's kernel spans land in its round's recorder on its client's
//! lane. Tasks already running *on* a pool worker never fan out again
//! ([`effective_parallelism`] reports `1` there), which makes pool-waiting
//! deadlocks impossible by construction.
//!
//! # Determinism
//!
//! Work is split into chunks **before** dispatch and every chunk touches a
//! disjoint region of the output (callers enforce this via
//! `split_at_mut`-style partitioning), so results never depend on
//! scheduling order — only on the chunk count, which is itself a pure
//! function of [`effective_parallelism`]. Kernels that must reduce across
//! chunks (split-k GEMM, layernorm weight gradients) do so after the
//! barrier in deterministic chunk order.
#![allow(unsafe_code)]

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A unit of work submitted to [`run_tasks`]. The borrow may reference the
/// caller's stack: [`run_tasks`] does not return until every task has run.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The process's default budget and its workers, set up on first use.
static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads; suppresses nested fan-out.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Thread-local chunk budget (0 = unset, use the process default).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// Thread-local execution width (0 = unset, use the process default).
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

struct Pool {
    /// The default budget: `PHOTON_THREADS`, else every core.
    threads: usize,
    /// The `threads - 1` workers' queue; `None` at a default of 1.
    tx: Option<crossbeam::channel::Sender<Job>>,
}

/// Counts outstanding tasks of one `run_tasks` batch; the submitting thread
/// blocks on it until every dispatched task has finished.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            self.done.wait(&mut remaining);
        }
    }
}

/// The calling thread's compute budget: its [`Context`]'s width, outside
/// every context the process default (`PHOTON_THREADS`, else
/// [`std::thread::available_parallelism`]); `1` on pool workers. Always
/// at least 1.
pub fn max_threads() -> usize {
    if IS_WORKER.with(Cell::get) {
        return 1;
    }
    match WIDTH.with(Cell::get) {
        0 => pool().threads,
        width => width,
    }
}

/// The parallelism kernels should use *right now* on this thread: its
/// [`Context`]'s chunk count, outside every context the process default;
/// always `1` on pool worker threads (no nested fan-out).
pub fn effective_parallelism() -> usize {
    if IS_WORKER.with(Cell::get) {
        return 1;
    }
    match BUDGET.with(Cell::get) {
        0 => pool().threads,
        chunks => chunks,
    }
}

/// Runs `f` with this thread's chunk budget set to `n` (clamped to at
/// least 1), restoring the previous budget afterwards — also on panic.
///
/// Used by tests and benches to pin the kernels' chunk count regardless of
/// the host machine. Drivers that spawn threads divide a [`Context`].
pub fn with_parallelism<R>(n: usize, f: impl FnOnce() -> R) -> R {
    Context {
        chunks: n,
        ..Context::current()
    }
    .enter(f)
}

/// What a thread computes under: the chunk count its kernels split by, the
/// execution width its batches may occupy and its trace scope (see the
/// module docs, "Nested parallelism"). Thread-local; a driver that spawns threads captures
/// [`Context::current`], divides it, and has each thread [`Context::enter`]
/// its share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// What [`effective_parallelism`] reports. Part of the numerical
    /// contract.
    pub chunks: usize,
    /// How many compute threads this thread's batches may occupy. At 1,
    /// [`run_tasks`] runs every batch on the caller.
    pub width: usize,
    /// The recorder and actor lane trace calls reach, inherited as
    /// captured.
    pub trace: photon_trace::Scope,
}

impl Context {
    /// The calling thread's context.
    pub fn current() -> Self {
        Context {
            chunks: effective_parallelism(),
            width: max_threads(),
            trace: photon_trace::Scope::current(),
        }
    }

    /// The share of each of `n` concurrent threads whose results must not
    /// depend on `n`: the width is divided, the chunk count is kept.
    pub fn lanes(&self, n: usize) -> Self {
        Context {
            width: (self.width / n.max(1)).max(1),
            ..self.clone()
        }
    }

    /// The share of each of `n` concurrent replicas: chunk count and width
    /// are both divided, so `n` is part of the replicas' arithmetic.
    pub fn split(&self, n: usize) -> Self {
        Context {
            chunks: (self.chunks / n.max(1)).max(1),
            ..self.lanes(n)
        }
    }

    /// Runs `f` under this context (a zero count is taken as 1), restoring
    /// the thread's previous one afterwards — also on panic.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize, usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                BUDGET.with(|b| b.set(self.0));
                WIDTH.with(|w| w.set(self.1));
            }
        }
        let _restore = Restore(
            BUDGET.with(|b| b.replace(self.chunks.max(1))),
            WIDTH.with(|w| w.replace(self.width.max(1))),
        );
        self.trace.enter(f)
    }
}

/// Splits `0..n` into `parts` contiguous, balanced, non-empty ranges
/// (fewer if `n < parts`; empty if `n == 0`).
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits a flat `(rows, row_len)` buffer into one mutable chunk per range.
///
/// The ranges must be the contiguous ascending partition produced by
/// [`chunk_ranges`]; each returned slice covers `ranges[i].len() * row_len`
/// elements.
///
/// # Panics
/// Panics if the ranges are not contiguous ascending or overflow `buf`.
pub fn split_rows<'a, T>(
    buf: &'a mut [T],
    row_len: usize,
    ranges: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = buf;
    let mut row = 0usize;
    for r in ranges {
        assert_eq!(r.start, row, "split_rows: ranges must be contiguous");
        let (chunk, tail) = rest.split_at_mut(r.len() * row_len);
        chunks.push(chunk);
        rest = tail;
        row = r.end;
    }
    chunks
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = match std::env::var("PHOTON_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        if threads <= 1 {
            return Pool { threads, tx: None };
        }
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..threads - 1 {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("photon-worker-{i}"))
                .spawn(move || {
                    IS_WORKER.with(|w| w.set(true));
                    while let Ok(job) = rx.recv() {
                        if catch_unwind(AssertUnwindSafe(job.task)).is_err() {
                            job.latch.panicked.store(true, Ordering::SeqCst);
                        }
                        job.latch.count_down();
                    }
                })
                .expect("failed to spawn photon worker thread");
        }
        Pool {
            threads,
            tx: Some(tx),
        }
    })
}

/// Executes a batch of independent tasks, blocking until all complete.
///
/// One task always runs inline on the calling thread; the rest are handed
/// to the persistent workers (or also run inline, in task order, when the
/// pool is disabled, the batch has a single task, the caller's execution
/// width is 1, or the caller *is* a pool worker). Tasks
/// may borrow non-`'static` data: this function never returns — not even by
/// unwinding — before every task has finished, so the borrows cannot
/// outlive their owners.
///
/// # Panics
/// Panics if any task panicked (worker panics are captured and re-raised
/// here, after the barrier).
pub fn run_tasks(tasks: Vec<Task<'_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    // Profile-only span (never a JSONL event): dispatch + barrier wait.
    let _dispatch = photon_trace::span(photon_trace::Phase::PoolDispatch).arg("tasks", n as u64);
    let run_inline = n == 1 || IS_WORKER.with(Cell::get) || WIDTH.with(Cell::get) == 1;
    let tx = if run_inline { None } else { pool().tx.as_ref() };
    let Some(tx) = tx else {
        for task in tasks {
            task();
        }
        return;
    };

    let latch = Arc::new(Latch::new(n - 1));
    let mut tasks = tasks.into_iter();
    let inline_task = tasks.next().expect("n >= 1");

    // Block until every dispatched task is done, even if the inline task
    // below unwinds: the guard's Drop runs during unwinding, so no worker
    // can still be touching caller-owned data once control leaves this
    // function. This is the invariant that makes the lifetime erasure in
    // the dispatch loop sound.
    struct WaitGuard<'a>(&'a Latch);
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    let guard = WaitGuard(&latch);

    for task in tasks {
        // SAFETY: `Box<dyn FnOnce + Send + 'a>` and the `'static` form have
        // identical layout; the erased lifetime is protected by the
        // wait-before-return invariant documented on `WaitGuard` — workers
        // drop the task (and with it every borrow) before counting down the
        // latch, and we do not leave this function until the latch opens.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        tx.send(Job {
            task,
            latch: Arc::clone(&latch),
        })
        .unwrap_or_else(|_| panic!("photon worker pool disconnected"));
    }
    inline_task();
    drop(guard);

    if latch.panicked.load(Ordering::SeqCst) {
        panic!("photon worker task panicked");
    }
}

/// Chunked parallel-for over `0..n` with a minimum chunk size of `grain`:
/// `body` receives disjoint index ranges, at most [`effective_parallelism`]
/// of them, each at least `grain` long (except possibly the last split).
///
/// `body` only gets shared access — use it for kernels whose writes go
/// through pre-split chunks captured elsewhere, or gather results with
/// [`run_tasks`] directly.
pub fn parallel_for(n: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    let parts = effective_parallelism().min(n.div_ceil(grain.max(1))).max(1);
    if parts <= 1 {
        body(0..n);
        return;
    }
    let tasks: Vec<Task> = chunk_ranges(n, parts)
        .into_iter()
        .map(|r| {
            let body = &body;
            Box::new(move || body(r)) as Task
        })
        .collect();
    run_tasks(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_ranges_cover_and_balance() {
        for n in [0usize, 1, 5, 16, 17] {
            for parts in 1..6 {
                let ranges = chunk_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                if n > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(hi - lo <= 1, "unbalanced: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn run_tasks_sees_every_task() {
        let mut data = vec![0u32; 64];
        let ranges = chunk_ranges(data.len(), 8);
        let chunks = split_rows(&mut data, 1, &ranges);
        let tasks: Vec<Task> = chunks
            .into_iter()
            .zip(&ranges)
            .map(|(chunk, r)| {
                let start = r.start;
                Box::new(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (start + i) as u32;
                    }
                }) as Task
            })
            .collect();
        run_tasks(tasks);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn with_parallelism_scopes_and_restores() {
        let outer = effective_parallelism();
        with_parallelism(3, || {
            assert_eq!(effective_parallelism(), 3);
            with_parallelism(1, || assert_eq!(effective_parallelism(), 1));
            assert_eq!(effective_parallelism(), 3);
        });
        assert_eq!(effective_parallelism(), outer);
    }

    #[test]
    fn context_divides_and_is_inherited_by_entering() {
        let recorder = photon_trace::Recorder::start(Default::default()).unwrap();
        let base = Context {
            chunks: 8,
            width: 4,
            // A recorder and an actor lane that are not the thread defaults.
            trace: recorder.scope(|| {
                photon_trace::set_actor(3);
                photon_trace::Scope::current()
            }),
        };
        assert_ne!(base.trace, photon_trace::Scope::current());
        assert_eq!(base.lanes(2).chunks, 8, "lanes keep the chunk count");
        assert_eq!(base.lanes(2).width, 2);
        assert_eq!(base.lanes(64).width, 1, "never below one thread");
        assert_eq!((base.split(4).chunks, base.split(4).width), (2, 1));
        assert_eq!(base.split(0), base, "zero threads are taken as one");
        let outer = Context::current();
        base.enter(|| {
            assert_eq!(Context::current(), base);
            assert_eq!(effective_parallelism(), 8);
            // A spawned thread starts from the defaults until it enters
            // the context its spawner captured.
            let ctx = Context::current().lanes(4);
            let seen = std::thread::spawn(move || {
                assert_ne!(Context::current().trace, ctx.trace);
                ctx.enter(Context::current)
            });
            assert_eq!(seen.join().unwrap(), base.lanes(4));
        });
        assert_eq!(Context::current(), outer);
    }

    #[test]
    fn the_budget_is_the_contexts_width_and_a_new_thread_starts_on_the_default() {
        let default = max_threads();
        Context {
            chunks: 3,
            width: default + 4,
            ..Context::current()
        }
        .enter(|| {
            assert_eq!((effective_parallelism(), max_threads()), (3, default + 4));
            let fresh = std::thread::spawn(|| (effective_parallelism(), max_threads()));
            assert_eq!(fresh.join().unwrap(), (default, default));
        });
        assert_eq!(max_threads(), default);
    }

    #[test]
    fn width_one_runs_the_batch_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let batch = || {
            let tasks: Vec<Task> = (0..4)
                .map(|i| {
                    let ran_on = &ran_on;
                    Box::new(move || ran_on.lock().push((i, std::thread::current().id()))) as Task
                })
                .collect();
            run_tasks(tasks);
        };
        Context {
            width: 1,
            ..Context::current()
        }
        .enter(batch);
        let inline: Vec<_> = (0..4).map(|i| (i, caller)).collect();
        assert_eq!(*ran_on.lock(), inline, "in task order, all on the caller");
    }

    #[test]
    fn parallel_for_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        with_parallelism(4, || {
            parallel_for(hits.len(), 8, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn task_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_parallelism(4, || {
                let tasks: Vec<Task> = (0..4)
                    .map(|i| Box::new(move || assert!(i != 2, "boom")) as Task)
                    .collect();
                run_tasks(tasks);
            });
        });
        assert!(caught.is_err());
    }
}
