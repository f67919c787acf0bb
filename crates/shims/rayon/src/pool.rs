//! The execution engine behind the shim's parallel iterators: a global
//! work-stealing thread pool built on `std::thread` plus shared atomic
//! chunk counters.
//!
//! # Design
//!
//! Every data-parallel operation ([`run_indexed`]) registers an *op
//! entry* — an atomic claim counter over `n` task indices — in a global
//! list. Pool workers and the submitting thread all *steal* indices from
//! any active op by bumping its counter, so nested parallel calls (a
//! sweep cell that itself builds routing tables in parallel) are served
//! by the same worker set without deadlock: a thread waiting for its own
//! op to finish helps execute whatever other ops are in flight.
//!
//! # Determinism
//!
//! Task results are addressed by index, never by completion order, so
//! every terminal operation in [`crate`] yields bit-identical output for
//! any thread count — the property the experiment parity suite pins.
//!
//! # Sizing
//!
//! The pool is sized, in priority order, by [`ensure_pool`] (first call
//! wins), the `FATPATHS_THREADS` / `RAYON_NUM_THREADS` environment
//! variables, then `std::thread::available_parallelism()`. Compiling
//! with the `single-thread` feature removes the pool entirely (every
//! operation runs inline, for debugging), and [`run_sequential`] does
//! the same per call site at runtime.
//!
//! # Panics
//!
//! A panicking task does not poison the pool or deadlock the submitter:
//! payloads are caught on the executing thread, the operation drains,
//! and the panic resumes on the submitting thread (lowest task index
//! wins when several tasks panic, keeping the propagated payload
//! deterministic).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::time::Duration;

/// A caught panic payload tagged with the panicking task's index.
type PanicSlot = Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>;

/// One in-flight data-parallel operation: `n` tasks behind an atomic
/// claim counter. The `data`/`exec` pair is a type-erased pointer to the
/// submitting stack frame's task closure; it is only dereferenced for a
/// successfully claimed index, and the submitter does not return before
/// `done == n`, so the pointee outlives every dereference.
struct OpEntry {
    /// Next unclaimed task index (may overshoot `n` by one per thief).
    next: AtomicUsize,
    /// Total task count.
    n: usize,
    /// Completed task count (incremented after execution, panics included).
    done: AtomicUsize,
    /// Erased pointer to the submitter's `&dyn Fn(usize)` fat reference.
    data: *const (),
    /// Invokes the erased task closure with a claimed index.
    exec: unsafe fn(*const (), usize),
    /// First panic payload by lowest task index, if any task panicked.
    panic: PanicSlot,
}

// SAFETY: `data` is only dereferenced via `exec` under the claim/done
// protocol described above; everything else is `Sync` already.
unsafe impl Send for OpEntry {}
unsafe impl Sync for OpEntry {}

impl OpEntry {
    /// Claims and executes one task. Returns `false` when no tasks are
    /// left to claim (the op may still be executing on other threads).
    fn run_one(&self) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            return false;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (self.exec)(self.data, i) }));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().unwrap();
            match &*slot {
                Some((j, _)) if *j <= i => {}
                _ => *slot = Some((i, payload)),
            }
        }
        self.done.fetch_add(1, Ordering::Release);
        true
    }

    /// True while unclaimed tasks remain.
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// True once every task has finished executing.
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.n
    }
}

/// The global pool: a list of active ops and a worker wake-up channel.
struct Pool {
    /// Active (not yet completed) operations, oldest first.
    ops: Mutex<Vec<Arc<OpEntry>>>,
    /// Wakes workers when ops arrive and submitters when ops complete.
    cv: Condvar,
    /// Total executing threads (workers + the submitting thread).
    threads: usize,
    /// Lazily spawns the worker threads on first parallel call.
    started: Once,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Thread count requested by the environment, if any.
fn env_threads() -> Option<usize> {
    for key in ["FATPATHS_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(key) {
            if let Ok(n) = v.trim().parse::<usize>() {
                return Some(n.max(1));
            }
        }
    }
    None
}

/// Pool size used when nothing was configured explicitly.
fn default_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Initializes the global pool with `threads` executing threads if it
/// was not initialized yet, and returns the pool's actual size. The
/// first initialization (explicit or implicit) wins; later calls are
/// lookups. Benchmarks and parity tests use this to pin a size before
/// any parallel work runs.
pub fn ensure_pool(threads: usize) -> usize {
    POOL.get_or_init(|| Pool::new(threads.max(1))).threads
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::new(default_threads()))
}

/// Number of threads parallel operations may use (1 under the
/// `single-thread` feature). Does not spawn workers.
pub fn current_num_threads() -> usize {
    if cfg!(feature = "single-thread") {
        return 1;
    }
    POOL.get()
        .map(|p| p.threads)
        .unwrap_or_else(default_threads)
}

impl Pool {
    fn new(threads: usize) -> Pool {
        Pool {
            ops: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            threads,
            started: Once::new(),
        }
    }

    /// Spawns the `threads - 1` worker threads exactly once.
    fn start_workers(&'static self) {
        self.started.call_once(|| {
            for i in 1..self.threads {
                std::thread::Builder::new()
                    .name(format!("fatpaths-worker-{i}"))
                    .spawn(move || self.worker_loop())
                    .expect("failed to spawn pool worker");
            }
        });
    }

    /// Worker body: steal from the oldest op with unclaimed work, else
    /// park. Workers are daemon threads; process exit reaps them.
    fn worker_loop(&self) {
        loop {
            let op = {
                let mut ops = self.ops.lock().unwrap();
                loop {
                    if let Some(op) = ops.iter().find(|e| e.has_work()).cloned() {
                        break op;
                    }
                    ops = self
                        .cv
                        .wait_timeout(ops, Duration::from_millis(100))
                        .unwrap()
                        .0;
                }
            };
            while op.run_one() {}
            // The drained op may have been this thread's last piece of a
            // submitter's wait condition — wake it to re-check.
            self.cv.notify_all();
        }
    }

    /// Any active op with unclaimed work, for help-while-waiting.
    fn find_work(&self) -> Option<Arc<OpEntry>> {
        self.ops
            .lock()
            .unwrap()
            .iter()
            .find(|e| e.has_work())
            .cloned()
    }
}

thread_local! {
    /// Depth of [`run_sequential`] scopes on this thread.
    static SEQ_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True when parallel execution is disabled for the current call site.
fn sequential_mode() -> bool {
    cfg!(feature = "single-thread") || SEQ_DEPTH.with(|d| d.get()) > 0
}

/// Runs `f` with all parallel operations on this thread executing
/// inline, sequentially and in index order — the runtime counterpart of
/// the `single-thread` feature, scoped to one closure. Nested calls
/// stack. Used by parity tests and the bench harness to compare
/// single-threaded and pooled execution within one process.
pub fn run_sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SEQ_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SEQ_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

/// Executes `task(0..n)` to completion, in parallel when the pool has
/// more than one thread. Panics from tasks propagate to the caller
/// (lowest index wins); the operation always drains before returning.
pub(crate) fn run_indexed(n: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    if n == 1 || sequential_mode() {
        for i in 0..n {
            task(i);
        }
        return;
    }
    let pool = pool();
    if pool.threads <= 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }
    pool.start_workers();

    /// Re-fattens the erased pointer and calls the task.
    unsafe fn call(data: *const (), i: usize) {
        let task: &&(dyn Fn(usize) + Sync) = unsafe { &*(data as *const &(dyn Fn(usize) + Sync)) };
        task(i);
    }

    // The fat reference lives on this stack frame until the op drains.
    let task_ref: &(dyn Fn(usize) + Sync) = task;
    let entry = Arc::new(OpEntry {
        next: AtomicUsize::new(0),
        n,
        done: AtomicUsize::new(0),
        data: (&raw const task_ref).cast(),
        exec: call,
        panic: Mutex::new(None),
    });
    pool.ops.lock().unwrap().push(entry.clone());
    pool.cv.notify_all();

    // Submitter participates in its own op first …
    while entry.run_one() {}
    // … then helps other in-flight ops (nested or sibling) until every
    // one of its own claimed-elsewhere tasks has finished.
    while !entry.is_done() {
        if let Some(other) = pool.find_work() {
            while other.run_one() {}
            pool.cv.notify_all();
        } else {
            let ops = pool.ops.lock().unwrap();
            if !entry.is_done() {
                // Timeout backstops a missed notify; cheap at this rate.
                drop(
                    pool.cv
                        .wait_timeout(ops, Duration::from_micros(200))
                        .unwrap(),
                );
            }
        }
    }
    pool.ops.lock().unwrap().retain(|e| !Arc::ptr_eq(e, &entry));

    let poisoned = entry.panic.lock().unwrap().take();
    if let Some((_, payload)) = poisoned {
        panic::resume_unwind(payload);
    }
}

/// Splits `n_items` into contiguous chunks (about 4 per thread, for
/// stealing-friendly load balance) and runs `body(lo, hi)` over them in
/// parallel. Chunk boundaries never affect results — outputs are
/// addressed by item index — so thread count cannot change output. A
/// single item runs inline without consulting the pool.
pub(crate) fn run_chunked(n_items: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    if n_items == 0 {
        return;
    }
    let threads = if n_items == 1 || sequential_mode() {
        1
    } else {
        current_num_threads()
    };
    if threads <= 1 {
        run_indexed(1, &|_| body(0, n_items));
        return;
    }
    let chunk = n_items.div_ceil(threads * 4).max(1);
    let n_chunks = n_items.div_ceil(chunk);
    run_indexed(n_chunks, &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n_items);
        body(lo, hi);
    });
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
/// Mirrors `rayon::join`, including panic propagation (`a`'s panic wins
/// when both panic).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let fa = Mutex::new(Some(a));
    let fb = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    run_indexed(2, &|i| {
        if i == 0 {
            let f = fa.lock().unwrap().take().unwrap();
            *ra.lock().unwrap() = Some(f());
        } else {
            let f = fb.lock().unwrap().take().unwrap();
            *rb.lock().unwrap() = Some(f());
        }
    });
    (
        ra.into_inner().unwrap().unwrap(),
        rb.into_inner().unwrap().unwrap(),
    )
}

/// A job queued on a [`Scope`].
type ScopedJob<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// A spawn scope handed to the closure of [`scope`]. Spawned jobs may
/// borrow from the enclosing stack frame (`'scope`) and may spawn
/// further jobs; all of them complete before `scope` returns.
pub struct Scope<'scope> {
    jobs: Mutex<Vec<ScopedJob<'scope>>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `body` for execution before the scope ends.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.jobs.lock().unwrap().push(Box::new(body));
    }
}

/// Structured task parallelism mirroring `rayon::scope`: runs `f`, then
/// executes everything it [`Scope::spawn`]ed (in parallel, including
/// recursively spawned jobs) before returning `f`'s result.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        jobs: Mutex::new(Vec::new()),
    };
    let result = f(&s);
    loop {
        let batch = std::mem::take(&mut *s.jobs.lock().unwrap());
        if batch.is_empty() {
            break;
        }
        let batch: Vec<Mutex<Option<ScopedJob<'scope>>>> =
            batch.into_iter().map(|j| Mutex::new(Some(j))).collect();
        run_indexed(batch.len(), &|i| {
            let job = batch[i].lock().unwrap().take().unwrap();
            job(&s);
        });
    }
    result
}
