//! Offline shim for `rayon`: the parallel-iterator API subset this
//! workspace uses, executed on an in-tree work-stealing thread pool
//! (see the internal `pool` module — `std::thread` + shared atomic chunk counters, no
//! external dependencies). Observable semantics match rayon's: `collect`
//! preserves item order, `zip` pairs by position, `map_init` reuses one
//! scratch value per worker *chunk*, and closures need the same
//! `Fn + Sync + Send` bounds — so swapping the real crate back in is a
//! manifest change only.
//!
//! Unlike rayon's lazy combinator trees, each adapter here executes
//! *eagerly*: `map` runs its closure over all items in parallel and
//! materializes the results, so a chain like `par_iter().map(f).collect()`
//! does its heavy lifting inside `map`. For the coarse-grained work in
//! this repository (a BFS, a Yen run, or a whole simulation per item)
//! the extra intermediate `Vec` is noise.
//!
//! Execution is deterministic by construction: results are written at
//! their item's index, reductions fold in item order on the calling
//! thread, and therefore every pipeline yields bit-identical output for
//! 1, 2, or N threads (the experiment parity suite pins this). Thread
//! count comes from `FATPATHS_THREADS` / `RAYON_NUM_THREADS`, or
//! [`ensure_pool`]; the `single-thread` cargo feature (or a
//! [`run_sequential`] scope) forces inline sequential execution for
//! debugging.

mod pool;

pub use pool::{current_num_threads, ensure_pool, join, run_sequential, scope, Scope};

use std::mem::ManuallyDrop;

/// A raw pointer that may cross threads. Used only for disjoint
/// per-index reads/writes inside [`par_map_vec`]-style helpers.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: every use accesses a distinct index from exactly one thread.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i`. Going through a method (rather than the
    /// raw field) makes closures capture the `Sync` wrapper, not the
    /// bare pointer, under edition-2021 disjoint capture.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: callers only pass indices within the allocation.
        unsafe { self.0.add(i) }
    }
}

/// Moves every element of `items` through `f` in parallel, preserving
/// order. If `f` panics the panic propagates after the operation drains;
/// unprocessed elements and already-produced outputs are then leaked
/// (never double-dropped).
fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: &(dyn Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let mut out: Vec<R> = Vec::with_capacity(n);
    let mut items = ManuallyDrop::new(items);
    let src = SendPtr(items.as_mut_ptr());
    let dst = SendPtr(out.as_mut_ptr());
    pool::run_chunked(n, &move |lo, hi| {
        for i in lo..hi {
            // SAFETY: each index is claimed by exactly one chunk; `read`
            // moves the element out and `write` fills preallocated space.
            unsafe { dst.at(i).write(f(src.at(i).read())) };
        }
    });
    // SAFETY: all n outputs were written above (run_chunked completed).
    unsafe { out.set_len(n) };
    // Free the source buffer without dropping its (moved-out) elements.
    drop(unsafe { Vec::from_raw_parts(items.as_mut_ptr(), 0, items.capacity()) });
    out
}

/// [`par_map_vec`] with one `init()` scratch value per chunk.
fn par_map_init_vec<T: Send, S, R: Send>(
    items: Vec<T>,
    init: &(dyn Fn() -> S + Sync),
    f: &(dyn Fn(&mut S, T) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    let mut out: Vec<R> = Vec::with_capacity(n);
    let mut items = ManuallyDrop::new(items);
    let src = SendPtr(items.as_mut_ptr());
    let dst = SendPtr(out.as_mut_ptr());
    pool::run_chunked(n, &move |lo, hi| {
        let mut scratch = init();
        for i in lo..hi {
            // SAFETY: as in `par_map_vec`.
            unsafe { dst.at(i).write(f(&mut scratch, src.at(i).read())) };
        }
    });
    // SAFETY: all n outputs were written above.
    unsafe { out.set_len(n) };
    drop(unsafe { Vec::from_raw_parts(items.as_mut_ptr(), 0, items.capacity()) });
    out
}

/// Consumes every element of `items` through `f` in parallel.
fn par_consume<T: Send>(items: Vec<T>, f: &(dyn Fn(T) + Sync)) {
    let n = items.len();
    let mut items = ManuallyDrop::new(items);
    let src = SendPtr(items.as_mut_ptr());
    pool::run_chunked(n, &move |lo, hi| {
        for i in lo..hi {
            // SAFETY: each index is moved out by exactly one chunk.
            unsafe { f(src.at(i).read()) };
        }
    });
    drop(unsafe { Vec::from_raw_parts(items.as_mut_ptr(), 0, items.capacity()) });
}

/// A parallel iterator over a materialized item list. Adapters with
/// user closures (`map`, `map_init`, `for_each`) execute in parallel on
/// the global pool; structural adapters (`enumerate`, `zip`, `filter`)
/// and reductions are sequential, order-preserving bookkeeping.
pub struct Par<T> {
    items: Vec<T>,
}

impl<T: Send> Par<T> {
    /// Index–item pairs.
    pub fn enumerate(self) -> Par<(usize, T)> {
        Par {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Pairs this iterator with another parallel iterator positionally,
    /// truncating to the shorter side.
    pub fn zip<J: IntoParVec>(self, other: J) -> Par<(T, J::Item)> {
        Par {
            items: self.items.into_iter().zip(other.into_par_vec()).collect(),
        }
    }

    /// Maps each item through `f`, in parallel, preserving order.
    pub fn map<F, R>(self, f: F) -> Par<R>
    where
        F: Fn(T) -> R + Sync + Send,
        R: Send,
    {
        Par {
            items: par_map_vec(self.items, &f),
        }
    }

    /// Maps with per-worker-chunk scratch state: `init` runs once per
    /// contiguous chunk and the scratch value is reused across that
    /// chunk's items (rayon's per-worker reuse, at chunk granularity).
    /// Results must not depend on scratch history across items.
    pub fn map_init<INIT, S, F, R>(self, init: INIT, f: F) -> Par<R>
    where
        INIT: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) -> R + Sync + Send,
        R: Send,
    {
        Par {
            items: par_map_init_vec(self.items, &init, &f),
        }
    }

    /// Keeps items satisfying `f` (sequential; predicates here are cheap
    /// compared to the parallel stages around them).
    pub fn filter<F>(self, f: F) -> Par<T>
    where
        F: Fn(&T) -> bool + Sync + Send,
    {
        Par {
            items: self.items.into_iter().filter(|t| f(t)).collect(),
        }
    }

    /// Consumes every item through `f`, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync + Send,
    {
        par_consume(self.items, &f);
    }

    /// Consumes every item through `f`, in parallel, with the per-chunk
    /// scratch of [`Par::map_init`].
    pub fn for_each_init<INIT, S, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) + Sync + Send,
    {
        par_map_init_vec(self.items, &init, &f);
    }

    /// Collects into any `FromIterator` container, in item order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items, folding in item order (deterministic for floats).
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Counts the items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Conversion used by [`Par::zip`] so both `Par<_>` values and plain
/// collections can appear on the right-hand side.
pub trait IntoParVec {
    /// Item type.
    type Item: Send;
    /// Unwraps into the materialized item list.
    fn into_par_vec(self) -> Vec<Self::Item>;
}

impl<T: Send> IntoParVec for Par<T> {
    type Item = T;
    fn into_par_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send> IntoParVec for Vec<T> {
    type Item = T;
    fn into_par_vec(self) -> Vec<T> {
        self
    }
}

/// `into_par_iter()` for owned collections and ranges.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Par<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> Par<T> {
        Par { items: self }
    }
}

macro_rules! impl_range_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> Par<$t> {
                Par { items: self.collect() }
            }
        }
    )*};
}

impl_range_par!(u32, u64, usize, i32);

/// `par_iter()` on slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Par<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> Par<&'a T> {
        Par {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> Par<&'a T> {
        Par {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<&mut [T]> {
        Par {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    //! One-stop imports mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, Par, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// All shim tests share one process-global pool; pin it wide enough
    /// to actually exercise cross-thread execution even on small CI
    /// machines (oversubscription is fine for correctness tests).
    fn wide_pool() -> usize {
        crate::ensure_pool(4)
    }

    #[test]
    fn chunks_zip_enumerate_for_each() {
        wide_pool();
        let mut a = vec![0u32; 6];
        let mut b = vec![0u32; 6];
        a.par_chunks_mut(2)
            .zip(b.par_chunks_mut(2))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                for x in ca.iter_mut().chain(cb.iter_mut()) {
                    *x = i as u32;
                }
            });
        assert_eq!(a, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(b, a);
    }

    #[test]
    fn map_init_collect_preserves_order() {
        wide_pool();
        let v: Vec<u32> = (0..10u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        let w: Vec<u32> = vec![1u32, 2, 3]
            .par_iter()
            .map_init(|| 10u32, |s, &x| x + *s)
            .collect();
        assert_eq!(w, vec![11, 12, 13]);
    }

    #[test]
    fn large_map_is_order_preserving_and_complete() {
        wide_pool();
        let n = 10_000u64;
        let v: Vec<u64> = (0..n).into_par_iter().map(|x| x * x).collect();
        assert_eq!(v.len(), n as usize);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        wide_pool();
        let work = || -> (Vec<f64>, f64) {
            let v: Vec<f64> = (0..5000u32)
                .into_par_iter()
                .map(|x| (x as f64).sqrt().sin())
                .collect();
            let s: f64 = v.par_iter().map(|&x| x * 1.000001).sum();
            (v, s)
        };
        let par = work();
        let seq = crate::run_sequential(work);
        assert_eq!(par.0, seq.0);
        assert_eq!(par.1.to_bits(), seq.1.to_bits());
    }

    #[test]
    fn join_runs_both_and_returns_results() {
        wide_pool();
        let (a, b) = crate::join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn scope_completes_all_spawns_including_nested() {
        wide_pool();
        let hits = AtomicUsize::new(0);
        crate::scope(|s| {
            for _ in 0..8 {
                s.spawn(|s| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        wide_pool();
        let totals: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|i| (0..200u64).into_par_iter().map(move |j| i * j).sum())
            .collect();
        for (i, &t) in totals.iter().enumerate() {
            assert_eq!(t, (i as u64) * (0..200).sum::<u64>());
        }
    }

    #[test]
    fn poisoned_job_propagates_panic_instead_of_deadlocking() {
        wide_pool();
        let result = panic::catch_unwind(|| {
            let _: Vec<u32> = (0..100u32)
                .into_par_iter()
                .map(|i| {
                    if i == 37 {
                        panic!("poisoned job {i}");
                    }
                    i
                })
                .collect();
        });
        let payload = result.expect_err("panic must propagate to the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned job"), "payload lost: {msg:?}");
        // The pool must stay usable after a poisoned op.
        let v: Vec<u32> = (0..50u32).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v[49], 50);
    }

    #[test]
    fn join_propagates_first_panic() {
        wide_pool();
        let result = panic::catch_unwind(|| {
            crate::join(|| panic!("left side"), || 1);
        });
        assert!(result.is_err());
    }

    #[test]
    fn run_sequential_is_scoped_and_reentrant() {
        wide_pool();
        let out = crate::run_sequential(|| {
            crate::run_sequential(|| (0..10u32).into_par_iter().map(|x| x).count())
        });
        assert_eq!(out, 10);
        // Parallel mode restored afterwards (no panic, correct result).
        let v: Vec<u32> = (0..10u32).into_par_iter().map(|x| x).collect();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn filter_and_sum_match_std() {
        wide_pool();
        let s: u64 = (0..1000u64)
            .into_par_iter()
            .filter(|x| x % 3 == 0)
            .map(|x| x * 2)
            .sum();
        let expect: u64 = (0..1000u64).filter(|x| x % 3 == 0).map(|x| x * 2).sum();
        assert_eq!(s, expect);
    }
}
