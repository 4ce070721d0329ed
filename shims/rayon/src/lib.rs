//! Std-only offline shim for the subset of `rayon` this workspace uses.
//!
//! Semantics differ from upstream in one deliberate way: adapters are
//! **eager** — `map`/`flat_map` run their closure across scoped threads
//! immediately and materialize the results, instead of building a lazy
//! plan executed at `collect`.  Every workspace call site chains pure
//! closures straight into `collect`, so the observable behavior (results
//! in input order, work spread across cores) is identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `use rayon::prelude::*` compatibility.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

/// Upper bound on worker threads: `SBS_THREADS` when set to a positive
/// integer (CI pins worker counts with it), otherwise one per logical
/// CPU; at least one either way.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("SBS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// Worker count for `items` units of work: capped by [`max_threads`],
/// at least one.
fn workers(items: usize) -> usize {
    max_threads().min(items).max(1)
}

/// Runs `f(0..threads)` across that many scoped threads and returns the
/// results indexed by worker id (rayon's `broadcast`, with an explicit
/// thread count).  `threads` is clamped to at least one; with one
/// thread `f(0)` runs inline.
pub fn broadcast<R: Send>(threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = threads.max(1);
    if threads == 1 {
        return vec![f(0)];
    }
    let slots: Vec<Mutex<Option<R>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (id, slot) in slots.iter().enumerate() {
            let f = &f;
            scope.spawn(move || {
                *slot.lock().expect("poisoned") = Some(f(id));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned")
                .expect("worker filled slot")
        })
        .collect()
}

/// Applies `f` to every item across scoped threads, preserving order.
fn par_apply<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let n = items.len();
    let threads = workers(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items move into per-index slots; a shared cursor hands out work so
    // uneven item costs (common: one month simulates slower than another)
    // still balance.
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let output: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = input[i]
                    .lock()
                    .expect("poisoned")
                    .take()
                    .expect("taken once");
                let out = f(item);
                *output[i].lock().expect("poisoned") = Some(out);
            });
        }
    });
    output
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned")
                .expect("worker filled slot")
        })
        .collect()
}

/// A materialized "parallel iterator": adapters fan out eagerly.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map, preserving input order.
    pub fn map<U: Send>(self, f: impl Fn(T) -> U + Sync) -> ParIter<U> {
        ParIter {
            items: par_apply(self.items, f),
        }
    }

    /// Parallel map-then-flatten where `f` yields another parallel
    /// iterator (rayon's `flat_map`).
    pub fn flat_map<PI>(self, f: impl Fn(T) -> PI + Sync) -> ParIter<PI::Item>
    where
        PI: IntoParallelIterator + Send,
        PI::Item: Send,
    {
        let nested = par_apply(self.items, |t| f(t).into_par_iter().items);
        ParIter {
            items: nested.into_iter().flatten().collect(),
        }
    }

    /// Parallel map-then-flatten where `f` yields a serial iterator
    /// (rayon's `flat_map_iter`).
    pub fn flat_map_iter<I>(self, f: impl Fn(T) -> I + Sync) -> ParIter<I::Item>
    where
        I: IntoIterator + Send,
        I::Item: Send,
    {
        let nested = par_apply(self.items, |t| f(t).into_iter().collect::<Vec<_>>());
        ParIter {
            items: nested.into_iter().flatten().collect(),
        }
    }

    /// Parallel filter, preserving input order.
    pub fn filter(self, f: impl Fn(&T) -> bool + Sync) -> ParIter<T> {
        let items = par_apply(self.items, |t| if f(&t) { Some(t) } else { None });
        ParIter {
            items: items.into_iter().flatten().collect(),
        }
    }

    /// Materializes into any `FromIterator` collection, in input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// By-value conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    /// Item type.
    type Item;
    /// Converts into the shim's parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T, const N: usize> IntoParallelIterator for [T; N] {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

impl<T> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// By-reference conversion (`xs.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<i64> = (0..100usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| i as i64 * 2)
            .collect();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn nested_flat_map_flattens_in_order() {
        let months = [1u32, 2, 3];
        let out: Vec<(u32, u32)> = months
            .par_iter()
            .flat_map(|&m| vec![10u32, 20].into_par_iter().map(move |l| (m, l)))
            .collect();
        assert_eq!(
            out,
            vec![(1, 10), (1, 20), (2, 10), (2, 20), (3, 10), (3, 20)]
        );
    }

    #[test]
    fn flat_map_iter_accepts_serial_iterators() {
        let out: Vec<u32> = vec![1u32, 2]
            .into_par_iter()
            .flat_map_iter(|x| (0..x).map(move |y| x * 10 + y))
            .collect();
        assert_eq!(out, vec![10, 20, 21]);
    }

    #[test]
    fn broadcast_preserves_worker_order() {
        let out = crate::broadcast(4, |id| id * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
        let one = crate::broadcast(0, |id| id + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn work_actually_fans_out() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        // On a multi-core runner (without an SBS_THREADS=1 pin) more
        // than one worker participates.
        if crate::max_threads() > 1 {
            assert!(seen.lock().unwrap().len() > 1);
        }
    }
}
