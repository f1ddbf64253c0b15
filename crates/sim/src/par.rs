//! Parallel dispatch for scenario sweeps.
//!
//! The simulation code is free of global state — every run owns its
//! RNG — so a parameter sweep is embarrassingly
//! parallel *provided* the results do not depend on which thread ran
//! which cell. [`par_map`] guarantees exactly that: cells are handed to
//! workers through a shared atomic cursor (work-stealing-style chunked
//! dispatch, so a slow cell does not stall the grid), every result is
//! keyed by its cell index, and the output vector is assembled in input
//! order. Combined with per-cell seeding ([`crate::derive_seed`]), a
//! parallel sweep is **bit-identical** to a serial one.
//!
//! ```
//! use rbsim::par::par_map;
//!
//! let cells = vec![1u64, 2, 3, 4, 5];
//! let serial = par_map(&cells, 1, |idx, c| (idx as u64) * 100 + c * c);
//! let parallel = par_map(&cells, 4, |idx, c| (idx as u64) * 100 + c * c);
//! assert_eq!(serial, parallel); // order and values independent of threads
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available to a sweep (≥ 1).
///
/// Falls back to 1 when the platform cannot report its parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` on up to `threads` OS threads
/// and returns the results **in input order**.
///
/// `f` receives `(index, &item)`; it must derive any randomness from
/// those alone (e.g. via [`crate::derive_seed`]) for parallel runs to
/// reproduce serial ones exactly. Work is distributed dynamically:
/// each worker repeatedly claims the next unclaimed chunk of indices
/// from an atomic cursor, so heterogeneous cell costs balance without
/// a static partition.
///
/// With `threads <= 1` (or a single item) the map runs inline on the
/// calling thread — the serial reference path.
///
/// # Panics
/// Propagates a panic from any worker (the sweep is aborted).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Chunks small enough to balance uneven cells, large enough to keep
    // cursor contention negligible.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    let claimed = (start..end).zip(&items[start..end]);
                    local.extend(claimed.map(|(i, item)| (i, f(i, item))));
                }
                local
            }));
        }
        for h in handles {
            buckets.push(h.join().expect("sweep worker panicked"));
        }
    });

    // Reassemble in input order: every index was claimed exactly once.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let got = par_map(&items, 4, |idx, &x| {
            assert_eq!(idx, x);
            x * 3
        });
        assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..251).collect();
        let f = |idx: usize, x: &u64| (idx as u64).wrapping_mul(0x9E37).wrapping_add(x * x);
        assert_eq!(par_map(&items, 1, f), par_map(&items, 8, f));
        assert_eq!(par_map(&items, 3, f), par_map(&items, 8, f));
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 64, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let items: Vec<usize> = (0..257).collect();
        let hits: Vec<AtomicU32> = (0..items.len()).map(|_| AtomicU32::new(0)).collect();
        par_map(&items, 4, |idx, _| {
            hits[idx].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        par_map(&items, 4, |_, &x| {
            assert!(x != 13, "boom");
            x
        });
    }

    #[test]
    fn at_least_one_thread_reported() {
        assert!(available_threads() >= 1);
    }
}
