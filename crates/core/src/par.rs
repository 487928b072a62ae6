//! Deterministic data-parallel execution for the pipeline's hot loops.
//!
//! The three quadratic stages of [`crate::Rock::reconstruct`] — per-vtable
//! SLM training, per-child candidate-edge scoring, per-family
//! arborescences — are embarrassingly parallel: no item's result depends
//! on another's.
//! [`par_map`] fans a slice out over scoped OS threads with a
//! work-stealing index counter and returns results **in input order**, so
//! callers can merge them exactly as the serial loop would have and the
//! reconstruction stays bit-identical whatever [`Parallelism`] is chosen.
//! It is the workspace's one fan-out: the supervisor's store reads and
//! writes its sub-artifact files through it too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rock_trace::panic_message;

/// How many worker threads the pipeline's hot loops may use.
///
/// Every setting produces the *same* [`crate::Reconstruction`]; this knob
/// trades wall-clock only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// Plain serial loops on the calling thread (no worker threads).
    Serial,
    /// Exactly `n` worker threads (`0` is clamped to `1`).
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to.
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }
}

/// Maps `f` over `items`, possibly on several threads, returning results
/// in input order.
///
/// Work is distributed by an atomic claim counter, so workers steal the
/// next unclaimed index rather than being assigned fixed chunks; each
/// result lands in its item's slot regardless of which worker computed
/// it. The calling thread is worker zero — `Threads(n)` spawns only
/// `n - 1` OS threads — and with one thread (or one item) this
/// degenerates to a plain serial loop with no thread spawned at all.
pub fn par_map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = parallelism.thread_count().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        // Each index is claimed by exactly one worker, so the lock is
        // never contended; it only transports the result.
        *slots[i].lock().expect("result slot poisoned") = Some(f(item));
    };
    std::thread::scope(|scope| {
        for _ in 0..threads - 1 {
            // The closure captures only shared references, so it is
            // `Copy`: each worker gets its own copy of the same loop.
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner().expect("result slot poisoned").expect("every claimed slot is filled")
        })
        .collect()
}

/// Like [`par_map`], but each item runs inside `catch_unwind`: a
/// panicking item yields `Err(message)` in its slot instead of tearing
/// down the worker (and, through scoped-thread propagation, the whole
/// pipeline). Result order still follows input order, so merges stay
/// deterministic whatever the thread count.
pub(crate) fn par_map_catch<T, R, F>(
    parallelism: Parallelism,
    items: &[T],
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map(parallelism, items, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| panic_message(&*payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Threads(4).thread_count(), 4);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map(Parallelism::Serial, &items, |&x| x * x);
        let parallel = par_map(Parallelism::Threads(7), &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[999], 999 * 999);
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<i32> = par_map(Parallelism::Threads(8), &[], |&x: &i32| x);
        assert!(none.is_empty());
        assert_eq!(par_map(Parallelism::Auto, &[5], |&x| x + 1), vec![6]);
    }

    #[test]
    fn catch_contains_panics_in_order() {
        let items: Vec<u32> = (0..100).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let out = par_map_catch(par, &items, |&x| {
                if x % 10 == 3 {
                    panic!("boom {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 100);
            for (i, r) in out.iter().enumerate() {
                if i % 10 == 3 {
                    assert_eq!(*r, Err(format!("boom {i}")));
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2));
                }
            }
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items slow so late items finish first on other
        // threads; order must still follow the input.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(Parallelism::Threads(4), &items, |&i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, items);
    }
}
