//! Deterministic parallel sweep infrastructure.
//!
//! Every harness in this crate (the §3.4 controlled experiment, the §4
//! user study, the §6 isolation sweep, and the Fig. 10 sensitivity sweeps)
//! is a loop of independent, seed-derived work items. This module gives
//! them one shared fan-out primitive, [`sweep`], with a determinism model
//! that makes results *byte-identical for every thread count*:
//!
//! 1. Work item `i` never touches a shared RNG. Instead it derives its own
//!    `StdRng` seed via [`split_seed`]`(base_seed, i)` — a splitmix64 hash
//!    of the configured seed and the item index.
//! 2. [`sweep`] always produces results in item order, regardless of which
//!    worker finished first.
//!
//! Together these mean `Parallelism::Serial`, `Threads(2)` and
//! `Threads(8)` run the exact same per-item RNG streams and assemble the
//! exact same output vector; threading changes wall-clock time only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a harness fans its independent work items out over threads.
///
/// The choice never affects results (see the module docs), only speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every item on the calling thread.
    Serial,
    /// Use exactly this many worker threads (clamped to at least 1).
    Threads(usize),
    /// Use one worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// Number of worker threads to launch for `items` work items.
    pub fn workers(self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        cap.min(items.max(1))
    }
}

/// Derives an independent RNG seed for work item `index` of a sweep keyed
/// by `seed` (splitmix64 finalizer over both).
///
/// Adjacent indices yield statistically unrelated streams, and the
/// derivation depends only on `(seed, index)` — not on scheduling — which
/// is what makes parallel sweeps reproducible.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies `f` to every item of `items`, fanning out over scoped worker
/// threads per `parallelism`, and returns the results **in item order**.
///
/// `f` receives `(index, &item)`; it must derive any randomness it needs
/// from the index (see [`split_seed`]), never from shared mutable state.
/// A panic in any worker propagates to the caller.
pub fn sweep<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.workers(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every sweep slot is filled before scope exit")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_varies_by_index_and_seed() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, split_seed(42, 0));
    }

    #[test]
    fn sweep_preserves_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = sweep(&items, Parallelism::Serial, |i, &x| (i as u64) * 1000 + x);
        for threads in [1, 2, 3, 8, 64] {
            let parallel = sweep(&items, Parallelism::Threads(threads), |i, &x| {
                (i as u64) * 1000 + x
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(
            serial,
            sweep(&items, Parallelism::Auto, |i, &x| (i as u64) * 1000 + x)
        );
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        let none: Vec<u32> = sweep(&[], Parallelism::Auto, |_, &x: &u32| x);
        assert!(none.is_empty());
        let one = sweep(&[9u32], Parallelism::Threads(8), |i, &x| x + i as u32);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn workers_respects_mode() {
        assert_eq!(Parallelism::Serial.workers(100), 1);
        assert_eq!(Parallelism::Threads(4).workers(100), 4);
        assert_eq!(Parallelism::Threads(0).workers(100), 1);
        assert_eq!(Parallelism::Threads(16).workers(3), 3);
        assert!(Parallelism::Auto.workers(100) >= 1);
    }
}
