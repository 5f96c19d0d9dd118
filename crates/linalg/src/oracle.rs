//! The test-only reference oracle: one scoped switch that routes the
//! kernels and the cluster's neighbor queries to their naive twins.
//!
//! While [`enabled`] is true, every [`kernels`](crate::kernels) primitive
//! delegates to its scalar twin in `kernels::reference`, and the
//! `bolt-sim` cluster's five neighbor-query paths scan the whole VM arena
//! in ascending-id order with the aggregate cache and the shared sweep
//! memo bypassed. A differential test runs a workload once normally and
//! once inside `oracle::reference`, and demands byte-equal output.
//!
//! The switch exists only under the `oracle` cargo feature, which only
//! dev-dependencies enable; without it [`enabled`] is a `const fn`
//! returning `false` and every check folds away. The switch is
//! thread-local, so concurrent tests never see each other's setting, and
//! work a scope fans out to other threads runs optimised there.

#[cfg(feature = "oracle")]
thread_local! {
    static REFERENCE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while the calling thread is inside [`reference`].
#[cfg(feature = "oracle")]
#[inline]
pub fn enabled() -> bool {
    REFERENCE.with(|r| r.get())
}

/// Always false: without the `oracle` feature there is no switch.
#[cfg(not(feature = "oracle"))]
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// Runs `f` with every kernel and cluster query on the calling thread
/// routed to its reference twin, restoring the previous setting afterwards
/// (also when `f` panics).
#[cfg(feature = "oracle")]
pub fn reference<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            // `try_with`: a drop must not panic, even during thread exit.
            let _ = REFERENCE.try_with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(REFERENCE.with(|r| r.replace(true)));
    f()
}

#[cfg(all(test, feature = "oracle"))]
mod tests {
    use super::*;

    #[test]
    fn reference_is_scoped_nested_and_thread_local() {
        reference(|| {
            reference(|| assert!(enabled()));
            assert!(enabled(), "an inner scope restores, not clears");
            std::thread::scope(|s| s.spawn(|| assert!(!enabled())).join().unwrap());
        });
        let _ = std::panic::catch_unwind(|| reference(|| panic!("unwind")));
        assert!(!enabled(), "a panic inside the scope restores the switch");
    }
}
