//! Minimal offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Exposes the one API the workspace uses: a non-poisoning `Mutex` whose
//! `lock()` returns the guard directly. Poisoned std locks are recovered
//! transparently (panicking while holding a lock is already a test
//! failure; the data is still consistent for the accounting these locks
//! protect).

use std::sync::MutexGuard;

/// Mutual exclusion lock whose `lock()` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }
}
