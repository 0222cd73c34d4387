//! Wait-free MWMR atomic register for arbitrary `T: Clone`.

use std::fmt;
use std::sync::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Atomic, Owned};

use crate::traits::Register;

/// A linearizable multi-writer multi-reader register holding a `T`.
///
/// Reads and writes are wait-free. Internally the register is an atomic
/// pointer to an immutable heap cell; a write swaps the pointer and retires
/// the old cell through epoch-based reclamation, a read clones the value
/// behind the current pointer. Writes linearize at the pointer swap and
/// reads at the pointer load.
///
/// This is the executable stand-in for the paper's base object: registers
/// `r_1, ..., r_m` whose contents the model allows to be unbounded. Through
/// [`StampedRegister`](crate::StampedRegister) it holds the contents that
/// outgrow a word: the growable timestamp's `⟨seq, rnd⟩` sequences and
/// `ts-snapshot`'s help records and snapshot cells. Values are cloned out
/// on read, so `T` is typically either small or cheaply clonable (e.g.
/// contains an `Arc`).
///
/// # Example
///
/// ```
/// use ts_register::AtomicRegister;
///
/// let reg = AtomicRegister::new(String::from("initial"));
/// reg.write(String::from("updated"));
/// assert_eq!(reg.read(), "updated");
/// ```
pub struct AtomicRegister<T> {
    cell: Atomic<T>,
}

impl<T: Clone + Send + Sync> AtomicRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        Self {
            cell: Atomic::new(initial),
        }
    }

    /// Returns a clone of the current value.
    pub fn read(&self) -> T {
        let guard = epoch::pin();
        let shared = self.cell.load(Ordering::Acquire, &guard);
        // SAFETY: the cell is never null (constructed with a value and
        // writes always install a value) and the epoch guard keeps the
        // pointee alive for the duration of the clone.
        unsafe { shared.deref().clone() }
    }

    /// Applies `f` to the current value without cloning it out.
    ///
    /// The reference passed to `f` is only valid for the duration of the
    /// call; this is the zero-copy variant of [`AtomicRegister::read`].
    pub fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let guard = epoch::pin();
        let shared = self.cell.load(Ordering::Acquire, &guard);
        // SAFETY: as in `read`.
        unsafe { f(shared.deref()) }
    }

    /// Replaces the current value with `value`.
    pub fn write(&self, value: T) {
        let guard = epoch::pin();
        let old = self.cell.swap(Owned::new(value), Ordering::AcqRel, &guard);
        // SAFETY: `old` was produced by `Atomic::new`/`Owned::new` and is
        // now unreachable from the register; readers that still hold it
        // are protected by their own epoch guards until they unpin.
        unsafe {
            guard.defer_destroy(old);
        }
    }
}

impl<T: Clone + Send + Sync> Register<T> for AtomicRegister<T> {
    fn read(&self) -> T {
        AtomicRegister::read(self)
    }

    fn write(&self, value: T) {
        AtomicRegister::write(self, value)
    }
}

impl<T: Clone + Send + Sync + Default> Default for AtomicRegister<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Clone + Send + Sync + fmt::Debug> fmt::Debug for AtomicRegister<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.read_with(|v| f.debug_tuple("AtomicRegister").field(v).finish())
    }
}

impl<T> Drop for AtomicRegister<T> {
    fn drop(&mut self) {
        let guard = epoch::pin();
        let shared = self
            .cell
            .swap(epoch::Shared::null(), Ordering::AcqRel, &guard);
        if !shared.is_null() {
            // SAFETY: we hold `&mut self`, so no concurrent reader can
            // observe the old pointer after this swap; deferring keeps any
            // still-pinned historical readers safe.
            unsafe {
                guard.defer_destroy(shared);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_returns_initial_value() {
        let reg = AtomicRegister::new(7u64);
        assert_eq!(reg.read(), 7);
    }

    #[test]
    fn write_then_read_round_trips() {
        let reg = AtomicRegister::new(vec![0u8]);
        reg.write(vec![1, 2, 3]);
        assert_eq!(reg.read(), vec![1, 2, 3]);
    }

    #[test]
    fn read_with_avoids_clone() {
        let reg = AtomicRegister::new(String::from("abc"));
        let len = reg.read_with(|s| s.len());
        assert_eq!(len, 3);
    }

    #[test]
    fn debug_shows_value() {
        let reg = AtomicRegister::new(42u32);
        assert_eq!(format!("{reg:?}"), "AtomicRegister(42)");
    }

    #[test]
    fn default_uses_type_default() {
        let reg: AtomicRegister<u64> = AtomicRegister::default();
        assert_eq!(reg.read(), 0);
    }

    #[test]
    fn concurrent_writers_leave_one_of_the_written_values() {
        let reg = Arc::new(AtomicRegister::new(0usize));
        let threads = 8;
        let writes = 100;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 0..writes {
                        reg.write(t * writes + i + 1);
                    }
                });
            }
        })
        .unwrap();
        let last = reg.read();
        assert!(last >= 1 && last <= threads * writes);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_values() {
        // Write pairs (x, x); readers must never see (x, y) with x != y.
        let reg = Arc::new(AtomicRegister::new((0u64, 0u64)));
        crossbeam::scope(|s| {
            let writer = Arc::clone(&reg);
            s.spawn(move |_| {
                for i in 1..=10_000u64 {
                    writer.write((i, i));
                }
            });
            for _ in 0..4 {
                let reader = Arc::clone(&reg);
                s.spawn(move |_| {
                    for _ in 0..10_000 {
                        let (a, b) = reader.read();
                        assert_eq!(a, b, "torn read");
                    }
                });
            }
        })
        .unwrap();
    }

    #[test]
    fn values_are_reclaimed_without_leaking() {
        // Smoke test: dropping the register after many writes must not
        // double-free (exercised under the default allocator; a crash or
        // MIRI failure would flag unsound reclamation).
        let reg = AtomicRegister::new(Arc::new(0u64));
        for i in 0..1000 {
            reg.write(Arc::new(i));
        }
        drop(reg);
    }

    #[test]
    fn send_sync_bounds_hold() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicRegister<Vec<u64>>>();
    }
}
