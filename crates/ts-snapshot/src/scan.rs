//! The double-collect scan of Afek et al. (1993), validated by the
//! registers' own write stamps.

use ts_register::{RegisterArray, RegisterBackend};

use crate::view::View;

/// What one [`adaptive_scan`] call cost beyond its first collect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Stamp sweeps performed after the first collect. A quiescent
    /// array needs exactly one, the sweep that confirms the collect;
    /// each further sweep means the previous one patched an entry.
    pub recollect_passes: u64,
}

/// Scans `array`: returns a view whose entries were all current at one
/// instant, and what the scan cost.
///
/// The scan collects once, then repeats a *stamp sweep*: it re-reads
/// every register's stamp, and where a stamp moved it re-reads that
/// register and patches the entry. It returns after the first sweep
/// that patches nothing.
///
/// # Why the view is linearizable
///
/// Every entry of the returned view was read before the last sweep
/// began, and that sweep then read the same stamp from its register.
/// Stamps change on every store, on both backends, so an equal stamp
/// pair proves the register was not written between the two reads.
/// Hence every entry was still current at the instant the last sweep
/// began. This is the double-collect criterion of Afek et al., with the
/// second collect reduced to stamps and the failed entries patched in
/// place instead of recollected.
///
/// The loop is lock-free but not wait-free: writers that never stop
/// can keep every sweep patching. It terminates whenever only finitely
/// many writes interfere. Algorithm 4 guarantees that for its own line
/// 13 scan (each `getTS` writes fewer than `m` times, Lemma 6.14), and
/// `ts-core` runs that scan over plain words without this crate.
///
/// # Example
///
/// ```
/// use ts_register::RegisterArray;
/// use ts_snapshot::adaptive_scan;
///
/// let array: RegisterArray<i32> = RegisterArray::new(2, -1);
/// let (view, outcome) = adaptive_scan(&array);
/// assert_eq!(view.values(), vec![-1, -1]);
/// assert_eq!(outcome.recollect_passes, 1, "one confirming stamp sweep");
/// ```
pub fn adaptive_scan<T, B>(array: &RegisterArray<T, B>) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    let mut entries = array.collect();
    let mut outcome = ScanOutcome::default();
    loop {
        outcome.recollect_passes += 1;
        let mut patched = false;
        for (index, entry) in entries.iter_mut().enumerate() {
            if array.stamp(index).expect("index in range") != entry.stamp {
                *entry = array.read_stamped(index).expect("index in range");
                patched = true;
            }
        }
        if !patched {
            return (View::new(entries), outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use ts_register::{PackedBackend, SpaceMeter};

    #[test]
    fn quiescent_scan_returns_current_values() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        array.write(0, 1).unwrap();
        array.write(2, 3).unwrap();
        assert_eq!(adaptive_scan(&array).0.values(), vec![1, 0, 3]);
    }

    #[test]
    fn quiescent_scan_costs_one_collect_and_one_stamp_sweep() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u64, meter.clone());
        array.write(1, 4).unwrap();
        let (view, outcome) = adaptive_scan(&array);
        assert_eq!(view.values(), vec![0, 4, 0]);
        assert_eq!(outcome.recollect_passes, 1, "the confirming stamp sweep");
        assert_eq!(meter.snapshot().total_reads(), 6, "collect + stamp sweep");
        let empty: RegisterArray<u64> = RegisterArray::new(0, 0);
        assert!(adaptive_scan(&empty).0.values().is_empty());
    }

    /// A writer keeps `reg[lo] == reg[hi]` at quiescent points by
    /// writing `(k, k)` pairs, `lo` first. A view in which both entries
    /// were current at one instant has `view[lo] - view[hi]` in `{0, 1}`.
    fn scans_never_tear_a_pair<B: RegisterBackend<u32>>(capacity: usize, lo: usize, hi: usize) {
        let array: RegisterArray<u32, B> = RegisterArray::with_backend(capacity, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 1u32;
                while !stop.load(Ordering::Relaxed) {
                    array.write(lo, k).unwrap();
                    array.write(hi, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let v = adaptive_scan(&array).0.values();
                assert!(
                    v[lo] >= v[hi] && v[lo] - v[hi] <= 1,
                    "torn view: ({}, {}) cannot have been simultaneous",
                    v[lo],
                    v[hi]
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn scan_never_returns_a_torn_view_under_concurrent_writes() {
        scans_never_tear_a_pair::<ts_register::EpochBackend>(2, 0, 1);
    }

    #[test]
    fn packed_scan_never_returns_a_torn_view_under_concurrent_writes() {
        scans_never_tear_a_pair::<PackedBackend>(2, 0, 1);
    }

    #[test]
    fn wide_array_scan_never_tears_a_pair_far_apart() {
        scans_never_tear_a_pair::<PackedBackend>(65, 63, 64);
    }
}
