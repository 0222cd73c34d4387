//! The double-collect scan of Afek et al. (1993), with a
//! block-word-validated fast path and dirty-block adaptive retries.

use std::error::Error;
use std::fmt;

use ts_register::{RegisterArray, RegisterBackend, Stamped, WriteSummary};

use crate::view::View;

/// Error returned by [`try_scan`] when the attempt budget is exhausted
/// before a validated view was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanInterrupted {
    /// Number of collects performed before giving up.
    pub collects: usize,
}

impl fmt::Display for ScanInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scan interrupted: no successful double collect within {} collects",
            self.collects
        )
    }
}

impl Error for ScanInterrupted {}

/// How a scan call resolved: which ladder rungs it climbed and, for
/// [`helping_scan`](crate::helping_scan), whether it adopted a helped
/// view instead of validating its own.
///
/// These are the per-call inputs to the `dirty_recollects` /
/// `helped_scans` counters of `ts-core`'s `ServiceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Dirty-block retry passes performed (0 = the first collect
    /// validated, because every block word was clean around it).
    pub recollect_passes: u64,
    /// Registers re-read and patched across all retry passes — the
    /// O(dirty) work a full-recollect loop would have multiplied by
    /// the array capacity.
    pub patched_registers: u64,
    /// The view was adopted from a helper's published record rather
    /// than validated directly (only `helping_scan` sets this).
    pub helped: bool,
}

/// The adaptive scan engine: one initial collect, then dirty-block
/// retry passes that re-read only registers whose block words moved.
///
/// Shared by [`double_collect_scan`], [`try_scan`] and the helping
/// scan (`crate::help`), which interleaves board polls between passes.
///
/// # The ladder, and why each rung is linearizable
///
/// **Rung 1 (quiescent short-circuit).** The initial collect is
/// bracketed by reads of every block dirty word, one per
/// [`BLOCK_REGISTERS`](ts_register::BLOCK_REGISTERS) registers. Blocks
/// whose word pair fails [`WriteSummary::no_writes_during`] are
/// *flagged*. If none is, no store landed anywhere in the window: the
/// array was quiescent and the collect is returned after one value
/// sweep and two block-word sweeps.
///
/// **Rung 2 (dirty-block passes).** Otherwise each retry pass re-reads
/// only the stamps of registers in flagged blocks, patching entries
/// whose stamp moved, then re-reads the block words to compute the
/// next flag set. The pass windows tile: each pass reuses the previous
/// pass's block readings as its starting bracket, so no store can fall
/// between windows undetected.
///
/// The scan returns when a pass patches nothing (every flagged
/// block's registers re-confirmed their stamps) or when the fresh
/// flag set is empty (no store overlapped the window containing the
/// patches). In both cases every entry was simultaneously current at
/// a point inside the last window: unflagged blocks had no store
/// bracketing it (their words certify quiescence across the window),
/// and flagged blocks' entries are pinned by stamp equality spanning
/// it — stamps change on every store on both backends, so an equal
/// stamp pair certifies the value did not move in between. This is
/// Afek et al.'s double-collect criterion applied per block, with the
/// block words selecting which registers still need the stamp sweep.
///
/// **Arrays without scan words**
/// ([`RegisterArray::without_scan_words`]) skip rung 1 and keep every
/// block flagged: each pass re-reads every register's stamp, and the
/// scan returns on the first pass that patches nothing. That is the
/// classic double collect: every entry was read before the pass began
/// and confirmed by an equal stamp during it, so all entries were
/// current at the instant between the two sweeps.
pub(crate) struct AdaptiveScanner<'a, T, B: RegisterBackend<T>> {
    array: &'a RegisterArray<T, B>,
    entries: Vec<Stamped<T>>,
    /// Last block-word readings (the opening bracket of the next
    /// window).
    window: Vec<WriteSummary>,
    /// Blocks whose word moved across the previous window.
    flagged: Vec<usize>,
    /// Retry passes performed.
    pub passes: u64,
    /// Registers patched across all passes.
    pub patched: u64,
    validated: bool,
}

impl<'a, T, B> AdaptiveScanner<'a, T, B>
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    /// Performs the initial collect (one register sweep) and the rung-1
    /// validation; check [`is_validated`](Self::is_validated) before
    /// stepping.
    pub fn new(array: &'a RegisterArray<T, B>) -> Self {
        let (entries, window, flagged) = if array.has_scan_words() {
            let mut window = array.block_summaries();
            let entries = array.collect();
            let mut flagged = Vec::new();
            advance_window(array, &mut window, &mut flagged);
            (entries, window, flagged)
        } else {
            (
                array.collect(),
                Vec::new(),
                (0..array.block_count()).collect(),
            )
        };
        Self {
            array,
            entries,
            window,
            // Rung 1: no block word moved around the collect.
            validated: flagged.is_empty(),
            flagged,
            passes: 0,
            patched: 0,
        }
    }

    /// Whether the current entries form a validated (linearizable)
    /// view.
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Runs one dirty-block retry pass (one partial register sweep):
    /// re-reads stamps in flagged blocks, patches moved entries, then
    /// advances the block-word window.
    ///
    /// # Panics
    ///
    /// Panics if the scan already validated (callers must check
    /// [`is_validated`](Self::is_validated)).
    pub fn step_pass(&mut self) {
        assert!(!self.validated, "scan already validated");
        self.passes += 1;
        let mut patched_now = 0u64;
        for &block in &self.flagged {
            for reg in self.array.block_range(block) {
                let stamp = self.array.stamp(reg).expect("index in range");
                if stamp != self.entries[reg].stamp {
                    self.entries[reg] = self.array.read_stamped(reg).expect("index in range");
                    patched_now += 1;
                }
            }
        }
        self.patched += patched_now;
        if patched_now == 0 {
            // Every flagged block re-confirmed its stamps across the
            // window boundary; unflagged blocks were quiescent.
            self.validated = true;
            return;
        }
        if !self.array.has_scan_words() {
            return; // every block stays flagged for the next sweep
        }
        advance_window(self.array, &mut self.window, &mut self.flagged);
        // No store overlapped the window the patches were read in.
        self.validated = self.flagged.is_empty();
    }

    /// Consumes the scanner, returning the validated view.
    ///
    /// # Panics
    ///
    /// Panics if the scan has not validated.
    pub fn into_view(self) -> View<T> {
        assert!(self.validated, "scan has not validated");
        View::new(self.entries)
    }
}

/// Re-reads every block word once, in block order, replacing
/// `flagged` with the blocks whose word moved since its reading in
/// `window`, and `window` with the fresh readings (the opening bracket
/// of the next window).
fn advance_window<T, B>(
    array: &RegisterArray<T, B>,
    window: &mut [WriteSummary],
    flagged: &mut Vec<usize>,
) where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    flagged.clear();
    for (block, before) in window.iter_mut().enumerate() {
        let now = array.block_summary(block);
        if !WriteSummary::no_writes_during(*before, now) {
            flagged.push(block);
        }
        *before = now;
    }
}

/// Repeatedly collects `array` until a collect is validated, and returns
/// that view.
///
/// # Validation ladder
///
/// Each round climbs as little of this ladder as contention forces:
///
/// 1. **Quiescent short-circuit** — read the array's block dirty
///    words, collect once, re-read the block words. If
///    [`WriteSummary::no_writes_during`] holds for every block, no
///    register store executed anywhere in the window: the collect read
///    a quiescent array and is returned after *one* value sweep and two
///    block-word sweeps (one load per
///    [`BLOCK_REGISTERS`](ts_register::BLOCK_REGISTERS) registers).
///    This is the common case for quiescent and low-contention arrays
///    (and on oversubscribed hosts, where interfering writers are
///    mostly descheduled).
/// 2. **Dirty-block recollect** — otherwise, re-read only the *stamps*
///    of registers in blocks whose word moved, patching entries
///    whose stamp changed. Each retry pass costs O(blocks) one-word
///    loads plus O(registers in dirty blocks) stamp reads — not the
///    O(capacity) full sweep of the classic recollect loop — and the
///    pass windows tile, so no store escapes detection. A pass that
///    patches nothing (or whose fresh dirty set is empty) validates
///    the view; see `AdaptiveScanner` (in this module's source) for
///    the rung-by-rung linearizability argument.
///
/// Stamp equality is the classic double-collect success criterion of
/// Afek et al., applied per register: an equal stamp pair brackets a
/// window in which that register was not written, so the captured
/// value was simultaneously present with every other confirmed entry.
///
/// The loop is lock-free but not wait-free: a flood of writers can
/// starve one scanner indefinitely (each pass is cheap, but passes may
/// never stop failing). [`helping_scan`](crate::helping_scan) bounds
/// that starvation. The loop terminates whenever only finitely many
/// writes interfere — which Algorithm 4 guarantees, since each `getTS`
/// writes fewer than `m` times (Lemma 6.14).
///
/// # Example
///
/// ```
/// use ts_register::RegisterArray;
/// use ts_snapshot::double_collect_scan;
///
/// let array: RegisterArray<i32> = RegisterArray::new(2, -1);
/// let view = double_collect_scan(&array);
/// assert_eq!(view.values(), vec![-1, -1]);
/// ```
pub fn double_collect_scan<T, B>(array: &RegisterArray<T, B>) -> View<T>
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    adaptive_scan(array).0
}

/// [`double_collect_scan`] with the per-call [`ScanOutcome`] exposed:
/// how many dirty-block retry passes ran and how many registers they
/// patched. Zero passes means the first collect validated.
pub fn adaptive_scan<T, B>(array: &RegisterArray<T, B>) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    let mut scanner = AdaptiveScanner::new(array);
    while !scanner.is_validated() {
        scanner.step_pass();
    }
    let outcome = ScanOutcome {
        recollect_passes: scanner.passes,
        patched_registers: scanner.patched,
        helped: false,
    };
    (scanner.into_view(), outcome)
}

/// The textbook double collect of Afek et al., with none of the
/// adaptive ladder: full-array stamped sweeps repeated until two
/// consecutive sweeps agree on every register's stamp.
///
/// This is the **baseline** the adaptive ladder is measured against in
/// `ts-bench`'s writer-storm cells — every retry re-reads all
/// `capacity` registers, where [`adaptive_scan`] re-reads only the
/// registers of blocks whose dirty word moved. Correctness is the
/// classic criterion: stamp equality across consecutive sweeps brackets
/// a window in which no register was written, so the second sweep's
/// values were simultaneously present. Lock-free, not wait-free; use
/// [`helping_scan`](crate::helping_scan) for the bounded version.
///
/// The outcome's `recollect_passes` counts sweeps beyond the mandatory
/// two, and `patched_registers` the stamp mismatches that forced them
/// (so the row is comparable with the adaptive outcome's fields).
pub fn classic_double_collect_scan<T, B>(array: &RegisterArray<T, B>) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    let mut outcome = ScanOutcome::default();
    let mut prev = array.collect();
    loop {
        let next = array.collect();
        let moved = prev
            .iter()
            .zip(&next)
            .filter(|(a, b)| a.stamp != b.stamp)
            .count() as u64;
        if moved == 0 {
            return (View::new(next), outcome);
        }
        outcome.recollect_passes += 1;
        outcome.patched_registers += moved;
        prev = next;
    }
}

/// Like [`double_collect_scan`], but gives up after `max_collects`
/// register sweeps (the initial value sweep and each dirty-block retry
/// pass count as one sweep each).
///
/// Useful when the bounded-interference argument does not apply (e.g.
/// scanning an array written by an unbounded workload) and no help
/// board is wired up.
///
/// # Errors
///
/// Returns [`ScanInterrupted`] if no sweep validated within the budget.
///
/// # Panics
///
/// Panics if `max_collects < 2` (the stamp-validation rung needs two
/// sweeps; the quiescent rung can succeed after one, but a budget below
/// two could not guarantee *any* validation under interference).
pub fn try_scan<T, B>(
    array: &RegisterArray<T, B>,
    max_collects: usize,
) -> Result<View<T>, ScanInterrupted>
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    assert!(
        max_collects >= 2,
        "a double collect needs at least 2 sweeps"
    );
    let mut scanner = AdaptiveScanner::new(array);
    let mut done = 1usize; // the initial collect
    while !scanner.is_validated() {
        if done >= max_collects {
            return Err(ScanInterrupted {
                collects: max_collects,
            });
        }
        scanner.step_pass();
        done += 1;
    }
    Ok(scanner.into_view())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use ts_register::SpaceMeter;

    #[test]
    fn quiescent_scan_returns_current_values() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        array.write(0, 1).unwrap();
        array.write(2, 3).unwrap();
        let view = double_collect_scan(&array);
        assert_eq!(view.values(), vec![1, 0, 3]);
    }

    #[test]
    fn quiescent_scan_short_circuits_to_one_collect() {
        // The quiescent rung must validate the first sweep: a metered
        // quiescent array records exactly `capacity` reads per scan,
        // not the 2×capacity of an unconditional double collect — on a
        // one-block array and on a three-block one (64 + 64 + 2), where
        // the rung reads every block word.
        for capacity in [4usize, 130] {
            let meter = SpaceMeter::new(capacity);
            let array = RegisterArray::with_meter(capacity, 0u64, meter.clone());
            assert_eq!(array.block_count(), capacity.div_ceil(64));
            array.write(1, 9).unwrap();
            array.write(capacity - 1, 5).unwrap();
            let reads_before = meter.snapshot().total_reads();
            let (view, outcome) = adaptive_scan(&array);
            let mut expected = vec![0; capacity];
            expected[1] = 9;
            expected[capacity - 1] = 5;
            assert_eq!(view.values(), expected);
            assert_eq!(
                meter.snapshot().total_reads() - reads_before,
                capacity as u64,
                "quiescent scan must validate with the block words, not a second sweep"
            );
            assert_eq!(outcome.recollect_passes, 0);
            assert_eq!(outcome.patched_registers, 0);
            assert!(!outcome.helped);
        }
    }

    #[test]
    fn try_scan_succeeds_when_quiescent() {
        let array: RegisterArray<u64> = RegisterArray::new(2, 0);
        let view = try_scan(&array, 2).unwrap();
        assert_eq!(view.values(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least 2 sweeps")]
    fn try_scan_rejects_budget_below_two() {
        let array: RegisterArray<u64> = RegisterArray::new(1, 0);
        let _ = try_scan(&array, 1);
    }

    #[test]
    fn quiescent_scanner_validates_on_construction() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u64, meter.clone());
        array.write(2, 7).unwrap();
        let before = meter.snapshot().total_reads();
        let scanner = AdaptiveScanner::new(&array);
        assert!(scanner.is_validated(), "quiescent first collect validates");
        assert_eq!(scanner.entries[2].value, 7);
        assert_eq!(scanner.passes, 0);
        let used = meter.snapshot().total_reads() - before;
        assert_eq!(used, 3, "one sweep for the quiescent collect");
        assert_eq!(scanner.into_view().values(), vec![0, 0, 7]);
    }

    #[test]
    fn classic_scan_matches_quiescent_values_and_counts_sweeps() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        array.write(1, 6).unwrap();
        let (view, outcome) = classic_double_collect_scan(&array);
        assert_eq!(view.values(), vec![0, 6, 0]);
        assert_eq!(outcome.recollect_passes, 0);
        assert_eq!(outcome.patched_registers, 0);
    }

    #[test]
    fn classic_scan_never_returns_a_torn_view() {
        // Same pair invariant as the adaptive stress below, on the
        // baseline path: classic validation must be equally exact.
        let array = Arc::new(RegisterArray::new(2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let (view, _) = classic_double_collect_scan(&array);
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn classic view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn scan_never_returns_a_torn_view_under_concurrent_writes() {
        // A writer maintains the invariant reg[0] == reg[1] at quiescent
        // points by writing (k, k) pairs register-by-register; the scan
        // must only ever return views where both were written by the same
        // round (values equal) or a prefix thereof. Because each round
        // writes register 0 then register 1 with the same value, any
        // validated view must have been simultaneously present:
        // view[0] >= view[1] and view[0] - view[1] <= 1.
        let array = Arc::new(RegisterArray::new(2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let view = double_collect_scan(&array);
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn packed_scan_never_returns_a_torn_view_under_concurrent_writes() {
        // Same invariant as above, on the word-inlined backend: the
        // packed per-register stamps must make the double collect exact.
        let array = Arc::new(ts_register::PackedRegisterArray::<u32>::new_packed(2, 0));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u32;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let view = double_collect_scan(&array);
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn packed view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn multi_block_scan_stays_exact_across_the_block_boundary() {
        // Paired registers straddling the 64-register block boundary:
        // writes dirty two different blocks, and the scan must still
        // never tear the pair.
        let array = Arc::new(RegisterArray::<u64>::new(65, 0));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(63, k).unwrap();
                    writer_array.write(64, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..100 {
                let (view, _) = adaptive_scan(&array);
                let v = view.values();
                assert!(
                    v[63] >= v[64] && v[63] - v[64] <= 1,
                    "torn cross-block view: ({}, {}) cannot have been simultaneous",
                    v[63],
                    v[64]
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn array_without_scan_words_validates_by_a_stamp_sweep() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u64, meter.clone()).without_scan_words();
        array.write(1, 4).unwrap();
        let (view, outcome) = adaptive_scan(&array);
        assert_eq!(view.values(), vec![0, 4, 0]);
        assert_eq!(outcome.recollect_passes, 1, "the confirming stamp sweep");
        assert_eq!(outcome.patched_registers, 0);
        assert_eq!(meter.snapshot().total_reads(), 6, "collect + stamp sweep");
        let empty: RegisterArray<u64> = RegisterArray::new(0, 0).without_scan_words();
        assert!(double_collect_scan(&empty).values().is_empty());
    }

    #[test]
    fn array_without_scan_words_never_returns_a_torn_view() {
        // The cross-block pair of the test above, on an array whose
        // writes bump no block dirty word.
        let array = Arc::new(RegisterArray::<u64>::new(65, 0).without_scan_words());
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(63, k).unwrap();
                    writer_array.write(64, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..100 {
                let v = double_collect_scan(&array).values();
                assert!(
                    v[63] >= v[64] && v[63] - v[64] <= 1,
                    "torn stamp-only view: ({}, {}) cannot have been simultaneous",
                    v[63],
                    v[64]
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn interrupted_scan_reports_budget() {
        // Heavy writer keeps flipping a register; with a tiny budget the
        // scan may or may not fail, so drive it deterministically by
        // writing between the collects is not possible from outside —
        // instead just check the error type formatting.
        let err = ScanInterrupted { collects: 7 };
        assert!(err.to_string().contains("7 collects"));
    }
}
