//! Fixed-capacity arrays of registers with whole-array collects.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend};
use crate::error::CapacityError;
use crate::meter::SpaceMeter;
use crate::packed::Packable;
use crate::pad::CachePadded;
use crate::stamped::{Stamp, Stamped};
use crate::traits::Register;

/// Snapshot of one of a [`RegisterArray`]'s block dirty words.
///
/// The array keeps one `AtomicU64` per block of [`BLOCK_REGISTERS`]
/// registers, packing two 32-bit counts: writes to the block **begun**
/// (high half, bumped immediately before the register store) and
/// writes **completed** (low half, bumped immediately after). Two reads
/// of every block word bracketing a collect let a reader prove the
/// collect saw a quiescent array — see
/// [`WriteSummary::no_writes_during`] — which is what lets the
/// `ts-snapshot` scan skip its second collect in the uncontended case.
///
/// A *single* generation counter could not do this soundly: it detects
/// writes that completed inside the window but not writes *in flight*
/// across it, and an in-flight store landing mid-collect can tear the
/// view even though the generation never moved. Counting begun and
/// completed separately closes that hole: if every write begun by the
/// end of the window had already completed before its start, no store
/// landed inside it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    raw: u64,
}

impl WriteSummary {
    /// Writes begun, mod 2³² (bumped before each register store).
    pub fn begun(self) -> u32 {
        (self.raw >> 32) as u32
    }

    /// Writes completed, mod 2³² (bumped after each register store).
    pub fn completed(self) -> u32 {
        self.raw as u32
    }

    /// The block's write generation: total completed writes, mod 2³².
    /// Never decreases (modulo the 32-bit wrap).
    pub fn generation(self) -> u32 {
        self.completed()
    }

    /// Whether **no register store executed** between the moment
    /// `start` was read and the moment `end` was read: every write
    /// begun by `end` had already completed before `start`.
    ///
    /// Since `completed <= begun` at all times, the single equality
    /// pins all four counts: nothing began, completed, or was in flight
    /// inside the window. A collect bracketed by such a pair on every
    /// block therefore read a quiescent array and is trivially
    /// linearizable.
    ///
    /// Wrap caveat (same class as the packed stamp wrap): the counts
    /// are 32-bit, so the check could be fooled only by ~2³² write
    /// *begins* landing between the two word reads — unreachable in
    /// any real schedule. Both halves stay exact mod 2³² across wraps:
    /// the begun bump wraps off the top of the word, and the writer
    /// that wraps the completed half immediately cancels the carry it
    /// pushed into `begun` (transiently inflating `begun` by one —
    /// the safe, false-non-quiescence direction).
    pub fn no_writes_during(start: WriteSummary, end: WriteSummary) -> bool {
        start.completed() == end.begun()
    }
}

/// One `begun` tick in a packed block word (high half).
const SUMMARY_BEGUN_ONE: u64 = 1 << 32;

/// Registers covered by one block dirty word (see
/// [`RegisterArray::block_summary`]): a retrying scanner narrows its
/// recollect to the registers of blocks whose dirty word moved, so the
/// block size trades recollect precision (smaller blocks) against
/// block-word sweep length (larger blocks).
/// 64 keeps a 4096-register array's dirty sweep at 64 one-word loads.
pub const BLOCK_REGISTERS: usize = 64;

/// Bumps the `begun` half of a block word (immediately before a
/// register store). The bump wraps off the top of the word cleanly.
fn bump_begun(word: &AtomicU64) {
    word.fetch_add(SUMMARY_BEGUN_ONE, Ordering::SeqCst);
}

/// Bumps the `completed` half of a block word (immediately after a
/// register store), cancelling the carry when the low half wraps —
/// see the comment in [`RegisterArray::write`].
fn bump_completed(word: &AtomicU64) {
    let prev = word.fetch_add(1, Ordering::SeqCst);
    if prev as u32 == u32::MAX {
        word.fetch_sub(SUMMARY_BEGUN_ONE, Ordering::SeqCst);
    }
}

/// A fixed array `R[0..m)` of stamped atomic registers with optional
/// space metering, generic over the storage [`RegisterBackend`].
///
/// This is the paper's shared register array: `m` multi-writer
/// multi-reader registers, all initialized to the same value (the paper's
/// `⊥`). The array exposes indexed `read`/`write` plus a `collect` (one
/// read of each register in index order), the building block of the
/// double-collect scan.
///
/// # Memory layout and the block dirty words
///
/// Two contention-aware features live at the array level (see the
/// "Hot paths & memory layout" section of `ARCHITECTURE.md`):
///
/// - registers are laid out **one per cache line** ([`CachePadded`]),
///   since the paper's algorithms give each register its own writer;
/// - every write brackets its register store with bumps of its block's
///   **dirty word** (one padded `AtomicU64` per [`BLOCK_REGISTERS`]
///   registers), so readers can prove "nothing changed while I
///   collected" from one load of each block word before and after —
///   see [`WriteSummary`] and [`RegisterArray::block_summary`]. The
///   `ts-snapshot` scan uses this to skip its second collect whenever
///   the array is quiescent, and to re-read only moved blocks when not.
///
/// The block words (the *scan words*) are shared by every writer of a
/// block, so each write pays two `SeqCst` RMWs on one contended cache
/// line for them. An array whose writes are hot and whose scans are
/// rare drops them with
/// [`without_scan_words`](RegisterArray::without_scan_words): its
/// writes then touch only the written register, and scans of it fall
/// back to stamp-validated double collects.
///
/// The default backend is [`EpochBackend`] (values of any size); arrays
/// of small [`Packable`] values can opt into the word-inlined
/// [`PackedBackend`] via [`RegisterArray::new_packed`] (or the
/// [`PackedRegisterArray`] alias), trading away unbounded contents for
/// allocation-free, pin-free operations.
///
/// # Example
///
/// ```
/// use ts_register::{PackedRegisterArray, RegisterArray};
///
/// let array: RegisterArray<Option<u64>> = RegisterArray::new(3, None);
/// array.write(1, Some(42)).unwrap();
/// assert_eq!(array.read(1).unwrap(), Some(42));
/// let view = array.collect();
/// assert_eq!(view.len(), 3);
/// assert_eq!(array.block_summary(0).generation(), 1);
///
/// // Same API, word-inlined storage:
/// let packed: PackedRegisterArray<u32> = RegisterArray::new_packed(3, 0);
/// packed.write(2, 7).unwrap();
/// assert_eq!(packed.read(2).unwrap(), 7);
/// ```
pub struct RegisterArray<T, B: RegisterBackend<T> = EpochBackend> {
    registers: Box<[CachePadded<B::Reg>]>,
    /// The block dirty words a write brackets its store with, one per
    /// [`BLOCK_REGISTERS`] registers, for the benefit of scanners (see
    /// [`RegisterArray::block_summary`]); `None` once
    /// [`without_scan_words`](RegisterArray::without_scan_words) dropped
    /// them.
    scan_words: Option<Box<[CachePadded<AtomicU64>]>>,
    meter: Option<SpaceMeter>,
    _value: PhantomData<fn(T) -> T>,
}

/// A [`RegisterArray`] of word-inlined [`PackedBackend`] registers.
pub type PackedRegisterArray<T> = RegisterArray<T, PackedBackend>;

impl<T: Clone + Send + Sync + 'static> RegisterArray<T, EpochBackend> {
    /// Creates an epoch-backed array of `capacity` registers, all
    /// holding `initial`.
    pub fn new(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }

    /// Creates a metered epoch-backed array; all operations report to
    /// `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        Self::with_backend_and_meter(capacity, initial, meter)
    }
}

impl<T: Packable> RegisterArray<T, PackedBackend> {
    /// Creates a packed array of `capacity` registers, all holding
    /// `initial`.
    pub fn new_packed(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }
}

impl<T: Clone + Send + Sync, B: RegisterBackend<T>> RegisterArray<T, B> {
    /// Creates an array of `capacity` registers, all holding `initial`,
    /// on the backend `B`.
    pub fn with_backend(capacity: usize, initial: T) -> Self {
        Self {
            registers: (0..capacity)
                .map(|_| CachePadded::new(B::Reg::with_initial(initial.clone())))
                .collect(),
            scan_words: Some(
                (0..capacity.div_ceil(BLOCK_REGISTERS))
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect(),
            ),
            meter: None,
            _value: PhantomData,
        }
    }

    /// Drops the block dirty words: afterwards a write is one metered
    /// store to its register and nothing else.
    ///
    /// For arrays written on a hot path and scanned rarely or never
    /// (`ts-core`'s `CollectMax`). Scans stay correct: the `ts-snapshot`
    /// scan validates such an array by re-reading every register's
    /// stamp until a sweep confirms them all, the classic double
    /// collect. What is lost is its one-sweep quiescent rung and its
    /// dirty-block narrowing. The block-word accessors panic on such an
    /// array.
    pub fn without_scan_words(mut self) -> Self {
        self.scan_words = None;
        self
    }

    /// Whether writes maintain the block dirty words (true unless built
    /// [`without_scan_words`](RegisterArray::without_scan_words)).
    pub fn has_scan_words(&self) -> bool {
        self.scan_words.is_some()
    }

    fn scan_words(&self) -> &[CachePadded<AtomicU64>] {
        self.scan_words
            .as_ref()
            .expect("array was built without scan words")
    }

    /// Creates a metered array on the backend `B`; all operations report
    /// to `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_backend_and_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        assert_eq!(
            meter.capacity(),
            capacity,
            "meter capacity must match array capacity"
        );
        let mut array = Self::with_backend(capacity, initial);
        array.meter = Some(meter);
        array
    }

    /// Number of registers in the array.
    pub fn capacity(&self) -> usize {
        self.registers.len()
    }

    /// Returns the meter attached to this array, if any.
    pub fn meter(&self) -> Option<&SpaceMeter> {
        self.meter.as_ref()
    }

    /// Number of register blocks (`ceil(capacity / BLOCK_REGISTERS)`),
    /// one dirty word each when the array has scan words.
    pub fn block_count(&self) -> usize {
        self.capacity().div_ceil(BLOCK_REGISTERS)
    }

    /// The block covering register `index`.
    pub fn block_of(index: usize) -> usize {
        index / BLOCK_REGISTERS
    }

    /// The register indices covered by `block` (clamped to capacity for
    /// the final, possibly partial, block).
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        assert!(block < self.block_count(), "block {block} out of range");
        let start = block * BLOCK_REGISTERS;
        start..self.capacity().min(start + BLOCK_REGISTERS)
    }

    /// Reads the dirty word of `block` (one `SeqCst` load, unmetered —
    /// the dirty words are auxiliary state, not one of the array's
    /// registers).
    ///
    /// Two of these bracketing a window prove, via
    /// [`WriteSummary::no_writes_during`], that no store to any register
    /// of that block executed inside the window. Clean pairs on every
    /// block prove the whole array quiescent; otherwise a retrying
    /// scanner re-reads only the registers of blocks that moved.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`, or if the array was built
    /// [`without_scan_words`](RegisterArray::without_scan_words).
    pub fn block_summary(&self, block: usize) -> WriteSummary {
        WriteSummary {
            raw: self.scan_words()[block].load(Ordering::SeqCst),
        }
    }

    /// Reads every block dirty word once, in block order (unmetered).
    ///
    /// # Panics
    ///
    /// Panics if the array was built
    /// [`without_scan_words`](RegisterArray::without_scan_words).
    pub fn block_summaries(&self) -> Vec<WriteSummary> {
        (0..self.block_count())
            .map(|b| self.block_summary(b))
            .collect()
    }

    fn check(&self, index: usize) -> Result<(), CapacityError> {
        if index < self.registers.len() {
            Ok(())
        } else {
            Err(CapacityError {
                index,
                capacity: self.registers.len(),
            })
        }
    }

    /// Reads register `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read(&self, index: usize) -> Result<T, CapacityError> {
        Ok(self.read_stamped(index)?.value)
    }

    /// Reads register `index` together with its write stamp.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read_stamped(&self, index: usize) -> Result<Stamped<T>, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].read_stamped())
    }

    /// Applies `f` to the value of register `index` in place, without
    /// cloning it out. One register read for metering purposes.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read_with<R>(&self, index: usize, f: impl FnOnce(&T) -> R) -> Result<R, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].read_with(f))
    }

    /// Reads just the write stamp of register `index` — the cheapest
    /// change probe a backend offers (no value clone on the epoch
    /// backend). One register read for metering purposes.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn stamp(&self, index: usize) -> Result<Stamp, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].stamp())
    }

    /// Writes `value` to register `index`, bracketed by the
    /// begun/completed bumps of its block's dirty word (unless the
    /// array has no scan words).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn write(&self, index: usize, value: T) -> Result<(), CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_write(index);
        }
        // `SeqCst` bumps so block-word loads, register accesses and
        // these RMWs order consistently; see the ordering contract in
        // `crate::backend`. The begun bump (high half) wraps off the
        // top of the word cleanly.
        //
        // On the completed bump, when the low half wraps its +1 carries
        // into the begun half; `bump_completed` cancels the carry so
        // both halves stay exact mod 2³². Between its two RMWs readers
        // can see `begun` inflated by one — the safe direction (a
        // spurious "write in flight" only costs a validation sweep,
        // never a false quiescence claim). Without this, one wrap would
        // leave `begun == completed + 1` at quiescence *forever*,
        // permanently disabling the scan's quiescent short-circuit
        // after 2³² writes to the block.
        let Some(words) = &self.scan_words else {
            self.registers[index].write(value);
            return Ok(());
        };
        let block = &words[Self::block_of(index)];
        bump_begun(block);
        self.registers[index].write(value);
        bump_completed(block);
        Ok(())
    }

    /// Reads every register once, in index order, returning the observed
    /// values with their stamps.
    ///
    /// A single collect is *not* a linearizable view of the whole array
    /// (writes may interleave between the per-register reads) — unless
    /// [`block_summaries`](RegisterArray::block_summaries) read before
    /// and after it satisfy [`WriteSummary::no_writes_during`] on every
    /// block. The `ts-snapshot` scan packages that check; use it when an
    /// atomic view is required.
    pub fn collect(&self) -> Vec<Stamped<T>> {
        self.record_sweep();
        (0..self.capacity())
            .map(|i| self.registers[i].read_stamped())
            .collect()
    }

    /// Reads every register's value once, in index order, handing each
    /// to `visit` and running `pause` before each read: a collect that
    /// allocates nothing, for callers that only fold the values, with a
    /// seam where a replay controller can hold the sweep between reads.
    pub fn sweep_values(&self, mut pause: impl FnMut(), mut visit: impl FnMut(T)) {
        self.record_sweep();
        for i in 0..self.capacity() {
            pause();
            visit(self.registers[i].read());
        }
    }

    /// Meters a whole-array sweep as one read of each register.
    fn record_sweep(&self) {
        if let Some(meter) = &self.meter {
            meter.record_sweep();
        }
    }

    /// Reads every register's stamp once, in index order — a collect
    /// that only observes *whether* registers changed, at the cost of
    /// one stamp read each (no value clones). The scan's validation
    /// sweeps use this instead of a second full collect.
    pub fn collect_stamps(&self) -> Vec<Stamp> {
        self.record_sweep();
        (0..self.capacity())
            .map(|i| self.registers[i].stamp())
            .collect()
    }
}

impl<T, B> fmt::Debug for RegisterArray<T, B>
where
    T: Clone + Send + Sync + fmt::Debug,
    B: RegisterBackend<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("capacity", &self.capacity())
            .field("values", &self.collect())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_array_holds_initial_everywhere() {
        let array: RegisterArray<u32> = RegisterArray::new(4, 7);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn packed_array_holds_initial_everywhere() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 7);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn out_of_range_read_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        let err = array.read(2).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.capacity, 2);
    }

    #[test]
    fn out_of_range_write_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        assert!(array.write(5, 1).is_err());
    }

    #[test]
    fn collect_returns_all_values_in_order_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            array.write(0, 10).unwrap();
            array.write(2, 30).unwrap();
            let view = array.collect();
            let values: Vec<u32> = view.into_iter().map(|s| s.value).collect();
            assert_eq!(values, vec![10, 0, 30]);
        }
        run(RegisterArray::<u32>::new(3, 0));
        run(RegisterArray::<u32, PackedBackend>::with_backend(3, 0));
    }

    #[test]
    fn stamps_detect_rewrites_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            let before = array.read_stamped(0).unwrap();
            array.write(0, before.value).unwrap();
            let after = array.read_stamped(0).unwrap();
            assert_eq!(before.value, after.value);
            assert_ne!(before.stamp, after.stamp, "ABA rewrite went undetected");
            assert_eq!(array.stamp(0).unwrap(), after.stamp);
        }
        run(RegisterArray::<u32>::new(1, 5));
        run(RegisterArray::<u32, PackedBackend>::with_backend(1, 5));
    }

    #[test]
    fn summary_counts_writes_and_detects_quiescence() {
        let array: RegisterArray<u32> = RegisterArray::new(3, 0);
        let s0 = array.block_summary(0);
        assert_eq!(s0.begun(), 0);
        assert_eq!(s0.completed(), 0);
        let s1 = array.block_summary(0);
        assert!(WriteSummary::no_writes_during(s0, s1));

        array.write(0, 1).unwrap();
        array.write(1, 2).unwrap();
        let s2 = array.block_summary(0);
        assert_eq!(s2.begun(), 2);
        assert_eq!(s2.generation(), 2);
        assert!(!WriteSummary::no_writes_during(s0, s2));
        assert!(WriteSummary::no_writes_during(s2, array.block_summary(0)));
    }

    #[test]
    fn block_counts_cover_the_boundary_sizes() {
        for (capacity, blocks) in [
            (0, 0),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
        ] {
            let array: PackedRegisterArray<u32> = RegisterArray::new_packed(capacity, 0);
            assert_eq!(array.block_count(), blocks, "capacity {capacity}");
            if blocks > 0 {
                let mut covered = 0;
                for b in 0..blocks {
                    let range = array.block_range(b);
                    assert_eq!(range.start, covered);
                    covered = range.end;
                }
                assert_eq!(covered, capacity, "blocks must tile the array");
            }
        }
    }

    #[test]
    fn writes_dirty_only_their_own_block() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(65, 0);
        let pre = array.block_summaries();
        array.write(64, 9).unwrap();
        let post = array.block_summaries();
        assert!(
            WriteSummary::no_writes_during(pre[0], post[0]),
            "block 0 must stay clean"
        );
        assert!(
            !WriteSummary::no_writes_during(pre[1], post[1]),
            "block 1 must record the write"
        );
        assert_eq!(post[1].generation(), 1);
        assert_eq!(PackedRegisterArray::<u32>::block_of(64), 1);
        assert_eq!(PackedRegisterArray::<u32>::block_of(63), 0);
    }

    #[test]
    fn block_summary_survives_the_completed_half_wrap() {
        // Seed the block word at begun == completed == u32::MAX (4
        // billion quiescent writes ago) and cross the wrap: the carry
        // the completed bump pushes into begun must be cancelled, so
        // the quiescence check keeps working on the far side.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(1, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.scan_words()[0].store(seeded, Ordering::SeqCst);
        array.write(0, 7).unwrap();
        let s = array.block_summary(0);
        assert_eq!(s.begun(), 0, "block begun must wrap cleanly");
        assert_eq!(s.completed(), 0, "block completed must wrap cleanly");
        assert!(
            WriteSummary::no_writes_during(s, array.block_summary(0)),
            "block quiescence detection must survive the 2^32 wrap"
        );
        array.write(0, 8).unwrap();
        assert_eq!(array.block_summary(0).generation(), 1);
    }

    #[test]
    fn tail_block_summary_survives_the_completed_half_wrap() {
        // The wrap-carry regression on the partial tail block of a
        // boundary-sized array: seed block 1 (covering only register
        // 64 of a 65-register array) at begun == completed == u32::MAX
        // and cross the wrap. Block 0 must stay untouched throughout.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(65, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.scan_words()[1].store(seeded, Ordering::SeqCst);
        let block0_before = array.block_summary(0);
        array.write(64, 7).unwrap();
        let s = array.block_summary(1);
        assert_eq!(s.begun(), 0, "tail block begun must wrap cleanly");
        assert_eq!(s.completed(), 0, "tail block completed must wrap cleanly");
        assert!(
            WriteSummary::no_writes_during(s, array.block_summary(1)),
            "tail block quiescence detection must survive the 2^32 wrap"
        );
        assert!(
            WriteSummary::no_writes_during(block0_before, array.block_summary(0)),
            "a tail-block write must not dirty block 0"
        );
        array.write(64, 8).unwrap();
        assert_eq!(array.block_summary(1).generation(), 1);
    }

    #[test]
    fn block_summary_loads_are_unmetered() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u32, meter.clone());
        let _ = array.block_summaries();
        assert_eq!(
            meter.snapshot().total_reads(),
            0,
            "block words are auxiliary state, not registers"
        );
    }

    #[test]
    fn collect_stamps_matches_full_collect() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(3, 0);
        array.write(2, 5).unwrap();
        let full: Vec<Stamp> = array.collect().into_iter().map(|s| s.stamp).collect();
        assert_eq!(array.collect_stamps(), full);
    }

    #[test]
    fn padded_registers_sit_on_distinct_cache_lines() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 0);
        for pair in array.registers.windows(2) {
            let a = (&*pair[0]) as *const _ as usize;
            let b = (&*pair[1]) as *const _ as usize;
            assert!(b - a >= 128, "registers {a:#x}/{b:#x} share a line");
        }
    }

    #[test]
    fn metered_array_reports_operations() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u32, meter.clone());
        array.write(1, 5).unwrap();
        let _ = array.collect();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 3);
        assert_eq!(snap.max_written_index(), Some(1));
    }

    #[test]
    fn metered_packed_array_reports_operations() {
        let meter = SpaceMeter::new(2);
        let array: PackedRegisterArray<u8> =
            RegisterArray::with_backend_and_meter(2, 0, meter.clone());
        array.write(0, 1).unwrap();
        let _ = array.read(1).unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    fn read_with_reads_in_place_and_meters_one_read_on_both_backends() {
        fn run<B: RegisterBackend<u32>>() {
            let meter = SpaceMeter::new(3);
            let array: RegisterArray<u32, B> =
                RegisterArray::with_backend_and_meter(3, 0, meter.clone());
            array.write(1, 7).unwrap();
            let read = array.read(1).unwrap();
            let before = meter.snapshot();
            assert_eq!(array.read_with(1, |v| *v), Ok(read));
            let after = meter.snapshot();
            let mut reads = before.reads.clone();
            reads[1] += 1;
            assert_eq!(after.reads, reads, "exactly one read of index 1");
            assert_eq!(after.writes, before.writes);

            let err = array.read_with(3, |v| *v).unwrap_err();
            assert_eq!((err.index, err.capacity), (3, 3));
            assert_eq!(meter.snapshot(), after, "out of range meters nothing");
        }
        run::<EpochBackend>();
        run::<PackedBackend>();
    }

    #[test]
    #[should_panic(expected = "meter capacity must match")]
    fn mismatched_meter_capacity_panics() {
        let meter = SpaceMeter::new(2);
        let _ = RegisterArray::with_meter(3, 0u32, meter);
    }

    #[test]
    fn array_without_scan_words_reads_writes_and_meters_alike() {
        let meter = SpaceMeter::new(65);
        let array: PackedRegisterArray<u32> =
            RegisterArray::with_backend_and_meter(65, 0, meter.clone()).without_scan_words();
        assert!(!array.has_scan_words());
        assert_eq!(array.block_count(), 2, "blocks are index arithmetic");
        let before = array.stamp(64).unwrap();
        array.write(64, 9).unwrap();
        assert_eq!(array.read(64).unwrap(), 9);
        assert_ne!(array.stamp(64).unwrap(), before, "stamps still move");
        assert_eq!(meter.snapshot().total_writes(), 1);
    }

    #[test]
    #[should_panic(expected = "without scan words")]
    fn summary_of_an_array_without_scan_words_panics() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(2, 0).without_scan_words();
        let _ = array.block_summary(0);
    }

    #[test]
    fn zero_capacity_array_is_usable() {
        let array: RegisterArray<u8> = RegisterArray::new(0, 0);
        assert_eq!(array.capacity(), 0);
        assert!(array.collect().is_empty());
        assert!(array.collect_stamps().is_empty());
        assert!(array.read(0).is_err());
    }
}
