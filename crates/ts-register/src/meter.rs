//! Space and operation instrumentation.
//!
//! The paper's results bound the *number of registers* an implementation
//! uses. [`SpaceMeter`] observes a register array and records, per
//! register: how many reads and writes it served and whether it was ever
//! written. The derived quantities (`registers_written`,
//! `registers_accessed`, `max_written_index`) are exactly what the
//! experiment tables of EXPERIMENTS.md report against the paper's bounds.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;

/// Stripes of counters. A thread adds its reads and writes to one
/// stripe, so threads accessing the same register bump different lines
/// unless more than this many threads share a meter.
const STRIPES: usize = 8;

/// Counters per padded chunk: 16 × 8 bytes fill one 128-byte line.
const LANES: usize = 16;

/// Hands each thread its stripe, round-robin in first-use order.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Shared recorder of per-register read/write counts.
///
/// Clone the meter (cheap; internally `Arc`) and record accesses with
/// [`SpaceMeter::record_read`] / [`SpaceMeter::record_write`] (a
/// [`RegisterArray`](crate::RegisterArray) built with a meter does so
/// on every access).
///
/// Read and write counters are striped per thread: a thread bumps its
/// own stripe's counter for the register, sixteen registers to a padded
/// line, and [`snapshot`](SpaceMeter::snapshot) sums the stripes. So
/// two threads reading or writing one register (a multi-writer register
/// of Algorithm 4, say) meter on different lines, and a thread's
/// counters share a line with no other thread's.
///
/// Reads of a whole prefix `0..len` are recorded with one add
/// ([`SpaceMeter::record_prefix`]): each stripe also keeps one counter
/// per prefix length, and a snapshot adds to register `i` every prefix
/// longer than `i` (a suffix sum). A collect is the prefix of every
/// register ([`SpaceMeter::record_sweep`]), and a caller that knows its
/// reads in bulk hands them over once per operation instead of once per
/// access ([`SpaceMeter::record_reads`]). Every count is exact.
///
/// # Example
///
/// ```
/// use ts_register::{RegisterArray, SpaceMeter};
///
/// let meter = SpaceMeter::new(4);
/// let array = RegisterArray::with_meter(4, 0u64, meter.clone());
/// array.write(1, 9).unwrap();
/// array.read(1).unwrap();
/// let snap = meter.snapshot();
/// assert_eq!(snap.registers_written(), 1);
/// assert_eq!(snap.reads[1], 1);
/// ```
#[derive(Clone)]
pub struct SpaceMeter {
    inner: Arc<Inner>,
}

/// `STRIPES` stripes of `chunks` chunks each: register `i`'s count in
/// stripe `s` is lane `i % LANES` of chunk `s * chunks + i / LANES`.
type Table = Box<[CachePadded<[AtomicU64; LANES]>]>;

struct Inner {
    reads: Table,
    writes: Table,
    /// Slot `i` counts reads of the prefix `0..=i`: snapshots add its
    /// suffix sums to the registers' own counts.
    prefixes: Table,
    /// Chunks per stripe, `ceil(capacity / LANES)`.
    chunks: usize,
    capacity: usize,
}

impl Inner {
    /// Slot `index` of stripe `stripe` in `table`.
    fn counter<'a>(&self, table: &'a Table, stripe: usize, index: usize) -> &'a AtomicU64 {
        &table[stripe * self.chunks + index / LANES][index % LANES]
    }

    /// Adds `n` to register `index`'s slot of the calling thread's
    /// stripe in `table`; `n = 0` adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`: the last chunk has lanes past it.
    fn add(&self, table: &Table, index: usize, n: u64) {
        assert!(
            index < self.capacity,
            "register index {index} out of meter capacity {}",
            self.capacity
        );
        if n > 0 {
            self.counter(table, stripe(), index)
                .fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The calling thread's stripe; a thread whose locals are already torn
/// down shares stripe 0.
fn stripe() -> usize {
    STRIPE.try_with(|s| *s).unwrap_or(0)
}

impl SpaceMeter {
    /// Creates a meter for an array of `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        let chunks = capacity.div_ceil(LANES);
        let table = || {
            (0..STRIPES * chunks)
                .map(|_| CachePadded::default())
                .collect()
        };
        Self {
            inner: Arc::new(Inner {
                reads: table(),
                writes: table(),
                prefixes: table(),
                chunks,
                capacity,
            }),
        }
    }

    /// Number of registers the meter observes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Records a read of register `index` in the calling thread's
    /// stripe.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_read(&self, index: usize) {
        self.record_reads(index, 1);
    }

    /// Records `n` reads of register `index` with one atomic add; `n = 0`
    /// records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_reads(&self, index: usize, n: u64) {
        self.inner.add(&self.inner.reads, index, n);
    }

    /// Records `n` reads of each register in `0..len` with one atomic
    /// add where `len * n` calls of [`record_read`](Self::record_read)
    /// would take `len * n`. `len = 0` or `n = 0` records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `len > capacity`.
    pub fn record_prefix(&self, len: usize, n: u64) {
        assert!(
            len <= self.capacity(),
            "prefix length {len} exceeds meter capacity {}",
            self.capacity()
        );
        if len > 0 {
            self.inner.add(&self.inner.prefixes, len - 1, n);
        }
    }

    /// Records one read of every register (a collect):
    /// `record_prefix(capacity, 1)`.
    pub fn record_sweep(&self) {
        self.record_prefix(self.capacity(), 1);
    }

    /// Records a write of register `index` in the calling thread's
    /// stripe.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_write(&self, index: usize) {
        self.inner.add(&self.inner.writes, index, 1);
    }

    /// Takes a consistent-enough snapshot of the counters.
    ///
    /// Counter updates are relaxed; the snapshot is exact once the metered
    /// execution has quiesced (which is how the experiment harness uses
    /// it).
    pub fn snapshot(&self) -> MeterSnapshot {
        let inner = &*self.inner;
        let summed = |table: &Table, i: usize| {
            (0..STRIPES)
                .map(|s| inner.counter(table, s, i).load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let per_register = |table| (0..self.capacity()).map(|i| summed(table, i)).collect();
        let mut reads: Vec<u64> = per_register(&inner.reads);
        // A prefix of length `i + 1` read registers `0..=i`: register `i`
        // gets every prefix at least that long.
        let mut longer = 0;
        for i in (0..reads.len()).rev() {
            longer += summed(&inner.prefixes, i);
            reads[i] += longer;
        }
        MeterSnapshot {
            reads,
            writes: per_register(&inner.writes),
        }
    }
}

impl fmt::Debug for SpaceMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceMeter")
            .field("capacity", &self.capacity())
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Immutable view of a [`SpaceMeter`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Reads served per register index.
    pub reads: Vec<u64>,
    /// Writes served per register index.
    pub writes: Vec<u64>,
}

impl MeterSnapshot {
    /// Number of registers that were written at least once.
    ///
    /// This is the paper's space-consumption measure: a register that is
    /// never written (like Algorithm 4's trailing sentinel) still counts
    /// toward the *allocation* but the bounds are phrased over registers
    /// that carry information.
    pub fn registers_written(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
    }

    /// Number of registers that were read or written at least once.
    pub fn registers_accessed(&self) -> usize {
        self.reads
            .iter()
            .zip(&self.writes)
            .filter(|(&r, &w)| r > 0 || w > 0)
            .count()
    }

    /// Highest register index that was written, if any.
    pub fn max_written_index(&self) -> Option<usize> {
        self.writes.iter().rposition(|&w| w > 0)
    }

    /// Total number of read operations.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total number of write operations.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_snapshot_is_zero() {
        let meter = SpaceMeter::new(3);
        let snap = meter.snapshot();
        assert_eq!(snap.registers_written(), 0);
        assert_eq!(snap.registers_accessed(), 0);
        assert_eq!(snap.max_written_index(), None);
    }

    #[test]
    fn reads_and_writes_are_counted_separately() {
        let meter = SpaceMeter::new(2);
        meter.record_read(0);
        meter.record_read(0);
        meter.record_write(1);
        let snap = meter.snapshot();
        assert_eq!(snap.reads, vec![2, 0]);
        assert_eq!(snap.writes, vec![0, 1]);
        assert_eq!(snap.registers_written(), 1);
        assert_eq!(snap.registers_accessed(), 2);
        assert_eq!(snap.max_written_index(), Some(1));
        assert_eq!(snap.total_reads(), 2);
        assert_eq!(snap.total_writes(), 1);
    }

    #[test]
    fn a_sweep_reads_every_register_once() {
        let meter = SpaceMeter::new(3);
        meter.record_sweep();
        meter.record_read(2);
        let snap = meter.snapshot();
        assert_eq!(snap.reads, vec![1, 1, 2]);
        assert_eq!(snap.registers_accessed(), 3);
        assert_eq!(snap.registers_written(), 0);
    }

    #[test]
    fn striped_reads_count_exactly_when_threads_share_stripes() {
        // More threads than stripes, so some threads share a stripe;
        // 20 registers span two chunks per stripe.
        let threads = 12;
        assert!(threads > STRIPES);
        let meter = SpaceMeter::new(20);
        meter.record_write(3);
        meter.record_write(17);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        meter.record_read(3);
                    }
                });
            }
        });
        meter.record_sweep();
        let snap = meter.snapshot();
        assert_eq!(snap.reads[3], 120_001);
        for (i, &reads) in snap.reads.iter().enumerate() {
            if i != 3 {
                assert_eq!(reads, 1, "register {i}");
            }
        }
        let mut writes = vec![0; 20];
        writes[3] = 1;
        writes[17] = 1;
        assert_eq!(snap.writes, writes);
    }

    #[test]
    fn striped_writes_count_exactly_when_threads_share_a_register() {
        // More threads than stripes, all writing the same registers, as
        // Algorithm 4's multi-writer registers are written; 20 registers
        // span two chunks per stripe.
        let threads = 12;
        assert!(threads > STRIPES);
        let meter = SpaceMeter::new(20);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        meter.record_write(0);
                        meter.record_write(17);
                    }
                    meter.record_write(19);
                });
            }
        });
        let snap = meter.snapshot();
        let mut writes = vec![0; 20];
        writes[0] = 120_000;
        writes[17] = 120_000;
        writes[19] = 12;
        assert_eq!(snap.writes, writes);
        assert_eq!(snap.total_writes(), 240_012);
        assert_eq!(snap.registers_written(), 3);
        assert_eq!(snap.max_written_index(), Some(19));
        assert_eq!(snap.total_reads(), 0);
    }

    #[test]
    fn reads_past_the_first_chunk_land_on_their_own_register() {
        let meter = SpaceMeter::new(33);
        meter.record_read(16);
        meter.record_read(32);
        meter.record_read(32);
        let snap = meter.snapshot();
        assert_eq!(snap.total_reads(), 3);
        assert_eq!((snap.reads[16], snap.reads[32]), (1, 2));
    }

    #[test]
    fn an_empty_prefix_records_nothing() {
        let meter = SpaceMeter::new(3);
        meter.record_prefix(0, 5);
        meter.record_prefix(2, 0);
        meter.record_reads(1, 0);
        assert_eq!(meter.snapshot().reads, vec![0, 0, 0]);
    }

    #[test]
    fn the_full_prefix_is_a_sweep() {
        let swept = SpaceMeter::new(20);
        let prefixed = SpaceMeter::new(20);
        swept.record_sweep();
        prefixed.record_prefix(20, 1);
        assert_eq!(swept.snapshot(), prefixed.snapshot());
        assert_eq!(swept.snapshot().reads, vec![1; 20]);
    }

    #[test]
    fn prefixes_ending_at_chunk_edges_land_on_their_registers() {
        // Lengths 16 and 17 end on either side of the first chunk edge,
        // 33 one past the second.
        let meter = SpaceMeter::new(40);
        meter.record_prefix(16, 1);
        meter.record_prefix(17, 2);
        meter.record_prefix(33, 4);
        meter.record_reads(39, 3);
        let snap = meter.snapshot();
        for (i, &reads) in snap.reads.iter().enumerate() {
            let expected = match i {
                0..=15 => 7,
                16 => 6,
                17..=32 => 4,
                39 => 3,
                _ => 0,
            };
            assert_eq!(reads, expected, "register {i}");
        }
        assert_eq!(snap.total_reads(), 16 + 2 * 17 + 4 * 33 + 3);
    }

    #[test]
    fn striped_prefixes_count_exactly_when_threads_share_stripes() {
        let threads = 12;
        assert!(threads > STRIPES);
        let meter = SpaceMeter::new(20);
        std::thread::scope(|s| {
            for t in 0..threads {
                let meter = &meter;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        meter.record_prefix(t + 1, 2);
                        meter.record_reads(19, 1);
                    }
                });
            }
        });
        let snap = meter.snapshot();
        // Register i lies in the prefixes of threads i..12, 2000 reads
        // each.
        for (i, &reads) in snap.reads.iter().enumerate() {
            let expected = match i {
                0..=11 => 2_000 * (threads - i) as u64,
                19 => 12_000,
                _ => 0,
            };
            assert_eq!(reads, expected, "register {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds meter capacity")]
    fn a_prefix_past_capacity_panics() {
        SpaceMeter::new(3).record_prefix(4, 1);
    }

    #[test]
    #[should_panic(expected = "out of meter capacity")]
    fn reading_past_capacity_panics_inside_the_last_chunk() {
        // Index 3 exists in the padded chunk but not in the array.
        SpaceMeter::new(3).record_read(3);
    }

    #[test]
    #[should_panic(expected = "out of meter capacity")]
    fn writing_past_capacity_panics_inside_the_last_chunk() {
        // Index 3 exists in the padded chunk but not in the array.
        SpaceMeter::new(3).record_write(3);
    }
}
