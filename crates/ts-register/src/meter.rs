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

/// Stripes of read counters. A thread adds its reads to one stripe, so
/// readers of the same register on different threads bump different
/// lines unless more than this many threads share a meter.
const READ_STRIPES: usize = 8;

/// Read counters per padded chunk: 16 × 8 bytes fill one 128-byte line.
const LANES: usize = 16;

/// Hands each thread its read stripe, round-robin in first-use order.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % READ_STRIPES;
}

/// Shared recorder of per-register read/write counts.
///
/// Clone the meter (cheap; internally `Arc`) and record accesses with
/// [`SpaceMeter::record_read`] / [`SpaceMeter::record_write`] (a
/// [`RegisterArray`](crate::RegisterArray) built with a meter does so
/// on every access).
///
/// Each register's write counter sits on a cache line of its own, so
/// the owner of a single-writer register meters its writes without
/// touching a line any other writer touches. Read counters are striped
/// per thread instead: a thread bumps its own stripe's counter for the
/// register, sixteen registers to a padded line, and
/// [`snapshot`](SpaceMeter::snapshot) sums the stripes, so concurrent
/// readers of one register meter their reads on different lines. A
/// collect records one *sweep* ([`SpaceMeter::record_sweep`]) instead
/// of one read per register. Every count is exact.
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

struct Inner {
    /// Per-register write counters, one line each.
    writes: Box<[CachePadded<AtomicU64>]>,
    /// `READ_STRIPES` stripes of `chunks` chunks each: register `i`'s
    /// count in stripe `s` is lane `i % LANES` of chunk
    /// `s * chunks + i / LANES`.
    reads: Box<[CachePadded<[AtomicU64; LANES]>]>,
    /// Chunks per stripe, `ceil(capacity / LANES)`.
    chunks: usize,
    /// Reads of *every* register, one per collect: snapshots add this
    /// to each register's own read count.
    sweeps: CachePadded<AtomicU64>,
}

impl Inner {
    /// Register `index`'s read counter in stripe `stripe`.
    fn read_counter(&self, stripe: usize, index: usize) -> &AtomicU64 {
        &self.reads[stripe * self.chunks + index / LANES][index % LANES]
    }
}

impl SpaceMeter {
    /// Creates a meter for an array of `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        let chunks = capacity.div_ceil(LANES);
        Self {
            inner: Arc::new(Inner {
                writes: (0..capacity).map(|_| CachePadded::default()).collect(),
                reads: (0..READ_STRIPES * chunks)
                    .map(|_| CachePadded::default())
                    .collect(),
                chunks,
                sweeps: CachePadded::default(),
            }),
        }
    }

    /// Number of registers the meter observes.
    pub fn capacity(&self) -> usize {
        self.inner.writes.len()
    }

    /// Records a read of register `index` in the calling thread's
    /// stripe.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_read(&self, index: usize) {
        assert!(
            index < self.capacity(),
            "register index {index} out of meter capacity {}",
            self.capacity()
        );
        // A thread whose locals are already torn down shares stripe 0.
        let stripe = STRIPE.try_with(|s| *s).unwrap_or(0);
        self.inner
            .read_counter(stripe, index)
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read of every register (a collect), with one atomic
    /// add where `capacity` calls of [`record_read`](Self::record_read)
    /// would take `capacity`.
    pub fn record_sweep(&self) {
        self.inner.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write of register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_write(&self, index: usize) {
        self.inner.writes[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    ///
    /// Counter updates are relaxed; the snapshot is exact once the metered
    /// execution has quiesced (which is how the experiment harness uses
    /// it).
    pub fn snapshot(&self) -> MeterSnapshot {
        let inner = &*self.inner;
        let sweeps = inner.sweeps.load(Ordering::Relaxed);
        MeterSnapshot {
            reads: (0..self.capacity())
                .map(|i| {
                    (0..READ_STRIPES)
                        .map(|s| inner.read_counter(s, i).load(Ordering::Relaxed))
                        .sum::<u64>()
                        + sweeps
                })
                .collect(),
            writes: inner
                .writes
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
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
        assert!(threads > READ_STRIPES);
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
    #[should_panic(expected = "out of meter capacity")]
    fn reading_past_capacity_panics_inside_the_last_chunk() {
        // Index 3 exists in the padded chunk but not in the array.
        SpaceMeter::new(3).record_read(3);
    }
}
