//! An append-only segmented table: entries addressed by a dense id,
//! looked up without a lock or a shared refcount.
//!
//! Segment `s` holds `FIRST << s` entries and is allocated on first
//! touch through its `OnceLock`, so a lookup is one acquire load plus
//! index arithmetic, and an entry never moves once created. The table
//! frees its segments with its owner. `ts-replica`'s router keeps one
//! entry per client here, its cluster one quorum-counter stripe per
//! client, and every replica one cell per register; `ts-core`'s
//! growable timestamp object keeps its registers and line-15 cells in
//! two tables.

use std::fmt;
use std::sync::OnceLock;

/// Entries in segment 0; segment `s` holds `FIRST << s`.
const FIRST: usize = 8;

/// Segments needed to cover every `u32` id.
const SEGMENTS: usize = 30;

/// An append-only table of `T`s addressed by a dense `u32`-sized id,
/// allocated a segment at a time on first touch.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ts_register::SegTable;
///
/// let table = SegTable::<AtomicU64>::new();
/// assert!(table.get(1000).is_none(), "nothing allocated yet");
/// table.get_or_init(1000).store(7, Ordering::Relaxed);
/// assert_eq!(table.get(1000).unwrap().load(Ordering::Relaxed), 7);
/// ```
pub struct SegTable<T> {
    segments: [OnceLock<Box<[T]>>; SEGMENTS],
}

impl<T: Default> Default for SegTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for SegTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let allocated = self.segments.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("SegTable")
            .field("segments_allocated", &allocated)
            .finish()
    }
}

impl<T: Default> SegTable<T> {
    /// Creates an empty table: no segment is allocated.
    pub fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `(segment, offset)` of entry `index`: segment `s` starts at
    /// `FIRST * (2^s - 1)`.
    fn locate(index: usize) -> (usize, usize) {
        let q = index / FIRST + 1;
        let segment = (usize::BITS - q.leading_zeros() - 1) as usize;
        (segment, index - FIRST * ((1 << segment) - 1))
    }

    /// Entry `index`, if its segment has been allocated.
    pub fn get(&self, index: usize) -> Option<&T> {
        let (segment, offset) = Self::locate(index);
        self.segments.get(segment)?.get().map(|seg| &seg[offset])
    }

    /// Entry `index`, allocating its segment (default entries) on first
    /// touch.
    ///
    /// # Panics
    ///
    /// Panics if `index` is beyond every segment (past `u32` range).
    pub fn get_or_init(&self, index: usize) -> &T {
        let (segment, offset) = Self::locate(index);
        assert!(segment < SEGMENTS, "table index {index} out of range");
        let seg = self.segments[segment]
            .get_or_init(|| (0..FIRST << segment).map(|_| T::default()).collect());
        &seg[offset]
    }

    /// Every allocated entry, in id order (unallocated segments are
    /// skipped; they hold no entries yet).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|seg| seg.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_tile_the_id_space() {
        let mut expect = (0, 0);
        for index in 0..10_000 {
            assert_eq!(SegTable::<u8>::locate(index), expect, "index {index}");
            expect.1 += 1;
            if expect.1 == FIRST << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        assert!(SegTable::<u8>::locate(u32::MAX as usize).0 < SEGMENTS);
    }

    #[test]
    fn entries_are_stable_and_lazily_allocated() {
        let table = SegTable::<std::sync::atomic::AtomicU32>::new();
        assert!(table.get(0).is_none());
        assert_eq!(table.iter().count(), 0);
        let a: *const _ = table.get_or_init(3);
        assert_eq!(table.iter().count(), FIRST);
        table.get_or_init(100);
        assert!(std::ptr::eq(a, table.get(3).expect("allocated")));
        assert!(table.get(FIRST).is_none(), "segment 1 untouched");
        assert_eq!(table.iter().count(), FIRST + (FIRST << 3));
    }
}
