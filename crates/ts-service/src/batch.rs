//! [`ShardBatch`]: a reservation of consecutive sharded stamps.

use ts_core::ShardedTimestamp;

/// A reservation of `k` consecutive stamps on one shard — an iterator
/// yielding [`ShardedTimestamp`]s in strictly increasing order.
///
/// The whole range was reserved by a single successful CAS on the
/// shard's `(epoch, local)` word, so distinct batches on one shard
/// never overlap, and the full range shares one epoch (a reservation
/// that would cross the 32-bit `local` boundary bumps the epoch and
/// starts fresh instead — see `shard::advance`).
#[derive(Debug, Clone)]
pub struct ShardBatch {
    /// First packed word in the reservation.
    first: u64,
    /// Next packed word to yield.
    next: u64,
    /// Last packed word in the reservation (inclusive).
    last: u64,
    /// The issuing shard.
    shard: u32,
}

impl ShardBatch {
    pub(crate) fn new(first: u64, last: u64, shard: u32) -> Self {
        debug_assert!(first <= last, "empty reservation");
        debug_assert_eq!(
            first >> 32,
            last >> 32,
            "a reservation never spans an epoch boundary"
        );
        Self {
            first,
            next: first,
            last,
            shard,
        }
    }

    /// The smallest stamp in the batch, however much of it has been
    /// consumed (named to avoid shadowing the consuming
    /// [`Iterator::last`], mirroring [`StampBatch`](ts_core::StampBatch)).
    pub fn first_stamp(&self) -> ShardedTimestamp {
        ShardedTimestamp::from_word(self.first, self.shard)
    }

    /// The largest stamp in the batch (what the issuer published to its
    /// leased register — the client's new floor).
    pub fn last_stamp(&self) -> ShardedTimestamp {
        ShardedTimestamp::from_word(self.last, self.shard)
    }

    /// The issuing shard.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Stamps remaining to be yielded.
    pub fn remaining(&self) -> usize {
        (self.last + 1 - self.next) as usize
    }
}

impl Iterator for ShardBatch {
    type Item = ShardedTimestamp;

    fn next(&mut self) -> Option<ShardedTimestamp> {
        if self.next > self.last {
            return None;
        }
        let t = ShardedTimestamp::from_word(self.next, self.shard);
        self.next += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for ShardBatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_yields_consecutive_increasing_stamps() {
        let first = ShardedTimestamp::new(2, 5, 1).word();
        let last = ShardedTimestamp::new(2, 8, 1).word();
        let batch = ShardBatch::new(first, last, 1);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.first_stamp(), ShardedTimestamp::new(2, 5, 1));
        assert_eq!(batch.last_stamp(), ShardedTimestamp::new(2, 8, 1));
        let stamps: Vec<_> = batch.collect();
        assert_eq!(stamps.len(), 4);
        for pair in stamps.windows(2) {
            assert!(ShardedTimestamp::compare(&pair[0], &pair[1]));
        }
        assert_eq!(stamps[3].local, 8);
    }

    #[test]
    fn exact_size_tracks_consumption() {
        let first = ShardedTimestamp::new(0, 1, 0).word();
        let last = ShardedTimestamp::new(0, 3, 0).word();
        let mut batch = ShardBatch::new(first, last, 0);
        assert_eq!(batch.remaining(), 3);
        batch.next().unwrap();
        assert_eq!(batch.remaining(), 2);
        assert_eq!(batch.count(), 2);
    }

    #[test]
    fn first_stamp_survives_consumption() {
        let first = ShardedTimestamp::new(0, 1, 0).word();
        let last = ShardedTimestamp::new(0, 3, 0).word();
        let mut batch = ShardBatch::new(first, last, 0);
        let smallest = ShardedTimestamp::new(0, 1, 0);
        batch.next().unwrap();
        assert_eq!(batch.first_stamp(), smallest);
        batch.by_ref().for_each(drop);
        assert_eq!(batch.remaining(), 0);
        assert_eq!(batch.first_stamp(), smallest, "batch held local 1..=3");
    }
}
