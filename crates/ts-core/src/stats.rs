//! Unified hot-path statistics for timestamp issuers.
//!
//! Issuers count their hot-path events — fast-path hits, batch
//! reservations, slot-lease waits, per-shard issue counts, quorum
//! rounds — and this module folds them all into one snapshot struct,
//! [`ServiceStats`], that every
//! [`WorkloadTarget`](crate::workload::WorkloadTarget) can surface via
//! [`service_stats`](crate::workload::WorkloadTarget::service_stats).
//! Bench rows then report *ratios* (fast-hit rate, mean batch fill,
//! shard imbalance) next to throughput, instead of opaque ops/sec.

use std::sync::atomic::{AtomicU64, Ordering};

use ts_register::CachePadded;

/// Hot-path counters striped by slot: one cache-line-padded row of `N`
/// counters per process id or lease slot, summed when read.
///
/// A counter shared by all callers is one more contended cache line on
/// every call, and even an uncontended `fetch_add` is a locked
/// read-modify-write. Here each row has **one writer at a time**, so
/// [`add`](SlotCounters::add) is a plain load and store, both
/// `Relaxed`, with no locked instruction and no line that moves between
/// CPUs. Who holds the one-writer rule:
///
/// - a service row is a lease slot, written only by the slot's lease
///   holder. The lease is taken with an `Acquire` CAS and released with
///   a `SeqCst` store, so one holder's adds happen before the next
///   holder's and none is lost;
/// - a [`CollectMax`](crate::CollectMax) row is a pid, written only by
///   that pid's calls, which already are its register's single writer.
///
/// Two threads adding to one row at once may lose counts; no caller
/// does. The counts are statistics and publish nothing.
pub struct SlotCounters<const N: usize> {
    rows: Box<[CachePadded<[AtomicU64; N]>]>,
}

impl<const N: usize> SlotCounters<N> {
    /// Zeroed rows for `slots` slots.
    pub fn new(slots: usize) -> Self {
        Self {
            rows: (0..slots)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    /// Adds `by` to counter `counter` of `slot`'s row. The caller must
    /// be the row's one writer (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `counter` is out of range.
    pub fn add(&self, slot: usize, counter: usize, by: u64) {
        let cell = &self.rows[slot][counter];
        cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }

    /// Counter `counter` of `slot`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `counter` is out of range.
    pub fn get(&self, slot: usize, counter: usize) -> u64 {
        self.rows[slot][counter].load(Ordering::Relaxed)
    }

    /// Counter `counter` summed over every slot. Exact once the writers
    /// have quiesced; a racing read may miss bumps still in flight.
    pub fn sum(&self, counter: usize) -> u64 {
        (0..self.rows.len())
            .map(|slot| self.get(slot, counter))
            .sum()
    }
}

impl<const N: usize> std::fmt::Debug for SlotCounters<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sums: Vec<u64> = (0..N).map(|c| self.sum(c)).collect();
        f.debug_struct("SlotCounters")
            .field("slots", &self.rows.len())
            .field("sums", &sums)
            .finish()
    }
}

/// A point-in-time snapshot of an issuer's hot-path counters.
///
/// All counts are cumulative since object creation. Counters that an
/// object does not have (e.g. `lease_waits` on a plain
/// [`CollectMax`](crate::CollectMax)) stay zero; the derived-ratio
/// methods return `None` when their denominator is zero, so reports
/// can distinguish "no batching configured" from "batch fill of 0".
///
/// # Example
///
/// ```
/// use ts_core::{CollectMax, LongLivedTimestamp};
///
/// let ts = CollectMax::new(2);
/// ts.get_ts(0).unwrap();
/// ts.get_ts_batch(0, 4).unwrap().count();
/// let stats = ts.stats();
/// assert_eq!(stats.calls, 2);
/// assert_eq!(stats.stamps, 5);
/// assert_eq!(stats.avg_batch_fill(), Some(4.0));
/// assert_eq!(stats.fast_hit_ratio(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Issue operations served (one per `getTS` or batch call).
    pub calls: u64,
    /// Timestamps issued (`>= calls` once batching is in play).
    pub stamps: u64,
    /// Calls served by a one-CAS fast path: the cached-max CAS for
    /// `CollectMax`, a first-attempt shard-word reservation for the
    /// service.
    pub fast_hits: u64,
    /// Batch reservations (`get_ts_batch` calls that reserved `k > 1`).
    pub batches: u64,
    /// Stamps issued through batch reservations.
    pub batched_stamps: u64,
    /// Calls that had to wait for a slot lease before issuing (the
    /// vpid-multiplexing contention signal: `M` clients over `n` slots).
    pub lease_waits: u64,
    /// Stamps issued per shard (a single-element vec for unsharded
    /// issuers). The spread is the shard-imbalance signal.
    pub shard_stamps: Vec<u64>,
    /// Quorum round-trips performed by a replicated backend: one per
    /// protocol phase that gathered a quorum of replies (a plain ABD
    /// read is one round, a read that repaired is two, a write is two).
    pub quorum_rounds: u64,
    /// Read-repair write-backs: quorum reads whose replies disagreed
    /// and had to push the maximum back onto a write quorum before
    /// returning. The replica-divergence signal.
    pub quorum_repairs: u64,
    /// Retransmission attempts by quorum clients whose pending round
    /// ran out of deliverable messages (dropped, duplicated-away or
    /// partitioned traffic). The fault-pressure signal.
    pub quorum_retries: u64,
    /// Quorum phases that exhausted their step deadline without
    /// gathering a quorum of replies (each produced one `Unavailable`).
    pub quorum_timeouts: u64,
    /// Client-local steps spent in retry backoff waits — the
    /// fault-induced latency signal.
    pub quorum_backoff_steps: u64,
    /// Quorum phases that completed only after at least one
    /// retransmission: the service was degraded, not down.
    pub quorum_degraded: u64,
    /// Operations surfaced to the caller as unavailable (deadline
    /// exhausted; same events as `quorum_timeouts`, counted at the
    /// client-result level).
    pub quorum_unavailable: u64,
    /// Messages the network dropped outright.
    pub net_dropped: u64,
    /// Messages the network duplicated.
    pub net_duplicated: u64,
    /// Messages held back by a nonzero delivery delay.
    pub net_delayed: u64,
    /// Deliveries that jumped the FIFO order under the reorder knob.
    pub net_reordered: u64,
}

impl ServiceStats {
    /// Fraction of calls served by the one-CAS fast path, or `None`
    /// before any call.
    pub fn fast_hit_ratio(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.fast_hits as f64 / self.calls as f64)
    }

    /// Mean stamps per batch reservation, or `None` if no batch was
    /// ever reserved.
    pub fn avg_batch_fill(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.batched_stamps as f64 / self.batches as f64)
    }

    /// Hottest shard's issue count over the per-shard mean (1.0 =
    /// perfectly balanced), or `None` until some shard issued a stamp.
    pub fn shard_imbalance(&self) -> Option<f64> {
        let total: u64 = self.shard_stamps.iter().sum();
        if total == 0 || self.shard_stamps.is_empty() {
            return None;
        }
        let max = *self.shard_stamps.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.shard_stamps.len() as f64;
        Some(max / mean)
    }

    /// Mean quorum round-trips per issue call, or `None` for
    /// non-replicated issuers (no rounds recorded).
    pub fn rounds_per_call(&self) -> Option<f64> {
        (self.quorum_rounds > 0 && self.calls > 0)
            .then(|| self.quorum_rounds as f64 / self.calls as f64)
    }

    /// Fraction of quorum rounds that were read-repair write-backs, or
    /// `None` without any rounds.
    pub fn repair_ratio(&self) -> Option<f64> {
        (self.quorum_rounds > 0).then(|| self.quorum_repairs as f64 / self.quorum_rounds as f64)
    }

    /// Folds another snapshot into this one (summing counters and
    /// concatenating shard counts) — used when a service aggregates
    /// per-shard snapshots.
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.calls += other.calls;
        self.stamps += other.stamps;
        self.fast_hits += other.fast_hits;
        self.batches += other.batches;
        self.batched_stamps += other.batched_stamps;
        self.lease_waits += other.lease_waits;
        self.shard_stamps.extend_from_slice(&other.shard_stamps);
        self.quorum_rounds += other.quorum_rounds;
        self.quorum_repairs += other.quorum_repairs;
        self.quorum_retries += other.quorum_retries;
        self.quorum_timeouts += other.quorum_timeouts;
        self.quorum_backoff_steps += other.quorum_backoff_steps;
        self.quorum_degraded += other.quorum_degraded;
        self.quorum_unavailable += other.quorum_unavailable;
        self.net_dropped += other.net_dropped;
        self.net_duplicated += other.net_duplicated;
        self.net_delayed += other.net_delayed;
        self.net_reordered += other.net_reordered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_none_without_denominators() {
        let empty = ServiceStats::default();
        assert_eq!(empty.fast_hit_ratio(), None);
        assert_eq!(empty.avg_batch_fill(), None);
        assert_eq!(empty.shard_imbalance(), None);
        assert_eq!(empty.rounds_per_call(), None);
        assert_eq!(empty.repair_ratio(), None);
    }

    #[test]
    fn ratios_divide_the_right_counters() {
        let stats = ServiceStats {
            calls: 10,
            stamps: 40,
            fast_hits: 8,
            batches: 4,
            batched_stamps: 32,
            lease_waits: 1,
            shard_stamps: vec![30, 10],
            quorum_rounds: 20,
            quorum_repairs: 5,
            quorum_retries: 2,
            quorum_timeouts: 0,
            quorum_backoff_steps: 0,
            quorum_degraded: 0,
            quorum_unavailable: 0,
            net_dropped: 0,
            net_duplicated: 0,
            net_delayed: 0,
            net_reordered: 0,
        };
        assert_eq!(stats.fast_hit_ratio(), Some(0.8));
        assert_eq!(stats.avg_batch_fill(), Some(8.0));
        // max 30 over mean 20.
        assert_eq!(stats.shard_imbalance(), Some(1.5));
        assert_eq!(stats.rounds_per_call(), Some(2.0));
        assert_eq!(stats.repair_ratio(), Some(0.25));
    }

    #[test]
    fn absorb_sums_counters_and_concatenates_shards() {
        let mut a = ServiceStats {
            calls: 1,
            stamps: 2,
            shard_stamps: vec![2],
            ..Default::default()
        };
        let b = ServiceStats {
            calls: 3,
            stamps: 4,
            fast_hits: 3,
            shard_stamps: vec![4],
            quorum_retries: 2,
            quorum_timeouts: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.calls, 4);
        assert_eq!(a.stamps, 6);
        assert_eq!(a.fast_hits, 3);
        assert_eq!(a.shard_stamps, vec![2, 4]);
        assert_eq!(a.quorum_retries, 2);
        assert_eq!(a.quorum_timeouts, 5);
    }

    #[test]
    fn slot_counters_sum_rows_on_separate_lines() {
        let counters = SlotCounters::<2>::new(3);
        std::thread::scope(|s| {
            for slot in 0..3 {
                let counters = &counters;
                s.spawn(move || {
                    for _ in 0..1000 {
                        counters.add(slot, 0, 1);
                    }
                    counters.add(slot, 1, slot as u64);
                });
            }
        });
        assert_eq!(counters.sum(0), 3000);
        assert_eq!(counters.sum(1), 3);
        let a = &counters.rows[0] as *const _ as usize;
        let b = &counters.rows[1] as *const _ as usize;
        assert!(b - a >= 128, "rows {a:#x}/{b:#x} share a line");
    }

    #[test]
    fn a_row_handed_between_threads_sums_exactly() {
        // One row, four writers taking turns: each waits for its turn on
        // an Acquire load and hands the row on with a Release store, as
        // a slot lease does. No add is lost across the hand-offs.
        const THREADS: u64 = 4;
        const TURNS: u64 = 500;
        let counters = SlotCounters::<2>::new(1);
        let turn = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (counters, turn) = (&counters, &turn);
                s.spawn(move || {
                    for round in 0..TURNS {
                        let mine = round * THREADS + t;
                        while turn.load(Ordering::Acquire) != mine {
                            std::thread::yield_now();
                        }
                        for _ in 0..10 {
                            counters.add(0, 0, 1);
                        }
                        counters.add(0, 1, t);
                        turn.store(mine + 1, Ordering::Release);
                    }
                });
            }
        });
        assert_eq!(counters.get(0, 0), THREADS * TURNS * 10);
        assert_eq!(counters.get(0, 1), TURNS * (0..THREADS).sum::<u64>());
    }

    #[test]
    fn perfectly_balanced_shards_report_one() {
        let stats = ServiceStats {
            stamps: 20,
            shard_stamps: vec![5, 5, 5, 5],
            ..Default::default()
        };
        assert_eq!(stats.shard_imbalance(), Some(1.0));
    }
}
