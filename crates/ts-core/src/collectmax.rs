//! Long-lived collect-max baseline (`n` SWMR registers) with a
//! cached-max fast path.
//!
//! The matching upper bound for Theorem 1.1 cited by the paper is the
//! `n−1`-register wait-free algorithm of Ellen, Fatourou and Ruppert
//! (Distributed Computing 2008). That construction lives in a different
//! paper; we substitute the folklore `n`-register algorithm with the same
//! asymptotics and progress guarantee (see "The space story" in the
//! README): every process owns one single-writer register; `getTS()`
//! collects all registers, picks `max + 1`, writes it to its own
//! register and returns it.
//!
//! Register contents are bounded counters, so the object defaults to the
//! word-inlined [`PackedBackend`] (one hardware atomic per register
//! operation). The packed value budget is 32 bits — comfortably more
//! than 4 × 10⁹ `getTS` calls; workloads beyond that should use
//! [`EpochCollectMax`].
//!
//! # The cached-max fast path
//!
//! The full collect costs `n` reads of `n` cache lines, most of them
//! freshly invalidated under write contention. This module keeps a
//! shared *cached maximum* — one padded `AtomicU64` — beside the
//! register array and gives [`CollectMax::get_ts`] a fallback ladder:
//!
//! 1. **fast path**: one `Acquire` load of the cache, then one CAS
//!    advancing it from `m` to `m + 1`; on success the process writes
//!    `m + 1` to its own register and returns it — three shared
//!    accesses total, independent of `n`, and the cache is the only
//!    cache line among them that another process writes: a register
//!    write is one store to the writer's own line, the space meter
//!    keeps each register's counts on a line of their own, and the
//!    metered write doubles as the call count;
//! 2. **validation failure** (the CAS lost a race): fall back to the
//!    classic full collect — seeded with the cache value the failed CAS
//!    observed — write `max + 1` to the own register, then publish it
//!    into the cache with a CAS retry chain (a `fetch_max`).
//!
//! `getTS` is one body, `get_ts`, over the crate's register-word
//! storage. Whether the cache word exists is a constant of the storage
//! type: without it the body is the classic collect alone, the
//! algorithm Theorem 1.1's covering construction runs on. The object is
//! the storage with the cache; `Registers` is its register-only view,
//! which the replay harness drives. `ts_core::model::CollectMaxModel`
//! re-runs the same body with and without the cache word, so the
//! explorer and PCT sweeps of `tests/model_check.rs` check this code.
//!
//! # Why the fast path never returns a stale max
//!
//! Four invariants carry the timestamp property across both branches:
//!
//! - **I1 (monotone cache)**: the cached maximum is only ever
//!   advanced — by the fast path's `CAS(m → m+1)` and the slow path's
//!   fetch-max chain — so its value never decreases.
//! - **I2 (completion publishes)**: every call that returns `t` made
//!   the cache `>= t` before returning (the fast path's own successful
//!   CAS; the slow path's fetch-max chain, which only stops once the
//!   cache is `>= t`).
//! - **I3 (registers cover completions)**: every call that returns `t`
//!   wrote `t` to its own register before returning, and each process's
//!   register values are strictly increasing (both branches return
//!   values strictly above the process's previous value, by I1/I2 for
//!   the fast path and by the collect including the own register for
//!   the slow path).
//! - **I4 (cache observations are floors)**: the slow path seeds its
//!   collect with the cache value its failed CAS observed, so a call
//!   along *either* branch returns strictly more than any cache value
//!   it observed — which is what makes [`CollectMax::read_max`] a sound
//!   lower bound even while the cache transiently exceeds every
//!   register (a fast-path call parked between its CAS and its register
//!   write).
//!
//! If call `A` (returning `t_A`) completes before call `B` begins: a
//! fast-path `B` loads the cache after `A` made it `>= t_A` (I1, I2) and
//! returns at least `t_A + 1`; a collecting `B` reads `A`'s register,
//! which still holds `>= t_A` (I3), and returns at least `t_A + 1`.
//! Overlapping calls are unconstrained by the timestamp property,
//! exactly as in the collect-only algorithm.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ts_register::{
    CachePadded, EpochBackend, PackedBackend, Register, RegisterArray, RegisterBackend, SpaceMeter,
};

use crate::error::GetTsError;
use crate::stats::{ServiceStats, SlotCounters};
use crate::timestamp::Timestamp;
use crate::traits::LongLivedTimestamp;
use crate::words;

/// A reservation of `k` consecutive timestamps from one
/// [`CollectMax::get_ts_batch`] call — an iterator yielding
/// `first..=last` as [`Timestamp`]s.
///
/// The whole range was reserved by a single successful CAS on the
/// cached maximum, so distinct batches (and fast-path singles) never
/// overlap; see `get_ts_batch` for the exact uniqueness contract.
#[derive(Debug, Clone)]
pub struct StampBatch {
    first: u64,
    next: u64,
    last: u64,
}

impl StampBatch {
    fn new(first: u64, last: u64) -> Self {
        Self {
            first,
            next: first,
            last,
        }
    }

    /// The smallest stamp in the batch, however much of it has been
    /// consumed (named to avoid shadowing [`Iterator::last`], which
    /// consumes the iterator).
    pub fn first_stamp(&self) -> Timestamp {
        Timestamp::scalar(self.first)
    }

    /// The largest stamp in the batch (what the issuer published to its
    /// register).
    pub fn last_stamp(&self) -> Timestamp {
        Timestamp::scalar(self.last)
    }

    /// Stamps remaining to be yielded.
    pub fn remaining(&self) -> usize {
        (self.last + 1 - self.next) as usize
    }
}

impl Iterator for StampBatch {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        if self.next > self.last {
            return None;
        }
        let t = Timestamp::scalar(self.next);
        self.next += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for StampBatch {}

/// Long-lived timestamp object over `n` single-writer registers, generic
/// over the register storage backend.
///
/// Wait-free; timestamps are scalars ordered by `<`. If two concurrent
/// calls return equal values the object is still correct: the timestamp
/// property only constrains non-overlapping calls, and a call that starts
/// after another finishes always observes its effect and returns a
/// strictly larger value.
///
/// `get_ts` serves most calls from the cached-max fast path (one load +
/// one CAS instead of an `n`-read collect — see the module docs);
/// [`CollectMax::fast_path_hits`] reports how often.
///
/// # Example
///
/// ```
/// use ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
///
/// let ts = CollectMax::new(4);
/// let a = ts.get_ts(0).unwrap();
/// let b = ts.get_ts(0).unwrap(); // long-lived: same process again
/// assert!(Timestamp::compare(&a, &b));
/// assert!(ts.fast_path_hits() >= 1);
/// ```
pub struct CollectMax<B: RegisterBackend<u64> = PackedBackend> {
    /// One SWMR register per process, padded by default (each register
    /// has exactly one writer, the textbook false-sharing victim).
    registers: RegisterArray<u64, B>,
    /// Cached maximum: `>=` the value of every *completed* `getTS`
    /// call, advanced only by CAS/fetch-max (hence monotone). Padded so
    /// fast-path CASes never share a line with any register, and boxed
    /// so the object holds no `UnsafeCell` of its own: the compiler may
    /// then keep the register array's base and length in machine
    /// registers across a collect's atomic loads through `&self`.
    cached_max: Box<CachePadded<AtomicU64>>,
    /// Also the call counter: every call, on every path, writes its
    /// own register exactly once, so calls = metered writes and the
    /// fast path needs no counter of its own.
    meter: SpaceMeter,
    /// Per-process counts, indexed by pid: [`SLOW`], [`BATCHES`],
    /// [`BATCHED`].
    counters: SlotCounters<3>,
}

/// [`CollectMax::counters`] columns: calls that did not win the first
/// cache CAS (collect fallback, classic path, retried batch CAS), batch
/// reservations with `k > 1`, and their stamps.
const SLOW: usize = 0;
const BATCHES: usize = 1;
const BATCHED: usize = 2;

/// [`CollectMax`] over epoch-reclaimed heap-cell registers — same
/// algorithm, heavier substrate; supports counters beyond the packed
/// 32-bit budget and anchors the `bench_contention` comparison.
pub type EpochCollectMax = CollectMax<EpochBackend>;

impl CollectMax<PackedBackend> {
    /// Creates an object for `processes` processes using `n` word-inlined
    /// registers (the default backend), cache-line padded.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn new(processes: usize) -> Self {
        Self::with_backend(processes)
    }
}

impl<B: RegisterBackend<u64>> CollectMax<B> {
    /// Creates an object for `processes` processes using `n` registers on
    /// the backend `B`.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn with_backend(processes: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        let meter = SpaceMeter::new(processes);
        Self {
            // The array meters its writes; a collect's reads are
            // metered as one sweep.
            registers: RegisterArray::with_backend_and_meter(processes, 0, meter.clone()),
            cached_max: Box::new(CachePadded::new(AtomicU64::new(0))),
            meter,
            counters: SlotCounters::new(processes),
        }
    }

    fn register_count(&self) -> usize {
        self.registers.capacity()
    }

    /// Kept out of line. A register write is one store plus the meter,
    /// small enough that the compiler inlines it into the fast path,
    /// and that cost `longlived_getts` throughput: on a 2-vCPU Xeon,
    /// median of 6 alternating 10-s perfbench runs, 11.0M ops/s inlined
    /// against 12.3M out of line.
    #[inline(never)]
    fn write_register(&self, index: usize, value: u64) {
        self.registers.write(index, value).expect("index in range");
    }

    /// The meter recording this object's register traffic (the cached
    /// maximum is auxiliary state, not one of the `n` registers, so its
    /// accesses are not metered).
    pub fn meter(&self) -> &SpaceMeter {
        &self.meter
    }

    /// Total `getTS` calls served so far.
    pub fn calls(&self) -> u64 {
        self.meter.snapshot().total_writes()
    }

    /// `getTS` calls served by the cached-max fast path (one load + one
    /// CAS, no collect). `calls() - fast_path_hits()` took the full
    /// collect fallback.
    pub fn fast_path_hits(&self) -> u64 {
        self.calls().saturating_sub(self.counters.sum(SLOW))
    }

    /// Unified hot-path counter snapshot: calls, stamps, fast hits and
    /// batch fill in one struct, so reports show *ratios* instead of
    /// opaque throughput. Lease and quorum counters stay zero — this
    /// object has neither; `shard_stamps` is the single-shard vector.
    pub fn stats(&self) -> ServiceStats {
        let calls = self.calls();
        let batches = self.counters.sum(BATCHES);
        let batched = self.counters.sum(BATCHED);
        // Non-batch calls issue one stamp each (saturating: a racing
        // snapshot may observe a call's batch or slow bump before its
        // register write — the counters are Relaxed by design).
        let stamps = calls.saturating_sub(batches) + batched;
        ServiceStats {
            calls,
            stamps,
            fast_hits: calls.saturating_sub(self.counters.sum(SLOW)),
            batches,
            batched_stamps: batched,
            shard_stamps: vec![stamps],
            ..Default::default()
        }
    }

    /// Reserves `k` **consecutive** timestamps with a single successful
    /// CAS on the cached maximum — the batched `getTS` amortization:
    /// one atomic RMW (plus one register write) hands out `k` stamps,
    /// so the per-stamp contention cost shrinks by `k`.
    ///
    /// The call CAS-loops `m -> m + k` on the cached maximum (the loop
    /// is the only retry — there is no collect fallback on this path),
    /// then writes `m + k` to the caller's register and returns the
    /// batch `m+1 ..= m+k`.
    ///
    /// # Uniqueness and ordering
    ///
    /// Every reservation wins its interval `(m, m+k]` with a CAS from
    /// `m`: no two successful CASes share a starting value, and the
    /// cache is monotone (I1), so intervals from *all* batch calls and
    /// all fast-path singles are pairwise disjoint — the stamps they
    /// issue are globally unique, not merely ordered. Only the
    /// collect fallback of [`get_ts`](LongLivedTimestamp::get_ts) (and
    /// the register-only collect the replay harness drives) can
    /// duplicate a concurrent reservation's value, exactly as two
    /// concurrent collect calls could before; the timestamp property is
    /// indifferent to it.
    ///
    /// The invariants I1–I4 of the `getTS` body (module docs) carry over
    /// with `k` in place of 1: completion publishes (the winning CAS itself
    /// made the cache `>= m+k`, I2), the register covers the batch top
    /// (I3; the write is monotone because the reservation base `m` is
    /// at least the cache value this process's previous call
    /// published), so a `getTS` starting after this call returns
    /// strictly more than `m + k` — every stamp in the batch is
    /// ordered before it.
    ///
    /// # Errors
    ///
    /// [`GetTsError::PidOutOfRange`] if `pid >= processes`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (an empty reservation is a caller bug).
    pub fn get_ts_batch(&self, pid: usize, k: u32) -> Result<StampBatch, GetTsError> {
        let n = self.register_count();
        if pid >= n {
            return Err(GetTsError::PidOutOfRange { pid, processes: n });
        }
        assert!(k >= 1, "batch reservation needs k >= 1");
        let k = u64::from(k);
        let mut m = self.cached_max.load(Ordering::Acquire);
        let mut first_attempt = true;
        loop {
            match self
                .cached_max
                .compare_exchange(m, m + k, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => {
                    m = now;
                    first_attempt = false;
                }
            }
        }
        self.write_register(pid, m + k);
        if !first_attempt {
            self.counters.add(pid, SLOW, 1);
        }
        if k > 1 {
            self.counters.add(pid, BATCHES, 1);
            self.counters.add(pid, BATCHED, k);
        }
        Ok(StampBatch::new(m + 1, m + k))
    }

    /// `getTS` for `pid` on `words` — this object or a view of it: a
    /// collect is metered as one sweep and counted as slow.
    pub(crate) fn get_ts_on<S>(&self, words: &S, pid: usize) -> Result<Timestamp, GetTsError>
    where
        S: words::Words<Point = Point, Halt = Infallible>,
    {
        let n = self.register_count();
        if pid >= n {
            return Err(GetTsError::PidOutOfRange { pid, processes: n });
        }
        let Ok((t, fast)) = get_ts(words, pid);
        if !fast {
            self.meter.record_sweep();
            self.counters.add(pid, SLOW, 1);
        }
        Ok(Timestamp::scalar(t))
    }

    /// Read-only observation: the cached maximum, as a timestamp, from
    /// a single `Acquire` load.
    ///
    /// Contract (invariants I1/I2/I4 of the `getTS` body, in the module
    /// docs): the result is monotone across reads, `>=` the value of
    /// every `get_ts` call completed before the read, and a strict lower
    /// bound on every timestamp a *later*
    /// [`get_ts`](LongLivedTimestamp::get_ts) call can return — both its
    /// branches start from a cache observation at least this large.
    pub fn read_max(&self) -> Timestamp {
        Timestamp::scalar(self.cached_max.load(Ordering::Acquire))
    }

    /// Read-only full collect: the maximum value currently in any
    /// register, without consulting the cache. Costs `n` metered reads;
    /// kept for diagnostics and for benchmarking against
    /// [`read_max`](Self::read_max).
    pub fn read_max_collect(&self) -> Timestamp {
        self.meter.record_sweep();
        let max = self.registers.registers().iter().map(|r| r.read());
        Timestamp::scalar(max.max().unwrap_or(0))
    }
}

/// Where a collect-max call is, with the locals it still reads. The
/// fast path names no point: its poised access says where it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// Collecting, with the maximum so far.
    Collect(u64),
    /// Writing the collected maximum plus one to the own register.
    Collected,
    /// Publishing the call's timestamp into the cache.
    Publish(u64),
}

/// `getTS` for `pid`: the timestamp, and whether the call took the fast
/// path, or the storage's halt.
pub(crate) fn get_ts<S: words::Words<Point = Point>>(
    s: &S,
    pid: usize,
) -> Result<(u64, bool), S::Halt> {
    let mut max = 0;
    if S::CACHE {
        let m = s.load_cache()?;
        match s.cas_cache(m, m + 1)? {
            // We advanced the cache m -> m+1 ourselves, so m+1 is
            // fresh. Publish it in our register for collectors (I3).
            Ok(_) => {
                s.write(pid, m + 1)?;
                return Ok((m + 1, true));
            }
            // Someone advanced the cache under us: collect, seeded with
            // the value the failed CAS observed (I4).
            Err(now) => max = now,
        }
    }
    for j in 0..s.registers() {
        s.at(Point::Collect(max));
        max = max.max(s.read(j)?);
    }
    let t = max + 1;
    s.at(Point::Collected);
    s.write(pid, t)?;
    if S::CACHE {
        // I2: a fetch-max spelled out as a CAS chain.
        s.at(Point::Publish(t));
        let mut cur = s.load_cache()?;
        while cur < t {
            match s.cas_cache(cur, t)? {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }
    Ok((t, false))
}

impl<B: RegisterBackend<u64>> words::Words for CollectMax<B> {
    const CACHE: bool = true;
    type Halt = Infallible;
    type Point = Point;

    fn registers(&self) -> usize {
        self.register_count()
    }

    fn read(&self, j: usize) -> Result<u64, Infallible> {
        Ok(self.registers.registers()[j].read())
    }

    fn write(&self, j: usize, value: u64) -> Result<(), Infallible> {
        self.write_register(j, value);
        Ok(())
    }

    fn load_cache(&self) -> Result<u64, Infallible> {
        Ok(self.cached_max.load(Ordering::Acquire))
    }

    fn cas_cache(&self, current: u64, new: u64) -> Result<Result<u64, u64>, Infallible> {
        let cache = &self.cached_max;
        Ok(cache.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire))
    }
}

/// A [`CollectMax`] without its cache: `getTS` on it is the classic
/// collect, the algorithm of `ts_core::model::CollectMaxModel::new`.
///
/// One access is not the algorithm's: a register write also publishes
/// its value into the cache with a silent `fetch_max`, so a later
/// fast-path call on the object still sees every completed call (I2).
/// The cache never feeds back into this view, so the silent access
/// changes no observation.
pub(crate) struct Registers<'a, B: RegisterBackend<u64>>(pub(crate) &'a CollectMax<B>);

impl<B: RegisterBackend<u64>> words::Words for Registers<'_, B> {
    type Halt = Infallible;
    type Point = Point;

    fn registers(&self) -> usize {
        self.0.register_count()
    }

    fn read(&self, j: usize) -> Result<u64, Infallible> {
        words::Words::read(self.0, j)
    }

    fn write(&self, j: usize, value: u64) -> Result<(), Infallible> {
        self.0.write_register(j, value);
        self.0.cached_max.fetch_max(value, Ordering::AcqRel);
        Ok(())
    }
}

impl<B: RegisterBackend<u64>> LongLivedTimestamp for CollectMax<B> {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        self.get_ts_on(self, pid)
    }

    fn processes(&self) -> usize {
        self.register_count()
    }

    fn registers(&self) -> usize {
        self.register_count()
    }
}

impl<B: RegisterBackend<u64>> fmt::Debug for CollectMax<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectMax")
            .field("processes", &self.register_count())
            .field("calls", &self.calls())
            .field("fast_path_hits", &self.fast_path_hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::Gated;
    use crate::workload::StepGate;
    use std::sync::Arc;

    #[test]
    fn sequential_calls_increase() {
        let ts = CollectMax::new(3);
        let mut last = Timestamp::scalar(0);
        for round in 0..5 {
            for p in 0..3 {
                let t = ts.get_ts(p).unwrap();
                assert!(
                    Timestamp::compare(&last, &t),
                    "round {round} p{p}: {last} !< {t}"
                );
                last = t;
            }
        }
        assert_eq!(ts.calls(), 15);
        // Solo, every CAS succeeds: all 15 calls take the fast path.
        assert_eq!(ts.fast_path_hits(), 15);
    }

    #[test]
    fn epoch_backend_behaves_identically_sequentially() {
        let ts = EpochCollectMax::with_backend(3);
        let mut last = Timestamp::scalar(0);
        for p in [0usize, 1, 2, 0, 1, 2] {
            let t = ts.get_ts(p).unwrap();
            assert!(Timestamp::compare(&last, &t));
            last = t;
        }
        assert_eq!(ts.calls(), 6);
    }

    #[test]
    fn same_process_repeats_fine() {
        let ts = CollectMax::new(1);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(0).unwrap();
        assert!(Timestamp::compare(&a, &b));
    }

    #[test]
    fn out_of_range_pid_is_rejected() {
        let ts = CollectMax::new(2);
        assert!(ts.get_ts(2).is_err());
        assert!(ts.get_ts_on(&Registers(&ts), 2).is_err());
    }

    #[test]
    fn uses_exactly_n_registers() {
        let ts = CollectMax::new(5);
        for p in 0..5 {
            ts.get_ts(p).unwrap();
        }
        assert_eq!(ts.meter().snapshot().registers_written(), 5);
    }

    #[test]
    fn classic_path_still_orders_and_feeds_the_fast_path() {
        let ts = CollectMax::new(2);
        // Classic collect path completes with 3...
        let a = ts.get_ts_on(&Registers(&ts), 0).unwrap();
        let b = ts.get_ts_on(&Registers(&ts), 1).unwrap();
        // ...and the silent fetch_max must make the fast path see it.
        let c = ts.get_ts(0).unwrap();
        assert!(Timestamp::compare(&a, &b));
        assert!(
            Timestamp::compare(&b, &c),
            "fast path returned a max stale against the classic path: {b} !< {c}"
        );
        assert_eq!(ts.read_max(), c);
    }

    #[test]
    fn read_max_covers_every_completed_call() {
        let ts = CollectMax::new(3);
        let mut top = Timestamp::scalar(0);
        for p in [0usize, 2, 1, 0] {
            top = ts.get_ts(p).unwrap();
            let seen = ts.read_max();
            assert!(
                !Timestamp::compare(&seen, &top),
                "read_max {seen} fell below completed call {top}"
            );
        }
        assert_eq!(ts.read_max_collect(), top);
        assert_eq!(ts.read_max(), top);
    }

    #[test]
    fn gated_calls_announce_the_documented_access_sequence() {
        let gate = StepGate::new();
        gate.release_all();
        let ts = CollectMax::new(2);
        let t = ts.get_ts_on(&Gated::new(&ts, &gate), 0).unwrap();
        assert_eq!(t, Timestamp::scalar(1));
        // Solo fast path: cache load, CAS, own write.
        assert_eq!(gate.progress().announced, 3);
        assert_eq!(ts.fast_path_hits(), 1);
        // Register-only: two reads and the own write.
        ts.get_ts_on(&Gated::new(&Registers(&ts), &gate), 1)
            .unwrap();
        assert_eq!(gate.progress().announced, 3 + 3);
    }

    #[test]
    fn barrier_separated_rounds_are_ordered_across_threads() {
        fn run<B: RegisterBackend<u64>>() {
            let n = 8;
            let ts = Arc::new(CollectMax::<B>::with_backend(n));
            let mut round_maxima = Vec::new();
            for _round in 0..4 {
                let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                    let handles: Vec<_> = (0..n)
                        .map(|p| {
                            let ts = Arc::clone(&ts);
                            s.spawn(move |_| ts.get_ts(p).unwrap())
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
                .unwrap();
                let max = outs.iter().copied().max().unwrap();
                let min = outs.iter().copied().min().unwrap();
                if let Some(prev_max) = round_maxima.last() {
                    assert!(
                        Timestamp::compare(prev_max, &min),
                        "cross-round ordering broken: {prev_max} !< {min}"
                    );
                }
                round_maxima.push(max);
            }
        }
        run::<PackedBackend>();
        run::<EpochBackend>();
    }

    #[test]
    fn batch_reserves_consecutive_stamps_after_the_current_max() {
        let ts = CollectMax::new(2);
        let a = ts.get_ts(0).unwrap(); // 1
        let batch: Vec<Timestamp> = ts.get_ts_batch(1, 4).unwrap().collect();
        assert_eq!(
            batch,
            (2..=5).map(Timestamp::scalar).collect::<Vec<_>>(),
            "batch must be consecutive starting above the completed call"
        );
        assert!(Timestamp::compare(&a, &batch[0]));
        // A later single call starts above the whole batch.
        let b = ts.get_ts(0).unwrap();
        assert_eq!(b, Timestamp::scalar(6));
        assert_eq!(ts.calls(), 3);
        let stats = ts.stats();
        assert_eq!(stats.stamps, 6);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.avg_batch_fill(), Some(4.0));
        assert_eq!(stats.fast_hit_ratio(), Some(1.0), "solo: every CAS wins");
    }

    #[test]
    fn batch_of_one_matches_single_issue_semantics() {
        let ts = CollectMax::new(1);
        let only: Vec<Timestamp> = ts.get_ts_batch(0, 1).unwrap().collect();
        assert_eq!(only, vec![Timestamp::scalar(1)]);
        // k = 1 is not counted as a batch (no amortization happened).
        assert_eq!(ts.stats().batches, 0);
        assert_eq!(ts.read_max(), Timestamp::scalar(1));
    }

    #[test]
    fn batch_rejects_bad_pid_and_publishes_its_top() {
        let ts = CollectMax::new(2);
        assert!(ts.get_ts_batch(2, 4).is_err());
        let batch = ts.get_ts_batch(0, 3).unwrap();
        assert_eq!(batch.first_stamp(), Timestamp::scalar(1));
        assert_eq!(batch.last_stamp(), Timestamp::scalar(3));
        assert_eq!(batch.remaining(), 3);
        // The register and cache both cover the batch top, so a
        // collector started after the call sees all three stamps.
        assert_eq!(ts.read_max(), Timestamp::scalar(3));
        assert_eq!(ts.read_max_collect(), Timestamp::scalar(3));
    }

    #[test]
    fn batch_first_stamp_survives_consumption() {
        let ts = CollectMax::new(1);
        let mut batch = ts.get_ts_batch(0, 3).unwrap();
        batch.next().unwrap();
        assert_eq!(batch.first_stamp(), Timestamp::scalar(1));
        batch.by_ref().for_each(drop);
        assert_eq!(batch.remaining(), 0);
        assert_eq!(
            batch.first_stamp(),
            Timestamp::scalar(1),
            "batch held 1..=3"
        );
    }

    #[test]
    fn concurrent_batches_never_overlap() {
        use std::collections::HashSet;
        let n = 4;
        let per_thread = 200u32;
        let ts = Arc::new(CollectMax::<PackedBackend>::with_backend(n));
        let all: Vec<Vec<u64>> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let ts = Arc::clone(&ts);
                    s.spawn(move |_| {
                        let mut got = Vec::new();
                        for i in 0..per_thread {
                            let k = 1 + ((p as u32 + i) % 5);
                            got.extend(ts.get_ts_batch(p, k).unwrap().map(|t| t.rnd));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let flat: Vec<u64> = all.into_iter().flatten().collect();
        let unique: HashSet<u64> = flat.iter().copied().collect();
        assert_eq!(unique.len(), flat.len(), "batch reservations overlapped");
    }

    #[test]
    fn mixed_fast_and_classic_paths_stay_ordered_across_threads() {
        // Half the threads use the fast path, half the classic collect;
        // barrier-separated rounds must stay ordered regardless of
        // which path produced which value.
        let n = 6;
        let ts = Arc::new(CollectMax::<PackedBackend>::with_backend(n));
        let mut prev_round_max: Option<Timestamp> = None;
        for _round in 0..8 {
            let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|p| {
                        let ts = Arc::clone(&ts);
                        s.spawn(move |_| {
                            if p % 2 == 0 {
                                ts.get_ts(p).unwrap()
                            } else {
                                ts.get_ts_on(&Registers(&ts), p).unwrap()
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            let max = *outs.iter().max().unwrap();
            let min = *outs.iter().min().unwrap();
            if let Some(prev) = prev_round_max {
                assert!(
                    Timestamp::compare(&prev, &min),
                    "mixed-path ordering broken: {prev} !< {min}"
                );
            }
            prev_round_max = Some(max);
        }
    }
}
