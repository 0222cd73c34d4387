//! Section 7 extension: unbounded invocations with registers acquired on
//! demand.
//!
//! The paper remarks that Algorithm 4 "generalizes even to the situation
//! where the number of getTS() method invocations is not bounded,
//! provided that the system could acquire additional registers as
//! needed. In this case however, progress would be non-blocking only
//! instead of wait-free." This module makes that concrete: no bound `M`
//! is ever fixed, and the while-loop, invalidation pass and scan are
//! unchanged — literally, since [`GrowableTimestamp`] runs the same
//! `getTS` body as [`BoundedTimestamp`](crate::BoundedTimestamp) (see
//! [`crate::bounded`]) over storage of its own.
//!
//! # Storage
//!
//! - **Registers** are `AtomicU64` words in a [`SegTable`], read and
//!   written with `SeqCst`. A word is `0` for `⊥`, or
//!   `[rnd : 32][writer + 1 : 32]`, where `writer` is the call's
//!   admission index (its value of the [`calls`](GrowableTimestamp::calls)
//!   counter). As in the bounded object, the caller's [`GetTsId`] plays
//!   no part, so callers may reuse ids.
//! - **Line-15 sequences** live in write-once cells indexed by writer,
//!   in a second [`SegTable`]. A cell is published before its register
//!   store, so a reader that sees the word finds the cell.
//! - **The scan** of line 13 is the shared body's double collect of
//!   `R[1..=myrnd+1]` that compares words (see
//!   [`crate::bounded`]). It needs nothing from the storage beyond
//!   word reads, so these registers need no padding or stamps either.
//!
//! No access allocates except a segment's first touch and an opener's
//! one cell, and none takes an `Arc`, pins an epoch or defers a free.
//!
//! # Costs and limits
//!
//! - **Progress.** Each individual `getTS` can be overtaken forever by a
//!   stream of phase-opening writes (its scan and line-6 checks keep
//!   failing), so the object is non-blocking (some call always
//!   completes) rather than wait-free. Segment allocation uses
//!   `OnceLock` initialization, whose one-time race is the "system
//!   acquires registers" step the paper hypothesizes.
//! - **Heap.** Registers stay `O(√M)` after `M` calls, but the cells
//!   grow by one per call plus the opening sequences (each `O(√M)`
//!   words, one per phase): `O(M)` bytes in all, freed with the object.
//!   The earlier epoch-register version kept only `O(√M)` live; this
//!   is the trade the bounded object makes inside its fixed budget.
//! - **Calls.** A writer index must fit the word's 32-bit writer field,
//!   so an object serves at most 2³² − 1 calls.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use ts_register::SegTable;

use crate::bounded::{get_ts, OverwritePolicy, Storage};
use crate::ids::GetTsId;
use crate::timestamp::Timestamp;

/// Calls one object serves: writer indices `0..MAX_CALLS` keep
/// `writer + 1` within 32 bits.
const MAX_CALLS: u64 = u32::MAX as u64;

/// Unbounded-`M` timestamp object (Section 7): Algorithm 4 over a
/// register bank that grows on demand.
///
/// `getTS` never fails and there is no invocation budget; the registers
/// touched after `M` calls are still `O(√M)` (the phase accounting of
/// Section 6.3 does not depend on `m` being fixed in advance).
///
/// # Example
///
/// ```
/// use ts_core::{GetTsId, GrowableTimestamp, Timestamp};
///
/// let ts = GrowableTimestamp::new();
/// let a = ts.get_ts_with_id(GetTsId::new(0, 0));
/// let b = ts.get_ts_with_id(GetTsId::new(1, 0));
/// assert!(Timestamp::compare(&a, &b));
/// ```
pub struct GrowableTimestamp {
    /// `R[1..]` as words: `0` for `⊥`, else `rnd` over `writer + 1`.
    regs: SegTable<AtomicU64>,
    /// Each opener's line-15 sequence, by writer index.
    line15: SegTable<OnceLock<Box<[u32]>>>,
    /// One past the highest register index ever accessed.
    touched: AtomicUsize,
    calls: AtomicU64,
}

impl GrowableTimestamp {
    /// Creates an empty object (no registers allocated yet).
    pub fn new() -> Self {
        Self {
            regs: SegTable::new(),
            line15: SegTable::new(),
            touched: AtomicUsize::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Total `getTS` calls served.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Highest register index ever touched (reads or writes) — the
    /// object's space consumption.
    pub fn registers_touched(&self) -> usize {
        self.touched.load(Ordering::Relaxed)
    }

    /// Read-only probe of the current round: walks `R[1], R[2], ...`
    /// until the first `⊥` register and returns how many non-`⊥`
    /// registers it saw (lines 1–4 of Algorithm 4 without the rest of
    /// the call). Used as the workload engine's *scan* operation.
    ///
    /// Genuinely read-only: it neither materializes lazily-allocated
    /// segments nor bumps [`registers_touched`](Self::registers_touched)
    /// (an unallocated register is by definition `⊥`), so scan-heavy
    /// workloads cannot distort the object's space accounting.
    pub fn probe_round(&self) -> usize {
        (0..)
            .take_while(|&i| {
                self.regs
                    .get(i)
                    .is_some_and(|r| r.load(Ordering::SeqCst) != 0)
            })
            .count()
    }

    /// Algorithm 4 `getTS(ID)` without an invocation budget.
    ///
    /// `id` is a label for the caller's own records: calls are keyed by
    /// admission order (see the module docs). Never fails; progress is
    /// non-blocking.
    ///
    /// # Panics
    ///
    /// Panics on the 2³²-th call: its writer index would not fit a
    /// register word.
    pub fn get_ts_with_id(&self, _id: GetTsId) -> Timestamp {
        let me = self.calls.fetch_add(1, Ordering::Relaxed);
        assert!(
            me < MAX_CALLS,
            "GrowableTimestamp serves at most 2^32 - 1 calls"
        );
        let Ok((ts, ..)) = get_ts(self, me as usize, OverwritePolicy::Paper);
        ts
    }

    /// `compare` — Algorithm 3.
    pub fn compare(t1: &Timestamp, t2: &Timestamp) -> bool {
        Timestamp::compare(t1, t2)
    }

    /// Register `R[j]`, allocated on first touch and counted in
    /// [`registers_touched`](Self::registers_touched).
    fn register(&self, j: usize) -> &AtomicU64 {
        if self.touched.load(Ordering::Relaxed) < j {
            self.touched.fetch_max(j, Ordering::Relaxed);
        }
        self.regs.get_or_init(j - 1)
    }
}

impl Storage for GrowableTimestamp {
    const WRITER_BITS: u32 = 32;
    type Halt = Infallible;

    fn registers(&self) -> usize {
        usize::MAX
    }

    fn read(&self, j: usize) -> Result<u64, Infallible> {
        Ok(self.register(j).load(Ordering::SeqCst))
    }

    fn write(&self, j: usize, word: u64, _opens_phase: bool) -> Result<(), Infallible> {
        self.register(j).store(word, Ordering::SeqCst);
        Ok(())
    }

    fn line15(&self, writer: usize) -> &OnceLock<Box<[u32]>> {
        self.line15.get_or_init(writer)
    }
}

impl Default for GrowableTimestamp {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for GrowableTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrowableTimestamp")
            .field("calls", &self.calls())
            .field("registers_touched", &self.registers_touched())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundedTimestamp;
    use std::sync::Arc;

    #[test]
    fn sequential_timestamps_strictly_increase_without_budget() {
        let ts = GrowableTimestamp::new();
        let mut last: Option<Timestamp> = None;
        for k in 0..200u32 {
            let t = ts.get_ts_with_id(GetTsId::new(0, k));
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "call {k}");
            }
            last = Some(t);
        }
        assert_eq!(ts.calls(), 200);
    }

    #[test]
    fn space_grows_like_sqrt_of_calls() {
        let ts = GrowableTimestamp::new();
        for k in 0..400u32 {
            ts.get_ts_with_id(GetTsId::new(0, k));
        }
        let touched = ts.registers_touched();
        // Sequential runs use ~√(2M) registers; 2√M + slack is a safe cap.
        let cap = (2.0 * 400f64.sqrt()) as usize + 2;
        assert!(
            touched <= cap,
            "registers touched {touched} exceeds O(√M) cap {cap}"
        );
        assert!(touched >= 20, "suspiciously few registers: {touched}");
    }

    #[test]
    fn probe_round_is_observation_only() {
        let ts = GrowableTimestamp::new();
        assert_eq!(ts.probe_round(), 0, "fresh object has no open round");
        assert_eq!(ts.registers_touched(), 0, "probe must not allocate");
        for k in 0..50u32 {
            ts.get_ts_with_id(GetTsId::new(0, k));
        }
        let touched = ts.registers_touched();
        let round = ts.probe_round();
        assert!(round >= 1 && round <= touched, "round {round} of {touched}");
        assert_eq!(
            ts.registers_touched(),
            touched,
            "probe inflated the space metric"
        );
    }

    #[test]
    fn sequential_stamps_match_the_bounded_object() {
        // Same body, same schedule: the growable object issues exactly
        // the bounded object's stamps, and touches the registers the
        // E7 table reports.
        let growable = GrowableTimestamp::new();
        let bounded = BoundedTimestamp::with_budget(4096);
        let mut touched = Vec::new();
        for k in 0..4096u32 {
            let id = GetTsId::new(k, 0);
            let t = growable.get_ts_with_id(id);
            assert_eq!(Ok(t), bounded.get_ts_with_id(id), "call {k}");
            if [16, 64, 256, 1024, 4096].contains(&(k + 1)) {
                touched.push(growable.registers_touched());
            }
        }
        assert_eq!(touched, [6, 12, 24, 46, 91]);
    }

    #[test]
    fn reused_ids_get_the_bounded_objects_increasing_stamps() {
        // Calls are keyed by admission order, so one id reused for
        // every call still gets strictly increasing stamps.
        let growable = GrowableTimestamp::new();
        let bounded = BoundedTimestamp::with_budget(10);
        let id = GetTsId::new(0, 0);
        let mut last: Option<Timestamp> = None;
        for k in 0..10 {
            let t = growable.get_ts_with_id(id);
            assert_eq!(Ok(t), bounded.get_ts_with_id(id), "call {k}");
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "call {k}: {prev} !< {t}");
            }
            last = Some(t);
        }
    }

    #[test]
    fn concurrent_rounds_respect_happens_before() {
        // Once with distinct ids, once with every call reusing one id.
        for shared_id in [false, true] {
            let ts = Arc::new(GrowableTimestamp::new());
            let mut prev_round_max: Option<Timestamp> = None;
            for round in 0..3u32 {
                let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                    let handles: Vec<_> = (0..8u32)
                        .map(|i| {
                            let ts = Arc::clone(&ts);
                            let id = if shared_id {
                                GetTsId::new(0, 0)
                            } else {
                                GetTsId::new(i, round)
                            };
                            s.spawn(move |_| ts.get_ts_with_id(id))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
                .unwrap();
                let min = *outs.iter().min().unwrap();
                let max = *outs.iter().max().unwrap();
                if let Some(pm) = prev_round_max {
                    assert!(
                        Timestamp::compare(&pm, &min),
                        "shared id {shared_id}, round {round}: {pm} !< {min}"
                    );
                }
                prev_round_max = Some(max);
            }
        }
    }
}
