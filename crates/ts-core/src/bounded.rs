//! Algorithm 4: the `⌈2√M⌉`-register bounded-concurrency timestamp
//! object (Section 6 of the paper).
//!
//! For a bound `M` on the total number of `getTS()` invocations, the
//! object uses `m = ⌈2√M⌉` multi-writer registers `R[1..m]`, each holding
//! `⊥` or a pair `⟨seq, rnd⟩` where `seq` is a sequence of getTS-ids and
//! `rnd` a positive integer. Specialized to one-shot timestamps
//! (`M = n`) this realizes Theorem 1.3 and matches the `√(2n) − log n`
//! lower bound of Theorem 1.2 asymptotically.
//!
//! The execution proceeds in *phases*. During phase `k` registers
//! `R[1..k−1]` are non-`⊥`; a `getTS` whose while-loop measures
//! `myrnd = k − 1` either finds a *valid* register `R[j]` (its last
//! writer equals the `j`-th entry recorded in `R[k−1]`... see line 7),
//! invalidates it and returns `(k − 1, j)`-style turn timestamps, or
//! discovers every register invalid, scans, opens phase `k` by writing
//! `R[k]` and returns `(k, 0)`.
//!
//! # Registers as words
//!
//! Each call has a *writer index*, unique per call and in `0..M`. On a
//! one-shot object ([`BoundedTimestamp::one_shot`]) it is the caller's
//! pid, which the one-shot guard already makes unique; on a budgeted
//! object it is the call's value of the admission counter that enforces
//! the budget. `R[1..m]` is one contiguous slice of `AtomicU64`s, read
//! and written `SeqCst`. The low 32 bits of each are the register's
//! word, `0` for `⊥` or `rnd` and `writer + 1` side by side; the high 32
//! bits are the epoch of its last write, which only the Section 6.3
//! accounting reads (below). The sequence a line-15 write carries lives
//! in a write-once cell of the writing call, one cell per writer index,
//! freed with the object. The cell is published before the register
//! store, so a reader that sees the word sees the cell. No write allocates except
//! an opener's one cell, and no access pins an epoch or defers a free.
//!
//! The registers are not padded. `CollectMax`'s registers are single-writer
//! and written by every call, so each sits on a line of its own and a
//! write invalidates no other writer's line. Algorithm 4's registers are
//! the opposite: multi-writer and read-mostly. A call reads the prefix
//! `R[1..=myrnd+1]` at least once and writes each register at most
//! once, and at most `2M` writes in all are invalidation writes (Claim
//! 6.13). Packing the registers lets a prefix read touch as few lines
//! as the prefix spans (`m = 16` registers fill 128 bytes), and since
//! the scan compares words (below) it needs no write stamps.
//!
//! Two facts make this the paper's algorithm and not an approximation
//! of it.
//!
//! - **Writer indices stand in for getTS-ids on lines 7–9.** A call
//!   writes each register at most once: each `j < myrnd` at most once
//!   on lines 8–11, plus `R[myrnd + 1]` on line 15. So a (register,
//!   writer) pair names one write, and "`last(R[j])` equals
//!   `r[myrnd].seq[j]`" holds exactly when the writer indices are
//!   equal. Only the writer field of a word is ever compared, so the
//!   caller's [`GetTsId`] plays no part beyond naming a one-shot pid.
//! - **Line 7 needs no branch.** An invalidation write to `R[j]` comes
//!   from a call whose lines 1–4 found `R[1..myrnd′]` non-`⊥` with
//!   `j < myrnd′`, so its writer had already read `R[j + 1]` non-`⊥`.
//!   A call that reads `R[myrnd]` and then `R[myrnd + 1] = ⊥` therefore
//!   cannot have read an invalidation write in `R[myrnd]`, because
//!   registers never return to `⊥`. So the `R[myrnd]` read of lines
//!   1–4 holds a line-15 value, the one with `rnd == myrnd`, and
//!   `r[myrnd].seq` is one cell lookup, checked with `expect`.
//!
//! The word is `[rnd : 12][writer + 1 : 20]`, which caps the budget at
//! [`BoundedTimestamp::MAX_BUDGET`]; `rnd < m ≤ 2048` then always fits.
//!
//! # Line 13: a double collect of the prefix
//!
//! The scan of line 13 collects `R[1..=myrnd+1]` until two consecutive
//! collects return the same words (the double collect of Afek et al.,
//! 1993). A call writes each register at most once, so no register ever
//! holds the same word twice: two equal collects saw no write land
//! between them, and the second is a linearizable view of the prefix.
//! Lines 14–15 read nothing above `R[myrnd + 1]`, so nothing above it is
//! collected. Each failed comparison saw a write land, and `M` calls
//! make finitely many writes, so the scan ends and the object stays
//! wait-free within its budget (Lemma 6.14).
//!
//! # Counting on the call's own record
//!
//! Every read the algorithm makes falls in one of four patterns: lines
//! 1–4 read `R[1..=myrnd+1]` once each, line 7 reads a prefix `R[1..=k]`
//! once each, line 6 reads `R[myrnd + 1]` some number of times, and each
//! collect reads `R[1..=myrnd+1]` once each. The body counts them as it
//! goes and returns them with its exit line: four numbers per call.
//!
//! Besides its line-15 cell, a call's bookkeeping lives in one unpadded
//! record per writer index: the one-shot `used` flag, the exit line,
//! those four read numbers, and the call's writes and invalidation
//! writes. Only the call's own thread writes its record, with plain
//! `Relaxed` stores (the one-writer rule of
//! [`SlotCounters`](crate::SlotCounters)), so a call counts its reads
//! with no RMW and bumps no counter another call bumps. It files its
//! reads and exit line when it returns.
//!
//! Which registers a call wrote does not fit its record: a bit per
//! register would cost 256 bytes a call at
//! [`MAX_BUDGET`](BoundedTimestamp::MAX_BUDGET). So a write also adds
//! one to its register's count in the writing thread's stripe of the
//! object's one write table, a [`StripedCounts`].
//!
//! A write is one `swap` of its register: the word under the current
//! epoch (the highest register a phase-opening write has gone to, or
//! the opened register for the opening write itself). It is an
//! invalidation write iff the epoch the swap returns differs: the
//! register's first write in the current visible phase. The
//! classification is thus ordered with the register's own store and
//! adds no access to it. Besides the swap, a write reads the epoch,
//! which changes only when a phase opens, makes one `fetch_add` on its
//! register's count in its thread's stripe of the write table, and
//! bumps its call's record with plain stores.
//!
//! [`BoundedTimestamp::meter`] rebuilds the per-register counts from
//! these: a register's reads are suffix sums over the records' prefix
//! reads, and its writes are the write table's.
//! [`BoundedTimestamp::phase_stats`] sums the records, and counts as
//! written the registers whose word is no longer the never-written one,
//! which a write never stores. The write totals of the two thus come
//! from different sources, the table and the records, and agree once
//! the object is quiescent.
//!
//! # One body, three storages
//!
//! The algorithm is written once, as a function generic over a private
//! storage trait: reading and writing `R[j]` as a word, the line-15 cell
//! of a writer, and the width of the word's writer field. The scan of
//! line 13 is part of the body. [`BoundedTimestamp`] is one storage:
//! the contiguous registers, the per-call records and the Section 6.3
//! phase clock. [`GrowableTimestamp`](crate::GrowableTimestamp) is
//! the second: the Section 7 object, whose registers and cells grow on
//! demand. The third is the model checker's
//! [`BoundedModel`](crate::model::BoundedModel), whose storage replays
//! one call's logged observations and stops at its first access past
//! them.
//!
//! That stop is the trait's `Halt` type. A read or write returns
//! `Result<_, Halt>`, and the body passes a halt on with `?`, so the
//! model's halt carries the access the call is poised on. The two real
//! objects use [`Infallible`]: every access of theirs happens, the `?`s
//! compile away, and their code is what it would be without the seam.
//! The body names its program point and live locals before its
//! accesses (the trait's `at`), on which the model keys its states; the
//! real objects' `at` does nothing. All three monomorphize, so none
//! pays for the others.
//!
//! This module also carries the paper's accounting instrumentation
//! (Section 6.3): phases, invalidation writes, and register usage are
//! counted so the bounds `Φ < 2√M` (Lemma 6.5) and `≤ 2M` invalidation
//! writes (Claim 6.13) can be checked against real executions.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use ts_register::{CachePadded, MeterSnapshot, StripedCounts};

use crate::error::GetTsError;
use crate::ids::GetTsId;
use crate::timestamp::Timestamp;
use crate::traits::OneShotTimestamp;

/// What to do at lines 10–11 when a register is found invalid.
///
/// The paper overwrites only when the stale value's round is older than
/// the current one (`R[j].rnd < myrnd`) — enough to pin the register
/// invalid for the rest of the phase without wasting writes. The
/// alternatives exist for the E9 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverwritePolicy {
    /// Overwrite iff `R[j].rnd < myrnd` (the paper's Algorithm 4).
    #[default]
    Paper,
    /// Overwrite every invalid register ("simple repair" — correct but
    /// write-heavier).
    Always,
    /// Never overwrite (the bug discussed in Section 6.1: a stale
    /// phase-opening write can re-validate invalidated registers and
    /// invert timestamps).
    Never,
}

/// One call's bookkeeping, by writer index. Only the call's own thread
/// writes it, so its counts are bumped and filed with plain `Relaxed`
/// stores (module docs).
///
/// Every count but `passes` is at most `m ≤ 2048`. `passes` is at most
/// three plus the call's failed collects, each of which saw one of the
/// at most `M · m < 2³¹` writes land.
///
/// A record is all atomics, so a slice of them is built as zeroes. The
/// line-15 cells sit in a slice of their own: with a `OnceLock` in each
/// record, building and dropping 64 records took 7 times as long
/// (500 ns against 74 ns on an x86-64 container).
#[derive(Default)]
struct Record {
    /// One-shot guard: set by the call of the pid this record belongs to.
    used: AtomicBool,
    /// `0` until the call returns, then its [`Exit`].
    exit: AtomicU8,
    /// The call's register writes.
    writes: AtomicU16,
    /// The call's invalidation writes.
    invalidations: AtomicU16,
    /// The call's [`Reads`], `0`s until it returns.
    hi: AtomicU16,
    passes: AtomicU32,
    line7: AtomicU16,
    line6: AtomicU16,
}

impl Record {
    /// Files a returned call's exit line and reads.
    fn file(&self, exit: Exit, reads: &Reads) {
        self.hi.store(reads.hi as u16, Ordering::Relaxed);
        self.passes.store(reads.passes as u32, Ordering::Relaxed);
        self.line7.store(reads.line7 as u16, Ordering::Relaxed);
        self.line6.store(reads.line6 as u16, Ordering::Relaxed);
        self.exit.store(exit as u8, Ordering::Relaxed);
    }

    /// The reads filed by [`file`](Record::file): all `0` for a call
    /// that has not returned.
    fn reads(&self) -> Reads {
        Reads {
            hi: self.hi.load(Ordering::Relaxed).into(),
            passes: self.passes.load(Ordering::Relaxed).into(),
            line7: self.line7.load(Ordering::Relaxed).into(),
            line6: self.line6.load(Ordering::Relaxed).into(),
        }
    }
}

/// Adds one to a count of the caller's own record.
fn bump(count: &AtomicU16) {
    count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Accounting snapshot for one [`BoundedTimestamp`]'s history.
///
/// Phases are counted at *visible* granularity (a phase is counted when
/// its opening register write lands, not at the opening scan), which
/// can only under-count invalidation writes relative to the paper's
/// definition; the paper's upper bounds still apply. A write is
/// classified by the same atomic swap that stores it (module docs), so
/// the classification is ordered with the register's own store.
///
/// The counts are summed from per-call records, so they are exact once
/// the object is quiescent (every call that started has returned, as
/// after joining its threads); a snapshot taken while calls run may miss
/// those still running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PhaseStats {
    /// Register budget `m = ⌈2√M⌉`.
    pub m: usize,
    /// Invocation budget `M`.
    pub budget: usize,
    /// `getTS` calls completed so far (at most `M`; calls refused with
    /// an error are not counted).
    pub calls: u64,
    /// Completed phases Φ (phase-opening writes).
    pub phases: u64,
    /// Invalidation writes (first write per register per visible phase).
    pub invalidation_writes: u64,
    /// All register writes.
    pub total_writes: u64,
    /// Double-collect scans executed.
    pub scans: u64,
    /// Calls that returned at line 12 (saw the next phase open early).
    pub early_returns: u64,
    /// Calls that returned a turn timestamp at line 9.
    pub turn_returns: u64,
    /// Registers written at least once.
    pub registers_written: usize,
}

impl PhaseStats {
    /// Claim 6.13: at most `2M` invalidation writes.
    pub fn invalidation_bound_holds(&self) -> bool {
        self.invalidation_writes <= 2 * self.budget as u64
    }

    /// Lemma 6.5: fewer than `2√M` phases.
    pub fn phase_bound_holds(&self) -> bool {
        (self.phases as f64) < 2.0 * (self.budget as f64).sqrt() + f64::EPSILON
    }

    /// Theorem 1.3 specialization: at most `⌈2√M⌉` registers written.
    pub fn space_bound_holds(&self) -> bool {
        self.registers_written <= self.m
    }
}

/// The bounded-concurrency timestamp object of Algorithm 4.
///
/// Wait-free for up to `M` `getTS()` invocations using `⌈2√M⌉`
/// registers; `compare` is Algorithm 3 ([`Timestamp::compare`]).
///
/// # Example
///
/// ```
/// use ts_core::{BoundedTimestamp, GetTsId, Timestamp};
///
/// // Budget of 9 calls from any mix of processes: ⌈2√9⌉ = 6 registers.
/// let ts = BoundedTimestamp::with_budget(9);
/// assert_eq!(ts.registers(), 6);
/// let a = ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
/// let b = ts.get_ts_with_id(GetTsId::new(0, 1)).unwrap();
/// assert!(Timestamp::compare(&a, &b));
/// ```
pub struct BoundedTimestamp {
    /// `R[1..m]`: the epoch of each register's last write over its
    /// word, `0` for `⊥` or `rnd` over `writer + 1`.
    regs: Box<[AtomicU64]>,
    /// One record per writer index.
    records: Box<[Record]>,
    /// `r.seq` of each writer's line-15 write, if it opened a phase: the
    /// writer fields of `R[1..myrnd]` in its scan. The writer's own id,
    /// `last(seq)`, is the written word's writer field.
    line15: Box<[OnceLock<Box<[u32]>>]>,
    /// Writes per register, `R[i + 1]` at index `i`.
    writes: StripedCounts,
    m: usize,
    budget: usize,
    policy: OverwritePolicy,
    /// Built with [`BoundedTimestamp::one_shot`]: calls are keyed by pid.
    one_shot: bool,
    /// The admission counter of a budgeted object. Padded, like
    /// `epoch`, so the counters calls bump do not share a line with the
    /// fields every call reads.
    invocations: CachePadded<AtomicU64>,
    /// The Section 6.3 visible phase: the highest register a
    /// phase-opening write has gone to.
    epoch: CachePadded<AtomicU64>,
}

/// `⌈2√M⌉` computed exactly: the least `m` with `m² ≥ 4M`.
pub(crate) fn registers_for_budget(budget: usize) -> usize {
    let target = 4u128 * budget as u128;
    let mut m = (target as f64).sqrt() as u128;
    while m * m < target {
        m += 1;
    }
    while m > 0 && (m - 1) * (m - 1) >= target {
        m -= 1;
    }
    m as usize
}

/// Low bits of a [`BoundedTimestamp`] register word holding
/// `writer + 1`; `rnd` sits above.
pub(crate) const WRITER_BITS: u32 = 20;
const WRITER_MASK: u32 = (1 << WRITER_BITS) - 1;
/// The register word of `⊥`.
const BOT: u64 = 0;
/// A [`BoundedTimestamp`] register never written: `⊥` under an epoch
/// no write carries (epochs are register indices).
const UNWRITTEN: u64 = (u32::MAX as u64) << 32;

/// Where one Algorithm 4 object keeps its registers `R[1..]` and its
/// line-15 cells; [`get_ts`] is the algorithm over any of them.
///
/// A register is a word: `0` for `⊥`, or `rnd` above `writer + 1` in
/// the low [`WRITER_BITS`](Storage::WRITER_BITS) bits. A call writes
/// each register at most once (module docs), so a register never holds
/// the same non-`⊥` word twice.
pub(crate) trait Storage {
    /// Width of a word's `writer + 1` field.
    const WRITER_BITS: u32;

    /// Why an access did not happen, which ends the call there:
    /// [`Infallible`] for a storage whose every access happens.
    type Halt;

    /// Registers the object has: a call that finds all of them non-`⊥`
    /// has refuted Lemma 6.5.
    fn registers(&self) -> usize;

    /// Reads `R[j]` (the paper's 1-based index).
    fn read(&self, j: usize) -> Result<u64, Self::Halt>;

    /// Writes `word` to `R[j]`; `opens_phase` marks a line-15 write.
    fn write(&self, j: usize, word: u64, opens_phase: bool) -> Result<(), Self::Halt>;

    /// The write-once cell of writer `writer`'s line-15 sequence: the
    /// writer fields of `R[1..myrnd]` in its opening scan.
    fn line15(&self, writer: usize) -> &OnceLock<Box<[u32]>>;

    /// Names the program point of the next access and the locals the
    /// call still reads.
    fn at(&self, _point: Point<'_>) {}
}

/// Where an Algorithm 4 call is, with the locals it still reads.
pub(crate) enum Point<'a> {
    /// Lines 1–4, with the last non-`⊥` word read.
    Prefix { last: u64 },
    /// Lines 6, 7 and 11 at `j`; `last` is `R[myrnd]`.
    Loop { j: usize, last: u64 },
    /// Line 9.
    Turn,
    /// Line 13 over `R[1..=hi]`: `hi`, the view so far and, past the
    /// first collect, whether the current one has matched it.
    Scan(usize, &'a [u64], Option<bool>),
    /// Line 15.
    Open,
}

/// The register word of a write by `writer` in round `rnd`.
fn word<S: Storage>(rnd: usize, writer: usize) -> u64 {
    ((rnd as u64) << S::WRITER_BITS) | (writer as u64 + 1)
}

/// The `rnd` field of a register word.
pub(crate) fn rnd_of<S: Storage>(word: u64) -> usize {
    (word >> S::WRITER_BITS) as usize
}

/// The `writer + 1` field of a register word.
pub(crate) fn writer_field<S: Storage>(word: u64) -> u32 {
    (word & ((1 << S::WRITER_BITS) - 1)) as u32
}

/// Which line of Algorithm 4 a call returned from; `0` stands for a
/// call still running.
#[repr(u8)]
pub(crate) enum Exit {
    /// Line 9: a turn timestamp.
    Turn = 1,
    /// Line 12: the next phase opened during the for-loop.
    Early = 2,
    /// Line 16, after the scan of line 13.
    Scanned = 3,
}

/// Every register read of one call, in the four patterns Algorithm 4
/// reads in (module docs).
pub(crate) struct Reads {
    /// `myrnd + 1`: lines 1–4 and each collect read `R[1..=hi]`.
    hi: usize,
    /// Reads of `R[1..=hi]` in full: lines 1–4 plus every collect.
    passes: u64,
    /// Line 7 read `R[1..=line7]` once each.
    line7: usize,
    /// Line 6 read `R[hi]` this many times.
    line6: u64,
}

impl Reads {
    /// Adds these reads to `reads`, whose index `i` is `R[i + 1]`, and
    /// to `prefixes`, whose index `i` counts full reads of
    /// `R[1..=i + 1]`. Reads of a call that has not returned add nothing.
    fn add_to(&self, reads: &mut [u64], prefixes: &mut [u64]) {
        if self.hi == 0 {
            return;
        }
        prefixes[self.hi - 1] += self.passes;
        if self.line7 > 0 {
            prefixes[self.line7 - 1] += 1;
        }
        reads[self.hi - 1] += self.line6;
    }
}

/// Line 13: a double collect of `R[1..=hi]` that compares words (module
/// docs). Returns the view, `R[j]` at index `j - 1`, and the number of
/// collects.
fn scan<S: Storage>(storage: &S, hi: usize) -> Result<(Vec<u64>, u64), S::Halt> {
    // A loop, not a `collect` into `Result`: that adapter hints no
    // length, so the view would regrow on the hot path.
    let mut view = Vec::with_capacity(hi);
    for j in 1..=hi {
        storage.at(Point::Scan(hi, &view, None));
        view.push(storage.read(j)?);
    }
    let mut collects = 1;
    loop {
        collects += 1;
        let mut same = true;
        // Sliced to `hi`, so the indexing below needs no bounds checks.
        let seen = &mut view[..hi];
        for j in 1..=hi {
            storage.at(Point::Scan(hi, seen, Some(same)));
            let cur = storage.read(j)?;
            same &= cur == seen[j - 1];
            seen[j - 1] = cur;
        }
        if same {
            return Ok((view, collects));
        }
    }
}

/// Algorithm 4 `getTS` for the call with writer index `me`.
///
/// # Errors
///
/// Returns the storage's [`Halt`](Storage::Halt) from the first access
/// that did not happen.
///
/// # Panics
///
/// Panics if an execution exceeds `storage`'s registers (which would
/// falsify Lemma 6.5) — an internal invariant check, not an expected
/// failure mode.
pub(crate) fn get_ts<S: Storage>(
    storage: &S,
    me: usize,
    policy: OverwritePolicy,
) -> Result<(Timestamp, Exit, Reads), S::Halt> {
    let m = storage.registers();

    // Lines 1–4: find the non-⊥ prefix R[1..myrnd]. Of the values
    // r[1..myrnd] the paper records, only r[myrnd] is used again
    // (line 7), so the last word read stands for them.
    let mut last = BOT;
    let mut j = 1usize;
    loop {
        storage.at(Point::Prefix { last });
        let cur = storage.read(j)?;
        if cur == BOT {
            break;
        }
        last = cur;
        j += 1;
        assert!(
            j <= m,
            "space bound violated: all {m} registers non-⊥ (Lemma 6.5 refuted)"
        );
    }
    let myrnd = j - 1;
    let mut reads = Reads {
        hi: myrnd + 1,
        passes: 1,
        line7: 0,
        line6: 0,
    };

    // r[myrnd].seq: R[myrnd] holds the line-15 write opening phase
    // myrnd (see the module docs), whose cell was published before
    // the word this call read.
    let seq: &[u32] = if myrnd == 0 {
        &[]
    } else {
        (rnd_of::<S>(last) == myrnd)
            .then(|| {
                let writer = writer_field::<S>(last) as usize - 1;
                storage.line15(writer).get()
            })
            .flatten()
            .expect("R[myrnd] holds the line-15 write opening phase myrnd")
    };

    // Lines 5–12: look for the first valid register among R[1..myrnd-1].
    for j in 1..myrnd {
        // Line 6: has the next phase opened?
        storage.at(Point::Loop { j, last });
        reads.line6 += 1;
        if storage.read(myrnd + 1)? != BOT {
            // Line 12.
            let ts = Timestamp::new((myrnd + 1) as u64, 0);
            return Ok((ts, Exit::Early, reads));
        }
        // Lines 7–11: one read of R[j] serves both the validity
        // test (same writer as in r[myrnd].seq[j]) and the
        // staleness test.
        reads.line7 = j;
        let cur = storage.read(j)?;
        if writer_field::<S>(cur) == seq[j - 1] {
            // Lines 8–9: R[j] is valid — invalidate it, take turn j.
            storage.at(Point::Turn);
            storage.write(j, word::<S>(myrnd, me), false)?;
            let ts = Timestamp::new(myrnd as u64, j as u64);
            return Ok((ts, Exit::Turn, reads));
        }
        let overwrite = match policy {
            // Line 10: only a write from an *older* phase can
            // spuriously re-validate later; pin it down.
            OverwritePolicy::Paper => rnd_of::<S>(cur) < myrnd,
            OverwritePolicy::Always => true,
            OverwritePolicy::Never => false,
        };
        if overwrite {
            // Line 11.
            storage.write(j, word::<S>(myrnd, me), false)?;
        }
    }

    // Line 13: linearizable view of the prefix R[1..=myrnd+1].
    let (view, collects) = scan(storage, myrnd + 1)?;
    reads.passes += collects;

    // Line 14: r[myrnd + 1] == ⊥ ?
    if view[myrnd] == BOT {
        // Line 15: open phase myrnd + 1. The cell goes first, so
        // whoever reads the word below finds it.
        assert!(
            myrnd + 1 < m,
            "space bound violated: writing sentinel register R[{m}]"
        );
        let seq: Box<[u32]> = view[..myrnd]
            .iter()
            .map(|&value| {
                assert_ne!(value, BOT, "scanned prefix registers are non-⊥ (Claim 6.1)");
                writer_field::<S>(value)
            })
            .collect();
        assert!(
            storage.line15(me).set(seq).is_ok(),
            "a call opens at most one phase"
        );
        storage.at(Point::Open);
        storage.write(myrnd + 1, word::<S>(myrnd + 1, me), true)?;
    }
    // Line 16.
    let ts = Timestamp::new((myrnd + 1) as u64, 0);
    Ok((ts, Exit::Scanned, reads))
}

impl BoundedTimestamp {
    /// The largest accepted budget `M`: a register word keeps `writer + 1`
    /// for writer indices `0..M` in 20 bits, and `rnd < ⌈2√M⌉ ≤ 2048` in
    /// the 12 above them.
    pub const MAX_BUDGET: usize = WRITER_MASK as usize;

    /// Creates an object accepting at most `budget` `getTS()` calls,
    /// from any processes, labelled by caller-supplied [`GetTsId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` or `budget >
    /// BoundedTimestamp::MAX_BUDGET` (2²⁰ − 1 calls): each register is
    /// one 32-bit word that must name any call's write.
    pub fn with_budget(budget: usize) -> Self {
        Self::with_budget_and_policy(budget, OverwritePolicy::Paper)
    }

    /// Like [`BoundedTimestamp::with_budget`] with an explicit
    /// invalidation-overwrite policy (see [`OverwritePolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` or `budget >
    /// BoundedTimestamp::MAX_BUDGET`.
    pub fn with_budget_and_policy(budget: usize, policy: OverwritePolicy) -> Self {
        assert!(budget > 0, "budget must be positive");
        assert!(
            budget <= Self::MAX_BUDGET,
            "budget {budget} exceeds BoundedTimestamp::MAX_BUDGET = {}: \
             writer indices must fit a register word's {WRITER_BITS}-bit field",
            Self::MAX_BUDGET
        );
        // One extra sentinel beyond the writable range is already part of
        // ⌈2√M⌉ (Φ < 2√M), but guard the degenerate tiny budgets where
        // the ceiling equals the phase count.
        let m = registers_for_budget(budget).max(2);
        Self {
            regs: (0..m).map(|_| AtomicU64::new(UNWRITTEN)).collect(),
            records: (0..budget).map(|_| Record::default()).collect(),
            line15: (0..budget).map(|_| OnceLock::new()).collect(),
            writes: StripedCounts::new(m),
            m,
            budget,
            policy,
            one_shot: false,
            invocations: CachePadded::new(AtomicU64::new(0)),
            epoch: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Creates a one-shot object for `processes` processes (`M = n`),
    /// realizing Theorem 1.3 with `⌈2√n⌉` registers.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0` or `processes >
    /// BoundedTimestamp::MAX_BUDGET`.
    pub fn one_shot(processes: usize) -> Self {
        Self::one_shot_with_policy(processes, OverwritePolicy::Paper)
    }

    /// One-shot constructor with an explicit overwrite policy.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0` or `processes >
    /// BoundedTimestamp::MAX_BUDGET`.
    pub fn one_shot_with_policy(processes: usize, policy: OverwritePolicy) -> Self {
        Self {
            one_shot: true,
            ..Self::with_budget_and_policy(processes, policy)
        }
    }

    /// The register budget `m`.
    pub fn registers(&self) -> usize {
        self.m
    }

    /// The invocation budget `M`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// This object's register traffic, read from its per-call records
    /// and its write table (module docs).
    pub fn meter(&self) -> BoundedMeter<'_> {
        BoundedMeter(self)
    }

    /// A snapshot of the phase accounting (Section 6.3 quantities),
    /// exact once the object is quiescent (see [`PhaseStats`]).
    pub fn phase_stats(&self) -> PhaseStats {
        let mut exits = [0u64; 4];
        let (mut invalidation_writes, mut total_writes) = (0, 0);
        for record in self.records.iter() {
            exits[usize::from(record.exit.load(Ordering::Relaxed))] += 1;
            invalidation_writes += u64::from(record.invalidations.load(Ordering::Relaxed));
            total_writes += u64::from(record.writes.load(Ordering::Relaxed));
        }
        let [_, turn_returns, early_returns, scans] = exits;
        PhaseStats {
            m: self.m,
            budget: self.budget,
            calls: turn_returns + early_returns + scans,
            phases: self.epoch.load(Ordering::Relaxed),
            invalidation_writes,
            total_writes,
            scans,
            early_returns,
            turn_returns,
            registers_written: self
                .regs
                .iter()
                .filter(|reg| reg.load(Ordering::Relaxed) != UNWRITTEN)
                .count(),
        }
    }

    /// Algorithm 4 `getTS(ID)`.
    ///
    /// On a budgeted object `id` is a label for the caller's own
    /// records: the object keys each call by its admission order instead
    /// (see the module docs), so stamps stay correct even when callers
    /// reuse ids. On a one-shot object this is
    /// [`get_ts(id.pid)`](OneShotTimestamp::get_ts): the call is keyed by
    /// its pid, and `id.seq` plays no part.
    ///
    /// # Errors
    ///
    /// Returns [`GetTsError::BudgetExhausted`] once `M` calls have been
    /// admitted to a budgeted object, and the errors of
    /// [`get_ts`](OneShotTimestamp::get_ts) on a one-shot object.
    ///
    /// # Panics
    ///
    /// Panics if an execution exceeds the proven space bound (which
    /// would falsify Lemma 6.5) — this is an internal invariant check,
    /// not an expected failure mode.
    pub fn get_ts_with_id(&self, id: GetTsId) -> Result<Timestamp, GetTsError> {
        if self.one_shot {
            return self.get_ts(id.pid as usize);
        }
        let admitted = self.invocations.fetch_add(1, Ordering::AcqRel);
        if admitted >= self.budget as u64 {
            return Err(GetTsError::BudgetExhausted {
                budget: self.budget,
            });
        }
        Ok(self.call(admitted as usize))
    }

    /// Runs the body as writer `me` and files the call's reads and exit.
    fn call(&self, me: usize) -> Timestamp {
        let Ok((ts, exit, reads)) = get_ts(self, me, self.policy);
        self.records[me].file(exit, &reads);
        ts
    }
}

/// The register traffic of one [`BoundedTimestamp`]
/// ([`BoundedTimestamp::meter`]).
#[derive(Clone, Copy)]
pub struct BoundedMeter<'a>(&'a BoundedTimestamp);

impl BoundedMeter<'_> {
    /// Reads and writes per register, `R[i + 1]` at index `i`, rebuilt
    /// from the per-call records and the write table. Exact once the
    /// object is quiescent, like [`PhaseStats`].
    pub fn snapshot(&self) -> MeterSnapshot {
        let m = self.0.m;
        let mut reads = vec![0; m];
        let mut prefixes = vec![0; m];
        for record in self.0.records.iter() {
            record.reads().add_to(&mut reads, &mut prefixes);
        }
        // A prefix of length `i + 1` read registers `0..=i`: register `i`
        // gets every prefix at least that long.
        let mut longer = 0;
        for (count, prefix) in reads.iter_mut().zip(&prefixes).rev() {
            longer += prefix;
            *count += longer;
        }
        MeterSnapshot {
            reads,
            writes: self.0.writes.to_vec(),
        }
    }
}

impl fmt::Debug for BoundedMeter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("BoundedMeter")
            .field(&self.snapshot())
            .finish()
    }
}

impl Storage for BoundedTimestamp {
    const WRITER_BITS: u32 = WRITER_BITS;
    type Halt = Infallible;

    fn registers(&self) -> usize {
        self.m
    }

    /// One load, masked to the word; the caller files its reads in
    /// bulk.
    fn read(&self, j: usize) -> Result<u64, Infallible> {
        Ok(self.regs[j - 1].load(Ordering::SeqCst) & u64::from(u32::MAX))
    }

    /// One swap of the word under the current epoch, counted in the
    /// write table and on the writer's record, and charged to the
    /// record as an invalidation write if its register's previous write
    /// carried another epoch. On x86-64 the swap is the `xchg` a
    /// `SeqCst` store compiles to anyway.
    fn write(&self, j: usize, word: u64, opens_phase: bool) -> Result<(), Infallible> {
        let epoch = if opens_phase {
            // Racing scanners may both open phase j by writing R[j]: the
            // phase number is the highest register opened, not the
            // number of opening writes.
            self.epoch.fetch_max(j as u64, Ordering::Relaxed);
            j as u64
        } else {
            self.epoch.load(Ordering::Relaxed)
        };
        self.writes.add(j - 1, 1);
        let record = &self.records[writer_field::<Self>(word) as usize - 1];
        bump(&record.writes);
        if self.regs[j - 1].swap((epoch << 32) | word, Ordering::SeqCst) >> 32 != epoch {
            bump(&record.invalidations);
        }
        Ok(())
    }

    fn line15(&self, writer: usize) -> &OnceLock<Box<[u32]>> {
        &self.line15[writer]
    }
}

impl OneShotTimestamp for BoundedTimestamp {
    /// The call of process `pid`, keyed by `pid` (module docs).
    ///
    /// # Panics
    ///
    /// Panics on a budgeted object, whose calls have no pids; use
    /// [`BoundedTimestamp::get_ts_with_id`] there.
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        assert!(
            self.one_shot,
            "get_ts(pid) requires a one-shot object; use get_ts_with_id on budgeted objects"
        );
        let record = self.records.get(pid).ok_or(GetTsError::PidOutOfRange {
            pid,
            processes: self.budget,
        })?;
        // Uniqueness needs only the swap's atomicity.
        if record.used.swap(true, Ordering::Relaxed) {
            return Err(GetTsError::AlreadyUsed { pid });
        }
        Ok(self.call(pid))
    }

    fn processes(&self) -> usize {
        self.budget
    }

    fn registers(&self) -> usize {
        self.m
    }
}

impl fmt::Debug for BoundedTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedTimestamp")
            .field("m", &self.m)
            .field("budget", &self.budget)
            .field("policy", &self.policy)
            .field("stats", &self.phase_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::HashSet;
    use std::sync::Arc;
    use ts_register::SpaceMeter;

    impl Reads {
        /// Adds these reads to `meter`, whose register `i` is `R[i + 1]`:
        /// a reference for the object's own rebuild.
        fn meter(&self, meter: &SpaceMeter) {
            meter.record_prefix(self.hi, self.passes);
            meter.record_prefix(self.line7, 1);
            meter.record_reads(self.hi - 1, self.line6);
        }
    }

    #[test]
    fn register_budget_formula_is_exact() {
        assert_eq!(registers_for_budget(1), 2);
        assert_eq!(registers_for_budget(4), 4);
        assert_eq!(registers_for_budget(9), 6);
        assert_eq!(registers_for_budget(16), 8);
        assert_eq!(registers_for_budget(10), 7); // 2√10 ≈ 6.32 → 7
        assert_eq!(registers_for_budget(100), 20);
        // Exact ceiling around perfect squares:
        assert_eq!(registers_for_budget(99), 20); // 2√99 ≈ 19.899
        assert_eq!(registers_for_budget(101), 21); // 2√101 ≈ 20.09
    }

    #[test]
    fn sequential_timestamps_strictly_increase() {
        let ts = BoundedTimestamp::with_budget(50);
        let mut last: Option<Timestamp> = None;
        for k in 0..50u32 {
            let t = ts.get_ts_with_id(GetTsId::new(0, k)).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "call {k}: {prev} !< {t}");
            }
            last = Some(t);
        }
    }

    #[test]
    fn sequential_pattern_matches_paper_walkthrough() {
        // The sequential run of Section 6.1: the opener of phase k
        // returns (k, 0); the j-th call after it returns (k, j).
        let ts = BoundedTimestamp::with_budget(10);
        let got: Vec<Timestamp> = (0..10u32)
            .map(|k| ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap())
            .collect();
        let expected = [
            Timestamp::new(1, 0),
            Timestamp::new(2, 0),
            Timestamp::new(2, 1),
            Timestamp::new(3, 0),
            Timestamp::new(3, 1),
            Timestamp::new(3, 2),
            Timestamp::new(4, 0),
            Timestamp::new(4, 1),
            Timestamp::new(4, 2),
            Timestamp::new(4, 3),
        ];
        assert_eq!(got.as_slice(), expected.as_slice());
    }

    #[test]
    fn sequential_walkthrough_register_traffic_is_pinned() {
        // The exact per-register access counts of the walkthrough above:
        // a change to which registers Algorithm 4 reads or writes, or how
        // often, moves them.
        //
        // Lines 1–12 read [18, 13, 11, 11, 9, 0, 0]. The four scans are
        // those of the phase openers (hi = myrnd + 1 = 1, 2, 3, 4); run
        // solo, each scan's second collect matches its first, so scan hi
        // reads R[1..=hi] twice: [8, 6, 4, 2, 0, 0, 0] in all. R[6] and
        // R[7] are never reached.
        let ts = BoundedTimestamp::with_budget(10);
        for k in 0..10u32 {
            ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
        }
        let snap = ts.meter().snapshot();
        assert_eq!(snap.reads, vec![26, 19, 15, 13, 9, 0, 0]);
        assert_eq!(snap.writes, vec![4, 3, 2, 1, 0, 0, 0]);
        let stats = ts.phase_stats();
        assert_eq!(stats.phases, 4);
        assert_eq!(stats.scans, 4);
        assert_eq!(stats.turn_returns, 6);
        assert_eq!(stats.total_writes, 10);
        // Every write lands in a register not yet written in its phase:
        // each opener's R[k], then one turn write per register.
        assert_eq!(stats.invalidation_writes, 10);
        assert_eq!(stats.registers_written, 4);
    }

    type Line15 = OnceLock<Box<[u32]>>;

    /// A storage over plain words that counts every access per register,
    /// for one call: `reads[j - 1]` counts reads of `R[j]`, and `written`
    /// logs each write as `(j, opens_phase)` in order.
    struct Counted<'a> {
        regs: &'a [AtomicU64],
        cells: &'a [Line15],
        reads: Vec<Cell<u64>>,
        written: RefCell<Vec<(usize, bool)>>,
    }

    impl<'a> Counted<'a> {
        fn new(regs: &'a [AtomicU64], cells: &'a [Line15]) -> Self {
            Self {
                regs,
                cells,
                reads: vec![Cell::new(0); regs.len()],
                written: RefCell::default(),
            }
        }

        fn reads(&self) -> Vec<u64> {
            self.reads.iter().map(Cell::get).collect()
        }
    }

    impl Storage for Counted<'_> {
        const WRITER_BITS: u32 = WRITER_BITS;
        type Halt = Infallible;

        fn registers(&self) -> usize {
            self.regs.len()
        }

        fn read(&self, j: usize) -> Result<u64, Infallible> {
            self.reads[j - 1].set(self.reads[j - 1].get() + 1);
            Ok(self.regs[j - 1].load(Ordering::SeqCst))
        }

        fn write(&self, j: usize, word: u64, opens_phase: bool) -> Result<(), Infallible> {
            self.written.borrow_mut().push((j, opens_phase));
            self.regs[j - 1].store(word, Ordering::SeqCst);
            Ok(())
        }

        fn line15(&self, writer: usize) -> &Line15 {
            &self.cells[writer]
        }
    }

    /// Registers and cells for a counted run of budget `budget`.
    fn counted_object(budget: usize) -> (Vec<AtomicU64>, Vec<Line15>) {
        let m = registers_for_budget(budget).max(2);
        let regs = (0..m).map(|_| AtomicU64::new(BOT)).collect();
        (regs, (0..budget).map(|_| OnceLock::new()).collect())
    }

    #[test]
    fn reported_reads_match_counted_reads_sequentially() {
        // Per-call metering loses nothing: each call's reported reads,
        // metered, equal the reads its storage counted, register for
        // register, and the object's own meter agrees with both.
        for policy in [
            OverwritePolicy::Paper,
            OverwritePolicy::Always,
            OverwritePolicy::Never,
        ] {
            for budget in 1..=64 {
                let (regs, cells) = counted_object(budget);
                let meter = SpaceMeter::new(regs.len());
                let mut counted = vec![0; regs.len()];
                let mut writes = vec![0; regs.len()];
                for me in 0..budget {
                    let storage = Counted::new(&regs, &cells);
                    let Ok((_, _, reads)) = get_ts(&storage, me, policy);
                    reads.meter(&meter);
                    for (j, total) in counted.iter_mut().enumerate() {
                        *total += storage.reads[j].get();
                    }
                    for &(j, _) in storage.written.borrow().iter() {
                        writes[j - 1] += 1;
                    }
                }
                let case = format!("{policy:?}, M = {budget}");
                assert_eq!(meter.snapshot().reads, counted, "{case}");
                let ts = BoundedTimestamp::with_budget_and_policy(budget, policy);
                for k in 0..budget as u32 {
                    ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
                }
                let snap = ts.meter().snapshot();
                assert_eq!(snap.reads, counted, "{case}: object meter");
                assert_eq!(snap.writes, writes, "{case}: object meter");
            }
        }
    }

    #[test]
    fn phase_stats_match_a_reference_classifier() {
        // Section 6.3 by its definition, over the logged writes of a
        // sequential run: the visible phase is the highest register a
        // line-15 write has opened, and a write is an invalidation write
        // iff it is its register's first write in that phase.
        for policy in [
            OverwritePolicy::Paper,
            OverwritePolicy::Always,
            OverwritePolicy::Never,
        ] {
            for budget in 1..=64 {
                let (regs, cells) = counted_object(budget);
                let mut phase = 0;
                let mut first_in_phase = HashSet::new();
                let mut written = HashSet::new();
                let (mut invalidation_writes, mut total_writes) = (0, 0);
                for me in 0..budget {
                    let storage = Counted::new(&regs, &cells);
                    let Ok(_) = get_ts(&storage, me, policy);
                    for &(j, opens_phase) in storage.written.borrow().iter() {
                        if opens_phase {
                            phase = phase.max(j);
                        }
                        if first_in_phase.insert((j, phase)) {
                            invalidation_writes += 1;
                        }
                        written.insert(j);
                        total_writes += 1;
                    }
                }
                let ts = BoundedTimestamp::with_budget_and_policy(budget, policy);
                for k in 0..budget as u32 {
                    ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
                }
                let stats = ts.phase_stats();
                assert_eq!(
                    (
                        stats.phases,
                        stats.invalidation_writes,
                        stats.total_writes,
                        stats.registers_written
                    ),
                    (
                        phase as u64,
                        invalidation_writes,
                        total_writes,
                        written.len()
                    ),
                    "{policy:?}, M = {budget}"
                );
            }
        }
    }

    #[test]
    fn reported_reads_match_counted_reads_concurrently() {
        // Four threads race on one object; each call checks its own
        // report against its own counts.
        let budget = 4 * 200;
        let (regs, cells) = counted_object(budget);
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let me = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let storage = Counted::new(&regs, &cells);
                        let Ok((_, _, reads)) = get_ts(&storage, me, OverwritePolicy::Paper);
                        let meter = SpaceMeter::new(regs.len());
                        reads.meter(&meter);
                        assert_eq!(meter.snapshot().reads, storage.reads(), "call {me}");
                    }
                });
            }
        });
    }

    #[test]
    fn reused_caller_ids_still_get_increasing_stamps() {
        // Calls are keyed by admission order, not by the caller's id:
        // ten sequential calls under one id follow the same walkthrough.
        let ts = BoundedTimestamp::with_budget(10);
        let mut last: Option<Timestamp> = None;
        for k in 0..10 {
            let t = ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "call {k}: {prev} !< {t}");
            }
            last = Some(t);
        }
        assert_eq!(last, Some(Timestamp::new(4, 3)));
    }

    #[test]
    fn largest_budget_fits_the_register_word() {
        let m = registers_for_budget(BoundedTimestamp::MAX_BUDGET);
        assert_eq!(m, 2048);
        // The highest round and the last writer index both fit.
        let top = word::<BoundedTimestamp>(m - 1, BoundedTimestamp::MAX_BUDGET - 1);
        assert!(
            top <= u64::from(u32::MAX),
            "the word fits a packed register"
        );
        assert_eq!(rnd_of::<BoundedTimestamp>(top), m - 1);
        assert_eq!(
            writer_field::<BoundedTimestamp>(top),
            BoundedTimestamp::MAX_BUDGET as u32
        );
        let ts = BoundedTimestamp::with_budget(BoundedTimestamp::MAX_BUDGET);
        assert_eq!(ts.registers(), m);
        let a = ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
        let b = ts.get_ts_with_id(GetTsId::new(0, 1)).unwrap();
        assert!(Timestamp::compare(&a, &b));
    }

    #[test]
    #[should_panic(expected = "exceeds BoundedTimestamp::MAX_BUDGET")]
    fn smallest_oversized_budget_is_rejected() {
        BoundedTimestamp::with_budget(BoundedTimestamp::MAX_BUDGET + 1);
    }

    #[test]
    fn budget_is_enforced() {
        let ts = BoundedTimestamp::with_budget(2);
        ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
        ts.get_ts_with_id(GetTsId::new(0, 1)).unwrap();
        assert_eq!(
            ts.get_ts_with_id(GetTsId::new(0, 2)),
            Err(GetTsError::BudgetExhausted { budget: 2 })
        );
    }

    #[test]
    fn one_shot_guard_rejects_repeats() {
        let ts = BoundedTimestamp::one_shot(4);
        ts.get_ts(1).unwrap();
        assert_eq!(ts.get_ts(1), Err(GetTsError::AlreadyUsed { pid: 1 }));
        assert!(matches!(
            ts.get_ts(9),
            Err(GetTsError::PidOutOfRange { .. })
        ));
    }

    #[test]
    fn one_shot_calls_are_keyed_by_pid_through_either_entry() {
        let ts = BoundedTimestamp::one_shot(6);
        let mut last: Option<Timestamp> = None;
        for (k, pid) in [4u32, 0, 5, 2, 1, 3].into_iter().enumerate() {
            let t = if k % 2 == 0 {
                ts.get_ts(pid as usize)
            } else {
                ts.get_ts_with_id(GetTsId::one_shot(pid))
            }
            .unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "pid {pid}: {prev} !< {t}");
            }
            last = Some(t);
            assert_eq!(ts.phase_stats().calls, k as u64 + 1);
            // A repeat through either entry is refused and not counted.
            assert_eq!(
                ts.get_ts(pid as usize),
                Err(GetTsError::AlreadyUsed { pid: pid as usize })
            );
            assert_eq!(
                ts.get_ts_with_id(GetTsId::new(pid, 7)),
                Err(GetTsError::AlreadyUsed { pid: pid as usize })
            );
        }
        for pid in [6usize, 100] {
            let out_of_range = Err(GetTsError::PidOutOfRange { pid, processes: 6 });
            assert_eq!(ts.get_ts(pid), out_of_range);
            assert_eq!(
                ts.get_ts_with_id(GetTsId::one_shot(pid as u32)),
                out_of_range
            );
        }
        assert_eq!(ts.phase_stats().calls, 6);
    }

    #[test]
    fn space_bound_holds_sequentially() {
        for n in [4usize, 16, 64, 256] {
            let ts = BoundedTimestamp::one_shot(n);
            for p in 0..n {
                ts.get_ts(p).unwrap();
            }
            let stats = ts.phase_stats();
            assert!(stats.space_bound_holds(), "n={n}: {stats:?}");
            assert!(stats.phase_bound_holds(), "n={n}: {stats:?}");
            assert!(stats.invalidation_bound_holds(), "n={n}: {stats:?}");
        }
    }

    #[test]
    fn concurrent_rounds_respect_happens_before() {
        let n = 32;
        let per_round = n / 4;
        // Each round's pids are `base..base + 8`. Either 8 threads take
        // one pid each, or 4 threads take interleaved pids `t, t + 4`,
        // so that adjacent per-call records are written by different
        // threads.
        for threads in [per_round, 4] {
            let ts = Arc::new(BoundedTimestamp::one_shot(n));
            let mut rounds: Vec<Vec<Timestamp>> = Vec::new();
            for round in 0..4 {
                let base = round * per_round;
                let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let ts = Arc::clone(&ts);
                            s.spawn(move |_| {
                                (base + t..base + per_round)
                                    .step_by(threads)
                                    .map(|pid| ts.get_ts(pid).unwrap())
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().unwrap())
                        .collect()
                })
                .unwrap();
                rounds.push(outs);
            }
            for earlier in 0..rounds.len() {
                for later in earlier + 1..rounds.len() {
                    for a in &rounds[earlier] {
                        for b in &rounds[later] {
                            assert!(Timestamp::compare(a, b), "{a} !< {b}");
                            assert!(!Timestamp::compare(b, a), "{b} < {a}");
                        }
                    }
                }
            }
            let stats = ts.phase_stats();
            assert_eq!(stats.calls, n as u64, "{stats:?}");
            assert!(stats.space_bound_holds(), "{stats:?}");
            assert!(stats.invalidation_bound_holds(), "{stats:?}");
            assert!(stats.invalidation_writes <= stats.total_writes, "{stats:?}");
            assert!(
                stats.phases as usize <= stats.registers_written,
                "{stats:?}"
            );
        }
    }

    #[test]
    fn always_overwrite_policy_is_also_correct_sequentially() {
        let ts = BoundedTimestamp::with_budget_and_policy(30, OverwritePolicy::Always);
        let mut last: Option<Timestamp> = None;
        for k in 0..30u32 {
            let t = ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t));
            }
            last = Some(t);
        }
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        let ts = BoundedTimestamp::with_budget(20);
        for k in 0..20u32 {
            ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
        }
        let stats = ts.phase_stats();
        assert_eq!(stats.calls, 20);
        assert!(stats.phases > 0);
        assert!(stats.total_writes >= stats.invalidation_writes);
        assert!(stats.scans >= stats.phases);
    }
}
