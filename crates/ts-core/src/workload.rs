//! Uniform driving interface for the workload scenario engine.
//!
//! The `ts-workloads` crate drives timestamp objects (and their
//! consumers in `ts-apps`) under configurable traffic shapes — closed
//! and open loops, skewed op mixes, thread churn. To do that it needs
//! every object behind one interface, even though their native APIs
//! differ (one-shot vs long-lived, `pid` vs `GetTsId`, locks vs
//! timestamp sources). [`WorkloadTarget`] is that adapter seam:
//!
//! - a *target* is a shared, thread-safe object that can mint
//!   per-thread *workers*;
//! - a [`WorkloadWorker`] executes one operation at a time — the
//!   engine's unit of latency measurement — keeping whatever per-thread
//!   state the object needs (previous timestamps, pool cursors, call
//!   counters);
//! - operations come in three kinds ([`WorkloadOp`]): `GetTs` (the
//!   mutating call), `Scan` (a read-only observation pass) and
//!   `Compare` (the local, shared-memory-free comparison). A worker
//!   that cannot honor a kind substitutes `GetTs` and reports what it
//!   actually did, so op accounting stays truthful.
//!
//! Almost every object's `GetTs` takes a stamp, so one generic worker,
//! [`StampWorker`], drives them all: each object implements
//! [`StampSource`] (per-worker state, how an op issues its stamps, an
//! optional scan, whether its stamps are checked) and the worker
//! supplies the op skeleton once.
//!
//! This module provides targets for the `ts-core` objects:
//! [`CollectMax`], [`GrowableTimestamp`] (long-lived, unbounded) and
//! [`OneShotPool`] (any [`OneShotTimestamp`] made long-runnable by
//! cycling pools of fresh objects). The `ts-apps`, `ts-replica` and
//! `ts-workloads` crates add targets for the lock consumers, the
//! replicated collect-max and the sharded service.
//!
//! Workers double as cheap invariant checkers: where two operations by
//! the same worker are guaranteed ordered (long-lived objects, same
//! process, non-overlapping calls — the timestamp property itself),
//! the worker asserts it, so every workload run is also a correctness
//! probe.
//!
//! [`StepGate`] is the one piece of control the seam offers: a fault
//! campaign's stall parks a worker on a gate at its next op boundary
//! until the matching resume releases it.
//!
//! # Example
//!
//! ```
//! use ts_core::workload::{WorkloadOp, WorkloadTarget};
//! use ts_core::CollectMax;
//!
//! let obj = CollectMax::new(2);
//! let mut worker = obj.worker(0);
//! // GetTs runs and self-checks the timestamp property; the first
//! // Compare lacks two operands and substitutes (and reports) GetTs.
//! assert_eq!(worker.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
//! assert_eq!(worker.step(WorkloadOp::Compare), WorkloadOp::GetTs);
//! assert_eq!(worker.step(WorkloadOp::Compare), WorkloadOp::Compare);
//! assert_eq!(obj.calls(), 2);
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ts_register::RegisterBackend;

use crate::collectmax::CollectMax;
use crate::error::GetTsError;
use crate::growable::GrowableTimestamp;
use crate::ids::GetTsId;
use crate::stats::ServiceStats;
use crate::timestamp::Timestamp;
use crate::traits::{LongLivedTimestamp, OneShotTimestamp};

/// Hands out globally unique virtual process ids (vpids).
///
/// This is the machinery behind `M` clients over `n` physical slots:
/// identity (the vpid, never reused, never bounded) is decoupled from
/// storage (the slot, leased while an operation runs). The `ts-service`
/// crate uses it to key client sessions, so slot count stops scaling
/// with client count.
///
/// # Example
///
/// ```
/// use ts_core::workload::VpidAllocator;
///
/// let vpids = VpidAllocator::new();
/// let a = vpids.next();
/// let b = vpids.next();
/// assert_ne!(a, b);
/// assert_eq!(vpids.issued(), 2);
/// ```
#[derive(Debug, Default)]
pub struct VpidAllocator {
    next: AtomicU32,
}

impl VpidAllocator {
    /// Creates an allocator starting at vpid 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints the next vpid (never reused).
    pub fn next(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Vpids handed out so far.
    pub fn issued(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

/// One kind of operation a workload worker can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadOp {
    /// The mutating timestamp acquisition (for locks: one
    /// acquire/release cycle, whose doorway takes the timestamp).
    GetTs,
    /// A read-only observation pass over the object's registers.
    Scan,
    /// The local comparison of two previously obtained timestamps.
    Compare,
}

impl WorkloadOp {
    /// All operation kinds, in the canonical mix-weight order.
    pub const ALL: [WorkloadOp; 3] = [WorkloadOp::GetTs, WorkloadOp::Scan, WorkloadOp::Compare];

    /// Canonical index into mix-weight arrays.
    pub fn index(self) -> usize {
        match self {
            WorkloadOp::GetTs => 0,
            WorkloadOp::Scan => 1,
            WorkloadOp::Compare => 2,
        }
    }
}

/// Two-deep history of values produced by a worker's operations — the
/// operands for [`WorkloadOp::Compare`]. `Compare` needs the last two
/// results, and until both exist the worker substitutes a `GetTs` op
/// and reports what actually ran.
#[derive(Debug, Clone, Copy)]
struct OpHistory<T> {
    prev2: Option<T>,
    prev: Option<T>,
}

impl<T: Copy> OpHistory<T> {
    fn new() -> Self {
        Self {
            prev2: None,
            prev: None,
        }
    }

    /// Records the newest value, shifting the previous one down.
    fn push(&mut self, value: T) {
        self.prev2 = self.prev;
        self.prev = Some(value);
    }

    /// The most recent value, if any.
    fn last(&self) -> Option<T> {
        self.prev
    }

    /// The `Compare` operands `(older, newer)` once two values exist.
    fn pair(&self) -> Option<(T, T)> {
        self.prev2.zip(self.prev)
    }
}

/// A barrier that opens once: workers that [`pause`](StepGate::pause) at the
/// gate block until [`release_all`](StepGate::release_all) opens it for
/// good.
///
/// A fault campaign's `Stall` parks a worker on a fresh gate before
/// its next op, and the matching `Resume` releases it.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use ts_core::workload::StepGate;
///
/// let gate = StepGate::new();
/// let ran = AtomicBool::new(false);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         gate.pause(); // blocks until released
///         ran.store(true, Ordering::SeqCst);
///     });
///     gate.release_all();
/// });
/// assert!(ran.load(Ordering::SeqCst));
/// gate.pause(); // an open gate never blocks
/// ```
#[derive(Debug, Default)]
pub struct StepGate {
    released: Mutex<bool>,
    cv: Condvar,
}

impl StepGate {
    /// Creates a closed gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until the gate is released.
    pub fn pause(&self) {
        let released = self.released.lock().expect("gate lock");
        let _open = self.cv.wait_while(released, |r| !*r).expect("gate lock");
    }

    /// Opens the gate: every current and future pause returns at once.
    pub fn release_all(&self) {
        *self.released.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }
}

/// Per-thread execution handle minted by a [`WorkloadTarget`].
///
/// Workers are created on the thread that drives them and are not
/// required to be `Send`; all cross-thread sharing lives in the target.
pub trait WorkloadWorker {
    /// Performs one operation, returning the kind actually executed
    /// (a worker substitutes [`WorkloadOp::GetTs`] for kinds it cannot
    /// honor yet, e.g. `Compare` before two timestamps exist).
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp;
}

/// An object the workload engine can drive: shared across threads,
/// minting one [`WorkloadWorker`] per driving thread (or per churn
/// life — a worker may be created and dropped many times per slot).
pub trait WorkloadTarget: Send + Sync {
    /// Object label for reports ("collect_max", "fcfs_lock", ...).
    fn object(&self) -> &'static str;

    /// Register-backend label for reports ("packed", "epoch").
    fn backend(&self) -> &'static str;

    /// Number of distinct worker slots the target supports
    /// (`usize::MAX` when unbounded). The engine drives slots
    /// `0..threads` and requires `threads <= slots()`.
    fn slots(&self) -> usize;

    /// Mints the worker for `slot`. At most one live worker per slot at
    /// a time (the engine guarantees this, including across churn
    /// lives).
    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a>;

    /// A snapshot of the object's unified hot-path counters
    /// ([`ServiceStats`]), if it keeps any. Bench reports use this to
    /// print fast-hit / batch-fill / shard-imbalance ratios next to a
    /// cell's throughput. `None` (the default) means the object has no
    /// such counters, not that they are all zero.
    fn service_stats(&self) -> Option<ServiceStats> {
        None
    }
}

// ---------------------------------------------------------------------
// The generic stamp worker: one op skeleton for every object whose
// mutating op takes a stamp.
// ---------------------------------------------------------------------

/// An object that [`StampWorker`] can drive. Every object whose
/// `GetTs` takes a stamp implements it in a few lines, and the worker
/// supplies the shared op skeleton: the timestamp-property assert on
/// the worker's own calls and the `Scan` and `Compare` fallbacks to
/// `GetTs`.
pub trait StampSource {
    /// What one worker keeps between ops: a slot, a session, a pool
    /// view.
    type State<'a>
    where
        Self: 'a;

    /// What one `GetTs` produces. Its `Ord` is the stamp order: for
    /// [`Timestamp`] that is exactly Algorithm 3's
    /// [`compare`](Timestamp::compare).
    type Stamp: Copy + Ord + std::fmt::Debug + std::fmt::Display;

    /// Runs one `GetTs` and returns the first and last stamp it issued
    /// (the same stamp unless the op issues a batch).
    fn issue(&self, state: &mut Self::State<'_>) -> (Self::Stamp, Self::Stamp);

    /// Runs one read-only observation pass. `false` means the object
    /// has none, and the worker substitutes `GetTs`.
    fn observe(&self, _state: &Self::State<'_>) -> bool {
        false
    }

    /// Whether a worker's own stamps are asserted ordered, on `GetTs`
    /// and on `Compare`. Objects whose stamps carry no cross-call order
    /// opt out.
    fn checked(&self) -> bool;
}

/// The one [`WorkloadWorker`] over any [`StampSource`].
///
/// `GetTs` issues through [`StampSource::issue`] and, for a checked
/// source, asserts that the op's first stamp follows the previous op's
/// last one: non-overlapping calls by one worker must be ordered.
/// `Compare` orders the last two recorded stamps, and `Scan` runs
/// [`StampSource::observe`]; each substitutes `GetTs` when it cannot
/// run.
pub struct StampWorker<'a, S: StampSource> {
    source: &'a S,
    state: S::State<'a>,
    history: OpHistory<S::Stamp>,
}

impl<S: StampSource> std::fmt::Debug for StampWorker<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StampWorker")
            .field("source", &std::any::type_name::<S>())
            .field("history", &self.history)
            .finish_non_exhaustive()
    }
}

impl<'a, S: StampSource> StampWorker<'a, S> {
    /// A fresh worker over `source`, starting from `state`.
    pub fn new(source: &'a S, state: S::State<'a>) -> Self {
        Self {
            source,
            state,
            history: OpHistory::new(),
        }
    }

    fn get_ts(&mut self) -> WorkloadOp {
        let (first, last) = self.source.issue(&mut self.state);
        // Non-overlapping calls by one worker: the timestamp property
        // orders this op's first stamp after the previous op's last.
        if let Some(prev) = self.history.last().filter(|_| self.source.checked()) {
            assert!(
                prev < first,
                "{} violated the timestamp property: {prev} !< {first}",
                std::any::type_name::<S>()
            );
        }
        self.history.push(last);
        WorkloadOp::GetTs
    }
}

impl<S: StampSource> WorkloadWorker for StampWorker<'_, S> {
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp {
        match (op, self.history.pair()) {
            (WorkloadOp::Scan, _) if self.source.observe(&self.state) => WorkloadOp::Scan,
            (WorkloadOp::Compare, Some((a, b))) => {
                let ordered = black_box(a < b);
                assert!(
                    ordered || !self.source.checked(),
                    "{} history out of order: {a} !< {b}",
                    std::any::type_name::<S>()
                );
                WorkloadOp::Compare
            }
            _ => self.get_ts(),
        }
    }
}

// ---------------------------------------------------------------------
// CollectMax: the long-lived baseline, driven directly.
// ---------------------------------------------------------------------

impl<B: RegisterBackend<u64>> StampSource for CollectMax<B> {
    type State<'a> = usize;
    type Stamp = Timestamp;

    fn issue(&self, slot: &mut usize) -> (Timestamp, Timestamp) {
        let t = self.get_ts(*slot).expect("slot < processes");
        (t, t)
    }

    fn observe(&self, _slot: &usize) -> bool {
        black_box(self.read_max());
        true
    }

    fn checked(&self) -> bool {
        true
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for CollectMax<B> {
    fn object(&self) -> &'static str {
        "collect_max"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        LongLivedTimestamp::processes(self)
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots(), "slot {slot} out of range");
        Box::new(StampWorker::new(self, slot))
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.stats())
    }
}

// ---------------------------------------------------------------------
// GrowableTimestamp: unbounded long-lived object. Calls are keyed by
// admission order, so workers need no id of their own.
// ---------------------------------------------------------------------

impl StampSource for GrowableTimestamp {
    type State<'a> = ();
    type Stamp = Timestamp;

    fn issue(&self, _: &mut ()) -> (Timestamp, Timestamp) {
        let t = self.get_ts_with_id(GetTsId::new(0, 0));
        (t, t)
    }

    fn observe(&self, _: &()) -> bool {
        black_box(self.probe_round());
        true
    }

    fn checked(&self) -> bool {
        true
    }
}

impl WorkloadTarget for GrowableTimestamp {
    fn object(&self) -> &'static str {
        "growable"
    }

    fn backend(&self) -> &'static str {
        // `AtomicU64` words in a segmented table, not a pluggable
        // backend.
        "word"
    }

    fn slots(&self) -> usize {
        usize::MAX
    }

    fn worker<'a>(&'a self, _slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        Box::new(StampWorker::new(self, ()))
    }
}

// ---------------------------------------------------------------------
// One-shot objects: made long-runnable by cycling pools of fresh
// objects (each object serves each slot exactly once).
// ---------------------------------------------------------------------

/// Object factory for [`OneShotPool`].
pub type OneShotFactory<T> = Box<dyn Fn() -> T + Send + Sync>;

/// Optional read-only scan hook for [`OneShotPool`] (e.g.
/// [`SimpleOneShot::observed_sum`](crate::SimpleOneShot::observed_sum)).
pub type OneShotScan<T> = Box<dyn Fn(&T) + Send + Sync>;

struct PoolState<T> {
    generation: u64,
    objects: Arc<Vec<T>>,
    /// Per-slot progress through `objects`. Shared so a churn
    /// replacement resumes exactly where its predecessor (same slot)
    /// stopped instead of re-walking consumed objects. Only the slot's
    /// single live worker writes its entry (engine guarantee), so plain
    /// relaxed loads/stores suffice.
    cursors: Arc<Vec<AtomicUsize>>,
}

/// Drives any [`OneShotTimestamp`] continuously by cycling through a
/// pool of fresh objects: each worker takes its single timestamp from
/// each pooled object in order, and whichever worker exhausts the pool
/// first swaps in a new generation (laggards finish their old pool —
/// the `Arc` keeps it alive). Per-slot cursors live in the shared pool
/// state, so a churn replacement worker resumes where its predecessor
/// stopped instead of paying a re-walk over consumed objects.
///
/// Timestamps from *different* objects are incomparable, so unlike the
/// long-lived targets this one measures cost only; the one-shot
/// ordering guarantees are covered by the model checker and the
/// `ts-bench` happens-before harness instead.
pub struct OneShotPool<T> {
    object: &'static str,
    backend: &'static str,
    slots: usize,
    pool_size: usize,
    make: OneShotFactory<T>,
    scan: Option<OneShotScan<T>>,
    state: Mutex<PoolState<T>>,
}

impl<T: OneShotTimestamp> OneShotPool<T> {
    /// Creates a pool target serving `slots` worker slots with
    /// `pool_size` objects per generation; `make` must mint objects
    /// accepting pids `0..slots`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `pool_size == 0`.
    pub fn new(
        object: &'static str,
        backend: &'static str,
        slots: usize,
        pool_size: usize,
        make: OneShotFactory<T>,
    ) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(pool_size > 0, "need at least one pooled object");
        let objects = Arc::new((0..pool_size).map(|_| make()).collect::<Vec<_>>());
        let cursors = Arc::new((0..slots).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        Self {
            object,
            backend,
            slots,
            pool_size,
            make,
            scan: None,
            state: Mutex::new(PoolState {
                generation: 0,
                objects,
                cursors,
            }),
        }
    }

    /// Installs a read-only scan hook; without one, `Scan` ops fall
    /// back to `GetTs`.
    pub fn with_scan(mut self, scan: OneShotScan<T>) -> Self {
        self.scan = Some(scan);
        self
    }

    /// `slot`'s view of the current generation. `exhausted` names a
    /// generation the caller has used up; it is swapped for a fresh one
    /// unless another worker already did.
    fn view(&self, slot: usize, exhausted: Option<u64>) -> PoolView<T> {
        let mut state = self.state.lock().expect("pool lock");
        if exhausted == Some(state.generation) {
            state.objects = Arc::new((0..self.pool_size).map(|_| (self.make)()).collect());
            state.cursors = Arc::new((0..self.slots).map(|_| AtomicUsize::new(0)).collect());
            state.generation += 1;
        }
        PoolView {
            slot,
            generation: state.generation,
            objects: Arc::clone(&state.objects),
            cursors: Arc::clone(&state.cursors),
        }
    }
}

/// One worker's snapshot of a [`OneShotPool`] generation: the state its
/// [`StampWorker`] keeps.
#[derive(Debug)]
pub struct PoolView<T> {
    slot: usize,
    generation: u64,
    objects: Arc<Vec<T>>,
    cursors: Arc<Vec<AtomicUsize>>,
}

impl<T> PoolView<T> {
    /// This slot's progress through the generation (shared with churn
    /// successors; only the slot's live worker writes it).
    fn cursor(&self) -> usize {
        self.cursors[self.slot].load(Ordering::Relaxed)
    }
}

impl<T: OneShotTimestamp> std::fmt::Debug for OneShotPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneShotPool")
            .field("object", &self.object)
            .field("slots", &self.slots)
            .field("pool_size", &self.pool_size)
            .finish()
    }
}

impl<T: OneShotTimestamp> StampSource for OneShotPool<T> {
    type State<'a>
        = PoolView<T>
    where
        Self: 'a;
    type Stamp = Timestamp;

    fn issue(&self, view: &mut PoolView<T>) -> (Timestamp, Timestamp) {
        loop {
            let cursor = view.cursor();
            if cursor >= view.objects.len() {
                *view = self.view(view.slot, Some(view.generation));
                continue;
            }
            view.cursors[view.slot].store(cursor + 1, Ordering::Relaxed);
            match view.objects[cursor].get_ts(view.slot) {
                Ok(t) => return (t, t),
                // Unreachable while the shared cursor is advanced only
                // by this slot's worker; kept as a safety net so a
                // bookkeeping bug degrades to a skip, not a panic.
                Err(GetTsError::AlreadyUsed { .. }) => continue,
                Err(e) => panic!("one-shot pool get_ts failed: {e}"),
            }
        }
    }

    fn observe(&self, view: &PoolView<T>) -> bool {
        let Some(scan) = &self.scan else {
            return false;
        };
        scan(&view.objects[view.cursor().min(view.objects.len() - 1)]);
        true
    }

    // Timestamps come from different pooled objects, so only the
    // comparison's cost is measured; its result carries no cross-object
    // meaning.
    fn checked(&self) -> bool {
        false
    }
}

impl<T: OneShotTimestamp> WorkloadTarget for OneShotPool<T> {
    fn object(&self) -> &'static str {
        self.object
    }

    fn backend(&self) -> &'static str {
        self.backend
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots, "slot {slot} out of range");
        Box::new(StampWorker::new(self, self.view(slot, None)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackedBackend, SimpleOneShot};

    #[test]
    fn growable_workers_share_one_object_across_lives() {
        let target = GrowableTimestamp::new();
        for _life in 0..3 {
            let mut w = target.worker(0); // same slot, new life
            for _ in 0..5 {
                w.step(WorkloadOp::GetTs);
            }
        }
        assert_eq!(target.calls(), 15);
    }

    #[test]
    fn one_shot_pool_cycles_generations() {
        let slots = 2;
        let pool = OneShotPool::new(
            "simple_oneshot",
            "packed",
            slots,
            4,
            Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(slots)),
        );
        let mut w = pool.worker(0);
        // 10 ops > pool_size forces at least one generation swap.
        for _ in 0..10 {
            assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        }
        assert!(
            pool.view(0, None).generation >= 2,
            "pool generation never advanced"
        );
    }

    #[test]
    fn one_shot_pool_replacement_worker_resumes_at_the_shared_cursor() {
        let slots = 1;
        let pool = OneShotPool::new(
            "simple_oneshot",
            "packed",
            slots,
            8,
            Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(slots)),
        );
        {
            let mut w = pool.worker(0);
            for _ in 0..3 {
                w.step(WorkloadOp::GetTs);
            }
        }
        // Replacement on the same slot resumes at object 3 — exactly 5
        // objects remain, consumed without triggering a refresh.
        assert_eq!(pool.view(0, None).cursors[0].load(Ordering::Relaxed), 3);
        let mut w = pool.worker(0);
        for _ in 0..5 {
            assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        }
        assert_eq!(
            pool.view(0, None).generation,
            0,
            "no refresh needed within one pool"
        );
        assert_eq!(pool.view(0, None).cursors[0].load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scan_without_hook_substitutes_getts() {
        let slots = 1;
        let pool = OneShotPool::new(
            "simple_oneshot",
            "packed",
            slots,
            2,
            Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(slots)),
        );
        let mut w = pool.worker(0);
        assert_eq!(w.step(WorkloadOp::Scan), WorkloadOp::GetTs);
        drop(w);
        let with_hook = OneShotPool::new(
            "simple_oneshot",
            "packed",
            slots,
            2,
            Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(slots)),
        )
        .with_scan(Box::new(|obj| {
            std::hint::black_box(obj.observed_sum());
        }));
        let mut w = with_hook.worker(0);
        assert_eq!(w.step(WorkloadOp::Scan), WorkloadOp::Scan);
    }
}
