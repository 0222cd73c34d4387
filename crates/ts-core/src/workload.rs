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
//! optional scan, whether its stamps are checked and reported to
//! replay) and the worker supplies the op skeleton once.
//!
//! This module provides targets for the `ts-core` objects:
//! [`CollectMax`] and [`CollectMaxFast`] (the same object replayed along
//! its classic or its cached-max path), [`GrowableTimestamp`]
//! (long-lived, unbounded), [`OneShotPool`] (any [`OneShotTimestamp`]
//! made long-runnable by cycling pools of fresh objects) and the
//! replay-only canary [`BrokenCounter`]. The `ts-apps`, `ts-replica`
//! and `ts-workloads` crates add stamp sources for the lock consumers,
//! the quorum timestamp and the sharded service.
//!
//! Workers double as cheap invariant checkers: where two operations by
//! the same worker are guaranteed ordered (long-lived objects, same
//! process, non-overlapping calls — the timestamp property itself),
//! the worker asserts it, so every workload run is also a correctness
//! probe.
//!
//! The seam's second interface is *replay control*: every worker
//! supports [`WorkloadWorker::step_gated`], which announces the op's
//! sub-steps by pausing at a per-worker [`StepGate`] that a controller
//! releases one at a time (the protocol behind
//! `ts_workloads::replay`). Targets advertise how faithfully their
//! workers can follow a recorded schedule via
//! [`WorkloadTarget::replay_granularity`].
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

use ts_register::{CachePadded, RegisterBackend};

use crate::broken::BrokenCounter;
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

// ---------------------------------------------------------------------
// Step barrier: the pause/release protocol of schedule replay.
// ---------------------------------------------------------------------

/// Why a [`StepGate::release_next`] call gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// The worker did not finish the released sub-step within the
    /// timeout — it is stuck, dead, or announces fewer sub-steps than
    /// the controller's trace expects.
    Stalled,
    /// The worker called [`StepGate::finish`] before announcing the
    /// released sub-step: the trace expects more sub-steps than the
    /// worker has.
    FinishedEarly,
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Stalled => write!(f, "worker never finished the released sub-step"),
            GateError::FinishedEarly => {
                write!(f, "worker finished before the released sub-step")
            }
        }
    }
}

/// A snapshot of a gate's counters (for invariant checks and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateProgress {
    /// Sub-steps the controller has authorized.
    pub released: u64,
    /// Pauses the worker has announced (the `k`-th pause blocks until
    /// `released >= k`).
    pub announced: u64,
    /// Sub-steps the worker has finished.
    pub finished: u64,
    /// Whether the worker has called [`StepGate::finish`].
    pub done: bool,
}

#[derive(Debug, Default)]
struct GateState {
    released: u64,
    announced: u64,
    finished: u64,
    done: bool,
}

/// A per-worker step barrier: the worker announces sub-steps by pausing
/// at the gate, and a controller releases them one at a time.
///
/// This is the protocol behind adversarial schedule replay
/// (`ts_workloads::replay`): each worker thread calls
/// [`pause`](StepGate::pause) immediately before every announced
/// sub-step of an operation (at minimum once at op start; see
/// [`WorkloadWorker::step_gated`]) and [`finish`](StepGate::finish)
/// when it will announce no more. The controller calls
/// [`release_next`](StepGate::release_next) once per recorded step —
/// the call returns only after the worker has *finished* the released
/// sub-step (observed at its next pause or at `finish`), so the
/// controller always knows the sub-step's shared-memory effect is
/// visible before it releases any other worker.
///
/// Invariant (checked internally on every release): the worker never
/// runs ahead of its released step — `finished <= released` at all
/// times until [`release_all`](StepGate::release_all) abandons pacing.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ts_core::workload::StepGate;
///
/// let gate = StepGate::new();
/// let work_done = AtomicU64::new(0);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         for _ in 0..3 {
///             gate.pause(); // announce; blocks until released
///             work_done.fetch_add(1, Ordering::SeqCst);
///         }
///         gate.finish();
///     });
///     for expected in 1..=3 {
///         gate.release_next(std::time::Duration::from_secs(5)).unwrap();
///         // release_next returned: sub-step `expected` has finished.
///         assert!(work_done.load(Ordering::SeqCst) >= expected);
///     }
/// });
/// ```
#[derive(Debug, Default)]
pub struct StepGate {
    /// Cache-line padded: replay keeps one gate per worker in a `Vec`,
    /// and each gate's released/finished counters are hammered by a
    /// different worker thread plus the controller — without padding,
    /// neighbouring workers' gate traffic bounces one shared line
    /// between every thread in the replay.
    state: CachePadded<Mutex<GateState>>,
    cv: Condvar,
}

impl StepGate {
    /// Creates a gate with nothing announced or released.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker side: announces the next sub-step and blocks until the
    /// controller releases it. Marks every earlier sub-step finished.
    pub fn pause(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.finished = state.announced;
        state.announced += 1;
        let waiting_for = state.announced;
        self.cv.notify_all();
        while state.released < waiting_for {
            state = self.cv.wait(state).expect("gate lock");
        }
    }

    /// Worker side: declares that no further sub-steps will be
    /// announced and that all announced work is finished.
    pub fn finish(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.finished = state.announced;
        state.done = true;
        self.cv.notify_all();
    }

    /// Controller side: releases the next sub-step and waits until the
    /// worker has finished it (arrived at its next pause, or called
    /// [`finish`](StepGate::finish)).
    ///
    /// # Errors
    ///
    /// [`GateError::Stalled`] if the worker does not finish within
    /// `timeout`; [`GateError::FinishedEarly`] if the worker finished
    /// without ever announcing this sub-step (a trace/implementation
    /// sub-step-count mismatch).
    pub fn release_next(&self, timeout: std::time::Duration) -> Result<(), GateError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("gate lock");
        state.released += 1;
        let target = state.released;
        self.cv.notify_all();
        while state.finished < target {
            if state.done {
                return Err(GateError::FinishedEarly);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(GateError::Stalled);
            }
            let (guard, _timeout_result) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("gate lock");
            state = guard;
        }
        // The run-ahead invariant: a worker can only have finished what
        // was released (release_all sets released = u64::MAX, which
        // trivially keeps the inequality).
        debug_assert!(
            state.finished <= state.released,
            "worker ran ahead of its released step"
        );
        Ok(())
    }

    /// Controller side, non-blocking: adds `n` release credits without
    /// waiting for the worker to consume any of them.
    ///
    /// This is the fault-campaign stall/resume knob: a worker paced
    /// purely by credits runs freely while credits remain, parks at its
    /// next pause when they dry up (a *stall* injected at an exact
    /// announced sub-step), and resumes the instant more are granted.
    /// Unlike [`release_next`](StepGate::release_next) there is no
    /// lock-step wait, so one controller can meter many workers.
    pub fn grant(&self, n: u64) {
        let mut state = self.state.lock().expect("gate lock");
        state.released = state.released.saturating_add(n);
        self.cv.notify_all();
    }

    /// Controller side: abandons pacing — every current and future
    /// pause is released immediately. Used to drain workers whose
    /// remaining sub-steps fall outside the replayed trace (e.g. a
    /// counterexample's stalled writer, left mid-operation when the
    /// trace ends).
    pub fn release_all(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.released = u64::MAX;
        self.cv.notify_all();
    }

    /// Current counters (for tests and diagnostics).
    pub fn progress(&self) -> GateProgress {
        let state = self.state.lock().expect("gate lock");
        GateProgress {
            released: state.released,
            announced: state.announced,
            finished: state.finished,
            done: state.done,
        }
    }
}

/// How faithfully a [`WorkloadTarget`]'s workers can follow a recorded
/// schedule (see [`WorkloadTarget::replay_granularity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayGranularity {
    /// One announced sub-step per operation (the op-start pause): a
    /// replay controller can sequence *operations* along the trace, but
    /// each op's shared-memory body runs without internal pauses at its
    /// invocation point. Reproduces the recorded invocation/response
    /// order; does not reproduce intra-op interleavings.
    Op,
    /// One announced sub-step per shared-memory access (plus the
    /// op-start pause): the controller serializes every register read
    /// and write in trace order, so the replay is fully deterministic —
    /// outputs must equal the model run's.
    MemoryAccess,
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

    /// Performs one operation under step-barrier control: the worker
    /// pauses at `gate` once at op start and again before every further
    /// sub-step it announces (see its target's
    /// [`replay_granularity`](WorkloadTarget::replay_granularity)).
    ///
    /// The default implementation announces exactly one sub-step — the
    /// op-start pause — and then runs [`step`](WorkloadWorker::step)
    /// unpaused, which is the [`ReplayGranularity::Op`] contract.
    /// [`StampWorker`] overrides it to hand the gate to
    /// [`StampSource::issue`], so objects that expose their
    /// shared-memory phases (e.g. `CollectMax::get_ts_paused`) announce
    /// one sub-step per access.
    fn step_gated(&mut self, op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause();
        self.step(op)
    }

    /// The timestamp produced by this worker's most recent successful
    /// `GetTs`, if the adapter tracks one. Replay controllers use it to
    /// check the timestamp property across workers; `None` opts out
    /// (order is still replayed, outputs are not checked).
    fn last_ts(&self) -> Option<Timestamp> {
        None
    }
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

    /// The sub-step granularity this target's workers announce through
    /// [`WorkloadWorker::step_gated`]. Defaults to
    /// [`ReplayGranularity::Op`]; targets whose objects expose phase
    /// hooks override with [`ReplayGranularity::MemoryAccess`].
    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::Op
    }

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
/// the worker's own calls, the `Scan` and `Compare` fallbacks to
/// `GetTs`, and the op-start pause of gated ops.
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
    /// (the same stamp unless the op issues a batch). With a `gate`,
    /// the object pauses at it before every shared-memory access it
    /// exposes; the worker has already announced the op-start pause.
    fn issue(
        &self,
        state: &mut Self::State<'_>,
        gate: Option<&StepGate>,
    ) -> (Self::Stamp, Self::Stamp);

    /// Runs one read-only observation pass. `false` means the object
    /// has none, and the worker substitutes `GetTs`.
    fn observe(&self, _state: &Self::State<'_>) -> bool {
        false
    }

    /// Whether a worker's own stamps are asserted ordered, on `GetTs`
    /// and on `Compare`. Deliberately broken objects and objects whose
    /// stamps carry no cross-call order opt out.
    fn checked(&self) -> bool;

    /// The timestamp `last_ts` reports to replay for `stamp`. `None`
    /// (the default) opts out of the replay output check.
    fn replay_ts(_stamp: Self::Stamp) -> Option<Timestamp> {
        None
    }
}

/// The one [`WorkloadWorker`] over any [`StampSource`].
///
/// `GetTs` issues through [`StampSource::issue`] and, for a checked
/// source, asserts that the op's first stamp follows the previous op's
/// last one: non-overlapping calls by one worker must be ordered.
/// `Compare` orders the last two recorded stamps, and `Scan` runs
/// [`StampSource::observe`]; each substitutes `GetTs` when it cannot
/// run. Gated, every op announces the op-start pause, and only `GetTs`
/// hands the gate on, so a gated `Scan` or `Compare` announces exactly
/// one pause, also when it falls back to `GetTs`.
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

    fn get_ts(&mut self, gate: Option<&StepGate>) -> WorkloadOp {
        let (first, last) = self.source.issue(&mut self.state, gate);
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
            _ => self.get_ts(None),
        }
    }

    fn step_gated(&mut self, op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause(); // op start
        match op {
            WorkloadOp::GetTs => self.get_ts(Some(gate)),
            other => self.step(other),
        }
    }

    fn last_ts(&self) -> Option<Timestamp> {
        self.history.last().and_then(S::replay_ts)
    }
}

// ---------------------------------------------------------------------
// CollectMax: the long-lived baseline, driven directly.
// ---------------------------------------------------------------------

impl<B: RegisterBackend<u64>> StampSource for CollectMax<B> {
    type State<'a> = usize;
    type Stamp = Timestamp;

    /// Ungated: the cached-max fast path. Gated: the classic collect,
    /// which the model twin and the checked-in traces follow.
    fn issue(&self, slot: &mut usize, gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
        let t = match gate {
            None => self.get_ts(*slot),
            Some(gate) => self.get_ts_paused(*slot, || gate.pause()),
        };
        let t = t.expect("slot < processes");
        (t, t)
    }

    fn observe(&self, _slot: &usize) -> bool {
        black_box(self.read_max());
        true
    }

    fn checked(&self) -> bool {
        true
    }

    fn replay_ts(t: Timestamp) -> Option<Timestamp> {
        Some(t)
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

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.stats())
    }
}

// ---------------------------------------------------------------------
// CollectMaxFast: the same object replayed along its cached-max fast
// path instead of the classic collect.
// ---------------------------------------------------------------------

/// [`CollectMax`] wrapped so that gated replay drives
/// [`CollectMax::get_ts_fast_paused`] — the cached-max fast path with
/// one announced sub-step per shared access — instead of the classic
/// collect path the bare `CollectMax` target announces.
///
/// Two targets exist because their announced access sequences differ
/// and each must match its own model twin: bare `CollectMax` ↔
/// `CollectMaxModel` (the checked-in pre-fast-path traces), this
/// wrapper ↔ `CollectMaxFastModel` (the fast-path regression traces).
/// Ungated stepping is identical in both (`get_ts` *is* the fast path).
#[derive(Debug)]
pub struct CollectMaxFast<B: RegisterBackend<u64> = crate::PackedBackend>(CollectMax<B>);

impl<B: RegisterBackend<u64>> CollectMaxFast<B> {
    /// Wraps an object for fast-path-granular replay.
    pub fn new(processes: usize) -> Self {
        Self(CollectMax::with_backend(processes))
    }

    /// The wrapped object.
    pub fn inner(&self) -> &CollectMax<B> {
        &self.0
    }
}

impl<B: RegisterBackend<u64>> StampSource for CollectMaxFast<B> {
    type State<'a> = usize;
    type Stamp = Timestamp;

    fn issue(&self, slot: &mut usize, gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
        let t = match gate {
            None => self.0.get_ts(*slot),
            Some(gate) => self.0.get_ts_fast_paused(*slot, || gate.pause()),
        };
        let t = t.expect("slot < processes");
        (t, t)
    }

    fn observe(&self, _slot: &usize) -> bool {
        black_box(self.0.read_max());
        true
    }

    fn checked(&self) -> bool {
        true
    }

    fn replay_ts(t: Timestamp) -> Option<Timestamp> {
        Some(t)
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for CollectMaxFast<B> {
    fn object(&self) -> &'static str {
        "collect_max_fast"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        LongLivedTimestamp::processes(&self.0)
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots(), "slot {slot} out of range");
        Box::new(StampWorker::new(self, slot))
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.0.stats())
    }
}

// ---------------------------------------------------------------------
// GrowableTimestamp: unbounded long-lived object. Calls are keyed by
// admission order, so workers need no id of their own.
// ---------------------------------------------------------------------

impl StampSource for GrowableTimestamp {
    type State<'a> = ();
    type Stamp = Timestamp;

    fn issue(&self, _: &mut (), _gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
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

    fn replay_ts(t: Timestamp) -> Option<Timestamp> {
        Some(t)
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

    fn issue(&self, view: &mut PoolView<T>, _gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
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
    // meaning, and `last_ts` stays `None`: replay checks order only.
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

// ---------------------------------------------------------------------
// BrokenCounter: the replay harness's canary. Deliberately incorrect
// (see `crate::broken`), so its worker does NOT assert the timestamp
// property — replay exists to *observe* the violation, not panic on it.
//
// Unlike the other one-shot objects (which the scenario engine drives
// through `OneShotPool`'s fresh-object cycling), this target is
// replay-only: each slot supports exactly ONE `GetTs`, mirroring its
// one-shot model twin (`ops_per_process = Some(1)`), and a second op
// panics with a clear message (a `Scan`, or a `Compare` that lacks two
// stamps, substitutes a second `GetTs`). Traces built from the twin can
// never request a second op per process (the model refuses to invoke
// one), so the panic is reachable only by driving this target outside
// the replay harness — wrap it in `OneShotPool` for scenario use
// instead.
// ---------------------------------------------------------------------

impl StampSource for BrokenCounter {
    type State<'a> = usize;
    type Stamp = Timestamp;

    fn issue(&self, pid: &mut usize, gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
        let t = self.get_ts_paused(*pid, || gate.map_or((), StepGate::pause));
        let t = t.expect(
            "broken_counter is a replay-only one-shot target: each slot supports exactly \
             one GetTs (wrap it in OneShotPool for scenario-engine use)",
        );
        (t, t)
    }

    fn checked(&self) -> bool {
        false
    }

    fn replay_ts(t: Timestamp) -> Option<Timestamp> {
        Some(t)
    }
}

impl WorkloadTarget for BrokenCounter {
    fn object(&self) -> &'static str {
        "broken_counter"
    }

    fn backend(&self) -> &'static str {
        // A bare `WordRegister`, not a pluggable backend.
        "word"
    }

    fn slots(&self) -> usize {
        crate::traits::OneShotTimestamp::processes(self)
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots(), "slot {slot} out of range");
        Box::new(StampWorker::new(self, slot))
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
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

    const GATE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn gate_release_next_observes_completed_substeps() {
        let gate = StepGate::new();
        let progress = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5 {
                    gate.pause();
                    progress.fetch_add(1, Ordering::SeqCst);
                }
                gate.finish();
            });
            for released in 1..=5 {
                gate.release_next(GATE_TIMEOUT).unwrap();
                assert_eq!(progress.load(Ordering::SeqCst), released);
            }
            let p = gate.progress();
            assert!(p.done);
            assert_eq!(p.finished, 5);
        });
    }

    #[test]
    fn gate_worker_never_runs_ahead_of_released_steps() {
        // A worker hammering the gate as fast as it can, a controller
        // releasing with jitter, and a sampler asserting the run-ahead
        // invariant the whole time.
        let gate = StepGate::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let steps = 200u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..steps {
                    gate.pause();
                }
                gate.finish();
            });
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let p = gate.progress();
                    assert!(
                        p.finished <= p.released,
                        "worker ran ahead: finished {} > released {}",
                        p.finished,
                        p.released
                    );
                    assert!(
                        p.announced <= p.released + 1,
                        "worker announced past its release horizon"
                    );
                    std::thread::yield_now();
                }
            });
            // SplitMix64-style jitter without a rand dependency.
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 4 == 0 {
                    std::thread::yield_now();
                }
                gate.release_next(GATE_TIMEOUT).unwrap();
            }
            stop.store(true, Ordering::Release);
        });
    }

    #[test]
    fn gate_reports_finished_early_on_substep_mismatch() {
        let gate = StepGate::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.pause();
                gate.finish(); // announces 1 sub-step total
            });
            gate.release_next(GATE_TIMEOUT).unwrap();
            // The trace expects a second sub-step the worker never has.
            assert_eq!(
                gate.release_next(GATE_TIMEOUT),
                Err(GateError::FinishedEarly)
            );
        });
    }

    #[test]
    fn gate_reports_stall_on_absent_worker() {
        let gate = StepGate::new();
        assert_eq!(
            gate.release_next(std::time::Duration::from_millis(50)),
            Err(GateError::Stalled)
        );
        // An abandoned gate lets a later worker run unpaced.
        gate.release_all();
        gate.pause(); // returns immediately
        gate.finish();
    }

    #[test]
    fn granted_credits_meter_the_worker_without_lockstep_waits() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let gate = StepGate::new();
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    gate.pause();
                    done.fetch_add(1, Ordering::SeqCst);
                }
                gate.finish();
            });
            // Two credits: the worker burns both and parks at its third
            // pause — a stall injected at an exact sub-step boundary.
            gate.grant(2);
            while gate.progress().announced < 3 {
                std::thread::yield_now();
            }
            assert_eq!(done.load(Ordering::SeqCst), 2, "parked on the 3rd pause");
            // One more credit resumes it.
            gate.grant(1);
            while !gate.progress().done {
                std::thread::yield_now();
            }
            assert_eq!(done.load(Ordering::SeqCst), 3);
        });
    }
}
