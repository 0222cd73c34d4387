//! [`QuorumTs`](crate::QuorumTs) as a [`ts_model`] algorithm, one
//! register per replica.
//!
//! A client's machine is a [`Rerun`] of `QuorumTs`'s own `getTS` body
//! over a transport that replays the call's observations and halts at
//! the first exchange past them. Model register `r` *is* replica `r`'s
//! stored word; a [`Poised::Read`] is a `ReadQuery`/`ReadReply`
//! exchange; a [`Poised::Cas`] is an `Install`/`InstallReply` exchange
//! (the replica's conditional install is exactly a CAS on its word,
//! and the reply carries the prior word). One model step = one message
//! delivery, so the explorer enumerates **message interleavings** of
//! the code that ships, and a counterexample schedule serializes
//! through the standard trace machinery. A machine's state key is its call, its
//! poised step and the body's last point: phase, window, observed
//! words, scan index and proposal.
//!
//! [`QuorumModel::broken`] is the deliberately faulty variant (write
//! quorum of 1): reads and writes stop intersecting, and two
//! non-overlapping `getTS` calls can read disjoint replica sets and
//! return equal timestamps. The explorer finds that interleaving in a
//! few dozen states; the minimized trace is checked into the trace
//! corpus.
//!
//! # Crash-stop faults
//!
//! [`QuorumModel::crash_stop`] adds an *adversary process* whose one
//! "operation" is an environment event, not a `getTS` call: it writes
//! the crash sentinel [`BOT`] (`u64::MAX`) into one replica-register,
//! modelling a crash-stop failure of that replica — a crashed replica
//! of the real cluster answers `QuorumTs` with [`BOT`] too. The body
//! widens past it: a read observing [`BOT`] does not count toward the
//! read quorum (the call reads the next replica), and an install
//! observing [`BOT`] re-targets the next unread replica. Safety under
//! crash-stop follows because every register sequence stays monotone
//! (the sentinel is `u64::MAX`, and nothing ever lowers a register), so
//! the standard quorum-intersection argument goes through — the
//! explorer confirms it exhaustively.
//!
//! [`QuorumModel::crash_skip_resync`] models the real cluster's
//! `restart_skip_resync`: after the crash the adversary restarts the
//! replica **amnesiac** — a second step writes `0` (the initial value)
//! over the sentinel, with no catch-up from its peers. That one
//! omission re-opens the duplicate-timestamp race: a write acked by a
//! quorum containing the crashed replica loses a live copy, and a later
//! reader whose quorum hits the amnesiac replica (plus an untouched
//! one) sees only initial values and proposes an already-issued
//! timestamp. The explorer finds the interleaving; the minimized trace
//! joins the trace corpus, and the real cluster's resync sweep is
//! exactly the mechanism that closes it (a sequential test of
//! `restart_skip_resync` on real replicas shows the same duplicate).
//!
//! The adversary's op is excluded from the timestamp property via
//! [`Algorithm::op_observable`] — a crash has no timestamp — but its
//! steps still interleave and order client ops through the history.

use ts_core::Timestamp;
use ts_model::rerun::{Body, Log, Rerun, Step};
use ts_model::{Algorithm, Machine, Poised, ProcId};

use crate::cluster::{self, Point, Transport, BOT};

/// How replica crashes appear in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CrashMode {
    /// No adversary process; the original fault-free model.
    None,
    /// Crash-stop: one replica is killed and never returns. Safe.
    Stop,
    /// Crash, then an amnesiac restart with **no resync** — the
    /// register returns holding its initial value. Unsafe; yields the
    /// `quorum_crash_skip_resync` counterexample.
    SkipResync,
}

/// One call of a [`QuorumModel`]: process `pid`'s `getTS`, or the
/// crash adversary's event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuorumCall {
    model: QuorumModel,
    pid: ProcId,
}

/// A call's log as replica words: model register `r` is replica `r`'s.
struct Replay<'l, 'a> {
    log: &'l Log<'a, QuorumCall>,
    replicas: usize,
}

impl Transport for Replay<'_, '_> {
    type Halt = Step<QuorumCall>;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn fetch(&self, r: usize) -> Result<u64, Step<QuorumCall>> {
        self.log.read(r).copied()
    }

    fn install(&self, r: usize, expected: u64, new: u64) -> Result<u64, Step<QuorumCall>> {
        self.log.cas(r, expected, new).copied()
    }

    fn at(&self, point: &Point) {
        self.log.at(point.clone());
    }
}

impl Body for QuorumCall {
    type Value = u64;
    type Output = Timestamp;
    type Point = Point;

    fn run(&self, log: &Log<'_, Self>) -> Result<Timestamp, Step<Self>> {
        let Self { model, pid } = *self;
        if Some(pid) == model.crash_pid() {
            // The crash, then the amnesiac restart of skip-resync.
            log.write(model.f, || BOT)?;
            if model.crash == CrashMode::SkipResync {
                log.write(model.f, || 0)?;
            }
            return Ok(Timestamp::scalar(0));
        }
        let replay = Replay {
            log,
            replicas: model.registers(),
        };
        let t = cluster::get_ts(&replay, pid, model.write_quorum)?;
        Ok(Timestamp::scalar(t))
    }

    fn may_read(&self, step: &Step<Self>, point: Option<&Point>) -> Option<Vec<usize>> {
        Some(self.footprint(step, point, false))
    }

    fn may_write(&self, step: &Step<Self>, point: Option<&Point>) -> Option<Vec<usize>> {
        Some(self.footprint(step, point, true))
    }
}

impl QuorumCall {
    /// DPOR footprint of a call poised on `step` at `point`, for its
    /// writes or its reads (CAS observations count as reads). A client
    /// covers its write set or its whole read window before its
    /// installs, then the write-set members it has not installed on;
    /// next to a crash adversary it may widen to any replica. The
    /// adversary writes only its target.
    fn footprint(&self, step: &Step<Self>, point: Option<&Point>, writes: bool) -> Vec<usize> {
        let Self { model, pid } = *self;
        let replicas = model.registers();
        let offsets = match (step, point.and_then(|point| point.install)) {
            (Poised::Done(_), _) => 0..0,
            _ if Some(pid) == model.crash_pid() => {
                return Vec::from_iter(writes.then_some(model.f))
            }
            _ if model.crash != CrashMode::None => return (0..replicas).collect(),
            (_, Some((j, ..))) => j..model.write_quorum,
            (_, None) if writes => 0..model.write_quorum,
            (_, None) => 0..model.f + 1,
        };
        offsets.map(|i| (pid + i) % replicas).collect()
    }
}

/// The replicated timestamp algorithm over `2f + 1` replica-registers,
/// re-running [`QuorumTs`](crate::QuorumTs)'s `getTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuorumModel {
    n: usize,
    f: usize,
    write_quorum: usize,
    crash: CrashMode,
}

impl QuorumModel {
    /// Correct protocol for `n` processes tolerating `f` failures:
    /// read and write quorums of `f + 1` over `2f + 1` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, f: usize) -> Self {
        Self::with_write_quorum(n, f, f + 1)
    }

    /// The deliberately broken variant: writes land on one replica.
    pub fn broken(n: usize, f: usize) -> Self {
        Self::with_write_quorum(n, f, 1)
    }

    /// Explicit write-quorum size (`1..=f + 1`).
    pub fn with_write_quorum(n: usize, f: usize, write_quorum: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(
            (1..=f + 1).contains(&write_quorum),
            "write quorum must be in 1..=f+1"
        );
        Self {
            n,
            f,
            write_quorum,
            crash: CrashMode::None,
        }
    }

    /// Correct quorums plus a crash-stop adversary: an extra process
    /// (pid `n`) whose single op kills replica-register `f` with the
    /// [`BOT`] sentinel. Clients widen past the dead replica; the
    /// explorer verifies safety exhaustively (see the module docs for
    /// why monotonicity makes the quorum argument survive).
    pub fn crash_stop(n: usize, f: usize) -> Self {
        let mut model = Self::new(n, f);
        model.crash = CrashMode::Stop;
        model
    }

    /// Correct quorums plus a crash **and an amnesiac restart with no
    /// resync**: after the [`BOT`] write, the adversary restores the
    /// register to its initial value. The model of the real cluster's
    /// `restart_skip_resync` — the explorer finds the duplicate-
    /// timestamp counterexample this reintroduces.
    pub fn crash_skip_resync(n: usize, f: usize) -> Self {
        let mut model = Self::new(n, f);
        model.crash = CrashMode::SkipResync;
        model
    }

    /// Whether quorums intersect *and* recovery resyncs (the protocol
    /// is correct).
    pub fn is_correct(&self) -> bool {
        self.write_quorum == self.f + 1 && self.crash != CrashMode::SkipResync
    }

    /// The crash adversary's process id, when the model has one.
    pub fn crash_pid(&self) -> Option<ProcId> {
        (self.crash != CrashMode::None).then_some(self.n)
    }
}

impl Algorithm for QuorumModel {
    type Machine = Rerun<QuorumCall>;

    fn processes(&self) -> usize {
        self.n + usize::from(self.crash != CrashMode::None)
    }

    fn registers(&self) -> usize {
        2 * self.f + 1
    }

    fn initial_value(&self) -> u64 {
        0
    }

    fn invoke(&self, pid: ProcId, _op_index: usize) -> Rerun<QuorumCall> {
        assert!(pid < self.processes(), "pid {pid} out of range");
        Rerun::new(QuorumCall { model: *self, pid })
    }

    fn compare(&self, t1: &Timestamp, t2: &Timestamp) -> bool {
        Timestamp::compare(t1, t2)
    }

    // A fresh call's footprints are those of every call of `pid`.
    fn op_may_read(&self, pid: ProcId) -> Option<Vec<usize>> {
        self.invoke(pid, 0).may_read()
    }

    fn op_may_write(&self, pid: ProcId) -> Option<Vec<usize>> {
        self.invoke(pid, 0).may_write()
    }

    fn op_observable(&self, pid: ProcId) -> bool {
        // The adversary's "op" is an environment event (crash /
        // amnesiac restart), not a getTS call: exclude it from the
        // timestamp property. Its steps still order client ops.
        Some(pid) != self.crash_pid()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{Cluster, ClusterConfig, QuorumTs};
    use ts_model::{CacheMode, Explorer, System};

    #[test]
    fn model_and_object_agree_word_for_word() {
        for f in 0..=2 {
            for write_quorum in [1, f + 1] {
                for n in 1..=5 {
                    let cluster = Cluster::new(ClusterConfig::new(f));
                    let object = QuorumTs::with_write_quorum(Arc::clone(&cluster), write_quorum);
                    let model = QuorumModel::with_write_quorum(n, f, write_quorum);
                    let mut sys = System::new(model);
                    // Three solo calls per pid, in pid order; the
                    // object's register is its cluster's first.
                    for (k, pid) in (0..3).flat_map(|_| 0..n).enumerate() {
                        let got = sys.run_solo_to_completion(pid, 1_000).unwrap();
                        assert_eq!(got, object.get_ts(pid), "f {f}, n {n}, call {k}");
                        let words: Vec<u64> = (0..2 * f + 1)
                            .map(|r| cluster.replica(r).stored(0).1)
                            .collect();
                        assert_eq!(sys.config().regs, words, "f {f}, n {n}, call {k}");
                    }
                    if model.is_correct() {
                        assert!(sys.check_property().is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_calls_count_up() {
        let mut sys = System::new(QuorumModel::new(2, 1));
        let a = sys.run_solo_to_completion(0, 100).unwrap();
        let b = sys.run_solo_to_completion(1, 100).unwrap();
        let c = sys.run_solo_to_completion(0, 100).unwrap();
        assert_eq!(a, Timestamp::scalar(1));
        assert_eq!(b, Timestamp::scalar(2));
        assert_eq!(c, Timestamp::scalar(3));
        assert!(sys.check_property().is_none());
    }

    #[test]
    fn correct_quorums_pass_exhaustive_exploration() {
        let report = Explorer::new(QuorumModel::new(2, 1), 1).run();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(!report.truncated);
        assert!(report.executions > 0);
    }

    #[test]
    fn broken_write_quorum_yields_a_counterexample() {
        let model = QuorumModel::broken(2, 1);
        let report = Explorer::new(model, 1)
            .with_reduction(false)
            .with_cache(CacheMode::Exact)
            .run();
        let violation = report.violation.expect("wq=1 must violate");
        // The schedule reproduces deterministically.
        let report2 = Explorer::new(model, 1)
            .with_reduction(false)
            .with_cache(CacheMode::Exact)
            .run();
        assert_eq!(
            report2.violation.expect("still violates").schedule,
            violation.schedule
        );
    }

    #[test]
    fn dpor_agrees_with_the_ground_truth_on_the_broken_model() {
        let model = QuorumModel::broken(2, 1);
        let full = Explorer::new(model, 1).with_cache(CacheMode::None).run();
        let dpor = Explorer::new(model, 1).run();
        assert_eq!(full.violation.is_some(), dpor.violation.is_some());
    }

    #[test]
    fn footprints_cover_the_rotation_windows() {
        let model = QuorumModel::new(2, 1);
        assert_eq!(model.op_may_read(0), Some(vec![0, 1]));
        assert_eq!(model.op_may_read(1), Some(vec![1, 2]));
        assert_eq!(model.op_may_write(1), Some(vec![1, 2]));
        let broken = QuorumModel::broken(2, 1);
        assert_eq!(broken.op_may_write(1), Some(vec![1]));

        let machine = model.invoke(1, 0);
        assert_eq!(machine.may_read(), Some(vec![1, 2]));
        assert_eq!(machine.may_write(), Some(vec![1, 2]));
    }

    #[test]
    fn crash_stop_passes_exhaustive_exploration() {
        // Two clients, one crash-stop adversary: the explorer checks
        // every interleaving of the crash against both getTS calls.
        let report = Explorer::new(QuorumModel::crash_stop(2, 1), 1).run();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(!report.truncated);
        assert!(report.executions > 0);
    }

    #[test]
    fn skip_resync_restart_yields_a_counterexample() {
        let model = QuorumModel::crash_skip_resync(2, 1);
        assert!(!model.is_correct());
        let report = Explorer::new(model, 1).run();
        let violation = report.violation.expect("amnesiac restart must violate");
        // The schedule reproduces deterministically.
        let report2 = Explorer::new(model, 1).run();
        assert_eq!(
            report2.violation.expect("still violates").schedule,
            violation.schedule
        );
    }

    #[test]
    fn widening_reads_skip_the_crash_sentinel() {
        let model = QuorumModel::crash_stop(2, 1);
        let mut m = model.invoke(0, 0);
        // First read hits the crashed replica: widen, don't count it.
        assert_eq!(m.poised(), Poised::Read { reg: 0 });
        m.observe(Some(BOT));
        assert_eq!(m.poised(), Poised::Read { reg: 1 });
        m.observe(Some(3));
        assert_eq!(m.poised(), Poised::Read { reg: 2 });
        m.observe(Some(0));
        // Proposal 4; installs target the *live* window {1, 2}.
        match m.poised() {
            Poised::Cas { reg, expected, new } => {
                assert_eq!((reg, expected, new), (1, 3, 4));
            }
            other => panic!("expected a CAS, got {other:?}"),
        }
    }

    #[test]
    fn widening_installs_retarget_a_freshly_crashed_replica() {
        let model = QuorumModel::crash_stop(2, 1);
        let mut m = model.invoke(0, 0);
        m.observe(Some(0)); // reg 0
        m.observe(Some(0)); // reg 1 → proposal 1, installs on {0, 1}
        m.observe(Some(0)); // CAS reg 0 lands
                            // Replica 1 crashed between our read and the install: the CAS
                            // observes the sentinel and the install re-targets reg 2.
        m.observe(Some(BOT));
        match m.poised() {
            Poised::Cas { reg, expected, new } => {
                assert_eq!((reg, expected, new), (2, 0, 1));
            }
            other => panic!("expected a widened CAS, got {other:?}"),
        }
        m.observe(Some(0));
        assert_eq!(m.poised(), Poised::Done(Timestamp::scalar(1)));
    }

    #[test]
    fn crash_adversary_is_excluded_from_the_property_but_footprinted() {
        let model = QuorumModel::crash_skip_resync(2, 1);
        assert_eq!(model.processes(), 3);
        assert_eq!(model.crash_pid(), Some(2));
        assert!(model.op_observable(0));
        assert!(model.op_observable(1));
        assert!(!model.op_observable(2));
        // Adversary footprint: writes only the target register.
        assert_eq!(model.op_may_read(2), Some(vec![]));
        assert_eq!(model.op_may_write(2), Some(vec![1]));
        // Widening clients may touch anything.
        assert_eq!(model.op_may_read(0), Some(vec![0, 1, 2]));
        let crasher = model.invoke(2, 0);
        assert_eq!(crasher.poised(), Poised::Write { reg: 1, value: BOT });
        assert_eq!(crasher.may_write(), Some(vec![1]));
        assert_eq!(crasher.may_read(), Some(vec![]));
    }

    #[test]
    fn machine_retries_a_lost_cas_with_the_observed_value() {
        let mut m = QuorumModel::new(1, 1).invoke(0, 0);
        // Reads of replicas 0 and 1 observe 0 → proposal 1.
        m.observe(Some(0));
        m.observe(Some(0));
        match m.poised() {
            Poised::Cas { reg, expected, new } => {
                assert_eq!((reg, expected, new), (0, 0, 1));
            }
            other => panic!("expected a CAS, got {other:?}"),
        }
        // Someone raced the register from 0 to 5: retry... no — 5 >= 1
        // means the replica is already past us; move on.
        m.observe(Some(5));
        match m.poised() {
            Poised::Cas { reg, expected, .. } => assert_eq!((reg, expected), (1, 0)),
            other => panic!("expected the second install, got {other:?}"),
        }
        m.observe(Some(0));
        assert_eq!(m.poised(), Poised::Done(Timestamp::scalar(1)));
    }
}
