//! Deliberately incorrect timestamp objects (failure injection).
//!
//! These exist so the test suite can demonstrate that its checkers — the
//! model explorer, the happens-before stress tests, the property tests,
//! the history recorder and the schedule replay — actually *fail* on
//! broken implementations rather than passing vacuously. They are
//! exported (rather than test-only) because the root integration tests
//! and the replay corpus in `ts-workloads` drive them from outside this
//! crate.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use ts_register::WordRegister;

use crate::error::GetTsError;
use crate::timestamp::Timestamp;
use crate::traits::OneShotTimestamp;
use crate::words;

fn one_shot_guard(used: &[AtomicBool], pid: usize) -> Result<(), GetTsError> {
    if pid >= used.len() {
        return Err(GetTsError::PidOutOfRange {
            pid,
            processes: used.len(),
        });
    }
    if used[pid].swap(true, Ordering::AcqRel) {
        return Err(GetTsError::AlreadyUsed { pid });
    }
    Ok(())
}

/// Broken object: every call returns `(0, 0)`.
///
/// Violates the property at the very first ordered pair.
pub struct BrokenConstant {
    used: Vec<AtomicBool>,
}

impl BrokenConstant {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl OneShotTimestamp for BrokenConstant {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        one_shot_guard(&self.used, pid)?;
        Ok(Timestamp::new(0, 0))
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        0
    }
}

impl fmt::Debug for BrokenConstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenConstant")
            .field("processes", &self.used.len())
            .finish()
    }
}

/// Broken object: reads a shared counter and returns it *without*
/// writing.
///
/// Two sequential calls observe the same counter and return equal
/// timestamps — an ordered pair that `compare` cannot separate. This is
/// the minimal "forgot to leave a trace" bug; the paper's lower bounds
/// are precisely about how much trace (register space) a correct object
/// *must* leave.
pub struct BrokenStaleRead {
    register: WordRegister,
    used: Vec<AtomicBool>,
}

impl BrokenStaleRead {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            register: WordRegister::new(0),
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl OneShotTimestamp for BrokenStaleRead {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        one_shot_guard(&self.used, pid)?;
        Ok(Timestamp::scalar(self.register.read()))
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        1
    }
}

impl fmt::Debug for BrokenStaleRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenStaleRead")
            .field("processes", &self.used.len())
            .finish()
    }
}

/// Broken object: read-increment-write on one shared register, with no
/// collect — the real object behind the model crate's toy counter.
///
/// `getTS()` reads the register, writes `read + 1`, and returns the
/// written value. Correct for up to three one-shot processes; **broken
/// for four or more**: a process stalled between its read and its write
/// can roll the register back after two others have taken strictly
/// larger timestamps, letting a fourth, strictly later call return a
/// non-larger value. Unlike [`BrokenConstant`] and [`BrokenStaleRead`],
/// this bug *requires an adversarial interleaving* — sequential runs
/// are clean — which makes it the canonical target for the schedule
/// replay harness: the model explorer finds the interleaving by
/// re-running this object's `getTS` body
/// ([`BrokenCounterModel`](crate::model::BrokenCounterModel)), and
/// replaying the minimized schedule against this object reproduces the
/// violation on real threads, which pause before the read and before
/// the write exactly where the counterexample needs them.
///
/// Its [`WorkloadTarget`](crate::workload::WorkloadTarget) impl is
/// **replay-only**: each slot supports exactly one `GetTs` (matching
/// the one-shot model), and a second op panics. To drive it with the
/// scenario engine, wrap it in
/// [`OneShotPool`](crate::workload::OneShotPool) like the other
/// one-shot objects.
pub struct BrokenCounter {
    register: WordRegister,
    used: Vec<AtomicBool>,
}

impl BrokenCounter {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            register: WordRegister::new(0),
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// `getTS` for `pid` on `words`: this object, or a view of it.
    pub(crate) fn get_ts_on<S>(&self, words: &S, pid: usize) -> Result<Timestamp, GetTsError>
    where
        S: words::Words<Point = (), Halt = Infallible>,
    {
        one_shot_guard(&self.used, pid)?;
        let Ok(t) = get_ts(words);
        Ok(Timestamp::scalar(t))
    }
}

/// The broken counter's `getTS`: read register 0, write one more,
/// return it (or the storage's halt).
pub(crate) fn get_ts<S: words::Words<Point = ()>>(s: &S) -> Result<u64, S::Halt> {
    let v = s.read(0)?;
    s.write(0, v + 1)?;
    Ok(v + 1)
}

impl words::Words for BrokenCounter {
    type Halt = Infallible;
    type Point = ();

    fn registers(&self) -> usize {
        1
    }

    fn read(&self, _: usize) -> Result<u64, Infallible> {
        Ok(self.register.read())
    }

    fn write(&self, _: usize, value: u64) -> Result<(), Infallible> {
        self.register.write(value);
        Ok(())
    }
}

impl OneShotTimestamp for BrokenCounter {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        self.get_ts_on(self, pid)
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        1
    }
}

impl fmt::Debug for BrokenCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenCounter")
            .field("processes", &self.used.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_violates_on_first_ordered_pair() {
        let ts = BrokenConstant::new(2);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(1).unwrap(); // strictly after a
        assert!(
            !Timestamp::compare(&a, &b),
            "sanity: the broken object must actually be broken"
        );
    }

    #[test]
    fn stale_read_violates_on_first_ordered_pair() {
        let ts = BrokenStaleRead::new(2);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(1).unwrap();
        assert!(!Timestamp::compare(&a, &b));
    }

    #[test]
    fn broken_counter_is_sequentially_clean() {
        // The counter's bug needs an adversarial interleaving; any
        // sequential order is correct — that's what makes it the replay
        // harness's canary rather than a trivially broken object.
        let ts = BrokenCounter::new(4);
        let mut last = Timestamp::scalar(0);
        for p in 0..4 {
            let t = ts.get_ts(p).unwrap();
            assert!(Timestamp::compare(&last, &t), "{last} !< {t}");
            last = t;
        }
    }

    #[test]
    fn broken_counter_stalled_writer_rolls_back() {
        // Drive the rollback by hand through a step gate: p0 reads 0
        // and stalls before its write; p1 and p2 finish (register
        // reaches 2, t1 = 1, t2 = 2); p0's pending write lands 1,
        // rolling the register back; p3's strictly-later call returns 2
        // again — equal to t2, violating the property.
        use crate::words::Gated;
        use crate::workload::StepGate;
        let timeout = std::time::Duration::from_secs(10);
        let ts = BrokenCounter::new(4);
        let gate = StepGate::new();
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let t = ts.get_ts_on(&Gated::new(&ts, &gate), 0).unwrap();
                gate.finish();
                t
            });
            gate.release_next(timeout).unwrap(); // p0 reads 0, poised to write 1
            let t1 = ts.get_ts(1).unwrap();
            let t2 = ts.get_ts(2).unwrap();
            assert!(Timestamp::compare(&t1, &t2));
            gate.release_next(timeout).unwrap(); // p0's stale write rolls back
            let t0 = handle.join().unwrap();
            assert_eq!(t0, Timestamp::scalar(1));
            let t3 = ts.get_ts(3).unwrap(); // strictly after p2 responded
            assert!(
                !Timestamp::compare(&t2, &t3),
                "expected the rollback to break ordering: t2={t2} t3={t3}"
            );
        });
    }

    #[test]
    fn broken_objects_still_enforce_one_shot_discipline() {
        let ts = BrokenConstant::new(1);
        ts.get_ts(0).unwrap();
        assert_eq!(ts.get_ts(0), Err(GetTsError::AlreadyUsed { pid: 0 }));
        let ts = BrokenStaleRead::new(1);
        ts.get_ts(0).unwrap();
        assert!(ts.get_ts(0).is_err());
    }
}
