//! The simple one-shot algorithm of Section 5 (Algorithms 1–2).
//!
//! `⌈n/2⌉` registers, each shared by a *pair* of processes and holding a
//! value in `{0, 1, 2}`. `simple-getTS()` by process `p` walks the array
//! in order; at `p`'s own register it increments the value; the returned
//! timestamp is the sum of all values it observed. `simple-compare` is
//! plain `<` on the sums.
//!
//! Correctness (Lemma 5.1) hinges on one-shot-ness: a register only ever
//! steps `0 → 1 → 2` (a process writes 2 only after observing its
//! partner's 1), so register values — and therefore sums — never
//! decrease, and a later `getTS` additionally counts its own increment.
//!
//! Because every register value fits two bits, the object defaults to
//! the word-inlined [`PackedBackend`]: each register operation is a
//! single hardware atomic, with no heap traffic and no epoch pinning.
//! The epoch-backed variant ([`EpochSimpleOneShot`]) exists for
//! apples-to-apples substrate comparisons in `bench_contention`.
//!
//! `simple-getTS` is written once, as `get_ts` over the crate's
//! register-word storage: the object is one storage, and the model
//! checker's `ts_core::model::SimpleModel` re-runs the same body over a
//! replaying one.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use ts_register::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend, SpaceMeter};

use crate::error::GetTsError;
use crate::timestamp::Timestamp;
use crate::traits::OneShotTimestamp;
use crate::words;

/// One-shot timestamp object using `⌈n/2⌉` registers (Algorithms 1–2),
/// generic over the register storage backend.
///
/// # Example
///
/// ```
/// use ts_core::{OneShotTimestamp, SimpleOneShot, Timestamp};
///
/// let ts = SimpleOneShot::new(6); // 3 registers
/// assert_eq!(ts.registers(), 3);
/// let a = ts.get_ts(0).unwrap();
/// let b = ts.get_ts(1).unwrap();
/// assert!(Timestamp::compare(&a, &b));
/// ```
pub struct SimpleOneShot<B: RegisterBackend<u64> = PackedBackend> {
    registers: Vec<B::Reg>,
    used: Vec<AtomicBool>,
    meter: SpaceMeter,
    processes: usize,
}

/// [`SimpleOneShot`] over epoch-reclaimed heap-cell registers — same
/// algorithm, heavier substrate; used to quantify the packed backend's
/// advantage.
pub type EpochSimpleOneShot = SimpleOneShot<EpochBackend>;

impl SimpleOneShot<PackedBackend> {
    /// Creates an object for `processes` processes using `⌈n/2⌉`
    /// word-inlined registers (the default backend).
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn new(processes: usize) -> Self {
        Self::with_backend(processes)
    }
}

impl<B: RegisterBackend<u64>> SimpleOneShot<B> {
    /// Creates an object for `processes` processes using `⌈n/2⌉`
    /// registers on the backend `B`.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn with_backend(processes: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        let m = processes.div_ceil(2);
        Self {
            registers: (0..m).map(|_| B::Reg::with_initial(0)).collect(),
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
            meter: SpaceMeter::new(m),
            processes,
        }
    }

    /// The meter recording this object's register traffic.
    pub fn meter(&self) -> &SpaceMeter {
        &self.meter
    }

    /// Read-only walk over all registers, returning the sum of observed
    /// values — the observation half of `get_ts`, without the increment.
    ///
    /// Any timestamp issued before this call started has value at most
    /// `observed_sum() + ⌈n/2⌉` (each register adds at most 2). Used as
    /// the workload engine's *scan* operation.
    pub fn observed_sum(&self) -> u64 {
        let reads = (0..self.registers.len()).map(|i| words::Words::read(self, i));
        reads.map(|Ok(v)| v).sum()
    }
}

/// Where a `simple-getTS` call is in its walk, with the sum so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// Reading the next register (and writing it, if it is the own).
    Walk(u64),
    /// Re-reading the own register after incrementing it.
    Reread(u64),
}

/// Algorithm 2 for `pid`: walk all registers, incrementing the own one
/// (register `i` is shared by processes `2i` and `2i+1`); the sum of the
/// observed values, or the storage's halt.
pub(crate) fn get_ts<S: words::Words<Point = Point>>(s: &S, pid: usize) -> Result<u64, S::Halt> {
    let own = pid / 2;
    let mut sum = 0;
    for i in 0..s.registers() {
        s.at(Point::Walk(sum));
        let v = s.read(i)?;
        if i == own {
            // R[i] := R[i] + 1, then sum := sum + R[i] — read, write,
            // re-read, exactly as in the pseudocode.
            s.write(i, v + 1)?;
            s.at(Point::Reread(sum));
            sum += s.read(i)?;
        } else {
            sum += v;
        }
    }
    Ok(sum)
}

impl<B: RegisterBackend<u64>> words::Words for SimpleOneShot<B> {
    type Halt = Infallible;
    type Point = Point;

    fn registers(&self) -> usize {
        self.registers.len()
    }

    fn read(&self, i: usize) -> Result<u64, Infallible> {
        self.meter.record_read(i);
        Ok(ts_register::Register::read(&self.registers[i]))
    }

    fn write(&self, i: usize, value: u64) -> Result<(), Infallible> {
        self.meter.record_write(i);
        ts_register::Register::write(&self.registers[i], value);
        Ok(())
    }
}

impl<B: RegisterBackend<u64>> OneShotTimestamp for SimpleOneShot<B> {
    /// Algorithm 2: walk all registers, incrementing one's own; return
    /// the sum of observed values as a scalar timestamp.
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        if pid >= self.processes {
            return Err(GetTsError::PidOutOfRange {
                pid,
                processes: self.processes,
            });
        }
        if self.used[pid].swap(true, Ordering::AcqRel) {
            return Err(GetTsError::AlreadyUsed { pid });
        }
        let Ok(sum) = get_ts(self, pid);
        Ok(Timestamp::scalar(sum))
    }

    fn processes(&self) -> usize {
        self.processes
    }

    fn registers(&self) -> usize {
        self.registers.len()
    }
}

impl<B: RegisterBackend<u64>> fmt::Debug for SimpleOneShot<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimpleOneShot")
            .field("processes", &self.processes)
            .field("registers", &self.registers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_count_is_half_n_rounded_up() {
        assert_eq!(SimpleOneShot::new(1).registers(), 1);
        assert_eq!(SimpleOneShot::new(2).registers(), 1);
        assert_eq!(SimpleOneShot::new(5).registers(), 3);
        assert_eq!(SimpleOneShot::new(8).registers(), 4);
    }

    #[test]
    fn sequential_timestamps_strictly_increase() {
        let ts = SimpleOneShot::new(8);
        let mut last = None;
        for p in 0..8 {
            let t = ts.get_ts(p).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "p{p}: {prev} !< {t}");
            }
            last = Some(t);
        }
    }

    #[test]
    fn epoch_backend_behaves_identically_sequentially() {
        let ts = EpochSimpleOneShot::with_backend(8);
        assert_eq!(ts.registers(), 4);
        let mut last = None;
        for p in 0..8 {
            let t = ts.get_ts(p).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "p{p}: {prev} !< {t}");
            }
            last = Some(t);
        }
    }

    #[test]
    fn second_call_is_rejected() {
        let ts = SimpleOneShot::new(2);
        ts.get_ts(0).unwrap();
        assert_eq!(ts.get_ts(0), Err(GetTsError::AlreadyUsed { pid: 0 }));
    }

    #[test]
    fn out_of_range_pid_is_rejected() {
        let ts = SimpleOneShot::new(2);
        assert!(matches!(
            ts.get_ts(5),
            Err(GetTsError::PidOutOfRange { pid: 5, .. })
        ));
    }

    #[test]
    fn register_values_never_exceed_two() {
        let ts = SimpleOneShot::new(6);
        for p in 0..6 {
            ts.get_ts(p).unwrap();
        }
        for i in 0..ts.registers.len() {
            let Ok(v) = words::Words::read(&ts, i);
            assert!(v <= 2, "register {i} = {v}");
        }
    }

    #[test]
    fn space_meter_reports_all_registers_written() {
        let ts = SimpleOneShot::new(7);
        for p in 0..7 {
            ts.get_ts(p).unwrap();
        }
        let snap = ts.meter().snapshot();
        assert_eq!(snap.registers_written(), 4); // ⌈7/2⌉
    }

    #[test]
    fn concurrent_rounds_respect_happens_before() {
        // Round 1: half the processes take timestamps concurrently.
        // Round 2 (strictly after): the rest. Every round-2 timestamp
        // must compare above every round-1 timestamp. Run on both
        // backends: the packed default and the epoch substrate.
        fn run<B: RegisterBackend<u64>>() {
            let n = 16;
            let ts = Arc::new(SimpleOneShot::<B>::with_backend(n));
            let round1: Vec<Timestamp> = crossbeam::scope(|s| {
                let handles: Vec<_> = (0..n / 2)
                    .map(|p| {
                        let ts = Arc::clone(&ts);
                        s.spawn(move |_| ts.get_ts(p).unwrap())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            let round2: Vec<Timestamp> = crossbeam::scope(|s| {
                let handles: Vec<_> = (n / 2..n)
                    .map(|p| {
                        let ts = Arc::clone(&ts);
                        s.spawn(move |_| ts.get_ts(p).unwrap())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            for a in &round1 {
                for b in &round2 {
                    assert!(Timestamp::compare(a, b), "{a} !< {b}");
                    assert!(!Timestamp::compare(b, a), "{b} < {a}");
                }
            }
        }
        run::<PackedBackend>();
        run::<EpochBackend>();
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = SimpleOneShot::new(0);
    }
}
