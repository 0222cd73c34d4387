//! Tiny algorithms for exercising the model itself.
//!
//! These are deliberately *not* from the paper: [`CounterAlgorithm`] is a
//! naive read-increment-write "timestamp" over a single register. It is
//! correct for up to three one-shot processes and **incorrect for four or
//! more** (a stalled writer can roll the register back, letting a later
//! call return a non-larger value), which makes it an ideal canary for
//! the exhaustive explorer: the checker must pass n ≤ 3 and find a
//! violation at n = 4.

use crate::algorithm::Algorithm;
use crate::machine::Poised;
use crate::rerun::{Body, Log, Rerun, Step};
use crate::schedule::ProcId;

/// One counter call on register `reg`: read it, write `read + 1`,
/// return `read + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Counter {
    reg: usize,
}

impl Counter {
    /// The call on register `reg`.
    pub fn new(reg: usize) -> Self {
        Self { reg }
    }
}

impl Body for Counter {
    type Value = u64;
    type Output = u64;
    type Point = ();

    fn run(&self, log: &Log<'_, Self>) -> Result<u64, Step<Self>> {
        let v = *log.read(self.reg)?;
        log.write(self.reg, || v + 1)?;
        Ok(v + 1)
    }

    fn may_read(&self, step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(match step {
            Poised::Read { .. } => vec![self.reg],
            _ => vec![],
        })
    }

    fn may_write(&self, step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(match step {
            Poised::Done(_) => vec![],
            _ => vec![self.reg],
        })
    }
}

/// Step machine of one [`Counter`] call.
pub type CounterMachine = Rerun<Counter>;

/// One-shot "timestamp" from a single shared counter register.
///
/// `getTS()` reads the register, writes `read + 1`, and returns the
/// written value; `compare` is `<`. See the module docs for why this is
/// only correct for n ≤ 3.
#[derive(Debug, Clone)]
pub struct CounterAlgorithm {
    processes: usize,
}

impl CounterAlgorithm {
    /// Creates an instance for `processes` one-shot processes.
    pub fn new(processes: usize) -> Self {
        Self { processes }
    }
}

impl Algorithm for CounterAlgorithm {
    type Machine = CounterMachine;

    fn processes(&self) -> usize {
        self.processes
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_value(&self) -> u64 {
        0
    }

    fn invoke(&self, pid: ProcId, _op_index: usize) -> CounterMachine {
        assert!(pid < self.processes, "pid {pid} out of range");
        Rerun::new(Counter::new(0))
    }

    fn compare(&self, t1: &u64, t2: &u64) -> bool {
        t1 < t2
    }

    fn ops_per_process(&self) -> Option<usize> {
        Some(1)
    }

    fn op_may_read(&self, _pid: ProcId) -> Option<Vec<usize>> {
        Some(vec![0])
    }

    fn op_may_write(&self, _pid: ProcId) -> Option<Vec<usize>> {
        Some(vec![0])
    }
}

/// A blatantly broken one-shot timestamp: every call returns `0`.
///
/// Any two ordered calls violate the property; used to verify that
/// checkers and explorers detect violations at the shortest possible
/// histories.
#[derive(Debug, Clone)]
pub struct ConstantAlgorithm {
    processes: usize,
}

impl ConstantAlgorithm {
    /// Creates an instance for `processes` one-shot processes.
    pub fn new(processes: usize) -> Self {
        Self { processes }
    }
}

/// A [`ConstantAlgorithm`] call: done at once with output 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constant;

impl Body for Constant {
    type Value = u64;
    type Output = u64;
    type Point = ();

    fn run(&self, _log: &Log<'_, Self>) -> Result<u64, Step<Self>> {
        Ok(0)
    }

    fn may_read(&self, _step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(vec![])
    }

    fn may_write(&self, _step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(vec![])
    }
}

/// Step machine of one [`Constant`] call.
pub type ConstantMachine = Rerun<Constant>;

impl Algorithm for ConstantAlgorithm {
    type Machine = ConstantMachine;

    fn processes(&self) -> usize {
        self.processes
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_value(&self) -> u64 {
        0
    }

    fn invoke(&self, _pid: ProcId, _op_index: usize) -> ConstantMachine {
        Rerun::new(Constant)
    }

    fn compare(&self, t1: &u64, t2: &u64) -> bool {
        t1 < t2
    }

    fn ops_per_process(&self) -> Option<usize> {
        Some(1)
    }

    fn op_may_read(&self, _pid: ProcId) -> Option<Vec<usize>> {
        Some(vec![])
    }

    fn op_may_write(&self, _pid: ProcId) -> Option<Vec<usize>> {
        Some(vec![])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::system::System;

    #[test]
    fn counter_machine_lifecycle() {
        let mut m = Rerun::new(Counter::new(0));
        assert_eq!(m.poised(), Poised::Read { reg: 0 });
        m.observe(Some(4));
        assert_eq!(m.poised(), Poised::Write { reg: 0, value: 5 });
        m.observe(None);
        assert_eq!(m.poised(), Poised::Done(5));
    }

    #[test]
    #[should_panic(expected = "invalid observe")]
    fn counter_machine_rejects_mismatched_observation() {
        let mut m = Rerun::new(Counter::new(0));
        m.observe(None); // poised on a read, must receive Some
    }

    #[test]
    fn identity_is_the_poised_step_and_point_not_the_log() {
        let mut a = Rerun::new(Counter::new(0));
        let b = a.clone();
        a.observe(Some(4));
        assert_ne!(a, b);
        let mut c = Rerun::new(Counter::new(0));
        c.observe(Some(4));
        assert_eq!(a, c);
        a.observe(None);
        c.observe(None);
        assert_eq!(a, c, "done machines compare by output alone");
    }

    #[test]
    fn constant_algorithm_violates_immediately() {
        let mut sys = System::new(ConstantAlgorithm::new(2));
        sys.run_solo_to_completion(0, 10).unwrap();
        sys.run_solo_to_completion(1, 10).unwrap();
        assert!(sys.check_property().is_some());
    }

    #[test]
    fn counter_algorithm_sequential_runs_are_correct() {
        let mut sys = System::new(CounterAlgorithm::new(3));
        for p in 0..3 {
            sys.run_solo_to_completion(p, 10).unwrap();
        }
        assert!(sys.check_property().is_none());
    }
}
