//! Configurations: process states plus register contents.

use std::collections::BTreeMap;

use crate::machine::{Machine, Poised};
use crate::schedule::ProcId;

/// A configuration `C = (s_1, ..., s_n, v_1, ..., v_m)` of the model.
///
/// Each process is either *idle* (`None` — no pending method call, the
/// paper's initial state between operations) or holds the state of its
/// pending call's [`Machine`]. Register `j` holds `regs[j]`.
///
/// Configurations support the predicates the covering arguments are built
/// from: which process covers which register, the signature, and
/// indistinguishability for a process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration<M: Machine> {
    /// Pending-call machine per process (`None` = idle).
    pub procs: Vec<Option<M>>,
    /// Register contents.
    pub regs: Vec<M::Value>,
}

impl<M: Machine> Configuration<M> {
    /// The initial configuration: all processes idle, all registers
    /// holding `initial`.
    pub fn initial(processes: usize, registers: usize, initial: M::Value) -> Self {
        Self {
            procs: vec![None; processes],
            regs: vec![initial; registers],
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.procs.len()
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.regs.len()
    }

    /// The register process `pid` covers (is poised to write), if any.
    pub fn covers(&self, pid: ProcId) -> Option<usize> {
        self.procs[pid].as_ref().and_then(|m| m.poised().covers())
    }

    /// All processes covering some register of `set`.
    ///
    /// This is the paper's `poised(C, R)`.
    pub fn poised_on(&self, set: &[usize]) -> Vec<ProcId> {
        (0..self.processes())
            .filter(|&p| self.covers(p).is_some_and(|r| set.contains(&r)))
            .collect()
    }

    /// Processes that are idle (no pending call).
    ///
    /// Note: the paper's `idle(C)` for the one-shot construction means
    /// "still in its initial state", i.e. never invoked; track invocation
    /// counts in [`System`](crate::System) for that distinction. Here
    /// `None` means exactly "no pending call".
    pub fn idle(&self) -> Vec<ProcId> {
        (0..self.processes())
            .filter(|&p| self.procs[p].is_none())
            .collect()
    }

    /// The signature `sig(C)`: per register, the number of processes
    /// covering it.
    pub fn signature(&self) -> Vec<usize> {
        let mut sig = vec![0usize; self.registers()];
        for p in 0..self.processes() {
            if let Some(r) = self.covers(p) {
                sig[r] += 1;
            }
        }
        sig
    }

    /// Map from covered register to the processes covering it.
    pub fn covering_map(&self) -> BTreeMap<usize, Vec<ProcId>> {
        let mut map: BTreeMap<usize, Vec<ProcId>> = BTreeMap::new();
        for p in 0..self.processes() {
            if let Some(r) = self.covers(p) {
                map.entry(r).or_default().push(p);
            }
        }
        map
    }

    /// Whether `self` and `other` are indistinguishable to process `pid`:
    /// same local state and same register contents.
    pub fn indistinguishable_to(&self, other: &Self, pid: ProcId) -> bool {
        self.procs[pid] == other.procs[pid] && self.regs == other.regs
    }

    /// Whether a process is poised on a completed call (its next step is
    /// the local return).
    pub fn poised_done(&self, pid: ProcId) -> bool {
        self.procs[pid]
            .as_ref()
            .is_some_and(|m| m.poised().is_done())
    }

    /// The poised step of process `pid`, if it has a pending call.
    pub fn poised(&self, pid: ProcId) -> Option<Poised<M::Value, M::Output>> {
        self.procs[pid].as_ref().map(|m| m.poised())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rerun::Rerun;
    use crate::toy::{Counter, CounterMachine};

    fn covering_machine(reg: usize) -> CounterMachine {
        // A CounterMachine first reads register 0, then writes; drive it
        // past the read so that it covers its register.
        let mut m = Rerun::new(Counter::new(reg));
        m.observe(Some(0)); // deliver the read
        m
    }

    #[test]
    fn initial_configuration_is_all_idle() {
        let c: Configuration<CounterMachine> = Configuration::initial(3, 2, 0);
        assert_eq!(c.idle(), vec![0, 1, 2]);
        assert_eq!(c.signature(), vec![0, 0]);
        assert!(c.covering_map().is_empty());
    }

    #[test]
    fn signature_counts_covering_processes() {
        let mut c: Configuration<CounterMachine> = Configuration::initial(3, 2, 0);
        c.procs[0] = Some(covering_machine(1));
        c.procs[2] = Some(covering_machine(1));
        assert_eq!(c.signature(), vec![0, 2]);
        assert_eq!(c.covering_map().get(&1), Some(&vec![0, 2]));
        assert_eq!(c.poised_on(&[1]), vec![0, 2]);
        assert_eq!(c.poised_on(&[0]), Vec::<ProcId>::new());
    }

    #[test]
    fn indistinguishability_is_per_process() {
        let mut a: Configuration<CounterMachine> = Configuration::initial(2, 1, 0);
        let b = a.clone();
        a.procs[0] = Some(covering_machine(0));
        assert!(!a.indistinguishable_to(&b, 0));
        assert!(a.indistinguishable_to(&b, 1));
    }

    #[test]
    fn register_change_distinguishes_everyone() {
        let a: Configuration<CounterMachine> = Configuration::initial(2, 1, 0);
        let mut b = a.clone();
        b.regs[0] = 5;
        assert!(!a.indistinguishable_to(&b, 0));
        assert!(!a.indistinguishable_to(&b, 1));
    }
}
