//! Arbitrary straight-line register programs as [`Algorithm`]s.
//!
//! The differential property tests need a *family* of algorithms — not
//! just the handful of hand-written timestamp constructions — so the
//! full and DPOR explorers can be compared on randomly generated
//! programs. A [`ProgramAlgorithm`] gives each process a fixed sequence
//! of register steps ([`ProgStep`]); the call's output folds every value
//! the program observes, so any reordering two interleavings can
//! distinguish shows up in the reachable-outcome set.
//!
//! Because programs are straight-line (no branching on observed
//! values), the remaining-step footprints are *exact*, which makes this
//! family a sharp test for the persistent-set machinery: an unsound
//! footprint rule or independence classification shows up as a
//! full-vs-DPOR disagreement on violations or outcome sets.

use crate::algorithm::Algorithm;
use crate::rerun::{Body, Log, Rerun, Step};
use crate::schedule::ProcId;

/// One step of a straight-line register program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProgStep {
    /// Read a register (the observed value is folded into the output).
    Read {
        /// Register index to read.
        reg: usize,
    },
    /// Write a constant to a register.
    Write {
        /// Register index to write.
        reg: usize,
        /// Value written.
        value: u64,
    },
    /// Compare-and-swap a register (the observed prior value is folded
    /// into the output).
    Cas {
        /// Register index to compare-and-swap.
        reg: usize,
        /// Expected prior value.
        expected: u64,
        /// Value installed on success.
        new: u64,
    },
}

impl ProgStep {
    /// The register this step touches.
    pub fn reg(&self) -> usize {
        match self {
            ProgStep::Read { reg } | ProgStep::Write { reg, .. } | ProgStep::Cas { reg, .. } => {
                *reg
            }
        }
    }

    fn observes(&self) -> bool {
        matches!(self, ProgStep::Read { .. } | ProgStep::Cas { .. })
    }

    fn mutates(&self) -> bool {
        matches!(self, ProgStep::Write { .. } | ProgStep::Cas { .. })
    }
}

/// One straight-line program's call, its output seeded with `seed`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    steps: Vec<ProgStep>,
    seed: u64,
}

impl Program {
    /// The steps from the one at `point`'s pc on (none once done).
    fn rest(&self, point: Option<&(usize, u64)>) -> &[ProgStep] {
        &self.steps[point.map_or(self.steps.len(), |&(pc, _)| pc)..]
    }
}

impl Body for Program {
    type Value = u64;
    type Output = u64;
    /// The pc and the output folded so far.
    type Point = (usize, u64);

    fn run(&self, log: &Log<'_, Self>) -> Result<u64, Step<Self>> {
        // Order-sensitive fold: distinct observation sequences give
        // distinct outputs (up to 64-bit collisions), so the outcome
        // set distinguishes interleavings.
        let fold = |acc: u64, value: &u64| acc.wrapping_mul(1_000_003).wrapping_add(*value);
        let mut acc = self.seed;
        for (pc, step) in self.steps.iter().enumerate() {
            log.at((pc, acc));
            match step {
                ProgStep::Read { reg } => acc = fold(acc, log.read(*reg)?),
                ProgStep::Write { reg, value } => log.write(*reg, || *value)?,
                ProgStep::Cas { reg, expected, new } => {
                    acc = fold(acc, log.cas(*reg, *expected, *new)?);
                }
            }
        }
        Ok(acc)
    }

    // Straight-line programs make the remaining footprints exact.
    fn may_read(&self, _step: &Step<Self>, point: Option<&(usize, u64)>) -> Option<Vec<usize>> {
        let rest = self.rest(point).iter().filter(|s| s.observes());
        Some(rest.map(ProgStep::reg).collect())
    }

    fn may_write(&self, _step: &Step<Self>, point: Option<&(usize, u64)>) -> Option<Vec<usize>> {
        let rest = self.rest(point).iter().filter(|s| s.mutates());
        Some(rest.map(ProgStep::reg).collect())
    }
}

/// A one-shot algorithm assigning each process a fixed program.
///
/// The output of process `p`'s call starts from the accumulator seed
/// `p + 1` and folds every observed value; [`Algorithm::compare`] is
/// `<` on the folded outputs, so random programs frequently violate the
/// timestamp property — by design: the differential tests need both
/// violating and non-violating instances.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramAlgorithm {
    registers: usize,
    programs: Vec<Vec<ProgStep>>,
}

impl ProgramAlgorithm {
    /// Creates the algorithm from one program per process.
    ///
    /// # Panics
    ///
    /// Panics if any step names a register `>= registers`.
    pub fn new(registers: usize, programs: Vec<Vec<ProgStep>>) -> Self {
        for program in &programs {
            for step in program {
                assert!(
                    step.reg() < registers,
                    "step {step:?} out of range (m = {registers})"
                );
            }
        }
        Self {
            registers,
            programs,
        }
    }

    /// The programs, for shrinking/reporting.
    pub fn programs(&self) -> &[Vec<ProgStep>] {
        &self.programs
    }
}

impl Algorithm for ProgramAlgorithm {
    type Machine = Rerun<Program>;

    fn processes(&self) -> usize {
        self.programs.len()
    }

    fn registers(&self) -> usize {
        self.registers
    }

    fn initial_value(&self) -> u64 {
        0
    }

    fn invoke(&self, pid: ProcId, _op_index: usize) -> Rerun<Program> {
        Rerun::new(Program {
            steps: self.programs[pid].clone(),
            seed: pid as u64 + 1,
        })
    }

    fn compare(&self, t1: &u64, t2: &u64) -> bool {
        t1 < t2
    }

    fn ops_per_process(&self) -> Option<usize> {
        Some(1)
    }

    fn op_may_read(&self, pid: ProcId) -> Option<Vec<usize>> {
        Some(
            self.programs[pid]
                .iter()
                .filter(|s| s.observes())
                .map(ProgStep::reg)
                .collect(),
        )
    }

    fn op_may_write(&self, pid: ProcId) -> Option<Vec<usize>> {
        Some(
            self.programs[pid]
                .iter()
                .filter(|s| s.mutates())
                .map(ProgStep::reg)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{CacheMode, Explorer};

    fn check_agreement(algorithm: ProgramAlgorithm) {
        let full = Explorer::new(algorithm.clone(), 1)
            .with_reduction(false)
            .with_cache(CacheMode::Exact)
            .record_outcomes(true)
            .run();
        let dpor = Explorer::new(algorithm, 1).record_outcomes(true).run();
        assert_eq!(
            full.violation.is_some(),
            dpor.violation.is_some(),
            "full {:?} vs dpor {:?}",
            full.violation,
            dpor.violation
        );
        assert_eq!(full.outcomes, dpor.outcomes);
    }

    #[test]
    fn disjoint_programs_agree_and_reduce() {
        // Two processes on disjoint registers: heavy reduction, same
        // verdict.
        let algorithm = ProgramAlgorithm::new(
            2,
            vec![
                vec![
                    ProgStep::Write { reg: 0, value: 1 },
                    ProgStep::Read { reg: 0 },
                ],
                vec![
                    ProgStep::Write { reg: 1, value: 2 },
                    ProgStep::Read { reg: 1 },
                ],
            ],
        );
        check_agreement(algorithm);
    }

    #[test]
    fn racing_cas_programs_agree() {
        let algorithm = ProgramAlgorithm::new(
            1,
            vec![
                vec![ProgStep::Cas {
                    reg: 0,
                    expected: 0,
                    new: 7,
                }],
                vec![
                    ProgStep::Read { reg: 0 },
                    ProgStep::Cas {
                        reg: 0,
                        expected: 7,
                        new: 9,
                    },
                ],
            ],
        );
        check_agreement(algorithm);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_bounds_are_checked() {
        ProgramAlgorithm::new(1, vec![vec![ProgStep::Read { reg: 3 }]]);
    }
}
