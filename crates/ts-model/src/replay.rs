//! Serializable schedule traces: model-checker interleavings as
//! readable, diffable regression files.
//!
//! The explorer, the random scheduler and the PCT scheduler all produce
//! schedules — sequences of process ids — but a raw schedule is only
//! meaningful next to the algorithm that generated it. A
//! [`ReplayTrace`] bundles the schedule with what it did:
//!
//! - the algorithm label and its static parameters (`processes`,
//!   `registers`, `ops_per_process`),
//! - the step-by-step projection of the schedule ([`ReplayStep`]): who
//!   invoked, which register each shared-memory step touched, and the
//!   output of every completed call (as its `Debug` rendering),
//! - whether the modeled history violates the timestamp property
//!   (counterexample traces are the interesting ones).
//!
//! Traces serialize to JSON via the workspace `serde` stack, so model
//! counterexamples can be checked into a corpus (`tests/traces/` at the
//! workspace root), whose regression test regenerates every file from
//! its model and diffs it byte for byte.
//!
//! # Example
//!
//! ```
//! use ts_model::replay::{trace_from_schedule, ReplayTrace, StepKind};
//! use ts_model::toy::CounterAlgorithm;
//! use ts_model::{shrink, Explorer};
//!
//! // The toy counter breaks at n = 4; minimize the counterexample and
//! // export it as a trace.
//! let alg = CounterAlgorithm::new(4);
//! let violation = Explorer::new(alg.clone(), 1).run().violation.unwrap();
//! let minimal = shrink(&alg, &violation.schedule);
//! let trace = trace_from_schedule(&alg, "counter", &minimal);
//! assert!(trace.violating);
//!
//! // JSON round-trip preserves the trace exactly.
//! let json = trace.to_json();
//! assert_eq!(ReplayTrace::from_json(&json).unwrap(), trace);
//! ```

use serde::{Deserialize, Serialize};

use crate::algorithm::Algorithm;
use crate::schedule::ProcId;
use crate::shrink::{reproduces, shrink};
use crate::system::{StepOutcome, System};

/// Schema tag carried by every serialized trace.
pub const TRACE_SCHEMA: &str = "ts-model/replay-trace/v1";

/// What one scheduled step did.
///
/// `Invoke` and `Return` are local actions (they delimit the operation
/// interval); `Read` and `Write` are the shared-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepKind {
    /// The process invoked its next `getTS()` (local).
    Invoke,
    /// The process read a shared register.
    Read,
    /// The process wrote a shared register.
    Write,
    /// The process's pending call returned (local).
    Return,
}

/// One step of a [`ReplayTrace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStep {
    /// The scheduled process.
    pub pid: usize,
    /// Which of `pid`'s operations this step belongs to (0-based
    /// invocation index — the paper's getTS-id `p.k`).
    pub op_index: usize,
    /// What the step did.
    pub kind: StepKind,
    /// Register index for `Read`/`Write` steps, `None` for local steps.
    pub reg: Option<usize>,
    /// `Debug` rendering of the call's output for `Return` steps,
    /// `None` otherwise.
    pub output: Option<String>,
}

/// A schedule bundled with its algorithm parameters and step-by-step
/// effects.
///
/// Construct with [`trace_from_schedule`] (or [`minimized_trace`] to
/// shrink a counterexample first); serialize with
/// [`ReplayTrace::to_json`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayTrace {
    /// Always [`TRACE_SCHEMA`].
    pub schema: String,
    /// Label of the generating algorithm ("collect_max",
    /// "broken_counter", ...).
    pub algorithm: String,
    /// Number of processes the algorithm instance was configured for.
    pub processes: usize,
    /// Number of shared registers the model used.
    pub registers: usize,
    /// Whether the modeled history violates the timestamp property —
    /// `true` for counterexample traces.
    pub violating: bool,
    /// The raw schedule (process per step), exactly as explored.
    pub schedule: Vec<usize>,
    /// The executed projection of the schedule. Steps that error in the
    /// model (e.g. scheduling an exhausted process) are omitted, so
    /// `steps.len() <= schedule.len()`.
    pub steps: Vec<ReplayStep>,
}

impl ReplayTrace {
    /// Serializes the trace as a JSON object (field order is the
    /// declaration order above, so serialization is byte-stable).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot: every field maps to a
    /// JSON-native type).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serializes")
    }

    /// Parses a trace from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Number of operations the trace invokes for process `pid`.
    pub fn ops_for(&self, pid: usize) -> usize {
        self.steps
            .iter()
            .filter(|s| s.pid == pid && s.kind == StepKind::Invoke)
            .count()
    }

    /// Operations that complete within the trace, as `(pid, op_index)`
    /// in response order.
    pub fn completed_ops(&self) -> Vec<(usize, usize)> {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::Return)
            .map(|s| (s.pid, s.op_index))
            .collect()
    }

    /// Light well-formedness check: schema tag, pid ranges, and the
    /// per-process step grammar (every `Read`/`Write`/`Return` belongs
    /// to a previously invoked, not-yet-returned op).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed aspect found.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != TRACE_SCHEMA {
            return Err(format!(
                "schema mismatch: expected {TRACE_SCHEMA:?}, got {:?}",
                self.schema
            ));
        }
        if self.processes == 0 {
            return Err("trace has zero processes".into());
        }
        let mut open: Vec<Option<usize>> = vec![None; self.processes];
        let mut invoked: Vec<usize> = vec![0; self.processes];
        for (i, step) in self.steps.iter().enumerate() {
            if step.pid >= self.processes {
                return Err(format!("step {i}: pid {} out of range", step.pid));
            }
            match step.kind {
                StepKind::Invoke => {
                    if open[step.pid].is_some() {
                        return Err(format!("step {i}: p{} invoked while pending", step.pid));
                    }
                    if step.op_index != invoked[step.pid] {
                        return Err(format!(
                            "step {i}: p{} invoked op {} out of order",
                            step.pid, step.op_index
                        ));
                    }
                    open[step.pid] = Some(step.op_index);
                    invoked[step.pid] += 1;
                }
                StepKind::Read | StepKind::Write => {
                    if open[step.pid] != Some(step.op_index) {
                        return Err(format!("step {i}: access outside an open op"));
                    }
                    match step.reg {
                        Some(r) if r < self.registers => {}
                        other => return Err(format!("step {i}: bad register {other:?}")),
                    }
                }
                StepKind::Return => {
                    if open[step.pid] != Some(step.op_index) {
                        return Err(format!("step {i}: return outside an open op"));
                    }
                    if step.output.is_none() {
                        return Err(format!("step {i}: return without an output"));
                    }
                    open[step.pid] = None;
                }
            }
        }
        Ok(())
    }
}

/// Replays `schedule` on the model and records every step's effect as a
/// [`ReplayTrace`].
///
/// Steps that error in the model (scheduling an exhausted process) are
/// skipped, mirroring [`shrink`]'s replay semantics, so shrunk and
/// hand-written schedules project cleanly.
pub fn trace_from_schedule<A: Algorithm + Clone>(
    algorithm: &A,
    name: &str,
    schedule: &[ProcId],
) -> ReplayTrace {
    let mut sys = System::new(algorithm.clone());
    let mut steps = Vec::with_capacity(schedule.len());
    let mut pending_op: Vec<usize> = vec![0; algorithm.processes()];
    for &pid in schedule {
        let outcome = match sys.step(pid) {
            Ok(outcome) => outcome,
            Err(_) => continue,
        };
        let step = match outcome {
            StepOutcome::Invoked { op } => {
                pending_op[pid] = op.op_index;
                ReplayStep {
                    pid,
                    op_index: op.op_index,
                    kind: StepKind::Invoke,
                    reg: None,
                    output: None,
                }
            }
            StepOutcome::Read { reg, .. } => ReplayStep {
                pid,
                op_index: pending_op[pid],
                kind: StepKind::Read,
                reg: Some(reg),
                output: None,
            },
            StepOutcome::Wrote { reg, .. } => ReplayStep {
                pid,
                op_index: pending_op[pid],
                kind: StepKind::Write,
                reg: Some(reg),
                output: None,
            },
            // A CAS projects onto the v1 step grammar by its effect: a
            // successful swap mutated the register (`Write`), a failed
            // one only observed it (`Read`). Either way it is one
            // recorded step, so step counts match the schedule.
            StepOutcome::Cased { reg, success, .. } => ReplayStep {
                pid,
                op_index: pending_op[pid],
                kind: if success {
                    StepKind::Write
                } else {
                    StepKind::Read
                },
                reg: Some(reg),
                output: None,
            },
            StepOutcome::Completed { output } => ReplayStep {
                pid,
                op_index: pending_op[pid],
                kind: StepKind::Return,
                reg: None,
                output: Some(format!("{output:?}")),
            },
        };
        steps.push(step);
    }
    ReplayTrace {
        schema: TRACE_SCHEMA.to_string(),
        algorithm: name.to_string(),
        processes: algorithm.processes(),
        registers: algorithm.registers(),
        violating: sys.check_property().is_some(),
        schedule: schedule.to_vec(),
        steps,
    }
}

/// Shrinks `schedule` to a 1-minimal violating core (when it violates)
/// and exports the result as a trace.
///
/// Non-violating schedules are exported unshrunk — shrinking is only
/// defined relative to a reproducing violation.
pub fn minimized_trace<A: Algorithm + Clone>(
    algorithm: &A,
    name: &str,
    schedule: &[ProcId],
) -> ReplayTrace {
    if reproduces(algorithm, schedule) {
        let minimal = shrink(algorithm, schedule);
        trace_from_schedule(algorithm, name, &minimal)
    } else {
        trace_from_schedule(algorithm, name, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::pct::PctScheduler;
    use crate::toy::{ConstantAlgorithm, CounterAlgorithm};

    #[test]
    fn counter_op_projects_to_the_expected_grammar() {
        let alg = CounterAlgorithm::new(1);
        let trace = trace_from_schedule(&alg, "counter", &[0, 0, 0, 0]);
        let kinds: Vec<StepKind> = trace.steps.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StepKind::Invoke,
                StepKind::Read,
                StepKind::Write,
                StepKind::Return
            ]
        );
        assert_eq!(trace.steps[1].reg, Some(0));
        assert_eq!(trace.steps[3].output.as_deref(), Some("1"));
        assert!(!trace.violating);
        assert_eq!(trace.ops_for(0), 1);
        assert_eq!(trace.completed_ops(), vec![(0, 0)]);
        trace.validate().expect("well-formed");
    }

    #[test]
    fn erroring_steps_are_skipped_not_recorded() {
        let alg = CounterAlgorithm::new(1);
        // One-shot: the 5th step schedules an exhausted process.
        let trace = trace_from_schedule(&alg, "counter", &[0, 0, 0, 0, 0]);
        assert_eq!(trace.schedule.len(), 5);
        assert_eq!(trace.steps.len(), 4);
    }

    #[test]
    fn explorer_counterexample_exports_as_violating_trace() {
        let alg = CounterAlgorithm::new(4);
        let violation = Explorer::new(alg.clone(), 1).run().violation.unwrap();
        let trace = minimized_trace(&alg, "counter", &violation.schedule);
        assert!(trace.violating);
        assert!(trace.steps.len() <= violation.schedule.len());
        assert!(trace.completed_ops().len() >= 2, "violations need a pair");
        trace.validate().expect("well-formed");
    }

    #[test]
    fn pct_schedule_exports_and_round_trips() {
        let report = PctScheduler::new(3, 3).run(CounterAlgorithm::new(3));
        let trace = trace_from_schedule(&CounterAlgorithm::new(3), "counter", &report.schedule);
        assert!(!trace.violating);
        let json = trace.to_json();
        let back = ReplayTrace::from_json(&json).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
    }

    #[test]
    fn violating_trace_round_trips() {
        let alg = ConstantAlgorithm::new(2);
        let violation = Explorer::new(alg.clone(), 1).run().violation.unwrap();
        let trace = minimized_trace(&alg, "constant", &violation.schedule);
        assert!(trace.violating);
        let back = ReplayTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        let alg = CounterAlgorithm::new(2);
        let good = trace_from_schedule(&alg, "counter", &[0, 0, 0, 0]);

        let mut bad = good.clone();
        bad.schema = "nope".into();
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.steps[1].pid = 9;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.steps.remove(0); // access without an invoke
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.steps[3].output = None; // return without output
        assert!(bad.validate().is_err());
    }
}
