//! Formal asynchronous shared-memory model.
//!
//! This crate is an executable rendition of Section 2 of Helmi, Higham,
//! Pacheco, Woelfel (PODC 2011): a system of `n` processes communicating
//! through `m` atomic read/write registers, driven by *schedules* —
//! sequences of process indices. It provides:
//!
//! - [`Machine`] / [`Algorithm`] — deterministic step machines describing
//!   one method call, and factories that mint them per invocation;
//! - [`rerun::Rerun`] — the machine of a call whose code the model
//!   re-runs over the call's observations, so the checked code is the
//!   code that ships;
//! - [`Configuration`] — the paper's `(s_1..s_n, v_1..v_m)` tuples, with
//!   covering detection and indistinguishability;
//! - [`System`] — a configuration coupled with an invocation/response
//!   [`History`]; runs [`Schedule`]s, block-writes and solo executions;
//! - [`check_timestamp_property`] — the correctness condition for
//!   timestamp objects (ordered `getTS` calls must compare correctly);
//! - [`Explorer`] — an exhaustive interleaving explorer with state-hash
//!   pruning (a purpose-grown, loom-style checker for the paper's
//!   algorithms);
//! - [`RandomScheduler`] — seeded schedule fuzzing for configurations too
//!   large to explore exhaustively.
//!
//! The lower-bound constructions of `ts-lowerbound` drive this model
//! directly: they build coverings, perform block writes, and extend solo
//! executions until processes are poised to write outside a register set,
//! exactly as in the proofs of Lemmas 2.1, 3.1/3.2 and 4.1.
//!
//! # Example
//!
//! ```
//! use ts_model::{Algorithm, Explorer};
//! use ts_model::toy::CounterAlgorithm;
//!
//! // Exhaustively check a 2-process toy algorithm.
//! let report = Explorer::new(CounterAlgorithm::new(2), 2).run();
//! assert!(report.violation.is_none());
//! assert!(report.executions > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
mod algorithm;
mod config;
mod error;
mod explore;
mod history;
mod machine;
mod pct;
pub mod program;
pub mod replay;
pub mod rerun;
mod schedule;
mod shrink;
mod solo;
mod system;
pub mod toy;
pub mod trace;

pub use adversary::{RandomRunReport, RandomScheduler};
pub use algorithm::Algorithm;
pub use config::Configuration;
pub use error::ModelError;
pub use explore::{CacheMode, ExploreReport, Explorer, Violation};
pub use history::{
    check_timestamp_property, check_timestamp_property_filtered, CompletedOp, Event, History, OpId,
    PropertyViolation,
};
pub use machine::{Machine, Poised, StepEffect};
pub use pct::{PctRunReport, PctScheduler};
pub use replay::{minimized_trace, trace_from_schedule, ReplayStep, ReplayTrace, StepKind};
pub use schedule::{block_write_schedule, ProcId, Schedule};
pub use shrink::{reproduces, shrink};
pub use solo::{solo_run, SoloOutcome};
pub use system::{StepOutcome, System, SystemStepOutcome};
