//! Timestamp algorithms from *"The Space Complexity of Long-lived and
//! One-Shot Timestamp Implementations"* (Helmi, Higham, Pacheco, Woelfel,
//! PODC 2011).
//!
//! An *unbounded timestamp object* supports `getTS()` (returns a
//! timestamp) and `compare(t1, t2)`: if a `getTS` returning `t1` finishes
//! before another returning `t2` starts, then `compare(t1, t2)` is `true`
//! and `compare(t2, t1)` is `false`. A *one-shot* object allows each
//! process a single `getTS()`; a *long-lived* one allows arbitrarily
//! many.
//!
//! The paper proves long-lived objects need Ω(n) registers while one-shot
//! objects need only Θ(√n), and exhibits matching algorithms. This crate
//! implements each of them once, as real thread-safe objects over the
//! `ts-register` substrate whose `getTS` bodies are generic over their
//! storage, and runs the same bodies as deterministic step machines over
//! the `ts-model` formal model ([`model`], for model checking and the
//! lower-bound constructions).
//!
//! | Type | Paper artifact | Registers |
//! |---|---|---|
//! | [`SimpleOneShot`] | Algorithms 1–2 (Section 5) | `⌈n/2⌉` |
//! | [`BoundedTimestamp`] | Algorithms 3–4 (Section 6) | `⌈2√M⌉` |
//! | [`CollectMax`] | long-lived baseline (cf. EFR 2008) | `n` |
//! | [`GrowableTimestamp`] | Section 7 extension | grows on demand |
//!
//! # Example
//!
//! ```
//! use ts_core::{BoundedTimestamp, OneShotTimestamp, Timestamp};
//!
//! // A one-shot timestamp object for 16 processes: ⌈2√16⌉ = 8 registers.
//! let ts = BoundedTimestamp::one_shot(16);
//! let t0 = ts.get_ts(0).unwrap();
//! let t1 = ts.get_ts(1).unwrap();
//! assert!(Timestamp::compare(&t0, &t1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounded;
mod broken;
mod collectmax;
mod error;
mod growable;
mod ids;
pub mod model;
mod recorder;
mod simple;
mod stats;
mod timestamp;
mod traits;
mod words;
pub mod workload;

pub use bounded::{BoundedTimestamp, OverwritePolicy, PhaseStats};
pub use broken::{BrokenConstant, BrokenCounter, BrokenStaleRead};
pub use collectmax::{CollectMax, EpochCollectMax, StampBatch};
pub use error::{GetTsError, UsedError};
pub use growable::GrowableTimestamp;
pub use ids::GetTsId;
pub use recorder::{HistoryRecorder, RecordedCall, RecordedViolation};
pub use simple::{EpochSimpleOneShot, SimpleOneShot};
pub use stats::{ServiceStats, SlotCounters};
pub use timestamp::{ShardedTimestamp, Timestamp};
pub use traits::{LongLivedTimestamp, OneShotTimestamp};
pub use workload::{
    CollectMaxFast, GateError, GateProgress, OneShotPool, ReplayGranularity, StepGate,
    VpidAllocator, WorkloadOp, WorkloadTarget, WorkloadWorker,
};

// Re-exported so downstream constructors can name backends without a
// direct `ts-register` dependency.
pub use ts_register::{CachePadded, EpochBackend, PackedBackend, RegisterBackend};
