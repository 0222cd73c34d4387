//! `timestamp-suite` — umbrella crate for the `timestamp-space` workspace.
//!
//! This crate re-exports the public API of every workspace member so that
//! the examples and integration tests in the repository root can exercise
//! the whole system through a single dependency. Library users should
//! depend on the individual crates instead:
//!
//! - [`ts_register`] — atomic multi-writer multi-reader register substrate
//! - [`ts_snapshot`] — the stamp-validated double-collect scan
//! - [`ts_model`] — formal execution model and mini model-checker
//! - [`ts_core`] — the paper's timestamp algorithms
//! - [`ts_lowerbound`] — covering-argument machinery and bound formulas
//! - [`ts_service`] — sharded/batched timestamp service layer
//! - [`ts_replica`] — quorum-replicated register backend over a fault-injecting modelled network
//! - [`ts_apps`] — consumers: FCFS locks, k-exclusion, renaming
//! - [`ts_workloads`] — workload scenario engine with latency histograms
//!
//! # Example
//!
//! ```
//! use timestamp_suite::ts_core::{OneShotTimestamp, SimpleOneShot, Timestamp};
//!
//! let ts = SimpleOneShot::new(4);
//! let a = ts.get_ts(0).unwrap();
//! let b = ts.get_ts(1).unwrap();
//! assert!(Timestamp::compare(&a, &b) || Timestamp::compare(&b, &a));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use ts_apps;
pub use ts_core;
pub use ts_lowerbound;
pub use ts_model;
pub use ts_register;
pub use ts_replica;
pub use ts_service;
pub use ts_snapshot;
pub use ts_workloads;
