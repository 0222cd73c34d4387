//! Step-machine renditions of the paper's algorithms for the formal
//! model of `ts-model`.
//!
//! Each algorithm here is a deterministic [`ts_model::Machine`]: what
//! the exhaustive explorer model-checks and what the covering
//! constructions of `ts-lowerbound` drive.
//!
//! - **Algorithm 4** ([`BoundedModel`]) has no twin: its machine runs
//!   the production `getTS` body of [`crate::bounded`] over a replaying
//!   storage, so checking it checks the code that ships.
//! - **The others** ([`SimpleModel`], [`CollectMaxModel`],
//!   [`CollectMaxFastModel`], [`BrokenCounterModel`]) are twins of their
//!   concrete objects, written to follow the pseudocode line by line, so
//!   checking them checks the algorithm, not a re-derivation.

mod bounded;
mod broken;
mod collectmax;
mod collectmax_fast;
mod simple;

pub use bounded::{BoundedMachine, BoundedModel, Word};
pub use broken::{BrokenCounterMachine, BrokenCounterModel};
pub use collectmax::{CollectMaxMachine, CollectMaxModel};
pub use collectmax_fast::{CollectMaxFastMachine, CollectMaxFastModel};
pub use simple::{SimpleMachine, SimpleModel};
