//! Step-machine renditions of the paper's algorithms for the formal
//! model of `ts-model`.
//!
//! Every concrete algorithm in this crate has a twin here, expressed as
//! a deterministic [`ts_model::Machine`]: the twin is what the
//! exhaustive explorer model-checks and what the covering constructions
//! of `ts-lowerbound` drive. The twins follow the pseudocode
//! line-by-line, so checking them checks the algorithm, not a
//! re-derivation.

mod bounded;
mod broken;
mod collectmax;
mod collectmax_fast;
mod helping_scan;
mod simple;

pub use bounded::{BoundedMachine, BoundedModel, Slot, SlotVal};
pub use broken::{BrokenCounterMachine, BrokenCounterModel};
pub use collectmax::{CollectMaxMachine, CollectMaxModel};
pub use collectmax_fast::{CollectMaxFastMachine, CollectMaxFastModel};
pub use helping_scan::{HelpingScanMachine, HelpingScanModel};
pub use simple::{SimpleMachine, SimpleModel};
