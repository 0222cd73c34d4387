//! The double-collect scan over a register array.
//!
//! Algorithm 4 of Helmi et al. (PODC 2011) performs a `scan` of its
//! register array (line 13) using the obstruction-free double collect of
//! Afek, Attiya, Dolev, Gafni, Merritt and Shavit (JACM 1993): read all
//! registers until two consecutive sweeps observe identical contents, at
//! which point the sweep is a linearizable view. The paper notes that
//! this scan is wait-free *in the context of Algorithm 4* because every
//! `getTS` performs fewer than `m` writes, so the total number of
//! interfering writes is finite.
//!
//! `ts-core` runs Algorithm 4's scan itself, over plain words. This
//! crate keeps the same scan for a [`ts_register::RegisterArray`] of
//! either register backend: [`adaptive_scan`] collects once, then
//! confirms the collect by the registers' write stamps, patching
//! entries whose stamp moved, and returns a [`View`].
//!
//! # Example
//!
//! ```
//! use ts_register::RegisterArray;
//! use ts_snapshot::adaptive_scan;
//!
//! let array: RegisterArray<u64> = RegisterArray::new(4, 0);
//! array.write(2, 9).unwrap();
//! let (view, _) = adaptive_scan(&array);
//! assert_eq!(view.values()[2], 9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod scan;
mod view;

pub use scan::{adaptive_scan, ScanOutcome};
pub use view::View;
