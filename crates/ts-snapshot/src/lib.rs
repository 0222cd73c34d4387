//! Collect, double-collect scan, and the helping scan.
//!
//! Algorithm 4 of Helmi et al. (PODC 2011) performs a `scan` of its
//! register array (line 13) using the obstruction-free double-collect of
//! Afek, Attiya, Dolev, Gafni, Merritt and Shavit (JACM 1993): repeatedly
//! read all registers until two consecutive sweeps observe identical
//! contents, at which point the sweep is a linearizable view. The paper
//! notes that this scan is wait-free *in the context of Algorithm 4*
//! because every `getTS` performs fewer than `m` writes, so the total
//! number of interfering writes is finite.
//!
//! This crate provides:
//!
//! - [`double_collect_scan`] / [`try_scan`] / [`adaptive_scan`] — that
//!   scan over a [`ts_register::RegisterArray`] of either register
//!   backend (epoch heap cells or word-inlined packed registers), with
//!   dirty-block adaptive retries (O(dirty) per retry instead of O(n)).
//!   `ts-core`'s Algorithm 4 runs its own double collect over plain
//!   words, which needs neither stamps nor dirty blocks;
//! - [`helping_scan`] / [`helping_write`] / [`HelpBoard`] — the
//!   wait-free upgrade: writers under distress publish era-tagged
//!   views a starved scanner adopts, bounding scan retries by a
//!   tunable [`ScanPolicy::starvation_bound`].
//!
//! # Example
//!
//! ```
//! use ts_register::RegisterArray;
//! use ts_snapshot::double_collect_scan;
//!
//! let array: RegisterArray<u64> = RegisterArray::new(4, 0);
//! array.write(2, 9).unwrap();
//! let view = double_collect_scan(&array);
//! assert_eq!(view.values()[2], 9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod help;
mod scan;
mod view;

pub use help::{
    helping_scan, helping_scan_paused, helping_write, storm_write_paused, HelpBoard, ScanPolicy,
    WriteOutcome,
};
pub use scan::{
    adaptive_scan, classic_double_collect_scan, double_collect_scan, try_scan, ScanInterrupted,
    ScanOutcome,
};
pub use view::View;
