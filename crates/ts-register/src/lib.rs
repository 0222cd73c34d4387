//! Atomic multi-writer multi-reader register substrate.
//!
//! The algorithms of Helmi, Higham, Pacheco and Woelfel (PODC 2011) are
//! expressed over *atomic registers*: shared cells supporting linearizable
//! `read` and `write`, and the paper's model allows them to be unbounded.
//! Hardware atomics only cover word-sized values, so this crate also
//! provides a wait-free, linearizable register of any `T: Clone` built
//! from an atomic pointer swap with epoch-based memory reclamation. Its
//! users are the objects whose register contents outgrow a word:
//! `GrowableTimestamp`'s `⟨seq, rnd⟩` sequences and `ts-snapshot`'s help
//! board and snapshot. (`BoundedTimestamp`, Algorithm 4, keeps its
//! registers in packed words and its sequences in per-call cells.)
//!
//! The crate also provides the measurement machinery the paper's results
//! are *about*: [`SpaceMeter`] tracks which registers an execution reads
//! and writes so that the space bounds of Theorems 1.1–1.3 can be checked
//! against running code.
//!
//! # Register backends
//!
//! How a register stores its value is pluggable via [`RegisterBackend`]:
//!
//! | Backend | Register type | Values | Cost per op |
//! |---|---|---|---|
//! | [`EpochBackend`] (default) | [`StampedRegister`] | any `T: Clone` | heap cell per write, epoch pin per op |
//! | [`PackedBackend`] | [`PackedRegister`] | [`Packable`] (≤ 32 bits) | one hardware atomic, nothing else |
//!
//! Pick `PackedBackend` whenever the register's contents fit a word for
//! the object's whole lifetime (the simple one-shot algorithm's
//! `{0, 1, 2}` slots, collect-max counters): it bypasses allocation and
//! reclamation entirely, which is worth an order of magnitude under
//! contention (see `bench_contention` in `ts-bench`). Keep
//! `EpochBackend` for unbounded contents such as the growable
//! timestamp object's `⟨seq, rnd⟩` sequences. [`RegisterArray`] and the `ts-snapshot` scan
//! are generic over the choice; `ts-core` constructors expose it.
//!
//! # Contention-aware layout
//!
//! [`CachePadded`] puts contended state on its own cache line(s);
//! [`RegisterArray`] lays registers out one-per-line by default
//! ([`ArrayLayout`]) and maintains a [`WriteSummary`] word — begun and
//! completed write counts in one `AtomicU64` — that lets the
//! `ts-snapshot` scan prove "nothing changed while I collected" from
//! two one-word loads and skip its second collect; arrays that are
//! written hot and scanned rarely drop those words
//! ([`RegisterArray::without_scan_words`]). The memory-ordering
//! contract every backend obeys lives in the [`backend`] module docs.
//!
//! # Example
//!
//! ```
//! use ts_register::AtomicRegister;
//!
//! let reg = AtomicRegister::new(vec![1u64, 2, 3]);
//! reg.write(vec![4, 5]);
//! assert_eq!(reg.read(), vec![4, 5]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod atomic;
pub mod backend;
mod error;
mod meter;
mod packed;
mod pad;
pub mod reclaim;
mod stamped;
mod swap;
mod traits;
mod word;

pub use array::{
    ArrayLayout, PackedRegisterArray, RegisterArray, Slots, WriteSummary, BLOCK_REGISTERS,
};
pub use atomic::AtomicRegister;
pub use backend::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend};
pub use error::CapacityError;
pub use meter::{MeterSnapshot, MeteredRegister, SpaceMeter};
pub use packed::{Packable, PackedRegister};
pub use pad::CachePadded;
pub use stamped::{Stamp, Stamped, StampedRegister};
pub use swap::SwapRegister;
pub use traits::Register;
pub use word::WordRegister;
