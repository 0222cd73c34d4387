//! Atomic multi-writer multi-reader register substrate.
//!
//! The algorithms of Helmi, Higham, Pacheco and Woelfel (PODC 2011) are
//! expressed over *atomic registers*: shared cells supporting linearizable
//! `read` and `write`, and the paper's model allows them to be unbounded.
//! Hardware atomics only cover word-sized values, so this crate also
//! provides a wait-free, linearizable register of any `T: Clone` built
//! from an atomic pointer swap with epoch-based memory reclamation
//! ([`StampedRegister`], [`EpochBackend`]). Every paper object keeps its
//! registers in words, so epoch registers serve only the `EpochBackend`
//! variants of the word objects and the benchmark rows that measure
//! them.
//!
//! | Register type | Holds | Used by |
//! |---|---|---|
//! | [`PackedRegister`] / [`PackedRegisterArray`] | a [`Packable`] value of ≤ 32 bits | every paper object's registers |
//! | [`WordRegister`] | one `u64` | single-word cells, the broken counter |
//! | [`AtomicRegister`] | any `T: Clone`, behind a lock-free pointer | tests |
//! | [`StampedRegister`] / [`RegisterArray`] on [`EpochBackend`] | any `T: Clone`, with a write stamp | the `EpochBackend` variants, perfbench's ladder rows |
//!
//! [`SegTable`] is the append-only segmented table that objects growing
//! on demand keep their cells in: the growable timestamp object's
//! registers and line-15 sequences, the replicated backend's per-client
//! and per-register state.
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
//! reclamation entirely (perfbench's `register.write_ns` and
//! `register.epoch_write_ns` rows time the two backends). `EpochBackend`
//! remains for contents that outgrow a word. [`RegisterArray`] and the
//! `ts-snapshot` scan are generic over the choice; `ts-core`
//! constructors expose it.
//!
//! # Contention-aware layout
//!
//! [`CachePadded`] puts contended state on its own cache line(s);
//! [`RegisterArray`] lays registers out one per line, and a write is
//! one store to its register plus the meter: no shared word, no RMW.
//! The `ts-snapshot` scan validates a collect by the registers' own
//! stamps. The memory-ordering contract every backend obeys lives in
//! the [`backend`] module docs.
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
mod table;
mod traits;
mod word;

pub use array::{PackedRegisterArray, RegisterArray};
pub use atomic::AtomicRegister;
pub use backend::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend};
pub use error::CapacityError;
pub use meter::{MeterSnapshot, SpaceMeter};
pub use packed::{Packable, PackedRegister};
pub use pad::CachePadded;
pub use stamped::{Stamp, Stamped, StampedRegister};
pub use table::SegTable;
pub use traits::Register;
pub use word::WordRegister;
