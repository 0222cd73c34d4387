//! The storage the register-word objects' `getTS` bodies run on.
//!
//! [`CollectMax`](crate::CollectMax), [`SimpleOneShot`](crate::SimpleOneShot)
//! and [`BrokenCounter`](crate::BrokenCounter) each write `getTS` once,
//! generic over [`Words`]. The real object is one storage; [`Gated`]
//! pauses at a [`StepGate`] before each access and then makes it on the
//! object, so the replay harness drives the real object one access at a
//! time; the model checker's storage replays a call's observations
//! (`crate::model`). A halt ends the call at an access that did not
//! happen; the real objects' halt is `Infallible`, so their `?`s
//! compile away. [`Words::at`] names the body's program point for the
//! model's state key and does nothing anywhere else.

use crate::workload::StepGate;

/// Numbered `u64` registers, and a cached-maximum word when
/// [`CACHE`](Words::CACHE) is set (its accessors are only called then).
pub(crate) trait Words {
    /// Whether the cache word exists.
    const CACHE: bool = false;
    /// Why an access did not happen.
    type Halt;
    /// A body's program point with the locals it still reads.
    type Point;

    fn registers(&self) -> usize;

    fn read(&self, j: usize) -> Result<u64, Self::Halt>;

    fn write(&self, j: usize, value: u64) -> Result<(), Self::Halt>;

    fn load_cache(&self) -> Result<u64, Self::Halt> {
        unreachable!("no cache word")
    }

    /// `Ok` with the prior value if the cache held `current` (and now
    /// holds `new`), else `Err` with it.
    fn cas_cache(&self, _current: u64, _new: u64) -> Result<Result<u64, u64>, Self::Halt> {
        unreachable!("no cache word")
    }

    /// Names the program point of the next access.
    fn at(&self, _point: Self::Point) {}
}

/// `words`, pausing at `gate` before every access.
pub(crate) struct Gated<'a, S> {
    words: &'a S,
    gate: &'a StepGate,
}

impl<'a, S> Gated<'a, S> {
    pub(crate) fn new(words: &'a S, gate: &'a StepGate) -> Self {
        Self { words, gate }
    }
}

impl<S: Words> Words for Gated<'_, S> {
    const CACHE: bool = S::CACHE;
    type Halt = S::Halt;
    type Point = S::Point;

    fn registers(&self) -> usize {
        self.words.registers()
    }

    fn read(&self, j: usize) -> Result<u64, S::Halt> {
        self.gate.pause();
        self.words.read(j)
    }

    fn write(&self, j: usize, value: u64) -> Result<(), S::Halt> {
        self.gate.pause();
        self.words.write(j, value)
    }

    fn load_cache(&self) -> Result<u64, S::Halt> {
        self.gate.pause();
        self.words.load_cache()
    }

    fn cas_cache(&self, current: u64, new: u64) -> Result<Result<u64, u64>, S::Halt> {
        self.gate.pause();
        self.words.cas_cache(current, new)
    }
}
