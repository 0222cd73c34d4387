//! The paper's algorithms for the formal model of `ts-model`.
//!
//! Each algorithm here is a [`ts_model::Algorithm`] whose machines are
//! [`Rerun`](ts_model::rerun::Rerun)s of the production `getTS` body:
//! the body of the real object, generic over its storage, runs over a
//! storage that replays the call's observations so far and halts at
//! its first access past them. So what the exhaustive explorer
//! model-checks, and what the covering constructions of `ts-lowerbound`
//! drive, is the code that ships:
//!
//! - [`BoundedModel`] runs Algorithm 4 ([`BoundedTimestamp`](crate::BoundedTimestamp));
//! - [`CollectMaxModel`] runs [`CollectMax`](crate::CollectMax), on its
//!   registers alone (`CollectMaxModel::new`, Theorem 1.1's
//!   algorithm) or with its cache word
//!   (`CollectMaxModel::with_cache`, the fast path);
//! - [`SimpleModel`] runs [`SimpleOneShot`](crate::SimpleOneShot);
//! - [`BrokenCounterModel`] runs [`BrokenCounter`](crate::BrokenCounter).
//!
//! A machine's state key is its call's parameters, its poised step and
//! the program point the body named last with the locals it still
//! reads — not its observation log, so interleavings that reach the
//! same point with the same locals meet in the explorer's cache.

mod bounded;
mod words;

pub use bounded::{At, BoundedCall, BoundedModel, Word};
pub use words::{
    BrokenCounterCall, BrokenCounterModel, CollectMaxCall, CollectMaxModel, SimpleCall, SimpleModel,
};

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use ts_model::{Algorithm, Machine, System};

    use super::*;
    use crate::bounded::{OverwritePolicy, Storage};
    use crate::collectmax::Registers;
    use crate::words::Words;
    use crate::{
        BoundedTimestamp, BrokenCounter, CollectMax, GetTsId, LongLivedTimestamp, OneShotTimestamp,
        SimpleOneShot, Timestamp,
    };

    /// Runs `model` solo, one call after another by the pids in
    /// `order`, next to `call` on the real object, which returns the
    /// stamp and then the object's words; after each call the stamps
    /// and every word must agree (`word` reads a model register's).
    fn agree<A: Algorithm>(
        model: A,
        order: impl IntoIterator<Item = usize>,
        word: impl Fn(&<A::Machine as Machine>::Value) -> u64,
        mut call: impl FnMut(usize) -> (Timestamp, Vec<u64>),
    ) where
        A::Machine: Machine<Output = Timestamp>,
    {
        let mut sys = System::new(model);
        for (k, pid) in order.into_iter().enumerate() {
            let got = sys.run_solo_to_completion(pid, 100_000).unwrap();
            let (stamp, words) = call(pid);
            assert_eq!(got, stamp, "call {k}");
            let model_words: Vec<u64> = sys.config().regs.iter().map(&word).collect();
            assert_eq!(model_words, words, "call {k}");
        }
        assert!(sys.check_property().is_none());
    }

    /// A register-word object's registers, then its cache word if it
    /// has one.
    fn words<S: Words<Halt = Infallible>>(object: &S) -> Vec<u64> {
        let registers = (0..object.registers()).map(|j| object.read(j));
        let cache = S::CACHE.then(|| object.load_cache());
        registers.chain(cache).map(|Ok(w)| w).collect()
    }

    /// Algorithm 4's registers `R[1..m]`.
    fn bounded_words(object: &BoundedTimestamp) -> Vec<u64> {
        let words = (1..=object.registers()).map(|j| Storage::read(object, j));
        words.map(|Ok(w)| w).collect()
    }

    #[test]
    fn models_and_objects_agree_word_for_word() {
        let copied = |w: &u64| *w;
        for n in 1..=16 {
            let three_rounds = || (0..3).flat_map(move |_| 0..n);
            let object = CollectMax::new(n);
            agree(
                CollectMaxModel::with_cache(n),
                three_rounds(),
                copied,
                |pid| (object.get_ts(pid).unwrap(), words(&object)),
            );
            let object = CollectMax::new(n);
            let registers = Registers(&object);
            agree(CollectMaxModel::new(n), three_rounds(), copied, |pid| {
                let stamp = object.get_ts_on(&registers, pid).unwrap();
                (stamp, words(&registers))
            });
            let object = SimpleOneShot::new(n);
            agree(SimpleModel::new(n), 0..n, copied, |pid| {
                (
                    OneShotTimestamp::get_ts(&object, pid).unwrap(),
                    words(&object),
                )
            });
            let object = BrokenCounter::new(n);
            agree(BrokenCounterModel::new(n), 0..n, copied, |pid| {
                (object.get_ts(pid).unwrap(), words(&object))
            });
        }
        for n in 1..=64 {
            let object = BoundedTimestamp::one_shot(n);
            agree(BoundedModel::new(n), 0..n, Word::word, |pid| {
                (object.get_ts(pid).unwrap(), bounded_words(&object))
            });
            let object = BoundedTimestamp::with_budget(n);
            let model = BoundedModel::with_ops(1, n, OverwritePolicy::Paper);
            let mut k = 0;
            agree(model, std::iter::repeat_n(0, n), Word::word, |_| {
                k += 1;
                let id = GetTsId::new(0, k - 1);
                (object.get_ts_with_id(id).unwrap(), bounded_words(&object))
            });
        }
    }

    #[test]
    fn a_lost_cache_cas_falls_back_to_the_collect() {
        let mut sys = System::new(CollectMaxModel::with_cache(2));
        // p0: invoke, read cache (0), then stall before its CAS.
        sys.step(0).unwrap();
        sys.step(0).unwrap();
        // p1 completes a whole fast-path op: cache is now 1.
        sys.run_solo_to_completion(1, 10).unwrap();
        // p0's CAS(0 -> 1) now fails; it must collect and finish with 2.
        let out = sys.run_solo_to_completion(0, 20).unwrap();
        assert_eq!(out, Timestamp::scalar(2));
        assert!(sys.check_property().is_none());
    }
}
