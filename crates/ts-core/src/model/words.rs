//! The register-word models: collect-max with and without its cache
//! word, the simple one-shot object and the broken counter.
//!
//! A call's machine is a [`Rerun`] of the object's own `getTS` body over
//! the call's log as register words: registers `0..n`, and the cache
//! word as register `n` when there is one. The cache advances by the
//! model's atomic [`Poised::Cas`] step, the RMW the fast path is built
//! on; read-then-write steps would model a different, broken algorithm.

use std::marker::PhantomData;

use ts_model::rerun::{Body, Log, Rerun, Step};
use ts_model::{Algorithm, Machine, Poised, ProcId};

use crate::collectmax::{self, Point as CollectPoint};
use crate::simple::{self, Point as WalkPoint};
use crate::timestamp::Timestamp;
use crate::words::Words;

/// A call's log as register words; the cache word is register `n`.
struct Replay<'l, 'a, B: Body, const CACHE: bool> {
    log: &'l Log<'a, B>,
    n: usize,
}

impl<B: Body<Value = u64>, const CACHE: bool> Words for Replay<'_, '_, B, CACHE> {
    const CACHE: bool = CACHE;
    type Halt = Step<B>;
    type Point = B::Point;

    fn registers(&self) -> usize {
        self.n
    }

    fn read(&self, j: usize) -> Result<u64, Step<B>> {
        self.log.read(j).copied()
    }

    fn write(&self, j: usize, value: u64) -> Result<(), Step<B>> {
        self.log.write(j, || value)
    }

    fn load_cache(&self) -> Result<u64, Step<B>> {
        self.log.read(self.n).copied()
    }

    fn cas_cache(&self, current: u64, new: u64) -> Result<Result<u64, u64>, Step<B>> {
        let prior = *self.log.cas(self.n, current, new)?;
        Ok(if prior == current {
            Ok(prior)
        } else {
            Err(prior)
        })
    }

    fn at(&self, point: B::Point) {
        self.log.at(point);
    }
}

/// The calls of a [`WordModel`].
pub trait WordCall: Body<Value = u64, Output = Timestamp> {
    /// Calls per process: `None` for a long-lived object.
    const OPS: Option<usize>;

    /// The call of process `pid` of `n`.
    fn new(pid: usize, n: usize) -> Self;

    /// Registers of an `n`-process object, the cache word included.
    fn registers(n: usize) -> usize;
}

/// A register-word model: `n` processes whose `getTS` calls are `C`s,
/// over registers that all start at `0`.
#[derive(Debug, Clone)]
pub struct WordModel<C> {
    n: usize,
    call: PhantomData<C>,
}

impl<C> WordModel<C> {
    fn of(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let call = PhantomData;
        Self { n, call }
    }
}

impl<C: WordCall> Algorithm for WordModel<C> {
    type Machine = Rerun<C>;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        C::registers(self.n)
    }

    fn initial_value(&self) -> u64 {
        0
    }

    fn invoke(&self, pid: ProcId, op_index: usize) -> Rerun<C> {
        assert!(pid < self.n, "pid {pid} out of range");
        assert!(C::OPS.is_none_or(|ops| op_index < ops), "one-shot object");
        Rerun::new(C::new(pid, self.n))
    }

    fn compare(&self, t1: &Timestamp, t2: &Timestamp) -> bool {
        Timestamp::compare(t1, t2)
    }

    fn ops_per_process(&self) -> Option<usize> {
        C::OPS
    }

    // A fresh call's footprints are those of every call of `pid`.
    fn op_may_read(&self, pid: ProcId) -> Option<Vec<usize>> {
        Rerun::new(C::new(pid, self.n)).may_read()
    }

    fn op_may_write(&self, pid: ProcId) -> Option<Vec<usize>> {
        Rerun::new(C::new(pid, self.n)).may_write()
    }
}

/// Model algorithm: long-lived collect-max over `n` SWMR registers,
/// re-running the `getTS` body of [`CollectMax`](crate::CollectMax):
/// register-only (`CollectMaxModel::new`, the classic collect that
/// Theorem 1.1's covering construction runs on) or with the cached
/// maximum as register `n` (`CollectMaxModel::with_cache`).
pub type CollectMaxModel<const CACHE: bool = false> = WordModel<CollectMaxCall<CACHE>>;

impl CollectMaxModel {
    /// The register-only model for `n > 0` processes.
    pub fn new(n: usize) -> Self {
        Self::of(n)
    }
}

impl CollectMaxModel<true> {
    /// The model for `n > 0` processes with the cache word.
    pub fn with_cache(n: usize) -> Self {
        Self::of(n)
    }
}

/// One collect-max `getTS` call by process `pid` of `n`, with the cache
/// word when `CACHE`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CollectMaxCall<const CACHE: bool> {
    pid: usize,
    n: usize,
}

impl<const CACHE: bool> CollectMaxCall<CACHE> {
    fn cache(&self) -> Option<usize> {
        CACHE.then_some(self.n)
    }
}

impl<const CACHE: bool> WordCall for CollectMaxCall<CACHE> {
    const OPS: Option<usize> = None;

    fn new(pid: usize, n: usize) -> Self {
        Self { pid, n }
    }

    fn registers(n: usize) -> usize {
        n + usize::from(CACHE)
    }
}

impl<const CACHE: bool> Body for CollectMaxCall<CACHE> {
    type Value = u64;
    type Output = Timestamp;
    type Point = CollectPoint;

    fn run(&self, log: &Log<'_, Self>) -> Result<Timestamp, Step<Self>> {
        let words = Replay::<_, CACHE> { log, n: self.n };
        let (t, _fast) = collectmax::get_ts(&words, self.pid)?;
        Ok(Timestamp::scalar(t))
    }

    // DPOR footprints. A lost fast-path CAS falls back to the full
    // collect, so every fast-path access before the own write can still
    // reach registers `0..n`; every access up to the own write keeps
    // `pid` writable, and every access that can still touch the cache
    // keeps it on both sides.
    fn may_read(&self, step: &Step<Self>, point: Option<&CollectPoint>) -> Option<Vec<usize>> {
        Some(match (step, point) {
            (Poised::Done(_) | Poised::Write { .. }, None) => vec![],
            (_, None) => (0..self.n).chain(self.cache()).collect(),
            (Poised::Read { reg }, Some(CollectPoint::Collect(_))) => {
                (*reg..self.n).chain(self.cache()).collect()
            }
            _ => self.cache().into_iter().collect(),
        })
    }

    fn may_write(&self, step: &Step<Self>, point: Option<&CollectPoint>) -> Option<Vec<usize>> {
        Some(match (step, point) {
            (Poised::Done(_), _) => vec![],
            (Poised::Write { .. }, None) => vec![self.pid],
            (_, Some(CollectPoint::Publish(_))) => vec![self.n],
            _ => [self.pid].into_iter().chain(self.cache()).collect(),
        })
    }
}

/// Model algorithm: the Section 5 simple one-shot object for `n`
/// processes over `⌈n/2⌉` registers, re-running the `getTS` body of
/// [`SimpleOneShot`](crate::SimpleOneShot).
pub type SimpleModel = WordModel<SimpleCall>;

impl SimpleModel {
    /// The model for `n > 0` processes.
    pub fn new(n: usize) -> Self {
        Self::of(n)
    }
}

/// One `simple-getTS` call by process `pid` over `m` registers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimpleCall {
    pid: usize,
    m: usize,
}

impl WordCall for SimpleCall {
    const OPS: Option<usize> = Some(1);

    fn new(pid: usize, n: usize) -> Self {
        let m = Self::registers(n);
        Self { pid, m }
    }

    fn registers(n: usize) -> usize {
        n.div_ceil(2)
    }
}

impl Body for SimpleCall {
    type Value = u64;
    type Output = Timestamp;
    type Point = WalkPoint;

    fn run(&self, log: &Log<'_, Self>) -> Result<Timestamp, Step<Self>> {
        let words = Replay::<_, false> { log, n: self.m };
        Ok(Timestamp::scalar(simple::get_ts(&words, self.pid)?))
    }

    // DPOR footprints: the walk reads registers i..m (the own-register
    // reread included), and the only write is to the own register —
    // and only while the walk has not passed it yet.
    fn may_read(&self, step: &Step<Self>, _point: Option<&WalkPoint>) -> Option<Vec<usize>> {
        Some(match step {
            Poised::Read { reg } | Poised::Write { reg, .. } => (*reg..self.m).collect(),
            _ => vec![],
        })
    }

    fn may_write(&self, step: &Step<Self>, point: Option<&WalkPoint>) -> Option<Vec<usize>> {
        let own = self.pid / 2;
        Some(match (step, point) {
            (Poised::Read { reg }, Some(WalkPoint::Walk(_))) if *reg <= own => vec![own],
            (Poised::Write { .. }, _) => vec![own],
            _ => vec![],
        })
    }
}

/// Model algorithm for [`BrokenCounter`](crate::BrokenCounter),
/// re-running its `getTS` body: correct for `n ≤ 3`, broken for `n ≥ 4`
/// (a stalled writer rolls the register back). Its minimized `n = 4`
/// counterexample is checked into the trace corpus.
pub type BrokenCounterModel = WordModel<BrokenCounterCall>;

impl BrokenCounterModel {
    /// The model for `n > 0` one-shot processes.
    pub fn new(n: usize) -> Self {
        Self::of(n)
    }
}

/// One [`BrokenCounter`](crate::BrokenCounter) `getTS` call; every
/// process runs the same program on register 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BrokenCounterCall;

impl WordCall for BrokenCounterCall {
    const OPS: Option<usize> = Some(1);

    fn new(_pid: usize, _n: usize) -> Self {
        Self
    }

    fn registers(_n: usize) -> usize {
        1
    }
}

impl Body for BrokenCounterCall {
    type Value = u64;
    type Output = Timestamp;
    type Point = ();

    fn run(&self, log: &Log<'_, Self>) -> Result<Timestamp, Step<Self>> {
        let words = Replay::<_, false> { log, n: 1 };
        Ok(Timestamp::scalar(crate::broken::get_ts(&words)?))
    }

    fn may_read(&self, step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(match step {
            Poised::Read { .. } => vec![0],
            _ => vec![],
        })
    }

    fn may_write(&self, step: &Step<Self>, _point: Option<&()>) -> Option<Vec<usize>> {
        Some(match step {
            Poised::Done(_) => vec![],
            _ => vec![0],
        })
    }
}
