//! One step machine for every algorithm whose code the model re-runs.
//!
//! A [`Rerun`] keeps one call's observations so far — the value each
//! read or CAS returned, `None` for each write — and runs the call's
//! [`Body`] over them through a [`Log`], which replays them in order and
//! halts at the first access past them: that access is the poised step.
//! Observing it appends to the log and runs the body again, so every
//! step the explorer and the constructions take is a step of the body.
//!
//! A machine's identity is not its log. The body names its program
//! point and the locals it still reads with [`Log::at`]; a machine
//! compares and hashes its body, its poised step and the last point, so
//! logs that reach the same point with the same locals are one state.

use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use crate::machine::{Machine, Poised};

/// One method call as code the model re-runs: its parameters, and how
/// to run it over a [`Log`].
pub trait Body: Clone + Eq + Hash + Debug {
    /// Register value universe.
    type Value: Clone + Eq + Hash + Debug;
    /// Method call return value.
    type Output: Clone + Eq + Hash + Debug;
    /// A program point with the locals the rest of the call reads.
    type Point: Clone + Eq + Hash + Debug;

    /// Runs the call over `log`.
    ///
    /// # Errors
    ///
    /// The first access past the log, as the poised step.
    fn run(&self, log: &Log<'_, Self>) -> Result<Self::Output, Step<Self>>;

    /// [`Machine::may_read`] of a call poised on `step` at `point`.
    fn may_read(&self, _step: &Step<Self>, _point: Option<&Self::Point>) -> Option<Vec<usize>> {
        None
    }

    /// [`Machine::may_write`] of a call poised on `step` at `point`.
    fn may_write(&self, _step: &Step<Self>, _point: Option<&Self::Point>) -> Option<Vec<usize>> {
        None
    }
}

/// A poised step of a [`Body`]'s call.
pub type Step<B> = Poised<<B as Body>::Value, <B as Body>::Output>;

/// One run's view of a call's observations.
#[derive(Debug)]
pub struct Log<'a, B: Body> {
    observed: &'a [Option<B::Value>],
    next: Cell<usize>,
    point: RefCell<Option<B::Point>>,
}

impl<'a, B: Body> Log<'a, B> {
    /// Names the program point of the next access and the locals the
    /// call still reads.
    pub fn at(&self, point: B::Point) {
        *self.point.borrow_mut() = Some(point);
    }

    /// The next access's logged observation, or the halt on `step()`.
    fn access(&self, step: impl FnOnce() -> Step<B>) -> Result<&'a Option<B::Value>, Step<B>> {
        let k = self.next.replace(self.next.get() + 1);
        self.observed.get(k).ok_or_else(step)
    }

    /// Reads register `reg`.
    ///
    /// # Errors
    ///
    /// The halt on the read, if it is past the log.
    pub fn read(&self, reg: usize) -> Result<&'a B::Value, Step<B>> {
        let observed = self.access(|| Poised::Read { reg })?;
        Ok(observed.as_ref().expect("a logged read holds its value"))
    }

    /// Writes `value()` to register `reg`; `value` runs only to halt.
    ///
    /// # Errors
    ///
    /// The halt on the write, if it is past the log.
    pub fn write(&self, reg: usize, value: impl FnOnce() -> B::Value) -> Result<(), Step<B>> {
        let step = || Poised::Write {
            reg,
            value: value(),
        };
        self.access(step).map(drop)
    }

    /// Compare-and-swaps register `reg` from `expected` to `new`,
    /// returning the prior value.
    ///
    /// # Errors
    ///
    /// The halt on the CAS, if it is past the log.
    pub fn cas(
        &self,
        reg: usize,
        expected: B::Value,
        new: B::Value,
    ) -> Result<&'a B::Value, Step<B>> {
        let observed = self.access(|| Poised::Cas { reg, expected, new })?;
        Ok(observed
            .as_ref()
            .expect("a logged CAS holds the prior value"))
    }
}

/// The step machine of one call of a [`Body`].
#[derive(Debug, Clone)]
pub struct Rerun<B: Body> {
    body: B,
    /// Each step's observation: the value read or the CAS's prior
    /// value, `None` for a write.
    log: Vec<Option<B::Value>>,
    poised: Step<B>,
    /// The point the body named last before `poised`; `None` once done.
    point: Option<B::Point>,
}

impl<B: Body> Rerun<B> {
    /// The machine of a fresh call of `body`.
    pub fn new(body: B) -> Self {
        let mut machine = Self {
            body,
            log: Vec::new(),
            poised: Poised::Read { reg: 0 },
            point: None,
        };
        machine.run();
        machine
    }

    fn run(&mut self) {
        let log = Log {
            observed: &self.log,
            next: Cell::new(0),
            point: RefCell::new(None),
        };
        (self.poised, self.point) = match self.body.run(&log) {
            Ok(output) => (Poised::Done(output), None),
            Err(step) => (step, log.point.take()),
        };
    }
}

impl<B: Body> PartialEq for Rerun<B> {
    fn eq(&self, other: &Self) -> bool {
        (&self.body, &self.poised, &self.point) == (&other.body, &other.poised, &other.point)
    }
}

impl<B: Body> Eq for Rerun<B> {}

impl<B: Body> Hash for Rerun<B> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.body, &self.poised, &self.point).hash(state);
    }
}

impl<B: Body> Machine for Rerun<B> {
    type Value = B::Value;
    type Output = B::Output;

    fn poised(&self) -> Step<B> {
        self.poised.clone()
    }

    fn observe(&mut self, observed: Option<B::Value>) {
        match (&self.poised, &observed) {
            (Poised::Read { .. } | Poised::Cas { .. }, Some(_)) | (Poised::Write { .. }, None) => {}
            (poised, obs) => panic!("invalid observe({obs:?}) while poised on {poised:?}"),
        }
        self.log.push(observed);
        self.run();
    }

    fn may_read(&self) -> Option<Vec<usize>> {
        self.body.may_read(&self.poised, self.point.as_ref())
    }

    fn may_write(&self) -> Option<Vec<usize>> {
        self.body.may_write(&self.poised, self.point.as_ref())
    }
}
