//! Algorithm 4 (the `⌈2√M⌉`-register object) for the model checker.
//!
//! There is no twin here: a [`BoundedMachine`] runs the production
//! `getTS` body of [`crate::bounded`] over a storage that replays the
//! call's observations so far, in order, and stops at the first access
//! past them. That access is the machine's poised step. Observing it
//! appends to the log and runs the body again, so every step the
//! explorer, the schedulers and the covering constructions take is a
//! step of the code [`BoundedTimestamp`](crate::BoundedTimestamp) runs.
//!
//! A model register holds a [`Word`]: the word the real object stores,
//! bit for bit, plus the line-15 sequence that the real object keeps in
//! the writer's cell. The model's only shared state is its registers,
//! so the cell travels with the word that publishes it.

use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use ts_model::{Algorithm, Machine, Poised, ProcId};

use crate::bounded::{
    get_ts, registers_for_budget, rnd_of, writer_field, OverwritePolicy, Storage, WRITER_BITS,
};
use crate::timestamp::Timestamp;
use crate::BoundedTimestamp;

/// A model register's value: a [`BoundedTimestamp`] register word and,
/// for a line-15 write, the writer's line-15 sequence.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Word {
    /// `0` for `⊥`, else `rnd` above `writer + 1` in the low 20 bits.
    word: u64,
    /// The writer fields of `R[1..rnd − 1]` in the writer's opening scan.
    seq: Option<Arc<[u32]>>,
}

impl Word {
    const BOT: Word = Word { word: 0, seq: None };
}

/// `⊥`, or `⟨rnd r, w k⟩` for a write by writer index `k` in round `r`,
/// followed by `seq [..]` (writer indices) for a line-15 write.
impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.word == 0 {
            return f.write_str("⊥");
        }
        let writer = |field: u32| field - 1;
        let rnd = rnd_of::<BoundedTimestamp>(self.word);
        let w = writer(writer_field::<BoundedTimestamp>(self.word));
        write!(f, "⟨rnd {rnd}, w {w}⟩")?;
        if let Some(seq) = &self.seq {
            let seq: Vec<u32> = seq.iter().map(|&field| writer(field)).collect();
            write!(f, " seq {seq:?}")?;
        }
        Ok(())
    }
}

/// The storage one run of the body sees: `log` replayed in order, then
/// a halt at the first access past it.
struct Replay<'a> {
    log: &'a [Option<Word>],
    next: Cell<usize>,
    m: usize,
    /// The line-15 cells, by writer index, filled from the words read.
    cells: Box<[OnceLock<Box<[u32]>>]>,
}

impl Replay<'_> {
    /// The logged observation of the next access, if it was made.
    fn replay(&self) -> Option<&Option<Word>> {
        let k = self.next.get();
        self.next.set(k + 1);
        self.log.get(k)
    }
}

impl Storage for Replay<'_> {
    const WRITER_BITS: u32 = WRITER_BITS;
    type Halt = Poised<Word, Timestamp>;

    fn registers(&self) -> usize {
        self.m
    }

    /// The logged value; a word carrying a sequence fills its writer's
    /// cell, as the real object's cell is set before its word is seen.
    fn read(&self, j: usize) -> Result<u64, Self::Halt> {
        let Some(observed) = self.replay() else {
            return Err(Poised::Read { reg: j - 1 });
        };
        let value = observed.as_ref().expect("a logged read holds its value");
        if let Some(seq) = &value.seq {
            let writer = writer_field::<Self>(value.word) as usize - 1;
            let _ = self.cells[writer].set(seq.iter().copied().collect());
        }
        Ok(value.word)
    }

    /// A line-15 write carries the sequence the body has just stored.
    fn write(&self, j: usize, word: u64, opens_phase: bool) -> Result<(), Self::Halt> {
        if self.replay().is_some() {
            return Ok(());
        }
        let seq = opens_phase.then(|| {
            let writer = writer_field::<Self>(word) as usize - 1;
            let seq = self.cells[writer]
                .get()
                .expect("line 15 stores r.seq first");
            Arc::from(&seq[..])
        });
        Err(Poised::Write {
            reg: j - 1,
            value: Word { word, seq },
        })
    }

    fn line15(&self, writer: usize) -> &OnceLock<Box<[u32]>> {
        &self.cells[writer]
    }
}

/// One Algorithm 4 `getTS` call as a step machine: the production body
/// re-run over its observation log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoundedMachine {
    /// The call's writer index.
    me: usize,
    m: usize,
    budget: usize,
    policy: OverwritePolicy,
    /// What each step so far observed: the value read, or `None` for a
    /// write.
    log: Vec<Option<Word>>,
    /// Where the body stops on `log`.
    poised: Poised<Word, Timestamp>,
}

impl BoundedMachine {
    /// Creates the machine for writer index `writer` on an object of
    /// budget `M = budget`, over `max(⌈2√M⌉, 2)` registers.
    ///
    /// # Panics
    ///
    /// Panics unless `writer < budget <= BoundedTimestamp::MAX_BUDGET`.
    pub fn new(writer: usize, budget: usize, policy: OverwritePolicy) -> Self {
        assert!(writer < budget, "writer {writer} outside budget {budget}");
        assert!(budget <= BoundedTimestamp::MAX_BUDGET);
        let mut machine = Self {
            me: writer,
            m: registers_for_budget(budget).max(2),
            budget,
            policy,
            log: Vec::new(),
            poised: Poised::Read { reg: 0 },
        };
        machine.poised = machine.run();
        machine
    }

    /// Runs the body over the log up to its first unlogged access.
    fn run(&self) -> Poised<Word, Timestamp> {
        let storage = Replay {
            log: &self.log,
            next: Cell::new(0),
            m: self.m,
            cells: (0..self.budget).map(|_| OnceLock::new()).collect(),
        };
        match get_ts(&storage, self.me, self.policy) {
            Ok((ts, ..)) => Poised::Done(ts),
            Err(step) => step,
        }
    }
}

impl Machine for BoundedMachine {
    type Value = Word;
    type Output = Timestamp;

    fn poised(&self) -> Poised<Word, Timestamp> {
        self.poised.clone()
    }

    fn observe(&mut self, observed: Option<Word>) {
        match (&self.poised, &observed) {
            (Poised::Read { .. }, Some(_)) | (Poised::Write { .. }, None) => {}
            (poised, obs) => panic!("invalid observe({obs:?}) while poised on {poised:?}"),
        }
        self.log.push(observed);
        self.poised = self.run();
    }
}

/// Model algorithm: Algorithm 4 with budget `M = n · ops_per_process`,
/// over `max(⌈2√M⌉, 2)` registers. The default constructors build the
/// one-shot specialization (`ops_per_process = 1`, Theorem 1.3).
///
/// Operation `op_index` of process `pid` is writer index
/// `pid · ops_per_process + op_index`, so a one-shot call's writer index
/// is its pid, as on [`BoundedTimestamp::one_shot`].
#[derive(Debug, Clone)]
pub struct BoundedModel {
    n: usize,
    ops_per_process: usize,
    m: usize,
    policy: OverwritePolicy,
}

impl BoundedModel {
    /// Creates the one-shot model for `n` processes with the paper's
    /// overwrite policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, OverwritePolicy::Paper)
    }

    /// Creates the one-shot model with an explicit overwrite policy
    /// (for the ablation and bug-demonstration experiments).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_policy(n: usize, policy: OverwritePolicy) -> Self {
        Self::with_ops(n, 1, policy)
    }

    /// Creates the general `M`-bounded model: `n` processes, each
    /// invoking `getTS` up to `ops_per_process` times
    /// (`M = n · ops_per_process` total budget).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `ops_per_process == 0`.
    pub fn with_ops(n: usize, ops_per_process: usize, policy: OverwritePolicy) -> Self {
        assert!(n > 0);
        assert!(ops_per_process > 0);
        Self {
            n,
            ops_per_process,
            m: registers_for_budget(n * ops_per_process).max(2),
            policy,
        }
    }

    /// The register count `m`.
    pub fn m(&self) -> usize {
        self.m
    }
}

impl Algorithm for BoundedModel {
    type Machine = BoundedMachine;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        self.m
    }

    fn initial_value(&self) -> Word {
        Word::BOT
    }

    fn invoke(&self, pid: ProcId, op_index: usize) -> BoundedMachine {
        assert!(
            op_index < self.ops_per_process,
            "invocation budget exceeded for p{pid}"
        );
        BoundedMachine::new(
            pid * self.ops_per_process + op_index,
            self.n * self.ops_per_process,
            self.policy,
        )
    }

    fn compare(&self, t1: &Timestamp, t2: &Timestamp) -> bool {
        Timestamp::compare(t1, t2)
    }

    fn ops_per_process(&self) -> Option<usize> {
        Some(self.ops_per_process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GetTsId;
    use crate::traits::OneShotTimestamp;
    use ts_model::{Explorer, RandomScheduler, System};

    #[test]
    fn solo_sequence_matches_concrete_walkthrough() {
        // Mirror of the concrete test: (1,0), (2,0), (2,1), (3,0), ...
        // but sized for n = 6 processes.
        let mut sys = System::new(BoundedModel::new(6));
        let expected = [
            Timestamp::new(1, 0),
            Timestamp::new(2, 0),
            Timestamp::new(2, 1),
            Timestamp::new(3, 0),
            Timestamp::new(3, 1),
            Timestamp::new(3, 2),
        ];
        for (p, want) in expected.iter().enumerate() {
            let got = sys.run_solo_to_completion(p, 1000).unwrap();
            assert_eq!(got, *want, "call {p}");
        }
        assert!(sys.check_property().is_none());
    }

    /// The real object's registers `R[1..m]` as words.
    fn words(ts: &BoundedTimestamp) -> Vec<u64> {
        (1..=ts.registers())
            .map(|j| {
                let Ok(word) = Storage::read(ts, j);
                word
            })
            .collect()
    }

    /// Runs `model` solo, one call after another in `order` of
    /// `(pid, op_index)`, next to `call` on `object`; after each call
    /// the stamps and every register word must agree.
    fn assert_agrees(
        model: BoundedModel,
        object: &BoundedTimestamp,
        order: impl IntoIterator<Item = usize>,
        call: impl Fn(&BoundedTimestamp, usize) -> Timestamp,
    ) {
        let mut sys = System::new(model);
        for (k, pid) in order.into_iter().enumerate() {
            let got = sys.run_solo_to_completion(pid, 100_000).unwrap();
            assert_eq!(got, call(object, k), "call {k}");
            let model_words: Vec<u64> = sys.config().regs.iter().map(|r| r.word).collect();
            assert_eq!(model_words, words(object), "call {k}");
        }
        assert!(sys.check_property().is_none());
    }

    #[test]
    fn model_and_object_agree_word_for_word() {
        for n in 1..=64 {
            assert_agrees(
                BoundedModel::new(n),
                &BoundedTimestamp::one_shot(n),
                0..n,
                |ts, k| ts.get_ts(k).unwrap(),
            );
            assert_agrees(
                BoundedModel::with_ops(1, n, OverwritePolicy::Paper),
                &BoundedTimestamp::with_budget(n),
                std::iter::repeat_n(0, n),
                |ts, k| ts.get_ts_with_id(GetTsId::new(0, k as u32)).unwrap(),
            );
        }
    }

    #[test]
    fn word_debug_names_round_writer_and_sequence() {
        assert_eq!(format!("{:?}", Word::BOT), "⊥");
        let turn = Word {
            word: (2 << WRITER_BITS) | 4,
            seq: None,
        };
        assert_eq!(format!("{turn:?}"), "⟨rnd 2, w 3⟩");
        let open = Word {
            word: (3 << WRITER_BITS) | 6,
            seq: Some(Arc::from(&[1, 3][..])),
        };
        assert_eq!(format!("{open:?}"), "⟨rnd 3, w 5⟩ seq [0, 2]");
    }

    #[test]
    fn exhaustive_check_two_processes() {
        let report = Explorer::new(BoundedModel::new(2), 1).run();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.executions > 0);
    }

    #[test]
    fn random_runs_many_processes() {
        for seed in 0..10 {
            let report = RandomScheduler::new(seed).run(BoundedModel::new(12));
            assert!(report.violation.is_none(), "seed {seed}");
            assert_eq!(report.completed_ops, 12);
            // Space: strictly fewer writes than m registers (sentinel).
            assert!(report.registers_written < BoundedModel::new(12).m());
        }
    }

    #[test]
    fn never_overwrite_policy_still_passes_tiny_exhaustive_check() {
        // The Section 6.1 bug needs at least 5 participants to manifest;
        // with 2 processes the Never policy is still safe, which the
        // explorer confirms (the bug demo lives in the integration
        // tests).
        let report = Explorer::new(BoundedModel::with_policy(2, OverwritePolicy::Never), 1).run();
        assert!(report.violation.is_none());
    }

    #[test]
    fn multi_shot_model_matches_concrete_walkthrough() {
        // One process, budget 6: the sequential (1,0), (2,0), (2,1), ...
        // pattern must match the concrete object's.
        let mut sys = System::new(BoundedModel::with_ops(1, 6, OverwritePolicy::Paper));
        let expected = [
            Timestamp::new(1, 0),
            Timestamp::new(2, 0),
            Timestamp::new(2, 1),
            Timestamp::new(3, 0),
            Timestamp::new(3, 1),
            Timestamp::new(3, 2),
        ];
        for (k, want) in expected.iter().enumerate() {
            let got = sys.run_solo_to_completion(0, 10_000).unwrap();
            assert_eq!(got, *want, "call {k}");
        }
        assert!(sys.check_property().is_none());
    }

    #[test]
    fn multi_shot_exhaustive_two_processes_two_ops() {
        let report = Explorer::new(BoundedModel::with_ops(2, 2, OverwritePolicy::Paper), 2).run();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.executions > 0);
    }

    #[test]
    fn multi_shot_random_runs_are_clean() {
        for seed in 0..10 {
            let report = RandomScheduler::new(seed)
                .ops_per_process(3)
                .run(BoundedModel::with_ops(4, 3, OverwritePolicy::Paper));
            assert!(report.violation.is_none(), "seed {seed}");
            assert_eq!(report.completed_ops, 12);
        }
    }

    #[test]
    fn machine_rejects_invalid_observation() {
        let mut m = BoundedMachine::new(0, 1, OverwritePolicy::Paper);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.observe(None) // poised on a read
        }));
        assert!(result.is_err());
    }
}
