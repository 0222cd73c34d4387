//! Model twin of Algorithm 4 (the `⌈2√M⌉`-register object).
//!
//! The machine follows the pseudocode line-by-line, including the
//! double-collect scan of line 13 expressed as individual register
//! reads. In the model, value equality is exact change detection: every
//! write to a given register carries a distinct `last(seq)` (Claim
//! 6.1(b)), so a repeated identical collect certifies a linearizable
//! view without stamps.
//!
//! The twin keeps the paper's register value, [`Slot`]: a sequence of
//! getTS-ids and a round. The production objects store the same
//! information as a word of `rnd` and a writer index plus a per-writer
//! cell (see [`crate::bounded`]).

use std::sync::Arc;

use ts_model::{Algorithm, Machine, Poised, ProcId};

use crate::bounded::{registers_for_budget, OverwritePolicy};
use crate::ids::GetTsId;
use crate::timestamp::Timestamp;

/// Register contents: `⊥` or `⟨seq, rnd⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The initial value `⊥`.
    Bot,
    /// A written pair `⟨seq, rnd⟩` (shared so clones are cheap).
    Val(Arc<SlotVal>),
}

impl Slot {
    /// Builds a written slot.
    pub fn val(seq: Vec<GetTsId>, rnd: u64) -> Self {
        Slot::Val(Arc::new(SlotVal { seq, rnd }))
    }

    /// Whether the slot is `⊥`.
    pub fn is_bot(&self) -> bool {
        matches!(self, Slot::Bot)
    }

    /// `last(R.seq)` — the last getTS-id of the stored sequence.
    pub fn last(&self) -> Option<GetTsId> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => v.seq.last().copied(),
        }
    }

    /// `R.seq[j]` with the paper's 1-based indexing.
    pub fn seq_get(&self, j: usize) -> Option<GetTsId> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => v.seq.get(j.checked_sub(1)?).copied(),
        }
    }

    /// `R.rnd`, if written.
    pub fn rnd(&self) -> Option<u64> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => Some(v.rnd),
        }
    }
}

/// The pair `⟨seq, rnd⟩` stored in a written register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotVal {
    /// Sequence of getTS-ids (length 1 for invalidation writes, length
    /// `k` for the write opening phase `k`).
    pub seq: Vec<GetTsId>,
    /// The round the write belongs to.
    pub rnd: u64,
}

/// Where a [`BoundedMachine`] is in Algorithm 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// Lines 1–3: reading `R[j]` of the while-loop (paper 1-based `j`).
    While { j: usize },
    /// Line 6 of iteration `j`: reading `R[myrnd + 1]`.
    CheckNext { j: usize },
    /// Line 7/10 of iteration `j`: reading `R[j]`.
    ReadReg { j: usize },
    /// Line 8: writing the invalidating pair, then returning `(myrnd, j)`.
    WriteTurn { j: usize },
    /// Line 11: writing the pin-down pair, then continuing the loop.
    WritePin { j: usize },
    /// Line 13: reading register `idx` (0-based) of the current collect.
    Scan { idx: usize },
    /// Line 15: writing the phase-opening value.
    WriteOpen { value: Slot },
    /// Line 9/12/16: returning.
    Finished { ts: Timestamp },
}

/// Step machine for one Algorithm 4 `getTS(ID)` call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoundedMachine {
    id: GetTsId,
    m: usize,
    policy: OverwritePolicy,
    myrnd: usize,
    /// Local views `r[1..=myrnd]` from the while-loop (index 0 unused).
    r: Vec<Slot>,
    /// Collect in progress (line 13).
    current: Vec<Slot>,
    /// Last completed collect (line 13).
    previous: Option<Vec<Slot>>,
    phase: Phase,
}

impl BoundedMachine {
    /// Creates the machine for getTS-id `id` over `m` registers.
    pub fn new(id: GetTsId, m: usize, policy: OverwritePolicy) -> Self {
        Self {
            id,
            m,
            policy,
            myrnd: 0,
            r: vec![Slot::Bot],
            current: Vec::new(),
            previous: None,
            phase: Phase::While { j: 1 },
        }
    }

    fn inval_value(&self) -> Slot {
        Slot::val(vec![self.id], self.myrnd as u64)
    }

    /// Next phase after finishing loop iteration `j` without returning.
    fn next_iteration(&self, j: usize) -> Phase {
        if j < self.myrnd.saturating_sub(1) {
            Phase::CheckNext { j: j + 1 }
        } else {
            Phase::Scan { idx: 0 }
        }
    }

    /// Entry into the for-loop (or directly to the scan when empty).
    fn enter_loop(&self) -> Phase {
        if self.myrnd >= 2 {
            Phase::CheckNext { j: 1 }
        } else {
            Phase::Scan { idx: 0 }
        }
    }

    /// Lines 14–15 once the double collect succeeded with `view`.
    fn after_scan(&self, view: &[Slot]) -> Phase {
        if view[self.myrnd].is_bot() {
            assert!(
                self.myrnd + 1 < self.m,
                "space bound violated: writing sentinel register R[{}]",
                self.m
            );
            let mut seq = Vec::with_capacity(self.myrnd + 1);
            for jj in 1..=self.myrnd {
                seq.push(
                    view[jj - 1]
                        .last()
                        .expect("scanned prefix registers are non-⊥"),
                );
            }
            seq.push(self.id);
            Phase::WriteOpen {
                value: Slot::val(seq, (self.myrnd + 1) as u64),
            }
        } else {
            Phase::Finished {
                ts: Timestamp::new((self.myrnd + 1) as u64, 0),
            }
        }
    }
}

impl Machine for BoundedMachine {
    type Value = Slot;
    type Output = Timestamp;

    fn poised(&self) -> Poised<Slot, Timestamp> {
        match &self.phase {
            Phase::While { j } => Poised::Read { reg: j - 1 },
            Phase::CheckNext { .. } => Poised::Read { reg: self.myrnd },
            Phase::ReadReg { j } => Poised::Read { reg: j - 1 },
            Phase::WriteTurn { j } | Phase::WritePin { j } => Poised::Write {
                reg: j - 1,
                value: self.inval_value(),
            },
            Phase::Scan { idx } => Poised::Read { reg: *idx },
            Phase::WriteOpen { value } => Poised::Write {
                reg: self.myrnd,
                value: value.clone(),
            },
            Phase::Finished { ts } => Poised::Done(*ts),
        }
    }

    fn observe(&mut self, observed: Option<Slot>) {
        self.phase = match (self.phase.clone(), observed) {
            (Phase::While { j }, Some(v)) => {
                if v.is_bot() {
                    self.myrnd = j - 1;
                    self.enter_loop()
                } else {
                    self.r.push(v);
                    assert!(
                        j < self.m,
                        "space bound violated: all {} registers non-⊥",
                        self.m
                    );
                    Phase::While { j: j + 1 }
                }
            }
            (Phase::CheckNext { j }, Some(v)) => {
                if v.is_bot() {
                    Phase::ReadReg { j }
                } else {
                    // Line 12.
                    Phase::Finished {
                        ts: Timestamp::new((self.myrnd + 1) as u64, 0),
                    }
                }
            }
            (Phase::ReadReg { j }, Some(cur)) => {
                let expected = self.r[self.myrnd].seq_get(j);
                if expected.is_some() && cur.last() == expected {
                    Phase::WriteTurn { j }
                } else {
                    let overwrite = match self.policy {
                        OverwritePolicy::Paper => {
                            cur.rnd().is_some_and(|rnd| rnd < self.myrnd as u64)
                        }
                        OverwritePolicy::Always => true,
                        OverwritePolicy::Never => false,
                    };
                    if overwrite {
                        Phase::WritePin { j }
                    } else {
                        self.next_iteration(j)
                    }
                }
            }
            (Phase::WriteTurn { j }, None) => Phase::Finished {
                ts: Timestamp::new(self.myrnd as u64, j as u64),
            },
            (Phase::WritePin { j }, None) => self.next_iteration(j),
            (Phase::Scan { idx }, Some(v)) => {
                self.current.push(v);
                if idx + 1 < self.m {
                    Phase::Scan { idx: idx + 1 }
                } else {
                    let collect = std::mem::take(&mut self.current);
                    if self.previous.as_ref() == Some(&collect) {
                        self.after_scan(&collect)
                    } else {
                        self.previous = Some(collect);
                        Phase::Scan { idx: 0 }
                    }
                }
            }
            (Phase::WriteOpen { .. }, None) => Phase::Finished {
                ts: Timestamp::new((self.myrnd + 1) as u64, 0),
            },
            (phase, obs) => panic!("invalid observe({obs:?}) in {phase:?}"),
        };
    }
}

/// Model algorithm: Algorithm 4 with budget `M = n · ops_per_process`,
/// over `max(⌈2√M⌉, 2)` registers. The default constructors build the
/// one-shot specialization (`ops_per_process = 1`, Theorem 1.3).
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

    fn initial_value(&self) -> Slot {
        Slot::Bot
    }

    fn invoke(&self, pid: ProcId, op_index: usize) -> BoundedMachine {
        assert!(
            op_index < self.ops_per_process,
            "invocation budget exceeded for p{pid}"
        );
        BoundedMachine::new(
            GetTsId::new(pid as u32, op_index as u32),
            self.m,
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
    use ts_model::{Explorer, RandomScheduler, System};

    #[test]
    fn slot_accessors() {
        let bot = Slot::Bot;
        assert!(bot.is_bot());
        assert_eq!(bot.last(), None);
        assert_eq!(bot.rnd(), None);
        assert_eq!(bot.seq_get(1), None);
        let v = Slot::val(vec![GetTsId::new(1, 0), GetTsId::new(2, 0)], 3);
        assert_eq!(v.last(), Some(GetTsId::new(2, 0)));
        assert_eq!(v.seq_get(1), Some(GetTsId::new(1, 0)));
        assert_eq!(v.seq_get(2), Some(GetTsId::new(2, 0)));
        assert_eq!(v.seq_get(3), None);
        assert_eq!(v.seq_get(0), None);
        assert_eq!(v.rnd(), Some(3));
    }

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
        let mut m = BoundedMachine::new(GetTsId::one_shot(0), 3, OverwritePolicy::Paper);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.observe(None) // poised on a read
        }));
        assert!(result.is_err());
    }
}
