//! Output checks. Every untraced and traced run applies them to what the
//! program returned; each failed check counts as one failed call.

use ts_core::{PhaseStats, ShardedTimestamp, Timestamp};

/// Counts the stamps in `stamps` that do not strictly follow their
/// predecessor (the first is compared with `last`), then moves `last` to
/// the final stamp. `lt` is the object's `compare`.
pub fn strictly_increasing<T: Copy>(
    last: &mut Option<T>,
    stamps: &[T],
    lt: impl Fn(&T, &T) -> bool,
) -> u64 {
    let mut bad = 0;
    for s in stamps {
        if let Some(prev) = last {
            if !lt(prev, s) {
                bad += 1;
            }
        }
        *last = Some(*s);
    }
    bad
}

/// A read of the maximum covers the reader's own last stamp: that stamp
/// was written to the reader's register before its call returned.
pub fn covers(read: Timestamp, last: Option<Timestamp>) -> bool {
    last.is_none_or(|l| !Timestamp::compare(&read, &l))
}

/// A batch reservation is `k` consecutive stamps: one shard, one epoch,
/// and `local` rising by exactly one.
pub fn batch_is_consecutive(batch: &[ShardedTimestamp], k: usize) -> bool {
    batch.len() == k
        && batch.windows(2).all(|w| {
            w[0].shard == w[1].shard
                && w[0].epoch == w[1].epoch
                && w[0].local.checked_add(1) == Some(w[1].local)
        })
}

/// The timestamp property across a one-shot round's barrier: every
/// first-half stamp `compare`s before every second-half stamp.
pub fn halves_ordered(first: &[Timestamp], second: &[Timestamp]) -> bool {
    first
        .iter()
        .all(|a| second.iter().all(|b| Timestamp::compare(a, b)))
}

/// The paper's space, phase and invalidation bounds (Lemma 6.5,
/// Claim 6.13, Theorem 1.3) on one finished one-shot object.
pub fn phase_bounds_hold(stats: &PhaseStats) -> bool {
    stats.space_bound_holds() && stats.phase_bound_holds() && stats.invalidation_bound_holds()
}

/// What a scheduled fault does to one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Crash,
    /// Restart with a wiped disk, so the rejoin resync rebuilds it.
    WipeRestart,
}

/// One entry of the rolling crash schedule: applied right after the
/// window's `at`-th completed call (counted across both clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: u64,
    pub kind: FaultKind,
    pub replica: u32,
}

/// Every event the run reached (those at an op count below `completed`)
/// was applied, and the cluster saw exactly those crashes and restarts.
pub fn faults_all_applied(
    schedule: &[FaultEvent],
    completed: u64,
    applied: usize,
    cluster_crashes: u64,
    cluster_restarts: u64,
) -> bool {
    let reached: Vec<&FaultEvent> = schedule.iter().filter(|e| e.at < completed).collect();
    let crashes = reached
        .iter()
        .filter(|e| e.kind == FaultKind::Crash)
        .count() as u64;
    let restarts = reached.len() as u64 - crashes;
    applied == reached.len() && cluster_crashes == crashes && cluster_restarts == restarts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::scalar(v)
    }

    #[test]
    fn increasing_stamps_pass_and_a_repeated_stamp_fails() {
        let mut last = None;
        assert_eq!(
            strictly_increasing(&mut last, &[ts(1), ts(2), ts(5)], Timestamp::compare),
            0
        );
        assert_eq!(last, Some(ts(5)));
        // Repeated across the block boundary, then within the block.
        assert_eq!(
            strictly_increasing(&mut last, &[ts(5), ts(6), ts(6)], Timestamp::compare),
            2
        );
    }

    #[test]
    fn read_max_below_the_readers_last_stamp_fails() {
        assert!(covers(ts(4), None));
        assert!(covers(ts(4), Some(ts(4))));
        assert!(!covers(ts(3), Some(ts(4))));
    }

    #[test]
    fn batch_check_rejects_a_gap_a_repeat_or_a_short_batch() {
        let b: Vec<_> = (3..19).map(|l| ShardedTimestamp::new(1, l, 0)).collect();
        assert!(batch_is_consecutive(&b, 16));
        assert!(!batch_is_consecutive(&b[..15], 16));
        let mut repeated = b.clone();
        repeated[7] = repeated[6];
        assert!(!batch_is_consecutive(&repeated, 16));
        let mut other_shard = b.clone();
        other_shard[15].shard = 1;
        assert!(!batch_is_consecutive(&other_shard, 16));
    }

    #[test]
    fn halves_check_rejects_a_second_half_stamp_ordered_first() {
        let first = [ts(1), Timestamp::new(2, 1)];
        let second = [ts(3), Timestamp::new(3, 2)];
        assert!(halves_ordered(&first, &second));
        let early = [ts(3), Timestamp::new(2, 0)];
        assert!(!halves_ordered(&first, &early));
    }

    #[test]
    fn fault_check_rejects_an_unapplied_event() {
        let schedule = [
            FaultEvent {
                at: 10,
                kind: FaultKind::Crash,
                replica: 1,
            },
            FaultEvent {
                at: 20,
                kind: FaultKind::WipeRestart,
                replica: 1,
            },
            FaultEvent {
                at: 30,
                kind: FaultKind::Crash,
                replica: 2,
            },
        ];
        // 25 calls completed: the first two events were reached.
        assert!(faults_all_applied(&schedule, 25, 2, 1, 1));
        // The restart was not applied.
        assert!(!faults_all_applied(&schedule, 25, 1, 1, 0));
        // The cluster saw a crash the schedule did not ask for.
        assert!(!faults_all_applied(&schedule, 25, 2, 2, 1));
    }
}
