//! Fault campaigns: seeded, deterministic crash/partition/stall
//! schedules driven alongside any scenario.
//!
//! A [`FaultSchedule`] is a list of [`TimedFault`]s, each firing when
//! the run's **global completed-op counter** crosses its threshold —
//! not at a wall-clock instant. Events are applied *in-band* by
//! whichever worker thread completes the crossing op (there is no
//! controller thread), so a single-threaded run applies every event at
//! exactly the same op on every replay: campaigns are deterministic
//! per `(seed, schedule)` the same way the router's fault plan is.
//!
//! Event kinds map onto the cluster and gate knobs grown elsewhere:
//!
//! * `Crash`/`Restart` — [`Cluster::crash`](ts_replica::Cluster::crash)
//!   and [`Cluster::restart`](ts_replica::Cluster::restart) (with a
//!   [`RestartMode`]);
//! * `Partition`/`Heal` — the router's partition knobs;
//! * `Stall`/`Resume` — park worker `slot` at its next op boundary on
//!   a [`StepGate`] until resumed.
//!   `Stall` carries a `for_ops` duration that expands into an
//!   implicit `Resume` at `at_op + for_ops`, fired by the *other*
//!   workers' progress.
//!
//! [`FaultSchedule::random`] generates seeded schedules that keep the
//! service available throughout: at most `f` replicas unreachable
//! (crashed plus partitioned) and at least one worker left running, so
//! an infallible workload target survives the whole campaign —
//! degraded, never down. Hand-written schedules are free to violate
//! this (e.g. to drive `try_*` clients into `Unavailable`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ts_core::workload::StepGate;
use ts_replica::{Cluster, RestartMode};

/// One fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash-stop replica `replica`.
    Crash {
        /// The replica to take down.
        replica: u32,
    },
    /// Restart a crashed replica (resync included).
    Restart {
        /// The replica to bring back.
        replica: u32,
        /// Whether its state is wiped first.
        wipe: bool,
    },
    /// Partition `replicas` away from everyone else.
    Partition {
        /// The isolated set.
        replicas: Vec<u32>,
    },
    /// Heal all partitions.
    Heal,
    /// Park worker `slot` at its next op boundary.
    Stall {
        /// The worker slot to park.
        slot: usize,
        /// Implicit resume after this many further global ops.
        for_ops: u64,
    },
    /// Un-park worker `slot` (explicit resume; `Stall` also expands
    /// into one of these).
    Resume {
        /// The worker slot to release.
        slot: usize,
    },
}

/// A fault firing when the global completed-op counter reaches
/// `at_op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// Global completed-op threshold.
    pub at_op: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// Shape parameters for [`FaultSchedule::random`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignShape {
    /// Cluster fault tolerance (`2f + 1` replicas).
    pub f: usize,
    /// Worker slots the scenario will run.
    pub threads: usize,
    /// Total ops the run will complete (`threads × ops_per_thread`).
    pub total_ops: u64,
    /// Fault events to aim for (the generator may emit fewer when the
    /// state machine has no legal move, plus implicit repairs).
    pub events: usize,
}

/// An ordered, deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Events sorted by `at_op` (stable for equal thresholds).
    pub events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// A schedule from explicit events (sorts them by `at_op`,
    /// expanding each `Stall` into its implicit `Resume`).
    pub fn new(mut events: Vec<TimedFault>) -> Self {
        let mut resumes: Vec<TimedFault> = events
            .iter()
            .filter_map(|t| match t.event {
                FaultEvent::Stall { slot, for_ops } => Some(TimedFault {
                    at_op: t.at_op.saturating_add(for_ops),
                    event: FaultEvent::Resume { slot },
                }),
                _ => None,
            })
            .collect();
        events.append(&mut resumes);
        events.sort_by_key(|t| t.at_op);
        Self { events }
    }

    /// Generates a seeded availability-preserving schedule: crashed
    /// plus partitioned replicas never exceed `f`, stalled workers
    /// never reach `threads`, every crash is eventually restarted and
    /// every partition healed *within* the run. Identical for
    /// identical `(seed, shape)` — the campaign determinism seam.
    pub fn random(seed: u64, shape: &CampaignShape) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (2 * shape.f + 1) as u32;
        let span = shape.total_ops.max(4);
        // Fire inside the middle of the run so repairs fit before it
        // ends; thresholds strictly increase so application order is
        // total.
        let mut at = span / 10 + 1;
        let headroom = |at: u64| at < span.saturating_mul(4) / 5;
        let mut crashed: Vec<u32> = Vec::new();
        let mut isolated: Vec<u32> = Vec::new();
        let mut stalled: Vec<usize> = Vec::new();
        let mut events: Vec<TimedFault> = Vec::new();
        let mut emitted = 0usize;
        while emitted < shape.events && headroom(at) {
            let down = crashed.len() + isolated.len();
            // Candidate moves legal in the current state.
            let mut moves: Vec<u8> = Vec::new();
            if down < shape.f {
                moves.push(0); // crash
                if isolated.is_empty() {
                    moves.push(1); // partition
                }
            }
            if !crashed.is_empty() {
                moves.push(2); // restart
            }
            if !isolated.is_empty() {
                moves.push(3); // heal
            }
            if shape.threads > 1 && stalled.len() < shape.threads - 1 {
                moves.push(4); // stall
            }
            if moves.is_empty() {
                break;
            }
            let mv = moves[rng.random_range(0..moves.len())];
            let event = match mv {
                0 => {
                    let up: Vec<u32> = (0..n)
                        .filter(|r| !crashed.contains(r) && !isolated.contains(r))
                        .collect();
                    let replica = up[rng.random_range(0..up.len())];
                    crashed.push(replica);
                    FaultEvent::Crash { replica }
                }
                1 => {
                    let up: Vec<u32> = (0..n).filter(|r| !crashed.contains(r)).collect();
                    let width = 1 + rng.random_range(0..(shape.f - down).max(1));
                    let mut set: Vec<u32> = Vec::new();
                    for _ in 0..width.min(up.len()) {
                        let pick = up[rng.random_range(0..up.len())];
                        if !set.contains(&pick) {
                            set.push(pick);
                        }
                    }
                    set.sort_unstable();
                    isolated = set.clone();
                    FaultEvent::Partition { replicas: set }
                }
                2 => {
                    let replica = crashed.remove(rng.random_range(0..crashed.len()));
                    // A wipe needs a live quorum of others; with every
                    // other replica up that always holds, but partitions
                    // can thin the live set — retain when in doubt.
                    let wipe = isolated.is_empty() && rng.random_range(0..2u32) == 0;
                    FaultEvent::Restart { replica, wipe }
                }
                3 => {
                    isolated.clear();
                    FaultEvent::Heal
                }
                _ => {
                    let free: Vec<usize> = (0..shape.threads)
                        .filter(|s| !stalled.contains(s))
                        .collect();
                    let slot = free[rng.random_range(0..free.len())];
                    stalled.push(slot);
                    let for_ops = 1 + rng.random_range(0..span / 8 + 1);
                    FaultEvent::Stall { slot, for_ops }
                }
            };
            events.push(TimedFault { at_op: at, event });
            emitted += 1;
            at += 1 + rng.random_range(0..span / (shape.events as u64 + 1) + 1);
        }
        // Repair everything still broken so the run ends healthy.
        for replica in crashed {
            events.push(TimedFault {
                at_op: at,
                event: FaultEvent::Restart {
                    replica,
                    wipe: false,
                },
            });
            at += 1;
        }
        if !isolated.is_empty() {
            events.push(TimedFault {
                at_op: at,
                event: FaultEvent::Heal,
            });
        }
        // Stalls auto-expand to resumes in new(); stalled-set bookkeeping
        // above only bounds concurrency, conservatively ignoring that
        // expansion (a resumed slot still counts as stalled for
        // generation — stricter, never looser).
        Self::new(events)
    }

    /// Highest `at_op` threshold (0 for an empty schedule).
    pub fn last_op(&self) -> u64 {
        self.events.last().map_or(0, |t| t.at_op)
    }
}

/// One applied event, for the post-run log: which event fired, and the
/// global op count observed when it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Index into [`FaultSchedule::events`].
    pub index: usize,
    /// Global completed ops at application time (>= the threshold; in
    /// a single-threaded run, exactly the threshold).
    pub at_op: u64,
}

/// A schedule bound to the cluster it manipulates, plus the runtime
/// state the engine drives: the global op counter, per-slot stall
/// gates, and the applied-event log.
///
/// Build one per run ([`Campaign::new`]) and hand it to
/// [`run_scenario_with`](crate::run_scenario_with) via
/// [`EngineOptions`](crate::EngineOptions); inspect
/// [`Campaign::applied`] afterwards.
#[derive(Debug)]
pub struct Campaign {
    cluster: Arc<Cluster>,
    schedule: FaultSchedule,
    ops: AtomicU64,
    next: AtomicUsize,
    /// One pending-stall gate slot per worker: `Some(gate)` while the
    /// slot is stalled. Each stall gets a *fresh* gate, released
    /// wholesale on resume, so stall/resume cycles never leak credits
    /// into each other.
    stalls: Vec<Mutex<Option<Arc<StepGate>>>>,
    applied: Mutex<Vec<AppliedFault>>,
    /// Wall-clock nanoseconds spent applying *repair* events (restart
    /// resync sweeps and partition heals), accumulated in-band. This is
    /// the run's recovery cost: restarts replay the rejoin protocol
    /// synchronously inside the worker that crossed the threshold, so
    /// the time is real recovery work, not scheduling noise. Kept out
    /// of [`AppliedFault`] so the applied log stays comparable across
    /// runs (the determinism seam is op counts, never wall time).
    repair_nanos: AtomicU64,
}

impl Campaign {
    /// Binds `schedule` to `cluster` for a run with `slots` worker
    /// slots.
    pub fn new(cluster: Arc<Cluster>, schedule: FaultSchedule, slots: usize) -> Arc<Self> {
        for t in &schedule.events {
            if let FaultEvent::Stall { slot, .. } | FaultEvent::Resume { slot } = t.event {
                assert!(slot < slots, "stall slot {slot} out of range");
            }
        }
        Arc::new(Self {
            cluster,
            schedule,
            ops: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            stalls: (0..slots).map(|_| Mutex::new(None)).collect(),
            applied: Mutex::new(Vec::new()),
            repair_nanos: AtomicU64::new(0),
        })
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The bound schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Global completed ops so far.
    pub fn ops_completed(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The applied-event log (complete once the run returns).
    pub fn applied(&self) -> Vec<AppliedFault> {
        self.applied.lock().expect("campaign lock").clone()
    }

    /// Total wall time spent applying repair events (restart resync
    /// sweeps + heals) — the campaign's recovery cost. Bench chaos
    /// cells report this as `recovery_ms`.
    pub fn repair_time(&self) -> Duration {
        Duration::from_nanos(self.repair_nanos.load(Ordering::Relaxed))
    }

    /// Whether every scheduled event fired during the run.
    pub fn fully_applied(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.schedule.events.len()
    }

    /// Worker slots currently parked by a stall.
    pub fn stalled_slots(&self) -> Vec<usize> {
        (0..self.stalls.len())
            .filter(|&s| self.stalls[s].lock().expect("campaign lock").is_some())
            .collect()
    }

    /// Engine hook, worker side, before each op: parks on the slot's
    /// stall gate if a stall is pending. Clones the gate out of the
    /// lock first so a concurrent resume (which swaps the slot to
    /// `None` and releases the gate) always unblocks this exact gate.
    pub(crate) fn before_op(&self, slot: usize) {
        let gate = self.stalls[slot].lock().expect("campaign lock").clone();
        if let Some(gate) = gate {
            gate.pause();
        }
    }

    /// Engine hook, worker side, after each completed op: advances the
    /// global counter and applies every event whose threshold the new
    /// count crosses. Claiming is a CAS on the event index, so under
    /// multi-threaded completion races each event fires exactly once.
    pub(crate) fn after_op(&self) {
        let count = self.ops.fetch_add(1, Ordering::AcqRel) + 1;
        loop {
            let idx = self.next.load(Ordering::Acquire);
            let Some(timed) = self.schedule.events.get(idx) else {
                return;
            };
            if timed.at_op > count {
                return;
            }
            if self
                .next
                .compare_exchange(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue; // another worker claimed it
            }
            self.apply(idx, count);
        }
    }

    /// Drains any events the run never reached (counter ended below
    /// their threshold) *without* applying them, then releases every
    /// still-parked stall gate so workers can drain. Called by the
    /// engine after all workers finish.
    pub(crate) fn finish(&self) {
        for slot in &self.stalls {
            if let Some(gate) = slot.lock().expect("campaign lock").take() {
                gate.release_all();
            }
        }
    }

    fn apply(&self, index: usize, count: u64) {
        match &self.schedule.events[index].event {
            FaultEvent::Crash { replica } => self.cluster.crash(*replica),
            FaultEvent::Restart { replica, wipe } => {
                let t0 = Instant::now();
                self.cluster.restart(
                    *replica,
                    if *wipe {
                        RestartMode::Wipe
                    } else {
                        RestartMode::Retain
                    },
                );
                self.repair_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            FaultEvent::Partition { replicas } => self.cluster.router().partition(replicas),
            FaultEvent::Heal => {
                let t0 = Instant::now();
                self.cluster.router().heal();
                self.repair_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            FaultEvent::Stall { slot, .. } => {
                let gate = Arc::new(StepGate::new());
                *self.stalls[*slot].lock().expect("campaign lock") = Some(gate);
            }
            FaultEvent::Resume { slot } => {
                if let Some(gate) = self.stalls[*slot].lock().expect("campaign lock").take() {
                    gate.release_all();
                }
            }
        }
        self.applied
            .lock()
            .expect("campaign lock")
            .push(AppliedFault {
                index,
                at_op: count,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_replica::ClusterConfig;

    fn shape() -> CampaignShape {
        CampaignShape {
            f: 1,
            threads: 4,
            total_ops: 400,
            events: 8,
        }
    }

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let a = FaultSchedule::random(42, &shape());
        let b = FaultSchedule::random(42, &shape());
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = FaultSchedule::random(43, &shape());
        assert_ne!(a, c, "different seeds explore different campaigns");
    }

    #[test]
    fn random_schedules_preserve_availability() {
        for seed in 0..50 {
            let schedule = FaultSchedule::random(seed, &shape());
            let mut crashed: Vec<u32> = Vec::new();
            let mut isolated = 0usize;
            let mut stalled: Vec<usize> = Vec::new();
            let mut last_at = 0;
            for t in &schedule.events {
                assert!(t.at_op >= last_at, "sorted by threshold");
                last_at = t.at_op;
                match &t.event {
                    FaultEvent::Crash { replica } => crashed.push(*replica),
                    FaultEvent::Restart { replica, .. } => {
                        crashed.retain(|r| r != replica);
                    }
                    FaultEvent::Partition { replicas } => isolated = replicas.len(),
                    FaultEvent::Heal => isolated = 0,
                    FaultEvent::Stall { slot, .. } => stalled.push(*slot),
                    FaultEvent::Resume { slot } => stalled.retain(|s| s != slot),
                }
                assert!(
                    crashed.len() + isolated <= 1,
                    "seed {seed}: more than f replicas unreachable"
                );
                assert!(crashed.len() <= 1);
                assert!(stalled.len() < 4, "seed {seed}: every worker stalled");
            }
            assert!(crashed.is_empty(), "seed {seed}: run ends with a crash");
            assert_eq!(isolated, 0, "seed {seed}: run ends partitioned");
            assert!(
                schedule.last_op() <= 400 + 400 / 8 + 2,
                "seed {seed}: events (incl. implicit resumes) overrun the run"
            );
        }
    }

    #[test]
    fn stall_expands_into_an_implicit_resume() {
        let s = FaultSchedule::new(vec![TimedFault {
            at_op: 10,
            event: FaultEvent::Stall {
                slot: 2,
                for_ops: 5,
            },
        }]);
        assert_eq!(s.events.len(), 2);
        assert_eq!(
            s.events[1],
            TimedFault {
                at_op: 15,
                event: FaultEvent::Resume { slot: 2 },
            }
        );
    }

    #[test]
    fn campaign_applies_events_at_exact_op_thresholds() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let schedule = FaultSchedule::new(vec![
            TimedFault {
                at_op: 3,
                event: FaultEvent::Crash { replica: 2 },
            },
            TimedFault {
                at_op: 6,
                event: FaultEvent::Restart {
                    replica: 2,
                    wipe: true,
                },
            },
        ]);
        let campaign = Campaign::new(Arc::clone(&cluster), schedule, 1);
        for i in 1..=8u64 {
            campaign.before_op(0);
            campaign.after_op();
            match i {
                1..=2 => assert!(cluster.crashed().is_empty()),
                3..=5 => assert_eq!(cluster.crashed(), vec![2]),
                _ => assert!(cluster.crashed().is_empty()),
            }
        }
        assert!(campaign.fully_applied());
        let applied = campaign.applied();
        assert_eq!(applied.len(), 2);
        assert_eq!((applied[0].index, applied[0].at_op), (0, 3));
        assert_eq!((applied[1].index, applied[1].at_op), (1, 6));
        assert_eq!(cluster.replica(2).wipes(), 1);
        assert!(
            campaign.repair_time() > Duration::ZERO,
            "the wipe restart's resync sweep was timed as recovery work"
        );
    }

    #[test]
    fn stall_parks_the_slot_until_a_peer_resumes_it() {
        use std::sync::atomic::AtomicBool;
        let cluster = Cluster::new(ClusterConfig::new(1));
        let schedule = FaultSchedule::new(vec![TimedFault {
            at_op: 1,
            event: FaultEvent::Stall {
                slot: 0,
                for_ops: 2,
            },
        }]);
        let campaign = Campaign::new(Arc::clone(&cluster), schedule, 2);
        let parked_passed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Slot 0: first op fires the stall, second op parks.
                campaign.before_op(0);
                campaign.after_op(); // op 1 -> stall armed
                campaign.before_op(0); // parks here
                parked_passed.store(true, Ordering::SeqCst);
                campaign.after_op();
            });
            // Slot 1 keeps completing ops; its second completion
            // crosses the resume threshold (1 + 2 = 3). Wait for the
            // stall itself, not the op count: `after_op` counts op 1
            // before it arms the stall, and a failed assert here would
            // leave the scope joining a parked thread forever.
            while !campaign.stalled_slots().contains(&0) {
                std::thread::yield_now();
            }
            assert_eq!(campaign.ops_completed(), 1);
            campaign.before_op(1);
            campaign.after_op(); // op 2
            assert!(!parked_passed.load(Ordering::SeqCst), "still parked");
            campaign.before_op(1);
            campaign.after_op(); // op 3 -> resume fires
        });
        assert!(parked_passed.load(Ordering::SeqCst));
        assert!(campaign.stalled_slots().is_empty());
        assert!(campaign.fully_applied());
    }
}
