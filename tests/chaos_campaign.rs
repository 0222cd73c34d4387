//! Crash-stop chaos, end to end.
//!
//! The fault-campaign engine (`ts-workloads::faults`) drives seeded
//! crash/restart/partition/stall schedules *through* the workload
//! engine while real clients run the ABD protocol with deadlines and
//! backoff. These tests pin the acceptance properties of the chaos
//! work as a whole:
//!
//! - a random availability-preserving campaign over a live storm
//!   completes every op, applies every scheduled event, and leaves the
//!   cluster healed with crash/restart books balanced;
//! - crashing a replica *in the middle* of an `abd_write` (from inside
//!   the network step hook, after phase 2 has started) still lands the
//!   write on a quorum, and the healed replica resyncs to it;
//! - an explicit crash → wiped-restart schedule mid-workload rebuilds
//!   the wiped replica from the live majority (readers never regress);
//! - single-threaded campaign runs replay bit-identically per seed —
//!   op counts, the applied-event log, and every cluster counter;
//! - random `FaultSchedule`s are a pure function of `(seed, shape)`
//!   (proptest) and never take down more than `f` replicas;
//! - a worker parked while *holding* an FCFS lock ticket (the ROADMAP
//!   failure-injection scenario) blocks later tickets only until
//!   resume, after which waiters acquire in ticket order with sojourn
//!   bounded by their waiting-room position.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use timestamp_suite::ts_apps::FcfsLock;
use timestamp_suite::ts_core::{StepGate, WorkloadTarget};
use timestamp_suite::ts_replica::{
    Cluster, ClusterConfig, Message, MsgKind, ReplicatedCollectMax, RestartMode,
};
use timestamp_suite::ts_workloads::{
    run_scenario_with, Arrival, Campaign, CampaignShape, EngineOptions, FaultEvent, FaultSchedule,
    OpMix, RunConfig, Scenario, TimedFault,
};

fn closed_loop(name: &'static str) -> Scenario {
    Scenario {
        name,
        arrival: Arrival::ClosedLoop,
        mix: OpMix::uniform(),
        churn: None,
    }
}

/// Snapshot of every deterministic cluster counter, for replay
/// comparisons.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    crashes: u64,
    restarts: u64,
    resynced: u64,
    timeouts: u64,
    backoffs: u64,
    degraded: u64,
    unavailable: u64,
}

impl Counters {
    fn of(cluster: &Cluster) -> Self {
        Self {
            crashes: cluster.replica_crashes(),
            restarts: cluster.replica_restarts(),
            resynced: cluster.resynced_registers(),
            timeouts: cluster.quorum_timeouts(),
            backoffs: cluster.quorum_backoff_steps(),
            degraded: cluster.quorum_degraded(),
            unavailable: cluster.quorum_unavailable(),
        }
    }
}

/// A random availability-preserving campaign over a three-worker storm
/// on the replicated collect-max: every op completes (nonzero
/// throughput under crashes is the headline acceptance property),
/// every event fires, and the run ends healed with books balanced.
#[test]
fn random_campaign_storm_completes_every_op_and_heals() {
    const THREADS: usize = 3;
    const OPS: u64 = 400;
    let shape = CampaignShape {
        f: 1,
        threads: THREADS,
        total_ops: THREADS as u64 * OPS,
        events: 6,
    };
    let schedule = FaultSchedule::random(0xD15EA5E, &shape);
    assert!(
        !schedule.events.is_empty(),
        "shape should yield at least one event"
    );
    let target = ReplicatedCollectMax::new(THREADS, 1, "chaos_storm");
    let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, THREADS);
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: OPS,
        seed: 7,
    };
    let opts = EngineOptions {
        campaign: Some(Arc::clone(&campaign)),
        watchdog: Some(Duration::from_secs(30)),
    };
    let report = run_scenario_with(&target, &closed_loop("chaos_storm"), &cfg, &opts);

    assert_eq!(report.counts.total(), THREADS as u64 * OPS);
    assert!(report.throughput_ops_per_sec > 0.0);
    assert!(campaign.fully_applied(), "events left unapplied");
    assert_eq!(campaign.applied().len(), campaign.schedule().events.len());
    let cluster = target.cluster();
    // The generator repairs everything before the run ends.
    assert!(cluster.crashed().is_empty(), "campaign left a crash");
    assert!(
        cluster.router().isolated().is_empty(),
        "campaign left a partition"
    );
    assert_eq!(cluster.replica_crashes(), cluster.replica_restarts());
    // Faults surface in the service stats the grid records.
    let stats = target
        .service_stats()
        .expect("replicated target reports stats");
    assert_eq!(stats.quorum_degraded, cluster.quorum_degraded());
    assert_eq!(stats.quorum_timeouts, cluster.quorum_timeouts());
}

/// Crash a replica from *inside* the network step hook, triggered by
/// the first phase-2 `Write` request of an `abd_write`. The client
/// widens past the dead replica, the write still reaches a full
/// quorum of live replicas, and the healed replica resyncs to the
/// written stamp — readers never observe a regression.
#[test]
fn crash_mid_abd_write_lands_on_a_quorum_and_resyncs_on_heal() {
    let cluster = Cluster::new(ClusterConfig::new(1));
    let n = cluster.replicas() as u32;
    let reg = cluster.alloc_register(0);
    let fired = Arc::new(AtomicBool::new(false));
    let hook_cluster = Arc::clone(&cluster);
    let hook_fired = Arc::clone(&fired);
    cluster
        .router()
        .set_step_hook(Some(Box::new(move |msg: &Message| {
            // First phase-2 install request: kill a replica that has NOT
            // yet seen the write, mid-protocol.
            if msg.kind == MsgKind::Write
                && msg.to < Message::CLIENT_BASE
                && !hook_fired.swap(true, Ordering::SeqCst)
            {
                hook_cluster.crash((msg.to + 1) % n);
            }
        })));

    let stamp = cluster.abd_write(reg, 42);
    cluster.router().set_step_hook(None);
    assert!(fired.load(Ordering::SeqCst), "write phase never started");

    let crashed = cluster.crashed();
    assert_eq!(crashed.len(), 1, "exactly one mid-write crash");
    let victim = crashed[0];
    // The write is durable on every live replica (need = f + 1 = 2,
    // and exactly 2 are live).
    let holders = (0..n)
        .filter(|&id| !crashed.contains(&id))
        .filter(|&id| cluster.replica(id as usize).stored(reg) == (stamp, 42))
        .count();
    assert_eq!(holders, 2, "write must be durable on the live quorum");
    // Widening past the dead replica is the degraded path.
    assert!(cluster.quorum_degraded() >= 1);

    // Reads during the outage and after heal never regress.
    let (s1, w1) = cluster.abd_read(reg);
    assert!(s1 >= stamp);
    assert_eq!(w1, 42);
    cluster.restart(victim, RestartMode::Retain);
    let (rs, rw) = cluster.replica(victim as usize).stored(reg);
    assert!(rs >= stamp, "resync must catch the healed replica up");
    assert_eq!(rw, 42);
    let (s2, w2) = cluster.abd_read(reg);
    assert!(s2 >= s1);
    assert_eq!(w2, 42);
    assert!(cluster.resynced_registers() >= 1);
}

/// Explicit crash → wiped-restart schedule driven mid-workload by the
/// campaign engine: the wiped replica rebuilds its registers from the
/// live majority and the post-run scan sees a healed, convergent
/// cluster.
#[test]
fn wiped_restart_mid_workload_rebuilds_from_the_live_majority() {
    const THREADS: usize = 2;
    const OPS: u64 = 200;
    let schedule = FaultSchedule::new(vec![
        TimedFault {
            at_op: 40,
            event: FaultEvent::Crash { replica: 2 },
        },
        TimedFault {
            at_op: 240,
            event: FaultEvent::Restart {
                replica: 2,
                wipe: true,
            },
        },
    ]);
    let target = ReplicatedCollectMax::new(THREADS, 1, "chaos_wipe");
    let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, THREADS);
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: OPS,
        seed: 11,
    };
    let opts = EngineOptions {
        campaign: Some(Arc::clone(&campaign)),
        watchdog: Some(Duration::from_secs(30)),
    };
    let report = run_scenario_with(&target, &closed_loop("chaos_wipe"), &cfg, &opts);

    assert_eq!(report.counts.total(), THREADS as u64 * OPS);
    assert!(campaign.fully_applied());
    let cluster = target.cluster();
    assert!(cluster.crashed().is_empty());
    assert_eq!(cluster.replica(2).wipes(), 1);
    assert!(
        cluster.resynced_registers() >= 1,
        "wiped rejoin must repair at least one register"
    );
    // At quiescence every stamp the healed replica holds came from a
    // completed (quorum-acked) write or from resync, so a protocol
    // read — whose quorum intersects every write quorum — must see at
    // least it: readers never regress behind the rejoined replica.
    for reg in 0..cluster.registers() {
        let healed = cluster.replica(2).stored(reg);
        let (rs, _) = cluster.abd_read(reg);
        assert!(
            rs >= healed.0,
            "register {reg}: read {rs:?} behind healed replica {healed:?}"
        );
    }
}

/// The determinism seam: a single-threaded campaign run is a pure
/// function of `(schedule seed, run seed)` — op counts, the
/// applied-event log (exact op thresholds), and every cluster counter
/// replay bit-identically across two fresh universes.
#[test]
fn single_threaded_campaign_runs_replay_bit_identically() {
    fn run_once() -> (u64, Vec<(usize, u64)>, Counters) {
        const OPS: u64 = 300;
        let shape = CampaignShape {
            f: 1,
            threads: 1,
            total_ops: OPS,
            events: 5,
        };
        let schedule = FaultSchedule::random(0xFACADE, &shape);
        let target = ReplicatedCollectMax::new(1, 1, "chaos_replay");
        let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, 1);
        let cfg = RunConfig {
            threads: 1,
            ops_per_thread: OPS,
            seed: 3,
        };
        let opts = EngineOptions {
            campaign: Some(Arc::clone(&campaign)),
            watchdog: Some(Duration::from_secs(30)),
        };
        let report = run_scenario_with(&target, &closed_loop("chaos_replay"), &cfg, &opts);
        let applied = campaign
            .applied()
            .into_iter()
            .map(|a| (a.index, a.at_op))
            .collect();
        (
            report.counts.total(),
            applied,
            Counters::of(target.cluster()),
        )
    }

    let (total_a, applied_a, counters_a) = run_once();
    let (total_b, applied_b, counters_b) = run_once();
    assert_eq!(total_a, total_b);
    assert_eq!(applied_a, applied_b, "applied-event logs diverged");
    assert_eq!(counters_a, counters_b, "cluster counters diverged");
}

/// The ROADMAP failure-injection scenario: a worker parked (via
/// `StepGate`) while holding an FCFS lock ticket. Later tickets block
/// behind it — FCFS means no overtaking — but once the holder resumes,
/// every waiter acquires in ticket order and each waiter's sojourn is
/// bounded by its waiting-room position (the `k`-th ticket sees
/// exactly `k` earlier handovers, never more).
#[test]
fn parked_fcfs_ticket_holder_bounds_waiter_sojourn_after_resume() {
    let lock = FcfsLock::new(3);
    let gate = StepGate::new();
    let holder_in = AtomicBool::new(false);
    let waiting = [AtomicBool::new(false), AtomicBool::new(false)];
    let handovers = AtomicUsize::new(0);
    let order: std::sync::Mutex<Vec<(usize, usize)>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|s| {
        // Slot 0: acquire, announce, park on the gate *inside* the
        // critical section (the campaign's Stall analogue).
        s.spawn(|| {
            let guard = lock.lock(0);
            holder_in.store(true, Ordering::SeqCst);
            gate.pause();
            handovers.fetch_add(1, Ordering::SeqCst);
            drop(guard);
        });
        while !holder_in.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Slots 1 then 2 enter the doorway in order; each confirms the
        // previous one holds a ticket before the next enters, fixing
        // the FCFS order deterministically.
        for pid in [1usize, 2] {
            let waiting = &waiting[pid - 1];
            let order = &order;
            let handovers = &handovers;
            let lock = &lock;
            s.spawn(move || {
                waiting.store(true, Ordering::SeqCst);
                let guard = lock.lock(pid);
                let seen = handovers.load(Ordering::SeqCst);
                order.lock().unwrap().push((pid, seen));
                handovers.fetch_add(1, Ordering::SeqCst);
                drop(guard);
            });
            while !waiting.load(Ordering::SeqCst) || lock.ticket_of(pid) == 0 {
                std::thread::yield_now();
            }
        }
        // Both waiters are ticketed behind a parked holder; neither
        // may enter while the holder is parked.
        assert!(order.lock().unwrap().is_empty(), "FCFS overtaken");
        assert_eq!(handovers.load(Ordering::SeqCst), 0);
        // Resume the holder, exactly as a campaign's Resume does.
        gate.release_all();
    });

    // After resume: ticket order, and each waiter's sojourn bounded by
    // its position (pid 1 saw exactly the holder's handover, pid 2 saw
    // the holder's and pid 1's — no extra waiting).
    let order = order.into_inner().unwrap();
    assert_eq!(order, vec![(1, 1), (2, 2)]);
}

fn availability_bound_holds(schedule: &FaultSchedule, shape: &CampaignShape) {
    let mut crashed: Vec<u32> = Vec::new();
    let mut isolated = false;
    let mut isolated_count = 0usize;
    let mut stalled: Vec<usize> = Vec::new();
    for t in &schedule.events {
        match &t.event {
            FaultEvent::Crash { replica } => crashed.push(*replica),
            FaultEvent::Restart { replica, .. } => {
                let pos = crashed
                    .iter()
                    .position(|r| r == replica)
                    .expect("restart of a live replica");
                crashed.remove(pos);
            }
            FaultEvent::Partition { replicas } => {
                assert!(!isolated, "second partition before heal");
                isolated = true;
                isolated_count = replicas.len();
            }
            FaultEvent::Heal => {
                isolated = false;
                isolated_count = 0;
            }
            FaultEvent::Stall { slot, .. } => stalled.push(*slot),
            FaultEvent::Resume { slot } => {
                let pos = stalled
                    .iter()
                    .position(|s| s == slot)
                    .expect("resume of a running slot");
                stalled.remove(pos);
            }
        }
        assert!(
            crashed.len() + isolated_count <= shape.f,
            "availability bound broken: {} crashed + {} isolated > f = {}",
            crashed.len(),
            isolated_count,
            shape.f
        );
        assert!(stalled.len() < shape.threads.max(1), "every worker stalled");
    }
    assert!(crashed.is_empty(), "campaign ends with a crash standing");
    assert!(!isolated, "campaign ends partitioned");
    assert!(stalled.is_empty(), "campaign ends with a stall standing");
}

proptest! {
    /// Random schedules are a pure function of `(seed, shape)`, stay
    /// within the availability envelope, and always end healed.
    #[test]
    fn random_fault_schedules_replay_bit_identically_per_seed(
        seed in any::<u64>(),
        f in 1usize..3,
        threads in 1usize..5,
        events in 0usize..10,
    ) {
        // The vendored proptest caps tuple strategies at four; derive
        // the op span from the seed instead of a fifth range.
        let total_ops = 50 + seed % 1450;
        let shape = CampaignShape { f, threads, total_ops, events };
        let a = FaultSchedule::random(seed, &shape);
        let b = FaultSchedule::random(seed, &shape);
        prop_assert_eq!(&a, &b, "schedule not deterministic per seed");
        availability_bound_holds(&a, &shape);
        // Thresholds are sorted (total application order).
        for w in a.events.windows(2) {
            prop_assert!(w[0].at_op <= w[1].at_op);
        }
    }
}
