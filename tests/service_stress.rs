//! Concurrency stress for the `ts-service` layer.
//!
//! Three hammers, each aimed at a different uniqueness argument, plus
//! two checks of the slot lease:
//!
//! - **Batch reservations**: N threads issue mixed-size batches on both
//!   register backends; every stamp ever issued must be globally unique
//!   and every batch internally consecutive — one CAS reserving `k`
//!   stamps must never overlap another reservation.
//! - **Single issues**: N threads issue one stamp per call on one and
//!   two shards; a reservation handed out twice would surface as a
//!   duplicate, and a lost one as a stamp-count mismatch.
//! - **Vpid multiplexing**: the workload engine drives `M = 64` client
//!   sessions over `n = 8` physical slots through the churn scenario;
//!   the per-worker monotonicity asserts inside the engine check the
//!   timestamp property while sessions outnumber registers 8:1.
//! - **Lease hand-off**: 8 sessions share 2 slots while an observer
//!   polls the published maximum; a holder that missed its
//!   predecessor's register writes could regress a slot's pair.
//! - **Counts across hand-offs**: 8 sessions on 4 threads share 2
//!   slots while an observer collects; the per-slot counts and the
//!   register traffic they rebuild stay exact.
//! - **Slot affinity**: uncrowded sessions keep the slot they leased.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use timestamp_suite::ts_core::{EpochBackend, PackedBackend, RegisterBackend, ShardedTimestamp};
use timestamp_suite::ts_register;
use timestamp_suite::ts_service::{IssueMode, ServiceConfig, ShardedCollectMax};
use timestamp_suite::ts_workloads::ServiceTarget;
use timestamp_suite::ts_workloads::{run_scenario, Arrival, Churn, OpMix, RunConfig, Scenario};

const THREADS: usize = 8;

/// Collects every stamp issued by `per_thread` calls from each of
/// `THREADS` threads, as `(shard, word)` keys (shard-qualified words
/// are unique iff stamps are).
fn hammer<B, F>(service: &ShardedCollectMax<B>, per_thread: usize, issue: F) -> HashSet<(u32, u64)>
where
    B: RegisterBackend<u64>,
    F: Fn(&mut timestamp_suite::ts_service::ClientSession<'_, B>, usize) -> Vec<ShardedTimestamp>
        + Sync,
{
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut session = service.session();
                    let mut seen = Vec::new();
                    barrier.wait();
                    for i in 0..per_thread {
                        seen.extend(issue(&mut session, i));
                    }
                    seen
                })
            })
            .collect();
        let mut all = HashSet::new();
        let mut count = 0usize;
        for h in handles {
            for t in h.join().expect("stress thread panicked") {
                count += 1;
                assert!(
                    all.insert((t.shard, t.word())),
                    "duplicate stamp issued: {t}"
                );
            }
        }
        assert_eq!(all.len(), count);
        all
    })
}

fn batch_stress<B: RegisterBackend<u64>>(shards: usize) {
    let service: ShardedCollectMax<B> =
        ShardedCollectMax::with_backend(ServiceConfig::new(shards, THREADS.div_ceil(shards)));
    let per_thread = 150;
    let all = hammer(&service, per_thread, |session, i| {
        // Mixed batch sizes 1..=16, cycling differently per call.
        let k = (i % 16) as u32 + 1;
        let batch = session.get_ts_batch(k);
        assert_eq!(batch.remaining() as u32, k);
        let stamps: Vec<ShardedTimestamp> = batch.collect();
        // Consecutive within the batch: same shard and epoch, locals
        // stepping by exactly one (reservations never span an epoch).
        for pair in stamps.windows(2) {
            assert_eq!(pair[0].shard, pair[1].shard);
            assert_eq!(pair[0].epoch, pair[1].epoch, "batch spanned an epoch");
            assert_eq!(pair[0].local + 1, pair[1].local, "batch not consecutive");
        }
        stamps
    });
    let stats = service.stats();
    assert_eq!(
        stats.stamps,
        all.len() as u64,
        "stats disagree with issue count"
    );
    assert_eq!(stats.calls, (THREADS * per_thread) as u64);
    assert_eq!(stats.shard_stamps.len(), shards);
    assert_eq!(stats.shard_stamps.iter().sum::<u64>(), stats.stamps);
}

#[test]
fn batches_are_unique_and_consecutive_packed() {
    batch_stress::<PackedBackend>(1);
    batch_stress::<PackedBackend>(4);
    ts_register::reclaim::flush();
}

#[test]
fn batches_are_unique_and_consecutive_epoch() {
    batch_stress::<EpochBackend>(1);
    batch_stress::<EpochBackend>(4);
    ts_register::reclaim::flush();
}

/// Batches stay unique while the shard is driven across an epoch
/// boundary mid-stress (the `advance` jump path under contention).
#[test]
fn batches_survive_epoch_rollover_under_contention() {
    let service = ShardedCollectMax::new(ServiceConfig::new(1, THREADS));
    // Park the shard close to `local` exhaustion so the stress crosses
    // the epoch bump almost immediately.
    service.raise_shard_floor(0, ShardedTimestamp::new(0, u32::MAX - 500, 0));
    let all = hammer(&service, 100, |session, i| {
        session.get_ts_batch((i % 8) as u32 + 1).collect()
    });
    assert!(
        all.iter().any(|&(_, word)| word >> 32 >= 1),
        "stress never reached the next epoch"
    );
    assert_eq!(service.stats().stamps, all.len() as u64);
}

#[test]
fn single_issues_each_request_exactly_once() {
    for shards in [1usize, 2] {
        let service = ShardedCollectMax::new(ServiceConfig::new(shards, THREADS));
        let per_thread = 300;
        let all = hammer(&service, per_thread, |session, _| vec![session.get_ts()]);
        assert_eq!(all.len(), THREADS * per_thread);
        assert_eq!(service.stats().stamps, (THREADS * per_thread) as u64);
    }
}

/// The acceptance configuration: M = 64 client sessions multiplexed
/// over n = 8 physical slots (2 shards × 4 slots), driven by the
/// workload engine's churn scenario. The engine's workers assert
/// per-session monotonicity on every issued stamp; this test adds the
/// space-side claims.
#[test]
fn sixty_four_clients_multiplex_over_eight_slots() {
    let target = ServiceTarget::new("sharded_mux", ServiceConfig::new(2, 4), IssueMode::Single);
    let scenario = Scenario {
        name: "mux_churn",
        arrival: Arrival::ClosedLoop,
        mix: OpMix::get_ts_only(),
        churn: Some(Churn { ops_per_life: 100 }),
    };
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: 800,
        seed: 0x64,
    };
    let report = run_scenario(&target, &scenario, &cfg);
    assert_eq!(report.lives, 64, "8 threads x 8 lives = 64 sessions");
    assert_eq!(target.service().sessions(), 64);
    assert_eq!(
        target.service().registers(),
        16,
        "8 slots (x2-register pairs) regardless of client count"
    );
    let stats = target.service().stats();
    assert_eq!(stats.stamps, 8 * 800);
    assert_eq!(
        stats.shard_stamps.iter().sum::<u64>(),
        stats.stamps,
        "every stamp is accounted to a shard"
    );
}

/// A slot changes hands under contention and each new holder's publish
/// reads, compares and writes the pair its predecessor left: the lease
/// hand-off must make those writes visible, or the published maximum
/// could go backwards. Every request is still issued exactly once.
#[test]
fn lease_hand_off_keeps_the_published_max_monotone() {
    let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
    let per_thread = 2_000;
    let stop = AtomicBool::new(false);
    let polls = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let (mut prev, mut polls) = (None, 0u64);
            while !stop.load(Ordering::Acquire) {
                let now = service.read_max();
                assert!(now >= prev, "published max fell: {prev:?} -> {now:?}");
                prev = now;
                polls += 1;
            }
            polls
        });
        let all = hammer(&service, per_thread, |session, _| vec![session.get_ts()]);
        stop.store(true, Ordering::Release);
        assert_eq!(all.len(), THREADS * per_thread);
        observer.join().expect("observer panicked")
    });
    assert!(polls > 0, "observer never polled");
    let stats = service.stats();
    assert_eq!(stats.stamps, (THREADS * per_thread) as u64);
    assert_eq!(stats.calls, (THREADS * per_thread) as u64);
}

/// A slot's counter row is written by whoever holds the slot's lease,
/// so its counts pass from holder to holder with the lease. 4 threads
/// drive 8 sessions over 2 slots, until slots have changed hands with
/// a caller waiting for a lease, while an observer collects; every
/// count stays exact.
#[test]
fn counts_stay_exact_across_lease_hand_offs() {
    const ISSUERS: usize = 4;
    const SESSIONS_PER_ISSUER: usize = 2;
    /// Calls between checks for a lease wait; every fourth is a batch.
    const CHUNK: u64 = 1_000;
    /// Gives up on seeing a lease wait after this many calls per thread.
    const MAX_CALLS: u64 = 2_000_000;
    let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
    let slots = service.config().slots_per_shard as u64;
    let stop = AtomicBool::new(false);
    let collects = AtomicU64::new(0);
    let barrier = Barrier::new(ISSUERS);
    let (calls, stamps) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                service.read_max();
                collects.fetch_add(1, Ordering::Relaxed);
            }
        });
        let issuers: Vec<_> = (0..ISSUERS)
            .map(|_| {
                s.spawn(|| {
                    let mut sessions: Vec<_> = (0..SESSIONS_PER_ISSUER)
                        .map(|_| service.session())
                        .collect();
                    let (mut calls, mut stamps) = (0u64, 0u64);
                    barrier.wait();
                    let settled =
                        || service.stats().lease_waits > 0 && collects.load(Ordering::Relaxed) > 0;
                    while calls == 0 || (calls < MAX_CALLS && !settled()) {
                        for i in 0..CHUNK {
                            let session = &mut sessions[i as usize % SESSIONS_PER_ISSUER];
                            stamps += if i % 4 == 3 {
                                session.get_ts_batch(16).count() as u64
                            } else {
                                session.get_ts();
                                1
                            };
                        }
                        calls += CHUNK;
                    }
                    (calls, stamps)
                })
            })
            .collect();
        let (calls, stamps) = issuers
            .into_iter()
            .map(|d| d.join().expect("issuer panicked"))
            .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds));
        stop.store(true, Ordering::Release);
        (calls, stamps)
    });
    let collects = collects.into_inner();
    let stats = service.stats();
    assert!(stats.lease_waits > 0, "no caller ever waited for a lease");
    assert!(collects > 0, "the observer never collected");
    assert_eq!(stats.calls, calls);
    assert_eq!(stats.stamps, stamps);
    assert_eq!(stats.batched_stamps, calls / 4 * 16);
    // Meter indexes: `slot` for a local register, `slots + slot` for its
    // epoch partner. Every call writes its slot's local register once
    // (no floor is raised, so the epoch stays 0), and every call and
    // every collect reads each epoch register it visits once.
    let meter = service.meter_snapshot(0);
    let (local, epoch) = meter.writes.split_at(slots as usize);
    assert_eq!(local.iter().sum::<u64>(), calls);
    assert_eq!(epoch.iter().sum::<u64>(), 0);
    let epoch_reads: u64 = meter.reads[slots as usize..].iter().sum();
    assert_eq!(epoch_reads, calls + slots * collects);
}

/// Two sessions on one shard of two slots keep one slot each: session
/// `i` starts on slot `i` and, uncrowded, is never moved off it.
#[test]
fn alternating_sessions_keep_their_own_slots() {
    let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
    let mut a = service.session();
    let mut b = service.session();
    for _ in 0..10 {
        a.get_ts();
        b.get_ts();
    }
    // Meter indexes: `slot` for a local register, `2 + slot` for its
    // epoch partner. Every publish reads the epoch, then (same epoch)
    // the local, and writes only the local.
    let snapshot = service.meter_snapshot(0);
    assert_eq!(snapshot.writes, [10, 10, 0, 0]);
    assert_eq!(snapshot.reads, [10, 10, 10, 10]);
    assert_eq!(service.stats().lease_waits, 0);
}
