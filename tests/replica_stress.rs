//! Multi-threaded storms over the quorum-replicated backend under
//! partition/heal churn.
//!
//! Every replica's monotonic-register invariant is an *armed* runtime
//! assert (not a debug assert), so these storms double as invariant
//! fuzzers: any handler that regressed a stored stamp would abort the
//! whole test process. The specific regression pinned here is the
//! killed-and-healed minority: a replica isolated across acknowledged
//! writes and then reconnected must never cause a stale read, because
//! every read quorum still intersects every write quorum and reads
//! take the maximum.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use timestamp_suite::ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
use timestamp_suite::ts_replica::{
    with_cluster, Cluster, ClusterConfig, FaultPlan, Message, QuorumBackend, WriteStamp,
};

/// Rotates single-replica partitions (always a minority for f >= 1)
/// until `done` flips, healing between victims.
fn churn_partitions(cluster: &Cluster, done: &AtomicBool) {
    let n = cluster.replicas();
    let mut victim = 0u32;
    while !done.load(Ordering::Relaxed) {
        cluster.router().partition(&[victim]);
        for _ in 0..50 {
            if done.load(Ordering::Relaxed) {
                break;
            }
            std::thread::yield_now();
        }
        cluster.router().heal();
        victim = (victim + 1) % n as u32;
        std::thread::yield_now();
    }
    cluster.router().heal();
}

/// Writer/reader storm on the replicated collect-max object while a
/// churn thread partitions and heals one replica at a time. Each
/// worker checks its own timestamps strictly increase; the armed
/// replica invariant checks no stored stamp ever regresses.
#[test]
fn collect_max_storm_survives_partition_heal_churn() {
    const THREADS: usize = 4;
    const OPS: usize = 300;
    let plan = FaultPlan {
        seed: 0xc0ffee,
        delay_max: 2,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let ts = with_cluster(&cluster, || {
        CollectMax::<QuorumBackend>::with_backend(THREADS)
    });
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| churn_partitions(&cluster, &done));
        let handles: Vec<_> = (0..THREADS)
            .map(|pid| {
                let ts = &ts;
                s.spawn(move || {
                    let mut prev: Option<Timestamp> = None;
                    for _ in 0..OPS {
                        let t = ts.get_ts(pid).expect("pid in range");
                        if let Some(p) = prev {
                            assert!(
                                Timestamp::compare(&p, &t),
                                "p{pid}: timestamps regressed under churn: {p} !< {t}"
                            );
                        }
                        prev = Some(t);
                    }
                    prev.expect("ran ops")
                })
            })
            .collect();
        let finals: Vec<Timestamp> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        // Every op went somewhere: the global maximum covers at least
        // the longest per-thread chain.
        let max = finals.iter().map(|t| t.rnd).max().unwrap();
        assert!(max >= OPS as u64, "global max {max} < per-thread op count");
    });

    assert!(
        cluster.quorum_rounds() > 0,
        "the storm ran through the quorum protocol"
    );
}

/// The stale-read regression: a minority replica is isolated, writes
/// are acknowledged without it, it heals — and every subsequent read,
/// from *every* rotation window (one fresh client thread per window),
/// must return the last acknowledged write, never the healed replica's
/// stale word.
#[test]
fn killed_and_healed_minority_never_causes_a_stale_read() {
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(FaultPlan {
        seed: 7,
        ..FaultPlan::default()
    }));
    let reg = cluster.alloc_register(0);
    let n = cluster.replicas();

    for round in 1..=20u64 {
        let victim = ((round as usize) % n) as u32;
        cluster.router().partition(&[victim]);
        let stamp = cluster.abd_write(reg, round);
        // The ack really excluded the victim: it is still behind.
        assert!(
            cluster.replica(victim as usize).stored(reg).0 < stamp,
            "round {round}: the isolated replica saw the write"
        );
        cluster.router().heal();

        // One reader per rotation window (fresh threads mint fresh
        // client ids, so collectively the windows cover every replica,
        // including the stale one).
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    let (read_stamp, word) = cluster.abd_read(reg);
                    assert_eq!(word, round, "stale read after heal");
                    assert!(read_stamp >= stamp);
                });
            }
        });
    }
    assert!(
        cluster.quorum_repairs() > 0,
        "healed replicas were brought forward by read-repair"
    );
}

/// Concurrent writers and readers on one replicated register under a
/// lossy, reordering network: each reader's observed stamp sequence
/// per register must be non-decreasing (reads take quorum maxima and
/// replicas never regress), and the final word must be one of the
/// written values.
#[test]
fn concurrent_register_storm_observes_monotone_stamps() {
    const WRITERS: usize = 3;
    const READERS: usize = 3;
    const OPS: u64 = 200;
    let plan = FaultPlan {
        seed: 99,
        drop_permille: 30,
        dup_permille: 20,
        delay_max: 2,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let reg = cluster.alloc_register(0);
    let issued = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS as u64 {
            let cluster = Arc::clone(&cluster);
            let issued = &issued;
            s.spawn(move || {
                for i in 1..=OPS {
                    // Distinct words per writer; low bits tag the writer.
                    cluster.abd_write(reg, i * WRITERS as u64 + w);
                    issued.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..READERS {
            let cluster = Arc::clone(&cluster);
            s.spawn(move || {
                let mut last = None;
                loop {
                    let (stamp, _) = cluster.abd_read(reg);
                    if let Some(prev) = last {
                        assert!(stamp >= prev, "reader saw stamps regress: {stamp} < {prev}");
                    }
                    last = Some(stamp);
                    if stamp.seq as u64 >= OPS {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    let (final_stamp, final_word) = cluster.abd_read(reg);
    // Sequence numbers grow by exactly one per successful install, so
    // the final stamp counts the writes that actually advanced the
    // register; concurrent writers may overwrite each other (last
    // writer wins) but the end state must be some writer's last word.
    assert!(final_stamp.seq as u64 >= OPS);
    assert!(
        final_word >= OPS * WRITERS as u64,
        "final word {final_word} is stale"
    );
}

/// Client A's scripted program: write-then-read rounds on its own
/// register, yielding between rounds so a neighbour gets the CPU.
fn scripted_client(cluster: &Cluster, reg: u32) {
    for v in 1..=60u64 {
        cluster.abd_write(reg, v);
        assert_eq!(cluster.abd_read(reg).1, v, "read your own write");
        std::thread::yield_now();
    }
}

/// Runs client A's program on a fresh seeded lossy cluster, alone or
/// while client B hammers a different register from another thread.
/// Returns A's delivery log and the final replica states of A's
/// register.
fn client_a_run(with_neighbour: bool) -> (Vec<Message>, Vec<(WriteStamp, u64)>) {
    let plan = FaultPlan {
        seed: 0x0a11_a1de,
        drop_permille: 80,
        dup_permille: 40,
        delay_max: 3,
        reorder: true,
        record_log: true,
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let (a_reg, b_reg) = (cluster.alloc_register(0), cluster.alloc_register(0));
    let a_minted = std::sync::Barrier::new(2);
    let (done, b_ops) = (AtomicBool::new(false), AtomicU64::new(0));
    let a_client = std::thread::scope(|s| {
        if with_neighbour {
            s.spawn(|| {
                // B starts only once A holds its client id, so A's id
                // (part of every fault decision) is the same in both
                // runs.
                a_minted.wait();
                let mut v = 0;
                while !done.load(Ordering::Relaxed) {
                    v += 1;
                    cluster.abd_write(b_reg, v);
                    cluster.abd_read(b_reg);
                    b_ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let a = s.spawn(|| {
            let me = cluster.client_id();
            if with_neighbour {
                a_minted.wait();
                while b_ops.load(Ordering::Relaxed) < 10 {
                    std::thread::yield_now();
                }
            }
            let before = b_ops.load(Ordering::Relaxed);
            scripted_client(&cluster, a_reg);
            if with_neighbour {
                assert!(
                    b_ops.load(Ordering::Relaxed) > before,
                    "B kept running while A ran"
                );
            }
            me
        });
        let a_client = a.join().expect("client A");
        done.store(true, Ordering::Relaxed);
        a_client
    });
    assert_eq!(a_client, Message::CLIENT_BASE, "A is the first client");
    let finals = (0..cluster.replicas())
        .map(|r| cluster.replica(r).stored(a_reg))
        .collect();
    (cluster.router().client_delivery_log(a_client), finals)
}

/// Per-client queues and hashed fault decisions isolate clients: A's
/// whole network schedule — every message its queue delivered, in
/// order — and its register's final replica states are the same
/// whether or not another client is busy on the same cluster.
#[test]
fn a_clients_schedule_is_independent_of_other_clients() {
    let (log_alone, finals_alone) = client_a_run(false);
    let (log_shared, finals_shared) = client_a_run(true);
    assert!(!log_alone.is_empty(), "A's run sends messages");
    assert_eq!(log_alone, log_shared, "B changed A's delivery log");
    assert_eq!(finals_alone, finals_shared, "B changed A's replica states");
}

/// The per-client counter stripes sum to exact totals under
/// concurrency: every round is counted once, and every message sent is
/// accounted for as dropped, delivered, discarded or still in flight.
#[test]
fn quorum_and_network_counts_are_exact_under_concurrency() {
    const THREADS: u64 = 4;
    const OPS: u64 = 400;
    let plan = FaultPlan {
        seed: 0xc0_4e75,
        drop_permille: 60,
        dup_permille: 60,
        delay_max: 3,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    // Two registers shared by every thread, so reads see divergent
    // replicas and repair.
    let regs = [cluster.alloc_register(0), cluster.alloc_register(0)];
    let (writes, reads) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cluster, writes, reads) = (&cluster, &writes, &reads);
            s.spawn(move || {
                for i in 0..OPS {
                    let reg = regs[(i % 2) as usize];
                    if (i + t) % 3 == 0 {
                        cluster.try_abd_write(reg, t * OPS + i).expect("no faults");
                        writes.fetch_add(1, Ordering::Relaxed);
                    } else {
                        cluster.try_abd_read(reg).expect("no faults");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let (writes, reads) = (writes.into_inner(), reads.into_inner());
    assert_eq!(writes + reads, THREADS * OPS);
    assert_eq!(
        cluster.quorum_rounds(),
        2 * writes + reads + cluster.quorum_repairs(),
        "one query round per op, one install per write and per repair"
    );
    assert!(cluster.quorum_retries() > 0, "the plan forced retries");
    let net = cluster.net_stats();
    let in_flight = cluster.router().in_flight() as u64;
    assert_eq!(
        net.sent - net.dropped + net.duplicated,
        net.delivered + net.partitioned + net.crash_discarded + in_flight,
        "{net:?}, {in_flight} in flight"
    );
}
