//! Ladder rows: one public call of one layer timed in isolation, with
//! the shapes the workloads use. They run only in traced runs.
//!
//! Each row times batches of calls (or single calls, where one call is
//! long against the timer) for a fixed budget and reports the median.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ts_core::{CollectMax, LongLivedTimestamp};
use ts_register::{EpochBackend, PackedBackend, RegisterArray, RegisterBackend};
use ts_replica::{Cluster, ClusterConfig};
use ts_snapshot::adaptive_scan;

use crate::util::{median, pin_to_cpu};
use crate::workloads::{fault_plan, PROCESSES};

/// Calls per timed batch for the nanosecond-scale rows.
const BATCH: u32 = 256;

/// Registers of the scan row: the one-shot object's array size.
const SCAN_REGISTERS: usize = 16;

/// All ladder rows as `(metric, value)`, plus the calls that failed.
pub fn run(seed: u64, budget: Duration) -> (Vec<(&'static str, f64)>, u64) {
    let mut rows = vec![("driver.timer_ns", timer_pair(budget))];
    let (w, r) = register_pair::<PackedBackend>(budget);
    rows.push(("register.write_ns", w));
    rows.push(("register.read_ns", r));
    let (w, _) = register_pair::<EpochBackend>(budget);
    rows.push(("register.epoch_write_ns", w));
    let (scan_ns, recollects) = scan_under_writes(budget);
    rows.push(("snapshot.scan_ns", scan_ns));
    rows.push(("snapshot.recollects_per_scan", recollects));
    rows.push(("core.collect_max.solo_get_ts_ns", solo_get_ts(budget)));
    let mut failed = 0;
    let (w, r, f) = abd(seed, 2, budget);
    failed += f;
    rows.push(("replica.abd_write_ns", w));
    rows.push(("replica.abd_read_ns", r));
    let (w, _, f) = abd(seed, 1, budget);
    failed += f;
    rows.push(("replica.abd_write_solo_ns", w));
    (rows, failed)
}

/// Nanoseconds per pair of `Instant::now()` reads.
fn timer_pair(budget: Duration) -> f64 {
    let mut per = Vec::new();
    let until = Instant::now() + budget;
    while Instant::now() < until {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(Instant::now());
            black_box(Instant::now());
        }
        per.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    median(&per)
}

/// Two threads on a padded 64-register array: each writes its own index
/// and reads its peer's, in alternating timed batches.
fn register_pair<B: RegisterBackend<u64>>(budget: Duration) -> (f64, f64) {
    let array: RegisterArray<u64, B> = RegisterArray::with_backend(PROCESSES, 0);
    let per: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|me| {
                let array = &array;
                s.spawn(move || {
                    pin_to_cpu(me);
                    let (mut writes, mut reads) = (Vec::new(), Vec::new());
                    let until = Instant::now() + budget;
                    let mut v = 0u64;
                    while Instant::now() < until {
                        let t = Instant::now();
                        for _ in 0..BATCH {
                            v += 1;
                            array.write(me, v).expect("index in range");
                        }
                        writes.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
                        let t = Instant::now();
                        for _ in 0..BATCH {
                            black_box(array.read(1 - me).expect("index in range"));
                        }
                        reads.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
                    }
                    (writes, reads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread"))
            .collect()
    });
    let writes: Vec<f64> = per.iter().flat_map(|(w, _)| w.iter().copied()).collect();
    let reads: Vec<f64> = per.iter().flat_map(|(_, r)| r.iter().copied()).collect();
    (median(&writes), median(&reads))
}

/// `adaptive_scan` of a 16-register epoch array while another thread
/// writes: median nanoseconds per scan and mean recollect passes.
fn scan_under_writes(budget: Duration) -> (f64, f64) {
    let array: RegisterArray<u64> = RegisterArray::new(SCAN_REGISTERS, 0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_to_cpu(1);
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                array
                    .write((v as usize) % SCAN_REGISTERS, v)
                    .expect("index in range");
            }
        });
        let scanner = s.spawn(|| {
            pin_to_cpu(0);
            let (mut per, mut passes, mut scans) = (Vec::new(), 0u64, 0u64);
            let until = Instant::now() + budget;
            while Instant::now() < until {
                let t = Instant::now();
                let (view, outcome) = adaptive_scan(&array);
                per.push(t.elapsed().as_nanos() as f64);
                black_box(view);
                passes += outcome.recollect_passes;
                scans += 1;
            }
            stop.store(true, Ordering::Relaxed);
            (median(&per), passes as f64 / scans.max(1) as f64)
        });
        scanner.join().expect("ladder thread")
    })
}

/// One thread calling `CollectMax::get_ts` on a 64-process object: the
/// uncontended path length.
fn solo_get_ts(budget: Duration) -> f64 {
    let obj = CollectMax::new(PROCESSES);
    let mut per = Vec::new();
    let until = Instant::now() + budget;
    while Instant::now() < until {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(obj.get_ts(0).expect("pid in range"));
        }
        per.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    median(&per)
}

/// ABD writes and reads on the `replicated_faults` plan from `clients`
/// threads, each writing its own register and reading a peer's: median
/// nanoseconds per write and per read, and the calls that failed.
fn abd(seed: u64, clients: usize, budget: Duration) -> (f64, f64, u64) {
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(fault_plan(seed, u64::MAX)));
    let regs: Vec<u32> = (0..clients).map(|_| cluster.alloc_register(0)).collect();
    let failed = AtomicU64::new(0);
    let per: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|me| {
                let (cluster, regs, failed) = (&cluster, &regs, &failed);
                s.spawn(move || {
                    pin_to_cpu(me);
                    let (mut writes, mut reads) = (Vec::new(), Vec::new());
                    let until = Instant::now() + budget;
                    let mut v = 0u64;
                    while Instant::now() < until {
                        v += 1;
                        let t = Instant::now();
                        let w = cluster.try_abd_write(regs[me], v);
                        writes.push(t.elapsed().as_nanos() as f64);
                        let t = Instant::now();
                        let r = cluster.try_abd_read(regs[(me + 1) % clients]);
                        reads.push(t.elapsed().as_nanos() as f64);
                        if w.is_err() || r.is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (writes, reads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread"))
            .collect()
    });
    let writes: Vec<f64> = per.iter().flat_map(|(w, _)| w.iter().copied()).collect();
    let reads: Vec<f64> = per.iter().flat_map(|(_, r)| r.iter().copied()).collect();
    (
        median(&writes),
        median(&reads),
        failed.load(Ordering::Relaxed),
    )
}
