//! `bench_contention` — substrate scaling benchmark and the repo's
//! recorded perf baseline.
//!
//! Hammers the register substrate from 1..=N threads across three
//! workloads, on both register backends:
//!
//! - **register read/write** — a 90/10 read/write mix against one shared
//!   register (`AtomicRegister<u64>` vs `PackedRegister<u64>`); this is
//!   the raw cost of the epoch machinery vs a hardware atomic.
//! - **scan** — `adaptive_scan` over an 8-register array while
//!   `threads − 1` writers interfere, epoch vs packed arrays (one
//!   register per cache line).
//! - **getTS** — `SimpleOneShot` (fresh objects, every thread takes its
//!   one-shot timestamp on each) and `CollectMax` (one long-lived
//!   object), packed default vs `EpochBackend` variants.
//!
//! Output: a markdown table (or pure JSON lines under `TS_BENCH_JSON`,
//! like every table binary), plus a machine-readable baseline written to
//! `BENCH_baseline.json` (override with `--out PATH`) so future changes
//! have a perf trajectory to compare against.
//!
//! Flags: `--threads N` caps the thread ladder (default 8), `--smoke`
//! shrinks op counts ~20x for CI smoke runs **and measures each cell
//! three times, keeping the best** (short cells are scheduler-noise
//! magnets; a code regression survives repeats, a noisy neighbour does
//! not — this is what makes the CI `perf-smoke` 0.5x gate reliable),
//! `--out PATH` relocates the baseline file (`--out -` skips writing
//! it).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use serde::Serialize;

use ts_bench::Table;
use ts_core::{
    CollectMax, EpochBackend, LongLivedTimestamp, OneShotTimestamp, PackedBackend, RegisterBackend,
    SimpleOneShot,
};
use ts_register::{AtomicRegister, PackedRegister, RegisterArray};
use ts_snapshot::adaptive_scan;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
struct BenchRow {
    bench: String,
    backend: String,
    threads: usize,
    total_ops: u64,
    ops_per_sec: f64,
}

/// The file schema of `BENCH_baseline.json`.
#[derive(Debug, Serialize)]
struct Baseline {
    schema: String,
    host_threads: usize,
    smoke: bool,
    results: Vec<BenchRow>,
}

struct Config {
    max_threads: usize,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        max_threads: 8,
        smoke: false,
        out: Some("BENCH_baseline.json".to_string()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().expect("--threads takes a value");
                cfg.max_threads = v.parse().expect("--threads takes a number");
                assert!(cfg.max_threads >= 1, "--threads must be >= 1");
            }
            "--smoke" => cfg.smoke = true,
            "--out" => {
                let v = args.next().expect("--out takes a path");
                cfg.out = if v == "-" { None } else { Some(v) };
            }
            other => panic!("unknown flag {other} (expected --threads N | --smoke | --out PATH)"),
        }
    }
    cfg
}

fn thread_ladder(max: usize) -> Vec<usize> {
    let mut ladder = vec![];
    let mut t = 1;
    while t < max {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max);
    ladder
}

fn row(bench: &str, backend: &str, threads: usize, total_ops: u64, secs: f64) -> BenchRow {
    BenchRow {
        bench: bench.to_string(),
        backend: backend.to_string(),
        threads,
        total_ops,
        ops_per_sec: total_ops as f64 / secs,
    }
}

/// 90/10 read/write mix against one shared register. `total_ops` split
/// across `threads`.
fn bench_register_rw<R>(reg: &R, threads: usize, total_ops: u64) -> f64
where
    R: ts_register::Register<u64>,
{
    let per_thread = total_ops / threads as u64;
    let start = Instant::now();
    crossbeam::scope(|s| {
        for t in 0..threads {
            let reg = &reg;
            s.spawn(move |_| {
                let mut acc = 0u64;
                for i in 0..per_thread {
                    if i % 10 == 9 {
                        reg.write(t as u64 + i);
                    } else {
                        acc = acc.wrapping_add(reg.read());
                    }
                }
                std::hint::black_box(acc);
            });
        }
    })
    .unwrap();
    start.elapsed().as_secs_f64()
}

/// One scanner performing `scans` double collects while `threads - 1`
/// writers hammer the array.
fn bench_scan<B: RegisterBackend<u64>>(threads: usize, scans: u64) -> f64 {
    let array: RegisterArray<u64, B> = RegisterArray::with_backend(8, 0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    crossbeam::scope(|s| {
        for w in 0..threads.saturating_sub(1) {
            let array = &array;
            let stop = &stop;
            s.spawn(move |_| {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    array.write(w % 8, i % 1000).expect("index in range");
                    i += 1;
                }
            });
        }
        let array = &array;
        let stop = &stop;
        s.spawn(move |_| {
            for _ in 0..scans {
                std::hint::black_box(adaptive_scan(array).0);
            }
            stop.store(true, Ordering::Relaxed);
        });
    })
    .unwrap();
    start.elapsed().as_secs_f64()
}

/// Every thread takes its one-shot timestamp on each of `objects`
/// pre-created `SimpleOneShot(threads)` objects.
fn bench_simple_oneshot<B: RegisterBackend<u64>>(threads: usize, objects: usize) -> (u64, f64) {
    let pool: Vec<SimpleOneShot<B>> = (0..objects)
        .map(|_| SimpleOneShot::<B>::with_backend(threads.max(2)))
        .collect();
    let start = Instant::now();
    crossbeam::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            s.spawn(move |_| {
                for obj in pool {
                    std::hint::black_box(obj.get_ts(t).expect("one-shot get_ts"));
                }
            });
        }
    })
    .unwrap();
    ((objects * threads) as u64, start.elapsed().as_secs_f64())
}

/// Long-lived `CollectMax`: each thread performs `ops_per_thread` calls.
fn bench_collect_max<B: RegisterBackend<u64>>(threads: usize, ops_per_thread: u64) -> (u64, f64) {
    let ts = CollectMax::<B>::with_backend(threads.max(2));
    let start = Instant::now();
    crossbeam::scope(|s| {
        for t in 0..threads {
            let ts = &ts;
            s.spawn(move |_| {
                for _ in 0..ops_per_thread {
                    std::hint::black_box(ts.get_ts(t).expect("collect-max get_ts"));
                }
            });
        }
    })
    .unwrap();
    (
        threads as u64 * ops_per_thread,
        start.elapsed().as_secs_f64(),
    )
}

fn main() {
    let cfg = parse_args();
    let scale = |n: u64| if cfg.smoke { (n / 20).max(100) } else { n };
    let rw_ops = scale(400_000);
    let scans = scale(400_000);
    let oneshot_objects = scale(10_000) as usize;
    let collect_ops = scale(40_000);

    // Smoke cells are tiny (a scheduler hiccup is a 2x swing), so smoke
    // mode measures each cell three times and keeps the best: real
    // regressions survive repeats, noisy neighbours do not.
    let reps = if cfg.smoke { 3 } else { 1 };
    let best = |mut measure: Box<dyn FnMut() -> BenchRow + '_>| -> BenchRow {
        let mut best = measure();
        for _ in 1..reps {
            let again = measure();
            if again.ops_per_sec > best.ops_per_sec {
                best = again;
            }
        }
        best
    };

    let mut results: Vec<BenchRow> = Vec::new();
    for &t in &thread_ladder(cfg.max_threads) {
        results.push(best(Box::new(|| {
            let reg = AtomicRegister::new(0u64);
            let secs = bench_register_rw(&reg, t, rw_ops);
            row("register_rw", "epoch", t, rw_ops, secs)
        })));
        results.push(best(Box::new(|| {
            let reg: PackedRegister<u64> = PackedRegister::new(0);
            let secs = bench_register_rw(&reg, t, rw_ops);
            row("register_rw", "packed", t, rw_ops, secs)
        })));
        results.push(best(Box::new(|| {
            let secs = bench_scan::<EpochBackend>(t, scans);
            row("scan", "epoch", t, scans, secs)
        })));
        results.push(best(Box::new(|| {
            let secs = bench_scan::<PackedBackend>(t, scans);
            row("scan", "packed", t, scans, secs)
        })));
        results.push(best(Box::new(|| {
            let (ops, secs) = bench_simple_oneshot::<EpochBackend>(t, oneshot_objects);
            row("get_ts/simple_oneshot", "epoch", t, ops, secs)
        })));
        results.push(best(Box::new(|| {
            let (ops, secs) = bench_simple_oneshot::<PackedBackend>(t, oneshot_objects);
            row("get_ts/simple_oneshot", "packed", t, ops, secs)
        })));
        results.push(best(Box::new(|| {
            let (ops, secs) = bench_collect_max::<EpochBackend>(t, collect_ops);
            row("get_ts/collect_max", "epoch", t, ops, secs)
        })));
        results.push(best(Box::new(|| {
            let (ops, secs) = bench_collect_max::<PackedBackend>(t, collect_ops);
            row("get_ts/collect_max", "packed", t, ops, secs)
        })));
    }

    let mut table = Table::new(
        "bench_contention — substrate throughput, 1..=N threads, epoch vs packed backends",
        &["bench", "backend", "threads", "total ops", "ops/sec"],
    );
    for r in &results {
        table.push_row(vec![
            r.bench.clone(),
            r.backend.clone(),
            r.threads.to_string(),
            r.total_ops.to_string(),
            format!("{:.0}", r.ops_per_sec),
        ]);
    }
    table.emit();
    ts_bench::note(
        "expectations: packed >> epoch on every workload; epoch register reads must\n\
         scale (not collapse) with threads now that pin/defer are lock-free; collect_max\n\
         getTS rides the cached-max fast path (diff against an old baseline with\n\
         bench_compare).",
    );

    if let Some(path) = &cfg.out {
        let baseline = Baseline {
            schema: "ts-bench/bench_contention/v1".to_string(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            smoke: cfg.smoke,
            results,
        };
        let json = serde_json::to_string(&baseline).expect("baseline serializes");
        std::fs::write(path, json + "\n").expect("write baseline file");
        ts_bench::note(format!("baseline written to {path}"));
    }
}
