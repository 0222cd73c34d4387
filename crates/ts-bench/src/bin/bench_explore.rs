//! `bench_explore` — model-checker throughput baseline.
//!
//! Runs the `ts-model` explorer over the model algorithms in three modes
//! and records the explored-state counts, so the DPOR reduction is a
//! measured number, not an anecdote:
//!
//! - **full** — plain enumeration with the exact state cache (the
//!   pre-DPOR explorer);
//! - **dpor** — persistent + sleep sets with the fingerprint cache (the
//!   default);
//! - **parallel** — the same reduction in partitioned mode on two
//!   worker threads (structure check: its verdicts must match; its
//!   counts are per-item and therefore not comparable to the
//!   single-tree modes).
//!
//! Output: a markdown table (JSON lines under `TS_BENCH_JSON`), plus a
//! machine-readable baseline written to `BENCH_explore.json` (override
//! with `--out PATH`, `--out -` to skip). The CI `model-check` job
//! regenerates the baseline with `--smoke` and gates on three
//! invariants: at least one model keeps a ≥ 5x full-vs-DPOR
//! explored-state reduction, every DPOR row has a row in the checked-in
//! baseline, and no DPOR state count or verdict moves against it (the
//! counts are deterministic, so any drift is a real change to the
//! search, not noise).
//!
//! Flags: `--smoke` marks the output as a CI smoke run (every
//! configuration runs in it: the largest takes about a second);
//! `--threads N` sets the parallel mode's worker count (default 2);
//! `--out PATH` relocates the baseline file.

use std::time::Instant;

use serde::Serialize;

use ts_bench::Table;
use ts_core::model::{BoundedModel, BrokenCounterModel, CollectMaxModel, SimpleModel};
use ts_model::toy::CounterAlgorithm;
use ts_model::{Algorithm, CacheMode, Explorer, Machine};

/// One (model, mode) exploration measurement.
#[derive(Debug, Clone, Serialize)]
struct BenchRow {
    model: String,
    mode: String,
    states: u64,
    transitions: u64,
    executions: u64,
    pruned: u64,
    sleep_skipped: u64,
    violation: bool,
    wall_ms: f64,
}

/// The file schema of `BENCH_explore.json`.
#[derive(Debug, Serialize)]
struct Baseline {
    schema: String,
    smoke: bool,
    results: Vec<BenchRow>,
}

struct Config {
    smoke: bool,
    threads: usize,
    out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        threads: 2,
        out: Some("BENCH_explore.json".to_string()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg.smoke = true,
            "--threads" => {
                let v = args.next().expect("--threads takes a value");
                cfg.threads = v.parse().expect("--threads takes a number");
                assert!(cfg.threads >= 1, "--threads must be >= 1");
            }
            "--out" => {
                let v = args.next().expect("--out takes a path");
                cfg.out = if v == "-" { None } else { Some(v) };
            }
            other => panic!("unknown flag {other} (expected --smoke | --threads N | --out PATH)"),
        }
    }
    cfg
}

fn measure<A>(results: &mut Vec<BenchRow>, model: &str, algorithm: A, ops: usize, threads: usize)
where
    A: Algorithm + Clone + Send + Sync,
    A::Machine: Send + Sync,
    <A::Machine as Machine>::Value: Send + Sync,
    <A::Machine as Machine>::Output: Send + Sync,
{
    let mut run = |mode: &str, explorer: Explorer<A>| {
        let start = Instant::now();
        let report = explorer.run();
        results.push(BenchRow {
            model: model.to_string(),
            mode: mode.to_string(),
            states: report.states,
            transitions: report.transitions,
            executions: report.executions,
            pruned: report.pruned,
            sleep_skipped: report.sleep_skipped,
            violation: report.violation.is_some(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    };
    run(
        "full",
        Explorer::new(algorithm.clone(), ops)
            .with_reduction(false)
            .with_cache(CacheMode::Exact),
    );
    run("dpor", Explorer::new(algorithm.clone(), ops));
    run(
        "parallel",
        Explorer::new(algorithm, ops).with_threads(threads),
    );
}

fn main() {
    let cfg = parse_args();
    let mut results: Vec<BenchRow> = Vec::new();

    measure(
        &mut results,
        "counter_n4",
        CounterAlgorithm::new(4),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "broken_counter_n4",
        BrokenCounterModel::new(4),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "simple_n4",
        SimpleModel::new(4),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "collect_max_n3",
        CollectMaxModel::new(3),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "collect_max_n2x2",
        CollectMaxModel::new(2),
        2,
        cfg.threads,
    );
    measure(
        &mut results,
        "collect_max_fast_n3",
        CollectMaxModel::with_cache(3),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "bounded_n3",
        BoundedModel::new(3),
        1,
        cfg.threads,
    );
    measure(
        &mut results,
        "collect_max_fast_n2x2",
        CollectMaxModel::with_cache(2),
        2,
        cfg.threads,
    );

    let mut table = Table::new(
        "bench_explore — explorer state counts: full enumeration vs DPOR vs partitioned",
        &[
            "model",
            "mode",
            "states",
            "transitions",
            "executions",
            "pruned",
            "sleep skipped",
            "violation",
            "wall ms",
        ],
    );
    for r in &results {
        table.push_row(vec![
            r.model.clone(),
            r.mode.clone(),
            r.states.to_string(),
            r.transitions.to_string(),
            r.executions.to_string(),
            r.pruned.to_string(),
            r.sleep_skipped.to_string(),
            r.violation.to_string(),
            format!("{:.1}", r.wall_ms),
        ]);
    }
    table.emit();
    ts_bench::note(
        "expectations: dpor states <= full states on every model, >= 5x fewer on at\n\
         least one; verdicts identical across all three modes per model; counts are\n\
         deterministic (diff against the checked-in BENCH_explore.json is exact).",
    );

    if let Some(path) = &cfg.out {
        let baseline = Baseline {
            schema: "ts-bench/bench_explore/v1".to_string(),
            smoke: cfg.smoke,
            results,
        };
        let json = serde_json::to_string(&baseline).expect("baseline serializes");
        std::fs::write(path, json + "\n").expect("write baseline file");
        ts_bench::note(format!("baseline written to {path}"));
    }
}
