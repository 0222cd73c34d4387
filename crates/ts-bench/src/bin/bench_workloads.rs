//! `bench_workloads` — the workload scenario grid, with latency
//! histograms.
//!
//! Sweeps the `ts-workloads` engine over
//! (object × backend × scenario × thread-count): every timestamp
//! object (`simple_oneshot`, `bounded_oneshot`, `collect_max`,
//! `growable`) plus the `ts-apps` lock consumers (`fcfs_lock`,
//! `k_exclusion`), on both register backends where the object is
//! generic, under every scenario in the `ts-workloads` catalog
//! (closed loop, Zipf-skewed mixes, bursty open loop, thread churn).
//!
//! The `ts-service` layer joins the grid as `sharded_s{S}_{mode}` cells
//! (`S ∈ {1,4,16}` shard domains × `{single, batch16}` issue modes)
//! under the pure-issue scenarios (`closed_getts`, `open_bursty`).
//! Service rows carry extra columns from the unified [`ServiceStats`]
//! snapshot — `stamps_per_sec` (the per-stamp throughput; batch cells
//! issue 16 stamps per op so `ops/sec` alone would hide the
//! amortization), fast-hit ratio, batch fill, shard imbalance and lease
//! waits; the columns are `null` on rows whose target has no stats
//! hook.
//!
//! The `ts-replica` layer joins under the closed-loop issue scenarios
//! as `replicated_f{0,1,2}` cells (collect-max over quorum-replicated
//! registers, fault-free) plus seeded faulty-network profiles
//! (`replicated_f1_lossy`, `replicated_f1_jitter`); their rows carry
//! `quorum_rounds_per_call` and `quorum_repair_ratio` from the
//! cluster's counters.
//!
//! Each cell reports throughput and log-bucketed latency percentiles
//! (p50/p90/p99/p999/max). Output: a markdown table normally, one JSON
//! object **per cell** under `TS_BENCH_JSON` (pure JSON lines, like
//! every table binary), and a machine-readable file written to
//! `BENCH_workloads.json` (override with `--out PATH`, `--out -`
//! skips) so the perf trajectory has per-scenario history.
//!
//! Besides the traffic-shape grid, the sweep runs the **chaos**
//! scenario family (`crash_minority`, `crash_majority_heal`,
//! `stalled_writer_scan`): fault campaigns applied at deterministic op
//! thresholds while the closed loop runs, under a liveness watchdog. Those rows populate the robustness
//! columns — `quorum_timeouts` / `quorum_degraded` /
//! `quorum_unavailable`, the router's `net_*` injected-fault counters
//! (also filled on the faulty-network profile cells), and
//! `recovery_ms`, the wall time the run spent in restart resync sweeps
//! and heals.
//!
//! Flags: `--threads N` caps the thread ladder (default 4; the ladder
//! is 2,4,...,N), `--smoke` shrinks op counts ~20x for CI, `--out
//! PATH` relocates the results file.

use serde::Serialize;

use ts_apps::{FcfsLock, KExclusion};
use ts_bench::Table;
use ts_core::workload::WorkloadTarget;
use ts_core::{
    BoundedTimestamp, CollectMax, EpochBackend, GrowableTimestamp, OneShotPool, PackedBackend,
    ServiceStats, SimpleOneShot,
};
use ts_replica::{ClusterConfig, FaultPlan, ReplicatedCollectMax, ReplicatedTryRegisters};
use ts_service::{IssueMode, ServiceConfig};
use ts_workloads::{
    catalog, run_scenario, run_scenario_with, Arrival, Campaign, EngineOptions, FaultEvent,
    FaultSchedule, OpMix, RunConfig, Scenario, ScenarioReport, ServiceTarget, TimedFault,
};

/// One measured (object × backend × scenario × threads) cell.
#[derive(Debug, Clone, Serialize)]
struct WorkloadRow {
    object: String,
    backend: String,
    scenario: String,
    threads: usize,
    lives: u64,
    ops: u64,
    get_ts_ops: u64,
    scan_ops: u64,
    compare_ops: u64,
    elapsed_secs: f64,
    throughput_ops_per_sec: f64,
    mean_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
    // Service-layer columns, `null` for targets without `ServiceStats`.
    // `stamps_per_sec` is the per-stamp throughput: for batch cells one
    // GetTs op issues the whole batch, so `ops/sec` counts issue calls
    // while this column counts stamps — the figure comparable across
    // issue modes and with the single-issue paper objects.
    stamps_per_sec: Option<f64>,
    fast_hit_ratio: Option<f64>,
    avg_batch_fill: Option<f64>,
    shard_imbalance: Option<f64>,
    lease_waits: Option<u64>,
    // Replicated-backend columns, `null` unless the cell's registers
    // ran the quorum protocol: average quorum round trips per object
    // call and the fraction of rounds that were read-repair
    // write-backs.
    quorum_rounds_per_call: Option<f64>,
    quorum_repair_ratio: Option<f64>,
    // Robustness columns, `null` unless the cell ran the quorum
    // protocol: deterministic-deadline outcomes (timeouts, degraded
    // completions, exhausted ops) and the router's injected-fault
    // counters, so a faulty-network or chaos row shows *how much* fault
    // pressure produced its latency tail.
    quorum_timeouts: Option<u64>,
    quorum_degraded: Option<u64>,
    quorum_unavailable: Option<u64>,
    net_dropped: Option<u64>,
    net_duplicated: Option<u64>,
    net_delayed: Option<u64>,
    net_reordered: Option<u64>,
    // Campaign recovery cost (wall time spent in restart resync sweeps
    // and heals), `null` outside the chaos cell family.
    recovery_ms: Option<f64>,
}

impl WorkloadRow {
    fn from_report(r: &ScenarioReport, stats: Option<&ServiceStats>) -> Self {
        // Robustness counters only mean something on cells whose
        // registers ran the quorum protocol; elsewhere they stay null
        // rather than printing misleading zeros.
        let quorum = |f: fn(&ServiceStats) -> u64| -> Option<u64> {
            stats.and_then(|s| (s.quorum_rounds > 0).then(|| f(s)))
        };
        Self {
            object: r.object.to_string(),
            backend: r.backend.to_string(),
            scenario: r.scenario.to_string(),
            threads: r.threads,
            lives: r.lives,
            ops: r.counts.total(),
            get_ts_ops: r.counts.get_ts,
            scan_ops: r.counts.scan,
            compare_ops: r.counts.compare,
            elapsed_secs: r.elapsed_secs,
            throughput_ops_per_sec: r.throughput_ops_per_sec,
            mean_ns: r.latency.mean_ns(),
            p50_ns: r.latency.percentile(50.0),
            p90_ns: r.latency.percentile(90.0),
            p99_ns: r.latency.percentile(99.0),
            p999_ns: r.latency.percentile(99.9),
            max_ns: r.latency.max_ns(),
            stamps_per_sec: stats.and_then(|s| {
                (s.stamps > 0).then(|| s.stamps as f64 / r.elapsed_secs.max(f64::MIN_POSITIVE))
            }),
            fast_hit_ratio: stats.and_then(ServiceStats::fast_hit_ratio),
            avg_batch_fill: stats.and_then(ServiceStats::avg_batch_fill),
            shard_imbalance: stats.and_then(ServiceStats::shard_imbalance),
            lease_waits: stats.map(|s| s.lease_waits),
            quorum_rounds_per_call: stats.and_then(ServiceStats::rounds_per_call),
            quorum_repair_ratio: stats.and_then(ServiceStats::repair_ratio),
            quorum_timeouts: quorum(|s| s.quorum_timeouts),
            quorum_degraded: quorum(|s| s.quorum_degraded),
            quorum_unavailable: quorum(|s| s.quorum_unavailable),
            net_dropped: quorum(|s| s.net_dropped),
            net_duplicated: quorum(|s| s.net_duplicated),
            net_delayed: quorum(|s| s.net_delayed),
            net_reordered: quorum(|s| s.net_reordered),
            recovery_ms: None,
        }
    }
}

/// The file schema of `BENCH_workloads.json`.
#[derive(Debug, Serialize)]
struct WorkloadsFile {
    schema: String,
    host_threads: usize,
    smoke: bool,
    results: Vec<WorkloadRow>,
}

struct Config {
    max_threads: usize,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        max_threads: 4,
        smoke: false,
        out: Some("BENCH_workloads.json".to_string()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().expect("--threads takes a value");
                cfg.max_threads = v.parse().expect("--threads takes a number");
                assert!(cfg.max_threads >= 2, "--threads must be >= 2");
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

/// Thread ladder 2, 4, 8, ..., max (workload cells need ≥ 2 threads to
/// mean anything).
fn thread_ladder(max: usize) -> Vec<usize> {
    let mut ladder = vec![];
    let mut t = 2;
    while t < max {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max);
    ladder
}

/// Builds every target for a given thread count. Objects generic over
/// the register backend appear twice; `bounded_oneshot` and `growable`
/// have one storage each. `bounded_oneshot` keeps the `epoch` label its
/// checked-in rows were recorded under; `growable` reports `word`.
fn targets(threads: usize, pool_size: usize) -> Vec<Box<dyn WorkloadTarget>> {
    vec![
        Box::new(
            OneShotPool::new(
                "simple_oneshot",
                "packed",
                threads,
                pool_size,
                Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(threads)),
            )
            .with_scan(Box::new(|o| {
                std::hint::black_box(o.observed_sum());
            })),
        ),
        Box::new(
            OneShotPool::new(
                "simple_oneshot",
                "epoch",
                threads,
                pool_size,
                Box::new(move || SimpleOneShot::<EpochBackend>::with_backend(threads)),
            )
            .with_scan(Box::new(|o| {
                std::hint::black_box(o.observed_sum());
            })),
        ),
        Box::new(OneShotPool::new(
            "bounded_oneshot",
            "epoch",
            threads,
            pool_size,
            Box::new(move || BoundedTimestamp::one_shot(threads)),
        )),
        Box::new(CollectMax::<PackedBackend>::with_backend(threads)),
        Box::new(CollectMax::<EpochBackend>::with_backend(threads)),
        Box::new(GrowableTimestamp::new()),
        Box::new(FcfsLock::<PackedBackend>::with_backend(threads)),
        Box::new(FcfsLock::<EpochBackend>::with_backend(threads)),
        Box::new(KExclusion::<PackedBackend>::with_backend(
            threads,
            threads / 2 + 1,
        )),
        Box::new(KExclusion::<EpochBackend>::with_backend(
            threads,
            threads / 2 + 1,
        )),
    ]
}

/// The service grid: `sharded{S}` × issue mode, all on the packed
/// backend. Labels are the report's object column; slot budget per
/// shard is derived from the thread count at run time
/// (`ceil(threads / shards)`, so total slots ≈ threads regardless of
/// `S` and the A/B compares sharding, not register count).
const SERVICE_CELLS: &[(usize, IssueMode, &str)] = &[
    (1, IssueMode::Single, "sharded_s1_single"),
    (1, IssueMode::Batch(16), "sharded_s1_batch16"),
    (4, IssueMode::Single, "sharded_s4_single"),
    (4, IssueMode::Batch(16), "sharded_s4_batch16"),
    (16, IssueMode::Single, "sharded_s16_single"),
    (16, IssueMode::Batch(16), "sharded_s16_batch16"),
];

/// Service cells run only under the pure-issue scenarios: the service's
/// `Scan`/`Compare` semantics differ from the paper objects', so mixed
/// cells would not be like-for-like rows.
const SERVICE_SCENARIOS: &[&str] = &["closed_getts", "open_bursty"];

/// Replicated cells run only under the closed-loop issue scenarios:
/// every register access is a quorum protocol run (orders of magnitude
/// slower than an atomic load), so the open-loop and churn cells would
/// measure backpressure, not the replication cost being compared.
const REPLICATED_SCENARIOS: &[&str] = &["closed_getts", "closed_getts_heavy"];

/// The replicated grid: `CollectMax` over quorum-replicated registers,
/// one cell per fault tolerance level (fault-free f ∈ {0, 1, 2} —
/// 1, 3, 5 replicas) plus two faulty-network profiles at f = 1
/// (seeded, so every run measures the same fault schedule). Rows carry
/// `quorum_rounds_per_call` / `quorum_repair_ratio` from the cluster's
/// counters.
fn replicated_targets(threads: usize) -> Vec<Box<dyn WorkloadTarget>> {
    let lossy = FaultPlan {
        seed: 0x5EED,
        drop_permille: 50,
        dup_permille: 20,
        delay_max: 3,
        ..FaultPlan::default()
    };
    let jitter = FaultPlan {
        seed: 0x5EED,
        delay_max: 8,
        reorder: true,
        ..FaultPlan::default()
    };
    vec![
        Box::new(ReplicatedCollectMax::new(threads, 0, "replicated_f0")),
        Box::new(ReplicatedCollectMax::new(threads, 1, "replicated_f1")),
        Box::new(ReplicatedCollectMax::new(threads, 2, "replicated_f2")),
        Box::new(ReplicatedCollectMax::with_plan(
            threads,
            1,
            "replicated_f1_lossy",
            lossy,
        )),
        Box::new(ReplicatedCollectMax::with_plan(
            threads,
            1,
            "replicated_f1_jitter",
            jitter,
        )),
    ]
}

fn service_targets(threads: usize) -> Vec<Box<dyn WorkloadTarget>> {
    SERVICE_CELLS
        .iter()
        .map(|&(shards, mode, label)| {
            let slots_per_shard = threads.div_ceil(shards).max(1);
            Box::new(ServiceTarget::new(
                label,
                ServiceConfig::new(shards, slots_per_shard),
                mode,
            )) as Box<dyn WorkloadTarget>
        })
        .collect()
}

/// The chaos cell family: one row per named fault campaign, run at the
/// top thread count. Each cell binds a hand-written [`FaultSchedule`]
/// (thresholds scaled to the run's total op count) to its cluster and
/// drives the closed loop through [`run_scenario_with`] under a
/// liveness watchdog — a hang under faults fails the bench with a
/// diagnosis instead of wedging CI.
///
/// | scenario | target | campaign | what the row shows |
/// |---|---|---|---|
/// | `crash_minority` | `replicated_f1` (infallible) | crash replica 2 at 25%, wipe-restart at 70% | throughput/tail degrade but never zero; no op exhausts its deadline |
/// | `crash_majority_heal` | `replicated_try_f1` (fallible, short deadline) | crash 2 of 3, then retain- and wipe-restart | ops fail fast (`quorum_unavailable`), bounded by the step deadline; service recovers after heal |
/// | `stalled_writer_scan` | `replicated_f1`, scan-heavy mix | stall slot 0 for a quarter of the run at 30% | scans ride through a stalled writer; stall shows in the tail, not in liveness |
fn chaos_cells(threads: usize, ops_per_thread: u64) -> Vec<WorkloadRow> {
    let total = threads as u64 * ops_per_thread;
    let run_cfg = RunConfig {
        threads,
        ops_per_thread,
        seed: 0x5EED,
    };
    let watchdog = Some(std::time::Duration::from_secs(30));
    let mut rows = Vec::new();

    // crash_minority: one replica of three crash-stops mid-run and
    // later rejoins from an empty disk (wipe + resync). The infallible
    // collect-max client rides through on the surviving quorum.
    {
        let target = ReplicatedCollectMax::new(threads, 1, "replicated_f1");
        let scenario = Scenario {
            name: "crash_minority",
            arrival: Arrival::ClosedLoop,
            mix: OpMix::get_ts_only(),
            churn: None,
        };
        let schedule = FaultSchedule::new(vec![
            TimedFault {
                at_op: total / 4,
                event: FaultEvent::Crash { replica: 2 },
            },
            TimedFault {
                at_op: total * 7 / 10,
                event: FaultEvent::Restart {
                    replica: 2,
                    wipe: true,
                },
            },
        ]);
        let campaign = Campaign::new(std::sync::Arc::clone(target.cluster()), schedule, threads);
        let opts = EngineOptions {
            campaign: Some(std::sync::Arc::clone(&campaign)),
            watchdog,
        };
        let report = run_scenario_with(&target, &scenario, &run_cfg, &opts);
        let stats = target.service_stats().expect("replicated stats");
        assert!(campaign.fully_applied(), "crash_minority events all fired");
        assert_eq!(
            stats.quorum_unavailable, 0,
            "a minority crash must never exhaust a deadline"
        );
        assert!(
            target.cluster().resynced_registers() > 0,
            "the wiped replica resynced on rejoin"
        );
        let mut row = WorkloadRow::from_report(&report, Some(&stats));
        row.recovery_ms = Some(campaign.repair_time().as_secs_f64() * 1e3);
        rows.push(row);
    }

    // crash_majority_heal: two replicas of three go down, so for a
    // window no quorum exists. The fallible register client keeps
    // issuing; each outage op fails within its (shortened) step
    // deadline instead of hanging, and throughput recovers after the
    // restarts.
    {
        let target = ReplicatedTryRegisters::with_config(
            threads,
            ClusterConfig::new(1).with_deadline(2_048),
            "replicated_try_f1",
        );
        let scenario = Scenario {
            name: "crash_majority_heal",
            arrival: Arrival::ClosedLoop,
            mix: OpMix { weights: [4, 1, 0] },
            churn: None,
        };
        let schedule = FaultSchedule::new(vec![
            TimedFault {
                at_op: total * 3 / 10,
                event: FaultEvent::Crash { replica: 0 },
            },
            TimedFault {
                at_op: total * 45 / 100,
                event: FaultEvent::Crash { replica: 2 },
            },
            TimedFault {
                at_op: total * 65 / 100,
                event: FaultEvent::Restart {
                    replica: 0,
                    wipe: false,
                },
            },
            TimedFault {
                at_op: total * 3 / 4,
                event: FaultEvent::Restart {
                    replica: 2,
                    wipe: true,
                },
            },
        ]);
        let campaign = Campaign::new(std::sync::Arc::clone(target.cluster()), schedule, threads);
        let opts = EngineOptions {
            campaign: Some(std::sync::Arc::clone(&campaign)),
            watchdog,
        };
        let report = run_scenario_with(&target, &scenario, &run_cfg, &opts);
        let stats = target.service_stats().expect("replicated stats");
        assert!(
            campaign.fully_applied(),
            "crash_majority_heal events all fired"
        );
        assert!(
            stats.quorum_unavailable > 0,
            "the majority outage surfaced Unavailable"
        );
        assert!(
            target.cluster().resynced_registers() > 0,
            "the wiped replica resynced on rejoin"
        );
        let mut row = WorkloadRow::from_report(&report, Some(&stats));
        row.recovery_ms = Some(campaign.repair_time().as_secs_f64() * 1e3);
        rows.push(row);
    }

    // stalled_writer_scan: no replica faults — worker slot 0 parks at
    // an op boundary for a quarter of the run while the remaining
    // slots keep scanning. Measures that a stalled client costs tail
    // latency, never liveness.
    {
        let target = ReplicatedCollectMax::new(threads, 1, "replicated_f1");
        let scenario = Scenario {
            name: "stalled_writer_scan",
            arrival: Arrival::ClosedLoop,
            mix: OpMix::zipf(
                [
                    ts_core::WorkloadOp::Scan,
                    ts_core::WorkloadOp::GetTs,
                    ts_core::WorkloadOp::Compare,
                ],
                1.2,
            ),
            churn: None,
        };
        let schedule = FaultSchedule::new(vec![TimedFault {
            at_op: total * 3 / 10,
            event: FaultEvent::Stall {
                slot: 0,
                for_ops: total / 4,
            },
        }]);
        let campaign = Campaign::new(std::sync::Arc::clone(target.cluster()), schedule, threads);
        let opts = EngineOptions {
            campaign: Some(std::sync::Arc::clone(&campaign)),
            watchdog,
        };
        let report = run_scenario_with(&target, &scenario, &run_cfg, &opts);
        let stats = target.service_stats().expect("replicated stats");
        assert!(
            campaign.fully_applied(),
            "stalled_writer_scan events all fired"
        );
        let mut row = WorkloadRow::from_report(&report, Some(&stats));
        row.recovery_ms = Some(campaign.repair_time().as_secs_f64() * 1e3);
        rows.push(row);
    }

    rows
}

fn main() {
    let cfg = parse_args();
    // Per-cell budgets; smoke cuts ~20x for CI.
    let ops_per_thread: u64 = if cfg.smoke { 200 } else { 4_000 };
    let open_rate_hz: u64 = if cfg.smoke { 20_000 } else { 40_000 };
    let ops_per_life: u64 = if cfg.smoke { 50 } else { 500 };
    let pool_size: usize = if cfg.smoke { 64 } else { 512 };
    let scenarios: Vec<Scenario> = catalog(open_rate_hz, ops_per_life);

    let mut rows: Vec<WorkloadRow> = Vec::new();
    for &threads in &thread_ladder(cfg.max_threads) {
        let run_cfg = RunConfig {
            threads,
            ops_per_thread,
            seed: 0x5EED,
        };
        for scenario in &scenarios {
            // Fresh targets per scenario so cells don't contaminate each
            // other (register contents, pool generations, vpids).
            let mut cell_targets = targets(threads, pool_size);
            if SERVICE_SCENARIOS.contains(&scenario.name) {
                cell_targets.extend(service_targets(threads));
            }
            if REPLICATED_SCENARIOS.contains(&scenario.name) {
                cell_targets.extend(replicated_targets(threads));
            }
            for target in cell_targets {
                let report = run_scenario(target.as_ref(), scenario, &run_cfg);
                let row = WorkloadRow::from_report(&report, target.service_stats().as_ref());
                if ts_bench::json_mode() {
                    println!("{}", serde_json::to_string(&row).expect("rows serialize"));
                }
                rows.push(row);
            }
            // Keep epoch garbage from one cell out of the next cell's
            // latency tail.
            ts_register::reclaim::flush();
        }
    }

    // The chaos scenario family: crash/stall campaigns applied at
    // deterministic op thresholds while the grid's closed loop runs,
    // at the top thread count only (the cells measure fault response,
    // not scaling). Rows carry the usual latency percentiles — the
    // tail under faults is the figure of merit — plus the robustness
    // columns and `recovery_ms` (wall time spent in restart resync
    // sweeps and heals).
    for row in chaos_cells(cfg.max_threads, if cfg.smoke { 200 } else { 2_000 }) {
        if ts_bench::json_mode() {
            println!("{}", serde_json::to_string(&row).expect("rows serialize"));
        }
        rows.push(row);
    }

    if !ts_bench::json_mode() {
        let mut table = Table::new(
            "bench_workloads — scenario grid: throughput + latency percentiles",
            &[
                "object",
                "backend",
                "scenario",
                "threads",
                "ops",
                "ops/sec",
                "stamps/sec",
                "p50 ns",
                "p99 ns",
                "p999 ns",
                "max ns",
            ],
        );
        for r in &rows {
            table.push_row(vec![
                r.object.clone(),
                r.backend.clone(),
                r.scenario.clone(),
                r.threads.to_string(),
                r.ops.to_string(),
                format!("{:.0}", r.throughput_ops_per_sec),
                r.stamps_per_sec
                    .map_or_else(|| "-".to_string(), |s| format!("{s:.0}")),
                r.p50_ns.to_string(),
                r.p99_ns.to_string(),
                r.p999_ns.to_string(),
                r.max_ns.to_string(),
            ]);
        }
        table.emit();
    }
    ts_bench::note(
        "expectations: packed beats epoch on closed-loop getTS; open-loop sojourn\n\
         p99 tracks burst size; churn cells match closed_getts within noise (the\n\
         orphan handoff is off the hot path); sharded/batched service cells beat\n\
         unsharded collect_max on stamps/sec (batch cells amortize one CAS over\n\
         16 stamps, so compare stamps/sec, not ops/sec).",
    );

    if let Some(path) = &cfg.out {
        let file = WorkloadsFile {
            schema: "ts-bench/bench_workloads/v1".to_string(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            smoke: cfg.smoke,
            results: rows,
        };
        let json = serde_json::to_string(&file).expect("results serialize");
        std::fs::write(path, json + "\n").expect("write results file");
        ts_bench::note(format!("workload grid written to {path}"));
    }
}
