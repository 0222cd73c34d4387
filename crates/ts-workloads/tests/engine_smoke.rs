//! Engine behavior tests: op accounting, arrival modes, churn lives,
//! and target coverage across backends.

use ts_core::workload::{WorkloadOp, WorkloadTarget};
use ts_core::{
    BoundedTimestamp, CollectMax, EpochBackend, GrowableTimestamp, OneShotPool, PackedBackend,
    SimpleOneShot,
};
use ts_service::{IssueMode, ServiceConfig};
use ts_workloads::{
    catalog, run_scenario, Arrival, Churn, OpMix, RunConfig, Scenario, ServiceTarget,
};

fn closed(name: &'static str, mix: OpMix) -> Scenario {
    Scenario {
        name,
        arrival: Arrival::ClosedLoop,
        mix,
        churn: None,
    }
}

#[test]
fn closed_loop_accounts_every_op() {
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 400,
        seed: 7,
    };
    for backend in ["packed", "epoch"] {
        let report = match backend {
            "packed" => {
                let t = CollectMax::<PackedBackend>::with_backend(2);
                run_scenario(&t, &closed("closed_getts", OpMix::get_ts_only()), &cfg)
            }
            _ => {
                let t = CollectMax::<EpochBackend>::with_backend(2);
                run_scenario(&t, &closed("closed_getts", OpMix::get_ts_only()), &cfg)
            }
        };
        assert_eq!(report.backend, backend);
        assert_eq!(report.counts.total(), 800);
        assert_eq!(report.counts.get_ts, 800, "pure getTS mix");
        assert_eq!(report.latency.count(), 800);
        assert_eq!(report.lives, 2, "no churn: one life per slot");
        assert!(report.throughput_ops_per_sec > 0.0);
        assert!(report.latency.max_ns() >= report.latency.percentile(99.0));
    }
}

#[test]
fn skewed_mix_executes_all_op_kinds() {
    let target = CollectMax::new(2);
    let scenario = closed(
        "closed_scan_heavy",
        OpMix::zipf(
            [WorkloadOp::Scan, WorkloadOp::GetTs, WorkloadOp::Compare],
            1.2,
        ),
    );
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 600,
        seed: 11,
    };
    let report = run_scenario(&target, &scenario, &cfg);
    assert_eq!(report.counts.total(), 1200);
    assert!(report.counts.scan > report.counts.get_ts, "scan-heavy mix");
    assert!(report.counts.compare > 0);
    // Worker assertions double as correctness probes: a compare op on a
    // long-lived object verifies the timestamp property; reaching here
    // means none fired.
}

#[test]
fn open_loop_bursts_complete_and_measure_sojourn() {
    let target = CollectMax::new(2);
    let scenario = Scenario {
        name: "open_bursty",
        arrival: Arrival::OpenLoop {
            rate_hz: 50_000,
            burst: 8,
        },
        mix: OpMix::get_ts_only(),
        churn: None,
    };
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 200,
        seed: 3,
    };
    let report = run_scenario(&target, &scenario, &cfg);
    assert_eq!(report.counts.total(), 400);
    assert_eq!(report.latency.count(), 400);
    // 400 ops at an aggregate 50k/s must take at least ~7ms of wall
    // clock (the arrival schedule paces the run).
    assert!(
        report.elapsed_secs >= 0.005,
        "open loop finished implausibly fast: {}s",
        report.elapsed_secs
    );
}

#[test]
fn churn_replaces_workers_and_still_accounts_everything() {
    let target = CollectMax::<EpochBackend>::with_backend(2);
    let scenario = Scenario {
        name: "churn",
        arrival: Arrival::ClosedLoop,
        mix: OpMix::get_ts_only(),
        churn: Some(Churn { ops_per_life: 50 }),
    };
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 300,
        seed: 5,
    };
    let report = run_scenario(&target, &scenario, &cfg);
    assert_eq!(report.counts.total(), 600);
    assert_eq!(report.lives, 12, "300 ops / 50 per life × 2 slots");
}

#[test]
fn every_catalog_scenario_runs_on_every_target_kind() {
    // One brief pass of the full catalog over one target of each
    // adapter family (long-lived, growable, one-shot pool, locks).
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 60,
        seed: 19,
    };
    for scenario in catalog(50_000, 20) {
        let collect = CollectMax::new(2);
        let r = run_scenario(&collect, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);

        let growable = GrowableTimestamp::new();
        let r = run_scenario(&growable, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);

        let pool = OneShotPool::new(
            "simple_oneshot",
            "packed",
            2,
            64,
            Box::new(|| SimpleOneShot::<PackedBackend>::with_backend(2)),
        )
        .with_scan(Box::new(|o| {
            std::hint::black_box(o.observed_sum());
        }));
        let r = run_scenario(&pool, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);

        let bounded = OneShotPool::new(
            "bounded_oneshot",
            "epoch",
            2,
            64,
            Box::new(|| BoundedTimestamp::one_shot(2)),
        );
        let r = run_scenario(&bounded, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);

        let lock: ts_apps::FcfsLock<PackedBackend> = ts_apps::FcfsLock::new(2);
        let r = run_scenario(&lock, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);

        let pool: ts_apps::KExclusion<EpochBackend> = ts_apps::KExclusion::with_backend(2, 1);
        let r = run_scenario(&pool, &scenario, &cfg);
        assert_eq!(r.counts.total(), 120, "{}", scenario.name);
    }
}

#[test]
#[should_panic(expected = "slots")]
fn too_many_threads_for_target_is_rejected() {
    let target = CollectMax::new(2);
    let cfg = RunConfig {
        threads: 4,
        ops_per_thread: 10,
        seed: 0,
    };
    let _ = run_scenario(&target, &closed("closed_getts", OpMix::get_ts_only()), &cfg);
}

type MakeTarget = fn() -> Box<dyn WorkloadTarget>;

#[test]
fn every_stamp_adapter_keeps_its_op_kinds() {
    use WorkloadOp::{Compare, GetTs, Scan};
    let pool: MakeTarget = || {
        let make = Box::new(|| SimpleOneShot::<PackedBackend>::with_backend(2));
        let pool = OneShotPool::new("simple_oneshot", "packed", 2, 4, make);
        Box::new(pool.with_scan(Box::new(|o| {
            std::hint::black_box(o.observed_sum());
        })))
    };
    let service: MakeTarget = || {
        let config = ServiceConfig::new(2, 2);
        Box::new(ServiceTarget::new("sharded", config, IssueMode::Batch(4)))
    };
    // Object label and fresh target; a fresh worker runs `GetTs,
    // Compare, Compare, Scan` and must report `GetTs, GetTs, Compare,
    // Scan` (the history-starved first Compare substitutes GetTs).
    #[rustfmt::skip]
    let rows: [(_, MakeTarget); 6] = [
        ("collect_max", || Box::new(CollectMax::new(3))),
        ("growable", || Box::new(GrowableTimestamp::new())),
        ("simple_oneshot", pool),
        ("sharded", service),
        ("fcfs_lock", || Box::new(<ts_apps::FcfsLock>::new(2))),
        ("k_exclusion", || Box::new(<ts_apps::KExclusion>::new(2, 1))),
    ];
    for (name, make) in rows {
        let target = make();
        assert_eq!(target.object(), name);
        let mut worker = target.worker(0);
        let ran = [GetTs, Compare, Compare, Scan].map(|op| worker.step(op));
        assert_eq!(ran, [GetTs, GetTs, Compare, Scan], "{name}");
    }
}
