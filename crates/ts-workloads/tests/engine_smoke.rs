//! Engine behavior tests: op accounting, arrival modes, churn lives,
//! and target coverage across backends.

use ts_core::workload::{StepGate, WorkloadOp, WorkloadTarget};
use ts_core::{
    BoundedTimestamp, BrokenCounter, CollectMax, CollectMaxFast, EpochBackend, GrowableTimestamp,
    OneShotPool, PackedBackend, SimpleOneShot,
};
use ts_replica::QuorumTsTarget;
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

/// Pauses `op` announces when run gated on a fresh worker of a fresh
/// target (the gate is released up front, so nothing blocks).
fn gated_pauses(make: MakeTarget, op: WorkloadOp) -> u64 {
    let gate = StepGate::new();
    gate.release_all();
    make().worker(0).step_gated(op, &gate);
    gate.progress().announced
}

#[test]
fn every_stamp_adapter_keeps_its_op_kinds_outputs_and_pauses() {
    use ts_core::ReplayGranularity::{MemoryAccess as Access, Op};
    use WorkloadOp::{Compare, GetTs, Scan};
    let full = [Some(GetTs), Some(GetTs), Some(Compare), Some(Scan)];
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
    // Replay-only one-shot: the history-starved Compare substitutes a
    // second GetTs, which the object refuses.
    let once = [Some(GetTs), None, None, None];
    // Object label, fresh target, replay granularity, the op kinds a
    // fresh worker returns for `GetTs, Compare, Compare, Scan` (`None`:
    // the op panics), whether `last_ts` then reports a stamp, and the
    // pauses a fresh worker's gated `GetTs` announces (the broken quorum
    // installs at one replica instead of two).
    #[rustfmt::skip]
    let rows: [(_, MakeTarget, _, _, _, _); 10] = [
        ("collect_max", || Box::new(CollectMax::new(3)), Access, full, true, 3 + 2),
        ("collect_max_fast", || Box::new(<CollectMaxFast>::new(2)), Access, full, true, 4),
        ("growable", || Box::new(GrowableTimestamp::new()), Op, full, true, 1),
        ("simple_oneshot", pool, Op, full, false, 1),
        ("broken_counter", || Box::new(BrokenCounter::new(2)), Access, once, true, 3),
        ("quorum_ts", || Box::new(QuorumTsTarget::new(2, 1)), Access, full, true, 5),
        ("quorum_ts_broken", || Box::new(QuorumTsTarget::broken(2, 1)), Access, full, true, 4),
        ("sharded", service, Op, full, false, 1),
        ("fcfs_lock", || Box::new(<ts_apps::FcfsLock>::new(2)), Op, full, false, 1),
        ("k_exclusion", || Box::new(<ts_apps::KExclusion>::new(2, 1)), Op, full, false, 1),
    ];
    for (name, make, granularity, ops, reports_last_ts, get_ts_pauses) in rows {
        let target = make();
        assert_eq!(target.object(), name);
        assert_eq!(target.replay_granularity(), granularity, "{name}");
        let mut worker = target.worker(0);
        for (op, expected) in [GetTs, Compare, Compare, Scan].into_iter().zip(ops) {
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.step(op)));
            assert_eq!(ran.ok(), expected, "{name}: {op:?}");
        }
        assert_eq!(worker.last_ts().is_some(), reports_last_ts, "{name}");
        assert_eq!(gated_pauses(make, GetTs), get_ts_pauses, "{name}");
        // A gated Compare announces only the op-start pause, also when a
        // fresh worker substitutes GetTs for it.
        assert_eq!(gated_pauses(make, Compare), 1, "{name}");
    }
}
