//! Model checking the paper's algorithms: exhaustive interleaving
//! exploration for small instances, randomized schedules for larger
//! ones, and detection checks against deliberately broken objects.

use timestamp_suite::ts_core::model::{BoundedModel, CollectMaxModel, SimpleModel};
use timestamp_suite::ts_model::toy::{ConstantAlgorithm, CounterAlgorithm};
use timestamp_suite::ts_model::{Explorer, PctScheduler, RandomScheduler};

#[test]
fn simple_model_exhaustive_up_to_four_processes() {
    for n in 2..=4 {
        let report = Explorer::new(SimpleModel::new(n), 1).run();
        assert!(report.violation.is_none(), "n={n}: {:?}", report.violation);
        assert!(report.executions > 0, "n={n}");
        assert!(!report.truncated, "n={n}");
        assert!(!report.depth_bounded, "n={n}: exploration was depth-cut");
    }
}

#[test]
fn bounded_model_exhaustive_two_processes() {
    let report = Explorer::new(BoundedModel::new(2), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    // The exploration is deterministic, so its size is pinned exactly:
    // a change to the accesses Algorithm 4 makes moves these counts.
    assert_eq!((report.transitions, report.executions), (94, 10));
    assert!(!report.depth_bounded);
}

#[test]
fn bounded_model_exhaustive_three_processes() {
    let report = Explorer::new(BoundedModel::new(3), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.pruned > 0, "state merging must engage");
    assert!(!report.depth_bounded);
}

#[test]
fn bounded_model_exhaustive_four_processes() {
    let report = Explorer::new(BoundedModel::new(4), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.truncated);
    assert!(!report.depth_bounded);
}

#[test]
fn never_overwrite_policy_is_clean_for_three_processes_exhaustively() {
    // The Section 6.1 bug needs at least 6 distinct participants: an
    // exhaustive n = 5 run under the Never policy is clean (29.7M
    // states), and with 3 processes, checked here, so is every
    // schedule. (The bug itself is demonstrated at n = 8 in
    // tests/never_overwrite_bug.rs.)
    use timestamp_suite::ts_core::OverwritePolicy;
    let report = Explorer::new(BoundedModel::with_policy(3, OverwritePolicy::Never), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn collect_max_exhaustive_long_lived() {
    // 2 processes × 2 ops and 3 × 1 op.
    let report = Explorer::new(CollectMaxModel::new(2), 2).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.executions > 0, "vacuous exploration");
    assert!(!report.truncated);
    assert!(!report.depth_bounded);
    let report = Explorer::new(CollectMaxModel::new(3), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.depth_bounded);
}

#[test]
fn collect_max_fast_path_exhaustive_long_lived() {
    // The cached-max fast path (one cache read + one CAS, collect
    // fallback on a lost race): exhaustively explored at 2 processes ×
    // 2 ops and 3 × 1 op. The CAS is one atomic model step, so the
    // explorer covers every stalled-CAS window — including a process
    // parking between its cache advance and its register write while
    // others complete — and any stale max would surface as a property
    // violation here.
    let report = Explorer::new(CollectMaxModel::with_cache(2), 2).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.executions > 0, "vacuous exploration");
    assert!(!report.truncated);
    assert!(!report.depth_bounded);
    let report = Explorer::new(CollectMaxModel::with_cache(3), 1).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.depth_bounded);
}

#[test]
fn collect_max_fast_exhaustive_three_processes_two_ops() {
    // 3 processes × 2 ops each: the configuration where a stalled CAS
    // from a *previous* operation can overlap a later fast-path read.
    // Out of reach for plain enumeration; the DPOR reduction brings it
    // into the CI budget.
    let report = Explorer::new(CollectMaxModel::with_cache(3), 2).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.executions > 0, "vacuous exploration");
    assert!(!report.truncated);
    assert!(!report.depth_bounded);
}

#[test]
fn collect_max_fast_path_pct_sweep_three_processes() {
    // PCT depth-6 on the fast-path model, mirroring the classic-path
    // sweep below. Stalled-CAS overtakes are depth-2/3 ordering bugs;
    // depth 6 also covers chained overtakes across consecutive ops, and
    // the DPOR-era exhaustive gates freed enough budget to double it.
    for seed in 0..100u64 {
        let report = PctScheduler::new(seed, 6)
            .ops_per_process(2)
            .run(CollectMaxModel::with_cache(3));
        assert!(report.steps > 0, "seed {seed}: empty run");
        assert!(
            report.violation.is_none(),
            "seed {seed}: {:?}",
            report.violation
        );
    }
}

#[test]
fn collect_max_pct_sweep_three_processes() {
    // PCT (depth-6: five priority change points) at 3 processes × 2
    // ops, matching the seeded-schedule coverage SimpleOneShot gets
    // from `random_schedules_stay_clean_across_algorithms`. Depth-2/3
    // ordering bugs — a stalled collector overtaken by writers — are
    // PCT's sweet spot and remain covered; depth 6 additionally probes
    // multi-op overtake chains, and stays in the same CI budget.
    for seed in 0..100u64 {
        let report = PctScheduler::new(seed, 6)
            .ops_per_process(2)
            .run(CollectMaxModel::new(3));
        assert!(report.steps > 0, "seed {seed}: empty run");
        assert!(
            report.violation.is_none(),
            "seed {seed}: {:?}",
            report.violation
        );
    }
}

#[test]
fn pct_sweeps_stay_clean_suite_wide() {
    // The same PCT coverage for the other real algorithm models, so
    // every ts-core model gets exhaustive + random + PCT checking.
    for seed in 0..40u64 {
        let report = PctScheduler::new(seed, 6).run(SimpleModel::new(8));
        assert!(report.violation.is_none(), "simple seed {seed}");
        let report = PctScheduler::new(seed, 6).run(BoundedModel::new(6));
        assert!(report.violation.is_none(), "bounded seed {seed}");
    }
}

#[test]
fn random_schedules_stay_clean_across_algorithms() {
    for seed in 0..30u64 {
        let r = RandomScheduler::new(seed).run(SimpleModel::new(12));
        assert!(r.violation.is_none(), "simple seed {seed}");
        let r = RandomScheduler::new(seed).run(BoundedModel::new(10));
        assert!(r.violation.is_none(), "bounded seed {seed}");
        let r = RandomScheduler::new(seed)
            .ops_per_process(3)
            .run(CollectMaxModel::new(5));
        assert!(r.violation.is_none(), "collectmax seed {seed}");
        let r = RandomScheduler::new(seed)
            .ops_per_process(3)
            .run(CollectMaxModel::with_cache(5));
        assert!(r.violation.is_none(), "collectmax-fast seed {seed}");
    }
}

#[test]
fn broken_algorithms_are_detected_not_vacuously_passed() {
    // The toy counter is correct at n ≤ 3 and broken at n = 4; the
    // constant object is broken immediately. If these assertions ever
    // fail, the checker itself has regressed.
    assert!(Explorer::new(CounterAlgorithm::new(3), 1)
        .run()
        .violation
        .is_none());
    assert!(Explorer::new(CounterAlgorithm::new(4), 1)
        .run()
        .violation
        .is_some());
    assert!(Explorer::new(ConstantAlgorithm::new(2), 1)
        .run()
        .violation
        .is_some());
}

#[test]
fn explorer_counterexamples_replay() {
    use timestamp_suite::ts_model::System;
    let report = Explorer::new(CounterAlgorithm::new(4), 1).run();
    let violation = report.violation.expect("counter breaks at n=4");
    let mut sys = System::new(CounterAlgorithm::new(4));
    for &pid in &violation.schedule {
        sys.step(pid).unwrap();
    }
    assert!(sys.check_property().is_some());
}
