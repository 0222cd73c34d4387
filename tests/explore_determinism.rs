//! Parallel exploration must be deterministic: the partitioned mode's
//! report — violation schedule, every counter — is a pure function of
//! the configuration, independent of worker count and thread timing.
//! The explorer guarantees this by construction (constant-size BFS
//! frontier, per-item state caches, associative merge with the
//! lexicographically least violation winning); these tests are the
//! regression net over that construction.

use timestamp_suite::ts_core::model::CollectMaxModel;
use timestamp_suite::ts_model::toy::{ConstantAlgorithm, CounterAlgorithm};
use timestamp_suite::ts_model::{CacheMode, Explorer};

#[test]
fn clean_model_reports_identical_across_thread_counts() {
    let reports: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&t| {
            Explorer::new(CollectMaxModel::new(3), 1)
                .with_threads(t)
                .run()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 4 threads");
    assert!(reports[0].violation.is_none());
    assert!(reports[0].executions > 0);
}

#[test]
fn violating_model_reports_identical_across_thread_counts() {
    let reports: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&t| {
            Explorer::new(CounterAlgorithm::new(4), 1)
                .with_threads(t)
                .run()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads");
    assert_eq!(reports[0], reports[2], "1 vs 4 threads");
    let violation = reports[0]
        .violation
        .as_ref()
        .expect("counter breaks at n=4");
    assert!(!violation.schedule.is_empty());
}

#[test]
fn repeated_runs_are_identical() {
    for threads in [1, 3] {
        let a = Explorer::new(CounterAlgorithm::new(4), 1)
            .with_threads(threads)
            .run();
        let b = Explorer::new(CounterAlgorithm::new(4), 1)
            .with_threads(threads)
            .run();
        assert_eq!(a, b, "threads={threads}");
    }
}

#[test]
fn determinism_holds_with_outcome_recording_and_exact_cache() {
    let a = Explorer::new(ConstantAlgorithm::new(3), 1)
        .with_threads(1)
        .with_cache(CacheMode::Exact)
        .record_outcomes(true)
        .run();
    let b = Explorer::new(ConstantAlgorithm::new(3), 1)
        .with_threads(4)
        .with_cache(CacheMode::Exact)
        .record_outcomes(true)
        .run();
    assert_eq!(a, b);
    assert!(a.violation.is_some());
    assert!(a.outcomes.as_ref().is_some_and(|o| !o.is_empty()));
}

#[test]
fn parallel_counterexample_is_the_lexicographic_minimum_of_candidates() {
    // Two runs at different thread counts must report the same
    // schedule, and that schedule must actually reproduce.
    use timestamp_suite::ts_model::System;
    let one = Explorer::new(CollectMaxModel::with_cache(2), 2)
        .with_threads(1)
        .run();
    let many = Explorer::new(CollectMaxModel::with_cache(2), 2)
        .with_threads(4)
        .run();
    assert_eq!(one, many);
    // This model is clean; the broken counter supplies the violating
    // counterpart.
    assert!(one.violation.is_none());

    let broken_one = Explorer::new(CounterAlgorithm::new(4), 1)
        .with_threads(1)
        .run();
    let broken_many = Explorer::new(CounterAlgorithm::new(4), 1)
        .with_threads(4)
        .run();
    let schedule_one = broken_one.violation.expect("violates").schedule;
    let schedule_many = broken_many.violation.expect("violates").schedule;
    assert_eq!(schedule_one, schedule_many);
    let mut sys = System::new(CounterAlgorithm::new(4));
    for &pid in &schedule_one {
        sys.step(pid).unwrap();
    }
    assert!(sys.check_property().is_some(), "counterexample must replay");
}
