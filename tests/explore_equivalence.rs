//! Differential harness for the DPOR explorer.
//!
//! The DPOR reduction, the fingerprint cache, and the partitioned
//! parallel mode are all *supposed* to be invisible: they must find a
//! violation iff plain full enumeration does, and they must reach
//! exactly the same set of terminal outcomes. This harness checks that
//! equivalence on every model at small sizes, against two ground
//! truths:
//!
//! - **full**: exhaustive enumeration with the exact (collision-free)
//!   state cache — the pre-DPOR explorer;
//! - **raw**: exhaustive enumeration with *no* cache at all (pure tree
//!   walk), on the smallest configurations where that is feasible —
//!   this is the oracle the caches themselves are checked against.
//!
//! Any unsound footprint override, independence misclassification, or
//! fingerprint collision shows up here as a verdict or outcome-set
//! disagreement.

use std::hash::Hash;

use timestamp_suite::ts_core::model::{
    BoundedModel, BrokenCounterModel, CollectMaxModel, SimpleModel,
};
use timestamp_suite::ts_core::OverwritePolicy;
use timestamp_suite::ts_model::toy::{ConstantAlgorithm, CounterAlgorithm};
use timestamp_suite::ts_model::{
    reproduces, shrink, Algorithm, CacheMode, ExploreReport, Explorer, Machine, System,
};
use timestamp_suite::ts_replica::QuorumModel;

fn explorer<A: Algorithm + Clone>(algorithm: A, ops: usize) -> Explorer<A> {
    Explorer::new(algorithm, ops).record_outcomes(true)
}

/// Runs full-vs-DPOR-vs-parallel on one model and checks equivalence.
/// `check_raw` additionally runs the uncached tree walk (exponential —
/// smallest configurations only).
fn check<A>(label: &str, algorithm: A, ops: usize, expect_violation: bool, check_raw: bool)
where
    A: Algorithm + Clone + Send + Sync,
    A::Machine: Send + Sync,
    <A::Machine as Machine>::Value: Send + Sync,
    <A::Machine as Machine>::Output: Send + Sync,
{
    let full = explorer(algorithm.clone(), ops)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run();
    let dpor = explorer(algorithm.clone(), ops).run();
    let parallel = explorer(algorithm.clone(), ops).with_threads(2).run();

    for (mode, report) in [("full", &full), ("dpor", &dpor), ("parallel", &parallel)] {
        assert!(!report.depth_bounded, "{label}/{mode}: depth bound fired");
        assert_eq!(
            report.violation.is_some(),
            expect_violation,
            "{label}/{mode}: verdict {:?}",
            report.violation
        );
        verify_counterexample(label, mode, &algorithm, report);
    }

    assert_eq!(
        full.outcomes, dpor.outcomes,
        "{label}: full vs dpor outcome sets differ"
    );
    assert_eq!(
        full.outcomes, parallel.outcomes,
        "{label}: full vs parallel outcome sets differ"
    );

    if check_raw {
        let raw = explorer(algorithm.clone(), ops)
            .with_reduction(false)
            .with_cache(CacheMode::None)
            .run();
        assert_eq!(
            raw.violation.is_some(),
            expect_violation,
            "{label}/raw: verdict {:?}",
            raw.violation
        );
        assert_eq!(
            raw.outcomes, full.outcomes,
            "{label}: the exact cache changed the reachable outcomes"
        );
    }
}

/// A reported counterexample must replay step for step: rerunning the
/// schedule reproduces the same violating pair, and its 1-minimal
/// shrink still reproduces.
fn verify_counterexample<A>(
    label: &str,
    mode: &str,
    algorithm: &A,
    report: &ExploreReport<<A::Machine as Machine>::Output>,
) where
    A: Algorithm + Clone,
{
    let Some(violation) = &report.violation else {
        return;
    };
    let mut sys = System::new(algorithm.clone());
    for &pid in &violation.schedule {
        sys.step(pid)
            .unwrap_or_else(|e| panic!("{label}/{mode}: counterexample step failed: {e:?}"));
    }
    let replayed = sys
        .check_property()
        .unwrap_or_else(|| panic!("{label}/{mode}: counterexample does not replay"));
    assert_eq!(
        replayed, violation.property,
        "{label}/{mode}: replay found a different violating pair"
    );
    let minimized = shrink(algorithm, &violation.schedule);
    assert!(
        reproduces(algorithm, &minimized),
        "{label}/{mode}: minimized counterexample lost the violation"
    );
    assert!(minimized.len() <= violation.schedule.len());
}

#[test]
fn toy_counter_clean_sizes_agree() {
    check("counter_n2", CounterAlgorithm::new(2), 1, false, true);
    check("counter_n3", CounterAlgorithm::new(3), 1, false, true);
}

#[test]
fn toy_counter_violation_agrees_at_n4() {
    check("counter_n4", CounterAlgorithm::new(4), 1, true, false);
}

#[test]
fn constant_algorithm_violation_agrees() {
    check("constant_n2", ConstantAlgorithm::new(2), 1, true, true);
    check("constant_n3", ConstantAlgorithm::new(3), 1, true, true);
}

#[test]
fn broken_counter_twin_agrees_across_the_correctness_boundary() {
    check("broken_n3", BrokenCounterModel::new(3), 1, false, true);
    check("broken_n4", BrokenCounterModel::new(4), 1, true, false);
}

#[test]
fn collect_max_agrees() {
    check("collectmax_n2x2", CollectMaxModel::new(2), 2, false, true);
    check("collectmax_n3", CollectMaxModel::new(3), 1, false, false);
}

#[test]
fn collect_max_fast_agrees() {
    // Raw (uncached) ground truth on the single-op pair; the larger
    // configurations compare against the exact-cache oracle (a raw walk
    // of n=2 x 2 ops is ~2.7M paths — minutes in debug builds).
    check(
        "collectmax_fast_n2",
        CollectMaxModel::with_cache(2),
        1,
        false,
        true,
    );
    check(
        "collectmax_fast_n2x2",
        CollectMaxModel::with_cache(2),
        2,
        false,
        false,
    );
    check(
        "collectmax_fast_n3",
        CollectMaxModel::with_cache(3),
        1,
        false,
        false,
    );
}

#[test]
fn bounded_model_agrees() {
    // Algorithm 4's machine re-runs the production body, with the
    // default (any-register) footprints.
    check("bounded_n2", BoundedModel::new(2), 1, false, true);
    check("bounded_n3", BoundedModel::new(3), 1, false, false);
    let never = BoundedModel::with_policy(3, OverwritePolicy::Never);
    check("bounded_never_n3", never, 1, false, false);
}

#[test]
fn simple_model_agrees() {
    // Raw ground truth at n=2 only: the n=3 raw walk is ~9M paths.
    check("simple_n2", SimpleModel::new(2), 1, false, true);
    check("simple_n3", SimpleModel::new(3), 1, false, false);
    check("simple_n4", SimpleModel::new(4), 1, false, false);
}

#[test]
fn quorum_model_agrees() {
    check("quorum_n3_f1", QuorumModel::new(3, 1), 1, false, false);
    check(
        "quorum_broken_n2_f1",
        QuorumModel::broken(2, 1),
        1,
        true,
        true,
    );
    check(
        "quorum_crash_stop_n2_f1",
        QuorumModel::crash_stop(2, 1),
        1,
        false,
        false,
    );
    let skip_resync = QuorumModel::crash_skip_resync(2, 1);
    check("quorum_skip_resync_n2_f1", skip_resync, 1, true, false);
}

#[test]
fn fingerprint_cache_matches_exact_cache_under_reduction() {
    // Same DPOR search, exact vs fingerprint storage: identical reports
    // (states, transitions, prunes, verdict). A fingerprint collision
    // would break this.
    fn fp_check<A>(label: &str, algorithm: A, ops: usize)
    where
        A: Algorithm + Clone + Send + Sync,
        A::Machine: Send + Sync,
        <A::Machine as Machine>::Value: Send + Sync,
        <A::Machine as Machine>::Output: Send + Sync + Eq + Hash,
    {
        let exact = explorer(algorithm.clone(), ops)
            .with_cache(CacheMode::Exact)
            .run();
        let fp = explorer(algorithm, ops)
            .with_cache(CacheMode::Fingerprint)
            .run();
        assert_eq!(exact, fp, "{label}");
    }
    fp_check("counter_n4", CounterAlgorithm::new(4), 1);
    fp_check("broken_counter_n4", BrokenCounterModel::new(4), 1);
    fp_check("bounded_n3", BoundedModel::new(3), 1);
    fp_check("collectmax_n3", CollectMaxModel::new(3), 1);
    fp_check("collectmax_fast_n3", CollectMaxModel::with_cache(3), 1);
    fp_check("simple_n4", SimpleModel::new(4), 1);
    fp_check("quorum_n3_f1", QuorumModel::new(3, 1), 1);
    fp_check("quorum_crash_stop_n2_f1", QuorumModel::crash_stop(2, 1), 1);
}

#[test]
fn dpor_reduces_explored_states_substantially() {
    // The acceptance metric for the reduction machinery: on at least
    // one real model the DPOR explorer visits ≥ 5x fewer states than
    // full enumeration. SimpleModel's pairwise register sharing is the
    // showcase (~6.6x at n = 4); CollectMax n=3 must clear ≥ 4x.
    // (BENCH_explore.json tracks the same ratios.)
    let full = Explorer::new(SimpleModel::new(4), 1)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run();
    let dpor = Explorer::new(SimpleModel::new(4), 1).run();
    assert!(full.violation.is_none() && dpor.violation.is_none());
    assert!(
        dpor.states * 5 <= full.states,
        "expected ≥5x state reduction, got full={} dpor={}",
        full.states,
        dpor.states
    );

    let full = Explorer::new(CollectMaxModel::new(3), 1)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run();
    let dpor = Explorer::new(CollectMaxModel::new(3), 1).run();
    assert!(full.violation.is_none() && dpor.violation.is_none());
    assert!(
        dpor.states * 4 <= full.states,
        "expected ≥4x state reduction, got full={} dpor={}",
        full.states,
        dpor.states
    );
}
