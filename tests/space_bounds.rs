//! Space accounting across the full sweep of `n`/`M`, against every
//! closed-form bound in the paper (the EXPERIMENTS.md tables in test
//! form).

use timestamp_suite::ts_core::model::{BoundedModel, SimpleModel};
use timestamp_suite::ts_core::{
    BoundedTimestamp, CollectMax, GetTsId, LongLivedTimestamp, OneShotTimestamp, SimpleOneShot,
};
use timestamp_suite::ts_lowerbound::bounds::{
    bounded_upper_bound, longlived_lower_bound, oneshot_lower_bound, simple_upper_bound,
};
use timestamp_suite::ts_model::RandomScheduler;

#[test]
fn simple_allocation_matches_section5() {
    for n in 1..40 {
        assert_eq!(SimpleOneShot::new(n).registers(), simple_upper_bound(n));
    }
}

#[test]
fn alg4_allocation_matches_theorem13() {
    for n in 2..200 {
        let alloc = OneShotTimestamp::registers(&BoundedTimestamp::one_shot(n));
        assert_eq!(alloc, bounded_upper_bound(n).max(2), "n={n}");
        // and sits asymptotically above the Theorem 1.2 lower bound:
        assert!(alloc as f64 >= oneshot_lower_bound(n), "n={n}");
    }
}

#[test]
fn alg4_written_registers_never_exceed_allocation() {
    for n in [4usize, 9, 17, 33, 65, 129] {
        let ts = BoundedTimestamp::one_shot(n);
        for p in 0..n {
            ts.get_ts(p).unwrap();
        }
        let stats = ts.phase_stats();
        assert!(
            stats.registers_written < stats.m,
            "n={n}: the sentinel must stay unwritten ({stats:?})"
        );
    }
}

#[test]
fn longlived_baseline_sits_above_theorem11_bound() {
    for n in [6usize, 12, 60, 120] {
        let ts = CollectMax::new(n);
        for round in 0..3 {
            for p in 0..n {
                ts.get_ts(p).unwrap();
            }
            let _ = round;
        }
        let written = ts.meter().snapshot().registers_written();
        assert_eq!(written, n);
        assert!(
            written as f64 >= longlived_lower_bound(n),
            "n={n}: {written} registers < n/6−1"
        );
    }
}

#[test]
fn model_twins_agree_with_concrete_space_usage() {
    // The model and the real object must write the same number of
    // registers on sequential one-shot workloads.
    for n in [4usize, 8, 16, 32] {
        let real = BoundedTimestamp::one_shot(n);
        for p in 0..n {
            real.get_ts(p).unwrap();
        }
        let real_written = real.phase_stats().registers_written;

        let mut sys = timestamp_suite::ts_model::System::new(BoundedModel::new(n));
        for p in 0..n {
            sys.run_solo_to_completion(p, 1_000_000).unwrap();
        }
        assert_eq!(
            sys.registers_written(),
            real_written,
            "model/concrete divergence at n={n}"
        );
    }
}

#[test]
fn simple_model_twin_matches_concrete_outputs() {
    // Sequential one-shot runs must return identical timestamps from
    // the model and the real object, pid by pid.
    for n in [3usize, 6, 11] {
        let real = SimpleOneShot::new(n);
        let mut sys = timestamp_suite::ts_model::System::new(SimpleModel::new(n));
        for p in 0..n {
            let concrete = real.get_ts(p).unwrap();
            let modeled = sys.run_solo_to_completion(p, 10_000).unwrap();
            assert_eq!(concrete, modeled, "n={n} p={p}");
        }
    }
}

#[test]
fn bounded_model_twin_matches_concrete_outputs() {
    for n in [4usize, 10, 20] {
        let real = BoundedTimestamp::one_shot(n);
        let mut sys = timestamp_suite::ts_model::System::new(BoundedModel::new(n));
        for p in 0..n {
            let concrete = real.get_ts(p).unwrap();
            let modeled = sys.run_solo_to_completion(p, 100_000).unwrap();
            assert_eq!(concrete, modeled, "n={n} p={p}");
        }
    }
}

#[test]
fn random_model_runs_respect_space_bounds() {
    for n in [6usize, 10, 14] {
        for seed in 0..10 {
            let r = RandomScheduler::new(seed).run(BoundedModel::new(n));
            assert!(
                r.registers_written <= bounded_upper_bound(n).max(2),
                "n={n} seed {seed}: {} registers",
                r.registers_written
            );
            let r = RandomScheduler::new(seed).run(SimpleModel::new(n));
            assert!(r.registers_written <= simple_upper_bound(n));
        }
    }
}

#[test]
fn phase_accounting_bounds_hold_under_concurrency_sweep() {
    for &budget in &[16usize, 100, 500] {
        for &threads in &[2usize, 8] {
            let ts = BoundedTimestamp::with_budget(budget);
            crossbeam::thread::scope(|s| {
                for t in 0..threads {
                    let ts = &ts;
                    s.spawn(move |_| {
                        let mut k = 0u32;
                        while ts.get_ts_with_id(GetTsId::new(t as u32, k)).is_ok() {
                            k += 1;
                        }
                    });
                }
            })
            .unwrap();
            let stats = ts.phase_stats();
            assert!(stats.phase_bound_holds(), "{stats:?}");
            assert!(stats.invalidation_bound_holds(), "{stats:?}");
            assert!(stats.space_bound_holds(), "{stats:?}");
        }
    }
}
