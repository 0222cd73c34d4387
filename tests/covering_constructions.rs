//! Cross-crate integration of the lower-bound machinery: the covering
//! constructions driven end-to-end against the models of the paper's
//! algorithms, which re-run the real objects' `getTS` code.

use timestamp_suite::ts_core::model::{BoundedModel, CollectMaxModel, SimpleModel};
use timestamp_suite::ts_lowerbound::lemma21::probe;
use timestamp_suite::ts_lowerbound::longlived::{signature_recurrence, LongLivedConstruction};
use timestamp_suite::ts_lowerbound::oneshot::{OneShotConstruction, StepCase};
use timestamp_suite::ts_lowerbound::signature::OrderedSignature;
use timestamp_suite::ts_model::{solo_run, System};

#[test]
fn oneshot_construction_meets_theorem12_bound_for_alg4() {
    for n in [16usize, 32, 64, 128] {
        let report = OneShotConstruction::run(BoundedModel::new(n));
        assert!(
            report.final_covered as f64 >= report.lower_bound,
            "n={n}: covered {} < bound {:.2}",
            report.final_covered,
            report.lower_bound
        );
        assert!(
            report.case2_count as f64 <= (n as f64).log2(),
            "n={n}: Case 2 occurred {} times",
            report.case2_count
        );
    }
}

#[test]
fn oneshot_construction_figure1_is_l_constrained() {
    let report = OneShotConstruction::run(BoundedModel::new(64));
    let fig1 = &report.steps[0];
    let ordered = OrderedSignature::from_signature(&fig1.signature);
    // The shortest-prefix rule makes the configuration ℓ-constrained at
    // the moment of recording (the diagonal was *just* reached).
    assert!(
        ordered.diagonal_column(fig1.l).is_some(),
        "Figure 1 must show a column at the diagonal"
    );
}

#[test]
fn oneshot_inductive_steps_grow_j_monotonically() {
    let report = OneShotConstruction::run(BoundedModel::new(64));
    let mut last_j = 0;
    for step in &report.steps {
        assert!(step.j >= last_j, "j regressed at {}", step.label);
        last_j = step.j;
        if let Some(StepCase::Case2) = step.case {
            // Case 2 lowers ℓ by one; final ℓ accounts for all of them.
        }
    }
    assert_eq!(
        report.final_l,
        report.grid_width - report.case2_count,
        "ℓ bookkeeping mismatch"
    );
}

#[test]
fn simple_model_exhaustion_covers_all_pair_registers() {
    for n in [8usize, 16, 24] {
        let report = OneShotConstruction::run(SimpleModel::new(n));
        assert_eq!(report.final_covered, n / 2, "n={n}");
    }
}

#[test]
fn longlived_construction_scales() {
    for n in [6usize, 30, 90] {
        let report = LongLivedConstruction::run(CollectMaxModel::new(n));
        assert_eq!(report.reached_k, n / 2);
        assert!(report.covered >= report.lower_bound);
    }
}

#[test]
fn lemma21_probe_holds_along_the_construction() {
    // At a mid-construction configuration of Algorithm 4's model, pick
    // two coverers of R[1] as singleton blocks and two idle candidates:
    // the Lemma 2.1 disjunction must hold.
    let mut sys = System::new(BoundedModel::new(8));
    for p in 0..4 {
        let out = solo_run(&mut sys, p, &[], 100_000).unwrap();
        assert_eq!(out.covered(), Some(0));
    }
    let outcome = probe(&sys, &[0], &[1], 4, 5, &[0], 100_000);
    assert!(outcome.holds(), "{outcome:?}");
}

#[test]
fn signature_recurrence_terminates_fast_for_collect_max() {
    let (first, second, _) = signature_recurrence(CollectMaxModel::new(6), 2, 8);
    assert!(second > first);
    assert!(second <= 2, "collect-max coverings repeat immediately");
}
