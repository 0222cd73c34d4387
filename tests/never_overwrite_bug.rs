//! Deterministic reproduction of the Section 6.1 concurrency hazard.
//!
//! The paper explains why Algorithm 4 overwrites an invalid register
//! when `R[j].rnd < myrnd` (lines 10–11): without the overwrite, a stale
//! phase-opening write can *re-validate* previously invalidated
//! registers, letting a later `getTS` return a turn timestamp smaller
//! than an earlier, already-returned one.
//!
//! This test drives the model through exactly the scenario sketched in
//! Section 6.1 (two racing scanners `p`/`q` with divergent views, an old
//! write landing between their scans, then `a` and `b` taking turns) and
//! shows:
//!
//! - with [`OverwritePolicy::Never`], the timestamp property breaks;
//! - with the paper's policy, the same schedule is harmless.

use timestamp_suite::ts_core::model::BoundedModel;
use timestamp_suite::ts_core::{OverwritePolicy, Timestamp};
use timestamp_suite::ts_model::{solo_run, StepOutcome, System};

/// Drives the Section 6.1 schedule; returns `(a_ts, b_ts, violation?)`.
fn drive(policy: OverwritePolicy) -> (Timestamp, Timestamp, bool) {
    // n = 8 processes, m = ⌈2√8⌉ = 6 model registers (0-based indices;
    // paper register R[j] is model register j−1).
    let mut sys = System::new(BoundedModel::with_policy(8, policy));
    let budget = 100_000;

    // p1: the stale writer. It sees an all-⊥ array and pauses poised to
    // open phase 1, i.e. to write R[1] = ⟨(p1), 1⟩.
    let out = solo_run(&mut sys, 1, &[], budget).unwrap();
    assert_eq!(out.covered(), Some(0), "stale writer must cover R[1]");

    // p0 completes: R[1] = ⟨(p0), 1⟩, timestamp (1, 0).
    assert_eq!(
        sys.run_solo_to_completion(0, budget).unwrap(),
        Timestamp::new(1, 0)
    );
    // p2 completes: opens phase 2, R[2] = ⟨(p0, p2), 2⟩, timestamp (2, 0).
    assert_eq!(
        sys.run_solo_to_completion(2, budget).unwrap(),
        Timestamp::new(2, 0)
    );
    // p3 completes: finds R[1] valid, invalidates it (R[1] = ⟨(p3), 2⟩),
    // timestamp (2, 1).
    assert_eq!(
        sys.run_solo_to_completion(3, budget).unwrap(),
        Timestamp::new(2, 1)
    );

    // p (= p4): finds R[1] invalid, scans, and pauses poised to open
    // phase 3 with its view (last(R[1]) = p3).
    let out = solo_run(&mut sys, 4, &[0, 1], budget).unwrap();
    assert_eq!(out.covered(), Some(2), "p must cover R[3]");

    // The stale write lands: p1 overwrites R[1] = ⟨(p1), 1⟩ — an *old*
    // round-1 value.
    let wrote = sys.step(1).unwrap();
    assert!(
        matches!(wrote, StepOutcome::Wrote { reg: 0, .. }),
        "stale writer writes R[1]: {wrote:?}"
    );

    // q (= p5): scans *after* the stale write (its view has
    // last(R[1]) = p1) and pauses poised to open phase 3 too.
    let out = solo_run(&mut sys, 5, &[0, 1], budget).unwrap();
    assert_eq!(out.covered(), Some(2), "q must cover R[3]");

    // p writes first and completes with (3, 0).
    assert_eq!(
        sys.run_solo_to_completion(4, budget).unwrap(),
        Timestamp::new(3, 0)
    );

    // a (= p6) runs to completion against p's view of phase 3.
    let a_ts = sys.run_solo_to_completion(6, budget).unwrap();

    // q's stale phase-opening write lands; q completes with (3, 0).
    assert_eq!(
        sys.run_solo_to_completion(5, budget).unwrap(),
        Timestamp::new(3, 0)
    );

    // b (= p7) runs strictly after a completed.
    let b_ts = sys.run_solo_to_completion(7, budget).unwrap();

    (a_ts, b_ts, sys.check_property().is_some())
}

#[test]
fn never_overwrite_inverts_timestamps() {
    let (a_ts, b_ts, violated) = drive(OverwritePolicy::Never);
    // a's turn timestamp...
    assert_eq!(a_ts, Timestamp::new(3, 2));
    // ...comes out *larger* than b's, although a happened before b:
    assert_eq!(b_ts, Timestamp::new(3, 1));
    assert!(
        !Timestamp::compare(&a_ts, &b_ts),
        "the bug: compare({a_ts}, {b_ts}) is false though a → b"
    );
    assert!(violated, "the model checker must flag the history");
}

#[test]
fn paper_policy_survives_the_same_schedule() {
    let (a_ts, b_ts, violated) = drive(OverwritePolicy::Paper);
    assert!(
        Timestamp::compare(&a_ts, &b_ts),
        "paper policy must order a = {a_ts} before b = {b_ts}"
    );
    assert!(!violated);
}

#[test]
fn always_overwrite_survives_the_same_schedule() {
    let (a_ts, b_ts, violated) = drive(OverwritePolicy::Always);
    assert!(Timestamp::compare(&a_ts, &b_ts), "a = {a_ts}, b = {b_ts}");
    assert!(!violated);
}

/// Random schedules do *not* find the hazard: `RandomScheduler` found it
/// in 0 of 4,000 seeds at each of n = 6, 7 and 8, so this test asserts
/// nothing. It only reports whether its 400 seeds hit the bug, and
/// keeps the random search compiled and running against the `Never`
/// policy. The hand-built schedule above is the only demonstration of
/// the bug; making a search find it by itself is the ROADMAP item
/// "The model checker finds the paper's Section 6.1 bug by itself".
#[test]
fn random_search_also_finds_the_never_bug() {
    use timestamp_suite::ts_model::RandomScheduler;
    let found = (0..400u64).any(|seed| {
        RandomScheduler::new(seed)
            .run(BoundedModel::with_policy(8, OverwritePolicy::Never))
            .violation
            .is_some()
    });
    // Expected to miss (see above); the deterministic tests are the
    // load-bearing ones.
    if !found {
        eprintln!("note: random search missed the Never bug in 400 seeds, as it does at n <= 8");
    }
}
