//! Property and stress tests for the snapshot substrate.

use std::sync::Arc;

use proptest::prelude::*;
use ts_register::RegisterArray;
use ts_snapshot::{
    adaptive_scan, classic_double_collect_scan, double_collect_scan, helping_scan, helping_write,
    try_scan, HelpBoard, ScanPolicy, View,
};

proptest! {
    /// A quiescent scan returns exactly the written values, for any
    /// write pattern.
    #[test]
    fn quiescent_scan_is_exact(
        m in 1usize..12,
        writes in proptest::collection::vec((0usize..12, any::<u64>()), 0..40),
    ) {
        let array: RegisterArray<u64> = RegisterArray::new(m, 0);
        let mut expected = vec![0u64; m];
        for &(idx, v) in &writes {
            let idx = idx % m;
            array.write(idx, v).unwrap();
            expected[idx] = v;
        }
        let view = double_collect_scan(&array);
        prop_assert_eq!(view.values(), expected);
        // try_scan agrees when quiescent.
        let view2 = try_scan(&array, 2).unwrap();
        prop_assert!(view.same_writes(&view2));
    }

    /// Views with equal stamp vectors are `same_writes`; any single
    /// extra write breaks it.
    #[test]
    fn same_writes_tracks_stamps(m in 1usize..8, idx in 0usize..8) {
        let array: RegisterArray<u64> = RegisterArray::new(m, 0);
        let a = View::new(array.collect());
        let b = View::new(array.collect());
        prop_assert!(a.same_writes(&b));
        array.write(idx % m, 7).unwrap();
        let c = View::new(array.collect());
        prop_assert!(!a.same_writes(&c));
    }
}

proptest! {
    /// Every rung of the scan ladder returns the same quiescent view
    /// for any write pattern, across the block boundary capacities:
    /// the classic full-sweep baseline, the block-word-validated
    /// double-collect, the dirty-block adaptive retry and the helping
    /// scan are different retry strategies over one linearizable
    /// answer.
    #[test]
    fn scan_ladder_rungs_agree_when_quiescent(
        size_sel in 0usize..3,
        writes in proptest::collection::vec((0usize..65, any::<u64>()), 0..50),
    ) {
        let m = [63usize, 64, 65][size_sel];
        let array: RegisterArray<u64> = RegisterArray::new(m, 0);
        let mut expected = vec![0u64; m];
        for &(idx, v) in &writes {
            let idx = idx % m;
            array.write(idx, v).unwrap();
            expected[idx] = v;
        }
        let (classic, classic_out) = classic_double_collect_scan(&array);
        prop_assert_eq!(classic.values(), expected.clone());
        prop_assert_eq!(classic_out.recollect_passes, 0);
        let (adaptive, adaptive_out) = adaptive_scan(&array);
        prop_assert!(classic.same_writes(&adaptive));
        prop_assert_eq!(adaptive_out.recollect_passes, 0);
        prop_assert_eq!(adaptive_out.patched_registers, 0);
        let board = HelpBoard::new(1);
        let policy = ScanPolicy::default();
        let (helped, helped_out) = helping_scan(&array, &board, &policy);
        prop_assert!(classic.same_writes(&helped));
        prop_assert!(!helped_out.helped, "a quiescent scan never needs help");
    }
}

#[test]
fn scan_view_is_a_consistent_cut_of_two_linked_registers() {
    // Writer maintains r1 = f(r0) (here r1 = 2·r0) by writing r0 then
    // r1; a linearizable view must satisfy r1 ∈ {2·r0, 2·(r0−1)}.
    let array = Arc::new(RegisterArray::new(2, 0u64));
    crossbeam::scope(|s| {
        let w = Arc::clone(&array);
        s.spawn(move |_| {
            for k in 1..=5_000u64 {
                w.write(0, k).unwrap();
                w.write(1, 2 * k).unwrap();
            }
        });
        for _ in 0..2 {
            let a = Arc::clone(&array);
            s.spawn(move |_| {
                for _ in 0..500 {
                    let v = double_collect_scan(&a).values();
                    let (r0, r1) = (v[0], v[1]);
                    assert!(
                        r1 == 2 * r0 || (r0 > 0 && r1 == 2 * (r0 - 1)),
                        "inconsistent cut: r0={r0}, r1={r1}"
                    );
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn adaptive_and_helping_scans_return_consistent_cuts_under_storm() {
    // The linked-register invariant of the classic-scan test, but
    // against the upper rungs of the ladder and with the writer going
    // through `helping_write` so the help board is live: whichever way
    // a view was obtained — validated adaptively or adopted from a
    // helper — it must still be a consistent cut.
    let array = Arc::new(RegisterArray::new(2, 0u64));
    let board = Arc::new(HelpBoard::new(1));
    let policy = ScanPolicy {
        starvation_bound: 1,
    };
    let check = |v: Vec<u64>, rung: &str| {
        let (r0, r1) = (v[0], v[1]);
        assert!(
            r1 == 2 * r0 || (r0 > 0 && r1 == 2 * (r0 - 1)),
            "{rung} returned an inconsistent cut: r0={r0}, r1={r1}"
        );
    };
    crossbeam::scope(|s| {
        {
            let (a, b) = (Arc::clone(&array), Arc::clone(&board));
            s.spawn(move |_| {
                for k in 1..=4_000u64 {
                    // r0 then r1 = 2·r0, each write helping-aware so
                    // distressed scanners can adopt mid-storm.
                    helping_write(&a, &b, 0, 0, k).unwrap();
                    helping_write(&a, &b, 0, 1, 2 * k).unwrap();
                }
            });
        }
        {
            let a = Arc::clone(&array);
            s.spawn(move |_| {
                for _ in 0..400 {
                    check(adaptive_scan(&a).0.values(), "adaptive_scan");
                }
            });
        }
        {
            let (a, b) = (Arc::clone(&array), Arc::clone(&board));
            s.spawn(move |_| {
                let mut helped = 0u64;
                for _ in 0..400 {
                    let (view, out) = helping_scan(&a, &b, &policy);
                    check(view.values(), "helping_scan");
                    helped += u64::from(out.helped);
                }
                // Not asserted > 0: adoption depends on the schedule.
                // The corpus replay test pins a deterministic adoption.
                let _ = helped;
            });
        }
    })
    .unwrap();
    assert_eq!(
        board.distress_level(),
        0,
        "distress must be balanced at quiescence"
    );
}
