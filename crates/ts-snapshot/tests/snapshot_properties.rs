//! Property and stress tests for the snapshot substrate.

use std::sync::Arc;

use proptest::prelude::*;
use ts_register::RegisterArray;
use ts_snapshot::{adaptive_scan, View};

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
        let (view, outcome) = adaptive_scan(&array);
        prop_assert_eq!(view.values(), expected);
        prop_assert_eq!(outcome.recollect_passes, 1, "one confirming stamp sweep");
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
    /// On a quiescent array a plain collect is exact, so the scan must
    /// return the very writes it read, across array sizes around 64.
    #[test]
    fn scan_agrees_with_a_plain_collect_when_quiescent(
        size_sel in 0usize..3,
        writes in proptest::collection::vec((0usize..65, any::<u64>()), 0..50),
    ) {
        let m = [63usize, 64, 65][size_sel];
        let array: RegisterArray<u64> = RegisterArray::new(m, 0);
        for &(idx, v) in &writes {
            array.write(idx % m, v).unwrap();
        }
        let collect = View::new(array.collect());
        let (scan, _) = adaptive_scan(&array);
        prop_assert!(collect.same_writes(&scan));
        prop_assert_eq!(collect.values(), scan.values());
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
                    let v = adaptive_scan(&a).0.values();
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
fn adaptive_scan_returns_consistent_cuts_under_storm() {
    // The linked-register invariant of the test above, on the packed
    // backend, with the scanner racing a writer for the writer's whole
    // run.
    let array = Arc::new(RegisterArray::new_packed(2, 0u32));
    crossbeam::scope(|s| {
        {
            let a = Arc::clone(&array);
            s.spawn(move |_| {
                for k in 1..=4_000u32 {
                    a.write(0, k).unwrap();
                    a.write(1, 2 * k).unwrap();
                }
            });
        }
        let a = Arc::clone(&array);
        s.spawn(move |_| {
            for _ in 0..400 {
                let v = adaptive_scan(&a).0.values();
                let (r0, r1) = (v[0], v[1]);
                assert!(
                    r1 == 2 * r0 || (r0 > 0 && r1 == 2 * (r0 - 1)),
                    "adaptive_scan returned an inconsistent cut: r0={r0}, r1={r1}"
                );
            }
        });
    })
    .unwrap();
}
