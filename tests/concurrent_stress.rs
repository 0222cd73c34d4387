//! Real-thread stress tests: barrier-separated rounds establish genuine
//! happens-before edges, and every cross-round timestamp pair must
//! compare correctly — for every concrete object in the crate.

use std::sync::Arc;

use timestamp_suite::ts_core::{
    BoundedTimestamp, CollectMax, GetTsId, GrowableTimestamp, LongLivedTimestamp, OneShotTimestamp,
    OverwritePolicy, SimpleOneShot, Timestamp,
};

fn assert_rounds_ordered(rounds: &[Vec<Timestamp>]) {
    for i in 0..rounds.len() {
        for j in i + 1..rounds.len() {
            for a in &rounds[i] {
                for b in &rounds[j] {
                    assert!(
                        Timestamp::compare(a, b),
                        "round {i} ts {a} !< round {j} ts {b}"
                    );
                    assert!(
                        !Timestamp::compare(b, a),
                        "round {j} ts {b} < round {i} ts {a}"
                    );
                }
            }
        }
    }
}

#[test]
fn simple_oneshot_eight_rounds_of_eight() {
    let rounds_n = 8;
    let per_round = 8;
    let ts = Arc::new(SimpleOneShot::new(rounds_n * per_round));
    let mut rounds = Vec::new();
    for r in 0..rounds_n {
        let outs: Vec<Timestamp> = crossbeam::thread::scope(|s| {
            let hs: Vec<_> = (0..per_round)
                .map(|i| {
                    let ts = Arc::clone(&ts);
                    let pid = r * per_round + i;
                    s.spawn(move |_| ts.get_ts(pid).unwrap())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        rounds.push(outs);
    }
    assert_rounds_ordered(&rounds);
    // Space: all ⌈n/2⌉ registers and no more.
    assert_eq!(
        ts.meter().snapshot().registers_written(),
        (rounds_n * per_round) / 2
    );
}

#[test]
fn bounded_oneshot_rounds_and_bounds() {
    let n = 128;
    let ts = Arc::new(BoundedTimestamp::one_shot(n));
    let mut rounds = Vec::new();
    for r in 0..8 {
        let outs: Vec<Timestamp> = crossbeam::thread::scope(|s| {
            let hs: Vec<_> = (0..n / 8)
                .map(|i| {
                    let ts = Arc::clone(&ts);
                    let pid = r * (n / 8) + i;
                    s.spawn(move |_| ts.get_ts(pid).unwrap())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        rounds.push(outs);
    }
    assert_rounds_ordered(&rounds);
    let stats = ts.phase_stats();
    assert!(stats.space_bound_holds(), "{stats:?}");
    assert!(stats.phase_bound_holds(), "{stats:?}");
    assert!(stats.invalidation_bound_holds(), "{stats:?}");
}

#[test]
fn bounded_budgeted_rounds_under_sound_policies() {
    // 1024 calls (m = 64 registers, rounds up to 63 in the packed rnd
    // field) from 4 threads, in rounds split by scope joins: every
    // stamp of a round must precede every stamp of the later rounds.
    let (budget, threads, rounds_n) = (1024, 4, 16);
    let per_thread = budget / (threads * rounds_n);
    for policy in [OverwritePolicy::Paper, OverwritePolicy::Always] {
        let ts = BoundedTimestamp::with_budget_and_policy(budget, policy);
        let mut rounds = Vec::new();
        for r in 0..rounds_n {
            let outs: Vec<Timestamp> = crossbeam::thread::scope(|s| {
                let hs: Vec<_> = (0..threads)
                    .map(|t| {
                        let ts = &ts;
                        s.spawn(move |_| {
                            (0..per_thread)
                                .map(|k| {
                                    let id = GetTsId::new(t as u32, (r * per_thread + k) as u32);
                                    ts.get_ts_with_id(id).unwrap()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            rounds.push(outs);
        }
        assert_rounds_ordered(&rounds);
        let stats = ts.phase_stats();
        assert_eq!(stats.calls, budget as u64, "{policy:?}");
        assert!(stats.space_bound_holds(), "{policy:?}: {stats:?}");
        assert!(stats.phase_bound_holds(), "{policy:?}: {stats:?}");
        assert!(stats.invalidation_bound_holds(), "{policy:?}: {stats:?}");
    }
}

#[test]
fn budgeted_object_under_oversubscription() {
    // More threads than budget: exactly `budget` calls succeed, the rest
    // fail cleanly, and the successful ones are still ordered.
    let budget = 48;
    let threads = 8;
    let per_thread = 10; // 80 attempts > 48 budget
    let ts = Arc::new(BoundedTimestamp::with_budget(budget));
    let results: Vec<Vec<Option<Timestamp>>> = crossbeam::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let ts = Arc::clone(&ts);
                s.spawn(move |_| {
                    (0..per_thread)
                        .map(|k| ts.get_ts_with_id(GetTsId::new(t as u32, k as u32)).ok())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();
    let granted: usize = results.iter().flatten().filter(|r| r.is_some()).count();
    assert_eq!(granted, budget);
    // Per-thread sequences must strictly increase (same thread = real
    // happens-before).
    for row in &results {
        let own: Vec<Timestamp> = row.iter().flatten().copied().collect();
        for w in own.windows(2) {
            assert!(Timestamp::compare(&w[0], &w[1]), "{} !< {}", w[0], w[1]);
        }
    }
}

#[test]
fn collect_max_long_lived_heavy_rounds() {
    let n = 16;
    let ts = Arc::new(CollectMax::new(n));
    let mut prev_max: Option<Timestamp> = None;
    for round in 0..10 {
        let outs: Vec<Timestamp> = crossbeam::thread::scope(|s| {
            let hs: Vec<_> = (0..n)
                .map(|p| {
                    let ts = Arc::clone(&ts);
                    s.spawn(move |_| ts.get_ts(p).unwrap())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let min = *outs.iter().min().unwrap();
        let max = *outs.iter().max().unwrap();
        if let Some(pm) = prev_max {
            assert!(
                Timestamp::compare(&pm, &min),
                "round {round}: {pm} !< {min}"
            );
        }
        prev_max = Some(max);
    }
    assert_eq!(ts.calls(), 160);
}

#[test]
fn growable_concurrent_rounds() {
    let ts = Arc::new(GrowableTimestamp::new());
    let mut prev_max: Option<Timestamp> = None;
    for round in 0..5u32 {
        let outs: Vec<Timestamp> = crossbeam::thread::scope(|s| {
            let hs: Vec<_> = (0..12u32)
                .map(|i| {
                    let ts = Arc::clone(&ts);
                    s.spawn(move |_| ts.get_ts_with_id(GetTsId::new(i, round)))
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let min = *outs.iter().min().unwrap();
        let max = *outs.iter().max().unwrap();
        if let Some(pm) = prev_max {
            assert!(Timestamp::compare(&pm, &min), "round {round}");
        }
        prev_max = Some(max);
    }
    // Space stays √-ish: 60 calls → well under 2√60 ≈ 15.5 + concurrency
    // slack; assert a generous cap to catch runaway growth.
    assert!(
        ts.registers_touched() <= 24,
        "growable touched {} registers for 60 calls",
        ts.registers_touched()
    );
}

#[test]
fn broken_objects_fail_the_round_check() {
    use timestamp_suite::ts_core::{BrokenConstant, BrokenStaleRead};
    let ts = BrokenConstant::new(4);
    let a = ts.get_ts(0).unwrap();
    let b = ts.get_ts(1).unwrap();
    assert!(!Timestamp::compare(&a, &b), "checker must be able to fail");
    let ts = BrokenStaleRead::new(4);
    let a = ts.get_ts(0).unwrap();
    let b = ts.get_ts(1).unwrap();
    assert!(!Timestamp::compare(&a, &b));
}
