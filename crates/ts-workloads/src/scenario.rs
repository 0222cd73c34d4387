//! Traffic-shape descriptions: arrival processes, op mixes, churn.
//!
//! A [`Scenario`] is everything about a run except the object under
//! test and the thread count: how operations arrive (closed loop vs
//! open loop with bursts), which kinds of operations are issued (a
//! weighted [`OpMix`], typically Zipf-skewed so one kind dominates),
//! and whether worker threads churn (exit and get replaced mid-run,
//! exercising the epoch backend's orphan-garbage handoff).
//!
//! [`catalog`] returns the standard shapes every benchmark run covers;
//! deliberately deferred shapes are listed in ROADMAP.md (NUMA pinning).

use rand::rngs::StdRng;
use rand::Rng;

use ts_core::workload::WorkloadOp;

/// How operations arrive at the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Each worker issues its next op as soon as the previous one
    /// returns; latency is pure service time.
    ClosedLoop,
    /// Operations are *scheduled* at an aggregate rate, arriving in
    /// bursts; latency is measured from the scheduled arrival, so queue
    /// buildup behind a slow op is charged to the ops that waited
    /// (no coordinated omission).
    OpenLoop {
        /// Aggregate arrival rate across all workers, ops per second.
        rate_hz: u64,
        /// Arrivals come `burst` at a time (1 = evenly paced).
        burst: u32,
    },
}

/// Thread churn: workers live for a bounded number of ops, then their
/// OS thread exits and a replacement takes over the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// Ops each worker life performs before the thread exits.
    pub ops_per_life: u64,
}

/// A weighted mix over the three [`WorkloadOp`] kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weights indexed by [`WorkloadOp::index`].
    pub weights: [u32; 3],
}

impl OpMix {
    /// 100% `GetTs`.
    pub fn get_ts_only() -> Self {
        Self { weights: [1, 0, 0] }
    }

    /// Uniform across all three kinds.
    pub fn uniform() -> Self {
        Self { weights: [1, 1, 1] }
    }

    /// Zipf-distributed weights over a preference order: the op ranked
    /// `r` (1-based) gets weight `⌊1000 / r^s⌋`. With `s ≈ 1` the top
    /// op dominates without starving the tail — the classic skewed-mix
    /// shape ("getTS-heavy", "scan-heavy", ...).
    ///
    /// # Panics
    ///
    /// Panics if `ranked` repeats an op (some op would get no weight).
    pub fn zipf(ranked: [WorkloadOp; 3], s: f64) -> Self {
        let mut weights = [0u32; 3];
        for (rank0, op) in ranked.into_iter().enumerate() {
            assert_eq!(weights[op.index()], 0, "op {op:?} ranked twice");
            let w = (1000.0 / ((rank0 + 1) as f64).powf(s)).floor() as u32;
            weights[op.index()] = w.max(1);
        }
        Self { weights }
    }

    /// Samples one op kind (weights must not all be zero).
    pub fn sample(&self, rng: &mut StdRng) -> WorkloadOp {
        let total: u32 = self.weights.iter().sum();
        assert!(total > 0, "op mix has no weight");
        let mut roll = rng.random_range(0..total);
        for op in WorkloadOp::ALL {
            let w = self.weights[op.index()];
            if roll < w {
                return op;
            }
            roll -= w;
        }
        unreachable!("roll < sum of weights")
    }
}

/// One complete traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Report label ("closed_getts", "open_bursty", ...).
    pub name: &'static str,
    /// Arrival process.
    pub arrival: Arrival,
    /// Operation mix.
    pub mix: OpMix,
    /// Thread churn, if any.
    pub churn: Option<Churn>,
}

/// The standard scenario catalog — the shapes `bench_workloads` runs
/// for every (object × backend × thread-count) cell:
///
/// | name | arrival | mix | churn |
/// |---|---|---|---|
/// | `closed_getts` | closed loop | getTS only | — |
/// | `closed_getts_heavy` | closed loop | Zipf: getTS ≫ scan ≫ compare | — |
/// | `closed_scan_heavy` | closed loop | Zipf: scan ≫ getTS ≫ compare | — |
/// | `open_bursty` | open loop, bursts of 32 | Zipf: getTS-heavy | — |
/// | `churn` | closed loop | getTS only | exit/replace every `ops_per_life` |
///
/// `rate_hz` is the aggregate open-loop arrival rate; `ops_per_life`
/// bounds each churn life. Callers scale both to the machine (smoke
/// runs shrink them).
pub fn catalog(rate_hz: u64, ops_per_life: u64) -> Vec<Scenario> {
    let getts_heavy = OpMix::zipf(
        [WorkloadOp::GetTs, WorkloadOp::Scan, WorkloadOp::Compare],
        1.2,
    );
    let scan_heavy = OpMix::zipf(
        [WorkloadOp::Scan, WorkloadOp::GetTs, WorkloadOp::Compare],
        1.2,
    );
    vec![
        Scenario {
            name: "closed_getts",
            arrival: Arrival::ClosedLoop,
            mix: OpMix::get_ts_only(),
            churn: None,
        },
        Scenario {
            name: "closed_getts_heavy",
            arrival: Arrival::ClosedLoop,
            mix: getts_heavy,
            churn: None,
        },
        Scenario {
            name: "closed_scan_heavy",
            arrival: Arrival::ClosedLoop,
            mix: scan_heavy,
            churn: None,
        },
        Scenario {
            name: "open_bursty",
            arrival: Arrival::OpenLoop { rate_hz, burst: 32 },
            mix: getts_heavy,
            churn: None,
        },
        Scenario {
            name: "churn",
            arrival: Arrival::ClosedLoop,
            mix: OpMix::get_ts_only(),
            churn: Some(Churn { ops_per_life }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_weights_are_ordered_by_rank() {
        let mix = OpMix::zipf(
            [WorkloadOp::Scan, WorkloadOp::GetTs, WorkloadOp::Compare],
            1.2,
        );
        let w = mix.weights;
        assert!(w[WorkloadOp::Scan.index()] > w[WorkloadOp::GetTs.index()]);
        assert!(w[WorkloadOp::GetTs.index()] > w[WorkloadOp::Compare.index()]);
        assert!(w.iter().all(|&x| x >= 1));
    }

    #[test]
    #[should_panic(expected = "ranked twice")]
    fn zipf_rejects_duplicate_ranks() {
        let _ = OpMix::zipf(
            [WorkloadOp::GetTs, WorkloadOp::GetTs, WorkloadOp::Compare],
            1.0,
        );
    }

    #[test]
    fn sample_tracks_weights() {
        let mix = OpMix::zipf(
            [WorkloadOp::GetTs, WorkloadOp::Scan, WorkloadOp::Compare],
            1.2,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        // Expected shares: 1000 : 435 : 268 of 1703.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        let share0 = counts[0] as f64 / n as f64;
        assert!((0.55..0.65).contains(&share0), "getTS share {share0}");
    }

    #[test]
    fn get_ts_only_never_samples_other_ops() {
        let mix = OpMix::get_ts_only();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), WorkloadOp::GetTs);
        }
    }

    #[test]
    fn catalog_covers_the_required_shapes() {
        let cat = catalog(10_000, 500);
        assert!(cat.len() >= 4, "acceptance needs >= 4 scenario shapes");
        assert!(cat.iter().any(|s| s.churn.is_some()), "churn shape missing");
        assert!(
            cat.iter()
                .any(|s| matches!(s.arrival, Arrival::OpenLoop { .. })),
            "open-loop shape missing"
        );
        let names: std::collections::HashSet<_> = cat.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
    }
}
