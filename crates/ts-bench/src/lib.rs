//! Benchmark harness: workload generators and table machinery for
//! regenerating every table and figure of the paper.
//!
//! Each experiment (E1, E2, ...) has a binary in `src/bin/` that prints
//! a markdown table (and optionally JSON) to stdout:
//!
//! | Binary | Experiment | Paper artifact |
//! |---|---|---|
//! | `table_oneshot_space` | E1 | Theorems 1.2/1.3 + Section 5 space table |
//! | `table_longlived_gap` | E2 | Theorem 1.1 + the one-shot/long-lived gap |
//! | `fig1_initial_covering` | E3 | Figure 1 |
//! | `fig2_inductive_step` | E4 | Figure 2 |
//! | `table_phase_accounting` | E5 | Lemma 6.5 / Claims 6.10, 6.13 |
//! | `table_3k_configurations` | E6 | Lemma 3.2 |
//! | `table_growable` | E7 | Section 7 extension |
//! | `table_ablation` | E9 | overwrite-policy ablation |
//! | `bench_workloads` | scenario grid | `ts-workloads` engine: object × backend × scenario × threads with latency percentiles; writes `BENCH_workloads.json` |
//! | `bench_explore` | model-checker reduction | full vs DPOR vs parallel explored-state counts; writes `BENCH_explore.json` |
//! | `chaos_campaign` | crash-stop chaos | minority faults, majority outage, wipe-restart resync, determinism; writes `CAMPAIGN_chaos.json` |
//! | `shrink_demo` | counterexample workflow | explore → shrink → trace on the toy counter at `n = 4` |
//!
//! Output contract: every table binary prints markdown normally and
//! *only* JSON lines (prose suppressed) when `TS_BENCH_JSON` is set —
//! one object per table for the table binaries ([`Table::emit`]), one
//! object per result row for `bench_workloads`; see [`note`].

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::thread;
use serde::Serialize;

use ts_core::{
    BoundedTimestamp, CollectMax, GetTsId, LongLivedTimestamp, OneShotTimestamp, OverwritePolicy,
    PhaseStats, SimpleOneShot, Timestamp,
};

/// A printable experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title (experiment id + artifact).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table: markdown for humans, or one JSON line in
    /// [`json_mode`].
    ///
    /// Every table binary goes through this method (and routes its
    /// prose through [`note`]), so under `TS_BENCH_JSON` stdout is
    /// *only* JSON lines — one object per table — with no markdown or
    /// commentary interleaved for downstream tooling to skip.
    pub fn emit(&self) {
        if json_mode() {
            println!("{}", serde_json::to_string(self).expect("tables serialize"));
        } else {
            println!("{}", self.to_markdown());
        }
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Whether the `TS_BENCH_JSON` environment variable selects
/// machine-readable output.
pub fn json_mode() -> bool {
    std::env::var_os("TS_BENCH_JSON").is_some()
}

/// Prints human-facing commentary (shape checks, captions) — suppressed
/// in [`json_mode`] so table binaries emit pure JSON lines there.
pub fn note(text: impl std::fmt::Display) {
    if !json_mode() {
        println!("{text}");
    }
}

/// Result of running a one-shot object with `n` concurrent threads.
#[derive(Debug, Clone, Serialize)]
pub struct OneShotRun {
    /// Processes / calls.
    pub n: usize,
    /// Registers the object allocated.
    pub allocated: usize,
    /// Registers actually written.
    pub written: usize,
    /// Whether all happens-before pairs compared correctly across two
    /// barrier-separated halves.
    pub ordered_ok: bool,
}

/// Most worker threads one half of [`run_concurrent_oneshot`] starts.
const ONESHOT_WORKERS: usize = 8;

/// Runs pids `0..n/2`, joins, then runs pids `n/2..n`: the join orders
/// every first-half call before every second-half call. Each half is
/// served by at most [`ONESHOT_WORKERS`] threads that take pids from a
/// shared counter, so large `n` never starts one thread per pid.
fn run_concurrent_oneshot<T: OneShotTimestamp>(
    ts: &T,
    n: usize,
) -> (Vec<Timestamp>, Vec<Timestamp>) {
    let half = n / 2;
    let round = |lo: usize, hi: usize| -> Vec<Timestamp> {
        let next = AtomicUsize::new(lo);
        thread::scope(|s| {
            let handles: Vec<_> = (0..(hi - lo).min(ONESHOT_WORKERS))
                .map(|_| {
                    s.spawn(|_| {
                        let mut stamps = Vec::new();
                        loop {
                            let p = next.fetch_add(1, Ordering::Relaxed);
                            if p >= hi {
                                return stamps;
                            }
                            stamps.push(ts.get_ts(p).expect("one-shot get_ts"));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
        .unwrap()
    };
    let first = round(0, half);
    let second = round(half, n);
    (first, second)
}

fn rounds_ordered(first: &[Timestamp], second: &[Timestamp]) -> bool {
    first.iter().all(|a| {
        second
            .iter()
            .all(|b| Timestamp::compare(a, b) && !Timestamp::compare(b, a))
    })
}

/// E1 workload: the simple `⌈n/2⌉`-register object under `n` threads.
pub fn run_simple_oneshot(n: usize) -> OneShotRun {
    let ts = SimpleOneShot::new(n);
    let (first, second) = run_concurrent_oneshot(&ts, n);
    OneShotRun {
        n,
        allocated: ts.registers(),
        written: ts.meter().snapshot().registers_written(),
        ordered_ok: rounds_ordered(&first, &second),
    }
}

/// E1 workload: Algorithm 4 one-shot (`⌈2√n⌉` registers) under `n`
/// threads. Also returns the phase statistics.
pub fn run_bounded_oneshot(n: usize) -> (OneShotRun, PhaseStats) {
    run_bounded_oneshot_with_policy(n, OverwritePolicy::Paper)
}

/// E9 workload: Algorithm 4 with an explicit overwrite policy.
pub fn run_bounded_oneshot_with_policy(
    n: usize,
    policy: OverwritePolicy,
) -> (OneShotRun, PhaseStats) {
    let ts = BoundedTimestamp::one_shot_with_policy(n, policy);
    let (first, second) = run_concurrent_oneshot(&ts, n);
    let stats = ts.phase_stats();
    (
        OneShotRun {
            n,
            allocated: OneShotTimestamp::registers(&ts),
            written: stats.registers_written,
            ordered_ok: rounds_ordered(&first, &second),
        },
        stats,
    )
}

/// E2 workload: long-lived collect-max, `n` threads × `ops` calls each.
pub fn run_collect_max(n: usize, ops: usize) -> OneShotRun {
    let ts = CollectMax::new(n);
    let mut prev_max: Option<Timestamp> = None;
    let mut ordered_ok = true;
    for _round in 0..ops {
        let outs: Vec<Timestamp> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let ts = &ts;
                    s.spawn(move |_| ts.get_ts(p).expect("collect-max get_ts"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let min = *outs.iter().min().unwrap();
        let max = *outs.iter().max().unwrap();
        if let Some(pm) = prev_max {
            ordered_ok &= Timestamp::compare(&pm, &min);
        }
        prev_max = Some(max);
    }
    OneShotRun {
        n,
        allocated: LongLivedTimestamp::registers(&ts),
        written: ts.meter().snapshot().registers_written(),
        ordered_ok,
    }
}

/// E5 workload: a budgeted Algorithm 4 object driven by `threads`
/// threads until the budget `m_calls` is consumed; returns the phase
/// statistics.
pub fn run_phase_accounting(m_calls: usize, threads: usize) -> PhaseStats {
    let ts = BoundedTimestamp::with_budget(m_calls);
    thread::scope(|s| {
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
    ts.phase_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## demo"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_is_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn simple_oneshot_workload_is_ordered_and_compact() {
        let run = run_simple_oneshot(8);
        assert!(run.ordered_ok);
        assert_eq!(run.allocated, 4);
        assert!(run.written <= 4);
    }

    #[test]
    fn bounded_oneshot_workload_meets_bounds() {
        let (run, stats) = run_bounded_oneshot(16);
        assert!(run.ordered_ok);
        assert!(stats.space_bound_holds());
        assert!(stats.invalidation_bound_holds());
    }

    #[test]
    fn oneshot_halves_call_every_pid_once_on_a_few_workers() {
        // A reused pid would fail the one-shot guard; a skipped one
        // would shorten its half.
        for n in [1, 2, 3, 17, 1024] {
            let ts = SimpleOneShot::new(n);
            let (first, second) = run_concurrent_oneshot(&ts, n);
            assert_eq!((first.len(), second.len()), (n / 2, n - n / 2));
            assert!(rounds_ordered(&first, &second), "n = {n}");
        }
    }

    #[test]
    fn collect_max_workload_is_ordered() {
        let run = run_collect_max(4, 3);
        assert!(run.ordered_ok);
        assert_eq!(run.written, 4);
    }

    #[test]
    fn phase_accounting_consumes_budget() {
        let stats = run_phase_accounting(64, 4);
        assert_eq!(stats.calls, 64); // admitted calls are capped at the budget
        assert!(stats.phase_bound_holds());
        assert!(stats.invalidation_bound_holds());
        assert!(stats.space_bound_holds());
    }

    #[test]
    fn timestamps_round_trip_through_serde() {
        let t = Timestamp::new(3, 1);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"rnd":3,"turn":1}"#);
        let back: Timestamp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let id = GetTsId::new(2, 5);
        let back: GetTsId = serde_json::from_str(&serde_json::to_string(&id).unwrap()).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn phase_stats_serialize_for_the_harness() {
        let ts = BoundedTimestamp::with_budget(4);
        for k in 0..4u32 {
            ts.get_ts_with_id(GetTsId::new(0, k)).unwrap();
        }
        let json = serde_json::to_string(&ts.phase_stats()).unwrap();
        assert!(json.contains("\"phases\""));
        assert!(json.contains("\"invalidation_writes\""));
    }
}
