//! Closed-loop benchmark of the timestamp stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and prints every end-to-end
//! metric; `--trace 1` runs every workload traced plus the ladder rows
//! and prints every per-layer metric. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only when every output check passed
//! and no call failed. See the package's `README.md`.

mod check;
mod ladder;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use util::{median, quantile_u32};
use workloads::{run_window, Window, Workload};

/// Windows per untraced run.
const WINDOWS: u32 = 20;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("stamps_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("register.write_ns", "ns"),
    ("register.read_ns", "ns"),
    ("register.epoch_write_ns", "ns"),
    ("register.longlived.reads_per_op", "count"),
    ("register.longlived.writes_per_op", "count"),
    ("register.oneshot.reads_per_op", "count"),
    ("register.oneshot.writes_per_op", "count"),
    ("register.epoch_deferred", "count"),
    ("snapshot.scan_ns", "ns"),
    ("snapshot.recollects_per_scan", "count"),
    ("core.collect_max.get_ts_ns", "ns"),
    ("core.collect_max.solo_get_ts_ns", "ns"),
    ("core.collect_max.fast_hit_ratio", "ratio"),
    ("core.bounded.new_us", "us"),
    ("core.bounded.get_ts_ns", "ns"),
    ("core.bounded.scans_per_call", "count"),
    ("core.bounded.early_return_share", "ratio"),
    ("core.bounded.writes_per_call", "count"),
    ("service.get_ts_ns", "ns"),
    ("service.batch16_ns", "ns"),
    ("service.fast_hit_ratio", "ratio"),
    ("service.avg_batch_fill", "count"),
    ("service.lease_waits", "count"),
    ("replica.abd_write_ns", "ns"),
    ("replica.abd_read_ns", "ns"),
    ("replica.abd_write_solo_ns", "ns"),
    ("replica.rounds_per_op", "count"),
    ("replica.retry_share", "ratio"),
    ("replica.msgs_per_op", "count"),
    ("replica.backoff_steps_per_op", "count"),
    ("replica.repair_share", "ratio"),
    ("replica.restart_us", "us"),
    ("replica.resynced_per_restart", "count"),
    ("driver.timer_ns", "ns"),
    ("driver.check_ns_per_op", "ns"),
    ("driver.barrier_wait_us", "us"),
    ("driver.trace_overhead_share", "ratio"),
    ("driver.self_ns_per_op", "ns"),
    ("core.self_ns_per_op", "ns"),
    ("service.self_ns_per_op", "ns"),
    ("replica.self_ns_per_op", "ns"),
    ("failed_share", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A run's outcome: metrics in output order plus the call tallies.
#[derive(Debug)]
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Lines printed above the JSON result.
    notes: Vec<String>,
}

/// Failures a window's objects report beyond its calls and checks: an
/// unapplied fault event or an `Unavailable` quorum operation.
fn window_failed(win: &Window) -> u64 {
    let mut failed = win.failed;
    if win.counter("replica.faults_ok") == 0.0 {
        failed += 1;
    }
    let unavailable = win.counter("replica.unavailable");
    if unavailable > 0.0 {
        failed += unavailable as u64;
    }
    failed
}

/// Untraced run: `WINDOWS` windows of fresh objects and threads.
/// Throughput and set-up time are medians over windows; latency
/// percentiles pool every window's samples.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    let epoch = Instant::now();
    let dur = Duration::from_secs_f64(seconds / f64::from(WINDOWS));
    let (mut attempted, mut failed) = (0, 0);
    let (mut ops, mut stamps, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let pooled = WINDOWS as usize * workloads::CLIENTS * workloads::SAMPLE_CAP;
    let (mut op_ns, mut round_ns) = (workloads::prefaulted(pooled), workloads::prefaulted(pooled));
    let mut notes = Vec::new();
    let mut pinned = true;
    for i in 0..u64::from(WINDOWS) {
        let win = run_window(w, seed, i, dur, false, epoch);
        pinned &= win.pinned;
        attempted += win.attempted;
        failed += window_failed(&win);
        ops.push(win.attempted as f64 / win.elapsed_s);
        stamps.push(win.stamps as f64 / win.elapsed_s);
        setup.push(win.setup_s);
        notes.push(format!(
            "window {i}: ops_per_s={:.0} setup_s={:.6} calls timed={} rounds timed={}",
            ops[ops.len() - 1],
            win.setup_s,
            win.op_ns.len(),
            win.round_ns.len()
        ));
        op_ns.extend_from_slice(&win.op_ns);
        round_ns.extend_from_slice(&win.round_ns);
    }
    notes.push(format!(
        "latency samples: {} calls, {} rounds; clients pinned to their own CPUs: {}",
        op_ns.len(),
        round_ns.len(),
        pinned
    ));
    let metrics = vec![
        ("ops_per_s", "1/s", median(&ops)),
        ("stamps_per_s", "1/s", median(&stamps)),
        ("op_p50_ns", "ns", quantile_u32(&mut op_ns, 0.50)),
        ("op_p99_ns", "ns", quantile_u32(&mut op_ns, 0.99)),
        (
            "round_p50_us",
            "us",
            quantile_u32(&mut round_ns, 0.50) / 1e3,
        ),
        (
            "round_p99_us",
            "us",
            quantile_u32(&mut round_ns, 0.99) / 1e3,
        ),
        ("setup_s", "s", median(&setup)),
        ("peak_rss_mb", "MB", util::peak_rss_mb()),
    ];
    Report {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Traced run: the named workload untraced and traced, every other
/// workload traced, then the ladder rows.
fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let epoch = Instant::now();
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let base = run_window(w, seed, 0, secs(0.2), false, epoch);
    let mut wins: Vec<(Workload, Window)> = Vec::new();
    for x in Workload::ALL {
        let share = if x == w { 0.2 } else { 0.1 };
        wins.push((x, run_window(x, seed, 0, secs(share), true, epoch)));
    }
    let (ladder_rows, ladder_failed) = ladder::run(seed, secs(0.02));

    let of = |x: Workload| {
        &wins
            .iter()
            .find(|(y, _)| *y == x)
            .expect("every workload ran")
            .1
    };
    let own = of(w);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    let span_ns = |win: &Window, name: &str| win.tracer.agg(name).mean_ns();

    let (ll, svc, one, rep) = (
        of(Workload::LonglivedGetts),
        of(Workload::ServiceIssue),
        of(Workload::OneshotRounds),
        of(Workload::ReplicatedFaults),
    );
    let ops = |win: &Window| win.attempted as f64 / win.elapsed_s;
    let attempted: u64 = base.attempted + wins.iter().map(|(_, x)| x.attempted).sum::<u64>();
    let failed: u64 = window_failed(&base)
        + wins.iter().map(|(_, x)| window_failed(x)).sum::<u64>()
        + ladder_failed;
    let own_failed = window_failed(&base) + window_failed(own);
    let ll_calls = ll.counter("core.collect_max.calls");
    let one_calls = one.counter("core.bounded.calls");
    let rep_calls = rep.counter("replica.calls");
    let rep_rounds = rep.counter("replica.quorum_rounds");
    let restarts = rep.counter("replica.restarts");

    let mut values: Vec<(&'static str, f64)> = ladder_rows;
    values.extend([
        (
            "register.longlived.reads_per_op",
            ratio(ll.counter("register.longlived.reads"), ll_calls),
        ),
        (
            "register.longlived.writes_per_op",
            ratio(ll.counter("register.longlived.writes"), ll_calls),
        ),
        (
            "register.oneshot.reads_per_op",
            ratio(one.counter("register.oneshot.reads"), one_calls),
        ),
        (
            "register.oneshot.writes_per_op",
            ratio(one.counter("register.oneshot.writes"), one_calls),
        ),
        (
            "register.epoch_deferred",
            one.counter("register.epoch_deferred"),
        ),
        (
            "core.collect_max.get_ts_ns",
            span_ns(ll, "core.collect_max.get_ts"),
        ),
        (
            "core.collect_max.fast_hit_ratio",
            ratio(ll.counter("core.collect_max.fast_hits"), ll_calls),
        ),
        (
            "core.bounded.new_us",
            span_ns(one, "core.bounded.new") / 1e3,
        ),
        (
            "core.bounded.get_ts_ns",
            span_ns(one, "core.bounded.get_ts"),
        ),
        (
            "core.bounded.scans_per_call",
            ratio(one.counter("core.bounded.scans"), one_calls),
        ),
        (
            "core.bounded.early_return_share",
            ratio(one.counter("core.bounded.early_returns"), one_calls),
        ),
        (
            "core.bounded.writes_per_call",
            ratio(one.counter("core.bounded.writes"), one_calls),
        ),
        ("service.get_ts_ns", span_ns(svc, "service.get_ts")),
        ("service.batch16_ns", span_ns(svc, "service.get_ts_batch16")),
        (
            "service.fast_hit_ratio",
            svc.counter("service.fast_hit_ratio"),
        ),
        (
            "service.avg_batch_fill",
            svc.counter("service.avg_batch_fill"),
        ),
        ("service.lease_waits", svc.counter("service.lease_waits")),
        ("replica.rounds_per_op", ratio(rep_rounds, rep_calls)),
        (
            "replica.retry_share",
            ratio(rep.counter("replica.retries"), rep_rounds),
        ),
        (
            "replica.msgs_per_op",
            ratio(rep.counter("replica.msgs_sent"), rep_calls),
        ),
        (
            "replica.backoff_steps_per_op",
            ratio(rep.counter("replica.backoff_steps"), rep_calls),
        ),
        (
            "replica.repair_share",
            ratio(rep.counter("replica.repairs"), rep_rounds),
        ),
        ("replica.restart_us", span_ns(rep, "replica.restart") / 1e3),
        (
            "replica.resynced_per_restart",
            ratio(rep.counter("replica.resynced"), restarts),
        ),
        (
            "driver.check_ns_per_op",
            ratio(
                own.tracer.agg("driver.check").total_ns as f64,
                own.attempted as f64,
            ),
        ),
        (
            "driver.barrier_wait_us",
            span_ns(one, "driver.barrier") / 1e3,
        ),
        (
            "driver.trace_overhead_share",
            1.0 - ratio(ops(own), ops(&base)),
        ),
        (
            "failed_share",
            ratio(own_failed as f64, (base.attempted + own.attempted) as f64),
        ),
    ]);
    for (name, layer) in [
        ("driver.self_ns_per_op", "driver"),
        ("core.self_ns_per_op", "core"),
        ("service.self_ns_per_op", "service"),
        ("replica.self_ns_per_op", "replica"),
    ] {
        let self_ns = own.tracer.layer_self_ns(layer) as f64;
        values.push((name, ratio(self_ns, own.attempted as f64)));
    }

    let mut notes = Vec::new();
    let path = trace_path(w, seed);
    let threads: Vec<_> = wins
        .iter()
        .flat_map(|(x, win)| win.spans.iter().map(|s| (x.name(), s.clone())))
        .collect();
    match trace::write_spans(&path, &threads) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written ({}): {e}", path.display())),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = values
                .iter()
                .find(|(m, _)| *m == n)
                .map_or(f64::NAN, |(_, v)| *v);
            (n, u, v)
        })
        .collect();
    Report {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Where a traced run writes its spans: `out/` beside this package.
fn trace_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", w.name()))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} (2 clients, {threads} hardware threads)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    // A traced run may leave a metric without data (reported as 0);
    // an untraced run may not.
    let missing: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(_, _, v)| !v.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    for note in &report.notes {
        println!("{note}");
    }
    for (n, u, v) in &report.metrics {
        println!("{n} = {v} {u}");
    }
    if !missing.is_empty() {
        println!("no data for: {}", missing.join(", "));
    }
    let correct = report.failed == 0 && (args.trace || missing.is_empty());
    println!("{}", result_json(correct, &report));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &Report) -> Vec<(&'static str, &'static str)> {
        report.metrics.iter().map(|&(n, u, _)| (n, u)).collect()
    }

    #[test]
    fn short_untraced_runs_emit_every_end_to_end_metric_without_failures() {
        for w in Workload::ALL {
            let report = untraced(w, 7, 0.25);
            assert_eq!(names(&report), END_TO_END.to_vec(), "{}", w.name());
            assert_eq!(report.failed, 0, "{}", w.name());
            assert!(report.attempted > 0, "{}", w.name());
            for (n, _, v) in &report.metrics {
                assert!(v.is_finite() && *v > 0.0, "{}: {n} = {v}", w.name());
            }
        }
    }

    #[test]
    fn a_short_traced_run_emits_every_per_layer_metric() {
        let report = traced(Workload::OneshotRounds, 7, 3.0);
        assert_eq!(names(&report), PER_LAYER.to_vec());
        assert_eq!(report.failed, 0);
        for (n, _, v) in &report.metrics {
            assert!(v.is_finite(), "{n} = {v}");
        }
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let spec = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let count = spec.matches("\"name\"").count();
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}"
            );
        }
        for w in Workload::ALL {
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_fault_schedule_and_plan() {
        let a = workloads::fault_schedule(11, 0, 100_000);
        assert_eq!(a, workloads::fault_schedule(11, 0, 100_000));
        assert_ne!(a, workloads::fault_schedule(12, 0, 100_000));
        assert_eq!(workloads::fault_plan(11, 0), workloads::fault_plan(11, 0));
        // One replica down at a time: every crash is restarted before
        // the next one.
        for pair in a.chunks(2) {
            assert_eq!(pair[0].kind, check::FaultKind::Crash);
            assert_eq!(pair[1].kind, check::FaultKind::WipeRestart);
            assert_eq!(pair[0].replica, pair[1].replica);
            assert!(pair[0].at < pair[1].at);
        }
        assert!(a.windows(2).all(|p| p[0].at < p[1].at));
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "service_issue",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::ServiceIssue, 3, true)
        );
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }
}
