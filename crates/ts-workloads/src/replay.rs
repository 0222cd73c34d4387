//! Adversarial schedule replay: drive real timestamp objects along
//! model-checker traces.
//!
//! The `ts-model` Explorer and PCT schedulers find adversarial
//! interleavings — including counterexample schedules for deliberately
//! broken algorithms — but a schedule is only evidence about the
//! *model*. This module closes the loop: it takes a serialized
//! [`ReplayTrace`] and drives the **real** concurrent object (one OS
//! thread per trace process) along the recorded interleaving, using the
//! step-barrier protocol of [`ts_core::workload::StepGate`]:
//!
//! - every worker thread executes its operations through
//!   [`WorkloadWorker::step_gated`](ts_core::workload::WorkloadWorker::step_gated),
//!   pausing at its gate before each announced sub-step;
//! - the controller walks the trace in order and releases exactly one
//!   sub-step per recorded step, so shared-memory accesses land in
//!   trace order (at [`ReplayGranularity::MemoryAccess`]) or operations
//!   are sequenced at their recorded invocation points (at
//!   [`ReplayGranularity::Op`]);
//! - at every recorded response the controller checks the timestamp
//!   property over the replayed history and diffs the real output
//!   against the model's recorded output.
//!
//! At access granularity the replay is *deterministic*: every register
//! read and write is serialized in trace order. The `ts_core` models
//! re-run their objects' own `getTS` bodies, so a correct object must
//! reproduce the model outputs exactly — and a broken one must
//! reproduce the model's **violation**. The checked-in corpus under
//! `tests/traces/` (regenerated by [`corpus_traces`], replayed by
//! [`corpus_cases`]) keeps both directions as regression tests.
//!
//! # Example
//!
//! ```
//! use ts_core::CollectMax;
//! use ts_model::replay::trace_from_schedule;
//! use ts_core::model::CollectMaxModel;
//! use ts_workloads::replay::replay_trace;
//!
//! // Model an adversarial overlap on the register-only collect: p0
//! // stalls mid-collect while p1 completes, then p0 finishes. (Each op
//! // on n = 2 is invoke, 2 reads, write, return = 5 steps.)
//! let schedule = vec![0, 0, 1, 1, 1, 1, 1, 0, 0, 0];
//! let trace = trace_from_schedule(&CollectMaxModel::new(2), "collect_max", &schedule);
//!
//! // Replay it on real threads: gated, the real object runs the same
//! // body on its registers, pausing before every access.
//! let real = CollectMax::new(2);
//! let report = replay_trace(&real, &trace);
//! assert_eq!(report.steps_replayed, trace.steps.len());
//! assert!(report.violation.is_none());
//! assert_eq!(report.output_mismatches, 0, "access-granular replay is deterministic");
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ts_core::model::{BrokenCounterModel, CollectMaxModel};
use ts_core::workload::{ReplayGranularity, StepGate, WorkloadOp, WorkloadTarget};
use ts_core::{BrokenCounter, CollectMax, CollectMaxFast, GrowableTimestamp, Timestamp};
use ts_model::replay::{minimized_trace, trace_from_schedule, ReplayTrace, StepKind};
use ts_model::{CacheMode, Explorer, PctScheduler};
use ts_replica::{QuorumModel, QuorumTsCrashTarget, QuorumTsTarget};

use crate::histogram::LatencyHistogram;

/// How long the controller waits for a worker to finish a released
/// sub-step before declaring the replay stuck. Generous: a stall here
/// means a real protocol mismatch, not a slow machine.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// One operation completed during a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedOp {
    /// The process (worker slot).
    pub pid: usize,
    /// The process's invocation index.
    pub op_index: usize,
    /// Trace position (1-based logical time) of the invocation.
    pub invoked: u64,
    /// Trace position of the response.
    pub responded: u64,
    /// The real object's output, when its worker reports one
    /// ([`WorkloadWorker::last_ts`](ts_core::workload::WorkloadWorker::last_ts));
    /// `None` opts the op out of property and output checks.
    pub ts: Option<Timestamp>,
    /// The model's recorded output for this op (its `Debug` rendering).
    pub expected: Option<String>,
    /// Worker-observed completion rank: each worker thread stamps a
    /// shared counter the moment its op body returns, *independently of
    /// the controller's bookkeeping*. If the gate protocol is sound,
    /// ranks at the trace's `Return` steps are strictly increasing —
    /// see [`ReplayReport::worker_observed_return_order`].
    pub completion_seq: u64,
}

/// A timestamp-property violation observed while replaying.
///
/// `earlier` responded before `later` was invoked, yet their timestamps
/// do not compare `earlier < later` (or compare both ways).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayViolation {
    /// The op whose response preceded `later`'s invocation.
    pub earlier: ReplayedOp,
    /// The strictly later op.
    pub later: ReplayedOp,
}

impl std::fmt::Display for ReplayViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{}.{} -> p{}.{} but {:?} !< {:?}",
            self.earlier.pid,
            self.earlier.op_index,
            self.later.pid,
            self.later.op_index,
            self.earlier.ts,
            self.later.ts
        )
    }
}

/// Everything measured and checked while replaying one trace against
/// one target.
#[derive(Debug)]
pub struct ReplayReport {
    /// Object label from the target.
    pub object: &'static str,
    /// Backend label from the target.
    pub backend: &'static str,
    /// The granularity the target replayed at.
    pub granularity: ReplayGranularity,
    /// Trace steps the controller walked (all of them).
    pub steps_replayed: usize,
    /// The invocation/response events as the controller paced them —
    /// including invocations of operations the trace leaves pending (a
    /// counterexample's stalled writers). Invocation pacing is
    /// controller-defined by construction; the *worker-side* evidence
    /// that bodies really completed in the recorded order is
    /// [`worker_observed_return_order`](ReplayReport::worker_observed_return_order).
    pub events: Vec<(usize, usize, StepKind)>,
    /// Operations that completed within the trace.
    pub completed: Vec<ReplayedOp>,
    /// First timestamp-property violation over the replayed history,
    /// if any (expected exactly when the trace's model is broken).
    pub violation: Option<ReplayViolation>,
    /// Completed ops whose real output equaled the model's recording.
    pub output_matches: usize,
    /// Completed ops whose real output differed from the model's
    /// recording. Zero at [`ReplayGranularity::MemoryAccess`] when the
    /// trace's model re-runs the real object's code; usually nonzero at
    /// [`ReplayGranularity::Op`] or when replaying a trace against a
    /// *different* object family (order-only replay).
    pub output_mismatches: usize,
    /// Per-released-step controller latency (gate release + sub-step
    /// completion), nanoseconds.
    pub step_latency: LatencyHistogram,
    /// Wall-clock duration of the whole replay.
    pub elapsed_secs: f64,
}

impl ReplayReport {
    /// The invocation/response order as `(pid, op_index, kind)`
    /// triples, as paced by the controller along the trace.
    pub fn op_order(&self) -> &[(usize, usize, StepKind)] {
        &self.events
    }

    /// The completion order the *worker threads themselves* observed:
    /// `(pid, op_index)` sorted by [`ReplayedOp::completion_seq`].
    ///
    /// Unlike [`op_order`](ReplayReport::op_order), this is not derived
    /// from the controller's walk — each worker stamps a shared atomic
    /// counter when its op body returns. Equality with
    /// [`expected_completion_order`] is therefore real evidence that
    /// the gate protocol sequenced the bodies as recorded (a worker
    /// running ahead of its released steps would complete out of rank).
    pub fn worker_observed_return_order(&self) -> Vec<(usize, usize)> {
        let mut by_seq: Vec<&ReplayedOp> = self.completed.iter().collect();
        by_seq.sort_by_key(|op| op.completion_seq);
        by_seq.into_iter().map(|op| (op.pid, op.op_index)).collect()
    }
}

/// The order in which a sound replay must complete the trace's
/// *returning* op bodies, as `(pid, op_index)`.
///
/// A real op body finishes when its last released sub-step lands: at
/// [`ReplayGranularity::MemoryAccess`] that is the op's final
/// `Read`/`Write` step in the trace (its `Invoke` if it has no
/// accesses); at [`ReplayGranularity::Op`] the whole body runs at the
/// `Invoke` step. Note this can legitimately differ from the recorded
/// `Return` order — the model may delay a response (a local action)
/// past another process's whole operation. Diff
/// [`ReplayReport::worker_observed_return_order`] against this to
/// verify bodies really executed in released order.
pub fn expected_completion_order(
    trace: &ReplayTrace,
    granularity: ReplayGranularity,
) -> Vec<(usize, usize)> {
    let completed: std::collections::HashSet<(usize, usize)> =
        trace.completed_ops().into_iter().collect();
    let mut last_release: Vec<((usize, usize), usize)> = Vec::new();
    for (i, step) in trace.steps.iter().enumerate() {
        let releases = match step.kind {
            StepKind::Invoke => true,
            StepKind::Read | StepKind::Write => granularity == ReplayGranularity::MemoryAccess,
            StepKind::Return => false,
        };
        if !releases || !completed.contains(&(step.pid, step.op_index)) {
            continue;
        }
        match last_release
            .iter_mut()
            .find(|(op, _)| *op == (step.pid, step.op_index))
        {
            Some((_, idx)) => *idx = i,
            None => last_release.push(((step.pid, step.op_index), i)),
        }
    }
    last_release.sort_by_key(|&(_, idx)| idx);
    last_release.into_iter().map(|(op, _)| op).collect()
}

/// Replays `trace` against `target`, one real OS thread per trace
/// process, releasing sub-steps in the recorded order.
///
/// The target's [`replay_granularity`](WorkloadTarget::replay_granularity)
/// decides which recorded steps release a sub-step: at `MemoryAccess`,
/// every `Invoke`/`Read`/`Write` step does; at `Op`, only `Invoke`
/// steps do (the whole op body runs at its invocation point). Either
/// way `Return` steps record the response and run the property and
/// output checks.
///
/// Processes the trace leaves mid-operation (a counterexample's stalled
/// writer) are drained unpaced after the walk, so the call always
/// joins its threads.
///
/// # Panics
///
/// Panics if the trace is malformed ([`ReplayTrace::validate`]), if the
/// target has fewer slots than the trace has processes, or if a worker
/// stalls/underruns its announced sub-steps (a trace/implementation
/// mismatch — see [`ts_core::workload::GateError`]).
pub fn replay_trace(target: &dyn WorkloadTarget, trace: &ReplayTrace) -> ReplayReport {
    trace.validate().expect("replayable traces are well-formed");
    let n = trace.processes;
    assert!(
        target.slots() >= n,
        "target {} has {} slots but the trace has {} processes",
        target.object(),
        target.slots(),
        n
    );
    let granularity = target.replay_granularity();
    let gates: Vec<StepGate> = (0..n).map(|_| StepGate::new()).collect();
    let deposits: Vec<Mutex<Vec<(u64, Option<Timestamp>)>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let ops_per_pid: Vec<usize> = (0..n).map(|p| trace.ops_for(p)).collect();
    // Worker-side completion ranking, independent of the controller's
    // bookkeeping (see `ReplayedOp::completion_seq`).
    let completion_counter = std::sync::atomic::AtomicU64::new(0);

    let started = Instant::now();
    let (walk, step_latency) = std::thread::scope(|s| {
        for pid in 0..n {
            let gate = &gates[pid];
            let deposit = &deposits[pid];
            let ops = ops_per_pid[pid];
            let completion_counter = &completion_counter;
            s.spawn(move || {
                let mut worker = target.worker(pid);
                for _ in 0..ops {
                    worker.step_gated(WorkloadOp::GetTs, gate);
                    let seq = completion_counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    // Deposited before the next pause (the next op's
                    // start or `finish`), so a returned `release_next`
                    // for this op's last sub-step implies the deposit
                    // is visible.
                    deposit
                        .lock()
                        .expect("deposit lock")
                        .push((seq, worker.last_ts()));
                }
                gate.finish();
            });
        }

        let mut hist = LatencyHistogram::new();
        let walk = walk_trace(trace, granularity, &gates, &deposits, &mut hist);
        // Always drain before leaving the scope: workers parked on
        // un-released sub-steps (stalled mid-op by the trace, or left
        // over after a walk error) must run out or the join hangs.
        for gate in &gates {
            gate.release_all();
        }
        (walk, hist)
    });
    let elapsed_secs = started.elapsed().as_secs_f64();

    let walk = match walk {
        Ok(walk) => walk,
        Err(message) => panic!("replay of trace {:?} failed: {message}", trace.algorithm),
    };
    ReplayReport {
        object: target.object(),
        backend: target.backend(),
        granularity,
        steps_replayed: trace.steps.len(),
        events: walk.events,
        completed: walk.completed,
        violation: walk.violation,
        output_matches: walk.output_matches,
        output_mismatches: walk.output_mismatches,
        step_latency,
        elapsed_secs,
    }
}

struct Walk {
    events: Vec<(usize, usize, StepKind)>,
    completed: Vec<ReplayedOp>,
    violation: Option<ReplayViolation>,
    output_matches: usize,
    output_mismatches: usize,
}

/// The controller: walks the trace, releasing gates and recording the
/// replayed history. Errors (stalls, sub-step mismatches) are returned
/// so the caller can drain the workers before panicking.
fn walk_trace(
    trace: &ReplayTrace,
    granularity: ReplayGranularity,
    gates: &[StepGate],
    deposits: &[Mutex<Vec<(u64, Option<Timestamp>)>>],
    hist: &mut LatencyHistogram,
) -> Result<Walk, String> {
    let mut walk = Walk {
        events: Vec::new(),
        completed: Vec::new(),
        violation: None,
        output_matches: 0,
        output_mismatches: 0,
    };
    let mut invoked_at: Vec<Vec<u64>> = (0..trace.processes)
        .map(|p| vec![0; trace.ops_for(p)])
        .collect();
    let mut time = 0u64;
    for (i, step) in trace.steps.iter().enumerate() {
        time += 1;
        let release = match step.kind {
            StepKind::Invoke => true,
            StepKind::Read | StepKind::Write => granularity == ReplayGranularity::MemoryAccess,
            StepKind::Return => false,
        };
        if release {
            let begin = Instant::now();
            gates[step.pid]
                .release_next(STALL_TIMEOUT)
                .map_err(|e| format!("step {i} (p{}, {:?}): {e}", step.pid, step.kind))?;
            hist.record(begin.elapsed().as_nanos() as u64);
        }
        match step.kind {
            StepKind::Invoke => {
                invoked_at[step.pid][step.op_index] = time;
                walk.events
                    .push((step.pid, step.op_index, StepKind::Invoke));
            }
            StepKind::Return => {
                walk.events
                    .push((step.pid, step.op_index, StepKind::Return));
                let (completion_seq, ts) = deposits[step.pid]
                    .lock()
                    .expect("deposit lock")
                    .get(step.op_index)
                    .copied()
                    .ok_or_else(|| {
                        format!(
                            "step {i}: p{}.{} returned without a deposit — the gate \
                                 protocol should make this impossible",
                            step.pid, step.op_index
                        )
                    })?;
                let op = ReplayedOp {
                    pid: step.pid,
                    op_index: step.op_index,
                    invoked: invoked_at[step.pid][step.op_index],
                    responded: time,
                    ts,
                    expected: step.output.clone(),
                    completion_seq,
                };
                match (&op.ts, &op.expected) {
                    (Some(ts), Some(expected)) => {
                        if format!("{ts:?}") == *expected {
                            walk.output_matches += 1;
                        } else {
                            walk.output_mismatches += 1;
                        }
                    }
                    _ => walk.output_mismatches += 1,
                }
                if walk.violation.is_none() {
                    walk.violation = check_property(&walk.completed, &op);
                }
                walk.completed.push(op);
            }
            StepKind::Read | StepKind::Write => {}
        }
    }
    Ok(walk)
}

/// The timestamp property over the replayed history: every already
/// completed op that responded before `later` was invoked must compare
/// strictly below it (ops without reported timestamps are skipped).
fn check_property(completed: &[ReplayedOp], later: &ReplayedOp) -> Option<ReplayViolation> {
    let later_ts = later.ts?;
    for earlier in completed {
        let Some(earlier_ts) = earlier.ts else {
            continue;
        };
        if earlier.responded < later.invoked {
            let forward = Timestamp::compare(&earlier_ts, &later_ts);
            let backward = Timestamp::compare(&later_ts, &earlier_ts);
            if !forward || backward {
                return Some(ReplayViolation {
                    earlier: earlier.clone(),
                    later: later.clone(),
                });
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The trace corpus: deterministic regeneration + the standard replay
// cases. Checked-in copies live in `tests/traces/` at the workspace
// root; `tests/replay_corpus.rs` diffs them against `corpus_traces()`
// on every run, so the corpus can never go stale.
// ---------------------------------------------------------------------

/// A named corpus trace (see [`corpus_traces`]).
#[derive(Debug, Clone)]
pub struct TraceCorpusEntry {
    /// File stem under `tests/traces/` (`{name}.json`).
    pub name: &'static str,
    /// The regenerated trace.
    pub trace: ReplayTrace,
}

/// Regenerates the standard trace corpus, deterministically:
///
/// | name | source | violating |
/// |---|---|---|
/// | `broken_counter_n4_minimized` | Explorer counterexample on the broken-counter model at n = 4, shrunk to 1-minimal | yes |
/// | `collect_max_n2_pct` | PCT (seed 7, depth 3) schedule of collect-max, n = 2 × 2 ops | no |
/// | `collect_max_n3_stalled_writer` | hand-written: p0 stalls mid-collect across two complete ops, then finishes | no |
/// | `collect_max_fast_n2_stalled_cas` | hand-written fast-path stale-max probe (see below) | no |
/// | `quorum_ts_f1_n2_reordered_writeback` | hand-written: p0's write-back straddles p1's whole quorum op | no |
/// | `quorum_ts_n3_rotating_repair` | hand-written: three rotated read windows observe a half-installed write | no |
/// | `quorum_ts_broken_wq1_minimized` | Explorer counterexample on the non-intersecting write quorum, minimized | yes |
/// | `quorum_crash_skip_resync_minimized` | Explorer counterexample on crash + amnesiac restart without resync, minimized | yes |
///
/// The fast-path probe drives `CollectMaxModel::with_cache` through its
/// three nastiest windows on one schedule: p0 stalls *between its cache
/// CAS and its register write* (the only window where the cache exceeds
/// every register) while p1 completes a full op; p0 then loses a CAS
/// outright and takes the collect fallback plus the fetch-max chain;
/// and a final p1 op must observe the fallback's publication through
/// the fast path. No violation — that is the regression being pinned:
/// the fast path never returns a stale max.
///
/// The `quorum_ts_*` traces extend the corpus to **message
/// interleavings**: every step of `ts_replica::QuorumModel` is one
/// message delivery at a replica, so these schedules pin down
/// network-level reorderings. The reordered-write-back trace stalls p0
/// between its read phase and its installs while p1 runs a whole
/// quorum op; p0's late installs then find one replica already ahead
/// (the covered-install skip). The rotating-repair trace (n = 3 over 3
/// replicas) interleaves three rotated read windows so two of them
/// observe a *half-installed* write — divergent replies — and both
/// propagate the maximum forward, the model-level shape of ABD
/// read-repair. The broken trace is the explorer's own counterexample
/// on the write-quorum-of-1 variant, shrunk to 1-minimal: disjoint
/// quorums hand out equal timestamps, and the replay case checks the
/// violation *reproduces* on real replica threads.
///
/// Everything upstream is seeded or exhaustive, so the same workspace
/// revision always regenerates byte-identical traces.
pub fn corpus_traces() -> Vec<TraceCorpusEntry> {
    let broken = BrokenCounterModel::new(4);
    // Pinned to the classic exhaustive search (no DPOR, exact cache):
    // the checked-in minimized trace is a byte-for-byte regeneration
    // target, so the counterexample schedule must not move when the
    // explorer's default reduction strategy evolves.
    let counterexample = Explorer::new(broken.clone(), 1)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run()
        .violation
        .expect("broken counter must violate at n = 4");
    let broken_trace = minimized_trace(&broken, "broken_counter", &counterexample.schedule);

    let pct = PctScheduler::new(7, 3)
        .ops_per_process(2)
        .run(CollectMaxModel::new(2));
    assert!(pct.violation.is_none(), "collect_max is correct");
    let pct_trace = trace_from_schedule(&CollectMaxModel::new(2), "collect_max", &pct.schedule);

    // p0: invoke + 3 reads, then stall; p1 and p2 run complete ops
    // (invoke, 3 reads, write, return = 6 steps each); p0's write and
    // return land last. The overlap orders p1 -> p2 but leaves p0
    // unordered against both — the property must still hold.
    let stalled: Vec<usize> = [vec![0; 4], vec![1; 6], vec![2; 6], vec![0; 2]].concat();
    let stalled_trace = trace_from_schedule(&CollectMaxModel::new(3), "collect_max", &stalled);
    assert!(!stalled_trace.violating, "the stall is legal overlap");

    // Fast-path stale-max probe, phase by phase (n = 2; a solo fast op
    // is invoke, cache read, cache CAS, own write, return = 5 steps):
    //   A: p0 CASes the cache to 1 then stalls before its register
    //      write; p1 completes a fast op (t = 2) inside that window;
    //      p0 lands its write and returns t = 1 (legal: it overlaps).
    //   B: p0 reads the cache, stalls; p1 completes (t = 3), so p0's
    //      CAS fails -> collect fallback (2 reads), own write (t = 4),
    //      fetch-max chain (cache read + one CAS).
    //   C: p1's final fast op must see 4 in the cache and return 5.
    let fast_probe: Vec<usize> = [
        vec![0; 3], // A: p0 invoke, cache read, CAS (cache = 1), stall
        vec![1; 5], // A: p1 full fast op -> t = 2
        vec![0; 2], // A: p0 own write, return -> t = 1
        vec![0; 2], // B: p0 invoke, cache read (sees 2), stall
        vec![1; 5], // B: p1 full fast op -> t = 3
        vec![0; 7], // B: p0 CAS fails, 2 reads, write, cache read, CAS, return -> t = 4
        vec![1; 5], // C: p1 full fast op -> t = 5
    ]
    .concat();
    let fast_trace = trace_from_schedule(
        &CollectMaxModel::with_cache(2),
        "collect_max_fast",
        &fast_probe,
    );
    assert!(
        !fast_trace.violating,
        "the fast path must never return a stale max"
    );
    // The probe must actually exercise the failed-CAS fallback: p0's
    // second op must read the cache register (index n = 2) three times
    // — the fast-path load, the failed CAS (projected as a Read), and
    // the fetch-max chain's load.
    let cache_reads_in_fallback_op = fast_trace
        .steps
        .iter()
        .filter(|s| s.pid == 0 && s.op_index == 1 && s.kind == StepKind::Read && s.reg == Some(2))
        .count();
    assert_eq!(
        cache_reads_in_fallback_op, 3,
        "fast-path probe lost its failed-CAS fallback"
    );

    // Reordered write-back (QuorumModel, n = 2, f = 1; an op is
    // invoke, 2 reads, 2 installs, return = 6 steps): p0 reads its
    // window {r0, r1} then stalls before installing; p1 runs a whole
    // op on window {r1, r2} (both propose 1, p1 installs r1 and r2);
    // p0 resumes — its r0 install lands, but r1 now holds 1 >= its
    // proposal, so the install is *covered* (projected as a Read).
    // Both return 1; legal, because the ops overlap.
    let reordered: Vec<usize> = [vec![0; 3], vec![1; 6], vec![0; 3]].concat();
    let reordered_trace = trace_from_schedule(&QuorumModel::new(2, 1), "quorum_ts", &reordered);
    assert!(
        !reordered_trace.violating,
        "the reordered write-back is legal overlap"
    );
    // p0's second install must be the covered skip: a Read of r1 in
    // its install phase (steps after the two read-phase reads).
    let covered_installs = reordered_trace
        .steps
        .iter()
        .filter(|s| s.pid == 0 && s.kind == StepKind::Read && s.reg == Some(1))
        .count();
    assert_eq!(
        covered_installs, 2,
        "p0 must read r1 once in its read phase and once as the covered install"
    );

    // Rotating read-repair (QuorumModel, n = 3 over 3 replicas):
    //   p0 runs a full op (window {r0, r1}) -> installs 1 on both;
    //   p2 invokes and reads r2 (still 0), stalls;
    //   p1 invokes, reads r1 (1) and r2 (0) — a *divergent* window
    //     straddling p0's half-propagated write — proposes 2, stalls;
    //   p2 reads r0 (1), proposes 2, installs r2 (0 -> 2) and
    //     r0 (1 -> 2), returns 2;
    //   p1 installs r1 (1 -> 2); its r2 install finds 2 >= 2, covered;
    //     returns 2.
    // p1 and p2 overlap, so the equal outputs are legal — the trace
    // pins how divergent quorum reads repair forward, never back.
    let rotating: Vec<usize> =
        [vec![0; 6], vec![2; 2], vec![1; 3], vec![2; 4], vec![1; 3]].concat();
    let rotating_trace = trace_from_schedule(&QuorumModel::new(3, 1), "quorum_ts", &rotating);
    assert!(
        !rotating_trace.violating,
        "rotating windows must repair divergence, not violate"
    );

    // The non-intersecting write quorum, pinned the same way as the
    // broken counter: classic exhaustive search, then 1-minimal
    // shrinking. Every model step is a message delivery, so this is a
    // *message-interleaving* counterexample — two clients whose
    // write-back sets never meet hand out equal timestamps to
    // non-overlapping ops.
    let broken_quorum = QuorumModel::broken(2, 1);
    let quorum_counterexample = Explorer::new(broken_quorum, 1)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run()
        .violation
        .expect("the wq = 1 quorum protocol must violate");
    let broken_quorum_trace = minimized_trace(
        &broken_quorum,
        "quorum_ts_broken",
        &quorum_counterexample.schedule,
    );
    assert!(broken_quorum_trace.violating);

    // Crash + amnesiac restart (skip-resync): correct quorums, plus a
    // crash adversary whose two writes are the BOT sentinel (crash-
    // stop) and the restore-to-initial (wipe with no resync). The
    // explorer finds the duplicate-timestamp interleaving the missing
    // resync reintroduces; pinned exhaustive + 1-minimal like the
    // other counterexamples.
    let crash_model = QuorumModel::crash_skip_resync(2, 1);
    let crash_counterexample = Explorer::new(crash_model, 1)
        .with_reduction(false)
        .with_cache(CacheMode::Exact)
        .run()
        .violation
        .expect("skip-resync recovery must violate");
    let crash_trace = minimized_trace(
        &crash_model,
        "quorum_ts_crash",
        &crash_counterexample.schedule,
    );
    assert!(crash_trace.violating);
    // The minimized violating schedule never routes a client through
    // the crashed replica's BOT window (a client that widened would
    // observe the newer value and destroy the violation), so every
    // client op is the plain 6-step shape: invoke, 2 reads, 2
    // installs, return. That is exactly what lets the real replay
    // align the gated client's sub-steps with the trace.
    for pid in 0..2 {
        let steps = crash_trace.steps.iter().filter(|s| s.pid == pid).count();
        assert_eq!(steps, 6, "client p{pid} must replay without widening");
    }

    vec![
        TraceCorpusEntry {
            name: "broken_counter_n4_minimized",
            trace: broken_trace,
        },
        TraceCorpusEntry {
            name: "collect_max_n2_pct",
            trace: pct_trace,
        },
        TraceCorpusEntry {
            name: "collect_max_n3_stalled_writer",
            trace: stalled_trace,
        },
        TraceCorpusEntry {
            name: "collect_max_fast_n2_stalled_cas",
            trace: fast_trace,
        },
        TraceCorpusEntry {
            name: "quorum_ts_f1_n2_reordered_writeback",
            trace: reordered_trace,
        },
        TraceCorpusEntry {
            name: "quorum_ts_n3_rotating_repair",
            trace: rotating_trace,
        },
        TraceCorpusEntry {
            name: "quorum_ts_broken_wq1_minimized",
            trace: broken_quorum_trace,
        },
        TraceCorpusEntry {
            name: "quorum_crash_skip_resync_minimized",
            trace: crash_trace,
        },
    ]
}

/// One standard replay case: which corpus trace to drive against which
/// real object, and what the replay must show.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCase {
    /// Case label (unique; used as the bench scenario suffix).
    pub name: &'static str,
    /// Corpus trace name ([`corpus_traces`]).
    pub trace_name: &'static str,
    /// Real-object key understood by [`case_target`].
    pub target: &'static str,
    /// Whether the replayed history must violate the property.
    pub expect_violation: bool,
    /// Whether every completed op's real output must equal the model's
    /// (true exactly for access-granular targets of the trace's model).
    pub expect_exact_outputs: bool,
}

/// The standard replay cases over the corpus:
///
/// - the minimized broken-counter counterexample against the real
///   [`BrokenCounter`] — the violation must *reproduce* on real
///   threads;
/// - the PCT and stalled-writer collect-max traces against the real
///   [`CollectMax`] — deterministic outputs, no violation;
/// - the PCT trace against [`GrowableTimestamp`] — an op-granularity,
///   order-only replay of a different object family along the same
///   adversarial shape;
/// - the fast-path stale-max probe against [`CollectMaxFast`] — the
///   cached-max fast path replayed access-for-access (CAS outcomes
///   included), proving on real threads that the stalled-CAS window
///   and the collect fallback never surface a stale maximum;
/// - the quorum-protocol traces against real `ts_replica` clusters
///   ([`QuorumTsTarget`]): each released sub-step is one replica
///   interaction, so the message interleavings the model explored are
///   reproduced message-for-message against real replicas — including
///   the broken write-quorum counterexample, whose violation must
///   *reproduce* on real threads;
/// - the skip-resync crash counterexample against
///   [`QuorumTsCrashTarget`] — the quorums are *correct* here; the
///   adversary slot's gated sub-steps are real `crash` /
///   `restart_skip_resync(Wipe)` lifecycle calls, and the duplicate
///   timestamp the missing resync permits must reproduce on real
///   replicas (the adversary reports no timestamp, so
///   `expect_exact_outputs` is off).
pub fn corpus_cases() -> Vec<ReplayCase> {
    vec![
        ReplayCase {
            name: "broken_counter",
            trace_name: "broken_counter_n4_minimized",
            target: "broken_counter",
            expect_violation: true,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "collect_max_pct",
            trace_name: "collect_max_n2_pct",
            target: "collect_max",
            expect_violation: false,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "collect_max_stalled_writer",
            trace_name: "collect_max_n3_stalled_writer",
            target: "collect_max",
            expect_violation: false,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "growable_op_order",
            trace_name: "collect_max_n2_pct",
            target: "growable",
            expect_violation: false,
            expect_exact_outputs: false,
        },
        ReplayCase {
            name: "collect_max_fast_stale_probe",
            trace_name: "collect_max_fast_n2_stalled_cas",
            target: "collect_max_fast",
            expect_violation: false,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "quorum_ts_reordered_writeback",
            trace_name: "quorum_ts_f1_n2_reordered_writeback",
            target: "quorum_ts",
            expect_violation: false,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "quorum_ts_rotating_repair",
            trace_name: "quorum_ts_n3_rotating_repair",
            target: "quorum_ts",
            expect_violation: false,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "quorum_ts_broken_wq1",
            trace_name: "quorum_ts_broken_wq1_minimized",
            target: "quorum_ts_broken",
            expect_violation: true,
            expect_exact_outputs: true,
        },
        ReplayCase {
            name: "quorum_crash_skip_resync",
            trace_name: "quorum_crash_skip_resync_minimized",
            target: "quorum_ts_crash",
            expect_violation: true,
            // The adversary's recorded model output is an environment
            // event, not a getTS — the real slot reports no timestamp.
            expect_exact_outputs: false,
        },
    ]
}

/// Builds the real object for a [`ReplayCase`], sized to its trace.
///
/// # Panics
///
/// Panics on an unknown target key.
pub fn case_target(case: &ReplayCase, trace: &ReplayTrace) -> Box<dyn WorkloadTarget> {
    match case.target {
        "broken_counter" => Box::new(BrokenCounter::new(trace.processes)),
        "collect_max" => Box::new(CollectMax::new(trace.processes)),
        "collect_max_fast" => Box::new(CollectMaxFast::<ts_core::PackedBackend>::new(
            trace.processes,
        )),
        "growable" => Box::new(GrowableTimestamp::new()),
        // The quorum targets replicate each register across
        // `trace.registers` = 2f + 1 replicas — one model register per
        // replica — so f falls out of the trace itself.
        "quorum_ts" => Box::new(QuorumTsTarget::new(
            trace.processes,
            (trace.registers - 1) / 2,
        )),
        "quorum_ts_broken" => Box::new(QuorumTsTarget::broken(
            trace.processes,
            (trace.registers - 1) / 2,
        )),
        // The crash trace's last process is the adversary, not a
        // client; the victim replica (= register f) falls out of the
        // replica count like the quorums do.
        "quorum_ts_crash" => Box::new(QuorumTsCrashTarget::new(
            trace.processes - 1,
            (trace.registers - 1) / 2,
        )),
        other => panic!("unknown replay target {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broken_counter_counterexample_reproduces_on_real_threads() {
        let traces = corpus_traces();
        let entry = &traces[0];
        assert_eq!(entry.name, "broken_counter_n4_minimized");
        assert!(entry.trace.violating);

        let target = BrokenCounter::new(entry.trace.processes);
        let report = replay_trace(&target, &entry.trace);
        assert_eq!(report.granularity, ReplayGranularity::MemoryAccess);
        assert_eq!(report.steps_replayed, entry.trace.steps.len());
        assert_eq!(
            report.output_mismatches, 0,
            "access-granular replay must reproduce the model outputs exactly"
        );
        let violation = report.violation.expect("the violation must reproduce");
        assert_eq!(
            violation.earlier.ts, violation.later.ts,
            "the counter bug manifests as an equal (rolled-back) pair: {violation}"
        );
    }

    #[test]
    fn collect_max_replays_deterministically() {
        for entry in corpus_traces() {
            if entry.trace.algorithm != "collect_max" {
                continue;
            }
            let target = CollectMax::new(entry.trace.processes);
            let report = replay_trace(&target, &entry.trace);
            assert!(report.violation.is_none(), "{:?}", report.violation);
            assert_eq!(report.output_mismatches, 0, "trace {}", entry.name);
            assert_eq!(
                report.completed.len(),
                entry.trace.completed_ops().len(),
                "every recorded return must replay"
            );
        }
    }

    #[test]
    fn replayed_op_order_matches_the_recording() {
        let traces = corpus_traces();
        let entry = traces
            .iter()
            .find(|e| e.name == "collect_max_n3_stalled_writer")
            .unwrap();
        let target = CollectMax::new(entry.trace.processes);
        let report = replay_trace(&target, &entry.trace);
        let recorded: Vec<(usize, usize, StepKind)> = entry
            .trace
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Invoke | StepKind::Return))
            .map(|s| (s.pid, s.op_index, s.kind))
            .collect();
        // The stalled p0 never returns inside the trace: its Invoke is
        // recorded, its Return is (here it is, last) — both orders match.
        assert_eq!(report.op_order(), recorded);
        // Worker-side evidence: op bodies completed in released order
        // (p1, p2, then the stalled p0 whose write lands last).
        assert_eq!(
            report.worker_observed_return_order(),
            expected_completion_order(&entry.trace, ReplayGranularity::MemoryAccess)
        );
    }

    #[test]
    fn op_granularity_replay_checks_order_not_outputs() {
        let traces = corpus_traces();
        let entry = traces
            .iter()
            .find(|e| e.name == "collect_max_n2_pct")
            .unwrap();
        let target = GrowableTimestamp::new();
        assert_eq!(target.replay_granularity(), ReplayGranularity::Op);
        let report = replay_trace(&target, &entry.trace);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        // Growable timestamps are real and ordered, but they are not
        // collect-max scalars: outputs differ from the recording.
        assert!(report.output_mismatches > 0);
        assert_eq!(report.completed.len(), entry.trace.completed_ops().len());
    }

    #[test]
    fn truncated_traces_leave_stalled_workers_drainable() {
        // Cut a trace off mid-op: the replay must still join all
        // threads (release_all drains the stalled worker).
        let full = trace_from_schedule(
            &CollectMaxModel::new(2),
            "collect_max",
            &[0, 0, 1, 1, 1, 1, 1, 0, 0, 0],
        );
        let mut truncated = full.clone();
        truncated.steps.truncate(4); // p0 invoked + one read; p1 invoked + one read
        truncated.schedule.truncate(4);
        let target = CollectMax::new(2);
        let report = replay_trace(&target, &truncated);
        assert_eq!(report.completed.len(), 0);
        assert_eq!(report.steps_replayed, 4);
    }

    #[test]
    fn pct_trace_sweep_replays_deterministically_under_gating() {
        // The gate discipline must hold for whatever interleavings PCT
        // throws at it: 20 seeds, every replay deterministic and clean.
        for seed in 0..20u64 {
            let model = CollectMaxModel::new(3);
            let run = PctScheduler::new(seed, 3)
                .ops_per_process(2)
                .run(model.clone());
            assert!(run.violation.is_none(), "seed {seed}");
            let trace = trace_from_schedule(&model, "collect_max", &run.schedule);
            let target = CollectMax::new(3);
            let report = replay_trace(&target, &trace);
            assert!(report.violation.is_none(), "seed {seed}");
            assert_eq!(report.output_mismatches, 0, "seed {seed}");
            assert_eq!(
                report.worker_observed_return_order(),
                expected_completion_order(&trace, ReplayGranularity::MemoryAccess),
                "seed {seed}: bodies completed out of released order"
            );
        }
    }

    #[test]
    fn fast_path_probe_replays_deterministically() {
        let traces = corpus_traces();
        let entry = traces
            .iter()
            .find(|e| e.name == "collect_max_fast_n2_stalled_cas")
            .unwrap();
        let target = CollectMaxFast::<ts_core::PackedBackend>::new(entry.trace.processes);
        let report = replay_trace(&target, &entry.trace);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert_eq!(
            report.output_mismatches, 0,
            "the real fast path must reproduce the model outputs exactly \
             (CAS successes and failures land in trace order under gating)"
        );
        assert_eq!(report.completed.len(), entry.trace.completed_ops().len());
        // The replay really took both fast and fallback paths.
        assert_eq!(target.inner().calls(), 5);
        assert_eq!(target.inner().fast_path_hits(), 4);
    }

    #[test]
    fn fast_path_pct_sweep_replays_deterministically_under_gating() {
        // PCT-discovered interleavings of the fast-path model, each
        // replayed against the real object: outputs must match exactly
        // and the property must hold for every seed.
        for seed in 0..20u64 {
            let model = CollectMaxModel::with_cache(3);
            let run = PctScheduler::new(seed, 3)
                .ops_per_process(2)
                .run(model.clone());
            assert!(run.violation.is_none(), "seed {seed}");
            let trace = trace_from_schedule(&model, "collect_max_fast", &run.schedule);
            let target = CollectMaxFast::<ts_core::PackedBackend>::new(3);
            let report = replay_trace(&target, &trace);
            assert!(report.violation.is_none(), "seed {seed}");
            assert_eq!(report.output_mismatches, 0, "seed {seed}");
            assert_eq!(
                report.worker_observed_return_order(),
                expected_completion_order(&trace, ReplayGranularity::MemoryAccess),
                "seed {seed}: bodies completed out of released order"
            );
        }
    }

    #[test]
    fn corpus_is_internally_consistent() {
        let traces = corpus_traces();
        let names: std::collections::HashSet<_> = traces.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), traces.len(), "duplicate trace names");
        for entry in &traces {
            entry.trace.validate().expect(entry.name);
        }
        for case in corpus_cases() {
            let entry = traces
                .iter()
                .find(|e| e.name == case.trace_name)
                .unwrap_or_else(|| panic!("case {} names a missing trace", case.name));
            let target = case_target(&case, &entry.trace);
            assert!(target.slots() >= entry.trace.processes);
        }
    }
}
