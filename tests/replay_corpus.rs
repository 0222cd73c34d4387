//! The adversarial-trace corpus: regeneration and schema.
//!
//! `tests/traces/*.json` are model-checker schedules serialized as
//! `ts_model::replay::ReplayTrace` JSON — most importantly the
//! minimized Explorer counterexamples. Every model behind them re-runs
//! its object's shipped `getTS` body (`ts_model::rerun::Rerun`), so a
//! trace pins an interleaving of the code that ships, and the corpus is
//! a model-level regression suite: the generators below rerun on every
//! test invocation and the results are diffed byte-for-byte against
//! the checked-in files, so a drifting model or body invalidates the
//! corpus loudly.
//!
//! To refresh the files after an intentional model change:
//!
//! ```sh
//! TS_REGEN_TRACES=1 cargo test --test replay_corpus
//! ```

use std::path::PathBuf;

use timestamp_suite::ts_core::model::{BrokenCounterModel, CollectMaxModel};
use timestamp_suite::ts_model::replay::{
    minimized_trace, trace_from_schedule, ReplayTrace, StepKind, TRACE_SCHEMA,
};
use timestamp_suite::ts_model::{CacheMode, Explorer, PctScheduler};
use timestamp_suite::ts_replica::QuorumModel;

/// A named corpus trace.
struct Entry {
    /// File stem under `tests/traces/` (`{name}.json`).
    name: &'static str,
    /// Whether the trace must record a timestamp-property violation.
    violating: bool,
    /// The regenerated trace.
    trace: ReplayTrace,
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
/// The `quorum_*` traces extend the corpus to **message
/// interleavings**: `ts_replica::QuorumModel` re-runs `QuorumTs`'s own
/// `getTS`, one step per message delivery at a replica, so these
/// schedules pin down network-level reorderings of the code that
/// ships. The reordered-write-back trace stalls p0 between its read
/// phase and its installs while p1 runs a whole quorum op; p0's late
/// installs then find one replica already ahead (the covered-install
/// skip). The rotating-repair trace (n = 3 over 3 replicas) interleaves
/// three rotated read windows so two of them observe a
/// *half-installed* write — divergent replies — and both propagate the
/// maximum forward, the model-level shape of ABD read-repair. The
/// broken trace is the explorer's own counterexample on the
/// write-quorum-of-1 variant, shrunk to 1-minimal: disjoint quorums
/// hand out equal timestamps. The crash trace is the explorer's
/// counterexample on a crash followed by an amnesiac restart without
/// resync, shrunk the same way; on real replicas the adversary's two
/// steps are `Cluster::crash` and `Cluster::restart_skip_resync`.
///
/// Everything upstream is seeded or exhaustive, so the same workspace
/// revision always regenerates byte-identical traces.
fn corpus_traces() -> Vec<Entry> {
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
    // the crashed replica's BOT window, so every client op is the
    // plain 6-step shape: invoke, 2 reads, 2 installs, return. The
    // duplicate comes from a read of the amnesiac replica after its
    // restore, not from the crash window, which clients widen past:
    // the counterexample is the missing resync and nothing else.
    for pid in 0..2 {
        let steps = crash_trace.steps.iter().filter(|s| s.pid == pid).count();
        assert_eq!(steps, 6, "client p{pid} must replay without widening");
    }

    vec![
        Entry {
            name: "broken_counter_n4_minimized",
            violating: true,
            trace: broken_trace,
        },
        Entry {
            name: "collect_max_n2_pct",
            violating: false,
            trace: pct_trace,
        },
        Entry {
            name: "collect_max_n3_stalled_writer",
            violating: false,
            trace: stalled_trace,
        },
        Entry {
            name: "collect_max_fast_n2_stalled_cas",
            violating: false,
            trace: fast_trace,
        },
        Entry {
            name: "quorum_ts_f1_n2_reordered_writeback",
            violating: false,
            trace: reordered_trace,
        },
        Entry {
            name: "quorum_ts_n3_rotating_repair",
            violating: false,
            trace: rotating_trace,
        },
        Entry {
            name: "quorum_ts_broken_wq1_minimized",
            violating: true,
            trace: broken_quorum_trace,
        },
        Entry {
            name: "quorum_crash_skip_resync_minimized",
            violating: true,
            trace: crash_trace,
        },
    ]
}

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces")
}

fn checked_in(name: &str) -> ReplayTrace {
    let path = traces_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing corpus trace {path:?}: {e} (regenerate with TS_REGEN_TRACES=1)")
    });
    ReplayTrace::from_json(&text)
        .unwrap_or_else(|e| panic!("unparsable corpus trace {path:?}: {e:?}"))
}

#[test]
fn corpus_regenerates_byte_identically() {
    let regen = corpus_traces();
    assert!(!regen.is_empty());
    if std::env::var_os("TS_REGEN_TRACES").is_some() {
        std::fs::create_dir_all(traces_dir()).expect("create tests/traces");
        for entry in &regen {
            let path = traces_dir().join(format!("{}.json", entry.name));
            std::fs::write(&path, entry.trace.to_json() + "\n").expect("write trace");
            eprintln!("wrote {path:?}");
        }
        return;
    }
    for entry in &regen {
        let disk = checked_in(entry.name);
        assert_eq!(
            disk, entry.trace,
            "corpus trace {} is stale: the generators no longer produce the checked-in \
             schedule (if the model change is intentional, refresh with TS_REGEN_TRACES=1)",
            entry.name
        );
        assert_eq!(
            disk.to_json() + "\n",
            std::fs::read_to_string(traces_dir().join(format!("{}.json", entry.name))).unwrap(),
            "corpus file {} is not in canonical serialization",
            entry.name
        );
    }
}

#[test]
fn corpus_traces_are_well_formed() {
    let entries = corpus_traces();
    let names: std::collections::HashSet<_> = entries.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), entries.len(), "duplicate trace names");
    for entry in entries {
        let disk = checked_in(entry.name);
        disk.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(disk.schema, TRACE_SCHEMA);
        assert_eq!(disk.violating, entry.violating, "{}", entry.name);
    }
}

#[test]
fn corpus_round_trips_through_json() {
    for entry in corpus_traces() {
        let disk = checked_in(entry.name);
        let back = ReplayTrace::from_json(&disk.to_json()).expect("round-trip parses");
        assert_eq!(back, disk);
    }
}
