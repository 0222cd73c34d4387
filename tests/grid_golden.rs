//! Golden tests pinning the grid rendering and the deterministic
//! construction artifacts: if either the adversary or the renderer
//! changes behaviour, these diffs surface it immediately.

use timestamp_suite::ts_core::model::BoundedModel;
use timestamp_suite::ts_core::PhaseStats;
use timestamp_suite::ts_lowerbound::grid::Grid;
use timestamp_suite::ts_lowerbound::longlived::LongLivedConstruction;
use timestamp_suite::ts_lowerbound::oneshot::OneShotConstruction;
use timestamp_suite::ts_lowerbound::signature::OrderedSignature;
use ts_bench::run_phase_accounting;

/// Compares renderings ignoring trailing whitespace per line.
fn assert_grid_eq(actual: &str, expected_lines: &[&str]) {
    let actual_trimmed: Vec<&str> = actual.lines().map(str::trim_end).collect();
    assert_eq!(actual_trimmed, expected_lines, "\n{actual}");
}

#[test]
fn figure1_grid_for_n16_is_stable() {
    let report = OneShotConstruction::run(BoundedModel::new(16));
    assert_grid_eq(
        &report.steps[0].grid,
        &[
            "  4 |*",
            "  3 |#/",
            "  2 |#./",
            "  1 |#../",
            "    +--------",
            "     12345678",
        ],
    );
}

#[test]
fn grid_rendering_of_a_hand_built_signature() {
    let grid = Grid::new(OrderedSignature::from_signature(&[3, 2, 0, 0]), 5);
    assert_grid_eq(
        &grid.render(),
        &[
            "  4 |/",
            "  3 |#/",
            "  2 |##/",
            "  1 |##./",
            "    +----",
            "     1234",
        ],
    );
}

#[test]
fn construction_is_deterministic() {
    let a = OneShotConstruction::run(BoundedModel::new(32));
    let b = OneShotConstruction::run(BoundedModel::new(32));
    assert_eq!(a.final_j, b.final_j);
    assert_eq!(a.final_covered, b.final_covered);
    assert_eq!(a.steps.len(), b.steps.len());
    for (x, y) in a.steps.iter().zip(&b.steps) {
        assert_eq!(x.grid, y.grid);
        assert_eq!(x.signature, y.signature);
    }
}

/// Runs the Section 4 construction on Algorithm 4 for `n` processes
/// and checks it against a recorded result: `(final_j, final_covered)`
/// and the signature of every step, in order.
fn assert_oneshot_golden(n: usize, final_j: usize, final_covered: usize, signatures: &[&[usize]]) {
    let report = OneShotConstruction::run(BoundedModel::new(n));
    assert_eq!(
        (report.final_j, report.final_covered),
        (final_j, final_covered),
        "n = {n}"
    );
    let got: Vec<&[usize]> = report
        .steps
        .iter()
        .map(|s| s.signature.as_slice())
        .collect();
    assert_eq!(got, signatures, "n = {n}");
}

#[test]
fn oneshot_construction_results_are_pinned() {
    // Recorded runs: any change to the registers Algorithm 4 covers, or
    // when it covers them, moves these.
    assert_oneshot_golden(
        16,
        3,
        4,
        &[
            &[4, 0, 0, 0, 0, 0, 0, 0],
            &[3, 3, 0, 0, 0, 0, 0, 0],
            &[2, 2, 2, 0, 0, 0, 0, 0],
            &[2, 2, 2, 4, 0, 0, 0, 0],
        ],
    );
    assert_oneshot_golden(
        32,
        6,
        6,
        &[
            &[7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[4, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0],
            &[3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0],
            &[2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0],
            &[2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0],
        ],
    );
    assert_oneshot_golden(
        64,
        9,
        10,
        &[
            &[10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[8, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[6, 6, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[5, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[4, 4, 4, 4, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0],
            &[2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0],
            &[2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0],
        ],
    );
}

#[test]
fn longlived_construction_on_algorithm4_is_pinned() {
    // Recorded run: insertions pile onto R[1] until it is 3-covered,
    // then spill onto R[2] and R[3]; pids 3, 7 and 8 complete without
    // pausing on a register covered fewer than three times.
    let report = LongLivedConstruction::run_any(BoundedModel::new(16));
    assert_eq!(
        (report.reached_k, report.covered, report.lower_bound),
        (8, 3, 2)
    );
    let got: Vec<(usize, usize, usize, &[usize])> = report
        .insertions
        .iter()
        .map(|i| (i.pid, i.covers, i.k, i.signature.as_slice()))
        .collect();
    let want: [(usize, usize, usize, &[usize]); 8] = [
        (0, 0, 1, &[1, 0, 0, 0, 0, 0, 0, 0]),
        (1, 0, 2, &[2, 0, 0, 0, 0, 0, 0, 0]),
        (2, 0, 3, &[3, 0, 0, 0, 0, 0, 0, 0]),
        (4, 1, 4, &[3, 1, 0, 0, 0, 0, 0, 0]),
        (5, 1, 5, &[3, 2, 0, 0, 0, 0, 0, 0]),
        (6, 1, 6, &[3, 3, 0, 0, 0, 0, 0, 0]),
        (9, 2, 7, &[3, 3, 1, 0, 0, 0, 0, 0]),
        (10, 2, 8, &[3, 3, 2, 0, 0, 0, 0, 0]),
    ];
    assert_eq!(got, want);
}

#[test]
fn sequential_walkthrough_trace_is_stable() {
    // The model trace of a two-call sequential run of Algorithm 4 pins
    // the register access pattern of the pseudocode. m = 3 registers.
    //
    // p0: invoke; lines 1–4 read R[1] = ⊥, so myrnd = 0 and the for-loop
    // is empty; the line-13 scan of R[1..=1] is two one-read collects;
    // line 15 opens phase 1 with an empty sequence; return (1, 0):
    // 1 + 1 + 2 + 1 + 1 = 6 slots.
    //
    // p1: invoke; lines 1–4 read R[1] (p0's word) and R[2] = ⊥, so
    // myrnd = 1 and the for-loop over R[1..1) is empty; the scan of
    // R[1..=2] is two two-read collects; line 15 opens phase 2 with
    // sequence [p0]; return (2, 0): 1 + 2 + 4 + 1 + 1 = 9 slots.
    //
    // No collect reaches past R[myrnd + 1], so the sentinel R[3] is
    // neither read nor written.
    use timestamp_suite::ts_model::trace;
    let alg = BoundedModel::new(2);
    let schedule: Vec<usize> = std::iter::repeat_n(0, 6)
        .chain(std::iter::repeat_n(1, 9))
        .collect();
    let rendered = trace::render(&alg, &schedule);
    let expected = [
        "   0: p0 invokes getTS (p0.0)",
        "   1: p0 reads  R[1] -> ⊥",
        "   2: p0 reads  R[1] -> ⊥",
        "   3: p0 reads  R[1] -> ⊥",
        "   4: p0 writes R[1] := ⟨rnd 1, w 0⟩ seq []",
        "   5: p0 returns Timestamp { rnd: 1, turn: 0 }",
        "   6: p1 invokes getTS (p1.0)",
        "   7: p1 reads  R[1] -> ⟨rnd 1, w 0⟩ seq []",
        "   8: p1 reads  R[2] -> ⊥",
        "   9: p1 reads  R[1] -> ⟨rnd 1, w 0⟩ seq []",
        "  10: p1 reads  R[2] -> ⊥",
        "  11: p1 reads  R[1] -> ⟨rnd 1, w 0⟩ seq []",
        "  12: p1 reads  R[2] -> ⊥",
        "  13: p1 writes R[2] := ⟨rnd 2, w 1⟩ seq [0]",
        "  14: p1 returns Timestamp { rnd: 2, turn: 0 }",
    ];
    assert_eq!(
        rendered.lines().collect::<Vec<_>>(),
        expected,
        "\n{rendered}"
    );
    assert!(!rendered.contains("R[3]"), "{rendered}");
}

#[test]
fn sequential_phase_accounting_rows_are_pinned() {
    // The threads = 1 rows of the E5 table (`table_phase_accounting`):
    // one caller drives Algorithm 4 to budget exhaustion, so every count
    // is deterministic. Sequentially the phase opened by `R[k]` serves
    // `k` calls, and every write is its register's first in its phase.
    let row = |budget: usize, m, phases, turns| PhaseStats {
        m,
        budget,
        calls: budget as u64,
        phases,
        invalidation_writes: budget as u64,
        total_writes: budget as u64,
        scans: phases,
        early_returns: 0,
        turn_returns: turns,
        registers_written: phases as usize,
    };
    for (budget, want) in [
        (16, row(16, 8, 6, 10)),
        (64, row(64, 16, 11, 53)),
        (256, row(256, 32, 23, 233)),
        (1024, row(1024, 64, 45, 979)),
    ] {
        assert_eq!(run_phase_accounting(budget, 1), want, "M = {budget}");
    }
}
