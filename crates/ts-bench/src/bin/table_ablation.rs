//! E9 — ablation: the invalidation-overwrite policy of lines 10–11.
//!
//! Compares Algorithm 4's three overwrite policies under the concurrent
//! one-shot workload, asserting the paper's bounds and cross-round order
//! for all but `Never`:
//!
//! - `Paper` — overwrite only when `R[j].rnd < myrnd`;
//! - `Always` — the "simple repair" the paper mentions and rejects for
//!   space: every invalid register is rewritten;
//! - `Never` — the latent bug of Section 6.1 (an old phase-opening write
//!   can re-validate registers). The concurrent workload rarely hits the
//!   failure window, which is exactly why the paper needs the argument —
//!   the model-checking integration test constructs the failing schedule
//!   deterministically.

use ts_bench::{run_bounded_oneshot_with_policy, Table};
use ts_core::OverwritePolicy;

fn main() {
    let mut table = Table::new(
        "E9 — overwrite-policy ablation (Algorithm 4, n threads, one-shot)",
        &[
            "n",
            "policy",
            "total writes",
            "inval writes",
            "phases",
            "registers written",
            "ordered ok",
        ],
    );
    for &n in &[64usize, 256, 1024] {
        for policy in [
            OverwritePolicy::Paper,
            OverwritePolicy::Always,
            OverwritePolicy::Never,
        ] {
            let (run, stats) = run_bounded_oneshot_with_policy(n, policy);
            let ok = stats.phase_bound_holds()
                && stats.invalidation_bound_holds()
                && stats.space_bound_holds()
                && run.ordered_ok;
            assert!(
                ok || policy == OverwritePolicy::Never,
                "{policy:?}, n = {n}: {stats:?}"
            );
            table.push_row(vec![
                n.to_string(),
                format!("{policy:?}"),
                stats.total_writes.to_string(),
                stats.invalidation_writes.to_string(),
                stats.phases.to_string(),
                stats.registers_written.to_string(),
                run.ordered_ok.to_string(),
            ]);
        }
    }
    table.emit();
    ts_bench::note(
        "shape check: Always spends strictly more writes than Paper for the\n\
         same phases; Never writes least but is incorrect (see the\n\
         never_overwrite_bug integration test for the deterministic failure).",
    );
}
