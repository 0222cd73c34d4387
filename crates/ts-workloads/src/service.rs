//! Workload adapter for the `ts-service` timestamp service.
//!
//! [`ServiceTarget`] puts a [`ShardedCollectMax`] behind the
//! [`WorkloadTarget`] seam so every scenario family (closed loops,
//! skewed mixes, bursty open loops, thread churn) can drive the service
//! exactly like it drives the paper objects. One target is one *grid
//! cell configuration*: a shard count, a slot budget and an
//! [`IssueMode`].
//!
//! # Op semantics (what one engine op measures)
//!
//! - [`IssueMode::Single`] — one `GetTs` op issues **one** stamp.
//! - [`IssueMode::Batch(k)`](IssueMode::Batch) — one `GetTs` op is one
//!   *service call* that issues the **whole batch** of `k` stamps.
//!   `ops/sec` therefore counts issue calls; the per-stamp figure
//!   comparable with single-issue objects is the row's
//!   `stamps_per_sec` (from the service's [`ServiceStats`],
//!   `≈ k × ops/sec`) — this
//!   is the batching amortization made visible, not hidden in an op
//!   definition.
//! - `Scan` — a read-only collect over every shard's register bank
//!   ([`read_max`](ts_service::ShardedCollectMax::read_max)).
//! - `Compare` — the shared-memory-free lexicographic comparison on
//!   the worker's two most recent stamps.
//!
//! # Identity, slots and churn
//!
//! Every worker life mints a fresh [`ClientSession`] — a fresh virtual
//! pid — so the target reports unbounded
//! [`slots`](WorkloadTarget::slots): the engine may drive any thread
//! count and any churn schedule over a *fixed* physical register space,
//! which is precisely the vpid-multiplexing claim. A churn run with
//! `threads × lives > shards × slots_per_shard` is the `M` clients over
//! `n` slots configuration; the per-worker monotonicity asserts (each
//! session's stamps strictly increase) hold throughout, and
//! [`lease_waits`](ts_core::ServiceStats::lease_waits) counts how often
//! the multiplexing actually blocked.

use std::hint::black_box;

use ts_core::workload::{StampSource, StampWorker, StepGate, WorkloadTarget, WorkloadWorker};
use ts_core::{PackedBackend, RegisterBackend, ServiceStats, ShardedTimestamp};
use ts_service::{ClientSession, IssueMode, ServiceConfig, ShardedCollectMax};

/// A [`ShardedCollectMax`] plus an [`IssueMode`], driveable by the
/// scenario engine. See the module docs for op semantics.
///
/// # Example
///
/// ```
/// use ts_core::workload::{WorkloadOp, WorkloadTarget};
/// use ts_service::{IssueMode, ServiceConfig};
/// use ts_workloads::service::ServiceTarget;
///
/// let target = ServiceTarget::new(
///     "sharded_s4_batch16",
///     ServiceConfig::new(4, 2),
///     IssueMode::Batch(16),
/// );
/// let mut worker = target.worker(0);
/// assert_eq!(worker.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
/// let stats = target.service_stats().unwrap();
/// assert_eq!(stats.stamps, 16, "one batch op issued the whole batch");
/// ```
#[derive(Debug)]
pub struct ServiceTarget<B: RegisterBackend<u64> = PackedBackend> {
    service: ShardedCollectMax<B>,
    mode: IssueMode,
    label: &'static str,
}

impl ServiceTarget<PackedBackend> {
    /// A target on the default packed register backend.
    pub fn new(label: &'static str, config: ServiceConfig, mode: IssueMode) -> Self {
        Self::with_backend(label, config, mode)
    }
}

impl<B: RegisterBackend<u64>> ServiceTarget<B> {
    /// A target on backend `B`. `label` is the report's object column
    /// and should encode the cell configuration (e.g.
    /// `"sharded_s4_batch16"`).
    pub fn with_backend(label: &'static str, config: ServiceConfig, mode: IssueMode) -> Self {
        if let IssueMode::Batch(k) = mode {
            assert!(k >= 1, "batch mode needs k >= 1");
        }
        Self {
            service: ShardedCollectMax::with_backend(config),
            mode,
            label,
        }
    }

    /// The wrapped service (for post-run assertions).
    pub fn service(&self) -> &ShardedCollectMax<B> {
        &self.service
    }

    /// The cell's issue mode.
    pub fn mode(&self) -> IssueMode {
        self.mode
    }
}

impl<B: RegisterBackend<u64>> StampSource for ServiceTarget<B> {
    type State<'a> = ClientSession<'a, B>;
    type Stamp = ShardedTimestamp;

    fn issue(
        &self,
        session: &mut ClientSession<'_, B>,
        _gate: Option<&StepGate>,
    ) -> (ShardedTimestamp, ShardedTimestamp) {
        match self.mode {
            IssueMode::Single => {
                let t = session.get_ts();
                (t, t)
            }
            IssueMode::Batch(k) => {
                let batch = session.get_ts_batch(k);
                (batch.first_stamp(), batch.last_stamp())
            }
        }
    }

    fn observe(&self, _session: &ClientSession<'_, B>) -> bool {
        black_box(self.service.read_max());
        true
    }

    /// The service's per-client guarantee: every stamp a session
    /// obtains exceeds its previous one, across batches and migrations.
    /// Cross-client, cross-shard ordering is exactly what the service
    /// relaxes, so `last_ts` stays `None`: replay checks order, not
    /// outputs.
    fn checked(&self) -> bool {
        true
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for ServiceTarget<B> {
    fn object(&self) -> &'static str {
        self.label
    }

    fn backend(&self) -> &'static str {
        self.service.backend_name()
    }

    /// Unbounded: identity is a vpid, storage is leased per call —
    /// any thread count and churn schedule fits the fixed register
    /// space.
    fn slots(&self) -> usize {
        usize::MAX
    }

    fn worker<'a>(&'a self, _slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        Box::new(StampWorker::new(self, self.service.session()))
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.service.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_scenario, RunConfig};
    use crate::scenario::{Arrival, Churn, OpMix, Scenario};
    use ts_core::workload::WorkloadOp;

    fn target(shards: usize, slots: usize, mode: IssueMode) -> ServiceTarget {
        ServiceTarget::new("sharded_test", ServiceConfig::new(shards, slots), mode)
    }

    #[test]
    fn worker_runs_every_op_kind() {
        let t = target(2, 2, IssueMode::Single);
        let mut w = t.worker(0);
        assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        assert_eq!(w.step(WorkloadOp::Scan), WorkloadOp::Scan);
        assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::GetTs);
        assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::Compare);
        // Two issue calls hit the service: the explicit GetTs and the
        // one substituted for the first (history-starved) Compare.
        assert_eq!(t.service_stats().unwrap().calls, 2);
    }

    #[test]
    fn batch_mode_issues_k_stamps_per_op() {
        let t = target(1, 1, IssueMode::Batch(8));
        let mut w = t.worker(0);
        for _ in 0..3 {
            w.step(WorkloadOp::GetTs);
        }
        let stats = t.service_stats().unwrap();
        assert_eq!(stats.calls, 3);
        assert_eq!(stats.stamps, 24);
        assert_eq!(stats.avg_batch_fill(), Some(8.0));
    }

    #[test]
    fn engine_drives_every_mode_under_contention() {
        for mode in [IssueMode::Single, IssueMode::Batch(4)] {
            let t = target(2, 2, mode);
            let scenario = Scenario {
                name: "svc_closed",
                arrival: Arrival::ClosedLoop,
                mix: OpMix::get_ts_only(),
                churn: None,
            };
            let cfg = RunConfig {
                threads: 4,
                ops_per_thread: 100,
                seed: 7,
            };
            let report = run_scenario(&t, &scenario, &cfg);
            assert_eq!(report.counts.get_ts, 400);
            let stats = t.service_stats().unwrap();
            assert_eq!(stats.calls, 400);
            assert_eq!(stats.stamps, 400 * mode.stamps_per_call());
        }
    }

    #[test]
    fn churn_multiplexes_many_sessions_over_few_slots() {
        // M = 8 threads x 8 lives = 64 sessions over n = 2 shards x 4
        // slots = 8 physical register slots.
        let t = target(2, 4, IssueMode::Single);
        let scenario = Scenario {
            name: "svc_churn",
            arrival: Arrival::ClosedLoop,
            mix: OpMix::get_ts_only(),
            churn: Some(Churn { ops_per_life: 25 }),
        };
        let cfg = RunConfig {
            threads: 8,
            ops_per_thread: 200,
            seed: 11,
        };
        let report = run_scenario(&t, &scenario, &cfg);
        assert_eq!(report.lives, 64, "64 churn lives = 64 client sessions");
        assert_eq!(t.service().sessions(), 64);
        let stats = t.service_stats().unwrap();
        assert_eq!(stats.stamps, 8 * 200);
        assert_eq!(
            t.service().registers(),
            16,
            "fixed register space (8 slots x 2-register pairs) despite 64 clients"
        );
    }
}
