//! Workload adapters: the replicated objects as
//! [`WorkloadTarget`]s for the engine and the bench grid.
//!
//! Two targets live here:
//!
//! * [`ReplicatedCollectMax`] — a `CollectMax<QuorumBackend>` bundled
//!   with its cluster: the paper's collect-max algorithm where every
//!   register access is a quorum protocol run. Its
//!   [`service_stats`](WorkloadTarget::service_stats) snapshot merges
//!   the object's counters with the cluster's quorum counters, so
//!   bench rows show rounds-per-call and repair ratios next to
//!   throughput.
//! * [`ReplicatedTryRegisters`] — raw quorum registers on the fallible
//!   client path, for campaigns that take a majority down.

use std::sync::Arc;

use ts_core::{CollectMax, ServiceStats, WorkloadOp, WorkloadTarget, WorkloadWorker};

use crate::backend::QuorumBackend;
use crate::cluster::{with_cluster, Cluster, ClusterConfig};
use crate::net::FaultPlan;

/// Raw quorum registers driven through the **fallible** client path:
/// each worker slot owns one replicated register and issues
/// [`Cluster::try_abd_write`] / [`Cluster::try_abd_read`], treating
/// [`Unavailable`](crate::Unavailable) as a counted outcome instead of
/// a panic.
///
/// This is the target for majority-loss chaos cells: the infallible
/// [`RegisterBackend`](ts_register::RegisterBackend) seam (used by
/// [`ReplicatedCollectMax`]) panics when a quorum op exhausts its
/// deadline, so any campaign that takes more than `f` replicas down
/// must drive clients that *survive* the outage. Workers keep issuing
/// through the outage; every failed op is bounded by the cluster's
/// step deadline and shows up in `quorum_unavailable` /
/// `quorum_timeouts`, and throughput recovers once a quorum heals.
pub struct ReplicatedTryRegisters {
    cluster: Arc<Cluster>,
    regs: Vec<u32>,
    label: &'static str,
}

impl ReplicatedTryRegisters {
    /// `slots` single-writer registers over a fresh cluster tolerating
    /// `f` failures, with an explicit config (chaos cells lower the
    /// step deadline so outage-phase ops fail fast).
    pub fn with_config(slots: usize, config: ClusterConfig, label: &'static str) -> Self {
        let cluster = Cluster::new(config);
        let regs = (0..slots).map(|_| cluster.alloc_register(0)).collect();
        Self {
            cluster,
            regs,
            label,
        }
    }

    /// Fault-free config with the default deadline.
    pub fn new(slots: usize, f: usize, label: &'static str) -> Self {
        Self::with_config(slots, ClusterConfig::new(f), label)
    }

    /// The cluster under fault.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

impl std::fmt::Debug for ReplicatedTryRegisters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedTryRegisters")
            .field("label", &self.label)
            .field("slots", &self.regs.len())
            .finish_non_exhaustive()
    }
}

struct TryRegisterWorker<'a> {
    cluster: &'a Arc<Cluster>,
    regs: &'a [u32],
    own: usize,
    value: u64,
    rr: usize,
}

impl WorkloadWorker for TryRegisterWorker<'_> {
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp {
        match op {
            WorkloadOp::GetTs | WorkloadOp::Compare => {
                self.value += 1;
                // Unavailable is the expected outage-phase outcome; the
                // cluster counts it (quorum_unavailable) and the local
                // sequence keeps growing so post-heal writes still
                // advance the register.
                let _ = self.cluster.try_abd_write(self.regs[self.own], self.value);
                WorkloadOp::GetTs
            }
            WorkloadOp::Scan => {
                self.rr += 1;
                let reg = self.regs[self.rr % self.regs.len()];
                std::hint::black_box(self.cluster.try_abd_read(reg).ok());
                WorkloadOp::Scan
            }
        }
    }
}

impl WorkloadTarget for ReplicatedTryRegisters {
    fn object(&self) -> &'static str {
        self.label
    }

    fn backend(&self) -> &'static str {
        "quorum"
    }

    fn slots(&self) -> usize {
        self.regs.len()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.regs.len(), "slot {slot} out of range");
        Box::new(TryRegisterWorker {
            cluster: &self.cluster,
            regs: &self.regs,
            own: slot,
            value: 0,
            rr: slot,
        })
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        let mut stats = ServiceStats::default();
        self.cluster.fill_stats(&mut stats);
        Some(stats)
    }
}

/// The collect-max timestamp object on quorum-replicated registers:
/// `CollectMax<QuorumBackend>` bundled with its [`Cluster`] so grid
/// cells can carry a fault profile and report quorum counters.
pub struct ReplicatedCollectMax {
    cluster: Arc<Cluster>,
    inner: CollectMax<QuorumBackend>,
    label: &'static str,
}

impl ReplicatedCollectMax {
    /// A fault-free replicated collect-max for `processes` slots over
    /// a cluster tolerating `f` failures. `label` names the grid cell
    /// ("replicated_f1", ...).
    pub fn new(processes: usize, f: usize, label: &'static str) -> Self {
        Self::with_plan(processes, f, label, FaultPlan::default())
    }

    /// Same, with an explicit fault plan.
    pub fn with_plan(processes: usize, f: usize, label: &'static str, plan: FaultPlan) -> Self {
        let cluster = Cluster::new(ClusterConfig::new(f).with_plan(plan));
        let inner = with_cluster(&cluster, || CollectMax::with_backend(processes));
        Self {
            cluster,
            inner,
            label,
        }
    }

    /// The cluster behind the registers (partition knobs, counters).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The wrapped collect-max object.
    pub fn inner(&self) -> &CollectMax<QuorumBackend> {
        &self.inner
    }
}

impl std::fmt::Debug for ReplicatedCollectMax {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedCollectMax")
            .field("label", &self.label)
            .field("cluster", &self.cluster)
            .finish_non_exhaustive()
    }
}

impl WorkloadTarget for ReplicatedCollectMax {
    fn object(&self) -> &'static str {
        self.label
    }

    fn backend(&self) -> &'static str {
        "quorum"
    }

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        self.inner.worker(slot)
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        let mut stats = self.inner.stats();
        self.cluster.fill_stats(&mut stats);
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::RestartMode;

    #[test]
    fn replicated_collect_max_issues_through_quorums() {
        let target = ReplicatedCollectMax::new(2, 1, "replicated_f1");
        assert_eq!(target.object(), "replicated_f1");
        assert_eq!(target.backend(), "quorum");
        let mut w = target.worker(0);
        w.step(WorkloadOp::GetTs);
        w.step(WorkloadOp::GetTs);
        drop(w);
        let stats = target.service_stats().expect("stats");
        assert_eq!(stats.calls, 2);
        assert!(
            stats.quorum_rounds > 0,
            "register traffic went through quorums: {stats:?}"
        );
        assert!(stats.rounds_per_call().expect("replicated") >= 1.0);
    }

    #[test]
    fn try_registers_survive_a_majority_outage_and_recover() {
        let config = ClusterConfig::new(1).with_deadline(512);
        let target = ReplicatedTryRegisters::with_config(2, config, "try_f1");
        assert_eq!(target.object(), "try_f1");
        assert_eq!(target.backend(), "quorum");
        let mut w = target.worker(0);
        w.step(WorkloadOp::GetTs);
        // Take a majority down: the infallible path would panic here;
        // the try path completes every op as a counted failure.
        target.cluster().crash(0);
        target.cluster().crash(2);
        w.step(WorkloadOp::GetTs);
        w.step(WorkloadOp::Scan);
        assert!(
            target.cluster().quorum_unavailable() >= 2,
            "outage ops were counted"
        );
        target.cluster().restart(0, RestartMode::Retain);
        target.cluster().restart(2, RestartMode::Wipe);
        w.step(WorkloadOp::GetTs);
        drop(w);
        // Post-heal write landed: local sequence reached 3 and the
        // register's stored word reflects the latest successful write.
        let (_, word) = target.cluster().abd_read(0);
        assert_eq!(word, 3, "writes resume after the quorum heals");
        assert!(
            target.cluster().resynced_registers() > 0,
            "the wiped replica resynced on rejoin"
        );
    }
}
