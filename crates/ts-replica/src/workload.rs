//! Workload adapters: the replicated objects as
//! [`WorkloadTarget`]s for the engine, the replayer and the bench grid.
//!
//! Two targets live here:
//!
//! * [`QuorumTsTarget`] — [`QuorumTs`] under the
//!   **message-step** granularity: each gated sub-step is one replica
//!   interaction, so checked-in model traces (including the broken
//!   write-quorum counterexample) replay against real replicas.
//! * [`ReplicatedCollectMax`] — a `CollectMax<QuorumBackend>` bundled
//!   with its cluster: the paper's collect-max algorithm where every
//!   register access is a quorum protocol run. Its
//!   [`service_stats`](WorkloadTarget::service_stats) snapshot merges
//!   the object's counters with the cluster's quorum counters, so
//!   bench rows show rounds-per-call and repair ratios next to
//!   throughput.

use std::sync::Arc;

use ts_core::workload::{StampSource, StampWorker, StepGate};
use ts_core::{
    CollectMax, ReplayGranularity, ServiceStats, Timestamp, WorkloadOp, WorkloadTarget,
    WorkloadWorker,
};

use crate::backend::QuorumBackend;
use crate::cluster::{with_cluster, Cluster, ClusterConfig, QuorumTs, RestartMode};
use crate::net::FaultPlan;

/// [`QuorumTs`] as a workload target: one slot per process, one gated
/// sub-step per replica interaction.
///
/// The broken variant keeps the same step grammar but skips the
/// per-worker timestamp-property assertions, on `GetTs` and on
/// `Compare` alike — replaying the explorer's counterexample *observes*
/// the violation (the replayer checks outputs), it must not crash the
/// worker.
#[derive(Debug)]
pub struct QuorumTsTarget {
    ts: QuorumTs,
    processes: usize,
}

impl QuorumTsTarget {
    /// Correct protocol for `processes` clients tolerating `f`
    /// failures.
    pub fn new(processes: usize, f: usize) -> Self {
        Self {
            ts: QuorumTs::new(f),
            processes,
        }
    }

    /// The broken write-quorum-of-1 variant.
    pub fn broken(processes: usize, f: usize) -> Self {
        Self {
            ts: QuorumTs::broken(f),
            processes,
        }
    }

    /// The underlying timestamp object.
    pub fn object_ref(&self) -> &QuorumTs {
        &self.ts
    }
}

impl StampSource for QuorumTs {
    type State<'a> = usize;
    type Stamp = Timestamp;

    fn issue(&self, slot: &mut usize, gate: Option<&StepGate>) -> (Timestamp, Timestamp) {
        let t = match gate {
            None => self.get_ts(*slot),
            Some(gate) => self.get_ts_paused(*slot, || gate.pause()),
        };
        (t, t)
    }

    fn observe(&self, _slot: &usize) -> bool {
        std::hint::black_box(self.read_max());
        true
    }

    fn checked(&self) -> bool {
        self.is_correct()
    }

    fn replay_ts(t: Timestamp) -> Option<Timestamp> {
        Some(t)
    }
}

impl WorkloadTarget for QuorumTsTarget {
    fn object(&self) -> &'static str {
        if self.ts.is_correct() {
            "quorum_ts"
        } else {
            "quorum_ts_broken"
        }
    }

    fn backend(&self) -> &'static str {
        "quorum"
    }

    fn slots(&self) -> usize {
        self.processes
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.processes, "slot {slot} out of range");
        Box::new(StampWorker::new(&self.ts, slot))
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        let mut stats = ServiceStats::default();
        self.ts.cluster().fill_stats(&mut stats);
        Some(stats)
    }
}

/// The skip-resync crash counterexample as a replayable target:
/// [`QuorumModel::crash_skip_resync`](crate::QuorumModel::crash_skip_resync)
/// mapped onto real replicas.
///
/// Client slots run the **correct** [`QuorumTs`] protocol at
/// message-step granularity — the bug is not in the quorums. The last
/// slot is the model's crash adversary: its two gated sub-steps are
/// the real lifecycle calls, [`Cluster::crash`] on the victim replica
/// and [`Cluster::restart_skip_resync`] with
/// [`RestartMode::Wipe`]. Replaying the minimized model trace
/// (`quorum_crash_skip_resync`) reproduces the duplicate timestamp on
/// real replica threads — the demonstration that the rejoin resync
/// sweep, not quorum intersection alone, carries recovery safety.
///
/// The adversary slot reports no timestamp
/// ([`last_ts`](WorkloadWorker::last_ts) stays `None`), so the
/// replayer's property check covers exactly the client ops; its
/// recorded model output (an environment event, not a `getTS`) never
/// matches, so cases built on this target set
/// `expect_exact_outputs: false`.
#[derive(Debug)]
pub struct QuorumTsCrashTarget {
    ts: QuorumTs,
    clients: usize,
    victim: u32,
}

impl QuorumTsCrashTarget {
    /// `clients` correct getTS processes plus one crash adversary over
    /// a cluster tolerating `f` failures. The victim is replica `f` —
    /// the register the model adversary crashes.
    pub fn new(clients: usize, f: usize) -> Self {
        Self {
            ts: QuorumTs::new(f),
            clients,
            victim: f as u32,
        }
    }

    /// The cluster under fault (wipe counters, lifecycle probes).
    pub fn cluster(&self) -> &Arc<Cluster> {
        self.ts.cluster()
    }
}

struct CrashAdversaryWorker<'a> {
    cluster: &'a Arc<Cluster>,
    victim: u32,
}

impl CrashAdversaryWorker<'_> {
    fn crash_and_amnesiac_restart(&self) {
        self.cluster.crash(self.victim);
        self.cluster
            .restart_skip_resync(self.victim, RestartMode::Wipe);
    }
}

impl WorkloadWorker for CrashAdversaryWorker<'_> {
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp {
        self.crash_and_amnesiac_restart();
        op
    }

    fn step_gated(&mut self, _op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        // Mirrors the model adversary's step grammar: invoke, the BOT
        // write (crash-stop), the amnesiac restore (wipe, no resync).
        gate.pause(); // op start
        gate.pause();
        self.cluster.crash(self.victim);
        gate.pause();
        self.cluster
            .restart_skip_resync(self.victim, RestartMode::Wipe);
        WorkloadOp::GetTs
    }
    // Default `last_ts` (None): environment events carry no timestamp.
}

impl WorkloadTarget for QuorumTsCrashTarget {
    fn object(&self) -> &'static str {
        "quorum_ts_crash"
    }

    fn backend(&self) -> &'static str {
        "quorum"
    }

    fn slots(&self) -> usize {
        self.clients + 1
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot <= self.clients, "slot {slot} out of range");
        if slot == self.clients {
            return Box::new(CrashAdversaryWorker {
                cluster: self.ts.cluster(),
                victim: self.victim,
            });
        }
        Box::new(StampWorker::new(&self.ts, slot))
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        let mut stats = ServiceStats::default();
        self.ts.cluster().fill_stats(&mut stats);
        Some(stats)
    }
}

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

    fn replay_granularity(&self) -> ReplayGranularity {
        self.inner.replay_granularity()
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

    #[test]
    fn quorum_ts_target_steps_and_tracks_history() {
        let target = QuorumTsTarget::new(2, 1);
        assert_eq!(target.object(), "quorum_ts");
        assert_eq!(target.backend(), "quorum");
        assert_eq!(target.slots(), 2);
        assert_eq!(target.replay_granularity(), ReplayGranularity::MemoryAccess);
        let mut w = target.worker(0);
        assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        // Compare before two stamps exist substitutes a GetTs.
        assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::GetTs);
        assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::Compare);
        assert_eq!(w.step(WorkloadOp::Scan), WorkloadOp::Scan);
        assert_eq!(w.last_ts(), Some(Timestamp::scalar(2)));
    }

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

    #[test]
    fn crash_adversary_slot_announces_three_steps_and_wipes_the_victim() {
        let target = Arc::new(QuorumTsCrashTarget::new(2, 1));
        assert_eq!(target.object(), "quorum_ts_crash");
        assert_eq!(target.slots(), 3, "two clients plus the adversary");
        let gate = Arc::new(StepGate::new());
        let t2 = Arc::clone(&target);
        let g2 = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            let mut w = t2.worker(2);
            w.step_gated(WorkloadOp::GetTs, &g2);
            assert_eq!(w.last_ts(), None, "environment events have no output");
            g2.finish();
        });
        // Op start + crash + amnesiac restart = 3 announced sub-steps,
        // matching the model adversary's invoke + two writes.
        for step in 1..=3 {
            gate.release_next(std::time::Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("release {step}: {e}"));
        }
        handle.join().expect("adversary thread");
        let cluster = target.cluster();
        assert_eq!(cluster.replica(1).wipes(), 1, "victim is replica f = 1");
        assert!(
            cluster.router().crashed().is_empty(),
            "the adversary restarts what it crashes"
        );
        assert_eq!(cluster.resynced_registers(), 0, "resync was skipped");
    }
}
