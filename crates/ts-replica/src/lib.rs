//! Quorum-replicated register backend over a fault-injecting modelled
//! network.
//!
//! The paper's algorithms are written against abstract atomic MWMR
//! registers; every backend so far realized them with hardware atomics
//! in one address space. This crate realizes them with **replication**:
//! a [`QuorumBackend`] register is `2f + 1` in-process
//! [`Replica`]s running the ABD majority protocol, every message
//! flowing through a seeded, fault-injecting [`Router`] — delay,
//! reorder, drop, duplicate, partition/heal — so the same `CollectMax`
//! / `RegisterArray` / lock algorithms run unchanged on top of an
//! unreliable network, and their guarantees can be tested *under*
//! those faults.
//!
//! # Layers
//!
//! | module | what lives there |
//! |---|---|
//! | [`proto`] | [`WriteStamp`] `(seq, writer)` pairs, the flat [`Message`] envelope |
//! | [`net`] | [`Router`]: per-client queues, hashed [`FaultPlan`] knobs, partitions, the per-delivery step hook |
//! | [`replica`] | [`Replica`]: one locked `(stamp, word)` cell per register, handlers, the armed monotonicity invariant |
//! | [`cluster`] | [`Cluster`]: ABD reads/writes, retransmission, [`with_cluster`] scoping; [`QuorumTs`], the message-step timestamp object, and its one `getTS` body over a replica transport |
//! | [`backend`] | [`QuorumBackend`] / [`QuorumRegister`]: the [`RegisterBackend`](ts_register::RegisterBackend) seam |
//! | [`model`] | [`QuorumModel`] / [`QuorumCall`]: `QuorumTs`'s `getTS` re-run by the model checker (one register per replica, one step per message) |
//! | [`workload`] | [`ReplicatedCollectMax`], [`ReplicatedTryRegisters`]: workload-engine and bench-grid adapters |
//!
//! # The model checker, now over messages
//!
//! [`QuorumModel`] re-runs [`QuorumTs`]'s own `getTS` body, one model
//! step per message delivery, so the explorer enumerates message
//! interleavings of the code that ships, and its counterexamples (the
//! non-intersecting write quorum of [`QuorumModel::broken`], the
//! amnesiac restart of [`QuorumModel::crash_skip_resync`]) are
//! checked into the trace corpus. The router's
//! [step hook](Router::set_step_hook) runs before every delivery, so
//! tests can crash, restart or park replicas at exact points of live
//! cluster traffic.
//!
//! # Example
//!
//! ```
//! use ts_replica::{with_cluster, Cluster, ClusterConfig, FaultPlan, QuorumBackend};
//! use ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
//!
//! // A lossy, reordering network, seeded for reproducibility.
//! let plan = FaultPlan { seed: 7, drop_permille: 100, delay_max: 3, reorder: true, ..FaultPlan::default() };
//! let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
//! let ts = with_cluster(&cluster, || CollectMax::<QuorumBackend>::with_backend(2));
//! let a = ts.get_ts(0).unwrap();
//! let b = ts.get_ts(1).unwrap();
//! assert!(Timestamp::compare(&a, &b), "still a correct timestamp object");
//! assert!(cluster.quorum_rounds() > 0, "every access ran the quorum protocol");
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod model;
pub mod net;
pub mod proto;
pub mod replica;
pub mod workload;

pub use backend::{QuorumBackend, QuorumRegister};
pub use cluster::{
    with_cluster, Cluster, ClusterConfig, QuorumTs, RestartMode, Unavailable, BOT, DEFAULT_DEADLINE,
};
pub use model::{QuorumCall, QuorumModel};
pub use net::{FaultPlan, NetStats, Router, StepHook};
pub use proto::{Message, MsgKind, WriteStamp};
pub use replica::Replica;
pub use workload::{ReplicatedCollectMax, ReplicatedTryRegisters};
