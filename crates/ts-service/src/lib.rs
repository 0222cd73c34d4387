//! A *timestamp service* layered over the collect-max substrate:
//! sharding, batching and virtual-pid multiplexing.
//!
//! The paper (Helmi–Higham–Pacheco–Woelfel, PODC 2011) proves that a
//! long-lived timestamp object for `n` processes needs Ω(n) registers
//! and that its full timestamp property — *every* pair of
//! non-overlapping `getTS` calls is ordered — pins all traffic onto one
//! logical maximum. This crate explores the engineering space just past
//! that bound: what a timestamp *service* can do once the guarantee is
//! relaxed from "ordered across all clients" to
//!
//! 1. a **total order** on all issued stamps (lexicographic on
//!    [`ShardedTimestamp`](ts_core::ShardedTimestamp) — antisymmetric,
//!    transitive, shared-memory-free to evaluate), and
//! 2. **per-client monotonicity**: every stamp a client obtains is
//!    strictly larger than its previous one, across batches and shard
//!    migrations.
//!
//! That relaxation is exactly what lets the hot path escape the single
//! contended maximum:
//!
//! - [`ShardedCollectMax`] partitions the service into `S` independent
//!   *shard domains*. Each shard owns one packed `(epoch, local)`
//!   reservation word plus its own bank of `n` single-writer registers
//!   (each domain still pays the paper's per-domain register bill — the
//!   lower bound is respected shard-wise, not dodged).
//! - [`ClientSession::get_ts_batch`] reserves `k` consecutive stamps
//!   with **one** CAS, amortizing the shared-memory cost `k`-fold.
//! - Sessions are keyed by *virtual pids*
//!   ([`VpidAllocator`](ts_core::VpidAllocator)) and borrow a physical
//!   register slot only for the duration of a call, so `M` clients run
//!   over `n` physical slots — space scales with the shard
//!   configuration, not the client population.
//!
//! Every hot-path event is counted in a
//! [`ServiceStats`](ts_core::ServiceStats) snapshot
//! ([`ShardedCollectMax::stats`]) so benchmarks report fast-hit /
//! batch-fill / lease-wait figures instead of opaque throughput.
//!
//! # Example
//!
//! ```
//! use ts_core::ShardedTimestamp;
//! use ts_service::{ServiceConfig, ShardedCollectMax};
//!
//! let service = ShardedCollectMax::new(ServiceConfig::new(4, 2));
//! let mut session = service.session();
//! let a = session.get_ts();
//! let batch = session.get_ts_batch(16);
//! assert_eq!(batch.len(), 16);
//! session.migrate((session.shard() + 1) % 4);
//! let b = session.get_ts();
//! // Per-client monotonicity survives batching and migration.
//! assert!(ShardedTimestamp::compare(&a, &b));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod pool;
mod service;
mod session;
mod shard;

pub use batch::ShardBatch;
pub use service::ShardedCollectMax;
pub use session::ClientSession;

/// Shape of a [`ShardedCollectMax`]: how many independent shard domains
/// and how many physical register slots each domain owns.
///
/// Total register space is `shards * slots_per_shard` `(epoch, local)`
/// register pairs (plus one reservation word per shard) — fixed at
/// construction, independent of how many client sessions are ever
/// minted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Independent shard domains (`S >= 1`). Each issues stamps from
    /// its own `(epoch, local)` word; more shards means less CAS
    /// contention and a coarser cross-client order.
    pub shards: usize,
    /// Physical register slots per shard (`n >= 1`). Bounds how many
    /// clients can be *mid-call* on one shard at once; excess callers
    /// wait for a slot lease (counted as
    /// [`lease_waits`](ts_core::ServiceStats::lease_waits)).
    pub slots_per_shard: usize,
}

impl ServiceConfig {
    /// A configuration with `shards` domains of `slots_per_shard` slots.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `shards` exceeds `u32`
    /// range (shard ids live in the
    /// [`ShardedTimestamp::shard`](ts_core::ShardedTimestamp) field).
    pub fn new(shards: usize, slots_per_shard: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(slots_per_shard >= 1, "need at least one slot per shard");
        assert!(u32::try_from(shards).is_ok(), "shard ids must fit u32");
        Self {
            shards,
            slots_per_shard,
        }
    }

    /// Total physical registers: each slot owns an `(epoch, local)`
    /// register pair (both halves within the packed backend's 32-bit
    /// budget), so `shards * slots_per_shard * 2`.
    pub fn registers(&self) -> usize {
        self.shards * self.slots_per_shard * 2
    }
}

/// How a workload driver asks a session for stamps — the service's mode
/// vocabulary, shared with the `ts-workloads` adapters and the bench
/// grid labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// One stamp per call ([`ClientSession::get_ts`]): one slot lease +
    /// one CAS + one register write per stamp.
    Single,
    /// `k` consecutive stamps per call
    /// ([`ClientSession::get_ts_batch`]): the same shared-memory cost,
    /// amortized `k`-fold.
    Batch(u32),
}

impl IssueMode {
    /// Stamps issued per call in this mode.
    pub fn stamps_per_call(&self) -> u64 {
        match self {
            IssueMode::Single => 1,
            IssueMode::Batch(k) => u64::from(*k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_counts_registers() {
        let cfg = ServiceConfig::new(4, 8);
        assert_eq!(cfg.registers(), 64, "an (epoch, local) pair per slot");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn config_rejects_zero_shards() {
        ServiceConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn config_rejects_zero_slots() {
        ServiceConfig::new(1, 0);
    }

    #[test]
    fn issue_modes_report_stamps_per_call() {
        assert_eq!(IssueMode::Single.stamps_per_call(), 1);
        assert_eq!(IssueMode::Batch(16).stamps_per_call(), 16);
    }
}
