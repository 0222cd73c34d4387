//! [`ShardedCollectMax`]: the sharded, batched timestamp service.

use std::fmt;

use ts_core::{ServiceStats, ShardedTimestamp, VpidAllocator};
use ts_register::{MeterSnapshot, PackedBackend, RegisterBackend};

use crate::batch::ShardBatch;
use crate::session::ClientSession;
use crate::shard::{Shard, BATCHED, BATCHES, CALLS, FAST_HITS};
use crate::ServiceConfig;

/// A long-lived timestamp *service* over `S` independent shard domains.
///
/// Each shard issues stamps from its own packed `(epoch, local)` word
/// and owns its own bank of `n` single-writer registers — the
/// [`CollectMax`](ts_core::CollectMax) substrate, partitioned. Issued
/// stamps are [`ShardedTimestamp`] triples, totally ordered
/// lexicographically; the service guarantees the timestamp property
/// *per client* (see the crate docs for exactly what is traded away,
/// and why that trade is what escapes the single contended maximum the
/// paper's Ω(n) objects all share).
///
/// Clients interact through [`ClientSession`]s
/// ([`session`](ShardedCollectMax::session)): a session carries a
/// never-reused virtual pid, its assigned shard and its floor (last
/// stamp), and borrows a physical register slot only while a call
/// runs — `M` sessions multiplex over `shards * slots_per_shard`
/// registers.
///
/// # Example
///
/// ```
/// use ts_service::{ServiceConfig, ShardedCollectMax};
///
/// let service = ShardedCollectMax::new(ServiceConfig::new(2, 4));
/// let mut a = service.session();
/// let mut b = service.session();
/// let (ta, tb) = (a.get_ts(), b.get_ts());
/// assert_ne!(ta, tb, "issued stamps are globally unique");
/// let stats = service.stats();
/// assert_eq!(stats.calls, 2);
/// assert_eq!(stats.stamps, 2);
/// ```
pub struct ShardedCollectMax<B: RegisterBackend<u64> = PackedBackend> {
    shards: Vec<Shard<B>>,
    config: ServiceConfig,
    vpids: VpidAllocator,
}

impl ShardedCollectMax<PackedBackend> {
    /// Creates a service on the default word-inlined register backend.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_backend(config)
    }
}

impl<B: RegisterBackend<u64>> ShardedCollectMax<B> {
    /// Creates a service with `config.shards` domains of
    /// `config.slots_per_shard` registers each, on backend `B`.
    pub fn with_backend(config: ServiceConfig) -> Self {
        // Re-validate: the config fields are public.
        let config = ServiceConfig::new(config.shards, config.slots_per_shard);
        Self {
            shards: (0..config.shards)
                .map(|_| Shard::new(config.slots_per_shard))
                .collect(),
            config,
            vpids: VpidAllocator::new(),
        }
    }

    /// The shape this service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Number of shard domains.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Physical registers across all shards
    /// (`shards * slots_per_shard * 2`: an `(epoch, local)` pair per
    /// slot) — the service's register space, independent of how many
    /// sessions exist.
    pub fn registers(&self) -> usize {
        self.config.registers()
    }

    /// The backend label (for bench reports).
    pub fn backend_name(&self) -> &'static str {
        B::NAME
    }

    /// Mints a new client session, assigned round-robin (by vpid) to a
    /// shard. Sessions are cheap: a vpid, a shard index and a floor —
    /// no per-session shared memory.
    pub fn session(&self) -> ClientSession<'_, B> {
        let vpid = self.vpids.next();
        let shard = (vpid as usize) % self.config.shards;
        ClientSession::new(self, vpid, shard)
    }

    /// Sessions minted so far.
    pub fn sessions(&self) -> u32 {
        self.vpids.issued()
    }

    /// A shard's reservation frontier as a stamp (`None` while the
    /// shard has issued nothing). Administrative/diagnostic.
    pub fn shard_frontier(&self, shard: usize) -> Option<ShardedTimestamp> {
        let word = self.shards[shard].word();
        (word > 0).then(|| ShardedTimestamp::from_word(word, shard as u32))
    }

    /// Administratively raises a shard's floor: afterwards every stamp
    /// the shard issues exceeds `floor` in `(epoch, local)`. This is
    /// the rebalance hook (fold a retiring shard's frontier into its
    /// successor) and the test hook for driving a shard toward `local`
    /// exhaustion.
    pub fn raise_shard_floor(&self, shard: usize, floor: ShardedTimestamp) {
        self.shards[shard].raise_floor(floor.word());
    }

    /// Read-only observation pass: collects every shard's register bank
    /// and returns the largest *published* stamp (`None` before any
    /// publication). Lower-bounds the reservation frontiers — an
    /// in-flight reservation is visible here only once its issuer's
    /// register write lands.
    pub fn read_max(&self) -> Option<ShardedTimestamp> {
        let mut best: Option<ShardedTimestamp> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(word) = shard.collect_max_word() {
                let t = ShardedTimestamp::from_word(word, i as u32);
                if best.is_none_or(|b| b < t) {
                    best = Some(t);
                }
            }
        }
        best
    }

    /// A shard's register traffic, per register, in the shape of
    /// [`CollectMax::meter`](ts_core::CollectMax::meter)'s snapshot:
    /// index `slot` is a slot's local register and `slots_per_shard +
    /// slot` its epoch register. Rebuilt from the counts each slot's
    /// lease holder keeps in its slot row and the shard's count of
    /// [`read_max`](Self::read_max) collects; exact once the callers
    /// have quiesced.
    pub fn meter_snapshot(&self, shard: usize) -> MeterSnapshot {
        self.shards[shard].meter_snapshot()
    }

    /// Snapshot of the unified hot-path counters (per-slot rows of
    /// every shard, summed).
    pub fn stats(&self) -> ServiceStats {
        let shard_stamps: Vec<u64> = self.shards.iter().map(Shard::stamps).collect();
        let sum = |column| self.shards.iter().map(|s| s.counters.sum(column)).sum();
        ServiceStats {
            calls: sum(CALLS),
            stamps: shard_stamps.iter().sum(),
            fast_hits: sum(FAST_HITS),
            batches: sum(BATCHES),
            batched_stamps: sum(BATCHED),
            lease_waits: self.shards.iter().map(|s| s.pool.waits()).sum(),
            shard_stamps,
            ..Default::default()
        }
    }

    /// Issues `k` stamps on `shard` above `floor` (a packed word, `0`
    /// for none): leases a slot (trying `slot_hint` first, and leaving
    /// it at the slot leased), reserves with one CAS, publishes the top
    /// to the leased register. Sessions call this; it is the
    /// single-stamp path too (`k == 1`).
    ///
    /// A call makes three locked read-modify-writes: the lease CAS, the
    /// reservation CAS (more only when it loses a race) and the lease
    /// release. Its counts go to the leased slot's counter row with
    /// plain stores, and nothing on the path touches thread-local
    /// state.
    pub(crate) fn issue_batch(
        &self,
        shard: usize,
        slot_hint: &mut usize,
        floor: u64,
        k: u32,
    ) -> ShardBatch {
        assert!(k >= 1, "batch size must be at least 1");
        let sh = &self.shards[shard];
        let lease = sh.pool.lease(*slot_hint);
        let slot = lease.slot();
        *slot_hint = slot;
        let res = sh.get_batch(slot, floor, u64::from(k));
        drop(lease);
        ShardBatch::new(res.first, res.last, shard as u32)
    }
}

impl<B: RegisterBackend<u64>> fmt::Debug for ShardedCollectMax<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCollectMax")
            .field("backend", &B::NAME)
            .field("config", &self.config)
            .field("sessions", &self.vpids.issued())
            .field("calls", &self.stats().calls)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_register::EpochBackend;

    #[test]
    fn sessions_round_robin_over_shards() {
        let service = ShardedCollectMax::new(ServiceConfig::new(3, 1));
        let shards: Vec<usize> = (0..6).map(|_| service.session().shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(service.sessions(), 6);
    }

    #[test]
    fn issued_stamps_land_in_stats_and_read_max() {
        let service = ShardedCollectMax::new(ServiceConfig::new(2, 2));
        let mut s0 = service.session(); // shard 0
        let mut s1 = service.session(); // shard 1
        s0.get_ts();
        let batch = s1.get_ts_batch(4);
        assert_eq!(batch.len(), 4);
        let stats = service.stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.stamps, 5);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_stamps, 4);
        assert_eq!(stats.shard_stamps, vec![1, 4]);
        assert_eq!(stats.fast_hit_ratio(), Some(1.0), "uncontended = all fast");
        // Shard 1 published local 4 — the global max.
        let max = service.read_max().expect("stamps were published");
        assert_eq!((max.local, max.shard), (4, 1));
    }

    #[test]
    fn raise_shard_floor_pushes_the_frontier() {
        let service = ShardedCollectMax::new(ServiceConfig::new(1, 1));
        let floor = ShardedTimestamp::new(5, 10, 0);
        service.raise_shard_floor(0, floor);
        assert_eq!(service.shard_frontier(0), Some(floor));
        let mut s = service.session();
        let t = s.get_ts();
        assert_eq!((t.epoch, t.local), (5, 11));
    }

    #[test]
    fn epoch_backend_service_issues_identically() {
        let service: ShardedCollectMax<EpochBackend> =
            ShardedCollectMax::with_backend(ServiceConfig::new(2, 1));
        assert_eq!(service.backend_name(), "epoch");
        let mut s = service.session();
        let a = s.get_ts();
        let b = s.get_ts();
        assert!(ShardedTimestamp::compare(&a, &b));
        assert_eq!(service.stats().stamps, 2);
    }

    #[test]
    fn meters_record_register_traffic() {
        let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
        let mut s = service.session();
        s.get_ts();
        assert!(service.meter_snapshot(0).total_writes() >= 1);
    }
}
