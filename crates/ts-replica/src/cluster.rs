//! The replica cluster: `2f + 1` replicas, one router, and the ABD
//! client operations that read and write registers through them.
//!
//! # Client operations
//!
//! [`Cluster::abd_read`] and [`Cluster::abd_write`] are the classic
//! two-phase majority protocol:
//!
//! * **read** — query `f + 1` replicas for their `(stamp, word)`;
//!   take the lexicographic maximum. If the replies *diverged*, push
//!   the maximum back onto `f + 1` replicas (read-repair) before
//!   returning, so a later read can never observe an older value.
//!   When the replies agree, `f + 1` replicas already hold the
//!   maximum and the write-back is skipped.
//! * **write** — query `f + 1` replicas for stamps, pick
//!   `(max.seq + 1, self)`, then install on `f + 1` replicas and
//!   return only once all acks arrive — the ack set is the durability
//!   proof.
//!
//! Any two `f + 1` subsets of `2f + 1` intersect, which is the whole
//! correctness argument; replica choice is a rotation preference, not
//! a requirement, so clients widen their target set on retry and
//! survive any minority of unreachable replicas.
//!
//! A phase keeps the replies it has across retries: a retry asks only
//! the replicas that have not answered, and every reply folds into a
//! fixed summary (who answered, how many, the largest `(stamp, word)`,
//! whether the stamps diverged) rather than a list of messages. A wipe
//! anywhere in the cluster during the phase drops the kept replies (see
//! `quorum_rpc`).
//!
//! # Determinism
//!
//! Every client owns its message queue, its op counter and its
//! counter stripes (each written only by the client's own thread), and
//! every fault decision is hashed from the
//! message's identity (see [`net`](crate::net)). So a client's network
//! schedule — which of its messages are lost, duplicated, delayed, and
//! the order its queue delivers them — depends only on the router's
//! seeded [`FaultPlan`] and that client's own program. A client whose
//! registers no one else touches replays **bit-identically** (see
//! `client_delivery_log`), alone or next to other busy clients. What
//! other threads add is the *contents* of replies on shared registers
//! and the timing of crashes, partitions and wipes; such runs stay
//! linearizable but not schedule-stable, exactly like the shared-memory
//! objects upstream.
//!
//! # Ambient wiring
//!
//! [`RegisterBackend`](ts_register::RegisterBackend) construction has
//! no context parameter, so the generic seams
//! (`RegisterArray::with_backend`, `CollectMax::with_backend`, …) are
//! wired through a thread-local scope: build objects inside
//! [`with_cluster`] and every quorum register they create joins that
//! cluster. Outside any scope a register gets its own private
//! fault-free `f = 1` cluster, which keeps doc-tests and quick probes
//! zero-ceremony.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use ts_core::workload::VpidAllocator;
use ts_core::{CachePadded, ServiceStats, Timestamp};
use ts_register::SegTable;

use crate::net::{mix, FaultPlan, HeldQueue, NetStats, Pumped, Router};
use crate::proto::{Message, MsgKind, WriteStamp};
use crate::replica::Replica;

/// Default per-operation deadline, in client-local steps (see
/// [`ClusterConfig::deadline`]). Generous: a healthy or lossy-but-live
/// network resolves a quorum op in tens of steps; only a quorum that
/// stays unreachable burns the whole budget.
pub const DEFAULT_DEADLINE: u64 = 1 << 20;

/// Exponential-backoff exponent cap: waits grow `2, 4, ..., 2^CAP`
/// steps (plus seeded jitter) and then plateau.
const BACKOFF_CAP: u64 = 10;

/// Shape and fault schedule of a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Tolerated replica failures; the cluster runs `2f + 1` replicas
    /// and quorums are `f + 1`.
    pub f: usize,
    /// The router's seeded fault schedule.
    pub plan: FaultPlan,
    /// Per-operation deadline in **client-local steps** — every replica
    /// probe, router pump, and backoff tick a quorum op performs counts
    /// one step. No wall clock anywhere: the same seed and schedule
    /// exhaust the deadline at the same step, so timeouts replay
    /// deterministically.
    pub deadline: u64,
}

impl ClusterConfig {
    /// Fault-free config tolerating `f` failures.
    pub fn new(f: usize) -> Self {
        Self {
            f,
            plan: FaultPlan::default(),
            deadline: DEFAULT_DEADLINE,
        }
    }

    /// Replaces the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the per-operation step deadline (must be nonzero).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        assert!(deadline > 0, "deadline must be nonzero");
        self.deadline = deadline;
        self
    }

    /// Replica count (`2f + 1`).
    pub fn replicas(&self) -> usize {
        2 * self.f + 1
    }
}

/// How a crashed replica comes back in [`Cluster::restart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// The replica kept its durable state across the crash.
    Retain,
    /// The replica lost everything (restart from an empty disk); the
    /// rejoin resync sweep rebuilds its slots from the live majority.
    Wipe,
}

/// A quorum operation exhausted its step deadline: fewer than `f + 1`
/// replicas were reachable for its whole retry/backoff budget.
///
/// Returned by the `try_*` client operations; the infallible
/// [`RegisterBackend`](ts_register::RegisterBackend) seam converts it
/// into a panic carrying this diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unavailable {
    /// The register the operation targeted.
    pub reg: u32,
    /// Which phase gave up ("read", "write", "write-back").
    pub op: &'static str,
    /// Retransmission attempts made before giving up.
    pub attempts: u64,
    /// Client-local steps consumed (probes + pumps + backoff ticks).
    pub steps: u64,
    /// The deadline those steps exhausted.
    pub deadline: u64,
    /// Replicas crashed at the moment of giving up.
    pub crashed: Vec<u32>,
    /// Replicas partitioned away at the moment of giving up.
    pub isolated: Vec<u32>,
}

impl std::fmt::Display for Unavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quorum {} on register {} unavailable: {} attempts / {} steps \
             (deadline {}), crashed replicas {:?}, partitioned {:?}",
            self.op,
            self.reg,
            self.attempts,
            self.steps,
            self.deadline,
            self.crashed,
            self.isolated
        )
    }
}

impl std::error::Error for Unavailable {}

/// One client's quorum counters; the [`Cluster`] getters sum them.
///
/// Only the owning client's thread writes its stripe (client ids are
/// per thread), so a bump is a plain `Relaxed` load and store (see
/// [`bump`]): no locked instruction on the quorum path. Readers sum the
/// stripes and are exact once the clients have quiesced.
#[derive(Debug, Default)]
struct QuorumStripe {
    rounds: AtomicU64,
    repairs: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    backoffs: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
}

/// Adds `by` to `counter`, a field of the calling client's own
/// [`QuorumStripe`]; only that client's thread writes it.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// The replies one quorum phase has counted, folded as they arrive:
/// which replicas answered, how many, and the largest `(stamp, word)`.
#[derive(Debug, Clone, Copy)]
struct Replies {
    /// The op id of the phase's first attempt (since its last wipe
    /// reset): a reply to it or to any later attempt counts.
    first: u64,
    /// The replicas that answered, one bit each ([`Cluster::new`] caps
    /// replicas at 64).
    answered: u64,
    /// How many replicas answered.
    count: usize,
    /// The largest `(stamp, word)` among the replies.
    max: (WriteStamp, u64),
    /// Whether two replies carried different stamps.
    diverged: bool,
}

impl Replies {
    /// No replies yet to a phase whose first attempt is `first`.
    fn since(first: u64) -> Self {
        Self {
            first,
            answered: 0,
            count: 0,
            max: (WriteStamp::INITIAL, 0),
            diverged: false,
        }
    }

    /// Whether `replica` already answered.
    fn has(&self, replica: u32) -> bool {
        self.answered & (1 << replica) != 0
    }

    /// Counts `reply` unless its replica already answered.
    fn fold(&mut self, reply: &Message) {
        if self.has(reply.from) {
            return;
        }
        let stamp = reply.stamp();
        if self.count == 0 || stamp > self.max.0 {
            self.diverged |= self.count > 0;
            self.max = (stamp, reply.word);
        } else if stamp < self.max.0 {
            self.diverged = true;
        }
        self.answered |= 1 << reply.from;
        self.count += 1;
    }
}

/// The client running one ABD operation: its id and its counter
/// stripe, passed down to every phase of the operation.
#[derive(Clone, Copy)]
struct Caller<'a> {
    id: u32,
    stripe: &'a QuorumStripe,
}

thread_local! {
    /// Stack of ambient clusters (innermost last); see [`with_cluster`].
    static AMBIENT: RefCell<Vec<Arc<Cluster>>> = const { RefCell::new(Vec::new()) };
    /// This thread's client id per cluster uid.
    static CLIENT_IDS: RefCell<HashMap<u64, u32>> = RefCell::new(HashMap::new());
    /// The `(cluster uid, client id)` pair `Cluster::client_id` answered
    /// last, so a thread that stays on one cluster skips the map.
    static LAST_CLIENT: Cell<(u64, u32)> = const { Cell::new((u64::MAX, 0)) };
}

static NEXT_CLUSTER_UID: AtomicU64 = AtomicU64::new(0);

/// Runs `f` with `cluster` as the ambient cluster: every
/// [`QuorumBackend`](crate::QuorumBackend) register created inside
/// (directly or through a generic seam like
/// `CollectMax::with_backend`) joins it.
///
/// Scopes nest (innermost wins) and unwind safely on panic.
pub fn with_cluster<R>(cluster: &Arc<Cluster>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            AMBIENT.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|s| s.borrow_mut().push(Arc::clone(cluster)));
    let _guard = Guard;
    f()
}

/// The innermost ambient cluster on this thread, if any.
pub(crate) fn ambient_cluster() -> Option<Arc<Cluster>> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// `2f + 1` [`Replica`]s behind one fault-injecting
/// [`Router`]. See the module docs for the protocol and wiring.
pub struct Cluster {
    uid: u64,
    config: ClusterConfig,
    replicas: Vec<Replica>,
    router: Router,
    next_reg: AtomicU32,
    client_vpids: VpidAllocator,
    /// Per-client quorum counters, indexed by `client - CLIENT_BASE`.
    stripes: SegTable<CachePadded<QuorumStripe>>,
    crashes: AtomicU64,
    restarts: AtomicU64,
    resynced_regs: AtomicU64,
    /// Bumped (Release) right *before* every wipe. A quorum phase
    /// snapshots it before its first probe and re-checks (Acquire)
    /// after every attempt: a change means some acking replica may have
    /// been wiped — and resynced from others that had not yet seen this
    /// phase's write — *inside* the ack window, so the phase discards
    /// its kept replies and re-earns its quorum instead of reporting a
    /// durability level it no longer has. See `quorum_rpc` for the full
    /// argument.
    wipe_epoch: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("f", &self.config.f)
            .field("replicas", &self.replicas.len())
            .field("plan", &self.config.plan)
            .field("registers", &self.next_reg.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster of `2f + 1` replicas running `config.plan`.
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        assert!(
            config.replicas() <= u64::BITS as usize,
            "at most {} replicas",
            u64::BITS
        );
        Arc::new(Self {
            uid: NEXT_CLUSTER_UID.fetch_add(1, Ordering::Relaxed),
            config,
            replicas: (0..config.replicas() as u32).map(Replica::new).collect(),
            router: Router::new(config.plan),
            next_reg: AtomicU32::new(0),
            client_vpids: VpidAllocator::new(),
            stripes: SegTable::new(),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            resynced_regs: AtomicU64::new(0),
            wipe_epoch: AtomicU64::new(0),
        })
    }

    /// The cluster's shape and plan.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Tolerated failures `f`.
    pub fn f(&self) -> usize {
        self.config.f
    }

    /// Replica count (`2f + 1`).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Quorum size (`f + 1`).
    pub fn quorum(&self) -> usize {
        self.config.f + 1
    }

    /// Direct access to a replica (durability probes, invariants).
    pub fn replica(&self, id: usize) -> &Replica {
        &self.replicas[id]
    }

    /// The fault-injecting router (partition/heal knobs, step hook,
    /// delivery log).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Network-level counters.
    pub fn net_stats(&self) -> NetStats {
        self.router.stats()
    }

    fn stripe(&self, client: u32) -> &QuorumStripe {
        self.stripes
            .get_or_init((client - Message::CLIENT_BASE) as usize)
    }

    fn sum(&self, field: impl Fn(&QuorumStripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Quorum round-trips performed (one per completed phase).
    pub fn quorum_rounds(&self) -> u64 {
        self.sum(|s| &s.rounds)
    }

    /// Read-repair write-backs performed.
    pub fn quorum_repairs(&self) -> u64 {
        self.sum(|s| &s.repairs)
    }

    /// Client retransmission attempts (fault pressure).
    pub fn quorum_retries(&self) -> u64 {
        self.sum(|s| &s.retries)
    }

    /// Operations that exhausted their step deadline.
    pub fn quorum_timeouts(&self) -> u64 {
        self.sum(|s| &s.timeouts)
    }

    /// Backoff steps spent waiting between retransmissions.
    pub fn quorum_backoff_steps(&self) -> u64 {
        self.sum(|s| &s.backoffs)
    }

    /// Operations that completed, but only after retrying (service was
    /// degraded, not down, from that client's perspective).
    pub fn quorum_degraded(&self) -> u64 {
        self.sum(|s| &s.degraded)
    }

    /// Operations that returned [`Unavailable`].
    pub fn quorum_unavailable(&self) -> u64 {
        self.sum(|s| &s.unavailable)
    }

    /// Replica crashes injected.
    pub fn replica_crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Replica restarts performed.
    pub fn replica_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Registers refreshed by rejoin resync sweeps.
    pub fn resynced_registers(&self) -> u64 {
        self.resynced_regs.load(Ordering::Relaxed)
    }

    /// Copies the quorum + network counters into a [`ServiceStats`]
    /// snapshot.
    pub fn fill_stats(&self, stats: &mut ServiceStats) {
        stats.quorum_rounds = self.quorum_rounds();
        stats.quorum_repairs = self.quorum_repairs();
        stats.quorum_retries = self.quorum_retries();
        stats.quorum_timeouts = self.quorum_timeouts();
        stats.quorum_backoff_steps = self.quorum_backoff_steps();
        stats.quorum_degraded = self.quorum_degraded();
        stats.quorum_unavailable = self.quorum_unavailable();
        let net = self.net_stats();
        stats.net_dropped = net.dropped;
        stats.net_duplicated = net.duplicated;
        stats.net_delayed = net.delayed;
        stats.net_reordered = net.reordered;
    }

    // ---- replica lifecycle (crash-stop faults) ----

    /// Crash-stops replica `id`: the router discards every message to
    /// or from it until [`Cluster::restart`]. Its in-memory state is
    /// untouched here — whether it survives is decided at restart time
    /// by the [`RestartMode`].
    pub fn crash(&self, id: u32) {
        assert!((id as usize) < self.replicas.len(), "no such replica");
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.router.crash_endpoint(id);
    }

    /// Restarts a crashed replica: optionally wipes its state, runs the
    /// rejoin **resync** sweep, then reconnects it.
    ///
    /// Resync runs *before* the endpoint is restored, so no client can
    /// observe the replica's pre-resync state: from the outside the
    /// crash+restart is one atomic transition from "offline" to
    /// "online and caught up". That ordering is what lets the model
    /// treat crash/recovery as single steps.
    pub fn restart(&self, id: u32, mode: RestartMode) {
        self.restart_inner(id, mode, true);
    }

    /// Broken twin of [`Cluster::restart`] that skips the resync sweep
    /// — a wiped replica rejoins remembering nothing. Exists to
    /// demonstrate *why* resync is load-bearing: with it skipped, a
    /// subsequent quorum read can count the amnesiac replica and (once
    /// `f` more replicas fail or lag) observe a stamp regression. The
    /// model checker finds the interleaving; see the
    /// `quorum_crash_skip_resync` corpus trace.
    pub fn restart_skip_resync(&self, id: u32, mode: RestartMode) {
        self.restart_inner(id, mode, false);
    }

    fn restart_inner(&self, id: u32, mode: RestartMode, resync: bool) {
        assert!((id as usize) < self.replicas.len(), "no such replica");
        assert!(self.router.is_crashed(id), "replica {id} is not crashed");
        self.restarts.fetch_add(1, Ordering::Relaxed);
        if resync && mode == RestartMode::Wipe {
            // A wiped replica's only copy of an acked write may be the
            // live others'. With fewer than a quorum of them up, some
            // acked write could be held *only* by still-crashed
            // replicas plus the state we are about to destroy — refuse
            // rather than silently lose it. (Checked before the wipe.)
            let live_others = (0..self.replicas.len() as u32)
                .filter(|&r| r != id && !self.router.is_crashed(r))
                .count();
            assert!(
                live_others >= self.quorum(),
                "resync of wiped replica {id} needs a live quorum of others \
                 ({} up, {} needed) — restart a retained replica first",
                live_others,
                self.quorum()
            );
        }
        if mode == RestartMode::Wipe {
            // Bumped before the state is destroyed: any quorum phase
            // whose final epoch check already passed saw the old value
            // here, so all of its acks landed before this wipe (and
            // before the resync reads below) — the live others still
            // hold its write. Any phase still inside its ack window
            // sees the bump and retries.
            self.wipe_epoch.fetch_add(1, Ordering::Release);
            self.replicas[id as usize].wipe();
        }
        if resync {
            self.resync(id);
        }
        self.router.restore_endpoint(id);
    }

    /// Catch-up read-repair sweep for a healing replica: for every
    /// register, read the stored `(stamp, word)` of **all live other
    /// replicas**, take the stamp-maximum, and install it into the
    /// healing replica through the ordinary `Write` handler (so the
    /// monotonic-stamp assert stays armed). The writes are sent as
    /// [`Message::CONTROLLER`], so a thread that only restarts replicas
    /// never becomes a client.
    ///
    /// Soundness (the wiped case — the retained case only gains): with
    /// at most `f` replicas down in total (the healing one included),
    /// the live others number at least `f + 1` — a quorum — and any
    /// acked write is held by `f + 1` replicas, of which at most
    /// `f - 1` others can be down. So at least one live other replica
    /// holds every acked write, and the max over them dominates
    /// everything clients were promised. `restart_inner` enforces the
    /// live-quorum precondition before a wipe.
    fn resync(&self, id: u32) {
        let live: Vec<u32> = (0..self.replicas.len() as u32)
            .filter(|&r| r != id && !self.router.is_crashed(r))
            .collect();
        if live.is_empty() {
            // Retained restart with everyone else down: nothing to
            // learn from; the replica rejoins with its own state.
            return;
        }
        let healing = &self.replicas[id as usize];
        for reg in 0..self.registers() {
            let (stamp, word) = live
                .iter()
                .map(|&r| self.replicas[r as usize].stored(reg))
                .max_by_key(|&(stamp, _)| stamp)
                .expect("live set is non-empty");
            let (mine, _) = healing.stored(reg);
            if stamp > mine {
                healing.handle(&Message {
                    kind: MsgKind::Write,
                    op: Message::CONTROL_OP,
                    from: Message::CONTROLLER,
                    to: id,
                    reg,
                    seq: stamp.seq,
                    writer: stamp.writer,
                    word,
                    expected: 0,
                });
                self.resynced_regs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Currently crashed replica ids (sorted).
    pub fn crashed(&self) -> Vec<u32> {
        self.router.crashed()
    }

    /// Allocates a fresh register initialized to `word` on every
    /// replica.
    pub fn alloc_register(self: &Arc<Self>, word: u64) -> u32 {
        let reg = self.next_reg.fetch_add(1, Ordering::Relaxed);
        for replica in &self.replicas {
            replica.init_register(reg, word);
        }
        reg
    }

    /// Registers allocated so far.
    pub fn registers(&self) -> u32 {
        self.next_reg.load(Ordering::Relaxed)
    }

    /// This thread's client id and counter stripe, looked up once per
    /// ABD operation.
    fn caller(&self) -> Caller<'_> {
        let id = self.client_id();
        Caller {
            id,
            stripe: self.stripe(id),
        }
    }

    /// This thread's client id on this cluster (minted on first use).
    pub fn client_id(&self) -> u32 {
        let (uid, id) = LAST_CLIENT.get();
        if uid == self.uid {
            return id;
        }
        let id = CLIENT_IDS.with(|m| {
            *m.borrow_mut()
                .entry(self.uid)
                .or_insert_with(|| Message::CLIENT_BASE + self.client_vpids.next())
        });
        LAST_CLIENT.set((self.uid, id));
        id
    }

    /// ABD read: returns the quorum-maximum `(stamp, word)`, repairing
    /// divergent replicas on the way out. Panics with the
    /// [`Unavailable`] diagnosis if a quorum stays unreachable for the
    /// whole deadline — fallible callers use [`Cluster::try_abd_read`].
    pub fn abd_read(&self, reg: u32) -> (WriteStamp, u64) {
        self.try_abd_read(reg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// ABD write; panicking twin of [`Cluster::try_abd_write`].
    pub fn abd_write(&self, reg: u32, word: u64) -> WriteStamp {
        self.try_abd_write(reg, word)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible ABD read: quorum-maximum `(stamp, word)` with
    /// read-repair, or [`Unavailable`] once the step deadline expires.
    pub fn try_abd_read(&self, reg: u32) -> Result<(WriteStamp, u64), Unavailable> {
        let me = self.caller();
        bump(&me.stripe.rounds, 1);
        let need = self.quorum();
        let replies = self.quorum_rpc(me, need, "read", reg, |op, from, to| Message {
            kind: MsgKind::ReadQuery,
            op,
            from,
            to,
            reg,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        })?;
        let (stamp, word) = replies.max;
        if replies.diverged {
            // Read-repair: the replies diverged, so the maximum may be
            // durable on fewer than f + 1 replicas. Write it back
            // before returning or a later read could go backwards.
            bump(&me.stripe.repairs, 1);
            self.try_write_back(me, reg, stamp, word)?;
        }
        Ok((stamp, word))
    }

    /// Fallible ABD write: two phases (stamp query, quorum install).
    /// Returns the stamp the write landed under; when the ack quorum
    /// is in, `f + 1` replicas hold a stamp `>=` it. Returns
    /// [`Unavailable`] once the step deadline expires — the write may
    /// then be durable on up to `f` replicas (a later read-repair can
    /// still surface it), exactly like a timed-out write in any
    /// quorum system.
    pub fn try_abd_write(&self, reg: u32, word: u64) -> Result<WriteStamp, Unavailable> {
        let me = self.caller();
        bump(&me.stripe.rounds, 1);
        let need = self.quorum();
        let replies = self.quorum_rpc(me, need, "write", reg, |op, from, to| Message {
            kind: MsgKind::ReadQuery,
            op,
            from,
            to,
            reg,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        })?;
        let stamp = replies.max.0.next(me.id);
        self.try_write_back(me, reg, stamp, word)?;
        Ok(stamp)
    }

    /// One quorum write phase: install `(stamp, word)` on `f + 1`
    /// replicas and wait for all acks.
    fn try_write_back(
        &self,
        me: Caller<'_>,
        reg: u32,
        stamp: WriteStamp,
        word: u64,
    ) -> Result<(), Unavailable> {
        bump(&me.stripe.rounds, 1);
        let need = self.quorum();
        let acks = self.quorum_rpc(me, need, "write-back", reg, |op, from, to| Message {
            kind: MsgKind::Write,
            op,
            from,
            to,
            reg,
            seq: stamp.seq,
            writer: stamp.writer,
            word,
            expected: 0,
        })?;
        // An ack carries the replica's stamp after the install.
        debug_assert!(acks.max.0 >= stamp);
        Ok(())
    }

    /// Sends one request per target replica and collects `need`
    /// replies from distinct replicas, retransmitting (with a fresh op
    /// id, a widened target set, and only to the replicas that have not
    /// answered yet) whenever the client's own queue runs dry.
    ///
    /// The phase keeps its replies across attempts: it remembers the op
    /// id of its first attempt and counts a reply to that attempt or any
    /// later one, once per replica, folded into a [`Replies`] summary.
    /// An attempt whose backoff drain already completed the quorum sends
    /// nothing.
    ///
    /// Every probe, pump, and backoff tick is one **client-local
    /// step**; the phase fails with [`Unavailable`] once the step
    /// count crosses [`ClusterConfig::deadline`]. Between attempts the
    /// client waits out a seeded exponential backoff
    /// (`2^min(attempt, CAP)` steps plus deterministic jitter hashed
    /// from `(plan seed, client, op, attempt)`). The waiting ticks pump
    /// only this client's queue, so its late replies count and its late
    /// duplicates drain; other clients never depend on it to move their
    /// traffic. The client yields its thread between attempts only while
    /// fewer than `need` replicas are reachable, since then only a
    /// restart or heal on another thread can end the wait.
    ///
    /// On the queued path the client locks its queue once per attempt
    /// and once per backoff wait (see [`net`](crate::net)); the sends,
    /// pumps and reply sends inside take no lock of their own.
    fn quorum_rpc(
        &self,
        me: Caller<'_>,
        need: usize,
        phase: &'static str,
        reg: u32,
        build: impl Fn(u64, u32, u32) -> Message,
    ) -> Result<Replies, Unavailable> {
        let Caller { id: client, stripe } = me;
        let n = self.replicas.len();
        debug_assert!(need <= n);
        let deadline = self.config.deadline;
        let direct = self.config.plan.is_fault_free();
        let mut attempt = 0u64;
        let mut steps = 0u64;
        let mut op = self.router.next_op(client);
        let mut replies = Replies::since(op);
        // Snapshot the wipe epoch before the phase's first probe;
        // re-checked after every attempt.
        let mut epoch = self.wipe_epoch.load(Ordering::Acquire);
        loop {
            // Rotate the window by client id (load spreading) and by
            // attempt, widening until every replica is targeted; ask
            // only its members that have not answered yet.
            let width = (need + attempt as usize).min(n);
            let start = (client as usize + attempt as usize) % n;
            let kept = replies;
            let silent = (0..width)
                .map(|i| ((start + i) % n) as u32)
                .filter(|&to| !kept.has(to));
            if replies.count >= need {
                // The backoff drain completed the quorum.
            } else if direct {
                for to in silent {
                    steps += 1;
                    if let Some(reply) = self.interact_direct(build(op, client, to)) {
                        replies.fold(&reply);
                        if replies.count == need {
                            break;
                        }
                    }
                }
            } else {
                let mut queue = self.router.hold(client);
                for to in silent {
                    steps += 1;
                    queue.send(build(op, client, to), 0);
                }
                self.collect_replies(&mut queue, need, &mut replies, &mut steps);
            }
            // The ack-window wipe check: a reply only proves its
            // replica held the state *when it answered*. If a replica
            // was wiped after answering — and resynced from others
            // that had not all seen this phase's write — counting its
            // reply would overstate durability (a write-back could
            // "complete" on fewer than `f + 1` surviving copies, the
            // exact regression the skip-resync model counterexample
            // exhibits at the protocol level). Every kept reply was
            // produced after the epoch snapshot, so an unchanged epoch
            // proves no wipe overlapped the window and every counted
            // reply is still standing. On a change the phase drops its
            // replies, takes a fresh snapshot and first op id, and
            // re-earns its quorum. The deadline still bounds the loop
            // either way.
            let wiped = self.wipe_epoch.load(Ordering::Acquire) != epoch;
            if replies.count >= need && !wiped {
                if attempt > 0 {
                    bump(&stripe.degraded, 1);
                }
                return Ok(replies);
            }
            attempt += 1;
            bump(&stripe.retries, 1);
            if steps >= deadline {
                bump(&stripe.timeouts, 1);
                bump(&stripe.unavailable, 1);
                return Err(Unavailable {
                    reg,
                    op: phase,
                    attempts: attempt,
                    steps,
                    deadline,
                    crashed: self.router.crashed(),
                    isolated: self.router.isolated(),
                });
            }
            // Seeded exponential backoff: deterministic per
            // (plan seed, client, op, attempt), so a replay with the
            // same schedule waits the same number of steps.
            let base = 1u64 << attempt.min(BACKOFF_CAP);
            let jitter = mix(self.config.plan.seed, client as u64, op, attempt) % base;
            let wait = (base + jitter).min(deadline.saturating_sub(steps));
            steps += wait;
            bump(&stripe.backoffs, wait);
            let mut queue = self.router.hold(client);
            for _ in 0..wait {
                // Late replies to this phase's attempts still count.
                match queue.pump() {
                    Pumped::Deliver(msg, copy) => self.deliver(&mut queue, msg, copy, &mut replies),
                    Pumped::Discarded => {}
                    Pumped::Idle => break,
                }
            }
            drop(queue);
            // Only a restart or heal on another thread can bring back
            // a quorum; drops, delays and wipes retry without yielding.
            if self.router.reachable(n) < need {
                std::thread::yield_now();
            }
            op = self.router.next_op(client);
            if wiped {
                replies = Replies::since(op);
                epoch = self.wipe_epoch.load(Ordering::Acquire);
            }
        }
    }

    /// Fault-free synchronous interaction: applies the handler inline
    /// (no queue), honoring partitions, crashes and the step hook.
    /// Returns `None` when either endpoint is isolated or crashed.
    fn interact_direct(&self, msg: Message) -> Option<Message> {
        if self.router.is_blocked(msg.from) || self.router.is_blocked(msg.to) {
            return None;
        }
        self.router.fire_hook(&msg);
        let reply = self.replicas[msg.to as usize].handle(&msg);
        self.router.fire_hook(&reply);
        Some(reply)
    }

    /// Hands one delivered message on: a request is handled inline by
    /// its replica and the reply re-enters the client's held queue; a
    /// reply to one of the phase's attempts (op id at least
    /// `replies.first`) is folded into `replies`, which counts each
    /// replica once (replies to earlier phases are dropped).
    fn deliver(&self, queue: &mut HeldQueue<'_>, msg: Message, copy: u8, replies: &mut Replies) {
        if msg.to < Message::CLIENT_BASE {
            let reply = self.replicas[msg.to as usize].handle(&msg);
            queue.send(reply, copy);
        } else if msg.op >= replies.first {
            replies.fold(&msg);
        }
    }

    /// Pumps the held queue until `need` distinct replicas answered
    /// the phase, or the queue runs dry (time to retransmit).
    fn collect_replies(
        &self,
        queue: &mut HeldQueue<'_>,
        need: usize,
        replies: &mut Replies,
        steps: &mut u64,
    ) {
        while replies.count < need {
            *steps += 1;
            match queue.pump() {
                Pumped::Deliver(msg, copy) => self.deliver(queue, msg, copy, replies),
                Pumped::Discarded => {}
                Pumped::Idle => return,
            }
        }
    }
}

/// Crash sentinel: the word a replica answers with when it is crashed
/// or cut off. It can never be a real proposal (proposals are `max + 1`
/// over observed non-sentinel words).
pub const BOT: u64 = u64::MAX;

/// The replicas a [`QuorumTs`] `getTS` call talks to: one exchange per
/// replica word of the object's register.
pub(crate) trait Transport {
    /// Why an exchange did not happen, which ends the call there:
    /// [`Infallible`] for a transport whose every exchange happens.
    type Halt;

    fn replicas(&self) -> usize;

    /// Replica `r`'s word, or [`BOT`] if it is down.
    fn fetch(&self, r: usize) -> Result<u64, Self::Halt>;

    /// Installs `new` on replica `r` if its word is `expected`; returns
    /// the word it held, or [`BOT`] if it is down.
    fn install(&self, r: usize, expected: u64, new: u64) -> Result<u64, Self::Halt>;

    /// Names the program point of the next exchange.
    fn at(&self, _point: &Point) {}
}

/// Where a quorum `getTS` call is: the locals the rest of it reads,
/// which are the model's state key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point {
    /// Rotation offsets of the replicas that answered, in read order;
    /// installs go to the first `write_quorum` of them.
    window: Vec<usize>,
    /// Their answers.
    observed: Vec<u64>,
    /// The next rotation offset to read, or to widen an install to.
    scan: usize,
    /// While installing: the write-set member, its expected word and
    /// the proposal.
    pub(crate) install: Option<(usize, u64, u64)>,
}

/// One `getTS` by `pid`: read a majority of the replicas, starting at
/// rotation offset `pid` and widening past any that is down, propose
/// the maximum plus one, and install it on the first `write_quorum`
/// replicas that answered, retargeting an install whose replica went
/// down since at the next unread one.
pub(crate) fn get_ts<T: Transport>(t: &T, pid: usize, write_quorum: usize) -> Result<u64, T::Halt> {
    let n = t.replicas();
    let read_quorum = n / 2 + 1;
    let mut point = Point {
        window: Vec::with_capacity(read_quorum),
        observed: Vec::with_capacity(read_quorum),
        scan: 0,
        install: None,
    };
    while point.observed.len() < read_quorum {
        assert!(point.scan < n, "fewer than a quorum of replicas answered");
        t.at(&point);
        let word = t.fetch((pid + point.scan) % n)?;
        if word != BOT {
            point.window.push(point.scan);
            point.observed.push(word);
        }
        point.scan += 1;
    }
    let proposal = point.observed.iter().max().expect("non-empty quorum") + 1;
    for j in 0..write_quorum {
        let mut expected = point.observed[j];
        loop {
            point.install = Some((j, expected, proposal));
            t.at(&point);
            let prior = t.install((pid + point.window[j]) % n, expected, proposal)?;
            if prior == BOT {
                // Down since we read it: install on the next unread
                // replica instead. Expecting `0` is a guess; a lost
                // install retries with the word it saw.
                assert!(point.scan < n, "fewer than a quorum of replicas answered");
                point.window[j] = point.scan;
                point.scan += 1;
                expected = 0;
            } else if prior == expected || prior >= proposal {
                // Landed, or the replica already holds at least ours.
                break;
            } else {
                expected = prior;
            }
        }
    }
    Ok(proposal)
}

/// The replicated timestamp object whose steps are **messages**.
///
/// Each `getTS` reads `f + 1` replicas (rotating by pid, and widening
/// past any that is down), proposes `max + 1`, then conditionally
/// installs it on its write quorum. Every replica exchange is one step
/// of [`QuorumModel`](crate::QuorumModel), which runs this same code,
/// so the model checker explores the message interleavings of the
/// body that ships.
///
/// [`QuorumTs::broken`] shrinks the write quorum to a single replica:
/// reads and writes then no longer intersect, and the explorer finds
/// the duplicate-timestamp interleaving; two sequential calls on real
/// replicas already show it.
#[derive(Debug)]
pub struct QuorumTs {
    cluster: Arc<Cluster>,
    reg: u32,
    write_quorum: usize,
}

impl QuorumTs {
    /// Correct protocol: read and write quorums of `f + 1`.
    pub fn new(f: usize) -> Self {
        Self::with_write_quorum(Cluster::new(ClusterConfig::new(f)), f + 1)
    }

    /// Deliberately broken protocol: writes land on one replica only.
    pub fn broken(f: usize) -> Self {
        Self::with_write_quorum(Cluster::new(ClusterConfig::new(f)), 1)
    }

    /// A timestamp object on an existing cluster with an explicit
    /// write-quorum size (`1..=f + 1`).
    pub fn with_write_quorum(cluster: Arc<Cluster>, write_quorum: usize) -> Self {
        assert!(
            (1..=cluster.quorum()).contains(&write_quorum),
            "write quorum must be in 1..=f+1"
        );
        let reg = cluster.alloc_register(0);
        Self {
            cluster,
            reg,
            write_quorum,
        }
    }

    /// The cluster the object lives on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Whether this instance runs the intersecting (correct) quorums.
    pub fn is_correct(&self) -> bool {
        self.write_quorum == self.cluster.quorum()
    }

    /// `getTS` for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `f + 1` replicas answer: the rest are
    /// crashed, or cut off from this client by a partition.
    pub fn get_ts(&self, pid: usize) -> Timestamp {
        let Ok(t) = get_ts(self, pid, self.write_quorum);
        Timestamp::scalar(t)
    }

    /// One exchange with replica `r`, synchronous (the step hook still
    /// fires): the word it answers with, or [`BOT`] if it or this
    /// client is crashed or isolated.
    fn exchange(&self, kind: MsgKind, r: usize, expected: u64, new: u64) -> u64 {
        let client = self.cluster.client_id();
        let msg = Message {
            kind,
            op: self.cluster.router.next_op(client),
            from: client,
            to: r as u32,
            reg: self.reg,
            seq: new as u32,
            writer: 0,
            word: new,
            expected,
        };
        self.cluster
            .interact_direct(msg)
            .map_or(BOT, |reply| reply.word)
    }

    /// Largest word any replica holds (observation probe for tests).
    pub fn read_max(&self) -> u64 {
        (0..self.cluster.replicas())
            .map(|r| self.cluster.replica(r).stored(self.reg).1)
            .max()
            .unwrap_or(0)
    }
}

impl Transport for QuorumTs {
    type Halt = Infallible;

    fn replicas(&self) -> usize {
        self.cluster.replicas()
    }

    fn fetch(&self, r: usize) -> Result<u64, Infallible> {
        Ok(self.exchange(MsgKind::ReadQuery, r, 0, 0))
    }

    fn install(&self, r: usize, expected: u64, new: u64) -> Result<u64, Infallible> {
        Ok(self.exchange(MsgKind::Install, r, expected, new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_read_write_round_trips() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(7);
        assert_eq!(cluster.abd_read(reg), (WriteStamp::INITIAL, 7));
        let stamp = cluster.abd_write(reg, 42);
        assert_eq!(stamp.seq, 1);
        let (read_stamp, word) = cluster.abd_read(reg);
        assert_eq!((read_stamp, word), (stamp, 42));
        // Fault-free reads of agreeing replicas never repair.
        assert_eq!(cluster.quorum_repairs(), 0);
    }

    #[test]
    fn writes_survive_any_minority_partition() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // This thread's client id rotates its quorum window to start at
        // replica 1 — partition exactly that replica, so the write must
        // retry and widen past its preferred window.
        let start = cluster.client_id() as usize % cluster.replicas();
        cluster.router().partition(&[start as u32]);
        let stamp = cluster.abd_write(reg, 5);
        // f + 1 = 2 replicas hold the write despite the partition.
        let holders = (0..3)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 5))
            .count();
        assert!(holders >= 2, "only {holders} replicas hold the write");
        assert!(
            !cluster.router().isolated().is_empty(),
            "partition still active"
        );
        assert!(cluster.quorum_retries() > 0, "the partition forced retries");
        cluster.router().heal();
        assert_eq!(cluster.abd_read(reg).1, 5);
    }

    #[test]
    fn divergent_replicas_are_read_repaired() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // Pick the replica just *outside* this client's preferred
        // window, partition it, write: it stays stale.
        let n = cluster.replicas();
        let start = cluster.client_id() as usize % n;
        let stale = ((start + 2) % n) as u32;
        cluster.router().partition(&[stale]);
        cluster.abd_write(reg, 9);
        cluster.router().heal();
        assert_eq!(cluster.replica(stale as usize).stored(reg).1, 0, "stale");
        // A reader whose window covers the stale replica observes
        // divergent replies and repairs before returning. Client ids
        // are per-thread, so mint readers until one's window hits it.
        let repaired = std::thread::scope(|s| {
            let mut hit = false;
            for _ in 0..n {
                hit |= s
                    .spawn(|| {
                        let me = cluster.client_id() as usize % n;
                        assert_eq!(cluster.abd_read(reg).1, 9, "no stale read, ever");
                        me == stale as usize || (me + 1) % n == stale as usize
                    })
                    .join()
                    .expect("reader thread");
            }
            hit
        });
        assert!(repaired, "some reader's window covered the stale replica");
        assert!(cluster.quorum_repairs() >= 1);
        assert_eq!(cluster.replica(stale as usize).stored(reg).1, 9, "repaired");
    }

    #[test]
    fn lossy_network_still_linearizes() {
        let plan = FaultPlan {
            seed: 11,
            drop_permille: 200,
            dup_permille: 100,
            delay_max: 3,
            reorder: true,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let reg = cluster.alloc_register(0);
        for v in 1..=20u64 {
            cluster.abd_write(reg, v);
            assert_eq!(cluster.abd_read(reg).1, v, "read your own write");
        }
        let stats = cluster.net_stats();
        assert!(stats.dropped > 0, "the plan actually dropped: {stats:?}");
    }

    #[test]
    fn ambient_scope_nests_and_unwinds() {
        let outer = Cluster::new(ClusterConfig::new(0));
        let inner = Cluster::new(ClusterConfig::new(1));
        assert!(ambient_cluster().is_none());
        with_cluster(&outer, || {
            assert_eq!(ambient_cluster().expect("outer").uid, outer.uid);
            with_cluster(&inner, || {
                assert_eq!(ambient_cluster().expect("inner").uid, inner.uid);
            });
            assert_eq!(ambient_cluster().expect("outer again").uid, outer.uid);
        });
        assert!(ambient_cluster().is_none());
    }

    #[test]
    fn quorum_ts_is_monotone_per_thread() {
        let ts = QuorumTs::new(1);
        let mut last = None;
        for _ in 0..10 {
            let t = ts.get_ts(0);
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "{prev:?} !< {t:?}");
            }
            last = Some(t);
        }
        assert_eq!(ts.read_max(), 10);
    }

    #[test]
    fn quorum_ts_widens_past_a_crashed_replica() {
        let ts = QuorumTs::new(1);
        ts.cluster().crash(0);
        // Replica 0 answers nothing: the call reads 1 and 2 and
        // installs there, and the crashed replica keeps its word.
        assert_eq!(ts.get_ts(0), Timestamp::scalar(1));
        let words: Vec<u64> = (0..3)
            .map(|r| ts.cluster().replica(r).stored(ts.reg).1)
            .collect();
        assert_eq!(words, [0, 1, 1]);
    }

    #[test]
    fn broken_quorum_ts_duplicates_stamps_across_disjoint_windows() {
        let ts = QuorumTs::broken(1);
        assert!(!ts.is_correct());
        // With a write quorum of 1, pid 0 installs only on replica 0 —
        // and pid 1's read window {1, 2} never sees it. Two
        // *non-overlapping* calls return the same timestamp: exactly
        // the violation the model explorer minimizes.
        let a = ts.get_ts(0);
        let b = ts.get_ts(1);
        assert_eq!(a, b, "non-intersecting quorums duplicate stamps");
        // A window that does cover replica 0 stays ordered.
        let c = ts.get_ts(2);
        assert!(Timestamp::compare(&a, &c));
    }

    #[test]
    fn crash_minority_write_survives_and_restart_resyncs() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // Crash the client's preferred first replica, so the write must
        // retry and widen past it (degraded, not down).
        let down = (cluster.client_id() as usize % cluster.replicas()) as u32;
        cluster.crash(down);
        assert_eq!(cluster.crashed(), vec![down]);
        let stamp = cluster.abd_write(reg, 5);
        assert!(cluster.quorum_degraded() > 0, "first window hit the crash");
        // Both live replicas hold the write; the crashed one has none.
        let holders = (0..3)
            .filter(|&r| r != down as usize)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 5))
            .count();
        assert_eq!(holders, 2);
        assert_eq!(cluster.replica(down as usize).stored(reg).1, 0);
        // Restart with retained state: resync catches the replica up
        // before any client can reach it again.
        cluster.restart(down, RestartMode::Retain);
        assert!(cluster.crashed().is_empty());
        assert_eq!(cluster.replica(down as usize).stored(reg), (stamp, 5));
        assert!(cluster.resynced_registers() >= 1);
        assert_eq!(cluster.abd_read(reg).1, 5);
        assert_eq!(cluster.replica_crashes(), 1);
        assert_eq!(cluster.replica_restarts(), 1);
    }

    #[test]
    fn crash_majority_returns_unavailable_within_the_deadline() {
        let cluster = Cluster::new(ClusterConfig::new(1).with_deadline(512));
        let reg = cluster.alloc_register(3);
        cluster.crash(0);
        cluster.crash(1);
        let err = cluster.try_abd_write(reg, 9).expect_err("no quorum up");
        assert_eq!(err.crashed, vec![0, 1]);
        assert_eq!(err.deadline, 512);
        // The budget is exhausted promptly: at most one extra probe
        // window past the deadline, never an unbounded spin.
        assert!(err.steps >= 512);
        assert!(err.steps <= 512 + cluster.replicas() as u64);
        assert_eq!(cluster.quorum_timeouts(), 1);
        assert_eq!(cluster.quorum_unavailable(), 1);
        assert!(cluster.quorum_backoff_steps() > 0);
        // Reads fail too — and recover the moment quorum returns.
        cluster.try_abd_read(reg).expect_err("still no quorum");
        cluster.restart(1, RestartMode::Retain);
        let stamp = cluster.try_abd_write(reg, 9).expect("quorum restored");
        assert_eq!(cluster.try_abd_read(reg), Ok((stamp, 9)));
    }

    #[test]
    fn wiped_restart_rebuilds_state_from_the_live_majority() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        let s1 = cluster.abd_write(reg, 11);
        cluster.crash(2);
        let s2 = cluster.abd_write(reg, 22);
        assert!(s2 > s1);
        cluster.restart(2, RestartMode::Wipe);
        assert_eq!(cluster.replica(2).wipes(), 1);
        // The wiped replica rejoined holding the newest acked write.
        assert_eq!(cluster.replica(2).stored(reg), (s2, 22));
        let (stamp, word) = cluster.abd_read(reg);
        assert!(stamp >= s2, "no reader ever observes a regression");
        assert_eq!(word, 22);
    }

    #[test]
    fn restart_skip_resync_leaves_a_wiped_replica_amnesiac() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        cluster.abd_write(reg, 7);
        let holder = (0..3)
            .find(|&r| cluster.replica(r).stored(reg).1 == 7)
            .expect("a quorum holds the write") as u32;
        // Broken path: the wiped holder rejoins remembering nothing.
        cluster.crash(holder);
        cluster.restart_skip_resync(holder, RestartMode::Wipe);
        assert_eq!(
            cluster.replica(holder as usize).stored(reg),
            (WriteStamp::INITIAL, 0),
            "skip-resync rejoins with amnesia — the unsafe variant"
        );
        // The correct path repairs it (Retain + resync still sweeps).
        cluster.crash(holder);
        cluster.restart(holder, RestartMode::Retain);
        assert_eq!(cluster.replica(holder as usize).stored(reg).1, 7);
    }

    #[test]
    fn skip_resync_restart_duplicates_a_stamp_across_disjoint_calls() {
        // pid 0 installs 1 on replicas {0, 1}; replica 1 then crashes
        // and rejoins wiped. pid 1 reads {1, 2}: without the resync
        // sweep both answer 0, so a call that starts after pid 0's
        // returned hands out the same stamp. With it, replica 1 holds
        // 1 again and the later call is ordered after.
        for (resync, expected) in [(false, 1), (true, 2)] {
            let ts = QuorumTs::new(1);
            assert_eq!(ts.get_ts(0), Timestamp::scalar(1));
            ts.cluster().crash(1);
            if resync {
                ts.cluster().restart(1, RestartMode::Wipe);
            } else {
                ts.cluster().restart_skip_resync(1, RestartMode::Wipe);
            }
            assert_eq!(ts.get_ts(1), Timestamp::scalar(expected), "resync {resync}");
        }
    }

    #[test]
    fn a_restart_only_controller_mints_no_client() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        cluster.abd_write(reg, 5);
        assert_eq!(cluster.client_vpids.issued(), 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                cluster.crash(2);
                cluster.restart(2, RestartMode::Wipe);
            });
        });
        assert_eq!(cluster.replica(2).stored(reg).1, 5, "resync ran");
        assert_eq!(
            cluster.client_vpids.issued(),
            1,
            "the controller is no client"
        );
    }

    #[test]
    #[should_panic(expected = "resync of wiped replica")]
    fn wipe_restart_without_a_live_quorum_is_refused() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        cluster.alloc_register(0);
        cluster.crash(0);
        cluster.crash(1);
        // Wiping 0 now could destroy the only live copy of a write
        // acked on {0, 1}; the cluster refuses instead of losing data.
        cluster.restart(0, RestartMode::Wipe);
    }

    #[test]
    fn deadline_exhaustion_replays_bit_identically() {
        let run = || {
            let cluster = Cluster::new(ClusterConfig::new(1).with_deadline(256));
            let reg = cluster.alloc_register(0);
            cluster.crash(0);
            cluster.crash(2);
            cluster.try_abd_read(reg).expect_err("no quorum")
        };
        assert_eq!(run(), run(), "same seed, same schedule, same diagnosis");
    }

    #[test]
    fn crashes_block_the_queued_path_too() {
        // A lossy plan forces the router path; crashing a majority must
        // still produce Unavailable (discards, not hangs).
        let plan = FaultPlan {
            seed: 3,
            drop_permille: 100,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan).with_deadline(2048));
        let reg = cluster.alloc_register(1);
        cluster.abd_write(reg, 4);
        cluster.crash(0);
        cluster.crash(1);
        let err = cluster.try_abd_read(reg).expect_err("no quorum");
        assert_eq!(err.crashed, vec![0, 1]);
        assert!(cluster.net_stats().crash_discarded > 0);
        cluster.restart(0, RestartMode::Retain);
        assert_eq!(cluster.try_abd_read(reg).expect("healed").1, 4);
    }

    #[test]
    fn step_hook_counts_quorum_ts_messages() {
        use std::sync::atomic::AtomicU64 as Count;
        let cluster = Cluster::new(ClusterConfig::new(1));
        let ts = QuorumTs::with_write_quorum(Arc::clone(&cluster), 2);
        let count = Arc::new(Count::new(0));
        let c2 = Arc::clone(&count);
        cluster.router().set_step_hook(Some(Box::new(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        })));
        ts.get_ts(0);
        // 2 reads + 2 installs, each a request + reply pair.
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn a_step_hook_may_read_the_router_mid_attempt() {
        use std::sync::Mutex;
        // A lossy plan takes the queued path, where the client holds
        // its queue across a whole attempt. The hook locks every queue
        // (its own included) through `stats` and `in_flight`, so this
        // deadlocks if a held queue ever stayed locked across the hook.
        let plan = FaultPlan {
            seed: 5,
            drop_permille: 100,
            dup_permille: 50,
            delay_max: 2,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let reg = cluster.alloc_register(0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (c2, s2) = (Arc::clone(&cluster), Arc::clone(&seen));
        cluster.router().set_step_hook(Some(Box::new(move |_| {
            let delivered = c2.router().stats().delivered;
            c2.router().in_flight();
            s2.lock().expect("seen").push(delivered);
        })));
        let stamp = cluster.abd_write(reg, 3);
        assert_eq!(cluster.abd_read(reg), (stamp, 3));
        cluster.router().set_step_hook(None);
        let seen = seen.lock().expect("seen");
        assert!(!seen.is_empty(), "the hook fired");
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "delivered went backwards: {seen:?}"
        );
    }

    #[test]
    fn a_lossy_solo_schedule_is_pinned_to_exact_counts() {
        // One client on the replicated_faults plan shape. Every count
        // below is a function of the seed and the client's own program,
        // so any change to the fault rolls, the delivery order, the
        // retry loop or the backoff wait moves at least one of them.
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 50,
            dup_permille: 20,
            delay_max: 3,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let regs: Vec<u32> = (0..4).map(|_| cluster.alloc_register(0)).collect();
        for i in 0..500u64 {
            let reg = regs[i as usize % regs.len()];
            let stamp = cluster.try_abd_write(reg, i).expect("live quorum");
            assert_eq!(cluster.try_abd_read(reg), Ok((stamp, i)));
        }
        assert_eq!(
            cluster.net_stats(),
            NetStats {
                sent: 7338,
                delivered: 7112,
                dropped: 378,
                duplicated: 152,
                delayed: 5417,
                ..NetStats::default()
            }
        );
        assert_eq!(cluster.quorum_rounds(), 1556);
        assert_eq!(cluster.quorum_retries(), 301);
        assert_eq!(cluster.quorum_backoff_steps(), 753);
        assert_eq!(cluster.quorum_repairs(), 56);
        assert_eq!(cluster.quorum_degraded(), 300);
    }

    #[test]
    fn a_retry_re_asks_only_the_replicas_that_have_not_answered() {
        // A delay-only plan takes the queued path and loses nothing.
        // With the first replica of this client's window partitioned,
        // each phase's first attempt hears from one replica and retries
        // over the widened window, where only the two silent replicas
        // are asked again: 2 requests + 1 reply, then 2 requests + 1
        // reply, per phase.
        let plan = FaultPlan {
            seed: 9,
            delay_max: 2,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let reg = cluster.alloc_register(0);
        let start = cluster.client_id() as usize % cluster.replicas();
        cluster.router().partition(&[start as u32]);
        cluster.abd_write(reg, 5);
        assert_eq!(cluster.net_stats().sent, 12, "{:?}", cluster.net_stats());
        assert_eq!(cluster.quorum_retries(), 2, "one retry per phase");
    }

    #[test]
    fn a_wipe_between_attempts_drops_the_kept_replies() {
        use std::sync::Mutex;
        // The queued-path twin of the ack-window test below. With this
        // client's first window replica partitioned, the write-back's
        // first attempt collects one ack, which the phase keeps. The
        // hook then crashes and wipe-restarts that acker as the retry's
        // first request is delivered: its resync reads replicas that
        // do not hold the write, so the kept ack no longer stands for a
        // copy. Counting it would finish the write on one holder.
        let plan = FaultPlan {
            seed: 4,
            drop_permille: 100,
            delay_max: 2,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let reg = cluster.alloc_register(0);
        let start = cluster.client_id() as usize % cluster.replicas();
        cluster.router().partition(&[start as u32]);
        // The first ack's replica and op id, then whether the hook fired.
        let state = Arc::new(Mutex::new((None::<(u32, u64)>, false)));
        let (c2, s2) = (Arc::clone(&cluster), Arc::clone(&state));
        cluster
            .router()
            .set_step_hook(Some(Box::new(move |msg: &Message| {
                let mut state = s2.lock().expect("hook state");
                match (msg.kind, state.0) {
                    (MsgKind::WriteAck, None) => state.0 = Some((msg.from, msg.op)),
                    (MsgKind::Write, Some((acker, op))) if msg.op > op && !state.1 => {
                        state.1 = true;
                        c2.crash(acker);
                        c2.restart(acker, RestartMode::Wipe);
                    }
                    _ => {}
                }
            })));
        let stamp = cluster.abd_write(reg, 9);
        cluster.router().set_step_hook(None);
        cluster.router().heal();
        assert!(
            state.lock().expect("hook state").1,
            "a retry followed the kept ack"
        );
        let wipes: u64 = (0..3).map(|r| cluster.replica(r).wipes()).sum();
        assert_eq!(wipes, 1);
        let holders = (0..3)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 9))
            .count();
        assert!(holders >= 2, "only {holders} replicas hold the write");
        assert!(cluster.quorum_retries() > 0);
    }

    #[test]
    fn wipe_during_the_ack_window_forces_a_phase_retry() {
        use std::sync::atomic::AtomicBool;
        // The ack-window race the wipe epoch closes: a replica acks
        // the write-back, then crashes and wipe-restarts before the
        // client has collected its remaining acks. Its resync ran
        // against others that had not yet seen this write, so the
        // already-counted ack no longer stands for a surviving copy —
        // without the guard the write would "complete" while held by
        // fewer than f + 1 replicas.
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        let fired = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&cluster);
        let f2 = Arc::clone(&fired);
        cluster
            .router()
            .set_step_hook(Some(Box::new(move |msg: &Message| {
                if msg.kind == MsgKind::WriteAck && !f2.swap(true, Ordering::SeqCst) {
                    c2.crash(msg.from);
                    c2.restart(msg.from, RestartMode::Wipe);
                }
            })));
        let stamp = cluster.abd_write(reg, 9);
        cluster.router().set_step_hook(None);
        assert!(fired.load(Ordering::SeqCst), "the write-back acked");
        let wipes: u64 = (0..3).map(|r| cluster.replica(r).wipes()).sum();
        assert_eq!(wipes, 1, "exactly the first acker was wiped");
        // The guard discarded the poisoned attempt and re-earned a
        // full quorum: f + 1 = 2 replicas hold the write at
        // quiescence even though one acker lost its copy mid-phase.
        let holders = (0..3)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 9))
            .count();
        assert!(holders >= 2, "only {holders} replicas hold the write");
        assert!(
            cluster.quorum_retries() > 0,
            "the mid-window wipe must cost the phase a retry"
        );
    }
}
