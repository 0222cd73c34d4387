//! The modelled network: a seeded, fault-injecting in-process router
//! with one message queue per client.
//!
//! Every message between quorum clients and replicas flows through one
//! [`Router`] (the in-process reproduction of `dist-register`'s
//! `network/modelled.rs`). The router is *thread-free*: it owns no
//! event loop. A client's requests and the replies to them travel in
//! that **client's own queue**: the client pushes its sends and then
//! **pumps** its queue, each pump delivering exactly one of its own
//! in-flight messages. Replica handlers run inline on the pumping
//! thread. No client ever pumps, locks or waits on another client's
//! queue, so one client's traffic cannot stall or reorder another's.
//!
//! A client **holds its queue for a whole quorum attempt**: the
//! cluster opens one `HeldQueue` guard per attempt (and one per backoff
//! wait), and every send, pump, delivery and reply send of that
//! attempt works on the held lock. Other threads lock a queue only to
//! read its counters or log, so they wait at most one attempt.
//!
//! # Fault knobs ([`FaultPlan`])
//!
//! | knob | effect |
//! |---|---|
//! | `seed` | hashed into every probabilistic decision below |
//! | `drop_permille` | per-message loss probability (‰), decided at send |
//! | `dup_permille` | per-message duplication probability (‰) |
//! | `delay_max` | extra delivery ticks, uniform in `0..=delay_max` |
//! | `reorder` | deliver a random eligible message instead of FIFO |
//! | `record_log` | keep the delivered-message log for diffing |
//!
//! No RNG state is kept. Each decision hashes the message's identity:
//! the plan seed, the client, the client's op id, the replica endpoint,
//! the direction (request or reply) and which copy it is (duplicates
//! and the replies to them are distinct copies). The reorder pick
//! hashes the client's own pump tick instead. So a client's network
//! schedule — what is lost, duplicated, delayed, and the order its
//! queue delivers in — is a function of the seed and that client's own
//! sends, whatever other clients do meanwhile.
//!
//! Partitions are dynamic (not part of the plan):
//! [`Router::partition`] isolates a replica set — traffic to or from
//! it is discarded at delivery time — and [`Router::heal`] reconnects
//! it. Clients survive both through retransmission.
//!
//! Crashes are dynamic too: [`Router::crash_endpoint`] marks a replica
//! crash-stopped (its traffic is discarded like a partitioned node's,
//! counted separately in [`NetStats::crash_discarded`]) and
//! [`Router::restore_endpoint`] brings it back. State loss and resync
//! on rejoin live one layer up, in
//! [`Cluster::restart`](crate::Cluster::restart). Both sets are atomic
//! bitmasks over replica ids, read without a lock.
//!
//! # The step hook
//!
//! [`Router::set_step_hook`] installs a callback invoked **before
//! every message delivery**, outside any queue lock: a held queue
//! releases its lock around the hook and takes it again after, so a
//! hook may read [`Router::stats`], crash or restart replicas, or park
//! on a gate. With no hook armed no extra lock is taken.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ts_register::{CachePadded, SegTable};

use crate::proto::Message;

/// SplitMix64-flavored hash of `(seed, a, b, c)`: the fault knobs'
/// decisions and the cluster's backoff jitter come from it — no RNG
/// state to carry, no wall clock, bit-identical on replay.
pub(crate) fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-knob salts, so the drop, duplicate, delay and reorder decisions
/// of one message are independent draws.
const SALT_DROP: u64 = 0xD809;
const SALT_DUP: u64 = 0xD0B1;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_REORDER: u64 = 0x0DE5;

/// The seeded fault schedule of a [`Router`]. See the module docs for
/// the knob table. [`FaultPlan::default`] is the fault-free plan:
/// FIFO, lossless, undelayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed hashed into every probabilistic decision.
    pub seed: u64,
    /// Per-message drop probability in permille (0..=1000).
    pub drop_permille: u16,
    /// Per-message duplication probability in permille (0..=1000).
    pub dup_permille: u16,
    /// Maximum extra delivery delay in ticks (sampled uniformly).
    pub delay_max: u8,
    /// Deliver a seeded-random eligible message instead of the oldest.
    pub reorder: bool,
    /// Record every delivered message (see [`Router::delivery_log`]).
    pub record_log: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            delay_max: 0,
            reorder: false,
            record_log: false,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects any fault at all (a fault-free plan
    /// lets the cluster take its synchronous direct path).
    pub fn is_fault_free(&self) -> bool {
        self.drop_permille == 0 && self.dup_permille == 0 && self.delay_max == 0 && !self.reorder
    }
}

/// Counters the router keeps about its own mischief.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted into flight.
    pub sent: u64,
    /// Messages delivered to a handler or to their client.
    pub delivered: u64,
    /// Messages lost to the drop knob at send time.
    pub dropped: u64,
    /// Extra copies minted by the duplicate knob.
    pub duplicated: u64,
    /// Messages discarded at delivery time because an endpoint was
    /// partitioned away.
    pub partitioned: u64,
    /// Messages that drew a nonzero extra delivery delay at send time.
    pub delayed: u64,
    /// Deliveries where the reorder knob picked a message other than
    /// the FIFO (oldest-eligible) choice.
    pub reordered: u64,
    /// Messages discarded at delivery time because an endpoint was
    /// crashed (see [`Router::crash_endpoint`]).
    pub crash_discarded: u64,
}

impl NetStats {
    fn add(&mut self, o: &NetStats) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.partitioned += o.partitioned;
        self.delayed += o.delayed;
        self.reordered += o.reordered;
        self.crash_discarded += o.crash_discarded;
    }
}

#[derive(Debug)]
struct Flight {
    deliver_at: u64,
    id: u64,
    /// Which copy this is: bit 0 tells the duplicate knob's twins
    /// apart, the bits above are the copy of the request a reply
    /// answers.
    copy: u8,
    msg: Message,
}

/// One client's queue, clock, stats stripe and delivery log.
#[derive(Debug, Default)]
struct Queue {
    now: u64,
    next_id: u64,
    in_flight: Vec<Flight>,
    stats: NetStats,
    log: Vec<Message>,
}

/// One client's network state. Only the owning client's thread sends
/// into or pumps its queue and mints its op ids; other threads only
/// read its stripe.
#[derive(Debug, Default)]
struct ClientNet {
    queue: Mutex<Queue>,
    /// The next op id; written only by the owning client's thread.
    next_op: AtomicU64,
}

impl ClientNet {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("client queue lock")
    }
}

/// What one pump produced: a message for a handler, silence, or proof
/// that nothing is in flight (time to retransmit).
#[derive(Debug)]
pub(crate) enum Pumped {
    /// The message to hand to its destination, and which copy it is
    /// (a reply passes it on to [`HeldQueue::send`]).
    Deliver(Message, u8),
    /// A message existed but was discarded (partitioned or crashed
    /// endpoint); the pump still made progress.
    Discarded,
    /// Nothing of this client's is in flight.
    Idle,
}

/// Per-delivery callback type (see the module docs on the step hook).
pub type StepHook = Box<dyn Fn(&Message) + Send + Sync>;

/// The bit of `node` in the crashed/isolated masks (clients have none).
fn bit(node: u32) -> u64 {
    if node < u64::BITS {
        1 << node
    } else {
        0
    }
}

/// The node ids set in `mask`, ascending.
fn ids(mask: u64) -> Vec<u32> {
    (0..u64::BITS).filter(|&i| mask & (1 << i) != 0).collect()
}

/// The seeded fault-injecting message router. One per
/// [`Cluster`](crate::Cluster); see the module docs.
pub struct Router {
    plan: FaultPlan,
    /// Crashed and isolated replica ids, one bit each.
    crashed: AtomicU64,
    isolated: AtomicU64,
    hook: Mutex<Option<StepHook>>,
    hook_armed: AtomicBool,
    /// Per-client network state, indexed by `client - CLIENT_BASE`.
    clients: SegTable<CachePadded<ClientNet>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("plan", &self.plan)
            .field("in_flight", &self.in_flight())
            .field("isolated", &self.isolated())
            .field("crashed", &self.crashed())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Router {
    /// Creates a router executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            crashed: AtomicU64::new(0),
            isolated: AtomicU64::new(0),
            hook: Mutex::new(None),
            hook_armed: AtomicBool::new(false),
            clients: SegTable::new(),
        }
    }

    /// The plan this router runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn client(&self, client: u32) -> &ClientNet {
        let vpid = client
            .checked_sub(Message::CLIENT_BASE)
            .unwrap_or_else(|| panic!("node {client} is not a client"));
        self.clients.get_or_init(vpid as usize)
    }

    /// Locks `client`'s queue for its owner until the returned guard
    /// drops (see [`HeldQueue`]).
    pub(crate) fn hold(&self, client: u32) -> HeldQueue<'_> {
        let net = self.client(client);
        HeldQueue {
            router: self,
            client,
            net,
            queue: Some(net.lock()),
        }
    }

    /// Mints `client`'s next op id (op ids are per client).
    ///
    /// Only `client`'s own thread may call this: client ids are per
    /// thread, so each counter has one writer and a mint is a plain
    /// `Relaxed` load and store, no locked instruction. Ids increase
    /// strictly, which lets a quorum phase accept any reply whose op id
    /// is at least its first attempt's.
    pub(crate) fn next_op(&self, client: u32) -> u64 {
        let next = &self.client(client).next_op;
        let op = next.load(Ordering::Relaxed);
        next.store(op + 1, Ordering::Relaxed);
        op
    }

    /// Installs (or clears) the per-delivery step hook.
    pub fn set_step_hook(&self, hook: Option<StepHook>) {
        let armed = hook.is_some();
        *self.hook.lock().expect("hook lock") = hook;
        self.hook_armed.store(armed, Ordering::Release);
    }

    /// Fires the step hook, if one is armed, for a delivery.
    pub(crate) fn fire_hook(&self, msg: &Message) {
        if self.hook_armed.load(Ordering::Acquire) {
            if let Some(hook) = self.hook.lock().expect("hook lock").as_ref() {
                hook(msg);
            }
        }
    }

    /// Isolates `replicas`: messages to or from them are discarded at
    /// delivery time until [`Router::heal`].
    pub fn partition(&self, replicas: &[u32]) {
        let mask = replicas.iter().fold(0, |m, &r| {
            assert!(r < u64::BITS, "replica id {r} out of range");
            m | bit(r)
        });
        self.isolated.fetch_or(mask, Ordering::AcqRel);
    }

    /// Reconnects every isolated replica.
    pub fn heal(&self) {
        self.isolated.store(0, Ordering::Release);
    }

    /// Reconnects one replica.
    pub fn heal_one(&self, replica: u32) {
        self.isolated.fetch_and(!bit(replica), Ordering::AcqRel);
    }

    /// Marks `replica` crashed: all its traffic (both directions) is
    /// discarded at delivery time until [`Router::restore_endpoint`].
    /// Unlike a partition, a crash also implies the replica's *state*
    /// may be lost — that part is the cluster's business; the router
    /// only models unreachability.
    pub fn crash_endpoint(&self, replica: u32) {
        assert!(replica < u64::BITS, "replica id {replica} out of range");
        self.crashed.fetch_or(bit(replica), Ordering::AcqRel);
    }

    /// Brings a crashed replica back onto the network.
    pub fn restore_endpoint(&self, replica: u32) {
        self.crashed.fetch_and(!bit(replica), Ordering::AcqRel);
    }

    /// Whether `replica` is currently crashed.
    pub fn is_crashed(&self, replica: u32) -> bool {
        self.crashed.load(Ordering::Acquire) & bit(replica) != 0
    }

    /// The currently crashed replica ids (sorted).
    pub fn crashed(&self) -> Vec<u32> {
        ids(self.crashed.load(Ordering::Acquire))
    }

    /// Whether `node` is currently unreachable — isolated by a
    /// partition or crashed.
    pub(crate) fn is_blocked(&self, node: u32) -> bool {
        (self.isolated.load(Ordering::Acquire) | self.crashed.load(Ordering::Acquire)) & bit(node)
            != 0
    }

    /// How many of replicas `0..replicas` are neither crashed nor
    /// isolated.
    pub(crate) fn reachable(&self, replicas: usize) -> usize {
        let blocked = self.isolated.load(Ordering::Acquire) | self.crashed.load(Ordering::Acquire);
        (0..replicas as u32)
            .filter(|&r| blocked & bit(r) == 0)
            .count()
    }

    /// The currently isolated replica ids (sorted).
    pub fn isolated(&self) -> Vec<u32> {
        ids(self.isolated.load(Ordering::Acquire))
    }

    /// Whether any replica is currently isolated.
    pub fn has_partition(&self) -> bool {
        self.isolated.load(Ordering::Acquire) != 0
    }

    /// The router's counters: the sum of every client's stripe.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for c in self.clients.iter() {
            total.add(&c.lock().stats);
        }
        total
    }

    /// Messages currently in flight, over every client's queue.
    pub fn in_flight(&self) -> usize {
        self.clients.iter().map(|c| c.lock().in_flight.len()).sum()
    }

    /// The delivered-message log (empty unless
    /// [`FaultPlan::record_log`] is set): every client's log, in
    /// client-id order. Serializing this and diffing across runs is
    /// the seeded-schedule reproducibility check.
    pub fn delivery_log(&self) -> Vec<Message> {
        self.clients
            .iter()
            .flat_map(|c| c.lock().log.clone())
            .collect()
    }

    /// The messages `client`'s queue delivered, in order (empty unless
    /// [`FaultPlan::record_log`] is set).
    pub fn client_delivery_log(&self, client: u32) -> Vec<Message> {
        self.client(client).lock().log.clone()
    }

    /// Accepts `msg` into its client's queue: a wrapper that holds the
    /// queue for this one message (see [`HeldQueue::send`]).
    #[cfg(test)]
    pub(crate) fn send(&self, msg: Message, copy: u8) {
        let client = if msg.to >= Message::CLIENT_BASE {
            msg.to
        } else {
            msg.from
        };
        self.hold(client).send(msg, copy);
    }

    /// Delivers the next message of `client`'s queue: a wrapper that
    /// holds the queue for this one pump (see [`HeldQueue::pump`]).
    #[cfg(test)]
    pub(crate) fn pump(&self, client: u32) -> Pumped {
        self.hold(client).pump()
    }

    /// Decides the drop / duplicate / delay knobs for `msg` from its
    /// identity and pushes the surviving copies into `q`.
    fn accept(&self, q: &mut Queue, client: u32, msg: Message, copy: u8) {
        let reply = msg.to >= Message::CLIENT_BASE;
        let endpoint = if reply { msg.from } else { msg.to };
        debug_assert_eq!(if reply { msg.to } else { msg.from }, client);
        let plan = &self.plan;
        let roll = |salt: u64, copy: u8| {
            let key = (u64::from(endpoint) << 16) | (u64::from(reply) << 8) | u64::from(copy);
            mix(plan.seed ^ salt, u64::from(client), msg.op, key)
        };
        q.stats.sent += 1;
        if plan.drop_permille > 0 && roll(SALT_DROP, copy) % 1000 < u64::from(plan.drop_permille) {
            q.stats.dropped += 1;
            return;
        }
        let dup =
            plan.dup_permille > 0 && roll(SALT_DUP, copy) % 1000 < u64::from(plan.dup_permille);
        if dup {
            q.stats.duplicated += 1;
        }
        for twin in 0..=u8::from(dup) {
            let copy = (copy << 1) | twin;
            let delay = if plan.delay_max > 0 {
                roll(SALT_DELAY, copy) % (u64::from(plan.delay_max) + 1)
            } else {
                0
            };
            if delay > 0 {
                q.stats.delayed += 1;
            }
            let flight = Flight {
                deliver_at: q.now + 1 + delay,
                id: q.next_id,
                copy,
                msg,
            };
            q.next_id += 1;
            q.in_flight.push(flight);
        }
    }

    /// Advances `q`'s clock and takes its next message, applying
    /// partitions and crashes. Fires no hook.
    fn take(&self, q: &mut Queue, client: u32) -> Pumped {
        if q.in_flight.is_empty() {
            return Pumped::Idle;
        }
        q.now += 1;
        let now = q.now;
        // One pass: the FIFO (oldest eligible) pick, the eligible
        // count, and the earliest arrival overall.
        let key = |f: &Flight| (f.deliver_at, f.id);
        let mut fifo: Option<usize> = None;
        let mut eligible = 0usize;
        let mut earliest = 0usize;
        for (i, f) in q.in_flight.iter().enumerate() {
            if key(f) < key(&q.in_flight[earliest]) {
                earliest = i;
            }
            if f.deliver_at <= now {
                eligible += 1;
                if fifo.is_none_or(|j| key(f) < key(&q.in_flight[j])) {
                    fifo = Some(i);
                }
            }
        }
        let chosen = match fifo {
            None => {
                // Jump time to the earliest arrival instead of
                // spinning.
                q.now = q.in_flight[earliest].deliver_at;
                earliest
            }
            Some(fifo) if self.plan.reorder && eligible > 1 => {
                let pick =
                    mix(self.plan.seed ^ SALT_REORDER, u64::from(client), now, 0) % eligible as u64;
                let picked = q
                    .in_flight
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.deliver_at <= now)
                    .nth(pick as usize)
                    .map(|(i, _)| i)
                    .expect("pick < eligible");
                if picked != fifo {
                    q.stats.reordered += 1;
                }
                picked
            }
            Some(fifo) => fifo,
        };
        let flight = q.in_flight.swap_remove(chosen);
        let ends = bit(flight.msg.from) | bit(flight.msg.to);
        if self.crashed.load(Ordering::Acquire) & ends != 0 {
            q.stats.crash_discarded += 1;
            return Pumped::Discarded;
        }
        if self.isolated.load(Ordering::Acquire) & ends != 0 {
            q.stats.partitioned += 1;
            return Pumped::Discarded;
        }
        q.stats.delivered += 1;
        if self.plan.record_log {
            q.log.push(flight.msg);
        }
        Pumped::Deliver(flight.msg, flight.copy)
    }
}

/// One client's queue, locked by its owner across a run of sends and
/// pumps — a whole quorum attempt — instead of once per message.
///
/// Only the owning client's thread opens one for its queue, so the
/// lock is uncontended except by readers of [`Router::stats`],
/// [`Router::in_flight`] and the delivery logs. The step hook never
/// runs under it: [`HeldQueue::pump`] releases the lock around an
/// armed hook and takes it again after.
pub(crate) struct HeldQueue<'a> {
    router: &'a Router,
    client: u32,
    net: &'a ClientNet,
    /// `None` only while an armed step hook runs.
    queue: Option<MutexGuard<'a, Queue>>,
}

impl HeldQueue<'_> {
    fn queue(&mut self) -> &mut Queue {
        self.queue.as_mut().expect("queue held outside the hook")
    }

    /// Accepts `msg` (a request from this client or a reply to it)
    /// into the held queue, deciding the drop / duplicate / delay knobs
    /// from the message's identity. `copy` is the copy of the request a
    /// reply answers (0 for requests).
    pub(crate) fn send(&mut self, msg: Message, copy: u8) {
        let (router, client) = (self.router, self.client);
        router.accept(self.queue(), client, msg, copy);
    }

    /// Advances the held queue's clock and takes its next message,
    /// applying partitions and crashes. For a message that will be
    /// delivered it fires the step hook, if one is armed, with the
    /// queue lock released.
    pub(crate) fn pump(&mut self) -> Pumped {
        let (router, client) = (self.router, self.client);
        let pumped = router.take(self.queue(), client);
        if let Pumped::Deliver(msg, _) = &pumped {
            if router.hook_armed.load(Ordering::Acquire) {
                self.queue = None;
                router.fire_hook(msg);
                self.queue = Some(self.net.lock());
            }
        }
        pumped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MsgKind;

    fn msg(op: u64, to: u32) -> Message {
        Message {
            kind: MsgKind::ReadQuery,
            op,
            from: Message::CLIENT_BASE,
            to,
            reg: 0,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        }
    }

    fn drain(router: &Router) -> Vec<u64> {
        let mut ops = Vec::new();
        loop {
            match router.pump(Message::CLIENT_BASE) {
                Pumped::Deliver(m, _) => ops.push(m.op),
                Pumped::Discarded => {}
                Pumped::Idle => return ops,
            }
        }
    }

    #[test]
    fn fault_free_router_is_fifo() {
        let router = Router::new(FaultPlan::default());
        for op in 0..5 {
            router.send(msg(op, 0), 0);
        }
        assert_eq!(drain(&router), vec![0, 1, 2, 3, 4]);
        assert_eq!(router.stats().delivered, 5);
    }

    #[test]
    fn client_queues_are_independent() {
        let router = Router::new(FaultPlan::default());
        let other = Message {
            from: Message::CLIENT_BASE + 1,
            ..msg(7, 0)
        };
        router.send(msg(0, 0), 0);
        router.send(other, 0);
        assert_eq!(drain(&router), vec![0], "a pump serves its own queue");
        assert_eq!(router.in_flight(), 1, "the other client's message waits");
        assert!(matches!(
            router.pump(Message::CLIENT_BASE + 1),
            Pumped::Deliver(m, 0) if m.op == 7
        ));
        assert_eq!(router.stats().delivered, 2, "stats sum the stripes");
    }

    #[test]
    fn seeded_reorder_is_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            delay_max: 4,
            reorder: true,
            ..FaultPlan::default()
        };
        let run = || {
            let router = Router::new(plan);
            for op in 0..20 {
                router.send(msg(op, (op % 3) as u32), 0);
            }
            drain(&router)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same delivery order");
        assert_ne!(a, (0..20).collect::<Vec<_>>(), "the knobs actually reorder");
    }

    #[test]
    fn partition_discards_and_heal_restores() {
        let router = Router::new(FaultPlan::default());
        router.partition(&[1]);
        assert!(router.has_partition());
        router.send(msg(0, 1), 0);
        router.send(msg(1, 0), 0);
        assert_eq!(drain(&router), vec![1], "replica 1's traffic discarded");
        assert_eq!(router.stats().partitioned, 1);
        router.heal();
        assert!(!router.has_partition());
        router.send(msg(2, 1), 0);
        assert_eq!(drain(&router), vec![2]);
    }

    #[test]
    fn drop_knob_loses_messages_at_send() {
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 500,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        for op in 0..200 {
            router.send(msg(op, 0), 0);
        }
        let delivered = drain(&router).len() as u64;
        let stats = router.stats();
        assert_eq!(stats.sent, 200);
        assert_eq!(stats.dropped + delivered, 200);
        assert!(stats.dropped > 50 && stats.dropped < 150, "{stats:?}");
    }

    #[test]
    fn dup_knob_delivers_twice() {
        let plan = FaultPlan {
            seed: 3,
            dup_permille: 1000,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        router.send(msg(0, 0), 0);
        assert_eq!(drain(&router), vec![0, 0]);
        assert_eq!(router.stats().duplicated, 1);
    }

    #[test]
    fn crashed_endpoint_discards_until_restored() {
        let router = Router::new(FaultPlan::default());
        router.crash_endpoint(1);
        assert!(router.is_crashed(1));
        assert_eq!(router.crashed(), vec![1]);
        assert!(router.is_blocked(1));
        router.send(msg(0, 1), 0); // to the crashed replica
        router.send(msg(1, 0), 0); // unrelated traffic flows
        assert_eq!(drain(&router), vec![1]);
        assert_eq!(router.stats().crash_discarded, 1);
        assert_eq!(router.stats().partitioned, 0, "crash is not a partition");
        router.restore_endpoint(1);
        assert!(!router.is_blocked(1));
        router.send(msg(2, 1), 0);
        assert_eq!(drain(&router), vec![2]);
    }

    #[test]
    fn reachable_counts_replicas_neither_crashed_nor_isolated() {
        let router = Router::new(FaultPlan::default());
        assert_eq!(router.reachable(3), 3);
        router.crash_endpoint(0);
        router.partition(&[2]);
        assert_eq!(router.reachable(3), 1);
        router.partition(&[0]);
        assert_eq!(
            router.reachable(3),
            1,
            "a crashed and isolated replica counts once"
        );
        router.restore_endpoint(0);
        router.heal();
        assert_eq!(router.reachable(3), 3);
    }

    #[test]
    fn delay_and_reorder_counters_track_the_knobs() {
        let plan = FaultPlan {
            seed: 42,
            delay_max: 4,
            reorder: true,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        for op in 0..50 {
            router.send(msg(op, 0), 0);
        }
        let delivered = drain(&router);
        assert_eq!(delivered.len(), 50);
        let stats = router.stats();
        assert!(stats.delayed > 0, "delay_max > 0 must delay something");
        assert!(stats.reordered > 0, "the reorder knob must fire");
        assert!(stats.reordered < 50, "FIFO picks are not counted");
    }

    #[test]
    fn step_hook_sees_every_delivery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let router = Router::new(FaultPlan::default());
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        router.set_step_hook(Some(Box::new(move |_| {
            seen2.fetch_add(1, Ordering::SeqCst);
        })));
        for op in 0..3 {
            router.send(msg(op, 0), 0);
        }
        drain(&router);
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }
}
