//! [`SlotPool`]: physical register slots leased per call.
//!
//! This is the storage half of virtual-pid multiplexing: a client
//! session's *identity* is its vpid (never reused, unbounded), but its
//! *storage* — the single-writer register pair it publishes stamps to —
//! is borrowed from a fixed pool only while an issue call runs. The
//! lease serializes writers per slot, so each register keeps exactly
//! one writer at a time (the SWMR discipline the substrate assumes)
//! even with `M >> n` clients.
//!
//! # Lease protocol
//!
//! Each slot has its own padded busy flag, so taking and returning a
//! lease touches only the leased slot's cache line:
//!
//! - **take**: [`SlotPool::lease`] tries the caller's *hint* slot (a
//!   session passes the slot it last got), then every other slot once,
//!   starting after the hint. A slot is taken by a CAS `false → true`
//!   with `Acquire`.
//! - **return**: dropping the [`Lease`] stores `false`. The store
//!   releases, so the next holder sees every register write of the
//!   previous one — `Shard::publish` reads the pair, compares and
//!   writes, and must never act on a stale value — and every count the
//!   previous one added to the slot's counter row, which holders add to
//!   with plain stores.
//!
//! Steady-state sessions therefore keep their own slot, its registers
//! and its counter row; only callers that find *every* slot busy touch
//! shared state.
//!
//! # Waiting
//!
//! Blocking is deliberate: a caller that finds every slot busy takes the
//! pool's mutex, registers as a sleeper, retries the scan under the
//! mutex and waits on the condvar until a release notifies it. A
//! release notifies (under the mutex) only when the sleeper count is
//! non-zero, so an uncontended release makes no syscall. The release's
//! flag store and sleeper load and the waiter's sleeper increment and
//! flag loads are all `SeqCst`: either the release sees the sleeper, or
//! the waiter's retry sees the free slot — no wakeup is lost. Each
//! lease that found every slot busy counts once in
//! [`SlotPool::waits`], the service's signal that the client population
//! has outgrown the shard's slot budget.

use std::sync::atomic::Ordering::{Acquire, Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use ts_register::CachePadded;

/// `[flag load, CAS success]` orderings for a scan outside the mutex:
/// a cheap peek, and `Acquire` on the take.
const FAST: [Ordering; 2] = [Relaxed, Acquire];
/// The same for a registered sleeper's retry: `SeqCst`, to pair with
/// the release's flag store and sleeper load.
const SLEEPER: [Ordering; 2] = [SeqCst, SeqCst];

/// A fixed set of slot ids (`0..n`), each leased to one holder at a
/// time. See the module docs for the protocol.
#[derive(Debug)]
pub(crate) struct SlotPool {
    /// One busy flag per slot, each on its own cache line.
    busy: Box<[CachePadded<AtomicBool>]>,
    /// Callers registered to wait for a release.
    sleepers: CachePadded<AtomicUsize>,
    /// Guards only the sleep/notify hand-off; never taken on a lease
    /// that finds a free slot.
    gate: Mutex<()>,
    cv: Condvar,
    waits: AtomicU64,
}

impl SlotPool {
    /// A pool over slots `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one slot");
        Self {
            busy: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            sleepers: CachePadded::new(AtomicUsize::new(0)),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    /// Leases a slot, preferring `hint` (reduced modulo the pool size)
    /// and blocking until one is free. The lease releases the slot on
    /// drop.
    pub(crate) fn lease(&self, hint: usize) -> Lease<'_> {
        let slot = match self.claim(hint, FAST) {
            Some(slot) => slot,
            None => self.wait_for_slot(hint),
        };
        Lease { pool: self, slot }
    }

    /// One scan for a free slot: `hint` first, then the others in
    /// order after it.
    fn claim(&self, hint: usize, [load, take]: [Ordering; 2]) -> Option<usize> {
        let n = self.busy.len();
        let start = hint % n;
        (start..n).chain(0..start).find(|&slot| {
            let busy = &self.busy[slot];
            !busy.load(load) && busy.compare_exchange(false, true, take, load).is_ok()
        })
    }

    /// The slow path: every slot was busy.
    #[cold]
    fn wait_for_slot(&self, hint: usize) -> usize {
        let mut gate = self.gate.lock().expect("slot pool lock");
        self.waits.fetch_add(1, Relaxed);
        self.sleepers.fetch_add(1, SeqCst);
        loop {
            if let Some(slot) = self.claim(hint, SLEEPER) {
                // Relaxed: a release that still sees this sleeper only
                // pays for a spurious notify.
                self.sleepers.fetch_sub(1, Relaxed);
                return slot;
            }
            gate = self.cv.wait(gate).expect("slot pool lock");
        }
    }

    /// Leases that had to block because every slot was taken.
    pub(crate) fn waits(&self) -> u64 {
        self.waits.load(Relaxed)
    }
}

/// An exclusive hold on one slot id; returns it to the pool on drop.
#[derive(Debug)]
pub(crate) struct Lease<'a> {
    pool: &'a SlotPool,
    slot: usize,
}

impl Lease<'_> {
    /// The leased slot id.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let pool = self.pool;
        pool.busy[self.slot].store(false, SeqCst);
        if pool.sleepers.load(SeqCst) != 0 {
            let _gate = pool.gate.lock().expect("slot pool lock");
            pool.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn a_free_hinted_slot_is_the_one_returned() {
        let pool = SlotPool::new(4);
        for hint in 0..4 {
            assert_eq!(pool.lease(hint).slot(), hint);
        }
        assert_eq!(pool.lease(6).slot(), 2, "hints wrap modulo the pool size");
        assert_eq!(pool.waits(), 0);
    }

    #[test]
    fn a_busy_hinted_slot_falls_back_to_a_free_one() {
        let pool = SlotPool::new(3);
        let held = pool.lease(1);
        let other = pool.lease(1);
        assert_eq!(other.slot(), 2, "scan starts after the hint");
        let last = pool.lease(1);
        assert_eq!(last.slot(), 0, "scan wraps to the front");
        drop((held, other, last));
        assert_eq!(pool.waits(), 0, "no lease ever had to block");
    }

    #[test]
    fn oversubscribed_pool_blocks_and_counts_waits() {
        let pool = SlotPool::new(1);
        std::thread::scope(|s| {
            let held = pool.lease(0);
            let waiter = s.spawn(|| pool.lease(0).slot());
            // Give the waiter time to find the slot busy.
            while pool.waits() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(waiter.join().expect("waiter"), 0);
        });
        assert_eq!(pool.waits(), 1);
    }

    #[test]
    fn many_threads_never_share_a_slot() {
        const THREADS: usize = 8;
        let pool = SlotPool::new(2);
        let in_use = [AtomicU64::new(0), AtomicU64::new(0)];
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (pool, in_use, start) = (&pool, &in_use, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20_000 {
                        let lease = pool.lease(t);
                        let claims = in_use[lease.slot()].fetch_add(1, SeqCst);
                        assert_eq!(claims, 0, "two leases held slot {}", lease.slot());
                        // Hold the slot across a reschedule so overlapping
                        // holders, if the pool allowed any, would meet.
                        std::thread::yield_now();
                        in_use[lease.slot()].fetch_sub(1, SeqCst);
                    }
                });
            }
        });
    }

    #[test]
    fn no_wakeup_is_lost_on_a_single_slot() {
        const THREADS: usize = 4;
        const LEASES: usize = 2_000;
        let pool = Arc::new(SlotPool::new(1));
        let start = Arc::new(Barrier::new(THREADS));
        let (done, finished) = mpsc::channel();
        let leasers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, start, done) = (Arc::clone(&pool), Arc::clone(&start), done.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..LEASES {
                        let _lease = pool.lease(t);
                        if i % 64 == 0 {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                    }
                    done.send(()).expect("watchdog alive");
                })
            })
            .collect();
        // Watchdog: a lost wakeup leaves a leaser asleep forever, so
        // wait a bounded time for every leaser before joining any.
        for _ in 0..THREADS {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a leaser never finished: lost wakeup");
        }
        for leaser in leasers {
            leaser.join().expect("leaser panicked");
        }
        assert!(pool.waits() >= 1, "4 threads on 1 slot must contend");
    }
}
