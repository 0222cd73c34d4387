//! [`WorkloadTarget`] adapters for the lock consumers, so the workload
//! scenario engine can drive them next to the raw timestamp objects.
//!
//! The op mapping for locks:
//!
//! - `GetTs` — one full acquire/release cycle. The doorway takes a
//!   ticket from the long-lived timestamp object, so this is the
//!   "timestamp in anger" path; the worker also asserts that tickets
//!   from its own non-overlapping cycles strictly increase (the FCFS
//!   consequence of the timestamp property).
//! - `Scan` — a read-only pass over the announcement array
//!   ([`FcfsLock::ticket_of`] / [`KExclusion::competing`]).
//! - `Compare` — the local comparison of the worker's last two tickets.

use std::hint::black_box;

use ts_core::workload::{StampSource, StampWorker, WorkloadTarget, WorkloadWorker};
use ts_core::RegisterBackend;

use crate::fcfs_lock::FcfsLock;
use crate::kexclusion::KExclusion;

impl<B: RegisterBackend<u64>> StampSource for FcfsLock<B> {
    type State<'a> = usize;
    type Stamp = u64;

    fn issue(&self, slot: &mut usize) -> (u64, u64) {
        let guard = self.lock(*slot);
        let ticket = self.ticket_of(*slot);
        drop(guard);
        (ticket, ticket)
    }

    fn observe(&self, _slot: &usize) -> bool {
        for q in 0..self.processes() {
            black_box(self.ticket_of(q));
        }
        true
    }

    /// A worker's previous cycle finished before its next one began:
    /// FCFS demands a strictly larger ticket.
    fn checked(&self) -> bool {
        true
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for FcfsLock<B> {
    fn object(&self) -> &'static str {
        "fcfs_lock"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        self.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.processes(), "slot {slot} out of range");
        Box::new(StampWorker::new(self, slot))
    }
}

impl<B: RegisterBackend<u64>> StampSource for KExclusion<B> {
    /// The worker's slot and its local cycle count.
    type State<'a> = (usize, u64);
    type Stamp = u64;

    fn issue(&self, (slot, cycles): &mut (usize, u64)) -> (u64, u64) {
        drop(self.acquire(*slot));
        *cycles += 1;
        (*cycles, *cycles)
    }

    fn observe(&self, _state: &(usize, u64)) -> bool {
        black_box(self.competing());
        true
    }

    /// The stamps are local cycle numbers (`active` is cleared on
    /// release, and k-exclusion admits overtaking, so unlike FCFS no
    /// cross-cycle ticket order holds): `Compare` only measures cost.
    fn checked(&self) -> bool {
        false
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for KExclusion<B> {
    fn object(&self) -> &'static str {
        "k_exclusion"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        self.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.processes(), "slot {slot} out of range");
        Box::new(StampWorker::new(self, (slot, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::workload::WorkloadOp;
    use ts_core::PackedBackend;

    #[test]
    fn kexclusion_worker_cycles() {
        let pool: KExclusion<PackedBackend> = KExclusion::new(3, 2);
        let mut w = pool.worker(1);
        assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        assert_eq!(w.step(WorkloadOp::Scan), WorkloadOp::Scan);
        assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::Compare);
        assert_eq!(pool.competing(), 0, "guard released after every cycle");
    }
}
