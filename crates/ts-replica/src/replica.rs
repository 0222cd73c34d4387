//! One quorum replica: one `(stamp, word)` cell per register plus the
//! message handlers.
//!
//! A replica is passive — it owns no thread. Whoever pumps a client
//! queue (or takes the fault-free direct path) applies
//! `Replica::handle` inline, under the lock of the **one register
//! cell** the message addresses: handlers on different registers never
//! meet, and the cell is found by id in an append-only table without a
//! lock or a shared refcount. Handlers are pure state transitions:
//! request in, reply out.
//!
//! # The monotonic-register invariant
//!
//! The load-bearing safety property (the `MonotoneRegister` of
//! `dist-register`, and the reason ABD read-repair is linearizable):
//! **a replica's stored stamp for a register never decreases**. As in
//! `dist-register`'s per-register `MonotonicRegisterInner`, the
//! invariant lives on the cell itself: every handler step re-checks it
//! via debug-independent runtime assertions — not `debug_assert!` — so
//! stress tests and fault schedules keep it armed in release builds
//! too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ts_register::{CachePadded, SegTable};

use crate::proto::{Message, MsgKind, WriteStamp};

/// One register on one replica: the highest-stamped write seen, and
/// the counts of the handler steps that advanced it or left it alone.
#[derive(Debug, Default)]
struct Cell {
    stamp: WriteStamp,
    word: u64,
    /// Writes/installs that actually advanced the cell.
    installs: u64,
    /// Stale writes ignored (incoming stamp not above stored).
    stale: u64,
}

impl Cell {
    /// Lands `(stamp, word)` when `land` holds, counting the step as an
    /// install or a stale write.
    fn land_if(&mut self, land: bool, stamp: WriteStamp, word: u64) {
        if land {
            self.stamp = stamp;
            self.word = word;
            self.installs += 1;
        } else {
            self.stale += 1;
        }
    }
}

/// One of the cluster's `2f + 1` storage nodes.
///
/// Holds a `(stamp, word)` cell per register and answers
/// [`Message`]s; see the module docs for the handler semantics and the
/// armed monotonicity invariant.
pub struct Replica {
    id: u32,
    cells: SegTable<CachePadded<Mutex<Cell>>>,
    /// State wipes suffered (crash-with-state-loss restarts).
    wipes: AtomicU64,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("installs", &self.installs())
            .finish()
    }
}

impl Replica {
    /// Creates replica `id` with no registers yet.
    pub(crate) fn new(id: u32) -> Self {
        Self {
            id,
            cells: SegTable::new(),
            wipes: AtomicU64::new(0),
        }
    }

    /// This replica's node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    fn cell(&self, reg: u32) -> MutexGuard<'_, Cell> {
        self.cells
            .get(reg as usize)
            .unwrap_or_else(|| panic!("replica {}: no register {reg}", self.id))
            .lock()
            .expect("register cell lock")
    }

    fn sum(&self, count: impl Fn(&Cell) -> u64) -> u64 {
        self.cells
            .iter()
            .map(|c| count(&c.lock().expect("register cell lock")))
            .sum()
    }

    /// Creates register `reg` seeded with `word` at
    /// [`WriteStamp::INITIAL`]. Only this grows the cell table.
    pub(crate) fn init_register(&self, reg: u32, word: u64) {
        *self
            .cells
            .get_or_init(reg as usize)
            .lock()
            .expect("register cell lock") = Cell {
            word,
            ..Cell::default()
        };
    }

    /// Crash-with-state-loss: resets every cell to `(INITIAL, 0)`, as
    /// if the replica restarted from an empty disk.
    ///
    /// The monotonic-register invariant is **per incarnation**: it
    /// constrains every handler step, and a wipe starts a new
    /// incarnation with a fresh baseline. Cluster-level monotonicity
    /// across the wipe is restored by the rejoin resync sweep
    /// ([`Cluster::restart`](crate::Cluster::restart)), which runs
    /// through the ordinary `Write` handler — so the invariant stays
    /// armed while the replica catches back up.
    pub(crate) fn wipe(&self) {
        for cell in self.cells.iter() {
            let mut cell = cell.lock().expect("register cell lock");
            cell.stamp = WriteStamp::INITIAL;
            cell.word = 0;
        }
        self.wipes.fetch_add(1, Ordering::Relaxed);
    }

    /// Times this replica's state has been wiped by a crash.
    pub fn wipes(&self) -> u64 {
        self.wipes.load(Ordering::Relaxed)
    }

    /// The stored `(stamp, word)` for `reg` — durability probes in
    /// tests look here.
    pub fn stored(&self, reg: u32) -> (WriteStamp, u64) {
        let cell = self.cell(reg);
        (cell.stamp, cell.word)
    }

    /// Installs that advanced a cell (monotone steps taken).
    pub fn installs(&self) -> u64 {
        self.sum(|c| c.installs)
    }

    /// Stale writes ignored without touching the cell.
    pub fn stale_writes(&self) -> u64 {
        self.sum(|c| c.stale)
    }

    /// Applies one request and returns the reply (addressed back to
    /// `msg.from`, echoing `msg.op`). Panics on reply kinds — replicas
    /// never receive replies.
    pub(crate) fn handle(&self, msg: &Message) -> Message {
        debug_assert_eq!(msg.to, self.id, "misrouted message");
        let mut cell = self.cell(msg.reg);
        let before = cell.stamp;
        let reply = match msg.kind {
            MsgKind::ReadQuery => Message {
                kind: MsgKind::ReadReply,
                seq: cell.stamp.seq,
                writer: cell.stamp.writer,
                word: cell.word,
                expected: 0,
                ..reply_envelope(self.id, msg)
            },
            MsgKind::Write => {
                // Install iff strictly newer; always ack — a stale ack
                // still means "my stamp is >= yours", which is all the
                // writer needs for durability.
                let newer = msg.stamp() > cell.stamp;
                cell.land_if(newer, msg.stamp(), msg.word);
                Message {
                    kind: MsgKind::WriteAck,
                    seq: cell.stamp.seq,
                    writer: cell.stamp.writer,
                    word: 0,
                    expected: 0,
                    ..reply_envelope(self.id, msg)
                }
            }
            MsgKind::Install => {
                // Conditional install, the CAS step of `QuorumTs`'s
                // `getTS` (which its model re-runs): land the new word
                // only if the stored word still equals `expected`;
                // reply with the *prior* word either way. A client's
                // proposal exceeds every word it expects, so on its
                // installs `msg.word > prior` always holds.
                let prior = cell.word;
                cell.land_if(
                    prior == msg.expected && msg.word > prior,
                    msg.stamp(),
                    msg.word,
                );
                Message {
                    kind: MsgKind::InstallReply,
                    seq: cell.stamp.seq,
                    writer: cell.stamp.writer,
                    word: prior,
                    expected: 0,
                    ..reply_envelope(self.id, msg)
                }
            }
            MsgKind::ReadReply | MsgKind::WriteAck | MsgKind::InstallReply => {
                panic!("replica {} received reply kind {:?}", self.id, msg.kind)
            }
        };
        // The armed invariant: no handler may regress a stored stamp.
        assert!(
            cell.stamp >= before,
            "monotonic-register invariant violated on replica {}: \
             register {} regressed {} -> {}",
            self.id,
            msg.reg,
            before,
            cell.stamp,
        );
        reply
    }
}

fn reply_envelope(id: u32, req: &Message) -> Message {
    Message {
        kind: req.kind, // overwritten by the caller
        op: req.op,
        from: id,
        to: req.from,
        reg: req.reg,
        seq: 0,
        writer: 0,
        word: 0,
        expected: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(reg: u32, seq: u32, writer: u32, word: u64) -> Message {
        Message {
            kind: MsgKind::Write,
            op: 1,
            from: Message::CLIENT_BASE,
            to: 0,
            reg,
            seq,
            writer,
            word,
            expected: 0,
        }
    }

    #[test]
    fn reads_echo_the_stored_pair() {
        let r = Replica::new(0);
        r.init_register(0, 7);
        let reply = r.handle(&Message {
            kind: MsgKind::ReadQuery,
            op: 9,
            from: Message::CLIENT_BASE + 2,
            to: 0,
            reg: 0,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        });
        assert_eq!(reply.kind, MsgKind::ReadReply);
        assert_eq!(reply.op, 9);
        assert_eq!(reply.to, Message::CLIENT_BASE + 2);
        assert_eq!((reply.stamp(), reply.word), (WriteStamp::INITIAL, 7));
    }

    #[test]
    fn writes_install_only_forward() {
        let r = Replica::new(0);
        r.init_register(0, 0);
        r.handle(&write(0, 2, 1, 22));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 22));
        // Older stamp: ignored, but still acked with the newer stamp.
        let ack = r.handle(&write(0, 1, 9, 11));
        assert_eq!(ack.kind, MsgKind::WriteAck);
        assert_eq!(ack.stamp(), WriteStamp { seq: 2, writer: 1 });
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 22));
        // Same seq, higher writer: the tiebreak installs.
        r.handle(&write(0, 2, 3, 33));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 3 }, 33));
        assert_eq!(r.installs(), 2);
        assert_eq!(r.stale_writes(), 1);
    }

    #[test]
    fn installs_are_conditional_on_the_expected_word() {
        let r = Replica::new(1);
        r.init_register(0, 0);
        let install = Message {
            kind: MsgKind::Install,
            op: 5,
            from: Message::CLIENT_BASE,
            to: 1,
            reg: 0,
            seq: 1,
            writer: 0,
            word: 1,
            expected: 0,
        };
        let reply = r.handle(&install);
        assert_eq!(reply.kind, MsgKind::InstallReply);
        assert_eq!(reply.word, 0, "reply carries the prior word");
        assert_eq!(r.stored(0).1, 1);
        // Replayed duplicate: expected stale, slot untouched.
        let reply = r.handle(&install);
        assert_eq!(reply.word, 1);
        assert_eq!(r.stored(0).1, 1);
        assert_eq!(r.installs(), 1);
    }

    #[test]
    fn wipe_starts_a_fresh_incarnation_with_the_invariant_armed() {
        let r = Replica::new(0);
        r.init_register(0, 0);
        r.handle(&write(0, 5, 1, 50));
        assert_eq!(r.stored(0), (WriteStamp { seq: 5, writer: 1 }, 50));
        r.wipe();
        assert_eq!(r.wipes(), 1);
        assert_eq!(r.stored(0), (WriteStamp::INITIAL, 0));
        // A lower-than-pre-wipe stamp installs fine (new incarnation),
        // and the per-step invariant still rejects regressions after.
        r.handle(&write(0, 2, 1, 20));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 20));
        r.handle(&write(0, 1, 1, 10));
        assert_eq!(r.stored(0).1, 20, "stale write after wipe still ignored");
    }

    #[test]
    fn duplicate_write_is_idempotent() {
        let r = Replica::new(0);
        r.init_register(0, 0);
        let msg = write(0, 1, 2, 5);
        r.handle(&msg);
        r.handle(&msg);
        assert_eq!(r.stored(0), (WriteStamp { seq: 1, writer: 2 }, 5));
        assert_eq!(r.installs(), 1);
        assert_eq!(r.stale_writes(), 1);
    }
}
