//! The wire protocol of the quorum backend: write stamps and messages.
//!
//! Grounded in `dist-register`'s ABD split (`src/abd/proto.rs` there):
//! a [`WriteStamp`] totally orders writes per register, and every
//! request/reply between a client and a replica is one flat [`Message`]
//! envelope. The shapes are deliberately concrete — named-field structs
//! and a fieldless kind enum — so the vendored serde derive covers them
//! and recorded message logs / fault schedules diff textually.
//!
//! Values travel as packed words (`u64`, the
//! [`Packable`](ts_register::Packable) encoding), so one envelope type
//! serves every register value type the backend supports.

use std::fmt;

use ts_register::Stamp;

/// The ABD write stamp: a `(seq, writer)` pair ordered
/// lexicographically, exactly the `Timestamp { seqno, client_id }`
/// shape of `dist-register`'s monotonic register.
///
/// `seq` is the register-local sequence number a writer computed in its
/// query phase (`max observed + 1`); `writer` breaks ties between
/// concurrent writers that picked the same `seq`. Two distinct writes
/// of one register never share a stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WriteStamp {
    /// Register-local sequence number (majority-observed max + 1).
    pub seq: u32,
    /// Id of the writing client (the tiebreak).
    pub writer: u32,
}

impl WriteStamp {
    /// The stamp every replica holds for a register's initial value.
    pub const INITIAL: WriteStamp = WriteStamp { seq: 0, writer: 0 };

    /// The stamp a writer installs after observing `self` as the
    /// quorum maximum.
    pub fn next(self, writer: u32) -> WriteStamp {
        WriteStamp {
            seq: self.seq + 1,
            writer,
        }
    }

    /// Packs the pair into the [`Stamp`] word the register seam uses:
    /// `seq` in the high 32 bits, `writer` in the low — `u64` order
    /// equals the lexicographic pair order, and [`WriteStamp::INITIAL`]
    /// maps to [`Stamp::INITIAL`].
    pub fn as_stamp(self) -> Stamp {
        Stamp::from_raw((u64::from(self.seq) << 32) | u64::from(self.writer))
    }
}

impl fmt::Display for WriteStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.seq, self.writer)
    }
}

/// What a [`Message`] asks for or answers.
///
/// Fieldless by design (see the module docs); the payload fields live
/// in the envelope and unused ones stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MsgKind {
    /// Client → replica: send me your `(stamp, word)` for `reg`.
    ReadQuery,
    /// Replica → client: my current `(stamp, word)` for `reg`.
    ReadReply,
    /// Client → replica: install `(stamp, word)` into `reg` if it
    /// exceeds what you hold (an ABD phase-2 write or a read-repair
    /// write-back).
    Write,
    /// Replica → client: your write is durable here (my stamp for
    /// `reg` is now `>=` the one you sent).
    WriteAck,
    /// Client → replica: if your word for `reg` still equals
    /// `expected`, install `word` (stamped `seq`). The conditional
    /// install of the timestamp-specialized protocol
    /// ([`QuorumTs`](crate::QuorumTs)) — one atomic step per replica,
    /// the CAS step of [`QuorumModel`](crate::QuorumModel).
    Install,
    /// Replica → client: the word held *before* an [`MsgKind::Install`]
    /// (equality with `expected` tells the client whether it landed).
    InstallReply,
}

/// One request or reply in flight on the modelled network.
///
/// A flat envelope: `kind` selects which payload fields are meaningful,
/// the rest stay zero. `from`/`to` are node ids — replicas are
/// `0..cluster.replicas()`, clients live above
/// [`Message::CLIENT_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Message {
    /// Request/reply discriminator.
    pub kind: MsgKind,
    /// Client-minted operation id replies echo. Every attempt of a
    /// quorum phase mints a fresh one; the phase counts replies to its
    /// own attempts only, so replies to earlier phases are ignored by
    /// construction.
    pub op: u64,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Register the message is about.
    pub reg: u32,
    /// Stamp sequence component (or the `Install` word's stamp).
    pub seq: u32,
    /// Stamp writer component.
    pub writer: u32,
    /// Packed value word (for `Install` requests: the *new* word; the
    /// expected word rides in `expected`).
    pub word: u64,
    /// `Install` only: the word the replica must still hold.
    pub expected: u64,
}

impl Message {
    /// Node ids at or above this are clients; below are replicas.
    pub const CLIENT_BASE: u32 = 1 << 16;

    /// Sender of the cluster's own handler calls (the rejoin resync
    /// sweep). Above every client id, so such a call mints no client.
    pub const CONTROLLER: u32 = u32::MAX;

    /// Op id of [`Message::CONTROLLER`] calls; per-client op counters
    /// never reach it.
    pub const CONTROL_OP: u64 = u64::MAX;

    /// The stamp carried in `seq`/`writer`.
    pub fn stamp(&self) -> WriteStamp {
        WriteStamp {
            seq: self.seq,
            writer: self.writer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_stamps_order_lexicographically() {
        let a = WriteStamp { seq: 1, writer: 9 };
        let b = WriteStamp { seq: 2, writer: 0 };
        assert!(a < b, "seq dominates");
        let c = WriteStamp { seq: 2, writer: 1 };
        assert!(b < c, "writer breaks ties");
        assert!(WriteStamp::INITIAL < a);
    }

    #[test]
    fn stamp_packing_preserves_order_and_initial() {
        assert_eq!(WriteStamp::INITIAL.as_stamp(), Stamp::INITIAL);
        let pairs = [
            WriteStamp::INITIAL,
            WriteStamp { seq: 0, writer: 3 },
            WriteStamp { seq: 1, writer: 0 },
            WriteStamp { seq: 1, writer: 7 },
            WriteStamp { seq: 9, writer: 2 },
        ];
        for w in pairs.windows(2) {
            assert!(
                w[0].as_stamp().as_u64() < w[1].as_stamp().as_u64(),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn next_bumps_seq_and_takes_the_writer() {
        let s = WriteStamp { seq: 4, writer: 2 }.next(5);
        assert_eq!(s, WriteStamp { seq: 5, writer: 5 });
    }

    #[cfg(feature = "serde")]
    #[test]
    fn messages_round_trip_byte_stably() {
        let msg = Message {
            kind: MsgKind::Install,
            op: 42,
            from: Message::CLIENT_BASE + 1,
            to: 2,
            reg: 0,
            seq: 7,
            writer: 1,
            word: 7,
            expected: 3,
        };
        let json = serde_json::to_string(&msg).expect("messages serialize");
        let back: Message = serde_json::from_str(&json).expect("messages parse");
        assert_eq!(back, msg);
        let again = serde_json::to_string(&back).expect("messages re-serialize");
        assert_eq!(again, json, "re-serialization changed bytes");
    }
}
