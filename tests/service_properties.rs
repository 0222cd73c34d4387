//! Property-based tests for the service layer's timestamp algebra.
//!
//! Three law families, each a paper-facing claim:
//!
//! - the lexicographic order on [`ShardedTimestamp`] is a *strict total
//!   order* (irreflexive, asymmetric, transitive, total on distinct
//!   triples) — the service's cross-client guarantee is exactly this
//!   order, so its laws carry the whole relaxation;
//! - a client session's stamps are *strictly increasing* under any
//!   interleaving of single issues, batches and shard migrations —
//!   per-client monotonicity is the other half of the guarantee;
//! - serde round-trips are *byte-stable*: deserialize ∘ serialize is
//!   identity on values **and** serialize ∘ deserialize is identity on
//!   bytes, so recorded bench rows and replay corpora can be diffed
//!   textually across versions.

use proptest::prelude::*;

use timestamp_suite::ts_core::ShardedTimestamp;
use timestamp_suite::ts_service::{ServiceConfig, ShardedCollectMax};

fn stamp_strategy() -> impl Strategy<Value = ShardedTimestamp> {
    (0u32..50, 0u32..50, 0u32..8).prop_map(|(e, l, s)| ShardedTimestamp::new(e, l, s))
}

proptest! {
    /// Strict total order: irreflexive, asymmetric + total on distinct
    /// triples, and agreeing with the lexicographic tuple order it is
    /// documented to be.
    #[test]
    fn sharded_compare_is_a_strict_total_order(a in stamp_strategy(), b in stamp_strategy()) {
        prop_assert!(!ShardedTimestamp::compare(&a, &a));
        if a == b {
            prop_assert!(!ShardedTimestamp::compare(&a, &b));
            prop_assert!(!ShardedTimestamp::compare(&b, &a));
        } else {
            prop_assert!(ShardedTimestamp::compare(&a, &b) ^ ShardedTimestamp::compare(&b, &a));
            let lex = (a.epoch, a.local, a.shard) < (b.epoch, b.local, b.shard);
            prop_assert_eq!(ShardedTimestamp::compare(&a, &b), lex);
        }
    }

    /// Transitivity (sampled over triples).
    #[test]
    fn sharded_compare_is_transitive(
        a in stamp_strategy(), b in stamp_strategy(), c in stamp_strategy()
    ) {
        if ShardedTimestamp::compare(&a, &b) && ShardedTimestamp::compare(&b, &c) {
            prop_assert!(ShardedTimestamp::compare(&a, &c));
        }
    }

    /// The packed `(epoch, local)` word order agrees with the stamp
    /// order shard-locally, and `from_word` inverts `word`.
    #[test]
    fn word_encoding_is_order_preserving(a in stamp_strategy(), b in stamp_strategy()) {
        prop_assert_eq!(ShardedTimestamp::from_word(a.word(), a.shard), a);
        if a.shard == b.shard {
            prop_assert_eq!(a.word() < b.word(), ShardedTimestamp::compare(&a, &b));
        }
    }

    /// Per-client monotonicity survives any action sequence: every
    /// issued stamp strictly exceeds the session's previous one, across
    /// batches and shard migrations, on every shard shape.
    #[test]
    fn session_stamps_increase_under_any_action_sequence(
        shards in 1usize..5,
        slots in 1usize..3,
        seed_actions in proptest::collection::vec((0u8..3, 1u32..18, 0usize..8), 1..40),
    ) {
        let service = ShardedCollectMax::new(ServiceConfig::new(shards, slots));
        let mut session = service.session();
        let mut prev: Option<ShardedTimestamp> = None;
        let mut issued: u64 = 0;
        for (kind, k, raw_shard) in seed_actions {
            let (first, last) = match kind {
                0 => { let t = session.get_ts(); (t, t) }
                1 => {
                    let b = session.get_ts_batch(k);
                    prop_assert_eq!(b.len() as u32, k);
                    (b.first_stamp(), b.last_stamp())
                }
                _ => { session.migrate(raw_shard % shards); continue }
            };
            issued += u64::from(if kind == 1 { k } else { 1 });
            if let Some(p) = prev {
                prop_assert!(
                    ShardedTimestamp::compare(&p, &first),
                    "stamp did not advance: {} !< {}", p, first
                );
            }
            prop_assert!(
                first == last || ShardedTimestamp::compare(&first, &last),
                "batch ends below its start: {} !<= {}", first, last
            );
            prev = Some(last);
        }
        prop_assert_eq!(service.stats().stamps, issued);
    }

    /// Serde round-trips: value identity through the wire format, and
    /// byte identity when re-serializing what was parsed.
    #[test]
    fn serde_round_trips_byte_stably(t in stamp_strategy()) {
        let json = serde_json::to_string(&t).expect("stamps serialize");
        let back: ShardedTimestamp = serde_json::from_str(&json).expect("stamps parse");
        prop_assert_eq!(back, t);
        let again = serde_json::to_string(&back).expect("stamps re-serialize");
        prop_assert_eq!(again, json, "re-serialization changed bytes");
    }
}

/// Two sessions on different shards issue stamps that the total order
/// still ranks — no incomparable pairs exist, which is what lets
/// `Compare` stay shared-memory-free.
#[test]
fn cross_shard_stamps_are_always_comparable() {
    let service = ShardedCollectMax::new(ServiceConfig::new(2, 1));
    let mut a = service.session();
    let mut b = service.session();
    assert_ne!(a.shard(), b.shard());
    let (ta, tb) = (a.get_ts(), b.get_ts());
    assert!(ShardedTimestamp::compare(&ta, &tb) ^ ShardedTimestamp::compare(&tb, &ta));
}
