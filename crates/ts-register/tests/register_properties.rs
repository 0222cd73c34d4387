//! Property and stress tests for the register substrate.

use std::sync::Arc;

use proptest::prelude::*;
use ts_register::{
    AtomicRegister, EpochBackend, PackedBackend, PackedRegister, Register, RegisterArray,
    RegisterBackend, SpaceMeter, StampedRegister, WordRegister, WriteSummary,
};

proptest! {
    /// Write-then-read returns the written value for every register
    /// flavour (sequential linearizability floor).
    #[test]
    fn write_read_round_trip(values in proptest::collection::vec(any::<u64>(), 1..50)) {
        let atomic = AtomicRegister::new(0u64);
        let word = WordRegister::new(0);
        let stamped = StampedRegister::new(0u64);
        for &v in &values {
            atomic.write(v);
            prop_assert_eq!(atomic.read(), v);
            word.write(v);
            prop_assert_eq!(word.read(), v);
            stamped.write(v);
            prop_assert_eq!(StampedRegister::read(&stamped), v);
        }
    }

    /// Stamps strictly increase along a register's own write history.
    #[test]
    fn stamps_increase_monotonically(values in proptest::collection::vec(any::<u8>(), 1..40)) {
        let reg = StampedRegister::new(0u8);
        let mut last = reg.read_stamped().stamp;
        for &v in &values {
            reg.write(v);
            let s = reg.read_stamped().stamp;
            prop_assert!(s > last);
            last = s;
        }
    }

    /// Meter snapshots add up: totals equal the sum of per-register
    /// counts and `registers_written` matches the nonzero write cells.
    #[test]
    fn meter_arithmetic_is_consistent(
        ops in proptest::collection::vec((0usize..8, any::<bool>()), 0..100)
    ) {
        let meter = SpaceMeter::new(8);
        let array = RegisterArray::with_meter(8, 0u64, meter.clone());
        for &(idx, is_write) in &ops {
            if is_write {
                array.write(idx, 1).unwrap();
            } else {
                let _ = array.read(idx).unwrap();
            }
        }
        let snap = meter.snapshot();
        prop_assert_eq!(
            snap.total_writes(),
            ops.iter().filter(|(_, w)| *w).count() as u64
        );
        prop_assert_eq!(
            snap.total_reads(),
            ops.iter().filter(|(_, w)| !*w).count() as u64
        );
        let written: std::collections::HashSet<usize> =
            ops.iter().filter(|(_, w)| *w).map(|(i, _)| *i).collect();
        prop_assert_eq!(snap.registers_written(), written.len());
        prop_assert_eq!(snap.max_written_index(), written.iter().max().copied());
    }
}

proptest! {
    /// Zero-copy reads under concurrency, epoch backend: `read_with`
    /// closures interleaved with writes must never observe a torn value
    /// (the two halves of the stored pair always agree) nor a stale
    /// value past a known linearization point (after the writer thread
    /// is joined, a read must return its last write).
    #[test]
    fn read_with_is_untorn_and_not_stale_epoch_backend(
        writers in 1usize..4,
        reader_ops in 1usize..400,
        rounds in 1u64..40,
    ) {
        let reg = Arc::new(AtomicRegister::new((0u64, 0u64)));
        crossbeam::scope(|s| {
            for w in 0..writers {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 1..=rounds {
                        let v = w as u64 * 1_000_000 + i;
                        reg.write((v, v));
                    }
                });
            }
            for _ in 0..2 {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    for _ in 0..reader_ops {
                        // The closure borrows the cell in place; a torn
                        // pair here would mean the epoch scheme let a
                        // writer mutate or free the cell under us.
                        reg.read_with(|&(a, b)| {
                            assert_eq!(a, b, "torn zero-copy read: ({a}, {b})");
                        });
                    }
                });
            }
        })
        .unwrap();
        // Writer joins are linearization points: the register now holds
        // some writer's final write, and `read_with` must see it.
        let (a, b) = reg.read_with(|&pair| pair);
        prop_assert_eq!(a, b);
        prop_assert!(
            a % 1_000_000 == rounds || (a == 0 && rounds == 0),
            "stale value past linearization: {} after {} rounds", a, rounds
        );
    }

    /// Zero-copy reads under concurrency, packed backend: a single
    /// writer's values are observed monotonically by every `read_with`
    /// reader (per-location coherence), and the final read equals the
    /// last write once the writer is joined.
    #[test]
    fn read_with_is_monotone_and_not_stale_packed_backend(
        reader_ops in 1usize..400,
        rounds in 1u64..2_000,
    ) {
        let reg: Arc<PackedRegister<u64>> = Arc::new(PackedRegister::new(0));
        crossbeam::scope(|s| {
            {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 1..=rounds {
                        reg.write(i);
                    }
                });
            }
            for _ in 0..2 {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    let mut last = 0u64;
                    for _ in 0..reader_ops {
                        let v = reg.read_with(|&v| v);
                        assert!(v >= last, "packed read_with went backwards: {v} after {last}");
                        last = v;
                    }
                });
            }
        })
        .unwrap();
        prop_assert_eq!(reg.read_with(|&v| v), rounds);
    }

    /// Interleaving `read_with` with same-thread writes observes every
    /// write immediately (program order), on both backends.
    #[test]
    fn read_with_sees_own_writes(values in proptest::collection::vec(0u64..u32::MAX as u64, 1..60)) {
        let epoch = AtomicRegister::new(0u64);
        let packed: PackedRegister<u64> = PackedRegister::new(0);
        for &v in &values {
            epoch.write(v);
            prop_assert_eq!(epoch.read_with(|&x| x), v);
            packed.write(v);
            prop_assert_eq!(packed.read_with(|&x| x), v);
        }
    }
}

proptest! {
    /// A block dirty word, sequentially: the generation never
    /// decreases, counts begun == completed at quiescence, and equals
    /// the number of writes applied to the block (here the whole
    /// one-block array).
    #[test]
    fn dirty_words_generation_is_monotone_and_exact(
        ops in proptest::collection::vec((0usize..6, any::<u32>()), 0..80),
    ) {
        let array: RegisterArray<u32, PackedBackend> = RegisterArray::with_backend(6, 0);
        let mut last_generation = array.block_summary(0).generation();
        prop_assert_eq!(last_generation, 0);
        for (applied, &(idx, v)) in ops.iter().enumerate() {
            array.write(idx, v).unwrap();
            let s = array.block_summary(0);
            prop_assert!(
                s.generation() >= last_generation,
                "generation went backwards: {} after {}",
                s.generation(),
                last_generation
            );
            prop_assert_eq!(s.generation(), (applied + 1) as u32);
            prop_assert_eq!(s.begun(), s.completed(), "quiescent array has no in-flight writes");
            last_generation = s.generation();
        }
    }

    /// Block-word mismatch ⇒ some register stamp changed (and
    /// conversely, an unchanged block word over a quiescent window ⇒ no
    /// stamp moved): the two change-detection mechanisms of the scan
    /// agree.
    #[test]
    fn dirty_words_mismatch_implies_a_stamp_changed(
        before_ops in proptest::collection::vec((0usize..5, any::<u32>()), 0..20),
        after_ops in proptest::collection::vec((0usize..5, any::<u32>()), 0..20),
    ) {
        let array: RegisterArray<u32, PackedBackend> = RegisterArray::with_backend(5, 0);
        for &(idx, v) in &before_ops {
            array.write(idx, v).unwrap();
        }
        let s0 = array.block_summary(0);
        let stamps0 = array.collect_stamps();
        for &(idx, v) in &after_ops {
            array.write(idx, v).unwrap();
        }
        let s1 = array.block_summary(0);
        let stamps1 = array.collect_stamps();
        if !WriteSummary::no_writes_during(s0, s1) {
            // The block word said "something changed": a per-register
            // stamp must agree (packed stamps are exact per register).
            prop_assert!(!after_ops.is_empty());
            prop_assert_ne!(stamps0, stamps1);
        } else {
            prop_assert!(after_ops.is_empty());
            prop_assert_eq!(stamps0, stamps1);
        }
    }

    /// Concurrent writers: the block word's begun count observed after
    /// the storm equals the total writes, and every intermediate
    /// observation is monotone in both halves.
    #[test]
    fn dirty_words_counts_are_monotone_under_concurrency(
        writers in 1usize..4,
        writes_each in 1u64..300,
    ) {
        let array = Arc::new(RegisterArray::<u32, PackedBackend>::with_backend(4, 0));
        crossbeam::scope(|s| {
            for w in 0..writers {
                let array = Arc::clone(&array);
                s.spawn(move |_| {
                    for i in 0..writes_each {
                        array.write(w % 4, i as u32).unwrap();
                    }
                });
            }
            let array = Arc::clone(&array);
            s.spawn(move |_| {
                let mut last = array.block_summary(0);
                for _ in 0..200 {
                    let s = array.block_summary(0);
                    assert!(s.begun() >= last.begun(), "begun went backwards");
                    assert!(s.completed() >= last.completed(), "completed went backwards");
                    assert!(s.begun() >= s.completed(), "completed overtook begun");
                    last = s;
                }
            });
        })
        .unwrap();
        let end = array.block_summary(0);
        prop_assert_eq!(end.begun() as u64, writers as u64 * writes_each);
        prop_assert_eq!(end.completed(), end.begun());
    }

    /// `read_with` torn/stale properties hold on padded arrays: a
    /// single-writer register's values are observed monotonically
    /// through the array API, and the final value is the last write.
    #[test]
    fn read_with_properties_hold_on_padded_arrays(
        rounds in 1u32..1_500,
    ) {
        let array = Arc::new(RegisterArray::<u32, PackedBackend>::with_backend(2, 0));
        crossbeam::scope(|s| {
            {
                let array = Arc::clone(&array);
                s.spawn(move |_| {
                    for i in 1..=rounds {
                        array.write(0, i).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let array = Arc::clone(&array);
                s.spawn(move |_| {
                    let mut last = 0u32;
                    for _ in 0..300 {
                        let v = array.read(0).unwrap();
                        assert!(v >= last, "padded array read went backwards: {v} after {last}");
                        last = v;
                        // The untouched neighbour register must never
                        // bleed (padding or not): it stays 0.
                        assert_eq!(array.read(1).unwrap(), 0);
                    }
                });
            }
        })
        .unwrap();
        prop_assert_eq!(array.read(0).unwrap(), rounds);
        prop_assert_eq!(array.block_summary(0).generation(), rounds);
    }
}

/// Shared body for the dirty-word soundness property, generic over the
/// register backend so one strategy run covers both.
///
/// Brackets a write batch between two `block_summaries` readings and
/// checks, per block:
///
/// - **soundness** — a block whose word pair proves quiescence
///   (`no_writes_during`) had no stamp move inside the window, so a
///   retrying scanner that skips it cannot miss a write;
/// - **completeness** — every block that was actually written is
///   flagged (sequentially the flagged set is *exactly* the written
///   set; under concurrency it may only over-approximate).
fn check_dirty_word_soundness<B: RegisterBackend<u32>>(
    capacity: usize,
    writes: &[(usize, u32)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let array: RegisterArray<u32, B> = RegisterArray::with_backend(capacity, 0);
    let pre = array.block_summaries();
    let stamps_pre = array.collect_stamps();
    let mut written_blocks = std::collections::HashSet::new();
    for &(idx, v) in writes {
        let idx = idx % capacity;
        array.write(idx, v).unwrap();
        written_blocks.insert(RegisterArray::<u32, B>::block_of(idx));
    }
    let post = array.block_summaries();
    let stamps_post = array.collect_stamps();
    for b in 0..array.block_count() {
        let range = array.block_range(b);
        if WriteSummary::no_writes_during(pre[b], post[b]) {
            prop_assert_eq!(
                &stamps_pre[range.clone()],
                &stamps_post[range.clone()],
                "block {} claimed quiescence but a stamp moved",
                b
            );
            prop_assert!(
                !written_blocks.contains(&b),
                "written block {} not flagged",
                b
            );
        } else {
            prop_assert!(
                written_blocks.contains(&b),
                "block {} flagged without a write (sequential run)",
                b
            );
        }
    }
    Ok(())
}

proptest! {
    /// Dirty-word soundness across the block boundary capacities
    /// (63 = one partial block, 64 = one exact block, 65 = a full
    /// block plus a one-register tail), both backends:
    /// a clear bitmap window implies no stamp in that block moved,
    /// and every written block is flagged.
    #[test]
    fn dirty_words_are_sound_and_complete(
        size_sel in 0usize..3,
        writes in proptest::collection::vec((0usize..65, any::<u32>()), 0..60),
    ) {
        let capacity = [63usize, 64, 65][size_sel];
        check_dirty_word_soundness::<PackedBackend>(capacity, &writes)?;
        check_dirty_word_soundness::<EpochBackend>(capacity, &writes)?;
    }

    /// Block dirty words observed concurrently are monotone in both
    /// halves and, once the writers join, prove quiescence again for
    /// every block — including the partial tail block of a 65-register
    /// array.
    #[test]
    fn dirty_words_are_monotone_under_concurrency(
        writes_each in 1u64..200,
    ) {
        let array = Arc::new(RegisterArray::<u32, PackedBackend>::with_backend(65, 0));
        crossbeam::scope(|s| {
            for w in 0..2usize {
                let array = Arc::clone(&array);
                // One writer per block: register 0 (block 0) and
                // register 64 (the tail block).
                s.spawn(move |_| {
                    for i in 0..writes_each {
                        array.write(w * 64, i as u32).unwrap();
                    }
                });
            }
            let array = Arc::clone(&array);
            s.spawn(move |_| {
                let mut last = array.block_summaries();
                for _ in 0..100 {
                    let cur = array.block_summaries();
                    for (b, (prev, next)) in last.iter().zip(&cur).enumerate() {
                        assert!(next.begun() >= prev.begun(), "block {b} begun went backwards");
                        assert!(
                            next.completed() >= prev.completed(),
                            "block {b} completed went backwards"
                        );
                        assert!(next.begun() >= next.completed(), "block {b} completed overtook");
                    }
                    last = cur;
                }
            });
        })
        .unwrap();
        let quiet = array.block_summaries();
        for (b, s) in quiet.iter().enumerate() {
            prop_assert_eq!(s.begun(), s.completed(), "block {} still in flight at join", b);
            prop_assert_eq!(s.generation() as u64, writes_each, "block {} lost writes", b);
        }
        prop_assert!(WriteSummary::no_writes_during(quiet[0], array.block_summary(0)));
        prop_assert!(WriteSummary::no_writes_during(quiet[1], array.block_summary(1)));
    }
}

#[test]
fn atomic_register_readers_see_prefix_closed_history() {
    // A single writer writes 1..N in order; any reader sequence of
    // observations must be non-decreasing (reads can't go back in time
    // on a single-writer register).
    let reg = Arc::new(AtomicRegister::new(0u64));
    crossbeam::scope(|s| {
        let w = Arc::clone(&reg);
        s.spawn(move |_| {
            for v in 1..=20_000u64 {
                w.write(v);
            }
        });
        for _ in 0..4 {
            let r = Arc::clone(&reg);
            s.spawn(move |_| {
                let mut last = 0u64;
                for _ in 0..5_000 {
                    let v = r.read();
                    assert!(v >= last, "read went backwards: {v} after {last}");
                    last = v;
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn stamped_register_stamps_never_repeat_across_threads() {
    let reg = Arc::new(StampedRegister::new(0u64));
    let observed: Vec<(u64, ts_register::Stamp)> = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                s.spawn(move |_| {
                    let mut seen = Vec::new();
                    for i in 0..500u64 {
                        reg.write(t as u64 * 1000 + i);
                        let st = reg.read_stamped();
                        seen.push((st.value, st.stamp));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
    .unwrap();
    // A stamp uniquely determines the value it was written with.
    use std::collections::HashMap;
    let mut stamp_to_value: HashMap<ts_register::Stamp, u64> = HashMap::new();
    for (value, stamp) in observed {
        if let Some(&prev) = stamp_to_value.get(&stamp) {
            assert_eq!(prev, value, "one stamp, two values");
        } else {
            stamp_to_value.insert(stamp, value);
        }
    }
}
