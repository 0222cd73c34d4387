//! Property and stress tests for the register substrate.

use std::sync::Arc;

use proptest::prelude::*;
use ts_register::{
    AtomicRegister, PackedBackend, PackedRegister, Register, RegisterArray, SpaceMeter,
    StampedRegister, WordRegister,
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
