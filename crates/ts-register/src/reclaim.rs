//! Reclamation hooks for workloads with thread churn.
//!
//! The epoch backend defers frees until no pinned thread can still hold
//! the old cell; reclamation is amortized over future pins, and garbage
//! owned by an *exited* thread is handed to a global orphan stack for
//! surviving threads to adopt. Under heavy thread churn (workers joining
//! and leaving mid-run, as in the `ts-workloads` churn scenarios) a
//! supervisor should periodically call [`flush`] so orphaned bags are
//! adopted and freed promptly instead of waiting for the next incidental
//! pin. [`pin`] lets a multi-access operation pay for one pin instead
//! of one per access.
//!
//! These functions are no-ops in effect for purely packed-backend
//! workloads (nothing is ever deferred there), so callers can invoke
//! them unconditionally.

/// Pins the calling thread in the epoch backend until the guard drops.
///
/// Every epoch-register access pins for its own duration; that pin
/// costs a `SeqCst` fence and, every 64 pins, a reclamation pass. A
/// caller making several accesses in a row can hold one guard across
/// them: the nested pins inside those accesses then only bump a
/// thread-local count. Holding the guard delays reclamation of cells
/// retired meanwhile, so hold it for one operation, not for a loop.
pub fn pin() -> crossbeam_epoch::Guard {
    crossbeam_epoch::pin()
}

/// Seals the calling thread's garbage bag, attempts one epoch advance,
/// and reclaims everything already two epochs behind — including bags
/// orphaned by exited threads.
///
/// One call advances the epoch by at most one; [`drain`] loops until the
/// gauge stops improving.
pub fn flush() {
    crossbeam_epoch::flush();
}

/// Cells currently deferred but not yet reclaimed, process-wide (a
/// momentary snapshot of the epoch backend's garbage gauge).
///
/// Churn/leak tests assert this does **not** grow monotonically across
/// worker generations; see `ts-workloads`' churn reclamation stress.
pub fn deferred_outstanding() -> usize {
    crossbeam_epoch::deferred_outstanding()
}

/// Flushes repeatedly (up to `max_rounds`) until the deferred-garbage
/// gauge stops decreasing, then returns the remaining outstanding count.
///
/// A freshly sealed bag expires only once the global epoch has advanced
/// **twice** past its seal tag, and each flush advances the epoch by at
/// most one — so the gauge legitimately stays flat for a couple of
/// rounds before the first free. The loop therefore tolerates a few
/// consecutive no-progress rounds before concluding it is done.
///
/// With no concurrently pinned threads this drains everything the
/// calling thread can legally reclaim; concurrent pinners can keep a
/// bounded remainder alive (the two-epochs-behind rule), which is why
/// the remainder is returned instead of asserted here.
pub fn drain(max_rounds: usize) -> usize {
    let mut outstanding = deferred_outstanding();
    let mut flat_rounds = 0;
    for _ in 0..max_rounds {
        flush();
        let now = deferred_outstanding();
        if now < outstanding {
            flat_rounds = 0;
        } else {
            flat_rounds += 1;
            // Seal + two advances = up to three flushes with no visible
            // progress; one extra round of headroom.
            if flat_rounds >= 4 {
                return now;
            }
        }
        outstanding = now;
    }
    outstanding
}

#[cfg(test)]
mod tests {
    use crate::AtomicRegister;

    #[test]
    fn drain_reclaims_this_threads_writes() {
        let baseline = super::deferred_outstanding();
        let reg = AtomicRegister::new(0u64);
        for i in 0..500 {
            reg.write(i);
        }
        // 500 old cells were deferred by this thread; drain must
        // actually free them, not merely avoid making things worse.
        // Other unit tests run concurrently and may park a small
        // unsealed bag (< 64 cells) per idle thread or transiently pin
        // (stalling the epoch), so allow slack and retry rather than
        // asserting one call's outcome.
        let slack = 256;
        let mut after = super::drain(10_000);
        for _ in 0..1_000 {
            if after <= baseline + slack {
                break;
            }
            std::thread::yield_now();
            after = super::drain(10_000);
        }
        assert!(
            after <= baseline + slack,
            "drain left {after} cells outstanding (baseline {baseline}): \
             our 500 deferred cells were not reclaimed"
        );
    }

    #[test]
    fn accesses_under_a_held_pin_read_their_own_writes() {
        let reg = AtomicRegister::new(0u64);
        let _pin = super::pin();
        for i in 1..=100 {
            reg.write(i);
            assert_eq!(reg.read_with(|v| *v), i);
        }
    }

    #[test]
    fn flush_is_callable_without_any_epoch_traffic() {
        // Packed-only workloads call the hooks unconditionally.
        super::flush();
        let _ = super::deferred_outstanding();
    }
}
