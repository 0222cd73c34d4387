//! Small helpers: the seeded input generator, order statistics, a
//! two-party spin barrier and the peak-RSS probe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness. Every input
/// (op mixes, session picks, fault-plan seeds, crash schedules) is drawn
/// from a stream seeded by `--seed`, so one seed reproduces one input.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, salt...)`: distinct salts give independent
    /// streams for each workload, client and window.
    pub fn new(seed: u64, salt: &[u64]) -> Self {
        let mut s = Self(seed ^ 0x5EED_0F71_357A_3F00);
        for &x in salt {
            s.0 ^= s
                .next_u64()
                .wrapping_add(x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile (0..=1) of `sorted`, linearly interpolated between
/// neighbouring order statistics; `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of unsorted integer samples (sorts in place).
pub fn quantile_u32(samples: &mut [u32], q: f64) -> f64 {
    samples.sort_unstable();
    let as_f: Vec<f64> = samples.iter().map(|&v| f64::from(v)).collect();
    quantile_sorted(&as_f, q)
}

/// Median of `values` (`NaN` if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// A reusable barrier for two threads that spins briefly and then
/// yields, so a round boundary costs a few hundred nanoseconds instead of
/// a futex sleep and wake-up.
#[derive(Debug, Default)]
pub struct SpinBarrier {
    arrived: AtomicU64,
}

impl SpinBarrier {
    /// Blocks until both parties have called `wait` for the same
    /// generation. Each party counts its own calls in `generation`.
    pub fn wait(&self, generation: &mut u64) {
        self.wait_or_stop(generation, &AtomicBool::new(false));
    }

    /// `wait`, but returns early once `stop` is set, since a peer that
    /// saw `stop` first may never arrive.
    pub fn wait_or_stop(&self, generation: &mut u64, stop: &AtomicBool) {
        *generation += 1;
        let target = *generation * 2;
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < target && !stop.load(Ordering::Relaxed) {
            spins += 1;
            if spins < 2_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Pins the calling thread to the `k`-th CPU this process may use
/// (wrapping), and says whether that worked.
///
/// Unpinned, the scheduler sometimes runs both clients on one CPU: a
/// closed loop whose calls block on a lock then runs 2.5x faster,
/// because the clients never contend. Pinning keeps every window in the
/// two-CPU shape the workloads describe. Only x86-64 Linux pins; the
/// standard library has no affinity call, so this issues the syscalls.
pub fn pin_to_cpu(k: usize) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SCHED_SETAFFINITY: usize = 203;
        const SCHED_GETAFFINITY: usize = 204;
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: sched_getaffinity(0, bytes, ptr) writes at most
        // `bytes` bytes to `ptr`, which points at `allowed`, a live,
        // exclusively borrowed buffer of exactly that size.
        let got = unsafe { syscall3(SCHED_GETAFFINITY, 0, bytes, allowed.as_mut_ptr() as usize) };
        if got <= 0 {
            return false;
        }
        let cpus: Vec<usize> = (0..bytes * 8)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return false;
        }
        let cpu = cpus[k % cpus.len()];
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: sched_setaffinity(0, bytes, ptr) only reads `bytes`
        // bytes from `ptr`, which points at `one`, a live buffer of
        // exactly that size.
        unsafe { syscall3(SCHED_SETAFFINITY, 0, bytes, one.as_ptr() as usize) == 0 }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = k;
        false
    }
}

/// A raw three-argument Linux syscall.
///
/// # Safety
///
/// The arguments must satisfy the kernel's contract for syscall `n`; in
/// particular every pointer argument must be valid for the access the
/// syscall makes through it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(n: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the caller upholds the syscall's contract; the kernel
    // clobbers only rcx and r11 besides the rax return value.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nanoseconds since `epoch`, saturated into a `u64`.
pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds of `d`, clamped into a `u32` sample.
pub fn sample_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_separate_streams() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(7, &[1, 2]);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(7, &[1, 2]);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(7, &[1, 3]);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn spin_barrier_releases_both_parties_each_generation() {
        let barrier = SpinBarrier::default();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut generation = 0;
                    for round in 1..=100u64 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(&mut generation);
                        assert!(counter.load(Ordering::SeqCst) >= 2 * round);
                        barrier.wait(&mut generation);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn spin_barrier_releases_a_lone_party_once_stopped() {
        let barrier = SpinBarrier::default();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| barrier.wait_or_stop(&mut 0, &stop));
            std::thread::sleep(Duration::from_millis(10));
            stop.store(true, Ordering::Relaxed);
        });
    }
}
