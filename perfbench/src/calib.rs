//! Host-speed reference: a fixed kernel that lives in this binary, so no
//! change to the simulator can change its cost.
//!
//! The host the benchmark targets shares its cores with other tenants,
//! and the same rep's wall time drifts by up to 2× over tens of seconds
//! as their load comes and goes. The kernel is timed between reps; each
//! rep's host times are scaled by how much slower than nominal the kernel
//! ran right before and right after it. What remains is the simulator's
//! own cost in seconds of a host running at the reference speed.
//!
//! The kernel builds an ordered map of small heap vectors under random
//! keys, popping the smallest entry every third step, then drops it:
//! allocation, pointer chasing and short data-dependent loops, the mix
//! the simulator's event loop and per-invocation bookkeeping run on. Of
//! the kernels tried (random walks over 32 KiB, 1 MiB and 8 MiB tables,
//! the same map kept at a steady size across measurements, and this one),
//! its slowdowns tracked the simulator's best.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Map operations in one measurement.
const STEPS: u64 = 160_000;
/// Distinct keys.
const KEYS: u64 = 4096;

/// Wall seconds one measurement takes on the reference host, a 2-vCPU
/// 2.1 GHz Xeon VM, when its neighbours are quiet. Calibrated times are
/// in seconds of that host.
const NOMINAL_S: f64 = 0.022;

/// How many times slower than nominal the kernel runs now, on the
/// calling thread.
///
/// It runs on one thread even for a rep that fans out over both vCPUs.
/// Timed on both at once, the kernel mostly measured the two threads
/// contending with each other: over two ten-seed sets of
/// `paper-protocol` runs, set-up times calibrated that way drifted by
/// 17% while those of the single-threaded workloads held within 3%.
pub fn slowdown() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() / NOMINAL_S
}

/// One run of the kernel.
fn kernel() -> (u64, BTreeMap<u64, Vec<u64>>) {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v: Vec<u64> = (0..(x & 63) + 1).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
        map.insert(x % KEYS, v);
        if i % 3 == 0 {
            if let Some((_, v)) = map.pop_first() {
                acc ^= v.len() as u64;
            }
        }
    }
    (acc, map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_factor() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
