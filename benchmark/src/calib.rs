//! Machine-speed calibration.
//!
//! The sandbox this benchmark runs in changes speed under it: each vCPU
//! flips between two modes about 25 % apart, for seconds to minutes at a
//! time, and a pure integer loop slows by the same factor as the jobs do.
//! Unscaled, ten runs of one commit spread by 15–20 %. So a fixed loop is
//! timed next to every round, and every reported time is multiplied by
//! `REFERENCE_S / measured loop time`: times read as they would on a
//! machine where the loop takes [`REFERENCE_S`]. The factor is reported
//! (`bench.machine_speed`), and the unscaled medians are printed beside
//! the metrics.

use std::time::Instant;

/// Iterations of the calibration loop.
const ITERATIONS: u64 = 100_000;
/// What the loop takes on the reference machine (2 ns per iteration, the
/// sandbox's faster mode to within a few percent).
pub const REFERENCE_S: f64 = 200e-6;

fn spin() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..ITERATIONS {
        // One dependent multiply-add-xorshift per iteration: the time is
        // set by the core's clock, not by memory.
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Seconds the calibration loop takes right now: the quickest of three
/// back-to-back passes, so that one preemption does not read as a slow
/// machine.
pub fn sample() -> f64 {
    spin().min(spin()).min(spin())
}

/// The factor that scales a time measured between two calibration samples
/// to the reference machine.
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
