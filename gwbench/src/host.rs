//! The host-speed reference: a fixed loop that belongs to the benchmark,
//! not to the gateway, timed between the forwarding phases on the same
//! CPUs, so that every time figure can be scaled to one nominal host
//! speed.
//!
//! On a shared host the speed of the same code drifts by up to 1.3x for
//! minutes at a time, and no estimator over one run can tell such a
//! stretch apart from slower code. The loop slows with it: dependent
//! random reads over a table the size of a core's private cache, as the
//! gateway's fast path does with its flow cache. No change to the
//! gateway can change the loop, so dividing by its speed removes the
//! host's drift and keeps every change to the gateway.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::mean_of_top;
use crate::QUICK_SHARE;

/// The nominal host speed figures are scaled to, loop steps per
/// microsecond: about what the loop reaches on a quiet 2-vCPU Xeon KVM
/// guest, so scaled figures read close to raw ones there.
pub const NOMINAL_STEPS_PER_US: f64 = 160.0;

/// Loop steps per sample (about 0.7 ms at the nominal speed).
const STEPS: usize = 1 << 16;

/// The reference loop and its timed samples.
pub struct HostSpeed {
    /// 256 KiB of fixed pseudo-random words.
    table: Vec<u64>,
    x: u64,
    /// Steps per microsecond of each timed sample.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Builds the loop's table.
    pub fn new() -> HostSpeed {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..1 << 15).map(|_| xorshift(&mut x)).collect();
        HostSpeed {
            table,
            x: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    fn walk(&mut self, steps: usize) -> u64 {
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for _ in 0..steps {
            let i = (xorshift(&mut self.x) ^ acc) as usize & mask;
            acc = acc.wrapping_add(self.table[i]).rotate_left(5);
        }
        acc
    }

    /// Takes `n` timed samples on the calling thread's CPU, after one
    /// untimed pass that brings the table back into cache.
    pub fn sample(&mut self, n: usize) {
        black_box(self.walk(self.table.len()));
        for _ in 0..n {
            let t = Instant::now();
            black_box(self.walk(STEPS));
            let ns = t.elapsed().as_nanos().max(1) as f64;
            self.samples.push(STEPS as f64 / ns * 1e3);
        }
    }

    /// Host speed over the run, steps per microsecond: the mean over the
    /// quickest [`QUICK_SHARE`] of the samples, the same estimator as the
    /// figures it scales. NaN before any sample.
    pub fn steps_per_us(&self) -> f64 {
        mean_of_top(&self.samples, QUICK_SHARE)
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
