//! Host speed: a fixed reference computation timed between operations,
//! by which the benchmark scales its end-to-end times.
//!
//! On a shared 2-vCPU VM the same single-threaded job runs 0.5 ms in one
//! second and 0.8 ms a few seconds later, in episodes of seconds to
//! minutes, while nothing else runs in the VM and steal time stays near
//! 0. A 30-second run cannot average that out: the raw median job time
//! of ten 30-second `stress_scale` runs ranged over 43% of its median.
//! The probe (sort 4096 keys, fill a 32 KiB open-addressing table, sum
//! logarithms) works only on its own buffers, allocated once and small
//! enough for the L1/L2 caches, and runs once untimed before each timed
//! run to evict what the program left in them, so no change to the
//! program alters its work. Its time tracks the host's speed at that
//! moment (correlation 0.84 with the `paper_suite` median over 2-second
//! windows). Each job's time is multiplied by `REFERENCE_MS` over the
//! median of the probes nearest it, which reads as the job's time on a
//! host that runs the probe in `REFERENCE_MS`; the same ten runs, so
//! scaled, ranged over 3.4%.
//!
//! What the scaling cannot tell apart: work the program leaves running
//! between operations (a background thread) slows the probe too, and
//! the scaling then hides part of that cost. The record keeps the raw
//! times (`raw.*`) and the probe's median (`host.probe_ms`) for that
//! case.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{percentile, Rng};

/// The probe's median time between operations on the 2-vCPU Xeon VM
/// (2.1 GHz) the baseline was measured on.
const REFERENCE_MS: f64 = 0.145;

/// The benchmark probes between operations (`serve_patch`: between
/// status polls) once this long has passed since the last probe: about
/// 40 probes a second on `paper_suite` (about 1% of the time, the
/// untimed runs included), one per job on `stress_scale`.
const EVERY_S: f64 = 0.025;

/// Probes on each side of a time that set its scale.
pub const NEAREST: usize = 8;

pub struct Probe {
    keys: Vec<u64>,
    table: Vec<u32>,
    /// (seconds since `start`, probe milliseconds), in time order.
    samples: Vec<(f64, f64)>,
    start: Instant,
}

impl Probe {
    /// Allocates the buffers and runs the probe once untimed, so no
    /// sample pays a first touch.
    pub fn new() -> Probe {
        let mut probe = Probe {
            keys: vec![0; 4096],
            table: vec![0; 8192],
            samples: Vec::new(),
            start: Instant::now(),
        };
        probe.work();
        probe
    }

    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `instant` in seconds since the probe's start.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Runs and records one probe if `EVERY_S` has passed since the last.
    pub fn maybe_sample(&mut self) {
        match self.samples.last() {
            Some(&(t, _)) if self.now_s() - t < EVERY_S => {}
            _ => self.sample(),
        }
    }

    /// Runs the probe untimed, then timed, and records the timed run.
    pub fn sample(&mut self) {
        self.work();
        let t = Instant::now();
        self.work();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let at = self.now_s();
        self.samples.push((at, ms));
    }

    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    fn work(&mut self) {
        let mut rng = Rng::new(7);
        for k in &mut self.keys {
            *k = rng.next_u64();
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut acc = 0.0f64;
        for (i, &k) in self.keys.iter().enumerate() {
            let mut slot = (k >> 40) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = i as u32 + 1;
            acc += ((k >> 11) as f64 + 1.0).ln();
        }
        black_box(acc);
        black_box(&self.table);
    }

    /// The factor that scales a time measured at `at` (seconds since
    /// start) to the reference host: `REFERENCE_MS` over the median of
    /// the `NEAREST` probes on each side. 1 when nothing was probed.
    pub fn scale_at(&self, at: f64) -> f64 {
        let i = self.samples.partition_point(|&(t, _)| t < at);
        let near: Vec<f64> = self.samples
            [i.saturating_sub(NEAREST)..(i + NEAREST).min(self.samples.len())]
            .iter()
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            1.0
        } else {
            REFERENCE_MS / percentile(&near, 50.0)
        }
    }

    /// Median probe time over the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        percentile(&all, 50.0)
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }
}
