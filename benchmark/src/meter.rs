//! Timing one pass: wall time per operation, with calibration-kernel samples
//! taken beside the work, plus the small statistics the report needs.

use std::time::Instant;

use crate::calib;

/// Measured work between two kernel samples, in milliseconds. Kernel time is
/// about a fifth of this, so calibration costs under 25 % of a run.
const KERNEL_EVERY_MS: f64 = 100.0;

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct PassRecord {
    /// Wall milliseconds of each operation, in the workload's fixed order.
    pub op_ms: Vec<f64>,
    /// Kernel samples taken during the pass, in milliseconds.
    pub kernel_ms: Vec<f64>,
    /// Round-trip microseconds of each hot request (`serve_corpus` only).
    pub hot_us: Vec<f32>,
    /// Hot requests are attempts too, but not operations with a row each.
    pub hot_attempted: u64,
    /// One line per failed operation or failed check, naming it.
    pub failures: Vec<String>,
}

impl PassRecord {
    /// The pass's speed stamp: the median kernel time measured during it.
    pub fn stamp_ms(&self) -> f64 {
        median(&self.kernel_ms)
    }

    /// Wall seconds of the operations, kernel time and hot requests excluded.
    pub fn wall_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    pub fn cal_s(&self) -> f64 {
        calib::calibrated(self.wall_s(), self.stamp_ms())
    }

    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64 + self.hot_attempted
    }
}

/// Times the operations of one pass. The kernel runs at the start of the
/// pass, again whenever [`KERNEL_EVERY_MS`] of measured work has gone by, and
/// immediately before an operation that took that long by itself the last
/// time it ran. Kernel time is never part of what it calibrates.
pub struct Meter {
    /// Wall milliseconds of each operation the last time it ran.
    previous: Vec<f64>,
    since_kernel_ms: f64,
    pub record: PassRecord,
}

impl Meter {
    pub fn new(previous: Vec<f64>) -> Meter {
        let mut meter = Meter {
            previous,
            since_kernel_ms: 0.0,
            record: PassRecord::default(),
        };
        meter.sample();
        meter
    }

    fn sample(&mut self) {
        self.record.kernel_ms.push(calib::kernel_ms());
        self.since_kernel_ms = 0.0;
    }

    fn sample_if_due(&mut self, expected_ms: f64) {
        let long = expected_ms >= KERNEL_EVERY_MS && self.since_kernel_ms > 0.0;
        if long || self.since_kernel_ms >= KERNEL_EVERY_MS {
            self.sample();
        }
    }

    /// Time the next operation of the pass.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let index = self.record.op_ms.len();
        self.sample_if_due(self.previous.get(index).copied().unwrap_or(0.0));
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.since_kernel_ms += ms;
        self.record.op_ms.push(ms);
        out
    }

    /// Time one hot request of a batch. The kernel runs between batches. Hot
    /// round trips are kept apart from the operations: see `ServeCorpus`.
    pub fn hot<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.since_kernel_ms += us / 1e3;
        self.record.hot_us.push(us as f32);
        out
    }

    pub fn between_batches(&mut self) {
        self.sample_if_due(0.0);
    }

    pub fn fail(&mut self, what: String) {
        self.record.failures.push(what);
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear interpolation between the two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// The quantile over passes that stands for an operation's latency: the lower
/// quartile. On a shared machine interference only ever adds time, in bursts
/// that hit some operations of some passes; when more than a quarter but less
/// than half of the samples are hit, the median moves and the lower quartile
/// does not. Over ten runs of each workload on a noisy day the lower quartile
/// spread by 1.3 to 3.0 % (interquartile, of the geometric mean), the median
/// by 2.6 to 6.9 %, the minimum by 2.1 to 5.6 %.
pub const LATENCY_QUANTILE: f64 = 0.25;

/// Each operation's latency: the [`LATENCY_QUANTILE`] over passes of its
/// calibrated milliseconds.
pub fn op_latencies_cal_ms(passes: &[PassRecord]) -> Vec<f64> {
    let ops = passes.first().map_or(0, |p| p.op_ms.len());
    (0..ops)
        .map(|i| {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|p| calib::calibrated(p.op_ms[i], p.stamp_ms()))
                .collect();
            quantile(&per_pass, LATENCY_QUANTILE)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_time_is_not_measured_work() {
        let mut meter = Meter::new(vec![0.0, 500.0]);
        meter.op(|| ());
        meter.op(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        let record = meter.record;
        assert_eq!(record.op_ms.len(), 2);
        assert_eq!(
            record.kernel_ms.len(),
            2,
            "one at the start, one before the long op"
        );
        assert!(record.wall_s() < 0.010, "{}", record.wall_s());
    }
}
