//! Host-speed reference: converts wall seconds into reference-host
//! seconds.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by 20–45% over minutes as neighbours come and go; a run of tens of
//! seconds cannot average that out, so without a correction the spread
//! between runs measures the neighbours rather than the program. So
//! train-paper and serve-burst also time a fixed reference loop, owned by
//! the benchmark, at points spread over the run (before the set-ups, and
//! before each fit or window) while the program under test is idle.
//! deal-stream does not: its figures, mostly waits on publishes and on
//! other threads, did not follow the reference. The run's end-to-end
//! times are multiplied by `REFERENCE_S / median sample`, and its rates
//! divided by it: the figures read as they would on a host that runs the
//! reference in `REFERENCE_S`. A change to the program moves them exactly as much as
//! it moves the wall-clock figures; a slow stretch of the host slows the
//! reference too and is divided out.
//!
//! The loop is a chain of multiply-adds over two 1 MiB arrays that stay
//! in the core's cache. Loops that stream a buffer larger than the core's
//! cache tracked the host no better and varied from one process to the
//! next with where their pages landed, which added noise of their own.

use crate::stats::median;
use std::time::Instant;

/// A sample's time on a quiet moment of a 2-vCPU x86-64 container: the
/// unit the scaled times are expressed in.
pub const REFERENCE_S: f64 = 1.5e-3;
/// `f32` elements in each of the two arrays (1 MiB each).
const LEN: usize = 1 << 18;
/// Dot products per timing.
const ROUNDS: usize = 8;
/// Timings per sample; the sample is their median.
const TIMINGS: usize = 15;

pub struct HostSpeed {
    a: Vec<f32>,
    b: Vec<f32>,
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            a: (0..LEN).map(|i| (i % 97) as f32 * 0.01).collect(),
            b: (0..LEN).map(|i| (i % 89) as f32 * 0.02).collect(),
            samples: Vec::new(),
        }
    }

    fn timing(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..ROUNDS {
            let a = std::hint::black_box(&self.a);
            acc += a.iter().zip(&self.b).map(|(x, y)| x * y).sum::<f32>();
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Times the reference now. Call it while the program under test is
    /// idle.
    pub fn sample(&mut self) {
        let timings: Vec<f64> = (0..TIMINGS).map(|_| self.timing()).collect();
        self.samples.extend(median(&timings));
    }

    /// Median over the run's samples; `None` if the reference was never
    /// timed.
    pub fn median_s(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// The factor that turns this run's wall seconds into reference-host
    /// seconds (1 if the reference was never timed).
    pub fn scale(&self) -> f64 {
        self.median_s().map_or(1.0, |m| REFERENCE_S / m)
    }
}

/// `value`, measured in `unit`, in reference-host terms: seconds are
/// multiplied by `scale`, rates per second divided by it, other units
/// kept.
pub fn to_reference(value: f64, unit: &str, scale: f64) -> f64 {
    match unit {
        "s" => value * scale,
        "1/s" => value / scale,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_before_any_sample_and_positive_after() {
        let mut host = HostSpeed::new();
        assert_eq!(host.scale(), 1.0);
        assert_eq!(host.median_s(), None);
        host.sample();
        host.sample();
        assert_eq!(host.samples.len(), 2);
        assert!(host.scale().is_finite() && host.scale() > 0.0);
        assert!(host.median_s().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn times_scale_up_rates_scale_down_and_other_units_stay() {
        assert_eq!(to_reference(2.0, "s", 1.5), 3.0);
        assert_eq!(to_reference(3.0, "1/s", 1.5), 2.0);
        assert_eq!(to_reference(0.4, "ratio", 1.5), 0.4);
        assert_eq!(to_reference(40.0, "MiB", 1.5), 40.0);
    }
}
