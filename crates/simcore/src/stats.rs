//! Statistics helpers: bandwidth-over-time sampling and online moment
//! accumulation.

use crate::time::{Dur, Time};

/// Byte counts bucketed by virtual time: bandwidth-over-time sampling
/// (e.g. watching a TCP slow-start ramp).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: Dur,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// A series with the given bucket width.
    pub fn new(bucket: Dur) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Record `bytes` arriving at `now`.
    pub fn record(&mut self, now: Time, bytes: u64) {
        let idx = (now.as_ns() / self.bucket.as_ns()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// Bucket width.
    pub fn bucket(&self) -> Dur {
        self.bucket
    }

    /// `(bucket start time, MB/s within the bucket)` for every bucket.
    pub fn points(&self) -> Vec<(Time, f64)> {
        let secs = self.bucket.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                (
                    Time::from_ns(i as u64 * self.bucket.as_ns()),
                    b as f64 / secs / 1e6,
                )
            })
            .collect()
    }

    /// Total bytes recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Welford online mean/variance accumulator for scalar samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_buckets_bandwidth() {
        let mut ts = TimeSeries::new(Dur::from_ms(1));
        ts.record(Time::from_us(100), 1000);
        ts.record(Time::from_us(900), 2000);
        ts.record(Time::from_us(1500), 500);
        let pts = ts.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, Time::ZERO);
        assert!((pts[0].1 - 3.0).abs() < 1e-9); // 3000 B/ms = 3 MB/s
        assert!((pts[1].1 - 0.5).abs() < 1e-9);
        assert_eq!(ts.total(), 3500);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn time_series_rejects_zero_bucket() {
        TimeSeries::new(Dur::ZERO);
    }

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }
}
