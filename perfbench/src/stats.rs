//! Percentiles as the benchmark reports them.
//!
//! A timing is a median plus one higher percentile, each with its sample
//! count. A percentile is refused unless at least [`MIN_BEYOND`] samples
//! lie beyond it, so a p90 needs at least 100 samples. A failed request
//! enters as a miss: it ranks above every measured value, so a
//! percentile that lands on it reads as missing any limit.

use std::fmt;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A set of samples, sorted ascending, misses last.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    values: Vec<f64>,
    misses: usize,
    sorted: bool,
}

/// A percentile the samples cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    /// The requested percentile (0–100).
    pub p: f64,
    /// How many samples the set holds.
    pub count: usize,
    /// How many lie beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} of {} samples lie beyond it (need {MIN_BEYOND})",
            self.p, self.beyond, self.count
        )
    }
}

impl Dist {
    /// An empty set.
    pub fn new() -> Dist {
        Dist::default()
    }

    /// Adds a measured value.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "samples must be finite; use miss()");
        self.values.push(v);
        self.sorted = false;
    }

    /// Adds a failed request: a sample above every limit.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Samples held, misses included.
    pub fn count(&self) -> usize {
        self.values.len() + self.misses
    }

    /// The nearest-rank `p`-th percentile (0 < p < 100). `Ok(None)` is a
    /// miss: the rank falls on a failed request.
    pub fn percentile(&mut self, p: f64) -> Result<Option<f64>, Refused> {
        let rank = self.rank(p)?;
        Ok(self.values.get(rank - 1).copied())
    }

    /// Like [`percentile`](Self::percentile) for samples that are whole
    /// multiples of `quantum` (millisecond timestamps, say): the value is
    /// interpolated within its quantum from how many samples share it,
    /// the grouped-data estimate of the underlying continuous percentile.
    pub fn percentile_quantized(&mut self, p: f64, quantum: f64) -> Result<Option<f64>, Refused> {
        let rank = self.rank(p)?;
        let Some(&v) = self.values.get(rank - 1) else {
            return Ok(None);
        };
        let below = self.values.partition_point(|&x| x < v);
        let equal = self.values[below..].partition_point(|&x| x <= v);
        let target = p / 100.0 * self.count() as f64;
        let within = ((target - below as f64) / equal as f64).clamp(0.0, 1.0);
        Ok(Some(v - quantum / 2.0 + quantum * within))
    }

    /// The arithmetic mean; infinite if any sample is a miss.
    pub fn mean(&self) -> f64 {
        if self.misses > 0 {
            return f64::INFINITY;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn rank(&mut self, p: f64) -> Result<usize, Refused> {
        assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let count = self.count();
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as usize;
        let beyond = count.saturating_sub(rank);
        if beyond < MIN_BEYOND {
            return Err(Refused { p, count, beyond });
        }
        Ok(rank)
    }
}

/// The median of a few repeated measurements (set-up times, whole-run
/// rates), where a percentile with samples beyond it does not apply.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(values: impl IntoIterator<Item = f64>) -> Dist {
        let mut d = Dist::new();
        for v in values {
            d.push(v);
        }
        d
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let mut d = dist((1..=100).map(f64::from));
        assert_eq!(d.count(), 100);
        assert_eq!(d.percentile(50.0), Ok(Some(50.0)));
        assert_eq!(d.percentile(90.0), Ok(Some(90.0)));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut d = dist((1..=100).rev().map(f64::from));
        assert_eq!(d.percentile(90.0), Ok(Some(90.0)));
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        let mut d = dist((1..=99).map(f64::from));
        assert_eq!(
            d.percentile(90.0),
            Err(Refused {
                p: 90.0,
                count: 99,
                beyond: 9
            })
        );
        assert!(d.percentile(50.0).is_ok());
        let mut small = dist((1..=19).map(f64::from));
        assert!(small.percentile(50.0).is_err());
        let mut twenty = dist((1..=20).map(f64::from));
        assert_eq!(twenty.percentile(50.0), Ok(Some(10.0)));
    }

    #[test]
    fn misses_count_and_rank_above_every_value() {
        // 80 good samples and 20 failures: the failures are not dropped,
        // so p90 lands on a miss and p50 is the 50th sample overall.
        let mut d = dist((1..=80).map(f64::from));
        for _ in 0..20 {
            d.miss();
        }
        assert_eq!(d.count(), 100);
        assert_eq!(d.percentile(90.0), Ok(None));
        assert_eq!(d.percentile(50.0), Ok(Some(50.0)));
        assert_eq!(d.mean(), f64::INFINITY);
        assert_eq!(dist((1..=80).map(f64::from)).mean(), 40.5);
    }

    #[test]
    fn quantized_percentile_interpolates_within_the_quantum() {
        // 100 samples: 30 read 3 ms, 40 read 4 ms, 30 read 5 ms. The
        // median falls 20 samples into the 40 at 4 ms: 3.5 + 20/40.
        let mut d = dist(
            std::iter::repeat_n(3.0, 30)
                .chain(std::iter::repeat_n(4.0, 40))
                .chain(std::iter::repeat_n(5.0, 30)),
        );
        assert_eq!(d.percentile(50.0), Ok(Some(4.0)));
        assert_eq!(d.percentile_quantized(50.0, 1.0), Ok(Some(4.0)));
        assert_eq!(
            d.percentile_quantized(90.0, 1.0),
            Ok(Some(5.0 - 0.5 + 20.0 / 30.0))
        );
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
