//! Results of one amplification run.

use serde::{Deserialize, Serialize};

use p2ps_core::Bandwidth;
use p2ps_metrics::{eng, Table, TimeSeries};

use crate::HOUR;

/// Width of one Fig. 7 averaging window, in hours.
pub(crate) const FAVORED_WINDOW_HOURS: u32 = 3;

/// Sub-buckets per power of two in the waiting-time histogram: bucket
/// widths stay within 1/16 of the values they hold.
const WAIT_SUB_BITS: u32 = 4;
const WAIT_SUB: usize = 1 << WAIT_SUB_BITS;

/// Buckets in one class's waiting-time histogram: exact below
/// [`WAIT_SUB`] seconds, then [`WAIT_SUB`] log-linear buckets per power
/// of two up to `u32::MAX`.
pub(crate) const WAIT_BUCKETS: usize = WAIT_SUB + (32 - WAIT_SUB_BITS as usize) * WAIT_SUB;

/// The waiting-time histogram bucket holding `secs`.
#[inline]
pub(crate) fn wait_bucket(secs: u32) -> usize {
    if (secs as usize) < WAIT_SUB {
        return secs as usize;
    }
    let octave = 31 - secs.leading_zeros() - WAIT_SUB_BITS;
    let sub = (secs >> octave) as usize & (WAIT_SUB - 1);
    WAIT_SUB + octave as usize * WAIT_SUB + sub
}

/// The `[low, high]` seconds range of waiting-time bucket `b`.
fn wait_bucket_range(b: usize) -> (u64, u64) {
    if b < WAIT_SUB {
        return (b as u64, b as u64);
    }
    let octave = ((b - WAIT_SUB) / WAIT_SUB) as u32;
    let sub = ((b - WAIT_SUB) % WAIT_SUB) as u64;
    let low = (WAIT_SUB as u64 + sub) << octave;
    (low, low + (1u64 << octave) - 1)
}

/// One [`TimeSeries`] per peer class (index 0 = class 1), used for every
/// per-class figure in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSeries {
    series: Vec<TimeSeries>,
}

impl ClassSeries {
    fn new(prefix: &str, num_classes: usize) -> Self {
        ClassSeries {
            series: (1..=num_classes)
                .map(|k| TimeSeries::new(format!("{prefix}-class-{k}")))
                .collect(),
        }
    }

    /// Number of classes covered.
    pub fn num_classes(&self) -> u8 {
        self.series.len() as u8
    }

    /// The series of class `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the class count.
    pub fn class(&self, k: u8) -> &TimeSeries {
        &self.series[(k - 1) as usize]
    }

    /// Iterates over `(class_number, series)`.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &TimeSeries)> + '_ {
        self.series
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u8 + 1, s))
    }

    fn push(&mut self, k: usize, t: f64, v: f64) {
        self.series[k - 1].push(t, v);
    }
}

/// Per-class totals of one run, over requesting peers of that class.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassTotals {
    /// First streaming requests issued.
    pub first_requests: u64,
    /// Peers admitted.
    pub admits: u64,
    /// Rejections the admitted peers suffered before admission (the
    /// numerator of Table 1).
    pub rejections_before_admission: u64,
    /// Sum over admitted peers of the Fig. 6 buffering delay in slots of
    /// `δt`: the number of granted suppliers, which Theorem 1 makes the
    /// `OTSp2p` optimum.
    pub delay_slots: u64,
    /// Sum over admitted peers of the time from first request to
    /// admission, in seconds.
    pub waiting_secs: u64,
    /// Waiting times as integer bucket counts: exact below 16 s, then
    /// 16 log-linear buckets per power of two.
    pub waiting_hist: Vec<u64>,
}

/// Cumulative counters at one hour mark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourSample {
    /// Virtual time of the sample, in seconds.
    pub t_secs: u32,
    /// Serving capacity in `R0/2^16` fixed-point units.
    pub capacity_raw: i64,
    /// First requests so far, per class.
    pub first_requests: Vec<u64>,
    /// Admissions so far, per class.
    pub admits: Vec<u64>,
    /// Buffering-delay slots of those admissions, per class.
    pub delay_slots: Vec<u64>,
}

/// One Fig. 7 window: the hourly samples of each supplier's lowest
/// favored class, summed per supplier class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FavoredWindow {
    /// Sum of the sampled lowest favored classes, per supplier class.
    pub sums: Vec<u64>,
    /// Number of samples, per supplier class.
    pub counts: Vec<u64>,
}

/// The first time serving capacity reached `factor ×` the seed
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldCrossing {
    /// Power-of-two amplification factor (2, 4, 8, …).
    pub factor: u64,
    /// Virtual time of the first epoch boundary at or past the
    /// crossing, in seconds.
    pub at_secs: u32,
}

/// Everything one [`super::AmpEngine`] run measures: exact integer
/// counters, the capacity-evolution and rejection-rate curves, the
/// time-to-N-fold crossings, and the FNV-1a trace digest that pins the
/// run bit-for-bit across shard and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmpReport {
    /// Total population (seeds + requesters).
    pub peers: u32,
    /// Seed suppliers at `t = 0`.
    pub seeds: u32,
    /// Logical shard count of the run.
    pub shards: u32,
    /// Worker threads actually used.
    pub threads: usize,
    /// The run's seed.
    pub seed: u64,
    /// Events processed (local events + protocol messages).
    pub events: u64,
    /// Admission attempts issued.
    pub attempts: u64,
    /// Attempts that secured exactly `R0`.
    pub admits: u64,
    /// Attempts that failed and backed off.
    pub rejects: u64,
    /// Peers that finished streaming and became suppliers.
    pub supplies: u64,
    /// Suppliers that departed (churn).
    pub departures: u64,
    /// Seed serving capacity in `R0/2^16` fixed-point units.
    pub initial_capacity_raw: i64,
    /// Final serving capacity in the same units.
    pub final_capacity_raw: i64,
    /// First crossing times of each power-of-two amplification factor.
    pub fold_crossings: Vec<FoldCrossing>,
    /// `(t_secs, capacity_raw)` samples of the capacity evolution.
    pub capacity_curve: Vec<(u32, i64)>,
    /// `(t_secs, attempts, rejects)` per sampling window.
    pub rejection_curve: Vec<(u32, u64, u64)>,
    /// Per-class totals (index 0 = class 1).
    pub classes: Vec<ClassTotals>,
    /// Cumulative counters at every hour mark, from `t = 0`.
    pub hourly: Vec<HourSample>,
    /// Fig. 7 lowest-favored-class samples in consecutive 3-hour
    /// windows, from `t = 0`.
    pub favored: Vec<FavoredWindow>,
    /// FNV-1a digest over the sorted per-epoch trace records.
    pub trace_hash: u64,
    /// Wall-clock duration of the run, in microseconds.
    pub elapsed_micros: u64,
}

impl AmpReport {
    /// Final capacity as a multiple of the seed capacity — the paper's
    /// capacity-amplification measure.
    pub fn amplification(&self) -> f64 {
        if self.initial_capacity_raw == 0 {
            return 0.0;
        }
        self.final_capacity_raw as f64 / self.initial_capacity_raw as f64
    }

    /// Final capacity in units of the playback rate `R0`.
    pub fn final_capacity(&self) -> f64 {
        self.final_capacity_raw as f64 / f64::from(Bandwidth::FULL_RATE.raw())
    }

    /// Virtual seconds until capacity first reached `factor ×` the seed
    /// capacity, if it did. `factor` must be a power of two.
    pub fn time_to_fold(&self, factor: u64) -> Option<u32> {
        self.fold_crossings
            .iter()
            .find(|c| c.factor == factor)
            .map(|c| c.at_secs)
    }

    /// Fraction of attempts that were admitted.
    pub fn admission_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.admits as f64 / self.attempts as f64
    }

    /// Wall-clock duration of the run.
    pub fn elapsed(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.elapsed_micros)
    }

    /// Peers simulated per wall-clock second.
    pub fn peers_per_sec(&self) -> f64 {
        let secs = self.elapsed_micros as f64 / 1e6;
        if secs == 0.0 {
            return 0.0;
        }
        f64::from(self.peers) / secs
    }

    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed_micros as f64 / 1e6;
        if secs == 0.0 {
            return 0.0;
        }
        self.events as f64 / secs
    }

    /// Total system capacity in sessions at every hour mark (hours on
    /// the time axis) — the paper's Figures 4 and 8.
    pub fn capacity(&self) -> TimeSeries {
        let full = f64::from(Bandwidth::FULL_RATE.raw());
        let mut out = TimeSeries::new("capacity");
        for h in &self.hourly {
            out.push(hours(h.t_secs), h.capacity_raw as f64 / full);
        }
        out
    }

    /// Cumulative per-class admission rate (%) of first requests —
    /// Figure 5. A class has no point before its first request.
    pub fn class_admission_rate(&self) -> ClassSeries {
        self.class_ratio(
            "admission-rate",
            100.0,
            |h| &h.admits,
            |h| &h.first_requests,
        )
    }

    /// Cumulative overall admission rate (%) of first requests —
    /// Figure 9.
    pub fn overall_admission_rate(&self) -> TimeSeries {
        let mut out = TimeSeries::new("overall-admission-rate");
        for h in &self.hourly {
            let req: u64 = h.first_requests.iter().sum();
            let adm: u64 = h.admits.iter().sum();
            if req > 0 {
                out.push(hours(h.t_secs), 100.0 * adm as f64 / req as f64);
            }
        }
        out
    }

    /// Cumulative per-class average buffering delay in units of `δt` —
    /// Figure 6.
    pub fn buffering_delay(&self) -> ClassSeries {
        self.class_ratio("buffering-delay", 1.0, |h| &h.delay_slots, |h| &h.admits)
    }

    /// Per class, `scale × num / den` of two hourly counters at every
    /// hour mark where `den` is non-zero.
    fn class_ratio(
        &self,
        prefix: &str,
        scale: f64,
        num: impl Fn(&HourSample) -> &Vec<u64>,
        den: impl Fn(&HourSample) -> &Vec<u64>,
    ) -> ClassSeries {
        let mut out = ClassSeries::new(prefix, self.classes.len());
        for h in &self.hourly {
            for (i, (&n, &d)) in num(h).iter().zip(den(h)).enumerate() {
                if d > 0 {
                    out.push(i + 1, hours(h.t_secs), scale * n as f64 / d as f64);
                }
            }
        }
        out
    }

    /// Lowest favored requesting-peer class, averaged per supplier class
    /// over 3-hour windows (at each window's midpoint) — Figure 7.
    pub fn lowest_favored(&self) -> ClassSeries {
        let mut out = ClassSeries::new("lowest-favored-by", self.classes.len());
        let width = f64::from(FAVORED_WINDOW_HOURS);
        for (w, window) in self.favored.iter().enumerate() {
            for (i, (&sum, &count)) in window.sums.iter().zip(&window.counts).enumerate() {
                if count > 0 {
                    out.push(i + 1, (w as f64 + 0.5) * width, sum as f64 / count as f64);
                }
            }
        }
        out
    }

    fn class(&self, k: u8) -> &ClassTotals {
        &self.classes[(k - 1) as usize]
    }

    /// Average rejections before admission for class `k` (1-based)
    /// among admitted peers — the paper's Table 1. `None` if nobody of
    /// that class was admitted.
    ///
    /// # Panics
    ///
    /// This and the other per-class accessors panic if `k` is zero or
    /// exceeds the class count.
    pub fn avg_rejections(&self, k: u8) -> Option<f64> {
        let c = self.class(k);
        (c.admits > 0).then(|| c.rejections_before_admission as f64 / c.admits as f64)
    }

    /// Average waiting time (seconds) from first request to admission
    /// for class `k` among admitted peers.
    pub fn avg_waiting_secs(&self, k: u8) -> Option<f64> {
        let c = self.class(k);
        (c.admits > 0).then(|| c.waiting_secs as f64 / c.admits as f64)
    }

    /// The `q`-quantile of the class-`k` waiting time in seconds: the
    /// midpoint of the histogram bucket holding it, so within 1/32 of
    /// the exact value. `None` if nobody of that class was admitted.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn waiting_quantile_secs(&self, k: u8, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let c = self.class(k);
        let n: u64 = c.waiting_hist.iter().sum();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &count) in c.waiting_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (low, high) = wait_bucket_range(b);
                return Some((low + high) as f64 / 2.0);
            }
        }
        None
    }

    /// Average buffering delay (units of `δt`) for class `k` among
    /// admitted peers, over the whole run.
    pub fn avg_delay_slots(&self, k: u8) -> Option<f64> {
        let c = self.class(k);
        (c.admits > 0).then(|| c.delay_slots as f64 / c.admits as f64)
    }

    /// Final overall admission rate of first requests, in percent.
    pub fn final_overall_admission_rate(&self) -> f64 {
        let req: u64 = self.classes.iter().map(|c| c.first_requests).sum();
        let adm: u64 = self.classes.iter().map(|c| c.admits).sum();
        if req == 0 {
            return 0.0;
        }
        100.0 * adm as f64 / req as f64
    }

    /// Renders the headline metrics as an aligned two-column table; the
    /// fixed-width [`eng`] notation keeps a 10⁶-peer row exactly as
    /// wide as a 10²-peer one.
    pub fn table(&self) -> String {
        let mut table = Table::new(["metric", "value"]);
        let row = |t: &mut Table, k: &str, v: String| {
            t.row([k.to_string(), v]);
        };
        row(&mut table, "peers", eng(f64::from(self.peers)));
        row(&mut table, "seeds", eng(f64::from(self.seeds)));
        row(&mut table, "events", eng(self.events as f64));
        row(&mut table, "attempts", eng(self.attempts as f64));
        row(&mut table, "admits", eng(self.admits as f64));
        row(&mut table, "rejects", eng(self.rejects as f64));
        row(&mut table, "suppliers", eng(self.supplies as f64));
        row(&mut table, "departures", eng(self.departures as f64));
        row(&mut table, "capacity (R0)", eng(self.final_capacity()));
        row(
            &mut table,
            "amplification",
            format!("{:.2}x", self.amplification()),
        );
        for c in &self.fold_crossings {
            row(
                &mut table,
                &format!("t to {}x", c.factor),
                format!("{:>7.2}h", f64::from(c.at_secs) / 3_600.0),
            );
        }
        row(&mut table, "events/sec", eng(self.events_per_sec()));
        row(&mut table, "peers/sec", eng(self.peers_per_sec()));
        row(
            &mut table,
            "trace hash",
            format!("{:016x}", self.trace_hash),
        );
        table.render()
    }
}

fn hours(t_secs: u32) -> f64 {
    f64::from(t_secs) / HOUR as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AmpReport {
        AmpReport {
            peers: 1_000_064,
            seeds: 64,
            shards: 4,
            threads: 4,
            seed: 42,
            events: 12_345_678,
            attempts: 2_000_000,
            admits: 900_000,
            rejects: 1_100_000,
            supplies: 900_000,
            departures: 10_000,
            initial_capacity_raw: 64 * 32_768,
            final_capacity_raw: 64 * 32_768 * 128,
            fold_crossings: vec![
                FoldCrossing {
                    factor: 2,
                    at_secs: 3_600,
                },
                FoldCrossing {
                    factor: 4,
                    at_secs: 7_200,
                },
            ],
            capacity_curve: vec![(0, 64 * 32_768)],
            rejection_curve: vec![(3_600, 100, 40)],
            classes: Vec::new(),
            hourly: Vec::new(),
            favored: Vec::new(),
            trace_hash: 0xDEAD_BEEF,
            elapsed_micros: 2_000_000,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert_eq!(r.amplification(), 128.0);
        assert_eq!(r.time_to_fold(2), Some(3_600));
        assert_eq!(r.time_to_fold(4), Some(7_200));
        assert_eq!(r.time_to_fold(8), None);
        assert!((r.admission_rate() - 0.45).abs() < 1e-12);
        // Seeds offer R0/2 each (32,768 raw), so 64 seeds amplified
        // 128-fold serve 4,096 full-rate streams.
        assert_eq!(r.final_capacity(), 4_096.0);
        assert!((r.peers_per_sec() - 500_032.0).abs() < 1.0);
        assert_eq!(r.elapsed().as_secs(), 2);
    }

    #[test]
    fn table_rows_align_across_magnitudes() {
        let text = sample().table();
        assert!(text.contains("amplification"));
        assert!(text.contains("128.00x"));
        assert!(text.contains("t to 2x"));
        // The eng()-formatted count rows align on the decimal point
        // even though they span 64 to 12.3 million.
        let dots: Vec<usize> = text
            .lines()
            .filter(|l| {
                ["peers ", "seeds ", "events ", "attempts "]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .map(|l| l.find('.').unwrap())
            .collect();
        assert_eq!(dots.len(), 4, "{text}");
        assert!(dots.windows(2).all(|w| w[0] == w[1]), "{text}");
    }

    /// A 4-class report whose hour-1 sample has class 1 at 1 admit of
    /// 2 first requests (4 delay slots), 3 rejections and 600 s of
    /// waiting, and whose capacity steps up by half a session at hour 2.
    fn paper_sample() -> AmpReport {
        let mut r = sample();
        let half = i64::from(Bandwidth::FULL_RATE.raw()) / 2;
        let hour = |t_secs: u32, first: u64, admits: u64, delay: u64, cap: i64| HourSample {
            t_secs,
            capacity_raw: cap,
            first_requests: vec![first, 0, 0, 0],
            admits: vec![admits, 0, 0, 0],
            delay_slots: vec![delay, 0, 0, 0],
        };
        r.hourly = vec![
            hour(0, 0, 0, 0, 200 * half),
            hour(3_600, 2, 1, 4, 200 * half),
            hour(7_200, 2, 1, 4, 201 * half),
        ];
        let mut waiting_hist = vec![0; WAIT_BUCKETS];
        waiting_hist[wait_bucket(600)] = 1;
        r.classes = (0..4)
            .map(|k| ClassTotals {
                first_requests: if k == 0 { 2 } else { 0 },
                admits: if k == 0 { 1 } else { 0 },
                rejections_before_admission: if k == 0 { 3 } else { 0 },
                delay_slots: if k == 0 { 4 } else { 0 },
                waiting_secs: if k == 0 { 600 } else { 0 },
                waiting_hist: if k == 0 {
                    waiting_hist.clone()
                } else {
                    vec![0; WAIT_BUCKETS]
                },
            })
            .collect();
        r.favored = vec![FavoredWindow {
            sums: vec![1 + 3, 0, 0, 0],
            counts: vec![2, 0, 0, 0],
        }];
        r
    }

    #[test]
    fn class_series_access() {
        let mut cs = ClassSeries::new("x", 4);
        assert_eq!(cs.num_classes(), 4);
        cs.push(2, 1.0, 5.0);
        assert_eq!(cs.class(2).last(), Some((1.0, 5.0)));
        assert!(cs.class(1).is_empty());
        let names: Vec<&str> = cs.iter().map(|(_, s)| s.name()).collect();
        assert_eq!(
            names,
            vec!["x-class-1", "x-class-2", "x-class-3", "x-class-4"]
        );
    }

    #[test]
    fn hourly_counters_become_the_paper_series() {
        let r = paper_sample();
        let rate = r.class_admission_rate();
        assert_eq!(rate.class(1).last(), Some((2.0, 50.0)));
        assert_eq!(rate.class(1).value_at(1.0), Some(50.0));
        // Classes with no requests produce no points.
        assert!(rate.class(2).is_empty());
        assert_eq!(r.buffering_delay().class(1).value_at(1.0), Some(4.0));
        assert_eq!(r.overall_admission_rate().last(), Some((2.0, 50.0)));
        assert_eq!(r.avg_rejections(1), Some(3.0));
        assert_eq!(r.avg_rejections(2), None);
        assert_eq!(r.avg_delay_slots(1), Some(4.0));
        assert_eq!(r.avg_waiting_secs(1), Some(600.0));
        assert_eq!(r.final_overall_admission_rate(), 50.0);
    }

    #[test]
    fn capacity_steps_in_hours() {
        let capacity = paper_sample().capacity();
        assert_eq!(capacity.len(), 3);
        assert_eq!(capacity.value_at(1.0), Some(100.0));
        assert_eq!(capacity.value_at(2.0), Some(100.5));
    }

    #[test]
    fn favored_window_averages() {
        // One 3 h window holding samples 1 and 3: average 2 at its
        // midpoint.
        let favored = paper_sample().lowest_favored();
        assert_eq!(favored.class(1).iter().next(), Some((1.5, 2.0)));
        assert!(favored.class(2).is_empty());
    }

    #[test]
    fn waiting_buckets_are_contiguous_and_tight() {
        let mut prev_high = None;
        for b in 0..WAIT_BUCKETS {
            let (low, high) = wait_bucket_range(b);
            assert!(low <= high);
            if let Some(p) = prev_high {
                assert_eq!(low, p + 1, "bucket {b} leaves a gap");
            }
            prev_high = Some(high);
            assert!((high - low) * 16 <= low.max(1), "bucket {b} too wide");
        }
        assert_eq!(prev_high, Some(u64::from(u32::MAX)));
        for secs in [0u32, 1, 15, 16, 17, 600, 4_999, 86_400, u32::MAX] {
            let (low, high) = wait_bucket_range(wait_bucket(secs));
            assert!((low..=high).contains(&u64::from(secs)), "{secs}");
        }
    }

    #[test]
    fn waiting_quantiles_come_from_the_histogram() {
        let mut r = paper_sample();
        let hist = &mut r.classes[0].waiting_hist;
        hist.iter_mut().for_each(|n| *n = 0);
        for secs in [600u32, 600, 600, 600, 600, 600, 600, 600, 600, 5_000] {
            hist[wait_bucket(secs)] += 1;
        }
        let p50 = r.waiting_quantile_secs(1, 0.5).unwrap();
        let p99 = r.waiting_quantile_secs(1, 0.99).unwrap();
        assert!((p50 - 600.0).abs() <= 600.0 / 32.0, "p50 {p50}");
        assert!((p99 - 5_000.0).abs() <= 5_000.0 / 32.0, "p99 {p99}");
        assert_eq!(r.waiting_quantile_secs(2, 0.5), None);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let mut r = sample();
        r.initial_capacity_raw = 0;
        r.attempts = 0;
        r.elapsed_micros = 0;
        assert_eq!(r.amplification(), 0.0);
        assert_eq!(r.admission_rate(), 0.0);
        assert_eq!(r.peers_per_sec(), 0.0);
        assert_eq!(r.events_per_sec(), 0.0);
    }
}
