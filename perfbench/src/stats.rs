//! The benchmark's own arithmetic: percentiles, medians and failure
//! tallies. Kept free of I/O so the self-tests below pin it down.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps binary rounding (99.9% of 10000 is 9990.000000000002) from
/// pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail latency figure: the percentile used, its value and the sample
/// count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: the share of samples at or below `value`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the figure came from.
    pub samples: usize,
}

/// The highest percentile that leaves at least [`MIN_BEYOND`] samples
/// beyond it: the sample of rank `n - MIN_BEYOND`, reported with the
/// percentile that rank stands for. With fewer than `2 * MIN_BEYOND`
/// samples this falls back to the median, which the sample count then
/// qualifies.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let r = (n.saturating_sub(MIN_BEYOND)).max(rank(n, 50.0));
    Tail {
        pct: 100.0 * r as f64 / n as f64,
        value: sorted[r - 1],
        samples: n,
    }
}

/// Median (nearest-rank p50) of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0)
}

/// Operations attempted and failed. A failed operation is any of: a job
/// that did not complete, an audit violation, a correctness-gate mismatch,
/// a refused or errored request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted, failed ones included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations out of attempted ones (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The complement of [`Tally::error_rate`]: 1 when every operation
    /// succeeded. Reported instead of the error rate itself because a
    /// healthy run's error rate is 0, which no relative bound can judge.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.error_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990 is p99, leaving exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 68 per-job medians of suite_gto: rank 58 is p85.3.
        let t = tail(&ramp(68));
        assert_eq!(t.value, 58.0);
        assert!((t.pct - 85.29).abs() < 0.01, "{}", t.pct);
        // 34 audited jobs: rank 24, about p70.6.
        assert_eq!(tail(&ramp(34)).value, 24.0);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 20..3000 {
            let t = tail(&ramp(n));
            let beyond = n - t.value as usize;
            assert_eq!(beyond, MIN_BEYOND, "n={n}");
            // The reported percentile names the rank exactly.
            assert_eq!(rank(n, t.pct), t.value as usize, "n={n}");
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let t = tail(&ramp(7));
        assert_eq!((t.value, t.samples), (4.0, 7));
        assert!((t.pct - 400.0 / 7.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        // A failed request enters the latency sample as +inf, so it lands
        // beyond any finite limit and drags the tail with it.
        let mut samples = ramp(990);
        samples.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail(&samples).value, 990.0);
        samples.push(f64::INFINITY);
        assert!(tail(&samples).value.is_infinite());
    }

    #[test]
    fn error_rate_counts_failures_against_all_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
        assert_eq!(t.ok_frac(), 0.75);
        // A refused request is attempted and failed: the base grows with
        // it, so refusing load cannot shrink the error rate.
        t.record(false);
        assert_eq!(t.error_rate(), 2.0 / 5.0);
    }
}
