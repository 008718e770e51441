//! The benchmark's two order statistics.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why [`percentile`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile, need {MIN_BEYOND}",
            self.samples, self.beyond
        )
    }
}

/// 1-based nearest rank of percentile `p` among `count` samples.
fn rank(count: usize, p: f64) -> usize {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    ((p * count as f64).ceil() as usize).max(1)
}

/// Nearest-rank percentile `p` in `(0, 1)` of a non-empty slice, however
/// few samples support it — for the spread between repetitions only.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile `p` in `(0, 1)` of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond the returned one — a tail
/// read off fewer is one slow tick, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let beyond = samples.len().saturating_sub(rank(samples.len(), p));
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            samples: samples.len(),
            beyond,
        });
    }
    Ok(nearest_rank(samples, p))
}

/// Median of a non-empty slice (mean of the two middle values when the
/// count is even) — for summarising repetitions, where there are few.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the function must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), Ok(50.0));
        assert_eq!(percentile(&s, 0.75), Ok(75.0));
        assert_eq!(percentile(&s, 0.90), Ok(90.0));
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        // 40 samples support p75 (rank 30, ten beyond) and nothing higher.
        let s = ramp(40);
        assert_eq!(percentile(&s, 0.75), Ok(30.0));
        assert_eq!(
            percentile(&s, 0.90),
            Err(TooFewSamples {
                samples: 40,
                beyond: 4
            })
        );
        // One sample fewer and p75 goes too.
        assert_eq!(
            percentile(&ramp(39), 0.75),
            Err(TooFewSamples {
                samples: 39,
                beyond: 9
            })
        );
        assert!(percentile(&ramp(102), 0.90).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
