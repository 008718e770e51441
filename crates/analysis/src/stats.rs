//! Summary statistics.

/// Summary of a sample: mean, variance, and a normal-approximation 95%
/// confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    /// Unbiased sample variance (0 for n < 2).
    pub variance: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let variance = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            n,
            mean,
            variance,
            min,
            max,
        })
    }

    /// Summarize `metric` over `items` (e.g. one replication set's
    /// reports). Returns `None` for an empty slice.
    pub fn over<T>(items: &[T], metric: impl Fn(&T) -> f64) -> Option<Summary> {
        let xs: Vec<f64> = items.iter().map(metric).collect();
        Summary::of(&xs)
    }

    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the ~95% confidence interval (1.96 · SE; a normal
    /// approximation adequate for the ≥ 8 replications the experiments use).
    pub fn ci95(&self) -> f64 {
        1.96 * self.std_err()
    }
}

/// Streaming mean/variance (Welford), for counters accumulated tick by
/// tick without storing samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// p-th percentile (0..=100) by linear interpolation on a sorted copy.
/// Returns `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p));
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.ci95() > 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(
            Summary::over(&[(1.0, 'a'), (3.0, 'b')], |p| p.0),
            Summary::of(&[1.0, 3.0])
        );
        assert!(Summary::over(&[] as &[f64], |&x| x).is_none());
    }

    #[test]
    fn single_sample_zero_variance() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn online_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        let s = Summary::of(&xs).unwrap();
        assert!((o.mean() - s.mean).abs() < 1e-12);
        assert!((o.variance() - s.variance).abs() < 1e-12);
    }

    #[test]
    fn online_merge_matches_concat() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut oa = OnlineStats::new();
        let mut ob = OnlineStats::new();
        for &x in &a {
            oa.push(x);
        }
        for &x in &b {
            ob.push(x);
        }
        oa.merge(&ob);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let s = Summary::of(&all).unwrap();
        assert!((oa.mean() - s.mean).abs() < 1e-12);
        assert!((oa.variance() - s.variance).abs() < 1e-9);
        assert_eq!(oa.count(), 7);
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert!(percentile(&[], 50.0).is_none());
    }
}
