//! Descriptive statistics over `f64` samples.

/// Summary statistics of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n−1) sample variance; 0 for n < 2.
    pub var: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Standard error of the mean.
    pub sem: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (the mean of the two middle values for an even sample).
    pub median: f64,
}

impl Summary {
    /// Summarise a sample (must be non-empty).
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarise an empty sample");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let sd = var.sqrt();
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
        Self {
            n,
            mean,
            var,
            sd,
            sem: sd / (n as f64).sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            median,
        }
    }

    /// Normal-approximation confidence interval at `z` standard errors
    /// (e.g. 1.96 for 95 %).
    pub fn ci(&self, z: f64) -> (f64, f64) {
        (self.mean - z * self.sem, self.mean + z * self.sem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_summary() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sum of squared deviations = 32; var = 32/7.
        assert!((s.var - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
        assert_eq!(Summary::of(&[9.0, 1.0, 5.0]).median, 5.0);
    }

    #[test]
    fn singleton() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn ci_brackets_mean() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let (lo, hi) = s.ci(1.96);
        assert!(lo < s.mean && s.mean < hi);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }
}
