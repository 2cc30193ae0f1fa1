//! Boxplot summary statistics for the Monte-Carlo estimation figures
//! (paper Figs 5–6 report estimator distributions as boxplots).

/// Five-number summary plus the mean of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
    pub n: usize,
}

impl BoxplotStats {
    /// Compute from raw samples (non-empty). Quartiles use the linear
    /// interpolation convention (R type 7).
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "boxplot of empty sample");
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            let h = p * (v.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        };
        BoxplotStats {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
            n: v.len(),
        }
    }

    /// One-line rendering for text tables.
    pub fn to_row(&self) -> String {
        format!(
            "min {:8.4}  q1 {:8.4}  med {:8.4}  q3 {:8.4}  max {:8.4}  mean {:8.4}",
            self.min, self.q1, self.median, self.q3, self.max, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_quartiles() {
        let s = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn interpolated_quartiles() {
        let s = BoxplotStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q3, 3.25);
    }

    #[test]
    fn unsorted_input_ok() {
        let s = BoxplotStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn single_sample() {
        let s = BoxplotStats::from_samples(&[2.5]);
        assert_eq!(s.min, 2.5);
        assert_eq!(s.max, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.n, 1);
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        BoxplotStats::from_samples(&[]);
    }
}
