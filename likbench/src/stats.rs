//! Order statistics of per-evaluation timings.

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// First and third quartiles, by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`): the order statistics at ranks
/// (n + 1)/4 and 3(n + 1)/4, interpolated, clamped to the sample range.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |rank: f64| {
        let r = rank.clamp(1.0, v.len() as f64) - 1.0;
        let (lo, frac) = (r.floor() as usize, r.fract());
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + frac * (v[hi] - v[lo])
    };
    let n1 = (v.len() + 1) as f64;
    (at(n1 / 4.0), at(3.0 * n1 / 4.0))
}

/// A tail percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at.
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it. With ten or
/// fewer samples there is no such percentile and the maximum is returned
/// (percentile 100).
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 2.0, 5.0, 4.0, 6.0]), (2.0, 6.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(tail(&[1.0, 5.0, 2.0]).value, 5.0);
    }
}
