//! Order statistics for the reported timings.

/// Cells that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for even lengths; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// values beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100]`.
    pub percentile: f64,
    /// Values strictly beyond it (fewer than [`TAIL_BEYOND`] only when the
    /// sample is that small).
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// See [`Tail`]; `None` for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = n.checked_sub(1)?.saturating_sub(TAIL_BEYOND);
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (50.0, 10, 60));
        assert!((t.percentile - 83.333).abs() < 1e-3);
        let small = tail(&[5.0, 1.0]).unwrap();
        assert_eq!(
            (small.value, small.beyond, small.percentile),
            (1.0, 1, 50.0)
        );
        assert!(tail(&[]).is_none());
    }
}
