//! Order statistics, defined once so every table uses the same rule.

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = ascending(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the benchmark's own bounds are judged by).
/// `None` below two values or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let v = ascending(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's "exclusive" method, integer arithmetic and all: it
    // extrapolates past the ends on very small samples.
    let at = |i: i64| {
        let m = n as i64;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = i * (m + 1) - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    let m = median(&v)?;
    (m != 0.0).then(|| (at(3) - at(1)) / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // statistics.quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
        assert!((iqr_share(&[1.0, 2.0, 4.0]).unwrap() - 1.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    }
}
