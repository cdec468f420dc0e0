//! The estimator and the order statistics of the detail record.

/// `T = Σ_units min_passes t(unit)`: `table[pass][unit]` are seconds.
///
/// Interference on a shared host only ever adds time, so each unit's best
/// pass is the closest a run gets to the quiet machine; summing per-unit
/// minima rather than taking the best whole pass means one burst cannot
/// spoil a pass's other units (README, "noise study").
pub fn sum_of_unit_minima(table: &[Vec<f64>]) -> f64 {
    let units = table.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| {
            table
                .iter()
                .map(|pass| pass[u])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median, quartiles, extremes and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises `xs` with the quartiles Python's
/// `statistics.quantiles(xs, n=4)` gives (the "exclusive" method), so the
/// detail record and `repeat.py` agree. A single value is its own
/// quartiles.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize: empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        if n == 1 {
            return v[0];
        }
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        n,
        min: v[0],
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
        max: v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_is_the_sum_of_per_unit_minima() {
        // Three passes of two units; no single pass holds both minima.
        let table = vec![vec![1.0, 9.0], vec![4.0, 2.0], vec![3.0, 5.0]];
        assert_eq!(sum_of_unit_minima(&table), 3.0);
        // The best whole pass is slower than T.
        let best_pass = table
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best_pass, 6.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3., 1., 2.]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!((s.n, s.min, s.max), (3, 1.0, 3.0));
    }
}
