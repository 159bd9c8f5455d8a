//! Order statistics under the benchmark's reporting rule: a timing is
//! reported as its median and a tail percentile, and a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie above it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (the mean of the middle pair for an even count), or
/// `None` without samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it: p90 needs 100
/// samples, p99 needs 1,000.
pub fn percentile(values: &[f64], p: usize) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    let rank = (p * n).div_ceil(100);
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// Operations per second over each window of `window` consecutive
/// operations timed in milliseconds (the last window also takes the
/// remainder), median over windows; `None` without a full window. A
/// neighbour's burst over a minority of windows does not move it, as it
/// would move the mean over the run.
pub fn windowed_rate_ms(op_ms: &[f64], window: usize) -> Option<f64> {
    let count = op_ms.len().checked_div(window).unwrap_or(0);
    let rates: Vec<f64> = (0..count)
        .filter_map(|i| {
            let to = if i + 1 == count {
                op_ms.len()
            } else {
                (i + 1) * window
            };
            let ms: f64 = op_ms[i * window..to].iter().sum();
            (ms > 0.0).then(|| (to - i * window) as f64 * 1e3 / ms)
        })
        .collect();
    median(&rates)
}

/// Operations per second at the median of per-operation times given in
/// nanoseconds (one value per fixed-size batch), so that a few batches
/// slowed by the host do not move the rate.
pub fn rate_at_median_ns(per_op_ns: &[f64]) -> Option<f64> {
    median(per_op_ns).filter(|m| *m > 0.0).map(|m| 1e9 / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&one_to(4)), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&one_to(99), 90), None);
        assert_eq!(percentile(&one_to(100), 90), Some(90.0));
        let s = one_to(250);
        let p = percentile(&s, 90).unwrap();
        assert_eq!(p, 225.0);
        assert!(s.iter().filter(|v| **v > p).count() >= MIN_BEYOND);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&one_to(999), 99), None);
        assert_eq!(percentile(&one_to(1000), 99), Some(990.0));
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Three windows of 2 ops: 10 ms each (100/s), 10 ms each
        // (100/s), and one slowed to 1 s per op with a third op
        // folded in (3/2.02 s).
        let ms = [10.0, 10.0, 10.0, 10.0, 1000.0, 1000.0, 20.0];
        assert_eq!(windowed_rate_ms(&ms, 2), Some(100.0));
        assert_eq!(windowed_rate_ms(&ms[..1], 2), None);
        assert_eq!(windowed_rate_ms(&ms, 0), None);
        let last = windowed_rate_ms(&ms[4..], 2).unwrap();
        assert!((last - 3e3 / 2020.0).abs() < 1e-9);
    }

    #[test]
    fn rate_comes_from_the_median_batch_not_the_mean() {
        // Nine batches at 20 ns per op and one stalled at 2,000 ns: the
        // mean would report 10.2 M/s, the median batch 50 M/s.
        let mut batches = vec![20.0; 9];
        batches.push(2000.0);
        assert_eq!(rate_at_median_ns(&batches), Some(5e7));
        assert_eq!(rate_at_median_ns(&[]), None);
        assert_eq!(rate_at_median_ns(&[0.0]), None);
    }
}
