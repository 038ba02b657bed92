//! Order statistics under the benchmark's reporting rule: a tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a "p99" is never the maximum of a handful of samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, highest first.
pub const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent so `p99.9` of 10 000 is rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Samples lying beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has too few.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The `p`-th percentile of `samples`, or an error naming the sample
/// count when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {} samples allow at most {}",
            samples.len(),
            highest_reportable(samples.len()).map_or("none".to_owned(), |q| format!("p{q}"))
        ));
    }
    Ok(percentile(&sorted(samples), p))
}

/// The median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Splits `(at, value)` samples into consecutive windows of `width`
/// seconds covering `0..seconds`; samples past the last whole window are
/// dropped. A statistic taken per window and reduced to its median
/// resists a noisy neighbour that slows a few seconds of a run.
pub fn windows(
    samples: impl IntoIterator<Item = (f64, f64)>,
    width: f64,
    seconds: f64,
) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); (seconds / width).floor() as usize];
    for (at, value) in samples {
        if let Some(w) = windows.get_mut((at / width) as usize) {
            w.push(value);
        }
    }
    windows
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_reportable_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_reportable(9), None);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(999), Some(90.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
        for n in [100, 1000, 10_000] {
            let p = highest_reportable(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn tail_refuses_a_percentile_with_too_few_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail(&samples, 99.0).is_err());
        assert_eq!(tail(&samples, 90.0), Ok(900.0));
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&samples, 99.0), Ok(990.0));
    }

    #[test]
    fn windows_split_by_send_time() {
        let samples = [(0.1, 1.0), (1.9, 2.0), (2.0, 3.0), (3.5, 4.0), (4.0, 5.0)];
        let w = windows(samples, 2.0, 4.5);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
