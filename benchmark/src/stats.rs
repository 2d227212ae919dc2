//! Order statistics over the samples a run collects.

/// The `q`-quantile (0..=1) of `sorted`, by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at `cap` (choosing-metrics §1). With 375 samples that is
/// p97; the benchmark reports p95 and needs 200.
pub fn supported_percentile(samples: usize, cap: f64) -> f64 {
    if samples <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(cap)
}

/// Rate of the fastest fiftieth of fixed-size segments (at least two),
/// `(events, seconds)` each: what a closed-loop run reports as its
/// throughput.
///
/// What the host gives CPU-bound code changes in plateaus of 1–30 s
/// and only ever takes away (README, "Host noise"): a mean or median
/// over the run measures how much of it the host spent in which state,
/// the fastest segments measure the program. Over 36 runs in half an
/// hour this estimator spread least of all that were tried, on both
/// closed-loop workloads.
pub fn fastest_rate(segments: &[(u64, f64)]) -> f64 {
    assert!(!segments.is_empty(), "no throughput segments");
    let mut rates: Vec<f64> = segments.iter().map(|(e, s)| *e as f64 / s).collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    let keep = (rates.len() / 50).max(2).min(rates.len());
    rates[..keep].iter().sum::<f64>() / keep as f64
}

/// The median segment rate: what the run was like, the host's slow
/// states included. Context beside [`fastest_rate`], not a result.
pub fn median_rate(segments: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = segments.iter().map(|(e, s)| *e as f64 / s).collect();
    median(&rates)
}

/// Share of segments more than 1.25× slower than `fast_rate`.
pub fn slow_share(segments: &[(u64, f64)], fast_rate: f64) -> f64 {
    let slow = segments
        .iter()
        .filter(|(e, s)| (*e as f64 / s) * 1.25 < fast_rate)
        .count();
    slow as f64 / segments.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(375, 0.95), 0.95);
        assert_eq!(supported_percentile(100, 0.95), 0.9);
        assert_eq!(supported_percentile(8, 0.95), 0.5);
    }

    #[test]
    fn segment_rates() {
        let mut segs = vec![(100_000u64, 0.10); 9];
        segs.extend(vec![(100_000u64, 0.15); 10]);
        let fast = fastest_rate(&segs);
        assert!((fast - 1_000_000.0).abs() < 1.0);
        assert!((slow_share(&segs, fast) - 10.0 / 19.0).abs() < 1e-9);
        assert!((median_rate(&segs) - 100_000.0 / 0.15).abs() < 1.0);
    }
}
