//! Order statistics and the derived measures the benchmark reports:
//! interleaved pair ratios, differential (composed minus alone) times
//! and drift-corrected times.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks. Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)]
}

/// Median over interleaved pairs of `reference / subject`, where each
/// pair was timed back to back on the same design. A machine that
/// slows down for a while slows both sides of the pairs it touches, so
/// the ratio cancels drift that absolute times carry.
///
/// Each element is `(reference_ns_per_unit, subject_ns_per_unit)`.
pub fn pair_ratio(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(r, s)| r / s).collect();
    median(&ratios)
}

/// Median of `composed - alone` over samples taken in alternation: the
/// time a layer adds on top of the work it wraps (for instance a
/// journaled campaign against the same campaign without a journal).
pub fn differential(composed: &[f64], alone: &[f64]) -> f64 {
    let diffs: Vec<f64> = composed.iter().zip(alone).map(|(c, a)| c - a).collect();
    median(&diffs)
}

/// `seconds` corrected for the machine's speed at the time: scaled by
/// `nominal` over the mean of `before` and `after`, two timings of a
/// fixed reference work taken just before and just after. `nominal` is
/// that work's time on a machine of known speed, in the same unit. A
/// machine that runs twice as slow for a while doubles both the time
/// and the reference, so the product stays put; work added to what was
/// timed still shows in full.
pub fn drift_corrected(seconds: f64, before: f64, after: f64, nominal: f64) -> f64 {
    seconds * nominal / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn pair_ratio_cancels_a_common_slowdown() {
        // The second half of the run is twice as slow on both sides.
        let pairs = [(400.0, 100.0), (404.0, 101.0), (800.0, 200.0), (808.0, 202.0)];
        assert_eq!(pair_ratio(&pairs), 4.0);
        // An outlier pair moves the median ratio by at most one rank.
        let noisy = [(400.0, 100.0), (400.0, 100.0), (400.0, 300.0)];
        assert_eq!(pair_ratio(&noisy), 4.0);
    }

    #[test]
    fn drift_correction_cancels_a_slowdown_but_not_added_work() {
        // Nominal reference 10 ns; the machine runs at half speed.
        let slow = drift_corrected(2.0, 19.0, 21.0, 10.0);
        assert_eq!(slow, 1.0);
        // The same machine state, with 50% more work timed.
        assert_eq!(drift_corrected(3.0, 19.0, 21.0, 10.0), 1.5 * slow);
        assert_eq!(drift_corrected(1.0, 10.0, 10.0, 10.0), 1.0);
    }

    #[test]
    fn differential_is_the_median_paired_difference() {
        let composed = [12.0, 15.0, 11.0];
        let alone = [10.0, 10.0, 10.0];
        assert_eq!(differential(&composed, &alone), 2.0);
        assert_eq!(differential(&[5.0], &[7.0]), -2.0);
    }
}
