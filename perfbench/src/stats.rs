//! Order statistics for reported timings.

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// A reported percentile: the value, the quantile it was actually taken
/// at, and the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// The quantile used, in `[0.5, 1)`; below the requested one when the
    /// sample is too small to support it.
    pub q: f64,
    /// Number of samples.
    pub n: usize,
}

/// Linear-interpolated quantile of ascending `sorted` samples (the
/// `numpy` default): position `q * (n - 1)`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(&sorted(samples), 0.5)
}

/// The percentile `q` of `samples`, or — when fewer than
/// [`TAIL_SAMPLES`] samples would lie beyond it — the highest percentile
/// that has that many beyond it, never lower than the median.
pub fn tail(samples: &[f64], q: f64) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            q: 0.5,
            n,
        };
    }
    let q = if n > TAIL_SAMPLES && samples_beyond(n, q) >= TAIL_SAMPLES {
        q
    } else if n > TAIL_SAMPLES + 1 {
        // Interpolation position exactly `n - 1 - TAIL_SAMPLES`: the
        // largest order statistic with that many samples above it.
        (n - 1 - TAIL_SAMPLES) as f64 / (n - 1) as f64
    } else {
        0.5
    };
    let q = q.max(0.5);
    Tail {
        value: quantile(&sorted(samples), q),
        q,
        n,
    }
}

/// Number of samples (of `n > 0`) strictly beyond the interpolation
/// position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let pos = q * (n - 1) as f64;
    n - 1 - (pos.floor() as usize).min(n - 1)
}
