//! Summary statistics with the benchmark's reporting rule.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 1]`.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `want`, lowered to the highest percentile
/// that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, but
/// never below the median: with 20 samples or fewer no tail percentile
/// is supported and the (upper) median is reported. Non-finite samples
/// (missed requests) rank above every finite one.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let n = v.len();
    let floor = n / 2 + 1;
    let rank = ((want * n as f64).ceil() as usize)
        .min(n.saturating_sub(TAIL_MIN_BEYOND))
        .max(floor)
        .min(n);
    Tail { pct: rank as f64 / n as f64, value: v[rank - 1], samples: n }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}
