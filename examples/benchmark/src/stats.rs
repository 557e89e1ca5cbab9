//! Order statistics and the failed/attempted account.
//!
//! Everything here is pure so `self-test` can pin it on hand-made inputs.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Interquartile mean: the mean of the middle half of `values` (the lowest
/// and the highest quarter, rounded down, are dropped). As deaf to a few
/// outliers as the median, without snapping to one of the inputs — which
/// matters when the inputs are per-second counts.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 1-based nearest-rank position of percentile `p` in `n` samples:
/// `ceil(p · n)`, clamped into `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[nearest_rank(n, p) - 1],
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest ladder percentile with at least ten samples beyond its
/// nearest-rank position — a tail read off fewer samples is an anecdote.
/// Falls back to the median when even p75 has no ten samples beyond it.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 10 + nearest_rank(n, p))
        .unwrap_or(0.50)
}

/// `(p50, tail value, tail percentile)` of unsorted samples.
pub fn p50_and_tail(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = supported_tail(sorted.len());
    (percentile(&sorted, 0.50), percentile(&sorted, tail), tail)
}

/// Interquartile range over the median, the spread `check` prints and the
/// driver computes (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| -> f64 {
        // Python's exclusive method: position k(n+1)/4, linear between ranks.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m.abs()
    }
}

/// Operations attempted and failed; every run folds its sub-accounts into
/// one and the result line carries both counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Account {
    pub attempted: u64,
    pub failed: u64,
}

impl Account {
    /// One operation, failed or not.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed` out of `attempted` operations at once. A failure count
    /// above the attempts (a bookkeeping bug upstream) is clamped so the
    /// share never exceeds 1.
    pub fn record_many(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    pub fn merge(&mut self, other: Account) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
