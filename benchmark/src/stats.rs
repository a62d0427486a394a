//! Order statistics over block timings.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--sets` reports the spread the way the
/// driver computes it.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * frac;
    }
    out
}

/// The fast end of the block-time distribution the gated rates are read
/// at: the first quartile of block times. Interference on a shared host
/// only ever slows a block, so the undisturbed speed of the code sits at
/// the fast end; the median and the mean of the very same blocks drift
/// two to ten times as much between identical runs, and further out than
/// the quartile there are too few blocks to be steady (README, "Why the
/// fast quartile").
pub const FAST_QUANTILE: f64 = 0.25;

/// A window of equal fixed-tick blocks, reduced to rates.
#[derive(Clone, Copy, Debug)]
pub struct BlockRate {
    pub blocks: usize,
    pub block_ticks: u64,
    /// Ticks per second at the fast quartile of block times (the upper
    /// quartile of block rates): the value every `*_ticks_per_s` metric
    /// reports.
    pub fast: f64,
    pub median: f64,
    /// The slow quartile: lower quartile of the block rates.
    pub slow: f64,
    /// Whole-window rate: all ticks over all time, interference included.
    pub mean: f64,
}

impl BlockRate {
    pub fn from_block_seconds(block_seconds: &[f64], block_ticks: u64) -> BlockRate {
        let t = sorted(block_seconds);
        let k = block_ticks as f64;
        let total: f64 = t.iter().sum();
        BlockRate {
            blocks: t.len(),
            block_ticks,
            fast: k / quantile(&t, FAST_QUANTILE),
            median: k / quantile(&t, 0.5),
            slow: k / quantile(&t, 1.0 - FAST_QUANTILE),
            mean: k * t.len() as f64 / total,
        }
    }

    /// Seconds per tick at the fast quartile.
    pub fn fast_s_per_tick(&self) -> f64 {
        1.0 / self.fast
    }

    /// Median block time over fast-quartile block time (>= 1). Host steal
    /// raises it for every engine alike; waiting on a barrier or a peer
    /// raises it for that engine only.
    pub fn tail_ratio(&self) -> f64 {
        self.fast / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles_exclusive(&v);
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles_exclusive(&[2.0, 1.0]);
        assert!((q[0] - 0.75).abs() < 1e-12);
        assert!((q[2] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn block_rate_reads_the_fast_quartile_and_keeps_the_rest() {
        // Ten blocks of 4 ticks: nine take 2 ms, one takes 20 ms.
        let mut secs = vec![0.002; 9];
        secs.push(0.020);
        let r = BlockRate::from_block_seconds(&secs, 4);
        assert_eq!(r.blocks, 10);
        assert!((r.fast - 2000.0).abs() < 1e-6);
        assert!((r.median - 2000.0).abs() < 1e-6);
        assert!((r.mean - 40.0 / 0.038).abs() < 1e-6);
        assert!(r.slow <= r.median && r.median <= r.fast);
        assert!((r.tail_ratio() - 1.0).abs() < 1e-9);
        assert!((r.fast_s_per_tick() - 0.0005).abs() < 1e-12);
    }
}
