//! HDR-style log-bucketed histogram for latency percentiles.
//!
//! Moved here from `fastrak-sim`'s `stats` module so the registry can own
//! histograms without a dependency cycle (`fastrak-sim` re-exports it, and
//! layers duration-typed helpers on top). The histogram trades a bounded
//! ~1.6% relative error for O(1) record cost and bounded memory, which is
//! the standard engineering choice (HdrHistogram) for latency capture. The
//! bucket array grows to the highest bucket recorded: a µs-scale latency
//! series touches about 1 000 of the 2 304 buckets, a fresh histogram none.

/// Number of sub-buckets per power-of-two bucket; 64 gives a worst-case
/// relative quantile error of 1/64 ≈ 1.6%.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;
/// Bucket count covering values up to 2^40 ns (~18 minutes) with 64
/// sub-buckets each, plus the linear region below 64.
const N_BUCKETS: usize =
    ((40 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize + SUB_BUCKETS as usize;

/// Log-bucketed histogram for non-negative integer samples (latencies in ns).
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram; it owns no heap until its first sample.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) - SUB_BUCKETS; // in [0, 64)
        let idx = ((shift as u64 + 1) * SUB_BUCKETS + sub) as usize;
        idx.min(N_BUCKETS - 1)
    }

    /// Representative (upper-bound) value for a bucket index.
    fn value_for(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let shift = idx / SUB_BUCKETS - 1;
        let sub = idx % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << shift
    }

    /// Extend the buckets to `len` exactly. Growth comes a whole
    /// power-of-two range (64 buckets) at a time, so a histogram reallocates
    /// at most once per range it reaches.
    fn grow(&mut self, len: usize) {
        self.buckets.reserve_exact(len - self.buckets.len());
        self.buckets.resize(len, 0);
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v);
        if idx >= self.buckets.len() {
            self.grow((idx | (SUB_BUCKETS as usize - 1)) + 1);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in [0,1]; worst-case relative error ~1.6%.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return Self::value_for(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (growing it to the other's
    /// buckets).
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.grow(other.buckets.len());
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, mean={:.1}, p50={}, p99={}, max={})",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(0.5), 31);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(3_000);
        assert!((h.mean() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_bounded_error() {
        let mut h = Histogram::new();
        // Uniform samples 1..=100_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.02, "q{q}: got {got} expect {expect} err {err}");
        }
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_single_sample_p99_is_exact() {
        // With one sample every quantile must clamp to that exact value,
        // even though the bucket's representative value differs.
        let mut h = Histogram::new();
        h.record(123_457);
        assert_eq!(h.quantile(0.0), 123_457);
        assert_eq!(h.quantile(0.5), 123_457);
        assert_eq!(h.quantile(0.99), 123_457);
        assert_eq!(h.quantile(1.0), 123_457);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_saturates_at_top_bucket() {
        // Values past the 2^40 design range all land in the final bucket:
        // counts stay exact, quantiles clamp to the true max, no panic.
        let mut h = Histogram::new();
        h.record(1 << 50);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Both samples share the saturated bucket, so quantiles clamp into
        // the exact [min, max] envelope instead of the bucket bound.
        for q in [0.01, 0.5, 1.0] {
            let v = h.quantile(q);
            assert!(v >= 1 << 50, "q={q} v={v}");
        }
    }

    #[test]
    fn histogram_merge_then_percentile_equivalence() {
        // Recording a stream into one histogram and recording its halves
        // into two then merging must agree on every summary statistic.
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=10_000u64 {
            let v = v * 37; // spread across buckets
            whole.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn a_histogram_owns_only_the_ranges_it_recorded() {
        let mut h = Histogram::new();
        assert_eq!(h.buckets.capacity(), 0);
        h.record(5);
        assert_eq!(h.buckets.capacity(), 64, "the linear range alone");
        h.record(100_000); // 2^16 <= 100 000 < 2^17: the range ending at 768
        assert_eq!(h.buckets.capacity(), 768);
        h.record(u64::MAX);
        assert_eq!(h.buckets.capacity(), N_BUCKETS);
        // Merging into an empty histogram grows it to the other's length.
        let mut e = Histogram::new();
        e.merge(&h);
        assert_eq!(e.buckets.len(), N_BUCKETS);
        assert_eq!((e.count(), e.min(), e.max()), (3, 5, u64::MAX));
    }

    /// splitmix64: a tiny deterministic generator for the property test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn any_order_and_split_merges_to_the_whole() {
        // Samples from every scale the buckets cover (and past it), fed to
        // one histogram, and — shuffled — to up to five parts of different
        // bucket lengths merged in a random order, must summarise alike.
        for seed in 0..200u64 {
            let mut st = seed;
            let n = 1 + next(&mut st) % 300;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| next(&mut st) >> (next(&mut st) % 64))
                .collect();
            let mut whole = Histogram::new();
            samples.iter().for_each(|&v| whole.record(v));
            for i in (1..samples.len()).rev() {
                samples.swap(i, (next(&mut st) % (i as u64 + 1)) as usize);
            }
            let k = 1 + (next(&mut st) % 5) as usize;
            let mut parts = vec![Histogram::new(); k];
            for &v in &samples {
                parts[(next(&mut st) % k as u64) as usize].record(v);
            }
            let mut merged = parts.swap_remove((next(&mut st) % k as u64) as usize);
            while !parts.is_empty() {
                let i = (next(&mut st) % parts.len() as u64) as usize;
                merged.merge(&parts.swap_remove(i));
            }
            assert_eq!(merged.count(), whole.count(), "seed {seed}");
            assert_eq!(merged.min(), whole.min(), "seed {seed}");
            assert_eq!(merged.max(), whole.max(), "seed {seed}");
            assert_eq!(merged.mean(), whole.mean(), "seed {seed}");
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(merged.quantile(q), whole.quantile(q), "seed {seed} q={q}");
            }
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }
}
