//! Log-linear latency histograms on the virtual clock.
//!
//! The paper's thesis is that profiles — cheap, always-on measurements —
//! are what let an optimizer act; `Histogram` is the operational
//! counterpart for latency. It is a fixed-size log-linear histogram
//! (8 linear sub-buckets per power-of-two octave), so recording is O(1)
//! with no allocation, quantile estimates carry a proven ≤12.5% relative
//! error bound, and two histograms merge by element-wise addition —
//! which makes per-session histograms aggregate associatively across
//! sessions and servers.

/// Values below this are counted exactly (one bucket per value).
const LINEAR_MAX: u64 = 8;
/// log2 of the sub-buckets per octave; the quantile error bound is
/// `2^-SUB_BITS` (12.5%) of the true value.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear region: magnitudes 3..=63.
const OCTAVES: usize = 61;
/// Total bucket count (8 exact + 61 octaves × 8 sub-buckets).
pub const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUB;

/// A mergeable log-linear histogram of `u64` samples (latencies in
/// virtual-clock nanoseconds, durations, sizes…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value falls into.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let m = 63 - v.leading_zeros(); // 3..=63
        let sub = ((v >> (m - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        LINEAR_MAX as usize + (m as usize - SUB_BITS as usize) * SUB + sub
    }
}

/// Inclusive lower bound of bucket `b` (the smallest value mapping to it).
fn bucket_lower(b: usize) -> u64 {
    if b < LINEAR_MAX as usize {
        b as u64
    } else {
        let rel = b - LINEAR_MAX as usize;
        let m = (rel / SUB) as u32 + SUB_BITS;
        let sub = (rel % SUB) as u64;
        (1u64 << m) + (sub << (m - SUB_BITS))
    }
}

/// Width of bucket `b` (number of distinct values mapping to it).
fn bucket_width(b: usize) -> u64 {
    if b < 2 * LINEAR_MAX as usize {
        1
    } else {
        let m = ((b - LINEAR_MAX as usize) / SUB) as u32 + SUB_BITS;
        1u64 << (m - SUB_BITS)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimate of the `q`-quantile (`0.0 < q <= 1.0`) as the inclusive
    /// upper bound of the bucket holding the rank-`ceil(q·count)` sample.
    /// The estimate `e` satisfies `t <= e` and `8·(e − t) <= t` for the
    /// true order statistic `t` (≤12.5% relative overestimate); values in
    /// the linear region are exact. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // `lower + (width − 1)`: the top bucket's exclusive end is
                // 2^64, so adding width first would overflow.
                return bucket_lower(b) + (bucket_width(b) - 1);
            }
        }
        self.max
    }

    /// Element-wise merge: the histogram of the union of both sample
    /// sets. Associative and commutative, which is what lets per-session
    /// histograms roll up across sessions in any grouping.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// (bucket lower bound, count) for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_lower(b), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_width(v as usize), 1);
        }
        // The first octave (8..15) is also exact: width 1.
        for v in 8..16u64 {
            assert_eq!(bucket_lower(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_boundaries_tile_the_domain() {
        // Consecutive buckets must tile [0, 2^63·…) with no gap or overlap.
        for b in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_lower(b) + bucket_width(b),
                bucket_lower(b + 1),
                "gap/overlap between buckets {b} and {}",
                b + 1
            );
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_value_maps_into_its_own_bucket_range() {
        for shift in 0..63 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add(off);
                let b = bucket_index(v);
                let lo = bucket_lower(b);
                assert!(lo <= v && v < lo + bucket_width(b), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn quantiles_and_max() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        assert!((500..=563).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1114).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for v in [0u64, 5, 17, 900, 1 << 40] {
            a.record(v);
            u.record(v);
        }
        for v in [3u64, 17, 65_535] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }
}
