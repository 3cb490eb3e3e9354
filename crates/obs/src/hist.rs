//! Fixed-bucket log-linear histograms.
//!
//! Latency and payload-size distributions are heavy-tailed; the layout
//! covers nanoseconds-to-minutes (or bytes-to-gigabytes) with two atomic
//! adds per observation (its bucket and the sum) and no allocation on the
//! hot path.
//!
//! The original layout was pure log2 — one bucket per power of two —
//! which bounds any reported quantile only to within 2× of the true
//! value: far too coarse to gate a p99 SLO. This version subdivides
//! every octave into [`SUB_BUCKETS`] linear sub-buckets
//! (HdrHistogram-style log-linear), bounding the relative quantization
//! error of a reported quantile by `1 / SUB_BUCKETS` (25%) instead.
//!
//! Layout, in order:
//!
//! * buckets `0..4`: exact, one per value `0, 1, 2, 3`;
//! * for each octave `o` in `2..=31` (values `[2^o, 2^(o+1))`), four
//!   sub-buckets of width `2^(o-2)`;
//! * one overflow bucket for values `>= 2^32` (~71 minutes in µs, 4 GiB
//!   in bytes).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (a power of two).
pub const SUB_BUCKETS: usize = 4;

/// Lowest subdivided octave: values below `2^MIN_OCTAVE` get exact
/// buckets, one per value.
const MIN_OCTAVE: usize = 2;

/// One past the highest subdivided octave; `2^MAX_OCTAVE` and above land
/// in the overflow bucket.
const MAX_OCTAVE: usize = 32;

/// Total number of buckets: the exact range, the subdivided octaves and
/// the overflow bucket.
pub const NBUCKETS: usize = SUB_BUCKETS + (MAX_OCTAVE - MIN_OCTAVE) * SUB_BUCKETS + 1;

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label);
/// `None` for the overflow bucket (`+Inf`).
pub fn bucket_le(i: usize) -> Option<u64> {
    if i < SUB_BUCKETS {
        return Some(i as u64);
    }
    if i >= NBUCKETS - 1 {
        return None;
    }
    let k = i - SUB_BUCKETS;
    let o = k / SUB_BUCKETS + MIN_OCTAVE;
    let sub = (k % SUB_BUCKETS) as u64;
    Some(((sub + SUB_BUCKETS as u64 + 1) << (o - MIN_OCTAVE)) - 1)
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    if i >= NBUCKETS - 1 {
        return 1u64 << MAX_OCTAVE;
    }
    let k = i - SUB_BUCKETS;
    let o = k / SUB_BUCKETS + MIN_OCTAVE;
    let sub = (k % SUB_BUCKETS) as u64;
    (sub + SUB_BUCKETS as u64) << (o - MIN_OCTAVE)
}

/// A lock-free log-linear histogram: [`NBUCKETS`] buckets plus a running
/// sum; the count is the buckets' total. (The name predates the sub-bucket
/// layout; the buckets are log2 octaves, each split linearly.)
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [const { AtomicU64::new(0) }; NBUCKETS], sum: AtomicU64::new(0) }
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let o = 63 - v.leading_zeros() as usize; // floor(log2 v) >= MIN_OCTAVE
        if o >= MAX_OCTAVE {
            return NBUCKETS - 1;
        }
        let sub = ((v >> (o - MIN_OCTAVE)) as usize) & (SUB_BUCKETS - 1);
        SUB_BUCKETS + (o - MIN_OCTAVE) * SUB_BUCKETS + sub
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NBUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        let count = buckets.iter().sum();
        HistSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed), count }
    }
}

/// Plain-value copy of a histogram at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; NBUCKETS],
    pub sum: u64,
    pub count: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: [0; NBUCKETS], sum: 0, count: 0 }
    }
}

impl HistSnapshot {
    /// Merge another snapshot into this one (cluster aggregation).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (0.0..=1.0), reported as the upper bound of
    /// the bucket holding the rank — at most `1/SUB_BUCKETS` (25%) above
    /// the true value for in-range observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return bucket_le(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Smallest recorded bucket's lower bound (0 when empty).
    pub fn min_lower(&self) -> u64 {
        self.buckets.iter().position(|&c| c > 0).map(bucket_lower).unwrap_or(0)
    }

    /// Largest recorded bucket's upper bound (0 when empty, `u64::MAX`
    /// when the overflow bucket is occupied).
    pub fn max_le(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| bucket_le(i).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range_is_identity() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(Log2Histogram::index(v), v as usize);
            assert_eq!(bucket_le(v as usize), Some(v));
            assert_eq!(bucket_lower(v as usize), v);
        }
    }

    #[test]
    fn indexing_matches_log_linear_layout() {
        // First subdivided octave: width-1 sub-buckets, still exact.
        assert_eq!(Log2Histogram::index(4), 4);
        assert_eq!(Log2Histogram::index(7), 7);
        // Octave 3: [8,16) in four width-2 sub-buckets.
        assert_eq!(Log2Histogram::index(8), 8);
        assert_eq!(Log2Histogram::index(9), 8);
        assert_eq!(Log2Histogram::index(10), 9);
        assert_eq!(Log2Histogram::index(15), 11);
        // 1000 is in octave 9 ([512,1024)), sub-bucket 3 ([960,1023]).
        assert_eq!(Log2Histogram::index(1000), 4 + 7 * SUB_BUCKETS + 3);
        assert_eq!(Log2Histogram::index(1024), 4 + 8 * SUB_BUCKETS);
        assert_eq!(Log2Histogram::index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn powers_of_two_start_their_octave() {
        // Satellite: every power of two is the lower edge of its octave's
        // first sub-bucket.
        for o in 2..32usize {
            let v = 1u64 << o;
            let i = Log2Histogram::index(v);
            assert_eq!(i, SUB_BUCKETS + (o - 2) * SUB_BUCKETS, "2^{o}");
            assert_eq!(bucket_lower(i), v, "2^{o} must open its bucket");
            // One below the power of two closes the previous octave.
            assert_eq!(bucket_le(Log2Histogram::index(v - 1)), Some(v - 1), "2^{o}-1");
        }
    }

    #[test]
    fn bucket_edges_roundtrip_through_index() {
        // Satellite: each bucket's lower and upper bound both index back
        // to the bucket itself, and consecutive bounds tile the range.
        for i in 0..NBUCKETS - 1 {
            let lo = bucket_lower(i);
            let le = bucket_le(i).unwrap();
            assert!(lo <= le, "bucket {i}");
            assert_eq!(Log2Histogram::index(lo), i, "lower bound of bucket {i}");
            assert_eq!(Log2Histogram::index(le), i, "upper bound of bucket {i}");
            assert_eq!(bucket_lower(i + 1), le + 1, "buckets must tile: {i}");
        }
        // Overflow bucket: everything at or above 2^32.
        assert_eq!(bucket_le(NBUCKETS - 1), None);
        assert_eq!(bucket_lower(NBUCKETS - 1), 1u64 << 32);
        assert_eq!(Log2Histogram::index(1u64 << 32), NBUCKETS - 1);
        assert_eq!(Log2Histogram::index((1u64 << 32) - 1), NBUCKETS - 2);
    }

    #[test]
    fn quantization_error_is_bounded() {
        // The reported upper bound exceeds the bucket's lower bound by at
        // most 1/SUB_BUCKETS of the true value, for every in-range bucket.
        for i in SUB_BUCKETS..NBUCKETS - 1 {
            let lo = bucket_lower(i) as f64;
            let le = bucket_le(i).unwrap() as f64;
            assert!(
                (le - lo) / lo <= 1.0 / SUB_BUCKETS as f64,
                "bucket {i}: [{lo}, {le}] wider than 25%"
            );
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Log2Histogram::new();
        for v in [0, 1, 2, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1008);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 1); // 2
        assert_eq!(s.buckets[5], 1); // 5
        assert_eq!(s.buckets[4 + 7 * SUB_BUCKETS + 3], 1); // 1000
        assert!((s.mean() - 201.6).abs() < 1e-9);
    }

    #[test]
    fn count_is_the_number_of_records_in_every_bucket_range() {
        let h = Log2Histogram::new();
        let values = [0, 0, 700, 1u64 << 40];
        for v in values {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, values.len() as u64);
        assert_eq!(s.sum, 700 + (1u64 << 40));
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[NBUCKETS - 1], 1, "the overflow bucket counts too");
    }

    #[test]
    fn merge_adds_pointwise() {
        let a = Log2Histogram::new();
        let b = Log2Histogram::new();
        a.record(3);
        b.record(3);
        b.record(100);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[3], 2);
    }

    #[test]
    fn bucket_bounds_cover_the_index() {
        for v in [0u64, 1, 7, 8, 100, 500_000, (1 << 32) - 1] {
            let i = Log2Histogram::index(v);
            assert!(v >= bucket_lower(i), "{v} must be >= its bucket lower bound");
            if let Some(le) = bucket_le(i) {
                assert!(v <= le, "{v} must be <= its bucket bound {le}");
            }
        }
        assert_eq!(bucket_le(NBUCKETS - 1), None);
    }

    #[test]
    fn quantiles_are_monotone_and_tight() {
        let h = Log2Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) <= s.quantile(0.99));
        assert!(s.quantile(0.99) <= s.quantile(0.999));
        // True p99 of 0..100 is 98; the [96,111] sub-bucket bounds the
        // report to 111 — within the 25% quantization guarantee (the old
        // pure-log2 layout reported 127 here).
        assert_eq!(s.quantile(0.99), 111);
        assert!(s.quantile(0.5) <= 63 && s.quantile(0.5) >= 49);
    }

    #[test]
    fn min_max_bounds_track_occupied_buckets() {
        let h = Log2Histogram::new();
        assert_eq!(h.snapshot().min_lower(), 0);
        assert_eq!(h.snapshot().max_le(), 0);
        h.record(10);
        h.record(3000);
        let s = h.snapshot();
        assert_eq!(s.min_lower(), 10);
        assert!(s.max_le() >= 3000 && s.max_le() < 3000 + 3000 / 4 + 1);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().max_le(), u64::MAX);
    }
}
