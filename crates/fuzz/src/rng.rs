//! Deterministic splitmix64 RNG — no external crates, stable across
//! platforms, so a seed printed in CI reproduces the exact program.

/// [`corm_vm::builtins::splitmix64`] as a stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        corm_vm::builtins::splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`). Modulo bias is irrelevant for fuzzing.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_well_mixed() {
        let mut a = SplitMix::new(0xC0DE);
        let mut b = SplitMix::new(0xC0DE);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // adjacent outputs differ (trivial sanity, not a statistical test)
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn range_bounds() {
        let mut r = SplitMix::new(7);
        for _ in 0..1000 {
            let v = r.range(3, 9);
            assert!((3..=9).contains(&v));
        }
    }
}
