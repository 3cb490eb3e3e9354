//! The Myrinet/GM cost model.
//!
//! Calibration follows the paper's own numbers (§3.3, §5): "a single
//! optimized RMI may cost as little as 40 microseconds" on Myrinet —
//! i.e. ~20 µs per one-way message. Myrinet (Boden et al.) is a
//! gigabit-class network, so the per-byte cost is modeled at 1 Gbit/s.

/// Network cost model that converts measured message and byte counts into
/// modeled wire time. Only the wire is modeled: everything else a run does
/// is executed, and timed, for real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed one-way per-message latency in nanoseconds.
    pub latency_ns: u64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency_ns: 20_000,                   // 20 µs one-way ⇒ ~40 µs RMI
            bandwidth_bytes_per_sec: 125_000_000, // 1 Gbit/s Myrinet
        }
    }
}

impl CostModel {
    /// Modeled wire time for one message of `bytes` payload bytes.
    pub fn message_ns(&self, bytes: u64) -> u64 {
        self.latency_ns + bytes.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec
    }

    /// A free, infinitely fast network (for unit tests that only need
    /// functional behaviour).
    pub fn free() -> Self {
        CostModel { latency_ns: 0, bandwidth_bytes_per_sec: u64::MAX }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_calibration() {
        let c = CostModel::default();
        // one round trip with tiny payload ≈ 40 µs (paper §3.3)
        assert_eq!(2 * c.message_ns(0), 40_000);
        // 1 MB transfer ≈ 8 ms at 1 Gbit/s
        let ns = c.message_ns(1_000_000) - c.latency_ns;
        assert_eq!(ns, 8_000_000);
    }

    #[test]
    fn free_model_is_zero() {
        let c = CostModel::free();
        assert_eq!(c.message_ns(1 << 30), 0);
    }
}
