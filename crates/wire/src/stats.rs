//! Cluster-wide RMI statistics — the raw counters behind the paper's
//! Tables 4, 6 and 8 (reused objs / local rpcs / remote rpcs /
//! new MBytes / cycle lookups) plus serializer-invocation counts ("a
//! notable reduction has been made due to method inlining", §5.2).

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters shared by all machines of a cluster run.
#[derive(Debug, Default)]
pub struct RmiStats {
    /// RMIs whose target object lived on the calling machine (still
    /// cloned through serialization, per RMI semantics).
    pub local_rpcs: AtomicU64,
    /// RMIs that crossed machines.
    pub remote_rpcs: AtomicU64,
    /// Objects recycled by the reuse caches instead of being reallocated.
    pub reused_objs: AtomicU64,
    /// Cycle-table lookups performed by serializers/deserializers.
    pub cycle_lookups: AtomicU64,
    /// Invocations of (per-class or introspective) serialization routines.
    /// Inlined call-site-specific serialization does not count — that is
    /// the reduction the paper attributes to inlining.
    pub ser_invocations: AtomicU64,
    /// Total payload bytes that crossed the (simulated) network.
    pub wire_bytes: AtomicU64,
    /// Bytes of dynamic type information within `wire_bytes`.
    pub type_info_bytes: AtomicU64,
    /// Network messages sent (requests + replies + acks + spawns).
    pub messages: AtomicU64,
    /// Bytes allocated by deserialization (aggregated from machine heaps).
    pub deser_bytes: AtomicU64,
    /// Objects allocated by deserialization.
    pub deser_allocs: AtomicU64,
}

impl RmiStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            local_rpcs: self.local_rpcs.load(Ordering::Relaxed),
            remote_rpcs: self.remote_rpcs.load(Ordering::Relaxed),
            reused_objs: self.reused_objs.load(Ordering::Relaxed),
            cycle_lookups: self.cycle_lookups.load(Ordering::Relaxed),
            ser_invocations: self.ser_invocations.load(Ordering::Relaxed),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            type_info_bytes: self.type_info_bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            deser_bytes: self.deser_bytes.load(Ordering::Relaxed),
            deser_allocs: self.deser_allocs.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub local_rpcs: u64,
    pub remote_rpcs: u64,
    pub reused_objs: u64,
    pub cycle_lookups: u64,
    pub ser_invocations: u64,
    pub wire_bytes: u64,
    pub type_info_bytes: u64,
    pub messages: u64,
    pub deser_bytes: u64,
    pub deser_allocs: u64,
}

impl StatsSnapshot {
    /// "new (MBytes)" column of Tables 4/6/8.
    pub fn new_mbytes(&self) -> f64 {
        self.deser_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Pointwise sum — aggregating per-machine shards into the cluster
/// snapshot (see `corm-obs`).
impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            local_rpcs: self.local_rpcs + rhs.local_rpcs,
            remote_rpcs: self.remote_rpcs + rhs.remote_rpcs,
            reused_objs: self.reused_objs + rhs.reused_objs,
            cycle_lookups: self.cycle_lookups + rhs.cycle_lookups,
            ser_invocations: self.ser_invocations + rhs.ser_invocations,
            wire_bytes: self.wire_bytes + rhs.wire_bytes,
            type_info_bytes: self.type_info_bytes + rhs.type_info_bytes,
            messages: self.messages + rhs.messages,
            deser_bytes: self.deser_bytes + rhs.deser_bytes,
            deser_allocs: self.deser_allocs + rhs.deser_allocs,
        }
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            local_rpcs: self.local_rpcs - rhs.local_rpcs,
            remote_rpcs: self.remote_rpcs - rhs.remote_rpcs,
            reused_objs: self.reused_objs - rhs.reused_objs,
            cycle_lookups: self.cycle_lookups - rhs.cycle_lookups,
            ser_invocations: self.ser_invocations - rhs.ser_invocations,
            wire_bytes: self.wire_bytes - rhs.wire_bytes,
            type_info_bytes: self.type_info_bytes - rhs.type_info_bytes,
            messages: self.messages - rhs.messages,
            deser_bytes: self.deser_bytes - rhs.deser_bytes,
            deser_allocs: self.deser_allocs - rhs.deser_allocs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_the_counters() {
        let s = RmiStats::new();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        RmiStats::bump(&s.remote_rpcs, 3);
        RmiStats::bump(&s.wire_bytes, 100);
        let snap = s.snapshot();
        assert_eq!(snap.remote_rpcs, 3);
        assert_eq!(snap.wire_bytes, 100);
    }

    #[test]
    fn snapshot_diff() {
        let s = RmiStats::new();
        RmiStats::bump(&s.messages, 5);
        let a = s.snapshot();
        RmiStats::bump(&s.messages, 2);
        let b = s.snapshot();
        assert_eq!((b - a).messages, 2);
    }

    #[test]
    fn snapshot_sum() {
        let a = StatsSnapshot { messages: 2, wire_bytes: 10, ..Default::default() };
        let b = StatsSnapshot { messages: 3, reused_objs: 1, ..Default::default() };
        let c = a + b;
        assert_eq!(c.messages, 5);
        assert_eq!(c.wire_bytes, 10);
        assert_eq!(c.reused_objs, 1);
    }

    #[test]
    fn mbytes() {
        let snap = StatsSnapshot { deser_bytes: 3 * 1024 * 1024, ..Default::default() };
        assert!((snap.new_mbytes() - 3.0).abs() < 1e-9);
    }
}
