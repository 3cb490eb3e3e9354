//! Cluster-wide RMI statistics — the raw counters behind the paper's
//! Tables 4, 6 and 8 (reused objs / local rpcs / remote rpcs /
//! new MBytes / cycle lookups) plus serializer-invocation counts ("a
//! notable reduction has been made due to method inlining", §5.2).

use std::sync::atomic::{AtomicU64, Ordering};

/// One paper counter, as the surfaces that list them all see it: `name` is its field in
/// [`RmiStats`] / [`StatsSnapshot`] and its key in `BENCH_tables.json`, `family` and `help`
/// its Prometheus exposition.
pub struct Counter {
    pub name: &'static str,
    pub family: &'static str,
    pub help: &'static str,
    pub get: fn(&StatsSnapshot) -> &u64,
    pub get_mut: fn(&mut StatsSnapshot) -> &mut u64,
}

/// The counter table. A row — field, Prometheus family, help (also the field's doc) — is the
/// only place a counter is spelled out: the live atomics, the snapshot, its arithmetic and
/// [`COUNTERS`] are generated from it, in row order, which is every surface's column order.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident: $family:literal, $help:literal;)*) => {
        /// Atomic counters shared by all machines of a cluster run.
        #[derive(Debug, Default)]
        pub struct RmiStats {
            $(#[doc = $help] $(#[$doc])* pub $field: AtomicU64,)*
        }

        /// A plain-value copy of the counters at one instant.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[doc = $help] pub $field: u64,)*
        }

        /// Every paper counter, for the surfaces that walk them all.
        pub const COUNTERS: &[Counter] = &[$(Counter {
            name: stringify!($field), family: $family, help: $help,
            get: |s| &s.$field, get_mut: |s| &mut s.$field,
        },)*];

        impl RmiStats {
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }

        /// Pointwise sum: per-machine shards into the cluster snapshot (`corm-obs`).
        impl std::ops::Add for StatsSnapshot {
            type Output = StatsSnapshot;
            fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($field: self.$field + rhs.$field,)* }
            }
        }

        impl std::ops::Sub for StatsSnapshot {
            type Output = StatsSnapshot;
            fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($field: self.$field - rhs.$field,)* }
            }
        }
    };
}

counters! {
    /// (Still cloned through serialization, per RMI semantics.)
    local_rpcs: "corm_local_rpcs_total", "RMIs whose target lived on the calling machine";
    remote_rpcs: "corm_remote_rpcs_total", "RMIs that crossed machines";
    reused_objs: "corm_reused_objects_total", "Objects recycled by the reuse caches";
    cycle_lookups: "corm_cycle_lookups_total", "Cycle-table lookups in (de)serializers";
    /// Inlined call-site-specific serialization does not count — that is
    /// the reduction the paper attributes to inlining.
    ser_invocations: "corm_ser_invocations_total", "Dynamic serializer-routine invocations";
    wire_bytes: "corm_wire_bytes_total", "Payload bytes sent onto the simulated network";
    type_info_bytes: "corm_type_info_bytes_total",
        "Dynamic type-information bytes within wire bytes";
    /// Requests, replies, acks and spawns.
    messages: "corm_messages_total", "Network messages sent";
    deser_bytes: "corm_deser_bytes_total", "Bytes allocated by deserialization";
    deser_allocs: "corm_deser_allocs_total", "Objects allocated by deserialization";
}

impl RmiStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// "new (MBytes)" column of Tables 4/6/8.
    pub fn new_mbytes(&self) -> f64 {
        self.deser_bytes as f64 / (1024.0 * 1024.0)
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
