//! The sharded metrics registry.
//!
//! The seed implementation kept one cluster-global [`RmiStats`] that
//! every machine bumped; this registry shards the same counters per
//! machine (each machine's RMI path bumps only its own cache-local
//! shard) and adds latency/size histograms, plus per-call-site scopes.
//! [`MetricsRegistry::cluster_snapshot`] sums the shards back into the
//! exact [`StatsSnapshot`] the paper's tables are printed from — the
//! aggregation is bit-identical to the old global counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corm_wire::{Counter, RmiStats, StatsSnapshot, COUNTERS};
use parking_lot::Mutex;

use crate::hist::{HistSnapshot, Log2Histogram};
use crate::timeline::TimelineState;

/// How a declared metric is read out of a scope's snapshot `S`; the
/// variant is also its Prometheus `# TYPE`.
pub(crate) enum Read<S> {
    /// Monotone count (`_total` families).
    Counter(fn(&S) -> &u64),
    /// Point-in-time level that may shrink.
    Gauge(fn(&S) -> &u64),
    /// Log-linear distribution.
    Histogram(fn(&S) -> &HistSnapshot),
}

/// One declared metric: its exposition family, help text and reader.
/// [`crate::prometheus`] walks tables of these; nothing else knows which
/// series exist.
pub(crate) struct Metric<S> {
    pub family: &'static str,
    pub help: &'static str,
    pub read: Read<S>,
}

macro_rules! cell {
    (Histogram) => {
        Log2Histogram
    };
    ($scalar:ident) => {
        AtomicU64
    };
}
macro_rules! plain {
    (Histogram) => {
        HistSnapshot
    };
    ($scalar:ident) => {
        u64
    };
}
macro_rules! load {
    (Histogram, $cell:expr) => {
        $cell.snapshot()
    };
    ($scalar:ident, $cell:expr) => {
        $cell.load(Ordering::Relaxed)
    };
}
/// A const table of [`Metric`]s over the snapshot type `$scope`, one
/// `field: Kind, "family", "help";` row per metric.
macro_rules! metric_table {
    ($(#[$doc:meta])* $name:ident: $scope:ty {
        $($field:ident: $kind:ident, $family:literal, $help:literal;)*
    }) => {
        $(#[$doc])*
        pub(crate) const $name: &[Metric<$scope>] = &[
            $(Metric { family: $family, help: $help, read: Read::$kind(|s| &s.$field) },)*
        ];
    };
}

/// The per-machine metric table. Each entry — doc comment, field name,
/// kind, Prometheus family, help text — is the only place that metric is
/// spelled out: the live shard, its plain-value snapshot, the snapshot
/// copy and the exposition are all generated from it, in this order.
macro_rules! machine_metrics {
    ($($(#[$doc:meta])* $field:ident: $kind:ident, $family:literal, $help:literal;)*) => {
        /// One machine's metrics shard: the Tables 4/6/8 counters plus the
        /// phase-latency and payload-size distributions observed on it.
        #[derive(Debug, Default)]
        pub struct MachineMetrics {
            /// The paper's counters, scoped to this machine.
            pub stats: RmiStats,
            $($(#[$doc])* pub $field: cell!($kind),)*
        }

        /// Plain-value copy of one machine shard.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct MachineSnapshot {
            pub stats: StatsSnapshot,
            $($(#[$doc])* pub $field: plain!($kind),)*
        }

        impl MachineMetrics {
            fn snapshot(&self) -> MachineSnapshot {
                MachineSnapshot {
                    stats: self.stats.snapshot(),
                    $($field: load!($kind, self.$field),)*
                }
            }

            /// Add `base + k` to the `k`-th declared metric (1-based), so a
            /// test can tell every field apart after a snapshot.
            #[cfg(test)]
            fn bump_each(&self, base: u64) {
                let mut v = base;
                $(v += 1; tests::Bump::bump(&self.$field, v);)*
            }
        }

        metric_table! {
            MACHINE_METRICS: MachineSnapshot { $($field: $kind, $family, $help;)* }
        }
    };
}

machine_metrics! {
    /// Shadow-table cycle-freedom checks performed by the runtime auditor
    /// on this machine (`RunOptions::audit`). Zero when auditing is off.
    audit_checks: Counter, "corm_audit_checks_total",
        "Shadow cycle-table checks performed by the runtime auditor";
    /// Shadow tables the auditor created on this machine: one per
    /// marshaled message whose plan elided the real cycle table.
    audit_tables: Counter, "corm_audit_tables_total",
        "Shadow cycle tables created by the runtime auditor";
    /// Reuse-cache values (primitive slots, array elements, strings)
    /// poisoned by the auditor on this machine before deserialization
    /// reclaimed them. Zero when auditing is off; a healthy build
    /// overwrites every poisoned slot from the wire.
    audit_poisons: Counter, "corm_audit_poisons_total",
        "Reuse-cache values poisoned by the auditor before reclamation";
    /// Marshal-buffer pool checkouts served by a recycled buffer.
    pool_hits: Counter, "corm_pool_hits_total",
        "Marshal-buffer checkouts served by a recycled buffer";
    /// Pool checkouts that had to allocate (includes cold misses).
    pool_misses: Counter, "corm_pool_misses_total",
        "Marshal-buffer checkouts that allocated (includes cold misses)";
    /// The subset of `pool_misses` that built the pool's working set: the
    /// first allocations for a (site, lane) key up to the per-key
    /// retention cap. `pool_misses - pool_cold_misses` is the
    /// steady-state miss count the alloc gate budgets at zero.
    pool_cold_misses: Counter, "corm_pool_cold_misses_total",
        "Marshal-buffer misses that built the pool's working set";
    /// Bytes of buffer capacity currently parked in this machine's pool
    /// shard (grows on put, shrinks on checkout).
    pool_resident_bytes: Gauge, "corm_pool_resident_bytes",
        "Buffer capacity currently parked in the marshal pool";
    /// Caller-observed RMI round-trip time, µs.
    rtt_us: Histogram, "corm_rmi_rtt_microseconds", "Caller-observed RMI round-trip time";
    /// Argument-marshal time at calling sites, µs.
    marshal_us: Histogram, "corm_marshal_microseconds", "Argument-marshal time at calling sites";
    /// Unmarshal time (args on the serving side, returns on the calling
    /// side), µs.
    unmarshal_us: Histogram, "corm_unmarshal_microseconds", "Unmarshal time (args and returns)";
    /// User-method execution time on the serving side, µs.
    invoke_us: Histogram, "corm_invoke_microseconds", "Served user-method execution time";
    /// Server-side queueing delay: time an incoming request spent
    /// between the drain loop receiving it and its handler starting, µs —
    /// zero-length for a two-way request, which the thread that drained it
    /// serves; a one-way request's includes the start of its own thread.
    queue_us: Histogram, "corm_queue_microseconds",
        "Server-side queueing delay between packet arrival and handler start";
    /// Request payload bytes leaving this machine.
    payload_bytes: Histogram, "corm_rmi_payload_bytes", "Request payload size";
    /// Two-way RMIs started from this machine (throughput numerator).
    requests_started: Counter, "corm_requests_started_total", "Two-way RMIs started (throughput)";
    /// Two-way RMIs completed successfully from this machine (goodput).
    requests_completed: Counter, "corm_requests_completed_total",
        "Two-way RMIs completed successfully (goodput)";
    /// Two-way RMIs currently awaiting a reply (incremented at send,
    /// decremented when the reply is consumed or fails).
    in_flight: Gauge, "corm_in_flight_requests", "Two-way RMIs currently awaiting a reply";
    /// Lossy backend: datagram copies this machine re-sent because no
    /// ack arrived before the retransmission timer fired. Charged to the
    /// *sending* machine's shard; zero on the reliable backends.
    lossy_retransmits: Counter, "corm_lossy_retransmits_total",
        "Datagram copies re-sent by the lossy transport's retransmission timers";
    /// Lossy backend: received datagram copies discarded as duplicates
    /// (sequence number already delivered or already buffered). Charged
    /// to the *receiving* machine's shard.
    lossy_dups_suppressed: Counter, "corm_lossy_dups_suppressed_total",
        "Duplicate datagram copies discarded by the receiver";
    /// Bytes sitting in this machine's reactor outbound buffers: what a
    /// full socket has not taken yet (zero unless a peer is slow to read).
    reactor_queued_bytes: Gauge, "corm_reactor_queued_bytes",
        "Bytes currently buffered in reactor output queues";
    /// Pool-ledger entries currently outstanding: buffers checked out
    /// under a request id and not yet returned or abandoned, about one
    /// per two-way call in flight (zero once they return: `tests/pool_reuse.rs`).
    pool_outstanding: Gauge, "corm_pool_outstanding",
        "Marshal buffers checked out and not yet returned";
    /// Collections of this machine's heap: the pacer's and `System.gc()`'s.
    gc_runs: Counter, "corm_gc_runs_total", "Garbage collections of the machine's heap";
    /// How long each collection held the machine lock, µs: with a collection
    /// at a request's end, the first place to look when a machine's tail grows.
    gc_pause_us: Histogram, "corm_gc_pause_us", "Machine-lock hold time of one collection";
    /// Modeled bytes live after the last collection: flat under steady
    /// serving, whatever the configuration allocates per call.
    heap_live_bytes: Gauge, "corm_heap_live_bytes",
        "Modeled heap bytes live after the last collection";
}

/// The ten paper counters of [`RmiStats`] (Tables 4/6/8), exposed per
/// machine: `corm_wire`'s table, row for row.
pub(crate) fn paper_counters() -> Vec<Metric<StatsSnapshot>> {
    let metric =
        |c: &Counter| Metric { family: c.family, help: c.help, read: Read::Counter(c.get) };
    COUNTERS.iter().map(metric).collect()
}

/// Per-call-site metrics (cluster-wide scope: a site's calls may
/// originate on any machine).
#[derive(Debug, Default)]
pub struct SiteMetrics {
    pub calls: AtomicU64,
    pub rtt_us: Log2Histogram,
    pub payload_bytes: Log2Histogram,
}

metric_table! {
    /// The three [`SiteMetrics`] series, exposed per call site.
    SITE_METRICS: SiteSnapshot {
        calls: Counter, "corm_site_calls_total", "RMIs issued per remote call site";
        rtt_us: Histogram, "corm_site_rtt_microseconds", "Round-trip time per remote call site";
        payload_bytes: Histogram, "corm_site_payload_bytes",
            "Request payload size per remote call site";
    }
}

/// The cluster's metrics: one shard per machine, fixed at cluster
/// creation, plus a lazily-populated per-call-site table.
#[derive(Debug)]
pub struct MetricsRegistry {
    machines: Vec<MachineMetrics>,
    sites: Mutex<HashMap<u32, Arc<SiteMetrics>>>,
    timeline: TimelineState,
}

impl MetricsRegistry {
    pub fn new(machines: usize) -> Self {
        MetricsRegistry {
            machines: (0..machines).map(|_| MachineMetrics::default()).collect(),
            sites: Mutex::new(HashMap::new()),
            timeline: TimelineState::new(machines),
        }
    }

    /// The registry's timeline plane: per-machine sample rings filled by
    /// the background sampler (DESIGN §7.4).
    pub fn timeline(&self) -> &TimelineState {
        &self.timeline
    }

    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The shard for `machine`. Hot path: no locking.
    #[inline]
    pub fn machine(&self, machine: u16) -> &MachineMetrics {
        &self.machines[machine as usize]
    }

    /// The per-site scope for `site`, created on first use. Takes the
    /// registry-wide site lock: resolve once per RMI and hold the `Arc`.
    pub fn site(&self, site: u32) -> Arc<SiteMetrics> {
        self.sites.lock().entry(site).or_default().clone()
    }

    /// Sum the per-machine shards into the cluster-global snapshot —
    /// the exact quantity the seed's single `RmiStats` produced.
    pub fn cluster_snapshot(&self) -> StatsSnapshot {
        self.machines.iter().fold(StatsSnapshot::default(), |acc, m| acc + m.stats.snapshot())
    }

    /// Plain-value copy of one machine shard, lock-free. The sampler
    /// calls this every tick, so it deliberately skips the site table
    /// (which would take the `sites` mutex).
    pub fn machine_snapshot(&self, machine: u16) -> MachineSnapshot {
        self.machines[machine as usize].snapshot()
    }

    /// Plain-value copy of every scope, for rendering after a run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let machines = self.machines.iter().map(MachineMetrics::snapshot).collect();
        let mut sites: Vec<SiteSnapshot> = self
            .sites
            .lock()
            .iter()
            .map(|(&site, m)| SiteSnapshot {
                site,
                calls: m.calls.load(Ordering::Relaxed),
                rtt_us: m.rtt_us.snapshot(),
                payload_bytes: m.payload_bytes.snapshot(),
            })
            .collect();
        sites.sort_by_key(|s| s.site);
        MetricsSnapshot { machines, sites }
    }
}

impl MachineSnapshot {
    /// Pool misses beyond the working-set build-up — the quantity
    /// `tests/pool_reuse.rs` requires to be zero for the paper apps.
    pub fn pool_steady_misses(&self) -> u64 {
        self.pool_misses.saturating_sub(self.pool_cold_misses)
    }
}

/// Plain-value copy of one call site's scope.
#[derive(Debug, Clone, Copy)]
pub struct SiteSnapshot {
    pub site: u32,
    pub calls: u64,
    pub rtt_us: HistSnapshot,
    pub payload_bytes: HistSnapshot,
}

/// Plain-value copy of the whole registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub machines: Vec<MachineSnapshot>,
    pub sites: Vec<SiteSnapshot>,
}

impl MetricsSnapshot {
    /// Cluster aggregate of the per-machine counter shards.
    pub fn cluster_stats(&self) -> StatsSnapshot {
        self.machines.iter().fold(StatsSnapshot::default(), |acc, m| acc + m.stats)
    }

    /// Cluster aggregate of one histogram across machines.
    pub fn cluster_hist(&self, f: impl Fn(&MachineSnapshot) -> &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for m in &self.machines {
            out.merge(f(m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `bump_each` does to a cell of either kind.
    pub(super) trait Bump {
        fn bump(&self, v: u64);
    }
    impl Bump for AtomicU64 {
        fn bump(&self, v: u64) {
            self.fetch_add(v, Ordering::Relaxed);
        }
    }
    impl Bump for Log2Histogram {
        fn bump(&self, v: u64) {
            self.record(v);
        }
    }

    #[test]
    fn shards_sum_into_cluster_snapshot() {
        let reg = MetricsRegistry::new(3);
        RmiStats::bump(&reg.machine(0).stats.remote_rpcs, 2);
        RmiStats::bump(&reg.machine(1).stats.remote_rpcs, 3);
        RmiStats::bump(&reg.machine(2).stats.wire_bytes, 100);
        let snap = reg.cluster_snapshot();
        assert_eq!(snap.remote_rpcs, 5);
        assert_eq!(snap.wire_bytes, 100);
        let ms = reg.snapshot();
        assert_eq!(ms.cluster_stats(), snap);
    }

    #[test]
    fn site_scope_is_shared_across_lookups() {
        let reg = MetricsRegistry::new(1);
        reg.site(7).calls.fetch_add(1, Ordering::Relaxed);
        reg.site(7).calls.fetch_add(1, Ordering::Relaxed);
        reg.site(9).calls.fetch_add(1, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.sites.len(), 2);
        assert_eq!(snap.sites[0].site, 7);
        assert_eq!(snap.sites[0].calls, 2);
        assert_eq!(snap.sites[1].calls, 1);
    }

    fn type_of<S>(m: &Metric<S>) -> &'static str {
        match m.read {
            Read::Counter(_) => "counter",
            Read::Gauge(_) => "gauge",
            Read::Histogram(_) => "histogram",
        }
    }

    /// Every family of `table` is exposed with its declared help and
    /// `# TYPE`, and has a series for each of `labels`.
    fn assert_exposed<S>(text: &str, table: &[Metric<S>], labels: &[&str]) {
        for m in table {
            let (name, ty) = (m.family, type_of(m));
            let header = format!("# HELP {name} {}\n# TYPE {name} {ty}\n", m.help);
            assert!(text.contains(&header), "{name}: missing or wrong header");
            assert_eq!(
                ty == "counter",
                name.ends_with("_total"),
                "{name}: only counters end in _total"
            );
            let suffix = if ty == "histogram" { "_count" } else { "" };
            for l in labels {
                assert!(
                    text.contains(&format!("\n{name}{suffix}{{{l}}} ")),
                    "{name}: no {l} series"
                );
            }
        }
    }

    /// The declaration tables are the contract: each entry is exposed
    /// under its declared family, type and help for every machine, and
    /// each per-machine field reads back exactly what was put into it.
    #[test]
    fn every_declared_metric_is_exposed_and_round_trips() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).bump_each(0);
        reg.machine(1).bump_each(100);
        RmiStats::bump(&reg.machine(1).stats.messages, 9);
        reg.site(7).calls.fetch_add(4, Ordering::Relaxed);
        let text = crate::prometheus::render_prometheus(&reg.snapshot());

        let machines = [r#"machine="0""#, r#"machine="1""#];
        assert_exposed(&text, &paper_counters(), &machines);
        assert_exposed(&text, MACHINE_METRICS, &machines);
        assert_exposed(&text, SITE_METRICS, &[r#"site="7""#]);
        assert!(text.contains("corm_messages_total{machine=\"1\"} 9\n"));
        assert!(text.contains("corm_site_calls_total{site=\"7\"} 4\n"));

        for (machine, base) in [(0u16, 0u64), (1, 100)] {
            let snap = reg.machine_snapshot(machine);
            for (k, m) in MACHINE_METRICS.iter().enumerate() {
                let (name, want) = (m.family, base + k as u64 + 1);
                let series = match m.read {
                    Read::Counter(f) | Read::Gauge(f) => {
                        assert_eq!(*f(&snap), want, "{name} on machine {machine}");
                        format!("{name}{{machine=\"{machine}\"}} {want}\n")
                    }
                    Read::Histogram(f) => {
                        assert_eq!((f(&snap).count, f(&snap).sum), (1, want), "{name}");
                        format!("{name}_sum{{machine=\"{machine}\"}} {want}\n")
                    }
                };
                assert!(text.contains(&series), "exposition lacks {series}");
            }
        }

        let mut names: Vec<&str> = MACHINE_METRICS.iter().map(|m| m.family).collect();
        names.extend(COUNTERS.iter().map(|c| c.family));
        names.extend(SITE_METRICS.iter().map(|m| m.family));
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a family is declared twice");
    }

    #[test]
    fn pool_steady_misses_exclude_the_working_set_build_up() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).pool_misses.fetch_add(3, Ordering::Relaxed);
        reg.machine(0).pool_cold_misses.fetch_add(2, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.machines[0].pool_steady_misses(), 1);
        assert_eq!(snap.machines[1].pool_steady_misses(), 0);
    }

    #[test]
    fn cluster_hist_merges_machines() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).rtt_us.record(10);
        reg.machine(1).rtt_us.record(20);
        let snap = reg.snapshot();
        let agg = snap.cluster_hist(|m| &m.rtt_us);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sum, 30);
    }

    #[test]
    fn merged_quantiles_stay_within_per_shard_extremes() {
        // Shards record very different ranges (a fast machine and a slow
        // one); the merged quantile must lie within the envelope of the
        // per-shard distributions, and between the per-shard quantiles
        // themselves (mixture quantiles interpolate their components).
        let reg = MetricsRegistry::new(3);
        for v in 10..60 {
            reg.machine(0).rtt_us.record(v); // fast shard
        }
        for v in 1_000..1_200 {
            reg.machine(1).rtt_us.record(v); // slow shard
        }
        // machine 2 records nothing — an idle shard must not drag the
        // merged quantiles toward zero.
        let snap = reg.snapshot();
        let merged = snap.cluster_hist(|m| &m.rtt_us);
        assert_eq!(merged.count, 250);
        let min_lower = snap.machines.iter().map(|m| m.rtt_us.min_lower()).filter(|&v| v > 0);
        let max_le = snap.machines.iter().map(|m| m.rtt_us.max_le()).max().unwrap();
        let envelope_lo = min_lower.min().unwrap();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let v = merged.quantile(q);
            assert!(v >= envelope_lo, "q{q}: {v} below every shard's minimum");
            assert!(v <= max_le, "q{q}: {v} above every shard's maximum");
            let per_shard: Vec<u64> = snap
                .machines
                .iter()
                .filter(|m| m.rtt_us.count > 0)
                .map(|m| m.rtt_us.quantile(q))
                .collect();
            let lo = *per_shard.iter().min().unwrap();
            let hi = *per_shard.iter().max().unwrap();
            assert!(v >= lo && v <= hi, "q{q}: merged {v} outside shard quantiles [{lo},{hi}]");
        }
        // Four fifths of the mass is in the slow shard, so the merged
        // tail must come from it.
        assert!(merged.quantile(0.999) >= 1_000);
    }
}
