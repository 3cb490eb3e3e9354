//! The telemetry timeline plane: continuous sampling of every
//! machine's metrics into bounded per-machine rings (DESIGN §7.4).
//!
//! Everything upstream of this module is either a point-in-time
//! snapshot (Prometheus exposition), a post-hoc artifact (traces,
//! bench JSON), or a crash ring (flight recorder). The timeline is the
//! missing axis: *how the cluster evolves during a run*. A background
//! sampler thread wakes at a configurable interval (default 10ms),
//! takes a lock-free snapshot of each machine's shard, converts the
//! monotone counters into per-interval deltas, copies the gauges as-is,
//! and pushes one [`TimelineSample`] per machine into the registry's
//! bounded ring. The rings double as the data source for `corm top`
//! and the `--timeline-json` artifact.
//!
//! Honesty notes (the sampler measures itself into the picture):
//!
//! * Deltas are computed from two relaxed snapshots taken at slightly
//!   different instants per machine; a sample is a *consistent-enough*
//!   cut, not an atomic one. Counter totals are exact: the sum of a
//!   ring's deltas equals the final counter value because every delta
//!   is `cur - prev` of the same monotone counter.
//! * `rtt_p99_us` is the p99 of the RTT histogram *restricted to this
//!   interval* (elementwise bucket subtraction), so it reflects the
//!   window, not the run-so-far — but it quantizes to log2 bucket
//!   edges like every histogram-derived quantile here.
//! * The final sample is forced at shutdown, so the last interval may
//!   be shorter than the configured one. Rates derived from it should
//!   use `t_us` deltas, not the nominal interval.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::hist::{HistSnapshot, NBUCKETS};
use crate::metrics::{MachineSnapshot, MetricsRegistry};

/// Version stamp embedded in every rendered `TimelineDoc`.
pub const TIMELINE_SCHEMA_VERSION: u32 = 4;

/// Default sampler cadence, µs.
pub const DEFAULT_TIMELINE_INTERVAL_US: u64 = 10_000;

/// Default per-machine ring capacity (samples). At the default 10ms
/// cadence this holds ~41s of history per machine; ~100 bytes/sample
/// keeps a 4-machine cluster under 2 MiB.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

/// One sampling tick for one machine: counter deltas over the interval
/// plus gauge values at the tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Microseconds since the sampler epoch (cluster start).
    pub t_us: u64,
    /// Two-way RMIs started on this machine during the interval.
    pub started: u64,
    /// Two-way RMIs completed on this machine during the interval.
    pub completed: u64,
    /// Requests served (user methods invoked) during the interval.
    pub handled: u64,
    /// Remote RPCs issued during the interval.
    pub remote_rpcs: u64,
    /// Wire bytes sent during the interval.
    pub wire_bytes: u64,
    /// Two-way RMIs awaiting a reply (gauge).
    pub in_flight: u64,
    /// Bytes parked in this machine's pool shard (gauge).
    pub pool_resident_bytes: u64,
    /// Outstanding pool-ledger entries: buffers checked out under a
    /// request id and not yet returned or abandoned (gauge).
    pub pool_outstanding: u64,
    /// Bytes a full socket left in reactor outbound buffers (gauge).
    pub reactor_queued_bytes: u64,
    /// p99 of caller RTTs *observed during this interval* (µs, 0 when
    /// the interval saw no completed round trips).
    pub rtt_p99_us: u64,
}

/// The registry-resident timeline store: one bounded sample ring per
/// machine. Owned by [`MetricsRegistry`], so it is scoped to one run
/// like every other metric.
#[derive(Debug)]
pub struct TimelineState {
    interval_us: AtomicU64,
    capacity: usize,
    rings: Vec<Mutex<std::collections::VecDeque<TimelineSample>>>,
}

impl TimelineState {
    pub fn new(machines: usize) -> Self {
        Self::with_capacity(machines, DEFAULT_TIMELINE_CAPACITY)
    }

    pub fn with_capacity(machines: usize, capacity: usize) -> Self {
        TimelineState {
            interval_us: AtomicU64::new(DEFAULT_TIMELINE_INTERVAL_US),
            capacity,
            rings: (0..machines)
                .map(|_| Mutex::new(std::collections::VecDeque::with_capacity(16)))
                .collect(),
        }
    }

    /// The cadence the sampler is (or was) running at, µs.
    pub fn interval_us(&self) -> u64 {
        self.interval_us.load(Ordering::Relaxed)
    }

    pub(crate) fn set_interval_us(&self, us: u64) {
        self.interval_us.store(us, Ordering::Relaxed);
    }

    /// Push one sample onto `machine`'s ring, evicting the oldest when
    /// full. The lock is per-machine and uncontended except against
    /// readers (`corm top`, doc export).
    pub fn push(&self, machine: u16, sample: TimelineSample) {
        let Some(ring) = self.rings.get(machine as usize) else { return };
        let mut r = ring.lock();
        if r.len() == self.capacity {
            r.pop_front();
        }
        r.push_back(sample);
    }

    /// The newest `n` samples for `machine`, oldest first.
    pub fn recent(&self, machine: u16, n: usize) -> Vec<TimelineSample> {
        let Some(ring) = self.rings.get(machine as usize) else { return Vec::new() };
        let r = ring.lock();
        let skip = r.len().saturating_sub(n);
        r.iter().skip(skip).copied().collect()
    }

    /// Plain-value copy of the whole timeline for export.
    pub fn doc(&self) -> TimelineDoc {
        TimelineDoc {
            interval_us: self.interval_us(),
            machines: self.rings.iter().map(|r| r.lock().iter().copied().collect()).collect(),
        }
    }
}

/// Plain-value copy of the timeline at one instant: the `--timeline-json`
/// payload and the `RunOutcome` carrier.
#[derive(Debug, Clone, Default)]
pub struct TimelineDoc {
    /// Sampler cadence, µs (0 when sampling was disabled).
    pub interval_us: u64,
    /// Per-machine samples, oldest first.
    pub machines: Vec<Vec<TimelineSample>>,
}

impl TimelineDoc {
    /// Sum one sampled delta field across `machine`'s whole ring. For a
    /// ring that never wrapped this equals the final counter value —
    /// the determinism tests pin that identity.
    pub fn total(&self, machine: u16, f: impl Fn(&TimelineSample) -> u64) -> u64 {
        self.machines.get(machine as usize).map_or(0, |s| s.iter().map(f).sum())
    }

    pub fn total_samples(&self) -> usize {
        self.machines.iter().map(|s| s.len()).sum()
    }
}

/// Render a timeline as schema-versioned JSON (hand-rolled like every
/// artifact here; stable for CI tooling).
pub fn render_timeline_json(d: &TimelineDoc) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": {TIMELINE_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"interval_us\": {},", d.interval_us);
    let _ = writeln!(s, "  \"machines\": [");
    for (mi, samples) in d.machines.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"machine\": {mi},");
        let _ = writeln!(s, "      \"samples\": [");
        for (si, p) in samples.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"t_us\": {}, \"started\": {}, \"completed\": {}, \
                 \"handled\": {}, \"remote_rpcs\": {}, \"wire_bytes\": {}, \
                 \"in_flight\": {}, \
                 \"pool_resident_bytes\": {}, \"pool_outstanding\": {}, \
                 \"reactor_queued_bytes\": {}, \"rtt_p99_us\": {}}}",
                p.t_us,
                p.started,
                p.completed,
                p.handled,
                p.remote_rpcs,
                p.wire_bytes,
                p.in_flight,
                p.pool_resident_bytes,
                p.pool_outstanding,
                p.reactor_queued_bytes,
                p.rtt_p99_us,
            );
            let _ = writeln!(s, "{}", if si + 1 < samples.len() { "," } else { "" });
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{}", if mi + 1 < d.machines.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

/// Handle to a running sampler thread. Dropping it without calling
/// [`SamplerHandle::stop_and_join`] detaches the thread (it keeps
/// sampling until the registry's owner exits), so cluster teardown
/// must stop it explicitly before taking the final snapshot.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SamplerHandle {
    /// Ask the sampler to take one final forced sample and exit, then
    /// wait for it. Idempotent.
    pub fn stop_and_join(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// Elementwise difference of two cumulative histogram snapshots: the
/// distribution of values recorded between the two.
fn hist_delta(cur: &HistSnapshot, prev: &HistSnapshot) -> HistSnapshot {
    let mut out = HistSnapshot::default();
    for i in 0..NBUCKETS {
        out.buckets[i] = cur.buckets[i].saturating_sub(prev.buckets[i]);
    }
    out.sum = cur.sum.saturating_sub(prev.sum);
    out.count = cur.count.saturating_sub(prev.count);
    out
}

/// Build one machine's sample from two consecutive snapshots.
fn delta_sample(t_us: u64, cur: &MachineSnapshot, prev: &MachineSnapshot) -> TimelineSample {
    let rtt = hist_delta(&cur.rtt_us, &prev.rtt_us);
    TimelineSample {
        t_us,
        started: cur.requests_started.saturating_sub(prev.requests_started),
        completed: cur.requests_completed.saturating_sub(prev.requests_completed),
        handled: cur.invoke_us.count.saturating_sub(prev.invoke_us.count),
        remote_rpcs: cur.stats.remote_rpcs.saturating_sub(prev.stats.remote_rpcs),
        wire_bytes: cur.stats.wire_bytes.saturating_sub(prev.stats.wire_bytes),
        in_flight: cur.in_flight,
        pool_resident_bytes: cur.pool_resident_bytes,
        pool_outstanding: cur.pool_outstanding,
        reactor_queued_bytes: cur.reactor_queued_bytes,
        rtt_p99_us: if rtt.count > 0 { rtt.quantile(0.99) } else { 0 },
    }
}

/// One sampling pass: push one delta sample per machine. Samples are
/// stamped on the cluster epoch, so a sample, a flight event and a trace
/// event of one instant agree on `t_us`.
fn sample_tick(obs: &MetricsRegistry, epoch: Instant, prev: &mut [MachineSnapshot]) {
    for (m, prev_snap) in prev.iter_mut().enumerate() {
        let t_us = epoch.elapsed().as_micros() as u64;
        let cur = obs.machine_snapshot(m as u16);
        obs.timeline().push(m as u16, delta_sample(t_us, &cur, prev_snap));
        *prev_snap = cur;
    }
}

/// Spawn the background sampler at `interval`, stamping on `epoch`.
/// The baseline tick is taken here, on the caller's thread — so it
/// precedes whatever the caller starts next and the first deltas are
/// measured from cluster start — then the thread takes one tick per
/// interval and a final forced tick when stopped: the ring's delta
/// totals therefore equal the final counter values.
pub fn spawn_sampler(
    obs: Arc<MetricsRegistry>,
    epoch: Instant,
    interval: Duration,
) -> SamplerHandle {
    obs.timeline().set_interval_us(interval.as_micros() as u64);
    let mut prev = vec![MachineSnapshot::default(); obs.num_machines()];
    sample_tick(&obs, epoch, &mut prev);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("corm-sampler".into())
        .spawn(move || loop {
            std::thread::park_timeout(interval);
            let stopping = stop2.load(Ordering::Acquire);
            sample_tick(&obs, epoch, &mut prev);
            if stopping {
                break;
            }
        })
        .expect("spawn corm-sampler");
    SamplerHandle { stop, thread: Mutex::new(Some(handle)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_us: u64) -> TimelineSample {
        TimelineSample { t_us, ..TimelineSample::default() }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let tl = TimelineState::with_capacity(1, 4);
        for i in 0..10 {
            tl.push(0, sample(i));
        }
        let recent = tl.recent(0, 10);
        let ts: Vec<u64> = recent.iter().map(|s| s.t_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
        let last_two: Vec<u64> = tl.recent(0, 2).iter().map(|s| s.t_us).collect();
        assert_eq!(last_two, vec![8, 9]);
    }

    #[test]
    fn delta_sample_subtracts_counters_and_copies_gauges() {
        let prev =
            MachineSnapshot { requests_started: 10, requests_completed: 8, ..Default::default() };
        let cur = MachineSnapshot {
            requests_started: 25,
            requests_completed: 20,
            in_flight: 5,
            pool_outstanding: 2,
            ..Default::default()
        };
        let s = delta_sample(99, &cur, &prev);
        assert_eq!(s.t_us, 99);
        assert_eq!(s.started, 15);
        assert_eq!(s.completed, 12);
        assert_eq!(s.in_flight, 5);
        assert_eq!(s.pool_outstanding, 2);
        assert_eq!(s.rtt_p99_us, 0, "no RTTs this interval");
    }

    #[test]
    fn windowed_rtt_p99_reflects_only_the_interval() {
        let h = crate::hist::Log2Histogram::new();
        for _ in 0..100 {
            h.record(10); // old, fast traffic
        }
        let prev = MachineSnapshot { rtt_us: h.snapshot(), ..Default::default() };
        for _ in 0..10 {
            h.record(5_000); // this interval: slow
        }
        let cur = MachineSnapshot { rtt_us: h.snapshot(), ..Default::default() };
        let s = delta_sample(0, &cur, &prev);
        assert!(
            s.rtt_p99_us >= 4_096,
            "windowed p99 {} must see only the slow interval",
            s.rtt_p99_us
        );
    }

    #[test]
    fn doc_totals_sum_the_ring() {
        let tl = TimelineState::new(1);
        tl.push(0, TimelineSample { started: 3, wire_bytes: 100, ..Default::default() });
        tl.push(0, TimelineSample { started: 4, wire_bytes: 50, ..Default::default() });
        let doc = tl.doc();
        assert_eq!(doc.total(0, |s| s.started), 7);
        assert_eq!(doc.total(0, |s| s.wire_bytes), 150);
        assert_eq!(doc.total_samples(), 2);
    }

    #[test]
    fn timeline_json_carries_schema_and_samples() {
        let tl = TimelineState::new(2);
        tl.set_interval_us(10_000);
        tl.push(0, TimelineSample { t_us: 10, started: 2, ..Default::default() });
        tl.push(1, TimelineSample { t_us: 10, handled: 2, ..Default::default() });
        let json = render_timeline_json(&tl.doc());
        assert!(json.contains("\"schema\": 4"));
        assert!(json.contains("\"interval_us\": 10000"));
        assert!(json.contains("\"machine\": 1"));
        assert!(json.contains("\"handled\": 2"));
        assert!(!json.contains("\"health\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let obs = Arc::new(MetricsRegistry::new(2));
        let epoch = Instant::now() - Duration::from_millis(5);
        obs.machine(0).requests_started.fetch_add(5, Ordering::Relaxed);
        let h = spawn_sampler(obs.clone(), epoch, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(10));
        obs.machine(0).requests_started.fetch_add(7, Ordering::Relaxed);
        h.stop_and_join();
        h.stop_and_join(); // idempotent
        let doc = obs.timeline().doc();
        assert!(doc.machines[0].len() >= 2, "baseline + final tick at minimum");
        assert!(doc.machines[0][0].t_us >= 5_000, "samples count from the epoch handed in");
        // Delta totals reconstruct the counter exactly.
        assert_eq!(doc.total(0, |s| s.started), 12);
        assert_eq!(doc.total(1, |s| s.started), 0);
        assert_eq!(doc.interval_us, 1_000);
    }
}
