//! The telemetry timeline plane: continuous sampling of every
//! machine's metrics into bounded per-machine rings, plus a health
//! assessor that scans recent windows for stall, backpressure, and
//! pool-leak signatures (DESIGN §7.4).
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
use std::time::Duration;

use parking_lot::Mutex;

use crate::hist::{HistSnapshot, NBUCKETS};
use crate::metrics::{MachineSnapshot, MetricsRegistry};
use crate::recorder::{FlightEvent, FlightKind, FlightRecorder};

/// Version stamp embedded in every rendered `TimelineDoc`.
pub const TIMELINE_SCHEMA_VERSION: u32 = 2;

/// Default sampler cadence, µs.
pub const DEFAULT_TIMELINE_INTERVAL_US: u64 = 10_000;

/// Default per-machine ring capacity (samples). At the default 10ms
/// cadence this holds ~41s of history per machine; ~100 bytes/sample
/// keeps a 4-machine cluster under 2 MiB.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

/// Health events kept per run (bounded like the rings; a pathological
/// run emitting more than this keeps the earliest — the onset is the
/// forensic signal, not the steady state).
const MAX_HEALTH_EVENTS: usize = 1024;

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
    /// Requests parked in the serve queue (gauge).
    pub queue_depth: u64,
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

/// Health signatures the assessor recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// Work queued but nothing served for ≥ K consecutive intervals.
    Stall,
    /// Serve queue depth strictly growing across the window.
    Backpressure,
    /// Pool-ledger outstanding entries strictly growing across the
    /// window: checkouts are not coming back.
    PoolLeak,
}

impl HealthKind {
    /// Code stored in the flight event's `site` field (the assessor has
    /// no call site; the signature code rides in its place).
    pub fn code(self) -> u32 {
        match self {
            HealthKind::Stall => 1,
            HealthKind::Backpressure => 2,
            HealthKind::PoolLeak => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            HealthKind::Stall => "stall",
            HealthKind::Backpressure => "backpressure",
            HealthKind::PoolLeak => "pool-leak",
        }
    }
}

/// One health finding: which machine, what signature, when, and the
/// magnitude that tripped it (stalled intervals, queue depth, or
/// outstanding ledger entries, by kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    pub t_us: u64,
    pub machine: u16,
    pub kind: HealthKind,
    pub value: u64,
}

/// Consecutive no-progress intervals (queue non-empty, nothing served)
/// before a stall fires: 3 flags an injected stall inside the
/// 5-interval acceptance bound with margin for sampler jitter.
const STALL_INTERVALS: usize = 3;
/// Window over which queue depth must grow strictly monotonically to
/// flag backpressure.
const BACKPRESSURE_WINDOW: usize = 5;
/// Window over which ledger outstanding must grow strictly
/// monotonically to flag a pool leak.
const LEAK_WINDOW: usize = 8;

#[derive(Debug, Default)]
struct MachineHealth {
    stall_run: usize,
    stall_active: bool,
    backpressure_active: bool,
    leak_active: bool,
}

/// Scans per-machine timeline windows for health signatures. Episodes
/// are edge-triggered: each signature fires once when it first trips
/// and re-arms only after the condition clears, so a long stall is one
/// event, not one per tick.
#[derive(Debug)]
pub struct HealthAssessor {
    per: Vec<MachineHealth>,
}

impl HealthAssessor {
    pub fn new(machines: usize) -> Self {
        HealthAssessor { per: (0..machines).map(|_| MachineHealth::default()).collect() }
    }

    /// Feed the most recent samples for `machine` (oldest first, last =
    /// the tick just taken) and collect any newly-fired events.
    pub fn assess(&mut self, machine: u16, window: &[TimelineSample]) -> Vec<HealthEvent> {
        let Some(last) = window.last() else { return Vec::new() };
        let st = &mut self.per[machine as usize];
        let mut out = Vec::new();

        // Stall: the machine has work parked in its serve queue but
        // served nothing this interval. Counting on the *server* side
        // names the machine that is stuck, not the callers waiting on it.
        if last.queue_depth > 0 && last.handled == 0 {
            st.stall_run += 1;
            if st.stall_run >= STALL_INTERVALS && !st.stall_active {
                st.stall_active = true;
                out.push(HealthEvent {
                    t_us: last.t_us,
                    machine,
                    kind: HealthKind::Stall,
                    value: st.stall_run as u64,
                });
            }
        } else {
            st.stall_run = 0;
            st.stall_active = false;
        }

        // Backpressure: strictly monotone queue growth over the window —
        // arrivals persistently outpace service.
        if window.len() >= BACKPRESSURE_WINDOW {
            let w = &window[window.len() - BACKPRESSURE_WINDOW..];
            let growing = w.windows(2).all(|p| p[1].queue_depth > p[0].queue_depth);
            if growing {
                if !st.backpressure_active {
                    st.backpressure_active = true;
                    out.push(HealthEvent {
                        t_us: last.t_us,
                        machine,
                        kind: HealthKind::Backpressure,
                        value: last.queue_depth,
                    });
                }
            } else {
                st.backpressure_active = false;
            }
        }

        // Pool leak: ledger outstanding strictly growing — checked-out
        // buffers are not being returned or abandoned.
        if window.len() >= LEAK_WINDOW {
            let w = &window[window.len() - LEAK_WINDOW..];
            let growing = w.windows(2).all(|p| p[1].pool_outstanding > p[0].pool_outstanding);
            if growing {
                if !st.leak_active {
                    st.leak_active = true;
                    out.push(HealthEvent {
                        t_us: last.t_us,
                        machine,
                        kind: HealthKind::PoolLeak,
                        value: last.pool_outstanding,
                    });
                }
            } else {
                st.leak_active = false;
            }
        }

        out
    }
}

/// The registry-resident timeline store: one bounded sample ring per
/// machine plus the run's health findings. Owned by [`MetricsRegistry`],
/// so it is scoped to one run like every other metric.
#[derive(Debug)]
pub struct TimelineState {
    interval_us: AtomicU64,
    capacity: usize,
    rings: Vec<Mutex<std::collections::VecDeque<TimelineSample>>>,
    health: Mutex<Vec<HealthEvent>>,
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
            health: Mutex::new(Vec::new()),
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

    /// Record a health finding (bounded; keeps the earliest).
    pub fn record_health(&self, ev: HealthEvent) {
        let mut h = self.health.lock();
        if h.len() < MAX_HEALTH_EVENTS {
            h.push(ev);
        }
    }

    pub fn health_events(&self) -> Vec<HealthEvent> {
        self.health.lock().clone()
    }

    /// Plain-value copy of the whole timeline for export.
    pub fn doc(&self) -> TimelineDoc {
        TimelineDoc {
            interval_us: self.interval_us(),
            machines: self.rings.iter().map(|r| r.lock().iter().copied().collect()).collect(),
            health: self.health_events(),
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
    pub health: Vec<HealthEvent>,
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
                 \"in_flight\": {}, \"queue_depth\": {}, \
                 \"pool_resident_bytes\": {}, \"pool_outstanding\": {}, \
                 \"reactor_queued_bytes\": {}, \"rtt_p99_us\": {}}}",
                p.t_us,
                p.started,
                p.completed,
                p.handled,
                p.remote_rpcs,
                p.wire_bytes,
                p.in_flight,
                p.queue_depth,
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
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"health\": [");
    for (hi, h) in d.health.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"t_us\": {}, \"machine\": {}, \"kind\": \"{}\", \"value\": {}}}",
            h.t_us,
            h.machine,
            h.kind.name(),
            h.value,
        );
        let _ = writeln!(s, "{}", if hi + 1 < d.health.len() { "," } else { "" });
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
        queue_depth: cur.serve_queue_depth,
        pool_resident_bytes: cur.pool_resident_bytes,
        pool_outstanding: cur.pool_outstanding,
        reactor_queued_bytes: cur.reactor_queued_bytes,
        rtt_p99_us: if rtt.count > 0 { rtt.quantile(0.99) } else { 0 },
    }
}

/// One sampling pass over every machine: push a delta sample, run the
/// assessor, emit health findings to the timeline and flight recorder.
/// Samples are stamped on the flight recorder's clock — the cluster
/// epoch — so a sample, a flight event and a trace event of one instant
/// agree on `t_us`.
fn sample_tick(
    obs: &MetricsRegistry,
    flight: &FlightRecorder,
    prev: &mut [MachineSnapshot],
    assessor: &mut HealthAssessor,
    transport_code: u8,
    tick: u64,
) {
    let window = BACKPRESSURE_WINDOW.max(LEAK_WINDOW);
    for (m, prev_snap) in prev.iter_mut().enumerate().take(obs.num_machines()) {
        let t_us = flight.now_us();
        let cur = obs.machine_snapshot(m as u16);
        let sample = delta_sample(t_us, &cur, prev_snap);
        *prev_snap = cur;
        obs.timeline().push(m as u16, sample);
        let recent = obs.timeline().recent(m as u16, window);
        for ev in assessor.assess(m as u16, &recent) {
            obs.timeline().record_health(ev);
            flight.record(
                ev.machine,
                FlightEvent {
                    t_us: ev.t_us,
                    req: tick,
                    site: ev.kind.code(),
                    bytes: ev.value.min(u32::MAX as u64) as u32,
                    kind: FlightKind::Health,
                    peer: ev.machine,
                    flags: 0,
                    transport: transport_code,
                },
            );
        }
    }
}

/// Spawn the background sampler at `interval`; `transport_code` is the
/// `TRANSPORT_*` byte stamped into the health flight events it emits.
/// The baseline tick is taken here, on the caller's thread — so it
/// precedes whatever the caller starts next and the first deltas are
/// measured from cluster start — then the thread takes one tick per
/// interval and a final forced tick when stopped: the ring's delta
/// totals therefore equal the final counter values.
pub fn spawn_sampler(
    obs: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    interval: Duration,
    transport_code: u8,
) -> SamplerHandle {
    obs.timeline().set_interval_us(interval.as_micros() as u64);
    let n = obs.num_machines();
    let mut assessor = HealthAssessor::new(n);
    let mut prev = vec![MachineSnapshot::default(); n];
    sample_tick(&obs, &flight, &mut prev, &mut assessor, transport_code, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("corm-sampler".into())
        .spawn(move || {
            for tick in 1.. {
                std::thread::park_timeout(interval);
                let stopping = stop2.load(Ordering::Acquire);
                sample_tick(&obs, &flight, &mut prev, &mut assessor, transport_code, tick);
                if stopping {
                    break;
                }
            }
        })
        .expect("spawn corm-sampler");
    SamplerHandle { stop, thread: Mutex::new(Some(handle)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
    fn assessor_flags_stall_within_bound_and_names_machine() {
        // Acceptance criterion: a stalled server is flagged within 5
        // sampling intervals. `STALL_INTERVALS` fires at 3.
        let mut ha = HealthAssessor::new(2);
        let mut window: Vec<TimelineSample> = Vec::new();
        let mut fired_at = None;
        for i in 0..5u64 {
            window.push(TimelineSample { t_us: i * 10_000, queue_depth: 4, ..Default::default() });
            let evs = ha.assess(1, &window);
            if let Some(ev) = evs.first() {
                assert_eq!(ev.kind, HealthKind::Stall);
                assert_eq!(ev.machine, 1);
                fired_at = Some(i + 1);
                break;
            }
        }
        let intervals = fired_at.expect("stall never flagged");
        assert!(intervals <= 5, "flagged after {intervals} intervals");
        // The idle machine 0 (empty queue) must stay quiet.
        let quiet = ha.assess(0, &[TimelineSample::default()]);
        assert!(quiet.is_empty());
    }

    #[test]
    fn stall_is_edge_triggered_and_rearms_after_progress() {
        let mut ha = HealthAssessor::new(1);
        let stuck = TimelineSample { queue_depth: 2, handled: 0, ..Default::default() };
        let moving = TimelineSample { queue_depth: 2, handled: 5, ..Default::default() };
        let mut events = 0;
        for _ in 0..10 {
            events += ha.assess(0, &[stuck]).len();
        }
        assert_eq!(events, 1, "a long stall is one episode");
        assert!(ha.assess(0, &[moving]).is_empty());
        for _ in 0..3 {
            events += ha.assess(0, &[stuck]).len();
        }
        assert_eq!(events, 2, "re-arms after the stall clears");
    }

    #[test]
    fn backpressure_needs_strict_monotone_growth() {
        let mut ha = HealthAssessor::new(1);
        let grow: Vec<TimelineSample> = (1..=5)
            .map(|d| TimelineSample { queue_depth: d, handled: 1, ..Default::default() })
            .collect();
        let evs = ha.assess(0, &grow);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, HealthKind::Backpressure);
        assert_eq!(evs[0].value, 5);
        // A plateau breaks the signature (and re-arms the episode).
        let mut flat = grow.clone();
        flat[4].queue_depth = flat[3].queue_depth;
        assert!(ha.assess(0, &flat).is_empty());
    }

    #[test]
    fn pool_leak_fires_on_ledger_growth() {
        let mut ha = HealthAssessor::new(1);
        let grow: Vec<TimelineSample> = (1..=LEAK_WINDOW as u64)
            .map(|d| TimelineSample { pool_outstanding: d * 2, handled: 1, ..Default::default() })
            .collect();
        assert!(ha.assess(0, &grow[..LEAK_WINDOW - 1]).is_empty(), "needs the whole window");
        let evs = ha.assess(0, &grow);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, HealthKind::PoolLeak);
        assert_eq!(evs[0].value, 2 * LEAK_WINDOW as u64);
    }

    #[test]
    fn delta_sample_subtracts_counters_and_copies_gauges() {
        let prev =
            MachineSnapshot { requests_started: 10, requests_completed: 8, ..Default::default() };
        let cur = MachineSnapshot {
            requests_started: 25,
            requests_completed: 20,
            in_flight: 5,
            serve_queue_depth: 3,
            pool_outstanding: 2,
            ..Default::default()
        };
        let s = delta_sample(99, &cur, &prev);
        assert_eq!(s.t_us, 99);
        assert_eq!(s.started, 15);
        assert_eq!(s.completed, 12);
        assert_eq!(s.in_flight, 5);
        assert_eq!(s.queue_depth, 3);
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
    fn timeline_json_carries_schema_samples_and_health() {
        let tl = TimelineState::new(2);
        tl.set_interval_us(10_000);
        tl.push(0, TimelineSample { t_us: 10, started: 2, ..Default::default() });
        tl.push(1, TimelineSample { t_us: 10, handled: 2, queue_depth: 1, ..Default::default() });
        tl.record_health(HealthEvent {
            t_us: 30,
            machine: 1,
            kind: HealthKind::Backpressure,
            value: 7,
        });
        let json = render_timeline_json(&tl.doc());
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"interval_us\": 10000"));
        assert!(json.contains("\"machine\": 1"));
        assert!(json.contains("\"queue_depth\": 1"));
        assert!(json.contains("\"kind\": \"backpressure\""));
        assert!(json.contains("\"value\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn health_kind_codes_are_stable() {
        assert_eq!(HealthKind::Stall.code(), 1);
        assert_eq!(HealthKind::Backpressure.code(), 2);
        assert_eq!(HealthKind::PoolLeak.code(), 3);
        assert_eq!(HealthKind::Stall.name(), "stall");
        assert_eq!(HealthKind::PoolLeak.name(), "pool-leak");
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let obs = Arc::new(MetricsRegistry::new(2));
        let flight = Arc::new(FlightRecorder::new(2, 64, Instant::now()));
        obs.machine(0).requests_started.fetch_add(5, Ordering::Relaxed);
        let h = spawn_sampler(obs.clone(), flight.clone(), Duration::from_millis(1), 0);
        std::thread::sleep(Duration::from_millis(10));
        obs.machine(0).requests_started.fetch_add(7, Ordering::Relaxed);
        h.stop_and_join();
        h.stop_and_join(); // idempotent
        let doc = obs.timeline().doc();
        assert!(doc.machines[0].len() >= 2, "baseline + final tick at minimum");
        // Delta totals reconstruct the counter exactly.
        assert_eq!(doc.total(0, |s| s.started), 12);
        assert_eq!(doc.total(1, |s| s.started), 0);
        assert_eq!(doc.interval_us, 1_000);
    }

    #[test]
    fn sampler_emits_health_flight_events_for_injected_stall() {
        // Pin the full plumbing: a machine whose gauge shows queued work
        // and whose invoke counter never moves must produce a Health
        // flight event naming it within 5 ticks.
        let obs = Arc::new(MetricsRegistry::new(2));
        let flight = Arc::new(FlightRecorder::new(2, 64, Instant::now()));
        obs.machine(1).serve_queue_depth.store(6, Ordering::Relaxed);
        let h = spawn_sampler(obs.clone(), flight.clone(), Duration::from_millis(1), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut found = None;
        while Instant::now() < deadline && found.is_none() {
            std::thread::sleep(Duration::from_millis(2));
            found = obs.timeline().health_events().first().copied();
        }
        h.stop_and_join();
        let ev = found.expect("stall not flagged");
        assert_eq!(ev.machine, 1);
        assert_eq!(ev.kind, HealthKind::Stall);
        let events = flight.snapshot();
        let health: Vec<&FlightEvent> =
            events[1].1.iter().filter(|e| e.kind == FlightKind::Health).collect();
        assert!(!health.is_empty(), "health event missing from flight ring");
        assert_eq!(health[0].peer, 1, "flight event names the stalled machine");
        assert_eq!(health[0].site, HealthKind::Stall.code());
        assert_eq!(health[0].transport, 2);
    }
}
