//! The RMI flight recorder: one record per boundary of an RMI half, kept
//! per machine. Untraced, a machine keeps its newest milestones in a
//! lock-free ring, dumped as a JSON artifact when a run fails (panic,
//! `PeerGone`, audit mismatch) or on request. Traced, it keeps every record
//! in a log of its own that never wraps and no other machine waits on: the
//! run's trace is those logs merged ([`FlightRecorder::trace`]), its dump
//! their newest milestones.
//!
//! Design constraints:
//!
//! * **Bounded overhead** — recording into a ring is one relaxed
//!   `fetch_add` to claim a slot plus six plain atomic stores; no locks, no
//!   allocation, no branches on the hot path beyond the enabled check.
//!   `benchmark/` reports the cost, with the timeline sampler's, as
//!   `obs.overhead_share`.
//! * **Fixed memory** — each ring owns `capacity` slots of five words; old
//!   events are overwritten, never flushed.
//! * **Crash-readable** — every slot carries a per-slot generation word
//!   written last (release). A snapshot re-reads the generation after the
//!   payload and drops slots that changed mid-read (seqlock style), so a
//!   dump taken while other machines are still recording yields only
//!   whole events, possibly missing the very newest ones.
//!
//! A run has one transport, so a dump names it once
//! ([`FlightDump::transport`]) and no event repeats it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::trace::{Phase, TraceEvent, TraceKind};

/// Default per-machine ring capacity (events). ~40 bytes/slot → ~40 KiB
/// per machine, several round-trips of history for every app.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Event kinds; the discriminant is the byte stored in the packed slot
/// (0 is reserved for "no event"). The first eight are milestones: what a
/// ring keeps and a dump shows. The rest are recorded by traced runs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlightKind {
    /// A request left this machine (caller side).
    Send = 1,
    /// A reply for `req` arrived back on the caller.
    Return,
    /// This machine served a request (callee side).
    Handle,
    /// A same-machine call short-circuited the wire.
    Local,
    /// A pending request failed (peer loss, audit poison, ...).
    Fail,
    /// A completed request violated its latency SLO (`bytes` carries the
    /// measured latency in µs, clamped to u32). Recorded by the serving
    /// driver so its flight dump names the exact offending req ids.
    Slo,
    /// The lossy transport re-sent a datagram after its retransmission
    /// timer fired (`peer` is the destination, `bytes` the frame size,
    /// `req` the request id when the frame carried one). Recorded on the
    /// sending machine.
    Retransmit,
    /// The lossy transport discarded a duplicate delivery (`peer` is the
    /// sender). Recorded on the receiving machine — a dump full of these
    /// under seeded loss is the dedup visibly doing its job.
    DupSuppressed,
    /// A boundary with no milestone: its phase marks are the whole record.
    #[default]
    Boundary,
    /// A collection ended: `us` is its pause, `reused` the objects it
    /// freed, `bytes` the objects left live.
    Gc,
    /// A remote object of class `site` was made here for `peer`.
    NewRemote,
}

impl FlightKind {
    /// The milestone whose code a ring slot holds.
    fn from_code(c: u64) -> Option<FlightKind> {
        use FlightKind::*;
        [Send, Return, Handle, Local, Fail, Slo, Retransmit, DupSuppressed]
            .into_iter()
            .find(|&k| k as u64 == c)
    }

    /// Recorded with tracing off too, and shown by a dump.
    #[inline]
    pub fn is_milestone(self) -> bool {
        self as u8 <= FlightKind::DupSuppressed as u8
    }

    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Send => "send",
            FlightKind::Return => "return",
            FlightKind::Handle => "handle",
            FlightKind::Local => "local",
            FlightKind::Fail => "fail",
            FlightKind::Slo => "slo",
            FlightKind::Retransmit => "retransmit",
            FlightKind::DupSuppressed => "dup-suppressed",
            FlightKind::Boundary => "boundary",
            FlightKind::Gc => "gc",
            FlightKind::NewRemote => "new-remote",
        }
    }
}

/// Plan-verdict flags in effect at the recorded site.
pub const FLAG_ARGS_CYCLE_TABLE: u8 = 1 << 0;
pub const FLAG_RET_CYCLE_TABLE: u8 = 1 << 1;
pub const FLAG_ARG_REUSE: u8 = 1 << 2;
pub const FLAG_RET_REUSE: u8 = 1 << 3;
pub const FLAG_ONEWAY: u8 = 1 << 4;
/// The request's marshal buffer came out of the sender-side pool
/// (DESIGN §5.4) rather than a fresh allocation.
pub const FLAG_POOL_HIT: u8 = 1 << 5;

/// One boundary of an RMI half, or one event beside the RMI path
/// (decoded form).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the cluster epoch, stamped by whoever records
    /// the event (the VM's instrumentation seam, the lossy fabric) so one
    /// instant carries one `t_us` on every plane.
    pub t_us: u64,
    /// Cluster-unique request id (0 when not applicable).
    pub req: u64,
    /// Call-site id.
    pub site: u32,
    /// Payload bytes (request or reply, matching `kind`).
    pub bytes: u32,
    pub kind: FlightKind,
    /// The other machine involved (destination for sends, source for
    /// handles; self for local calls).
    pub peer: u16,
    /// `FLAG_*` verdicts in effect for the site's plan.
    pub flags: u8,
    /// The phase this boundary ends — begun at this same stamp too when
    /// `opened`, as the empty queue of a request its drainer serves — and
    /// the phase it begins. Kept by a traced log only, as are the next two.
    pub ends: Option<Phase>,
    pub opened: bool,
    pub begins: Option<Phase>,
    /// The span a `Return`, `Handle` or `Local` closes, in µs.
    pub us: u64,
    /// The cached objects a `Handle`'s unmarshal recycled.
    pub reused: u64,
}

const WORDS: usize = 4;

#[derive(Default)]
struct Slot {
    /// 0 = empty or write in progress; otherwise `ticket + 1` of the
    /// event the payload words describe.
    gen: AtomicU64,
    w: [AtomicU64; WORDS],
}

/// Lock-free single-machine ring of milestones. Multi-producer (every
/// thread that runs on the machine: drain, handler, spawned, the lossy
/// fabric), snapshot-reader safe.
struct FlightRing {
    /// Events ever recorded, overwritten ones included.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl FlightRing {
    /// `capacity == 0` disables the ring (every record is a no-op).
    fn new(capacity: usize) -> FlightRing {
        FlightRing {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    #[inline]
    fn record(&self, e: FlightEvent) {
        if self.slots.is_empty() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Seqlock-style publish: invalidate, write payload, then set the
        // generation with release so a reader that sees it also sees the
        // payload. A concurrent writer lapping this exact slot can race
        // the payload words, but both writers store gen last, so a reader
        // observing a stable non-zero gen gets one whole event (the
        // ticket of whichever writer won) except in the pathological case
        // of a full ring wrap during one write, which we accept for a
        // forensic buffer.
        slot.gen.store(0, Ordering::Relaxed);
        slot.w[0].store(e.t_us, Ordering::Relaxed);
        slot.w[1].store(e.req, Ordering::Relaxed);
        slot.w[2].store(((e.site as u64) << 32) | e.bytes as u64, Ordering::Relaxed);
        slot.w[3].store(
            e.kind as u64 | ((e.peer as u64) << 8) | ((e.flags as u64) << 24),
            Ordering::Relaxed,
        );
        slot.gen.store(ticket + 1, Ordering::Release);
    }

    /// Consistent copy of the ring's whole events, oldest first.
    fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out: Vec<(u64, FlightEvent)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let g1 = slot.gen.load(Ordering::Acquire);
            if g1 == 0 {
                continue;
            }
            let w: [u64; WORDS] = std::array::from_fn(|i| slot.w[i].load(Ordering::Relaxed));
            if slot.gen.load(Ordering::Acquire) != g1 {
                continue; // torn: a writer got in between
            }
            let Some(kind) = FlightKind::from_code(w[3] & 0xff) else { continue };
            out.push((
                g1,
                FlightEvent {
                    t_us: w[0],
                    req: w[1],
                    site: (w[2] >> 32) as u32,
                    bytes: (w[2] & 0xffff_ffff) as u32,
                    kind,
                    peer: ((w[3] >> 8) & 0xffff) as u16,
                    flags: ((w[3] >> 24) & 0xff) as u8,
                    ..FlightEvent::default()
                },
            ));
        }
        out.sort_by_key(|&(g, _)| g);
        out.into_iter().map(|(_, e)| e).collect()
    }
}

/// Where one machine's records go.
enum Store {
    /// Untraced: the newest milestones.
    Ring(FlightRing),
    /// Traced: every record, in the order recorded.
    Log(Mutex<Vec<FlightEvent>>),
}

/// One store per machine plus the cluster epoch their timestamps count
/// from.
pub struct FlightRecorder {
    epoch: Instant,
    /// Milestones a dump shows per machine.
    capacity: usize,
    stores: Vec<Store>,
}

impl FlightRecorder {
    /// `epoch` is the cluster's one zero point (`Cluster::start` takes it
    /// once and hands it to this recorder and the sampler), so flight,
    /// trace and timeline `t_us` agree. A `traced` recorder keeps every
    /// record; any other keeps the newest `capacity` milestones a machine.
    pub fn new(machines: usize, capacity: usize, traced: bool, epoch: Instant) -> FlightRecorder {
        let store = || match traced {
            true => Store::Log(Mutex::new(Vec::new())),
            false => Store::Ring(FlightRing::new(capacity)),
        };
        FlightRecorder { epoch, capacity, stores: (0..machines).map(|_| store()).collect() }
    }

    /// Microseconds since the cluster epoch: the one clock of the RMI path.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record `e`, already stamped, on `machine`: a ring takes milestones only.
    #[inline]
    pub fn record(&self, machine: u16, e: FlightEvent) {
        match self.stores.get(machine as usize) {
            Some(Store::Ring(ring)) if e.kind.is_milestone() => ring.record(e),
            Some(Store::Log(log)) => log.lock().push(e),
            _ => {}
        }
    }

    /// Every machine's newest milestones, oldest first.
    pub fn snapshot(&self) -> Vec<(u16, Vec<FlightEvent>)> {
        let newest = |store: &Store| match store {
            Store::Ring(ring) => ring.snapshot(),
            Store::Log(log) => {
                let kept: Vec<_> =
                    log.lock().iter().filter(|e| e.kind.is_milestone()).copied().collect();
                kept[kept.len().saturating_sub(self.capacity)..].to_vec()
            }
        };
        self.stores.iter().enumerate().map(|(i, s)| (i as u16, newest(s))).collect()
    }

    /// The run's trace: every machine's log in one merge on `(t_us,
    /// machine, index in the log)`, `seq` numbered in merged order. A record
    /// expands into the phase it ends (opened first, if it opened there
    /// too), its milestone and the phase it begins; `Fail`, `Slo` and the
    /// lossy fabric's milestones are not traced. Empty untraced.
    pub fn trace(&self) -> Vec<TraceEvent> {
        let mut records = Vec::new();
        for (machine, store) in self.stores.iter().enumerate() {
            if let Store::Log(log) = store {
                records.extend(log.lock().iter().enumerate().map(|(i, &e)| (machine as u16, i, e)));
            }
        }
        records.sort_unstable_by_key(|&(machine, i, e)| (e.t_us, machine, i));
        let mut trace = Vec::with_capacity(records.len() * 2);
        for (machine, _, e) in records {
            let FlightEvent { t_us, req, site, peer, us, reused, ends, opened, begins, .. } = e;
            let (bytes, oneway) = (e.bytes as u64, e.flags & FLAG_ONEWAY != 0);
            let begin = |phase| TraceKind::PhaseBegin { phase, req, site };
            let at = match e.kind {
                FlightKind::Send => Some(TraceKind::RmiSend { req, site, to: peer, bytes, oneway }),
                FlightKind::Return => {
                    Some(TraceKind::RmiReturn { req, site, us, reply_bytes: bytes })
                }
                FlightKind::Handle => Some(TraceKind::Handle { req, site, us, reused }),
                FlightKind::Local => Some(TraceKind::LocalRpc { req, site, us }),
                FlightKind::Gc => Some(TraceKind::Gc { freed: reused, live: bytes, pause_us: us }),
                FlightKind::NewRemote => Some(TraceKind::NewRemote { class: site, from: peer }),
                _ => None,
            };
            let ended = ends.map(|phase| TraceKind::PhaseEnd { phase, req, site });
            let kinds = [ends.filter(|_| opened).map(begin), ended, at, begins.map(begin)];
            for kind in kinds.into_iter().flatten() {
                trace.push(TraceEvent { t_us, seq: trace.len() as u64, machine, kind });
            }
        }
        trace
    }
}

/// A complete dump: why it was taken, which requests failed, and every
/// machine's recent events.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// `peer-gone`, `audit-mismatch`, `panic`, or `requested`.
    pub reason: String,
    /// The run's transport (`TransportKind::label`): one per run, so it
    /// is said here once and not in every event.
    pub transport: &'static str,
    /// Request ids known to have failed (empty for `requested` dumps).
    pub failing_reqs: Vec<u64>,
    pub machines: Vec<(u16, Vec<FlightEvent>)>,
}

impl FlightDump {
    pub fn total_events(&self) -> usize {
        self.machines.iter().map(|(_, evs)| evs.len()).sum()
    }
}

/// `s` as the inside of a JSON string literal — the one escaper of every
/// hand-rolled JSON writer in the workspace.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a dump as JSON (machine-readable with the `corm_bench::json`
/// parser; the schema is stable for CI artifact tooling).
pub fn render_flight_json(d: &FlightDump) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": 2,");
    let _ = writeln!(s, "  \"reason\": \"{}\",", esc(&d.reason));
    let _ = writeln!(s, "  \"transport\": \"{}\",", esc(d.transport));
    let reqs: Vec<String> = d.failing_reqs.iter().map(|r| r.to_string()).collect();
    let _ = writeln!(s, "  \"failing_reqs\": [{}],", reqs.join(", "));
    let _ = writeln!(s, "  \"machines\": [");
    for (mi, (machine, events)) in d.machines.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"machine\": {machine},");
        let _ = writeln!(s, "      \"events\": [");
        for (ei, e) in events.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"t_us\": {}, \"kind\": \"{}\", \"req\": {}, \"site\": {}, \
                 \"bytes\": {}, \"peer\": {}, \
                 \"args_cycle_table\": {}, \"ret_cycle_table\": {}, \
                 \"arg_reuse\": {}, \"ret_reuse\": {}, \"oneway\": {}, \
                 \"pool_hit\": {}}}",
                e.t_us,
                e.kind.name(),
                e.req,
                e.site,
                e.bytes,
                e.peer,
                e.flags & FLAG_ARGS_CYCLE_TABLE != 0,
                e.flags & FLAG_RET_CYCLE_TABLE != 0,
                e.flags & FLAG_ARG_REUSE != 0,
                e.flags & FLAG_RET_REUSE != 0,
                e.flags & FLAG_ONEWAY != 0,
                e.flags & FLAG_POOL_HIT != 0,
            );
            let _ = writeln!(s, "{}", if ei + 1 < events.len() { "," } else { "" });
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{}", if mi + 1 < d.machines.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(req: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            t_us: 0,
            req,
            site: 3,
            bytes: 128,
            kind,
            peer: 1,
            flags: FLAG_ARGS_CYCLE_TABLE | FLAG_ARG_REUSE,
            ..FlightEvent::default()
        }
    }

    #[test]
    fn ring_roundtrips_events_in_order() {
        let ring = FlightRing::new(8);
        for i in 0..5 {
            ring.record(ev(i, FlightKind::Send));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.req, i as u64);
            assert_eq!(e.site, 3);
            assert_eq!(e.bytes, 128);
            assert_eq!(e.kind, FlightKind::Send);
            assert_eq!(e.peer, 1);
            assert!(e.flags & FLAG_ARGS_CYCLE_TABLE != 0);
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = FlightRing::new(4);
        for i in 0..10 {
            ring.record(ev(i, FlightKind::Handle));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let reqs: Vec<u64> = snap.iter().map(|e| e.req).collect();
        assert_eq!(reqs, vec![6, 7, 8, 9], "keeps the newest, oldest first");
        assert_eq!(ring.head.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let ring = FlightRing::new(0);
        ring.record(ev(1, FlightKind::Send));
        assert!(ring.snapshot().is_empty());
        let rec = FlightRecorder::new(2, 0, false, Instant::now());
        rec.record(0, ev(1, FlightKind::Send));
        assert!(rec.snapshot().iter().all(|(_, evs)| evs.is_empty()));
    }

    #[test]
    fn recorder_shards_by_machine_and_counts_from_its_epoch() {
        let epoch = Instant::now() - std::time::Duration::from_millis(5);
        let rec = FlightRecorder::new(2, 16, false, epoch);
        assert!(rec.now_us() >= 5_000, "now_us counts from the epoch handed in");
        rec.record(0, FlightEvent { t_us: 7, ..ev(1, FlightKind::Send) });
        rec.record(1, ev(1, FlightKind::Handle));
        rec.record(0, FlightEvent { t_us: 9, ..ev(1, FlightKind::Return) });
        let snap = rec.snapshot();
        assert_eq!(snap[0].1.len(), 2);
        assert_eq!(snap[1].1.len(), 1);
        assert_eq!(snap[0].1[0].kind, FlightKind::Send);
        assert_eq!(snap[0].1[1].kind, FlightKind::Return);
        assert_eq!((snap[0].1[0].t_us, snap[0].1[1].t_us), (7, 9), "stamps are the caller's");
    }

    #[test]
    fn concurrent_writers_leave_only_whole_events() {
        use std::sync::Arc;
        let ring = Arc::new(FlightRing::new(32));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    // Encode the writer id in every field-correlated way
                    // we can check after the fact.
                    let req = t * 1_000_000 + i;
                    r.record(FlightEvent {
                        t_us: 0,
                        req,
                        site: t as u32,
                        bytes: t as u32,
                        kind: FlightKind::Send,
                        peer: t as u16,
                        ..FlightEvent::default()
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for e in ring.snapshot() {
            let t = e.req / 1_000_000;
            assert_eq!(e.site as u64, t, "torn slot leaked into snapshot");
            assert_eq!(e.peer as u64, t);
        }
        assert_eq!(ring.head.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn lossy_kinds_and_transport_roundtrip_through_the_ring() {
        let ring = FlightRing::new(4);
        let retransmit = FlightEvent {
            t_us: 0,
            req: 31,
            site: 2,
            bytes: 64,
            kind: FlightKind::Retransmit,
            peer: 1,
            ..FlightEvent::default()
        };
        ring.record(retransmit);
        ring.record(FlightEvent { kind: FlightKind::DupSuppressed, peer: 0, ..retransmit });
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, FlightKind::Retransmit);
        assert_eq!(snap[1].kind, FlightKind::DupSuppressed);
        let dump = FlightDump {
            reason: "requested".into(),
            transport: "lossy",
            failing_reqs: vec![],
            machines: vec![(0, snap)],
        };
        let json = render_flight_json(&dump);
        assert!(json.contains("\"kind\": \"retransmit\""));
        assert!(json.contains("\"kind\": \"dup-suppressed\""));
        // The transport is the dump's, said once at the top.
        assert!(json.starts_with(
            "{\n  \"schema\": 2,\n  \"reason\": \"requested\",\n  \"transport\": \"lossy\",\n"
        ));
        assert_eq!(json.matches("\"transport\"").count(), 1);
    }

    #[test]
    fn dump_renders_json_with_reqs_and_flags() {
        let rec = FlightRecorder::new(1, 8, false, Instant::now());
        rec.record(0, ev(77, FlightKind::Send));
        rec.record(0, ev(77, FlightKind::Fail));
        let dump = FlightDump {
            reason: "peer-gone".into(),
            transport: "tcp",
            failing_reqs: vec![77],
            machines: rec.snapshot(),
        };
        let json = render_flight_json(&dump);
        assert!(json.contains("\"reason\": \"peer-gone\""));
        assert!(json.contains("\"failing_reqs\": [77]"));
        assert!(json.contains("\"kind\": \"fail\""));
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"args_cycle_table\": true"));
        assert!(json.contains("\"ret_cycle_table\": false"));
        assert!(json.contains("\"pool_hit\": false"));
        assert_eq!(dump.total_events(), 2);

        // FLAG_POOL_HIT round-trips through the packed slot words.
        let rec = FlightRecorder::new(1, 8, false, Instant::now());
        rec.record(0, FlightEvent { flags: FLAG_POOL_HIT, ..ev(5, FlightKind::Send) });
        let snap = rec.snapshot();
        assert!(snap[0].1[0].flags & FLAG_POOL_HIT != 0);
        let dump = FlightDump { reason: "ok".into(), machines: snap, ..FlightDump::default() };
        assert!(render_flight_json(&dump).contains("\"pool_hit\": true"));
    }
}
