//! Lossy datagram transport: seeded faults under a reliability protocol.
//!
//! The reliable backends (channel, tcp, reactor) never exercise the
//! failure modes a real deployment sees, so nothing proved the
//! compiler-specialized marshal plans sound against drops, duplicates
//! and reordering. This backend datagram-izes the frame path (every
//! packet crosses as an [`Packet::encode_body`] frame, exercising the
//! real codec) and runs it through a deterministic, seed-driven fault
//! shim, with a protocol layer above it:
//!
//! * **per-peer sequence numbers** on every directed link;
//! * **acks and retransmission timers** with capped exponential backoff;
//! * **receiver-side dedup + in-order holdback**, restoring the
//!   per-(sender, receiver) FIFO delivery the VM relies on.
//!
//! Together they give the one delivery contract every transport has:
//! each packet reaches the receiving mailbox exactly once, in per-pair
//! send order, as long as neither peer dies. The VM above cannot tell
//! this backend from a reliable one, and has no dedup of its own.
//!
//! **Determinism.** Every fault decision is a pure hash of
//! `(seed, link, seq, attempt)` — not a mutable RNG stream — so a
//! datagram's fate does not depend on thread interleaving: the same
//! traffic under the same seed is dropped/duplicated/delayed the same
//! way, which is what makes seeded equivalence runs reproducible.
//!
//! **Accounting.** Wire statistics are charged by [`NetHandle::send`]
//! before the shim ever sees the packet, so counters stay
//! backend-identical by construction; retransmissions happen *below*
//! that line and are visible only through their own counters
//! (`lossy_retransmits`, `lossy_dups_suppressed`) and flight events.
//! Measured wire time is charged exactly once per logical frame — a
//! suppressed duplicate charges nothing (the redelivery-accounting
//! bugfix this backend's tests pin).
//!
//! [`NetHandle::send`]: crate::transport::NetHandle::send

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corm_ir::scalar::mix;
use corm_obs::{FlightEvent, FlightKind, FlightRecorder, MetricsRegistry};

use crate::mesh::lock;
use crate::packet::Packet;
use crate::receive::ReceiveSide;
use crate::transport::Transport;

/// The seeded loss model: what the shim does to each datagram copy.
/// Link-level faults, beside the VM's `FaultSpec` (which kills a machine).
/// The reorder rate (0.25) and the link's timing (30 µs propagation, up
/// to 150 µs reorder jitter, a 2 ms retransmit timeout backing off to
/// 50 ms) are fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpec {
    /// Seed for the per-datagram fault hash.
    pub seed: u64,
    /// Probability a datagram copy is dropped in flight, and,
    /// independently, that an accepted copy is delivered twice.
    pub rate: f64,
}

impl Default for LossSpec {
    fn default() -> LossSpec {
        LossSpec { seed: 0x5EED, rate: 0.05 }
    }
}

impl LossSpec {
    /// The CLI's `--loss-seed S --loss-rate R`.
    pub fn seeded(seed: u64, rate: f64) -> LossSpec {
        LossSpec { seed, rate }
    }
}

/// Probability a copy gets extra (reordering) delay on top of the base
/// propagation delay.
const REORDER_RATE: f64 = 0.25;
/// Base one-way propagation delay, µs.
const DELAY_US: u64 = 30;
/// Maximum extra delay for reordered copies, µs.
const JITTER_US: u64 = 150;
/// Initial retransmission timeout, µs.
const RTO_US: u64 = 2_000;
/// Cap for the exponential retransmission backoff, µs.
const MAX_RTO_US: u64 = 50_000;

/// After this many dropped transmission attempts of one datagram the
/// shim delivers unconditionally, bounding the worst-case retransmit
/// chain (with independent per-attempt hashes the bound is effectively
/// never reached below drop rates of ~50%).
const FORCE_DELIVER_AFTER: u32 = 6;

/// Idle park time of the fabric thread when nothing is scheduled.
const IDLE: Duration = Duration::from_millis(50);

/// Uniform [0,1) decision value for one (datagram copy, question): the
/// per-datagram fault hash.
fn decide(seed: u64, from: u16, to: u16, seq: u64, attempt: u32, salt: u64) -> f64 {
    let link = ((from as u64) << 16) | to as u64;
    let h = mix(seed ^ mix(link) ^ mix(seq) ^ mix(attempt as u64) ^ mix(salt.wrapping_mul(0xA5)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_REORDER: u64 = 3;
const SALT_JITTER: u64 = 4;
const SALT_ACK_DROP: u64 = 5;

/// What the fabric thread is told to do.
enum Event {
    /// A packet entered the shim on (from → to). `exempt` marks control
    /// traffic (Shutdown) that must not be dropped or duplicated but
    /// still rides the sequenced path so it cannot overtake data.
    Send { from: u16, to: u16, body: Vec<u8>, req: u64, exempt: bool },
    /// Machine died: drop its link state.
    Sever(u16),
    /// The transport is shutting down: the fabric thread exits,
    /// discarding whatever is still in flight.
    Teardown,
}

/// An in-flight datagram or timer, ordered by due time.
struct HeapEntry {
    due: Instant,
    tick: u64,
    item: Item,
}

enum Item {
    Data {
        from: u16,
        to: u16,
        seq: u64,
        body: Vec<u8>,
        req: u64,
        exempt: bool,
    },
    Ack {
        from: u16,
        to: u16,
        seq: u64,
    },
    /// Retransmission timer for (from → to, seq).
    RetxCheck {
        from: u16,
        to: u16,
        seq: u64,
        attempt: u32,
        rto_us: u64,
    },
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.tick == other.tick
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest due pops
        // first, with the insertion tick as a stable tiebreak.
        (Reverse(self.due), Reverse(self.tick)).cmp(&(Reverse(other.due), Reverse(other.tick)))
    }
}

/// Sender-side state of one directed link.
#[derive(Default)]
struct LinkTx {
    next_seq: u64,
    /// seq → (body, req, exempt): retransmitted until acked.
    unacked: BTreeMap<u64, (Vec<u8>, u64, bool)>,
}

/// Receiver-side state of one directed link.
#[derive(Default)]
struct LinkRx {
    /// Next in-order sequence number.
    expected: u64,
    /// Out-of-order datagrams parked until the gap fills.
    holdback: BTreeMap<u64, Vec<u8>>,
    /// Acks sent on this link (salt source for ack loss decisions).
    acks_sent: u64,
}

/// Everything the fabric thread owns plus the handles other threads use.
struct Shared {
    spec: LossSpec,
    rx: Arc<ReceiveSide>,
    /// Logical frames charged to measured wire time per machine — the
    /// redelivery-accounting exactness hook: equals frames delivered,
    /// not frames arrived.
    frames_charged: Vec<AtomicU64>,
    obs: Arc<MetricsRegistry>,
    flight: Option<Arc<FlightRecorder>>,
}

impl Shared {
    fn on_retransmit(&self, from: u16, to: u16, req: u64, bytes: usize) {
        self.obs.machine(from).lossy_retransmits.fetch_add(1, Ordering::Relaxed);
        self.flight_event(from, to, FlightKind::Retransmit, req, bytes);
    }

    fn on_dup_suppressed(&self, from: u16, to: u16, req: u64, bytes: usize) {
        self.obs.machine(to).lossy_dups_suppressed.fetch_add(1, Ordering::Relaxed);
        self.flight_event(to, from, FlightKind::DupSuppressed, req, bytes);
    }

    /// Record `kind` among `machine`'s flight records, stamped on the
    /// recorder's clock (the cluster epoch the VM's events share).
    fn flight_event(&self, machine: u16, peer: u16, kind: FlightKind, req: u64, bytes: usize) {
        if let Some(flight) = &self.flight {
            let (t_us, bytes) = (flight.now_us(), bytes.min(u32::MAX as usize) as u32);
            flight.record(
                machine,
                FlightEvent { t_us, req, bytes, kind, peer, ..Default::default() },
            );
        }
    }
}

/// The lossy transport: an in-process datagram fabric with one
/// protocol/timer thread owning all link state.
pub(crate) struct LossyTransport {
    shared: Arc<Shared>,
    events: mpsc::Sender<Event>,
    fabric: Mutex<Option<JoinHandle<()>>>,
}

impl LossyTransport {
    /// Retransmit and dup-suppression counts land in the registry
    /// shards; with a flight recorder each one also records a flight
    /// event on the involved machine's ring.
    pub fn new(
        rx: Arc<ReceiveSide>,
        spec: LossSpec,
        obs: Arc<MetricsRegistry>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Arc<LossyTransport> {
        let n = rx.machines();
        let shared = Arc::new(Shared {
            spec,
            rx,
            frames_charged: (0..n).map(|_| AtomicU64::new(0)).collect(),
            obs,
            flight,
        });
        let (events, rx) = mpsc::channel();
        let fabric = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lossy-fabric".into())
                .spawn(move || fabric_loop(shared, rx))
                .expect("spawn lossy fabric thread")
        };
        Arc::new(LossyTransport { shared, events, fabric: Mutex::new(Some(fabric)) })
    }
}

impl Transport for LossyTransport {
    fn deliver(&self, from: u16, to: u16, packet: Packet) {
        // Control traffic is harness teardown: it must arrive (never
        // dropped) and must not overtake data already sent on this link,
        // so it rides the sequenced path with the loss exemption flag.
        let exempt = packet.is_control();
        let req = match &packet {
            Packet::Request { req_id, .. }
            | Packet::Reply { req_id, .. }
            | Packet::NewRemote { req_id, .. } => *req_id,
            _ => 0,
        };
        // The datagram path always crosses as encoded bytes: the codec
        // is exercised for real, exactly like the socket backends.
        let Ok(body) = packet.encode_body(self.shared.rx.now_ns()) else {
            return; // unencodable (oversized) packet: dropped like a torn stream
        };
        let _ = self.events.send(Event::Send { from, to, body, req, exempt });
    }

    fn sever(&self, machine: u16) {
        // The death notice does not cross the shim: a survivor must not
        // wait out a retransmit chain to learn its peer is gone.
        if self.shared.rx.sever(machine) {
            let _ = self.events.send(Event::Sever(machine));
        }
    }

    fn shutdown(&self) {
        // Anything still in flight is discarded (the drain loops are
        // gone by the time the VM tears the fabric down, mirroring the
        // socket mesh's cut streams at teardown).
        if let Some(handle) = lock(&self.fabric).take() {
            let _ = self.events.send(Event::Teardown);
            let _ = handle.join();
        }
    }
}

impl Drop for LossyTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The fabric thread: owns every link's protocol state and the in-flight
/// datagram heap, so no lock is ever taken on a per-datagram basis.
fn fabric_loop(shared: Arc<Shared>, events: mpsc::Receiver<Event>) {
    let spec = shared.spec;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut tick: u64 = 0;
    let mut tx_links: HashMap<(u16, u16), LinkTx> = HashMap::new();
    let mut rx_links: HashMap<(u16, u16), LinkRx> = HashMap::new();

    let push = |heap: &mut BinaryHeap<HeapEntry>, tick: &mut u64, due: Instant, item: Item| {
        *tick += 1;
        heap.push(HeapEntry { due, tick: *tick, item });
    };

    // Schedule the in-flight copies of one transmission attempt: the
    // primary copy (unless dropped) plus a duplicate (if the dup hash
    // says so). Exempt traffic is never dropped, duplicated or jittered.
    let schedule_copies = |heap: &mut BinaryHeap<HeapEntry>,
                           tick: &mut u64,
                           from: u16,
                           to: u16,
                           seq: u64,
                           attempt: u32,
                           body: &[u8],
                           req: u64,
                           exempt: bool| {
        let now = Instant::now();
        let delay_of = |salt_attempt: u32| {
            let mut us = DELAY_US;
            if !exempt
                && decide(spec.seed, from, to, seq, salt_attempt, SALT_REORDER) < REORDER_RATE
            {
                let frac = decide(spec.seed, from, to, seq, salt_attempt, SALT_JITTER);
                us += (JITTER_US as f64 * frac) as u64;
            }
            Duration::from_micros(us)
        };
        let dropped = !exempt
            && attempt <= FORCE_DELIVER_AFTER
            && decide(spec.seed, from, to, seq, attempt, SALT_DROP) < spec.rate;
        if !dropped {
            let copy = || Item::Data { from, to, seq, body: body.to_vec(), req, exempt };
            push(heap, tick, now + delay_of(attempt), copy());
            if !exempt && decide(spec.seed, from, to, seq, attempt, SALT_DUP) < spec.rate {
                // The duplicate takes an independently-jittered path
                // (salted with the attempt's complement) so it can land
                // before or after the primary.
                push(heap, tick, now + delay_of(attempt | 0x8000_0000), copy());
            }
        }
    };

    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|e| e.due <= now) {
            let entry = heap.pop().unwrap();
            match entry.item {
                Item::Data { from, to, seq, body, req, exempt } => {
                    if shared.rx.link_severed(from, to) {
                        continue;
                    }
                    let rx = rx_links.entry((from, to)).or_default();
                    // Ack every arriving copy: a duplicate means our
                    // previous ack may have been lost, so the ack must
                    // be repeated either way.
                    rx.acks_sent += 1;
                    let ack_dropped = !exempt
                        && decide(spec.seed, from, to, seq, rx.acks_sent as u32, SALT_ACK_DROP)
                            < spec.rate;
                    if !ack_dropped {
                        push(
                            &mut heap,
                            &mut tick,
                            now + Duration::from_micros(DELAY_US),
                            Item::Ack { from: to, to: from, seq },
                        );
                    }
                    if seq < rx.expected || rx.holdback.contains_key(&seq) {
                        shared.on_dup_suppressed(from, to, req, body.len());
                        continue;
                    }
                    rx.holdback.insert(seq, body);
                    // Drain the in-order prefix to the mailbox.
                    while let Some(body) = rx.holdback.remove(&rx.expected) {
                        rx.expected += 1;
                        deliver_frame(&shared, to, &body);
                    }
                }
                Item::Ack { from, to, seq } => {
                    // The ack travels receiver → sender, so the data
                    // link it acknowledges is keyed (to, from).
                    if let Some(ltx) = tx_links.get_mut(&(to, from)) {
                        ltx.unacked.remove(&seq);
                        // The pending RetxCheck finds the slot empty
                        // and becomes a no-op.
                    }
                }
                Item::RetxCheck { from, to, seq, attempt, rto_us } => {
                    if shared.rx.link_severed(from, to) {
                        continue;
                    }
                    let Some(ltx) = tx_links.get_mut(&(from, to)) else { continue };
                    let Some((body, req, exempt)) = ltx.unacked.get(&seq).cloned() else {
                        continue; // acked in the meantime
                    };
                    shared.on_retransmit(from, to, req, body.len());
                    let attempt = attempt + 1;
                    schedule_copies(
                        &mut heap, &mut tick, from, to, seq, attempt, &body, req, exempt,
                    );
                    let next_rto = (rto_us * 2).min(MAX_RTO_US);
                    push(
                        &mut heap,
                        &mut tick,
                        Instant::now() + Duration::from_micros(next_rto),
                        Item::RetxCheck { from, to, seq, attempt, rto_us: next_rto },
                    );
                }
            }
        }

        // Wait for the next event or the next due datagram.
        let timeout = heap
            .peek()
            .map(|e| e.due.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE)
            .min(IDLE);
        match events.recv_timeout(timeout) {
            Ok(Event::Send { from, to, body, req, exempt }) => {
                if shared.rx.link_severed(from, to) {
                    continue;
                }
                let ltx = tx_links.entry((from, to)).or_default();
                let seq = ltx.next_seq;
                ltx.next_seq += 1;
                ltx.unacked.insert(seq, (body.clone(), req, exempt));
                push(
                    &mut heap,
                    &mut tick,
                    Instant::now() + Duration::from_micros(RTO_US),
                    Item::RetxCheck { from, to, seq, attempt: 1, rto_us: RTO_US },
                );
                schedule_copies(&mut heap, &mut tick, from, to, seq, 1, &body, req, exempt);
            }
            Ok(Event::Sever(m)) => {
                tx_links.retain(|&(f, t), _| f != m && t != m);
                rx_links.retain(|&(f, t), _| f != m && t != m);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Event::Teardown) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Decode one frame body and deliver it, charging its measured wire time.
fn deliver_frame(shared: &Shared, to: u16, body: &[u8]) {
    let Ok((packet, sent_ns)) = Packet::decode_body(body) else {
        return; // corrupt frame: dropped (the shim never corrupts bytes)
    };
    shared.frames_charged[to as usize].fetch_add(1, Ordering::Relaxed);
    shared.rx.arrived(to, packet, sent_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive::{Mailbox, Mailboxes};
    use crate::transport::tests::spin_until;

    /// A fabric with its own registry and no flight recorder.
    fn fabric(n: usize, spec: LossSpec) -> (Mailboxes, Arc<LossyTransport>) {
        let (mailboxes, rx) = ReceiveSide::new(n);
        let obs = Arc::new(MetricsRegistry::new(n));
        (mailboxes, LossyTransport::new(rx, spec, obs, None))
    }

    impl LossyTransport {
        fn retransmits(&self) -> u64 {
            self.shared.obs.snapshot().machines.iter().map(|m| m.lossy_retransmits).sum()
        }

        fn dups_suppressed(&self) -> u64 {
            self.shared.obs.snapshot().machines.iter().map(|m| m.lossy_dups_suppressed).sum()
        }

        fn frames_charged(&self, machine: u16) -> u64 {
            self.shared.frames_charged[machine as usize].load(Ordering::Relaxed)
        }
    }

    fn reply(req_id: u64) -> Packet {
        Packet::Reply { req_id, payload: vec![0; 64], err: None }
    }

    /// Collect whatever arrives at `mb` until it has been quiet for
    /// `window`.
    fn drain_for(mb: &Mailbox, window: Duration) -> Vec<Packet> {
        let mut got = Vec::new();
        let mut last = Instant::now();
        spin_until("the link to go quiet", Duration::from_secs(10), || {
            while let Ok(Some(p)) = mb.try_recv() {
                got.push(p);
                last = Instant::now();
            }
            last.elapsed() > window
        });
        got
    }

    #[test]
    fn at_most_once_is_exactly_once_in_order_under_heavy_faults() {
        let (mailboxes, t) = fabric(2, LossSpec::seeded(0x5EED, 0.3));
        const N: u64 = 200;
        for i in 0..N {
            t.deliver(0, 1, reply(i));
        }
        for i in 0..N {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, .. } => {
                    assert_eq!(req_id, i, "per-link FIFO restored despite reordering")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(t.retransmits() > 0, "30% drop must trigger retransmissions");
        assert!(t.dups_suppressed() > 0, "dup rate + retransmits must hit the dedup path");
        // Exactly once: nothing further arrives after the in-order prefix.
        let extra = drain_for(&mailboxes[1], Duration::from_millis(100));
        assert!(extra.is_empty(), "no duplicate deliveries, got {extra:?}");
        // Redelivery-accounting exactness: every logical frame charged
        // wire time exactly once, regardless of how many copies flew.
        assert_eq!(t.frames_charged(1), N);
        assert!(t.shared.rx.measured_ns(1) > 0);
        t.shutdown();
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        // Arrival order depends on wall-clock jitter; the deterministic
        // part is each datagram's fate, a pure function of its inputs.
        let dropped = |seed: u64| -> Vec<u64> {
            (0..1_000).filter(|&seq| decide(seed, 0, 1, seq, 1, SALT_DROP) < 0.5).collect()
        };
        assert_eq!(dropped(7), dropped(7), "same seed, same traffic => same fates");
        assert_ne!(dropped(7), dropped(8), "different seed => different fates");
    }

    #[test]
    fn shutdown_packet_is_sequenced_and_never_lost() {
        let (mailboxes, t) = fabric(2, LossSpec::seeded(0x5EED, 0.3));
        for i in 0..50u64 {
            t.deliver(0, 1, reply(i));
        }
        t.deliver(0, 1, Packet::Shutdown);
        // Shutdown must arrive, and only after all 50 data frames.
        for i in 0..50u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i),
                Packet::Shutdown => panic!("Shutdown overtook data frame {i}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(mailboxes[1].recv().unwrap(), Packet::Shutdown);
        t.shutdown();
    }

    #[test]
    fn seeded_sets_the_rate_over_the_default_plan() {
        assert_eq!(LossSpec::seeded(42, 0.2), LossSpec { seed: 42, rate: 0.2 });
        assert_eq!(LossSpec::default(), LossSpec { seed: 0x5EED, rate: 0.05 });
    }
}
