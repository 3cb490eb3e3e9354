//! Transport abstraction between simulated machines.
//!
//! [`NetHandle`] is the VM-facing fabric: it does *all* statistics
//! accounting (message counts, wire bytes, modeled wire time) before
//! handing the packet to the selected [`Transport`] backend, so counters
//! and Tables 4/6/8 accounting are identical no matter what carries the
//! bytes. Every backend ends in the same receive side (`receive.rs`);
//! what differs is the carrier in front of it — a queue push (the
//! channel backend in this module, the default), the socket mesh of
//! `mesh.rs` under its thread-per-stream (`tcp.rs`) or event-loop
//! (`reactor.rs`) drive, or the seeded fault shim and reliability
//! protocol of [`crate::lossy`].

use std::fmt;
use std::io;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corm_obs::{FlightRecorder, MetricsRegistry};
use corm_wire::RmiStats;

use crate::cost::CostModel;
use crate::lossy::{LossSpec, LossyTransport};
use crate::mesh::Mesh;
use crate::packet::Packet;
use crate::receive::{Mailboxes, ReceiveSide, ReplyHandler};

/// A packet carrier: moves already-accounted packets between machines,
/// onto the mailboxes of the receive side it was built on.
/// Implementations must preserve per-(sender, receiver) FIFO order — the
/// only ordering the VM relies on.
pub trait Transport: Send + Sync {
    /// Carry `packet` to `to`'s mailbox. [`NetHandle::send`] has already
    /// delivered loopback sends and dropped a dead machine's traffic, so
    /// `from != to` here. A delivery to a machine whose drain loop
    /// already exited is silently dropped, matching a network whose peer
    /// powered down during shutdown.
    fn deliver(&self, from: u16, to: u16, packet: Packet);

    /// Fault injection: `machine` (always one of the cluster's) dies
    /// abruptly, power cord pulled. Its carriers are cut without an
    /// orderly shutdown; subsequent deliveries to or from it are
    /// dropped, and every *other* machine receives [`Packet::PeerGone`]
    /// for it — the signal the VM drain loop turns into failed replies.
    fn sever(&self, machine: u16);

    /// Orderly teardown: close carriers and join I/O threads so drops
    /// never hang. Idempotent.
    fn shutdown(&self);
}

/// Which backend carries the packets. Selected at run time
/// (`corm run --transport channel|tcp|reactor|lossy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process queues, one per machine; wire transit is modeled only.
    #[default]
    Channel,
    /// Real loopback TCP mesh, one blocking reader thread per stream;
    /// wire transit is additionally measured.
    Tcp,
    /// The same mesh, nonblocking and read by a small fixed reactor
    /// pool (O(threads), not O(peers)). Wire transit is additionally
    /// measured.
    Reactor,
    /// Datagram fabric behind a deterministic, seed-driven fault shim
    /// (drop/duplicate/reorder/delay) with sequence numbers, capped-
    /// backoff retransmission and receiver-side dedup + holdback, which
    /// restore exactly-once in-order delivery below the VM. Wire
    /// transit is additionally measured, once per logical frame.
    Lossy,
}

impl TransportKind {
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
            TransportKind::Reactor => "reactor",
            TransportKind::Lossy => "lossy",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            "reactor" => Ok(TransportKind::Reactor),
            "lossy" => Ok(TransportKind::Lossy),
            other => {
                Err(format!("unknown transport {other:?} (expected channel|tcp|reactor|lossy)"))
            }
        }
    }
}

/// The original in-process fabric: a packet crosses by being pushed
/// onto the destination's mailbox, so no wire time is ever measured.
struct ChannelTransport {
    rx: Arc<ReceiveSide>,
}

impl Transport for ChannelTransport {
    fn deliver(&self, _from: u16, to: u16, packet: Packet) {
        self.rx.enqueue(to, packet);
    }

    fn sever(&self, machine: u16) {
        self.rx.sever(machine);
    }

    fn shutdown(&self) {}
}

/// Shared sending fabric: any thread can send to any machine.
#[derive(Clone)]
pub struct NetHandle {
    kind: TransportKind,
    transport: Arc<dyn Transport>,
    /// Where every backend's packets end up; also delivers what never
    /// needs a carrier (loopback sends, a dead machine's traffic).
    rx: Arc<ReceiveSide>,
    /// Sharded per-machine metrics; wire traffic is accounted to the
    /// *sending* machine's shard (per-machine sums equal the old
    /// cluster-global totals exactly).
    pub obs: Arc<MetricsRegistry>,
    pub cost: CostModel,
    /// Accumulated modeled wire time over all messages, in nanoseconds.
    modeled_ns: Arc<AtomicU64>,
}

impl NetHandle {
    /// Create the fabric for `n` machines on the selected backend: one
    /// mailbox per machine plus the shared send handle. Socket bring-up can
    /// fail (socket limits, no loopback) — channel never does. The VM owns
    /// the rest of the configuration: the seeded loss model for the lossy
    /// backend (`None` selects [`LossSpec::default`]) and the flight
    /// recorder that retransmit / dup-suppression events land in. Both are
    /// ignored by the reliable backends.
    pub fn with_kind_config(
        kind: TransportKind,
        n: usize,
        cost: CostModel,
        obs: Arc<MetricsRegistry>,
        loss: Option<LossSpec>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> io::Result<(Mailboxes, NetHandle)> {
        debug_assert!(obs.num_machines() >= n, "registry must cover every machine");
        let (mailboxes, rx) = ReceiveSide::new(n);
        let transport: Arc<dyn Transport> = match kind {
            TransportKind::Channel => Arc::new(ChannelTransport { rx: rx.clone() }),
            TransportKind::Tcp => Mesh::new(rx.clone(), false, None)?,
            // The reactor feeds its outbound-buffer occupancy gauge into
            // the registry shards for the timeline sampler.
            TransportKind::Reactor => Mesh::new(rx.clone(), true, Some(obs.clone()))?,
            TransportKind::Lossy => {
                let loss = loss.unwrap_or_default();
                LossyTransport::new(rx.clone(), loss, obs.clone(), flight)
            }
        };
        let modeled_ns = Arc::new(AtomicU64::new(0));
        Ok((mailboxes, NetHandle { kind, transport, rx, obs, cost, modeled_ns }))
    }

    /// Complete replies where they are received: from now on a
    /// [`Packet::Reply`] is handed to `handler` by the thread that delivers
    /// it and never enters a mailbox. Accounting, the sever filter and
    /// measured wire time all come before delivery and do not change. To be
    /// called once, before the first send; without it replies are mailbox
    /// packets like any other.
    pub fn on_reply(&self, handler: ReplyHandler) {
        self.rx.on_reply(handler);
    }

    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    pub fn machines(&self) -> usize {
        self.rx.machines()
    }

    /// Send `packet` to `to`, accounting wire bytes and modeled time.
    /// Loopback sends (local RPCs) are delivered but cost nothing on the
    /// modeled wire and never reach the backend. Accounting happens
    /// *before* the backend is invoked, so counters are
    /// backend-independent.
    pub fn send(&self, from: u16, to: u16, packet: Packet) {
        let bytes = packet.wire_bytes();
        if !packet.is_control() {
            let stats = &self.obs.machine(from).stats;
            RmiStats::bump(&stats.messages, 1);
            RmiStats::bump(&stats.wire_bytes, bytes);
            if from != to {
                self.modeled_ns.fetch_add(self.cost.message_ns(bytes), Ordering::Relaxed);
            }
        }
        if let Some(packet) = self.rx.route(from, to, packet) {
            self.transport.deliver(from, to, packet);
        }
    }

    pub fn modeled_ns(&self) -> u64 {
        self.modeled_ns.load(Ordering::Relaxed)
    }

    /// Measured in-flight wall time for packets received by `machine`
    /// (zero on the channel backend, where nothing crosses a carrier).
    pub fn measured_wire_ns(&self, machine: u16) -> u64 {
        self.rx.measured_ns(machine)
    }

    /// Per-machine measured wire time, indexed by receiving machine.
    pub fn measured_wire_ns_per_machine(&self) -> Vec<u64> {
        (0..self.machines() as u16).map(|m| self.measured_wire_ns(m)).collect()
    }

    /// Fault injection: kill `machine` abruptly (see [`Transport::sever`]).
    /// Survivors observe `PeerGone`; packets touching the dead machine
    /// are dropped from then on. Killing a machine that does not exist
    /// does nothing, on every backend.
    pub fn sever(&self, machine: u16) {
        if (machine as usize) < self.machines() {
            self.transport.sever(machine);
        }
    }

    /// Tear down the backend (close sockets, join I/O threads). Safe to
    /// call more than once; required before dropping a socket fabric to
    /// guarantee no thread is left blocked.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::receive::RecvError;
    use std::time::{Duration, Instant};

    fn fabric_of(kind: TransportKind, n: usize) -> (Mailboxes, NetHandle) {
        let obs = Arc::new(MetricsRegistry::new(n));
        NetHandle::with_kind_config(kind, n, CostModel::default(), obs, None, None)
            .expect("fabric construction")
    }

    pub(crate) fn reply(req_id: u64, bytes: usize) -> Packet {
        Packet::Reply { req_id, payload: vec![7; bytes], err: None }
    }

    /// Bounded spin-wait that panics by name on timeout. Tests must
    /// never time out *silently* and fall through to their asserts:
    /// the resulting failure blames whatever counter happens to be
    /// checked next instead of the wait that actually gave up.
    pub(crate) fn spin_until(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + limit;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out after {limit:?} waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// What every backend must do, whatever carries the bytes. Each case
    /// runs once per backend, under that backend's name prefix (CI
    /// shards on `channel_`, `tcp_`, `reactor_`, `lossy_`).
    mod cases {
        use super::*;

        pub fn roundtrip_and_measured_time(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 3);
            net.send(0, 2, reply(7, 4096));
            assert_eq!(mailboxes[2].recv().unwrap(), reply(7, 4096));
            assert_eq!(mailboxes[0].try_recv().unwrap(), None);
            assert_eq!(mailboxes[1].try_recv().unwrap(), None);
            // Only a packet that crossed a carrier has time in flight.
            assert_eq!(net.measured_wire_ns(2) > 0, kind != TransportKind::Channel);
            assert_eq!(net.measured_wire_ns(0), 0);
            net.shutdown();
        }

        pub fn loopback_bypasses_carrier_and_measurement(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.send(1, 1, reply(4, 64));
            net.send(1, 1, Packet::Shutdown);
            assert_eq!(mailboxes[1].recv().unwrap(), reply(4, 64));
            assert_eq!(mailboxes[1].recv().unwrap(), Packet::Shutdown);
            assert_eq!(net.measured_wire_ns(1), 0);
            let queued = net.obs.machine_snapshot(1).reactor_queued_bytes;
            assert_eq!(queued, 0, "loopback never enters a buffer");
            net.shutdown();
        }

        pub fn per_pair_fifo_order_is_preserved(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 2);
            for i in 0..200u64 {
                net.send(0, 1, reply(i, 0));
            }
            for i in 0..200u64 {
                assert_eq!(mailboxes[1].recv().unwrap(), reply(i, 0));
            }
            net.shutdown();
        }

        pub fn echo_across_threads(kind: TransportKind) {
            let (mut mailboxes, net) = fabric_of(kind, 2);
            let (theirs, echo_net) = (mailboxes.remove(1), net.clone());
            let echo = std::thread::spawn(move || {
                for _ in 0..100 {
                    echo_net.send(1, 0, theirs.recv().unwrap());
                }
            });
            for i in 0..100u64 {
                net.send(0, 1, reply(i, 8));
                assert_eq!(mailboxes[0].recv().unwrap(), reply(i, 8));
            }
            echo.join().unwrap();
            net.shutdown();
        }

        pub fn accounting_matches_the_channel_backend(kind: TransportKind) {
            let run = |kind| {
                let (mailboxes, net) = fabric_of(kind, 2);
                net.send(0, 1, reply(1, 1000));
                net.send(1, 1, Packet::NewRemote { req_id: 2, from: 1, class: 0 });
                // Wait for actual delivery so the I/O threads are done.
                mailboxes[1].recv().unwrap();
                mailboxes[1].recv().unwrap();
                net.shutdown();
                (net.obs.cluster_snapshot(), net.modeled_ns())
            };
            assert_eq!(run(kind), run(TransportKind::Channel), "accounting depends on the backend");
        }

        pub fn shutdown_is_orderly_and_idempotent(kind: TransportKind) {
            let (_mailboxes, net) = fabric_of(kind, 4);
            net.shutdown();
            net.shutdown(); // second call is a no-op
            drop(net); // drop re-enters shutdown; none of this may hang
        }

        pub fn orderly_shutdown_reports_disconnected_not_peer_gone(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.shutdown();
            // Once the fabric is dropped the mailboxes report
            // disconnection, never a synthetic PeerGone.
            drop(net);
            assert_eq!(mailboxes[0].recv(), Err(RecvError::Disconnected));
            assert_eq!(mailboxes[1].recv(), Err(RecvError::Disconnected));
        }

        /// Machine 1's power cord is pulled: the survivors observe
        /// PeerGone for exactly that peer — the signal the VM drain loop
        /// turns into failed replies — exactly once, and keep working.
        pub fn severed_peer_surfaces_as_peer_gone_once(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 3);
            // Traffic flows before the crash…
            net.send(1, 0, reply(9, 1));
            assert_eq!(mailboxes[0].recv().unwrap(), reply(9, 1));
            // …then machine 1 dies (and is reported dead twice).
            net.sever(1);
            net.sever(1);
            for mb in [&mailboxes[0], &mailboxes[2]] {
                assert_eq!(mb.recv().unwrap(), Packet::PeerGone { peer: 1 }, "{kind}");
                assert_eq!(mb.try_recv().unwrap(), None, "{kind}: one PeerGone per death");
            }
            // Traffic toward the dead peer is dropped, never hangs…
            net.send(0, 1, reply(10, 0));
            // …and survivors still talk to each other.
            net.send(0, 2, reply(11, 0));
            assert_eq!(mailboxes[2].recv().unwrap(), reply(11, 0));
            net.shutdown();
        }

        /// Regression: killing a machine that never existed used to
        /// announce its death on channel and lossy, and `sever(65535)`
        /// doubled as lossy's teardown signal, silently killing the
        /// fabric thread.
        pub fn severing_an_unknown_machine_does_nothing(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.sever(2);
            net.sever(u16::MAX);
            // The first thing either machine hears is real traffic.
            net.send(0, 1, reply(1, 8));
            net.send(1, 0, reply(2, 8));
            assert_eq!(mailboxes[1].recv().unwrap(), reply(1, 8));
            assert_eq!(mailboxes[0].recv().unwrap(), reply(2, 8));
            net.shutdown();
        }

        /// With a reply handler registered, the thread that delivers a
        /// `Reply` hands it over — in per-pair order, measured as before —
        /// and the mailboxes carry everything else, as before.
        pub fn a_reply_handler_gets_every_reply_and_the_mailboxes_none(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 3);
            let (got_tx, got) = std::sync::mpsc::channel();
            net.on_reply(Box::new(move |to, req, reply| got_tx.send((to, req, reply)).unwrap()));
            let request = |req_id| Packet::NewRemote { req_id, from: 0, class: 0 };
            for i in 0..100u64 {
                net.send(0, 1, reply(i, 8));
                net.send(0, 1, request(i));
            }
            let failed = Packet::Reply { req_id: 100, payload: Vec::new(), err: Some("no".into()) };
            net.send(0, 1, failed);
            for i in 0..100u64 {
                assert_eq!(got.recv().unwrap(), (1, i, Ok(vec![7; 8])), "{kind}");
                assert_eq!(mailboxes[1].recv().unwrap(), request(i), "{kind}");
            }
            assert_eq!(got.recv().unwrap(), (1, 100, Err("no".to_string())));
            assert_eq!(net.measured_wire_ns(1) > 0, kind != TransportKind::Channel);
            // A death notice is still a mailbox packet, and the sever filter
            // still comes first: no reply to or from the dead machine.
            net.sever(2);
            assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 2 });
            assert_eq!(mailboxes[1].recv().unwrap(), Packet::PeerGone { peer: 2 });
            net.send(0, 2, reply(101, 0));
            net.send(2, 0, reply(102, 0));
            net.send(1, 0, reply(103, 0));
            assert_eq!(got.recv().unwrap(), (0, 103, Ok(Vec::new())));
            assert!(got.try_recv().is_err(), "{kind}: a severed machine's reply was delivered");
            // (A socket backend may tell machine 0 again, for its failed write.)
            for mb in &mailboxes[..2] {
                while let Some(packet) = mb.try_recv().unwrap() {
                    assert_eq!(packet, Packet::PeerGone { peer: 2 }, "{kind}: in a mailbox");
                }
            }
            net.shutdown();
        }

        /// Socket backends only (a queue push cannot fail). Kill the
        /// peer *between* two writes on an established stream: the
        /// write path itself reports PeerGone to the sender's own
        /// mailbox, so the failure is observed even if the reader-side
        /// signal is lost — never a silent hang.
        pub fn failed_write_reports_peer_gone_to_sender(kind: TransportKind) {
            let (mailboxes, net) = fabric_of(kind, 2);
            // Prove the stream works before the kill.
            net.send(0, 1, reply(0, 8));
            assert_eq!(mailboxes[1].recv().unwrap(), reply(0, 8));
            // Drain the reader-side notification first, so the next
            // PeerGone is unambiguously from the *write* path.
            net.sever(1);
            assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
            // The kernel may buffer the first post-FIN write, but within
            // a bounded number of sends the write fails.
            spin_until("the sender to observe its failed write", Duration::from_secs(10), || {
                net.send(0, 1, reply(1, 1 << 16));
                mailboxes[0].try_recv().unwrap() == Some(Packet::PeerGone { peer: 1 })
            });
            // The dead connection is retired: further sends drop
            // silently without duplicate notifications.
            net.send(0, 1, reply(2, 8));
            assert_eq!(mailboxes[0].try_recv().unwrap(), None);
            net.shutdown();
        }
    }

    macro_rules! conformance {
        ($backend:ident, $kind:expr $(, $socket_only:ident)*) => {
            mod $backend {
                use super::{cases, TransportKind};
                conformance!(@tests $kind,
                    roundtrip_and_measured_time,
                    loopback_bypasses_carrier_and_measurement,
                    per_pair_fifo_order_is_preserved,
                    echo_across_threads,
                    accounting_matches_the_channel_backend,
                    shutdown_is_orderly_and_idempotent,
                    orderly_shutdown_reports_disconnected_not_peer_gone,
                    severed_peer_surfaces_as_peer_gone_once,
                    severing_an_unknown_machine_does_nothing,
                    a_reply_handler_gets_every_reply_and_the_mailboxes_none
                    $(, $socket_only)*);
            }
        };
        (@tests $kind:expr, $($case:ident),+) => {
            $(#[test]
            fn $case() {
                cases::$case($kind)
            })+
        };
    }

    conformance!(channel_, TransportKind::Channel);
    conformance!(tcp_, TransportKind::Tcp, failed_write_reports_peer_gone_to_sender);
    conformance!(reactor_, TransportKind::Reactor, failed_write_reports_peer_gone_to_sender);
    conformance!(lossy_, TransportKind::Lossy);

    #[test]
    fn stats_and_modeled_time_accumulate() {
        let (_mb, net) = fabric_of(TransportKind::Channel, 2);
        net.send(0, 1, Packet::Reply { req_id: 1, payload: vec![0; 1000], err: None });
        let snap = net.obs.cluster_snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.wire_bytes, 1016);
        assert_eq!(net.modeled_ns(), net.cost.message_ns(1016));
        // Accounted to the sender's shard, not the receiver's.
        assert_eq!(net.obs.machine(0).stats.snapshot().messages, 1);
        assert_eq!(net.obs.machine(1).stats.snapshot().messages, 0);
    }

    #[test]
    fn loopback_counts_stats_but_not_wire_time() {
        let (_mb, net) = fabric_of(TransportKind::Channel, 2);
        net.send(1, 1, Packet::Reply { req_id: 1, payload: vec![0; 100], err: None });
        assert_eq!(net.obs.cluster_snapshot().messages, 1);
        assert_eq!(net.modeled_ns(), 0, "local RPCs do not cross the wire");
    }

    #[test]
    fn disconnect_is_distinguished_from_empty() {
        let (mailboxes, net) = fabric_of(TransportKind::Channel, 1);
        assert_eq!(mailboxes[0].try_recv().unwrap(), None, "empty, not disconnected");
        drop(net);
        assert_eq!(mailboxes[0].recv(), Err(RecvError::Disconnected));
        assert_eq!(mailboxes[0].try_recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn transport_kind_parses() {
        assert_eq!("channel".parse::<TransportKind>().unwrap(), TransportKind::Channel);
        assert_eq!("tcp".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert_eq!("reactor".parse::<TransportKind>().unwrap(), TransportKind::Reactor);
        assert_eq!("lossy".parse::<TransportKind>().unwrap(), TransportKind::Lossy);
        assert_eq!(TransportKind::Lossy.to_string(), "lossy");
        assert!("gm".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::Reactor.to_string(), "reactor");
        assert_eq!(TransportKind::default(), TransportKind::Channel);
    }
}
