//! The receive side every backend shares.
//!
//! Whatever carries the bytes, a packet ends its trip the same way: it
//! is pushed onto the destination machine's mailbox, the one queue that
//! machine's drain loop owns (GM-style single drainer). [`ReceiveSide`]
//! owns those queues and is the only code that delivers loopback sends,
//! stamps measured wire time, filters traffic of severed machines and
//! injects [`Packet::PeerGone`] — so "failure semantics are the same on
//! every backend" is shared code, not a convention kept by hand.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use crate::packet::Packet;

/// Why a receive could not produce a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The sending side is gone (fabric torn down or every sender
    /// dropped). Distinct from "no packet yet" so the drain loop can
    /// tell shutdown from quiescence.
    Disconnected,
}

/// Receiving end of one machine's network interface. The VM's drain loop
/// owns this (GM-style single drainer).
pub struct Mailbox {
    machine: u16,
    rx: Receiver<Packet>,
}

impl Mailbox {
    /// The machine this mailbox belongs to.
    pub fn machine(&self) -> u16 {
        self.machine
    }

    /// Block until the next packet arrives.
    pub fn recv(&self) -> Result<Packet, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Non-blocking poll (the paper's "allow the runtime system to poll
    /// for messages while the GM-poll-thread remains blocked").
    /// `Ok(None)` means "no packet yet".
    pub fn try_recv(&self) -> Result<Option<Packet>, RecvError> {
        match self.rx.try_recv() {
            Ok(p) => Ok(Some(p)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RecvError::Disconnected),
        }
    }
}

/// Every machine's receive side, indexed by machine id — what transport
/// constructors hand to the VM.
pub type Mailboxes = Vec<Mailbox>;

/// Who takes a [`Packet::Reply`] where it is received, in the mailbox's
/// place: called with the receiving machine, the request id, and the payload
/// or the remote error — on whichever thread delivered the packet (the
/// replying thread on the channel backend; a reader, reactor or fabric thread
/// otherwise), so it must not wait for anything.
pub type ReplyHandler = Box<dyn Fn(u16, u64, Result<Vec<u8>, String>) + Send + Sync>;

/// The sending ends of every mailbox plus the state that decides what
/// may be pushed onto them.
pub(crate) struct ReceiveSide {
    /// Monotonic clock shared by send and receive sides; frame
    /// timestamps are nanoseconds since this epoch.
    epoch: Instant,
    txs: Vec<Sender<Packet>>,
    /// Measured in-flight nanoseconds, indexed by receiving machine.
    measured_ns: Vec<AtomicU64>,
    /// Machines killed by [`ReceiveSide::sever`].
    severed: Vec<AtomicBool>,
    shutting_down: AtomicBool,
    /// Set at most once, before traffic ([`NetHandle::on_reply`]); a fabric
    /// without one delivers replies to the mailbox like everything else.
    ///
    /// [`NetHandle::on_reply`]: crate::NetHandle::on_reply
    on_reply: OnceLock<ReplyHandler>,
}

impl ReceiveSide {
    pub fn new(n: usize) -> (Mailboxes, Arc<ReceiveSide>) {
        let (txs, mailboxes) = (0..n)
            .map(|i| {
                let (tx, rx) = unbounded();
                (tx, Mailbox { machine: i as u16, rx })
            })
            .unzip();
        let side = ReceiveSide {
            epoch: Instant::now(),
            txs,
            measured_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            severed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            shutting_down: AtomicBool::new(false),
            on_reply: OnceLock::new(),
        };
        (mailboxes, Arc::new(side))
    }

    pub fn machines(&self) -> usize {
        self.txs.len()
    }

    /// Send-side timestamp for a frame about to cross a carrier.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn measured_ns(&self, machine: u16) -> u64 {
        self.measured_ns[machine as usize].load(Ordering::Relaxed)
    }

    /// Whether either end of the (a, b) link was severed.
    pub fn link_severed(&self, a: u16, b: u16) -> bool {
        self.severed[a as usize].load(Ordering::Acquire)
            || self.severed[b as usize].load(Ordering::Acquire)
    }

    /// The carrier-independent half of a send. Returns the packet when
    /// it still has to cross the backend's carrier; `None` when it was
    /// dropped (a severed machine neither sends nor receives) or was a
    /// loopback send, delivered here.
    pub fn route(&self, from: u16, to: u16, packet: Packet) -> Option<Packet> {
        // Control packets pass the filter: PeerGone must still reach
        // the survivors of a sever, and Shutdown stops the host-side
        // service threads even of a "dead" machine.
        if !packet.is_control() && self.link_severed(from, to) {
            return None;
        }
        if from == to {
            // Loopback: local RPCs never touch a carrier, matching the
            // cost model's zero wire time for them.
            self.enqueue(to, packet);
            return None;
        }
        Some(packet)
    }

    /// Register the reply handler. Panics if one is already there.
    pub fn on_reply(&self, handler: ReplyHandler) {
        assert!(self.on_reply.set(handler).is_ok(), "a reply handler is already registered");
    }

    /// The end of every packet's trip, whatever carried it: a reply goes to
    /// the reply handler when there is one, everything else onto `to`'s
    /// mailbox. `false` means the mailbox is gone: the machine's drain loop
    /// already exited, and the packet is dropped like one sent to a peer
    /// that powered down during shutdown.
    pub fn enqueue(&self, to: u16, packet: Packet) -> bool {
        match (packet, self.on_reply.get()) {
            (Packet::Reply { req_id, payload, err }, Some(on_reply)) => {
                on_reply(to, req_id, err.map_or(Ok(payload), Err));
                true
            }
            (packet, _) => self.txs[to as usize].send(packet).is_ok(),
        }
    }

    /// A frame sent at `sent_ns` finished crossing a carrier: charge its
    /// time in flight to `to`'s measured wire time, then enqueue it.
    pub fn arrived(&self, to: u16, packet: Packet, sent_ns: u64) -> bool {
        let in_flight = self.now_ns().saturating_sub(sent_ns);
        self.measured_ns[to as usize].fetch_add(in_flight, Ordering::Relaxed);
        self.enqueue(to, packet)
    }

    /// Machine `me`'s connection to `peer` failed or was torn outside an
    /// orderly shutdown: tell `me`'s drain loop, which fails the calls
    /// pending on that peer instead of leaving them to wait forever.
    pub fn peer_gone(&self, me: u16, peer: u16) {
        if !self.shutting_down() {
            self.enqueue(me, Packet::PeerGone { peer });
        }
    }

    /// Mark `machine` dead and tell every survivor, exactly once per
    /// death. Returns whether this call was the one that killed it.
    pub fn sever(&self, machine: u16) -> bool {
        if self.severed[machine as usize].swap(true, Ordering::AcqRel) {
            return false;
        }
        for survivor in (0..self.machines() as u16).filter(|&m| m != machine) {
            self.enqueue(survivor, Packet::PeerGone { peer: machine });
        }
        true
    }

    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Raise the shutdown flag. Returns whether this call raised it, so
    /// teardown runs once however often it is requested.
    pub fn begin_shutdown(&self) -> bool {
        !self.shutting_down.swap(true, Ordering::SeqCst)
    }
}
