//! The framed socket mesh under both socket backends.
//!
//! Every ordered pair (i, j), i ≠ j, of simulated machines gets a
//! dedicated loopback-TCP stream carrying length-prefixed [`Packet`]
//! frames, which preserves the per-(sender, receiver) FIFO order the VM
//! relies on. Multiple requests stay in flight per peer: frames carry
//! request ids end-to-end and the VM drain loop matches replies by id,
//! so nothing here assumes call/reply lockstep. Each frame carries its
//! send timestamp on the receive side's clock, stamped when it enters
//! the connection's outbound buffer, so time spent parked there behind
//! a full socket is visible as *measured* wire time next to the modeled
//! [`crate::CostModel`] time.
//!
//! This module is everything the two backends share: bring-up (bind,
//! hello, accept, connect with backoff), the one send path (append the
//! frame to the connection's outbound buffer and `flush` it inline, on
//! the sending thread), `retire`, incremental frame reassembly
//! ([`FrameBuf`], [`pump`]), `sever` and `shutdown`. A backend is a
//! *drive* that decides only who reads a stream: [`crate::tcp`] parks
//! one blocking reader thread per inbound stream; [`crate::reactor`]
//! keeps every stream nonblocking on a small thread pool, which also
//! retries whatever a full socket did not take.
//!
//! Failure semantics are therefore the same on both by construction. A
//! failed write retires the connection, discards what was queued on it
//! and reports [`Packet::PeerGone`] to the *sender's* mailbox, so its
//! pending calls fail as orderly remote errors instead of the packet
//! being silently swallowed. A stream that ends, or delivers a corrupt
//! frame, outside an orderly shutdown reports `PeerGone` to the
//! receiver — for that peer only.
//!
//! Shutdown discipline: [`Transport::shutdown`] raises the receive
//! side's flag, closes every stream (the FIN wakes blocked readers),
//! wakes the pool and joins every I/O thread — so dropping the fabric
//! can never hang.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use corm_obs::MetricsRegistry;
use corm_wire::WireError;

use crate::packet::{Packet, MAX_FRAME};
use crate::reactor;
use crate::receive::ReceiveSide;
use crate::tcp;
use crate::transport::Transport;

/// Hello preamble: magic + the connecting machine's id, so the acceptor
/// knows which peer each inbound stream belongs to.
const HELLO_MAGIC: [u8; 2] = [0xC0, 0x4A];

/// Bound on the blocking hello read during bring-up.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

const CONNECT_ATTEMPTS: u32 = 10;
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(1);

/// Bytes asked of the socket per read.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// The smallest frame body: the send timestamp and a tag byte.
const MIN_FRAME: usize = 9;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sending side of one (from → to) connection. The buffer holds whole
/// frames; `start` marks how far a partial flush got.
#[derive(Default)]
pub(crate) struct Outbound {
    buf: Vec<u8>,
    start: usize,
    /// Set when a write failed: the connection drops traffic from then
    /// on (PeerGone was already reported).
    pub dead: bool,
}

impl Outbound {
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

pub(crate) struct Conn {
    pub from: u16,
    pub to: u16,
    /// Index of the reactor thread that retries this connection's
    /// flush after backpressure.
    pub owner: usize,
    stream: TcpStream,
    /// Advisory mirror of `out.pending() > 0`, so the reactor can skip
    /// idle connections without taking the lock. Mutated only under the
    /// `out` lock; the reactor's lock-free `Acquire` load pairs with the
    /// `Release` half of those writes.
    pub has_queued: AtomicBool,
    pub out: Mutex<Outbound>,
}

impl Conn {
    fn new(from: usize, to: usize, owner: usize, stream: TcpStream) -> Conn {
        let (from, to) = (from as u16, to as u16);
        Conn { from, to, owner, stream, has_queued: AtomicBool::new(false), out: Mutex::default() }
    }
}

/// Read-readiness hint for one inbound stream: set by whoever flushed
/// bytes toward it, cleared by the owning reactor before pumping. The
/// thread-per-stream drive never looks at it — its readers block in
/// `read` instead.
struct Hint {
    dirty: Arc<AtomicBool>,
    owner: usize,
}

/// One inbound (peer → me) stream with its frame-reassembly buffer.
/// Owned exclusively by one I/O thread.
pub(crate) struct Inbound {
    stream: TcpStream,
    pub peer: u16,
    pub me: u16,
    /// Index of the reactor thread that pumps this stream.
    pub owner: usize,
    frames: FrameBuf,
    /// What [`pump`] reads the socket into: zeroed once, at bring-up, not
    /// once a readiness hint.
    chunk: Box<[u8]>,
    pub dirty: Arc<AtomicBool>,
    /// The stream ended (EOF, error, corrupt frame, or mailbox gone).
    pub done: bool,
}

/// State shared between the transport handle and its I/O threads. Kept
/// separate from [`Mesh`] so thread closures hold no `Arc` cycle through
/// the struct that joins them.
pub(crate) struct Core {
    pub rx: Arc<ReceiveSide>,
    /// The reactor drive's streams are nonblocking: a full socket is
    /// backpressure, and its pool retries what stayed queued. On the
    /// thread-per-stream drive's blocking streams `WouldBlock` is the
    /// write timeout expiring on a stalled peer — a failed write.
    nonblocking: bool,
    /// `hints[from][to]`: readiness of the (from → to) inbound stream on
    /// machine `to`'s side. Diagonal (and never-established) entries are
    /// `None`.
    hints: Vec<Vec<Option<Hint>>>,
    /// The reactor pool's threads, for unparking. Never set by the
    /// thread-per-stream drive.
    pub pool: OnceLock<Vec<Thread>>,
    /// Metrics registry for the outbound-buffer occupancy gauge the
    /// timeline sampler reads. `None` on the thread-per-stream drive
    /// and in unit tests.
    pub obs: Option<Arc<MetricsRegistry>>,
}

impl Core {
    pub fn unpark(&self, owner: usize) {
        if let Some(threads) = self.pool.get() {
            threads[owner].unpark();
        }
    }

    /// Mark the (from → to) inbound stream dirty and wake its reactor.
    fn hint(&self, from: u16, to: u16) {
        if let Some(h) = &self.hints[from as usize][to as usize] {
            h.dirty.store(true, Ordering::Release);
            self.unpark(h.owner);
        }
    }

    /// Write as much of the outbound buffer as the socket accepts.
    /// Returns true if any bytes moved. Call with `o` locked.
    pub fn flush(&self, conn: &Conn, o: &mut Outbound) -> bool {
        if o.dead || o.pending() == 0 {
            return false;
        }
        let start_before = o.start;
        let mut failed = false;
        while o.start < o.buf.len() && !failed {
            match (&conn.stream).write(&o.buf[o.start..]) {
                Ok(0) => failed = true,
                Ok(n) => o.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && self.nonblocking => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => failed = true,
            }
        }
        let wrote = o.start > start_before;
        self.account_drained(conn, o.start - start_before);
        if failed {
            self.retire(conn, o);
        } else if o.pending() == 0 {
            self.emptied(conn, o);
        } else if !conn.has_queued.swap(true, Ordering::AcqRel) {
            // Backpressure: the remainder stays queued, behind it
            // whatever is sent next, and the owning reactor retries.
            self.unpark(conn.owner);
        }
        if wrote {
            self.hint(conn.from, conn.to);
        }
        wrote
    }

    /// Shrink the sender's outbound-buffer occupancy gauge by the bytes a
    /// flush (or retirement) removed from the queue.
    fn account_drained(&self, conn: &Conn, bytes: usize) {
        if bytes > 0 {
            if let Some(obs) = &self.obs {
                obs.machine(conn.from)
                    .reactor_queued_bytes
                    .fetch_sub(bytes as u64, Ordering::Relaxed);
            }
        }
    }

    /// A write failed or a packet could not be framed: drop what is
    /// queued, cut the stream, and tell the *sender's* drain loop so
    /// pending calls toward this peer fail as orderly PeerGone instead
    /// of hanging.
    fn retire(&self, conn: &Conn, o: &mut Outbound) {
        o.dead = true;
        self.account_drained(conn, o.pending());
        self.emptied(conn, o);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.rx.peer_gone(conn.from, conn.to);
    }

    /// Nothing is queued on `conn` any more (all written, or dropped).
    fn emptied(&self, conn: &Conn, o: &mut Outbound) {
        o.buf.clear();
        o.start = 0;
        conn.has_queued.store(false, Ordering::Release);
    }

    /// Forward every complete frame in `ib`'s reassembly buffer to its
    /// machine's mailbox. A corrupt frame ends the stream.
    fn forward_frames(&self, ib: &mut Inbound) {
        loop {
            let next = ib.frames.next_frame().and_then(|b| b.map(Packet::decode_body).transpose());
            match next {
                Ok(None) => return,
                Ok(Some((packet, sent_ns))) => {
                    if !self.rx.arrived(ib.me, packet, sent_ns) {
                        return self.finish(ib, false); // machine already torn down
                    }
                }
                Err(_) => return self.finish(ib, true),
            }
        }
    }

    fn finish(&self, ib: &mut Inbound, peer_gone: bool) {
        if !std::mem::replace(&mut ib.done, true) && peer_gone {
            self.rx.peer_gone(ib.me, ib.peer);
        }
    }
}

/// Incremental frame reassembly: bytes go in as they arrive, complete
/// frame bodies come out. It only ever holds bytes that were actually
/// received — a length prefix is a claim by the peer, never a reason to
/// reserve memory.
#[derive(Default)]
pub(crate) struct FrameBuf {
    acc: Vec<u8>,
    /// Bytes of `acc` already handed out as frames.
    pos: usize,
}

impl FrameBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        self.acc.extend_from_slice(bytes);
    }

    /// The next complete frame body, `Ok(None)` when more bytes are
    /// needed, or an error when the length prefix cannot belong to a
    /// frame (anything outside `MIN_FRAME..=MAX_FRAME` is a corrupt
    /// stream; the biggest real payloads are array messages well under
    /// the upper bound).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = &self.acc[self.pos..];
        if let Some(prefix) = avail.first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix) as usize;
            if !(MIN_FRAME..=MAX_FRAME).contains(&len) {
                return Err(WireError(format!("frame length {len} is not a packet")));
            }
            if avail.len() >= 4 + len {
                let body = self.pos + 4;
                self.pos = body + len;
                return Ok(Some(&self.acc[body..self.pos]));
            }
        }
        self.acc.drain(..self.pos);
        self.pos = 0;
        Ok(None)
    }
}

/// Drain one inbound stream: read until the socket has nothing more
/// right now, reassemble frames, forward packets. Returns whether it
/// made progress. EOF, a corrupt frame, or an I/O error marks the
/// stream done and, outside an orderly shutdown, reports the peer dead.
pub(crate) fn pump(core: &Core, ib: &mut Inbound) -> bool {
    let mut progress = false;
    while !ib.done {
        match (&ib.stream).read(&mut ib.chunk) {
            Ok(0) => core.finish(ib, true),
            Ok(n) => {
                progress = true;
                ib.frames.extend(&ib.chunk[..n]);
                core.forward_frames(ib);
            }
            // A drained nonblocking socket, or a blocking read timing
            // out so its reader can look at the shutdown flag.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return progress
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => core.finish(ib, true),
        }
    }
    true
}

/// The socket mesh. One instance carries the whole simulated cluster.
pub(crate) struct Mesh {
    pub core: Arc<Core>,
    /// `conns[from][to]`: sending side of the (from → to) stream.
    /// Diagonal entries are `None` (loopback bypasses the socket).
    pub conns: Vec<Vec<Option<Arc<Conn>>>>,
    /// The I/O threads, pushed as they are spawned so that `shutdown`
    /// joins even a partially built set.
    pub threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Mesh {
    /// Bind one loopback listener per machine and build the full mesh;
    /// returns once every stream is established and every I/O thread is
    /// running. `nonblocking` selects the drive (see [`Core::nonblocking`]).
    pub fn new(
        rx: Arc<ReceiveSide>,
        nonblocking: bool,
        obs: Option<Arc<MetricsRegistry>>,
    ) -> io::Result<Arc<Mesh>> {
        let n = rx.machines();
        let nthreads = if nonblocking { reactor::pool_size(n) } else { 0 };
        let configure = move |stream: &TcpStream| {
            if nonblocking {
                stream.set_nonblocking(true)
            } else {
                tcp::configure(stream)
            }
        };

        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(TcpListener::local_addr).collect::<io::Result<_>>()?;

        // Accept side: collect the n-1 inbound streams per machine (the
        // hello identifies the peer). The acceptor threads end with
        // construction.
        let mut acceptors = Vec::with_capacity(n);
        for (j, listener) in listeners.into_iter().enumerate() {
            acceptors.push(thread::Builder::new().name(format!("corm-mesh-accept-{j}")).spawn(
                move || -> io::Result<Vec<(u16, TcpStream)>> {
                    let mut streams = Vec::with_capacity(n.saturating_sub(1));
                    for _ in 0..n.saturating_sub(1) {
                        let (mut stream, _) = listener.accept()?;
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
                        let mut hello = [0u8; 4];
                        stream.read_exact(&mut hello)?;
                        let peer = u16::from_le_bytes([hello[2], hello[3]]);
                        if hello[..2] != HELLO_MAGIC || peer as usize >= n {
                            return Err(io::Error::other("bad transport hello"));
                        }
                        configure(&stream)?;
                        streams.push((peer, stream));
                    }
                    Ok(streams)
                },
            )?);
        }

        // Connect side: full mesh, skipping the diagonal. Connection k
        // (row-major) is owned by reactor k % nthreads.
        let mut conns: Vec<Vec<Option<Arc<Conn>>>> = Vec::with_capacity(n);
        let mut connect_err = None;
        let mut k = 0usize;
        'mesh: for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    row.push(None);
                    continue;
                }
                match open_stream(*addr, i as u16).and_then(|s| configure(&s).map(|()| s)) {
                    Ok(stream) => {
                        row.push(Some(Arc::new(Conn::new(i, j, k % nthreads.max(1), stream))));
                        k += 1;
                    }
                    Err(e) => {
                        connect_err = Some(e);
                        conns.push(row);
                        break 'mesh;
                    }
                }
            }
            conns.push(row);
        }

        // Partition the inbound streams over the pool and build the
        // hint table the senders use to signal readiness.
        let mut hints: Vec<Vec<Option<Hint>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut inbound = Vec::new();
        let mut accept_err = None;
        for (j, acceptor) in acceptors.into_iter().enumerate() {
            match acceptor.join() {
                Ok(Ok(streams)) => {
                    for (peer, stream) in streams {
                        let owner = inbound.len() % nthreads.max(1);
                        let dirty = Arc::new(AtomicBool::new(false));
                        hints[peer as usize][j] = Some(Hint { dirty: dirty.clone(), owner });
                        inbound.push(Inbound {
                            stream,
                            peer,
                            me: j as u16,
                            owner,
                            frames: FrameBuf::default(),
                            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
                            dirty,
                            done: false,
                        });
                    }
                }
                Ok(Err(e)) => accept_err = Some(e),
                Err(_) => accept_err = Some(io::Error::other("acceptor thread panicked")),
            }
        }

        let core = Arc::new(Core { rx, nonblocking, hints, pool: OnceLock::new(), obs });
        let mesh = Arc::new(Mesh { core, conns, threads: Mutex::new(Vec::new()) });
        // On any failure: best-effort teardown of whatever did come up
        // (including the I/O threads already spawned), then fail.
        let spawned = match connect_err.or(accept_err) {
            Some(e) => Err(e),
            None if nonblocking => reactor::spawn_pool(&mesh, nthreads, inbound),
            None => tcp::spawn_readers(&mesh, inbound),
        };
        if let Err(e) = spawned {
            mesh.shutdown();
            return Err(e);
        }
        Ok(mesh)
    }
}

impl Transport for Mesh {
    fn deliver(&self, from: u16, to: u16, packet: Packet) {
        let core = &self.core;
        let Some(conn) = self.conns[from as usize][to as usize].as_ref() else { return };
        let mut o = lock(&conn.out);
        if o.dead {
            return;
        }
        let len_before = o.buf.len();
        if packet.encode_frame_append(core.rx.now_ns(), &mut o.buf).is_err() {
            // Unencodable packet (oversized length field). The VM's
            // packets are all well under MAX_FRAME, so this only fires
            // on a corrupted payload; the append left the buffer as it
            // was, and the connection dies like one whose write failed.
            return core.retire(conn, &mut o);
        }
        if let Some(obs) = &core.obs {
            let queued = (o.buf.len() - len_before) as u64;
            obs.machine(from).reactor_queued_bytes.fetch_add(queued, Ordering::Relaxed);
        }
        // A blocking write either takes the whole frame or fails; a
        // nonblocking one may leave a remainder to the owning reactor.
        core.flush(conn, &mut o);
    }

    /// Abruptly cut every stream touching `machine` *without* raising
    /// the shutdown flag, simulating a crash. Survivors observe
    /// [`Packet::PeerGone`] when their inbound stream from the dead
    /// machine EOFs; what is queued toward it is discarded by the
    /// failing flush, which reports PeerGone to the sender.
    fn sever(&self, machine: u16) {
        for conn in self.conns.iter().flatten().flatten() {
            if conn.from == machine || conn.to == machine {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        // Wake the reactors on both sides of every cut stream so the EOF
        // is noticed now, not at the next safety sweep.
        for other in (0..self.core.rx.machines() as u16).filter(|&m| m != machine) {
            self.core.hint(machine, other);
            self.core.hint(other, machine);
        }
    }

    fn shutdown(&self) {
        if !self.core.rx.begin_shutdown() {
            return;
        }
        for conn in self.conns.iter().flatten().flatten() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for t in self.core.pool.get().into_iter().flatten() {
            t.unpark();
        }
        let handles = std::mem::take(&mut *lock(&self.threads));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn open_stream(addr: SocketAddr, from: u16) -> io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF_START;
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.set_nodelay(true)?;
                let mut hello = [0u8; 4];
                hello[..2].copy_from_slice(&HELLO_MAGIC);
                hello[2..].copy_from_slice(&from.to_le_bytes());
                stream.write_all(&hello)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("connect failed")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive::Mailboxes;
    use crate::transport::tests::{reply, spin_until};

    fn frame(packet: &Packet) -> Vec<u8> {
        let mut out = Vec::new();
        packet.encode_frame_append(5, &mut out).unwrap();
        out
    }

    /// Feed `chunks` through a reassembler; the packets that came out,
    /// or the error that ended the stream.
    fn reassemble(chunks: &[&[u8]]) -> Result<Vec<Packet>, WireError> {
        let mut frames = FrameBuf::default();
        let mut out = Vec::new();
        for chunk in chunks {
            frames.extend(chunk);
            while let Some(body) = frames.next_frame()? {
                out.push(Packet::decode_body(body)?.0);
            }
        }
        Ok(out)
    }

    #[test]
    fn frames_reassemble_across_every_split_point() {
        let packets = [reply(1, 100), Packet::Shutdown];
        let bytes: Vec<u8> = packets.iter().flat_map(frame).collect();
        assert_eq!(reassemble(&[&bytes]).unwrap(), packets, "two frames in one chunk");
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(reassemble(&[a, b]).unwrap(), packets, "split at byte {split}");
        }
    }

    #[test]
    fn a_length_prefix_reserves_nothing() {
        // Four bytes off the wire claiming a 1 GiB frame, then ten more:
        // the buffer holds the 14 bytes that arrived and asks for more.
        let mut frames = FrameBuf::default();
        frames.extend(&(MAX_FRAME as u32).to_le_bytes());
        frames.extend(&[0xAB; 10]);
        assert_eq!(frames.next_frame().unwrap(), None, "need more");
        assert!(frames.acc.capacity() <= READ_CHUNK, "reserved {}", frames.acc.capacity());
    }

    #[test]
    fn bad_lengths_and_corrupt_bodies_end_the_stream() {
        let good = frame(&reply(1, 8));
        for len in [0, MIN_FRAME as u32 - 1, MAX_FRAME as u32 + 1] {
            let bad = len.to_le_bytes();
            assert!(reassemble(&[&bad]).is_err(), "length {len} is not a frame");
            // Frames ahead of the bad prefix were already delivered.
            let mut frames = FrameBuf::default();
            frames.extend(&good);
            frames.extend(&bad);
            assert!(frames.next_frame().unwrap().is_some());
            assert!(frames.next_frame().is_err());
        }
        let mut corrupt = good.clone();
        corrupt[4 + 8] = 99; // unknown tag behind a valid length
        assert!(reassemble(&[&corrupt]).is_err());
    }

    #[test]
    fn hostile_bytes_end_in_peer_gone_for_that_peer_only() {
        for nonblocking in [false, true] {
            let (mailboxes, rx) = ReceiveSide::new(3);
            let t = Mesh::new(rx, nonblocking, None).unwrap();
            // Machine 0's stream to machine 1 turns to garbage.
            let conn = t.conns[0][1].as_ref().unwrap();
            (&conn.stream).write_all(&u32::MAX.to_le_bytes()).unwrap();
            t.core.hint(0, 1);
            assert_eq!(mailboxes[1].recv().unwrap(), Packet::PeerGone { peer: 0 }, "{nonblocking}");
            // Nobody else is affected: 2 → 1 and 1 → 2 still carry
            // traffic, and nothing was reported to machines 0 and 2.
            t.deliver(2, 1, reply(1, 8));
            assert_eq!(mailboxes[1].recv().unwrap(), reply(1, 8), "{nonblocking}");
            t.deliver(1, 2, reply(2, 8));
            assert_eq!(mailboxes[2].recv().unwrap(), reply(2, 8), "{nonblocking}");
            assert_eq!(mailboxes[0].try_recv().unwrap(), None, "{nonblocking}");
            t.shutdown();
        }
    }

    /// A (0 → 1) connection whose peer never reads, outside any mesh.
    fn stalled_conn(nonblocking: bool) -> (Mailboxes, Core, Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer_end, _) = listener.accept().unwrap();
        if nonblocking {
            stream.set_nonblocking(true).unwrap();
        } else {
            // The drive's WRITE_TIMEOUT, shortened to keep the test quick.
            stream.set_write_timeout(Some(Duration::from_millis(50))).unwrap();
        }
        let (mailboxes, rx) = ReceiveSide::new(2);
        let core = Core {
            rx,
            nonblocking,
            hints: (0..2).map(|_| (0..2).map(|_| None).collect()).collect(),
            pool: OnceLock::new(),
            obs: None,
        };
        let conn = Conn::new(0, 1, 0, stream);
        // More than loopback socket buffers will ever take.
        lock(&conn.out).buf = vec![0; 64 << 20];
        (mailboxes, core, conn, peer_end)
    }

    #[test]
    fn frames_parked_by_backpressure_fail_as_peer_gone_when_the_peer_is_severed() {
        let (mailboxes, rx) = ReceiveSide::new(3);
        let t = Mesh::new(rx, true, None).unwrap();
        // Machine 1 stops reading its stream from machine 0 (garbage
        // ends it, as above), so what machine 0 keeps sending fills the
        // socket and parks in the outbound buffer.
        let conn = t.conns[0][1].as_ref().unwrap();
        (&conn.stream).write_all(&u32::MAX.to_le_bytes()).unwrap();
        t.core.hint(0, 1);
        assert_eq!(mailboxes[1].recv().unwrap(), Packet::PeerGone { peer: 0 });
        spin_until("the socket to fill", Duration::from_secs(10), || {
            t.deliver(0, 1, reply(0, 1 << 20));
            conn.has_queued.load(Ordering::Acquire)
        });
        assert_eq!(mailboxes[0].try_recv().unwrap(), None, "backpressure is not a failure");

        // The peer dies with those frames parked: the reactor's next
        // retry fails, drops them and tells the sender, whose pending
        // calls then fail as orderly remote errors.
        t.sever(1);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
        spin_until("the failed retry to retire the connection", Duration::from_secs(10), || {
            lock(&conn.out).dead
        });
        assert_eq!(lock(&conn.out).pending(), 0);
        assert!(!conn.has_queued.load(Ordering::Acquire));
        // One notice per direction of the dead link (the failed write,
        // the EOF on the stream back), nothing else and never a third.
        let mut notices = 1;
        while let Some(packet) = mailboxes[0].try_recv().unwrap() {
            assert_eq!(packet, Packet::PeerGone { peer: 1 });
            notices += 1;
        }
        assert!(notices <= 2, "{notices} PeerGone notices for one death");
        // Survivors still talk, and teardown does not wait for bytes
        // that will never drain.
        assert_eq!(mailboxes[2].recv().unwrap(), Packet::PeerGone { peer: 1 });
        t.deliver(0, 2, reply(77, 0));
        assert_eq!(mailboxes[2].recv().unwrap(), reply(77, 0));
        t.shutdown();
    }

    #[test]
    fn a_timed_out_blocking_write_is_a_failed_write() {
        let (mailboxes, core, conn, _peer_end) = stalled_conn(false);
        let mut o = lock(&conn.out);
        core.flush(&conn, &mut o);
        assert!(o.dead, "the connection is retired, not left queued");
        assert_eq!(o.pending(), 0);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
    }

    #[test]
    fn a_full_nonblocking_socket_is_backpressure() {
        let (mailboxes, core, conn, _peer_end) = stalled_conn(true);
        let mut o = lock(&conn.out);
        assert!(core.flush(&conn, &mut o), "the socket took what fit");
        assert!(!o.dead && o.pending() > 0, "the rest stays queued");
        assert!(conn.has_queued.load(Ordering::Acquire));
        assert_eq!(mailboxes[0].try_recv().unwrap(), None);
    }
}
