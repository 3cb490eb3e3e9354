//! Reactor drive: the socket mesh of [`crate::mesh`] multiplexed over a
//! *small fixed pool* of event-loop threads instead of one reader thread
//! per directed connection.
//!
//! The thread-per-stream drive costs O(N²) threads cluster-wide (every
//! machine parks one OS thread per peer), which caps how far the
//! serving scenarios can scale. Here every stream is nonblocking and a
//! pool of at most [`MAX_REACTORS`] reactor threads — O(threads), not
//! O(peers) — owns a static partition of all inbound and outbound
//! connections.
//!
//! **Adaptive batching (Nagle with a bounded deadline).** A send appends
//! its frame to the connection's outbound buffer and then decides: on a
//! cold connection (fewer than `batch_after` sends in the current load
//! window) it flushes inline immediately, so request/reply latency under
//! light load matches the blocking drive. Under burst load the frame
//! is left in the buffer to coalesce with its successors, and the
//! reactor flushes the whole batch in one write when it exceeds
//! `flush_bytes` or when the oldest queued frame has waited
//! `flush_deadline` — the deadline bounds the latency a batched frame
//! can be charged, and it is what flushes the tail when the burst goes
//! idle. A coalesced batch torn by a peer kill is discarded by the
//! mesh's `retire`, so every call pending in it still fails as an
//! orderly remote error.
//!
//! **Readiness.** There is no epoll in std and no external event
//! library in this build, so read-readiness is signaled in-process: the
//! cluster is simulated inside one process, and whichever thread flushes
//! bytes into a socket marks the receiving side's stream dirty and
//! unparks the reactor that owns it. A periodic full sweep (every
//! [`SWEEP`]) backstops lost hints and notices streams cut by `sever`.
//! A port to a real multi-host deployment would swap the hint for
//! epoll/kqueue registration without touching the rest of the
//! architecture.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::mesh::{lock, pump, Conn, Core, FlushReason, Inbound, Mesh, Outbound};

/// Hard cap on reactor threads, regardless of cluster size.
const MAX_REACTORS: usize = 4;

/// Period of the safety-net full sweep (and the longest a reactor
/// parks): catches hints lost to races and streams cut by `sever`.
const SWEEP: Duration = Duration::from_millis(10);

/// Retry interval when a flush hit socket backpressure (`WouldBlock`
/// with bytes still queued).
const BACKPRESSURE_RETRY: Duration = Duration::from_micros(100);

/// The adaptive-Nagle heuristic's parameters. The defaults are what
/// `--transport reactor` runs; unit tests pin specific behaviors
/// (coalescing, deadline flush) with exaggerated values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchConfig {
    /// A batch this large is flushed immediately, even mid-burst.
    pub flush_bytes: usize,
    /// Longest a queued frame may wait before the reactor flushes it.
    pub flush_deadline: Duration,
    /// Sends within `window` after which a connection counts as "under
    /// load" and starts batching. `0` batches every send (pure Nagle).
    pub batch_after: u32,
    /// Width of the load-detection window.
    pub window: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            flush_bytes: 32 * 1024,
            flush_deadline: Duration::from_micros(200),
            batch_after: 8,
            window: Duration::from_micros(200),
        }
    }
}

/// Reactor threads for an `n`-machine mesh: grows slowly with the
/// cluster, hard-capped at [`MAX_REACTORS`] — never O(peers).
pub(crate) fn pool_size(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (1 + n / 8).min(MAX_REACTORS)
    }
}

/// The batching decision for a frame just appended to `o`: flush inline
/// on a cold connection or a full batch, otherwise leave it queued for
/// the owning reactor's deadline. Call with `o` locked.
pub(crate) fn after_append(core: &Core, cfg: &BatchConfig, conn: &Conn, o: &mut Outbound) {
    let now = Instant::now();
    match o.window_start {
        Some(w) if now.duration_since(w) <= cfg.window => o.window_sends += 1,
        _ => {
            o.window_start = Some(now);
            o.window_sends = 1;
        }
    }
    let under_load = o.window_sends > cfg.batch_after;
    if o.pending() >= cfg.flush_bytes {
        core.flush(conn, o, FlushReason::Size);
    } else if !under_load {
        core.flush(conn, o, FlushReason::Idle);
    }
    if !o.dead && o.pending() > 0 {
        if o.queued_since.is_none() {
            o.queued_since = Some(now);
        }
        if !core.mark_queued(conn) {
            core.unpark(conn.owner);
        }
    }
}

/// Spawn the pool: reactor r pumps the inbound streams and flushes the
/// connections whose `owner` is r.
pub(crate) fn spawn_pool(
    mesh: &Mesh,
    cfg: BatchConfig,
    nthreads: usize,
    inbound: Vec<Inbound>,
) -> io::Result<()> {
    let mut buckets: Vec<Vec<Inbound>> = (0..nthreads).map(|_| Vec::new()).collect();
    for ib in inbound {
        buckets[ib.owner].push(ib);
    }
    let mut handles = lock(&mesh.threads);
    for (r, bucket) in buckets.into_iter().enumerate() {
        let core = mesh.core.clone();
        let owned: Vec<Arc<Conn>> =
            mesh.conns.iter().flatten().flatten().filter(|c| c.owner == r).cloned().collect();
        handles.push(
            thread::Builder::new()
                .name(format!("corm-reactor-{r}"))
                .spawn(move || reactor_loop(core, cfg, r, bucket, owned))?,
        );
    }
    let threads = handles.iter().map(|h| h.thread().clone()).collect();
    mesh.core.pool.set(threads).unwrap_or_else(|_| unreachable!("reactor pool registered twice"));
    Ok(())
}

/// One pool thread: flush owned outbound batches whose deadline (or
/// size threshold) is due, pump owned inbound streams that were hinted
/// dirty, full-sweep every [`SWEEP`] as a safety net, park in between.
fn reactor_loop(
    core: Arc<Core>,
    cfg: BatchConfig,
    r: usize,
    mut inbound: Vec<Inbound>,
    conns: Vec<Arc<Conn>>,
) {
    let mut last_sweep = Instant::now();
    loop {
        if core.rx.shutting_down() {
            break;
        }
        let mut progress = false;
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        let track = |d: Instant, next_due: &mut Option<Instant>| {
            *next_due = Some(next_due.map_or(d, |cur| cur.min(d)));
        };
        for conn in &conns {
            if !conn.has_queued.load(Ordering::Acquire) {
                continue;
            }
            let mut o = lock(&conn.out);
            if o.dead {
                continue;
            }
            if o.pending() == 0 {
                core.mark_drained(conn);
                continue;
            }
            let due = o.queued_since.map_or(now, |t| t + cfg.flush_deadline);
            if due <= now || o.pending() >= cfg.flush_bytes {
                let reason = if o.pending() >= cfg.flush_bytes {
                    FlushReason::Size
                } else {
                    FlushReason::Deadline
                };
                progress |= core.flush(conn, &mut o, reason);
                if !o.dead && o.pending() > 0 {
                    track(now + BACKPRESSURE_RETRY, &mut next_due);
                }
            } else {
                track(due, &mut next_due);
            }
        }

        let full = last_sweep.elapsed() >= SWEEP;
        if full {
            last_sweep = Instant::now();
        }
        for ib in &mut inbound {
            if ib.done {
                continue;
            }
            if ib.dirty.swap(false, Ordering::AcqRel) || full {
                progress |= pump(&core, ib);
            }
        }

        // Iteration latency (wake → this decision point): reactor r
        // records into machine shard r — an attribution approximation
        // (DESIGN §15), valid because the pool never outnumbers the
        // machines.
        if let Some(obs) = &core.obs {
            obs.machine(r as u16).reactor_loop_us.record(now.elapsed().as_micros() as u64);
        }

        if progress {
            continue;
        }
        let timeout = next_due
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(SWEEP)
            .min(SWEEP);
        thread::park_timeout(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::receive::{Mailboxes, ReceiveSide};
    use crate::transport::tests::{reply, spin_until};
    use crate::transport::Transport;
    use corm_obs::MetricsRegistry;

    fn mesh(n: usize, cfg: BatchConfig) -> (Mailboxes, Arc<Mesh>) {
        let (mailboxes, rx) = ReceiveSide::new(n);
        (mailboxes, Mesh::new(rx, Some(cfg), None).unwrap())
    }

    /// Batch every send, with a deadline long enough for a test to
    /// observe frames parked in the buffer.
    fn always_batch(deadline: Duration) -> BatchConfig {
        BatchConfig {
            flush_bytes: 1 << 20,
            flush_deadline: deadline,
            batch_after: 0,
            window: Duration::from_secs(1),
        }
    }

    #[test]
    fn pipelined_requests_do_not_wait_for_replies() {
        // Multiple outstanding requests per peer: all of them cross the
        // wire before any reply is produced — nothing in the transport
        // assumes call/reply lockstep.
        let (mailboxes, t) = mesh(2, BatchConfig::default());
        for i in 0..32u64 {
            t.deliver(
                0,
                1,
                Packet::Request {
                    req_id: i,
                    from: 0,
                    site: 1,
                    target_obj: 1,
                    payload: vec![],
                    oneway: false,
                },
            );
        }
        for i in 0..32u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Request { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Replies flow back out of order — the id is the routing key.
        for i in (0..32u64).rev() {
            t.deliver(1, 0, reply(i, 0));
        }
        for i in (0..32u64).rev() {
            assert_eq!(mailboxes[0].recv().unwrap(), reply(i, 0));
        }
        t.shutdown();
    }

    #[test]
    fn burst_of_small_frames_coalesces_into_few_batches() {
        let (mailboxes, t) = mesh(2, always_batch(Duration::from_millis(20)));
        for i in 0..100u64 {
            t.deliver(0, 1, reply(i, 8));
        }
        for i in 0..100u64 {
            assert_eq!(mailboxes[1].recv().unwrap(), reply(i, 8), "coalescing keeps FIFO");
        }
        let batches = t.core.flush_batches.load(Ordering::Relaxed);
        assert_eq!(t.core.frames_enqueued.load(Ordering::Relaxed), 100);
        assert!(batches < 50, "a 100-frame burst must coalesce, got {batches} batches");
        t.shutdown();
    }

    #[test]
    fn queued_frame_flushes_on_deadline_not_immediately() {
        // Pure Nagle (batch_after = 0) defers every send, and the
        // deadline bounds the wait: the reactor flushes the frame with
        // no further sends on the connection.
        let deadline = Duration::from_millis(80);
        let (mailboxes, t) = mesh(2, always_batch(deadline));
        t.deliver(0, 1, reply(9, 4));
        assert_eq!(mailboxes[1].recv().unwrap(), reply(9, 4));
        // The frame is stamped when it is enqueued, before its deadline
        // starts, so a flush any earlier than the deadline would show
        // as less time in flight than this.
        assert!(
            t.core.rx.measured_ns(1) >= deadline.as_nanos() as u64,
            "flushed before the deadline, or batch wait not charged to measured wire time"
        );
        t.shutdown();
    }

    #[test]
    fn idle_burst_tail_flushes_without_further_traffic() {
        // Flush-on-idle: a burst arms batching, the burst stops, and the
        // tail still arrives via the deadline — no later send needed.
        let cfg = BatchConfig {
            flush_bytes: 1 << 20,
            flush_deadline: Duration::from_millis(10),
            batch_after: 2,
            window: Duration::from_secs(1),
        };
        let (mailboxes, t) = mesh(2, cfg);
        for i in 0..10u64 {
            t.deliver(0, 1, reply(i, 4));
        }
        for i in 0..10u64 {
            assert_eq!(mailboxes[1].recv().unwrap(), reply(i, 4));
        }
        t.shutdown();
    }

    #[test]
    fn torn_batch_fails_pending_as_orderly_peer_gone() {
        // Frames parked in a coalescing buffer when the peer dies: the
        // batch is torn before it ever reaches a socket. The sender
        // must get PeerGone (inbound EOF now, failing flush later) so
        // the VM fails the pending calls, and shutdown must not hang on
        // the discarded bytes.
        let (mailboxes, t) = mesh(3, always_batch(Duration::from_millis(500)));
        for i in 0..5u64 {
            t.deliver(0, 1, reply(i, 64));
        }
        t.sever(1);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
        assert_eq!(mailboxes[2].recv().unwrap(), Packet::PeerGone { peer: 1 });
        // Survivors still talk (batched, so flushed by the deadline at
        // the latest), and teardown completes promptly even though the
        // batch toward the dead peer never drained.
        t.deliver(0, 2, reply(77, 0));
        assert_eq!(mailboxes[2].recv().unwrap(), reply(77, 0));
        t.shutdown();
    }

    #[test]
    fn registry_mirrors_coalescing_stats_and_buffer_gauges() {
        // Wired to a registry, the mesh lands the same coalescing
        // counters in the sender's shard, splits flushes by reason, and
        // returns the append-buffer occupancy gauge to zero once
        // everything drains.
        let obs = Arc::new(MetricsRegistry::new(2));
        let (mailboxes, rx) = ReceiveSide::new(2);
        let t = Mesh::new(rx, Some(BatchConfig::default()), Some(obs.clone())).unwrap();
        for i in 0..20u64 {
            t.deliver(0, 1, reply(i, 8));
        }
        for _ in 0..20u64 {
            mailboxes[1].recv().unwrap();
        }
        // Drain fully: wait for the deadline sweep to flush any tail. A
        // timed-out wait panics here by name instead of silently falling
        // through to the gauge asserts below, which would otherwise
        // report a confusing "queued_bytes != 0" counter mismatch.
        spin_until(
            "the deadline sweep to drain reactor_queued_bytes",
            Duration::from_secs(5),
            || obs.machine(0).reactor_queued_bytes.load(Ordering::Relaxed) == 0,
        );
        let m = obs.machine_snapshot(0);
        assert_eq!(m.reactor_frames_enqueued, t.core.frames_enqueued.load(Ordering::Relaxed));
        assert_eq!(m.reactor_frames_enqueued, 20);
        assert_eq!(m.reactor_flush_batches, t.core.flush_batches.load(Ordering::Relaxed));
        assert_eq!(
            m.reactor_flush_size + m.reactor_flush_deadline + m.reactor_flush_idle,
            m.reactor_flush_batches,
            "reasons partition the flush count"
        );
        assert_eq!(m.reactor_batch_bytes.count, m.reactor_flush_batches);
        assert!(m.reactor_batch_bytes.sum > 0);
        assert_eq!(m.reactor_queued_bytes, 0, "gauge returns to zero once drained");
        assert_eq!(m.reactor_conns_queued, 0);
        // The receiving machine sent nothing: its shard stays clean.
        let m1 = obs.machine_snapshot(1);
        assert_eq!(m1.reactor_frames_enqueued, 0);
        t.shutdown();
        assert!(
            obs.machine_snapshot(0).reactor_loop_us.count
                + obs.machine_snapshot(1).reactor_loop_us.count
                > 0,
            "reactor loop latency was recorded"
        );
    }

    #[test]
    fn pool_stays_small_as_the_mesh_grows() {
        assert_eq!(pool_size(1), 0);
        assert_eq!(pool_size(2), 1);
        assert_eq!(pool_size(8), 2);
        assert_eq!(pool_size(32), MAX_REACTORS);
        assert_eq!(pool_size(1000), MAX_REACTORS, "O(threads), not O(peers)");
    }
}
