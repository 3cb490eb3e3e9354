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
//! **Sends** are the mesh's: the sending thread appends its frame and
//! flushes inline, as on the blocking drive. An RMI caller is blocked on
//! the frame it just sent, so a link carries at most one frame per
//! calling thread and there is nothing a deferred write could be merged
//! with (DESIGN §5.6; CHANGES.md, PR 20, has the measurement). What a
//! full nonblocking socket did not take stays queued on the
//! connection, and the reactor that owns it retries every
//! [`BACKPRESSURE_RETRY`] until it drains or the write fails.
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

use crate::mesh::{lock, pump, Conn, Core, Inbound, Mesh};

/// Hard cap on reactor threads, regardless of cluster size.
const MAX_REACTORS: usize = 4;

/// Period of the safety-net full sweep (and the longest a reactor
/// parks): catches hints lost to races and streams cut by `sever`.
const SWEEP: Duration = Duration::from_millis(10);

/// Retry interval when a flush hit socket backpressure (`WouldBlock`
/// with bytes still queued).
const BACKPRESSURE_RETRY: Duration = Duration::from_micros(100);

/// Reactor threads for an `n`-machine mesh: grows slowly with the
/// cluster, hard-capped at [`MAX_REACTORS`] — never O(peers).
pub(crate) fn pool_size(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (1 + n / 8).min(MAX_REACTORS)
    }
}

/// Spawn the pool: reactor r pumps the inbound streams and retries the
/// backpressured connections whose `owner` is r.
pub(crate) fn spawn_pool(mesh: &Mesh, nthreads: usize, inbound: Vec<Inbound>) -> io::Result<()> {
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
                .spawn(move || reactor_loop(core, bucket, owned))?,
        );
    }
    let threads = handles.iter().map(|h| h.thread().clone()).collect();
    mesh.core.pool.set(threads).unwrap_or_else(|_| unreachable!("reactor pool registered twice"));
    Ok(())
}

/// One pool thread: retry owned connections a full socket left bytes
/// queued on, pump owned inbound streams that were hinted dirty,
/// full-sweep every [`SWEEP`] as a safety net, park in between.
fn reactor_loop(core: Arc<Core>, mut inbound: Vec<Inbound>, conns: Vec<Arc<Conn>>) {
    let mut last_sweep = Instant::now();
    while !core.rx.shutting_down() {
        let mut progress = false;
        let mut backpressured = false;
        for conn in conns.iter().filter(|c| c.has_queued.load(Ordering::Acquire)) {
            let mut o = lock(&conn.out);
            progress |= core.flush(conn, &mut o);
            backpressured |= o.pending() > 0;
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

        if !progress {
            thread::park_timeout(if backpressured { BACKPRESSURE_RETRY } else { SWEEP });
        }
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

    fn mesh(n: usize) -> (Mailboxes, Arc<Mesh>) {
        let (mailboxes, rx) = ReceiveSide::new(n);
        (mailboxes, Mesh::new(rx, true, None).unwrap())
    }

    #[test]
    fn pipelined_requests_do_not_wait_for_replies() {
        // Multiple outstanding requests per peer: all of them cross the
        // wire before any reply is produced — nothing in the transport
        // assumes call/reply lockstep.
        let (mailboxes, t) = mesh(2);
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
    fn queued_bytes_gauge_returns_to_zero_and_the_receiver_shard_stays_clean() {
        // Wired to a registry, the mesh counts what sits in the sender's
        // outbound buffers in the sender's shard, and gives every byte
        // back once it is on the wire.
        let obs = Arc::new(MetricsRegistry::new(2));
        let (mailboxes, rx) = ReceiveSide::new(2);
        let t = Mesh::new(rx, true, Some(obs.clone())).unwrap();
        for i in 0..20u64 {
            t.deliver(0, 1, reply(i, 8));
        }
        for i in 0..20u64 {
            assert_eq!(mailboxes[1].recv().unwrap(), reply(i, 8));
        }
        // Everything arrived, so everything was flushed; the bounded
        // wait only covers the gauge update that follows the write.
        spin_until("reactor_queued_bytes to drain", Duration::from_secs(5), || {
            obs.machine(0).reactor_queued_bytes.load(Ordering::Relaxed) == 0
        });
        assert_eq!(obs.machine_snapshot(0).reactor_queued_bytes, 0);
        // The receiving machine sent nothing: its shard stays clean.
        assert_eq!(obs.machine_snapshot(1).reactor_queued_bytes, 0);
        t.shutdown();
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
