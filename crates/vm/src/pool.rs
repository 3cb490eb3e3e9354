//! Sender-side marshal-buffer pool — the dual of the §3.3 receiver-side
//! reuse caches. Where the paper caches the *deserialized object graph*
//! per call site, this pool caches the *serialized byte buffer* per call
//! site, so a steady-state invocation allocates nothing on the marshal
//! path: the request buffer circulates caller → server → reply → caller
//! and is checked back in once the return value is deserialized.
//!
//! Accounting (DESIGN §5.4): a checkout served from the pool is a *hit*;
//! one that allocates is a *miss*. The first allocations that build a
//! key's working set (up to [`PER_KEY_CAP`] buffers) are *cold* misses;
//! everything beyond is a steady-state miss, which
//! `tests/pool_reuse.rs` holds at zero for the paper apps. None of these
//! counters touch [`corm_wire::RmiStats`] — the Tables 4/6/8 counters
//! and the transport-equivalence contract are unchanged by pooling.

use std::sync::atomic::Ordering::Relaxed;

use corm_obs::MachineMetrics;
use corm_wire::canary_fill;
use parking_lot::Mutex;

/// Which payload a pooled buffer backs at its call site. Request
/// marshals and local return-value clones have different steady-state
/// sizes, so they pool separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    Args,
    Ret,
}

/// Buffers retained per (site, lane) key. Synchronous RMI needs one per
/// concurrently in-flight call at the site; a small stack covers calls
/// from several threads without letting a hot site hoard memory.
pub const PER_KEY_CAP: usize = 4;

#[derive(Default)]
struct Entry {
    bufs: Vec<Vec<u8>>,
    /// Allocations charged as working-set build-up, up to [`PER_KEY_CAP`]:
    /// a miss past that point is a buffer lost — the leak the gate catches.
    allocated: usize,
}

impl Entry {
    fn take(&mut self, hint: usize, metrics: &MachineMetrics) -> (Vec<u8>, bool) {
        if let Some(buf) = self.bufs.pop() {
            metrics.pool_hits.fetch_add(1, Relaxed);
            metrics.pool_resident_bytes.fetch_sub(buf.capacity() as u64, Relaxed);
            debug_assert!(buf.is_empty());
            (buf, true)
        } else {
            metrics.pool_misses.fetch_add(1, Relaxed);
            if self.allocated < PER_KEY_CAP {
                self.allocated += 1;
                metrics.pool_cold_misses.fetch_add(1, Relaxed);
            }
            (Vec::with_capacity(hint), false)
        }
    }

    fn give(&mut self, mut buf: Vec<u8>, canary: bool, metrics: &MachineMetrics) {
        if self.bufs.len() >= PER_KEY_CAP {
            return;
        }
        if canary {
            canary_fill(&mut buf);
        } else {
            buf.clear();
        }
        metrics.pool_resident_bytes.fetch_add(buf.capacity() as u64, Relaxed);
        self.bufs.push(buf);
    }
}

/// One machine's pool behind one lock: checkouts never contend across
/// machines, and each operation locks once.
#[derive(Default)]
struct Shard {
    /// `slots[site][lane]`. A site is the caller's own compile-time call
    /// site, never a number read off the wire; the `Vec` grows the first
    /// time a site is used.
    slots: Vec<[Entry; 2]>,
    /// Outstanding checkouts as `(request id, site, lane)`. Replies can
    /// complete in any order; resolving the check-in key through the ledger
    /// (instead of trusting call-stack attribution at completion time)
    /// returns every buffer to the exact slot it left. It holds one entry
    /// per VM thread with a call in flight, so it is searched linearly.
    ledger: Vec<(u64, u32, Lane)>,
}

impl Shard {
    fn entry(&mut self, site: u32, lane: Lane) -> &mut Entry {
        if self.slots.len() <= site as usize {
            self.slots.resize_with(site as usize + 1, Default::default);
        }
        &mut self.slots[site as usize][lane as usize]
    }

    /// Remove request `req_id`'s ledger entry and return its key.
    fn settle(&mut self, req_id: u64, metrics: &MachineMetrics) -> Option<(u32, Lane)> {
        let at = self.ledger.iter().position(|&(r, ..)| r == req_id)?;
        let (_, site, lane) = self.ledger.swap_remove(at);
        metrics.pool_outstanding.fetch_sub(1, Relaxed);
        Some((site, lane))
    }
}

pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    /// Canary-fill recycled buffers (tied to `RunOptions::audit`): spare
    /// capacity is painted with [`corm_wire::CANARY_BYTE`] on check-in, so
    /// recycled bytes a marshal exposed would read as sentinels.
    canary: bool,
}

impl BufferPool {
    pub fn new(machines: usize, canary: bool) -> Self {
        BufferPool { shards: (0..machines).map(|_| Mutex::default()).collect(), canary }
    }

    /// Take a cleared buffer for `(site, lane)` on `machine`, allocating
    /// `hint` bytes of capacity on a miss. Returns the buffer and whether
    /// it was a pool hit (the flight recorder's `FLAG_POOL_HIT`).
    pub fn checkout(
        &self,
        machine: u16,
        site: u32,
        lane: Lane,
        hint: usize,
        metrics: &MachineMetrics,
    ) -> (Vec<u8>, bool) {
        self.shards[machine as usize].lock().entry(site, lane).take(hint, metrics)
    }

    /// Check a buffer back in. The buffer is cleared (capacity kept); in
    /// canary mode its spare capacity is sentinel-painted first. Buffers
    /// beyond the per-key cap are dropped.
    pub fn put(&self, machine: u16, site: u32, lane: Lane, buf: Vec<u8>, metrics: &MachineMetrics) {
        self.shards[machine as usize].lock().entry(site, lane).give(buf, self.canary, metrics);
    }

    /// [`BufferPool::checkout`] for a buffer that travels with request
    /// `req_id` and comes back with its reply: the ledger records the key,
    /// so the matching [`BufferPool::put_for`] lands in the right slot.
    pub fn checkout_for(
        &self,
        machine: u16,
        req_id: u64,
        site: u32,
        lane: Lane,
        hint: usize,
        metrics: &MachineMetrics,
    ) -> (Vec<u8>, bool) {
        let mut shard = self.shards[machine as usize].lock();
        let out = shard.entry(site, lane).take(hint, metrics);
        // A request id checked out again keeps one entry, under its latest key.
        shard.settle(req_id, metrics);
        shard.ledger.push((req_id, site, lane));
        metrics.pool_outstanding.fetch_add(1, Relaxed);
        out
    }

    /// Check request `req_id`'s buffer back in under the key its checkout
    /// recorded, consuming the ledger entry. A buffer with no entry (a
    /// double check-in, or no [`BufferPool::checkout_for`]) is dropped.
    pub fn put_for(&self, machine: u16, req_id: u64, buf: Vec<u8>, metrics: &MachineMetrics) {
        let mut shard = self.shards[machine as usize].lock();
        if let Some((site, lane)) = shard.settle(req_id, metrics) {
            shard.entry(site, lane).give(buf, self.canary, metrics);
        }
    }

    /// Forget request `req_id`'s outstanding checkout: its buffer is
    /// lost (failed call, severed peer) and will never be checked in.
    pub fn abandon(&self, machine: u16, req_id: u64, metrics: &MachineMetrics) {
        self.shards[machine as usize].lock().settle(req_id, metrics);
    }

    /// Ledger entries on `machine`: 0 once every call has completed.
    pub fn outstanding(&self, machine: u16) -> usize {
        self.shards[machine as usize].lock().ledger.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_obs::MetricsRegistry;
    use corm_wire::CANARY_BYTE;

    #[test]
    fn first_checkout_is_a_cold_miss_then_hits() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        let (buf, hit) = pool.checkout(0, 7, Lane::Args, 64, m);
        assert!(!hit);
        assert!(buf.capacity() >= 64, "miss primes capacity from the hint");
        pool.put(0, 7, Lane::Args, buf, m);
        for _ in 0..10 {
            let (buf, hit) = pool.checkout(0, 7, Lane::Args, 64, m);
            assert!(hit);
            pool.put(0, 7, Lane::Args, buf, m);
        }
        let s = reg.snapshot();
        assert_eq!(s.machines[0].pool_hits, 10);
        assert_eq!(s.machines[0].pool_misses, 1);
        assert_eq!(s.machines[0].pool_cold_misses, 1);
        assert_eq!(s.machines[0].pool_steady_misses(), 0);
    }

    #[test]
    fn lost_buffers_become_steady_misses_past_the_cap() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        // A site that never returns its buffer (a leak): the first
        // PER_KEY_CAP allocations are working-set build-up, the rest are
        // steady-state misses the gate flags.
        for _ in 0..PER_KEY_CAP + 3 {
            let _ = pool.checkout(0, 1, Lane::Args, 8, m);
        }
        let s = reg.snapshot();
        assert_eq!(s.machines[0].pool_misses, (PER_KEY_CAP + 3) as u64);
        assert_eq!(s.machines[0].pool_cold_misses, PER_KEY_CAP as u64);
        assert_eq!(s.machines[0].pool_steady_misses(), 3);
    }

    #[test]
    fn lanes_and_sites_pool_separately() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        let (a, _) = pool.checkout(0, 1, Lane::Args, 8, m);
        pool.put(0, 1, Lane::Args, a, m);
        let (_, hit) = pool.checkout(0, 1, Lane::Ret, 8, m);
        assert!(!hit, "Ret lane does not see the Args buffer");
        let (_, hit) = pool.checkout(0, 2, Lane::Args, 8, m);
        assert!(!hit, "site 2 does not see site 1's buffer");
        let (_, hit) = pool.checkout(0, 1, Lane::Args, 8, m);
        assert!(hit);
    }

    #[test]
    fn resident_bytes_track_parked_capacity() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        let (buf, _) = pool.checkout(0, 3, Lane::Args, 100, m);
        let cap = buf.capacity() as u64;
        assert_eq!(reg.snapshot().machines[0].pool_resident_bytes, 0);
        pool.put(0, 3, Lane::Args, buf, m);
        assert_eq!(reg.snapshot().machines[0].pool_resident_bytes, cap);
        let _ = pool.checkout(0, 3, Lane::Args, 100, m);
        assert_eq!(reg.snapshot().machines[0].pool_resident_bytes, 0);
    }

    #[test]
    fn per_key_cap_bounds_retention() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        for _ in 0..PER_KEY_CAP + 2 {
            pool.put(0, 5, Lane::Args, Vec::with_capacity(16), m);
        }
        let parked = reg.snapshot().machines[0].pool_resident_bytes;
        let (one, _) = pool.checkout(0, 5, Lane::Args, 16, m);
        assert!(parked <= (PER_KEY_CAP * one.capacity()) as u64);
        // Only PER_KEY_CAP buffers ever come back out as hits.
        let mut hits = 1; // the checkout above
        while pool.checkout(0, 5, Lane::Args, 16, m).1 {
            hits += 1;
        }
        assert_eq!(hits, PER_KEY_CAP);
    }

    #[test]
    fn out_of_order_check_ins_land_in_their_own_slots() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        // Two pipelined requests at different sites, with very different
        // steady-state sizes. Their replies complete in reverse order.
        let (big, _) = pool.checkout_for(0, 101, 1, Lane::Args, 1024, m);
        let (small, _) = pool.checkout_for(0, 102, 2, Lane::Args, 16, m);
        assert_eq!(pool.outstanding(0), 2);
        assert_eq!(reg.snapshot().machines[0].pool_outstanding, 2, "gauge mirrors the ledger");
        pool.put_for(0, 102, small, m); // reply for req 102 arrives first
        pool.put_for(0, 101, big, m);
        assert_eq!(pool.outstanding(0), 0, "ledger drains as replies land");
        assert_eq!(reg.snapshot().machines[0].pool_outstanding, 0);
        // Each site gets *its own* buffer back: the ledger, not the
        // completion order, decides the slot.
        let (b1, hit1) = pool.checkout(0, 1, Lane::Args, 1024, m);
        let (b2, hit2) = pool.checkout(0, 2, Lane::Args, 16, m);
        assert!(hit1 && hit2);
        assert!(b1.capacity() >= 1024, "site 1 got the small buffer back");
        assert!(b2.capacity() < 1024, "site 2 got the big buffer back");
    }

    #[test]
    fn unledgered_and_abandoned_buffers_never_pollute_a_slot() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, false);
        // A put with no ledger entry drops the buffer instead of
        // guessing a slot.
        pool.put_for(0, 999, Vec::with_capacity(64), m);
        assert_eq!(reg.snapshot().machines[0].pool_resident_bytes, 0);
        // An abandoned checkout (failed call) consumes the entry; a
        // later stray put for the same id is likewise a drop.
        let (buf, _) = pool.checkout_for(0, 7, 3, Lane::Args, 32, m);
        pool.abandon(0, 7, m);
        assert_eq!(pool.outstanding(0), 0);
        pool.put_for(0, 7, buf, m);
        assert_eq!(reg.snapshot().machines[0].pool_resident_bytes, 0);
        assert_eq!(
            reg.snapshot().machines[0].pool_outstanding,
            0,
            "abandon retires the gauge; the stray put must not underflow it"
        );
    }

    #[test]
    #[allow(unsafe_code)] // the one read of uninitialized-typed capacity; the crate denies the rest
    fn canary_mode_paints_spare_capacity_but_keeps_it_empty() {
        let reg = MetricsRegistry::new(1);
        let m = reg.machine(0);
        let pool = BufferPool::new(1, true);
        let (mut buf, _) = pool.checkout(0, 9, Lane::Args, 32, m);
        buf.extend_from_slice(b"previous call's secret payload");
        pool.put(0, 9, Lane::Args, buf, m);
        let (mut buf, hit) = pool.checkout(0, 9, Lane::Args, 32, m);
        assert!(hit);
        assert!(buf.is_empty(), "recycled buffer hands out zero visible bytes");
        // Peek at the spare capacity: every stale byte was overwritten
        // with the sentinel, so nothing of the previous call survives.
        let spare = buf.spare_capacity_mut();
        assert!(!spare.is_empty());
        for b in spare.iter() {
            // SAFETY: canary_fill initialized every capacity byte before
            // the length was reset.
            assert_eq!(unsafe { b.assume_init() }, CANARY_BYTE);
        }
    }
}
