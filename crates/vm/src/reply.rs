//! The reply table: how a caller waits for the reply to its RMI — Figure
//! 1's `wait(Machine 1)` — and the only module that knows (DESIGN §5.7). One
//! per machine, beside the machine lock and never under it. The caller
//! [`open`](ReplyTable::open)s its request id toward a destination, sends,
//! and [`wait`](Waiter::wait)s; the drain thread [`complete`](ReplyTable::complete)s
//! an id, or [`fail`](ReplyTable::fail)s every call aimed at a dead peer. An id
//! is in the table exactly while its caller waits: a reply to any other vanishes.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// What a call comes back with: the reply payload, or why there is none.
pub type Reply = Result<Vec<u8>, String>;

/// The error of a call whose target machine is gone.
pub fn peer_gone(peer: u16) -> String {
    format!("peer machine {peer} disconnected")
}

/// Where one VM thread sleeps for a reply: a one-place mailbox with a
/// `Condvar` of its own. A VM thread has at most one synchronous call
/// outstanding, so each `Interp` owns one, and a completion wakes it alone.
#[derive(Default)]
pub struct Waiter {
    reply: Mutex<Option<Reply>>,
    wake: Condvar,
}

impl Waiter {
    fn deliver(&self, reply: Reply) {
        *self.reply.lock() = Some(reply);
        self.wake.notify_one();
    }

    /// Sleep until the call opened for this waiter is completed or failed.
    pub fn wait(&self) -> Reply {
        let mut reply = self.reply.lock();
        while reply.is_none() {
            self.wake.wait(&mut reply);
        }
        reply.take().expect("left the loop on a reply")
    }
}

#[derive(Default)]
struct Table {
    /// Open calls: the peer each reply is awaited from, and who sleeps for it.
    waiting: HashMap<u64, (u16, Arc<Waiter>)>,
    /// Peers known dead. The transport drops what is sent to them, so a
    /// call opened toward one would wait for ever.
    dead: HashSet<u16>,
}

/// The calls of one machine that await a reply.
#[derive(Default)]
pub struct ReplyTable(Mutex<Table>);

impl ReplyTable {
    /// Register call `req` to machine `dest`, whose reply `waiter` will sleep
    /// for. Refused, with the call's error, when `dest` is known dead.
    pub fn open(&self, req: u64, dest: u16, waiter: &Arc<Waiter>) -> Result<(), String> {
        let mut table = self.0.lock();
        if table.dead.contains(&dest) {
            return Err(peer_gone(dest));
        }
        table.waiting.insert(req, (dest, waiter.clone()));
        Ok(())
    }

    /// Hand `reply` to the caller waiting on `req` and wake it.
    pub fn complete(&self, req: u64, reply: Reply) {
        let entry = self.0.lock().waiting.remove(&req);
        if let Some((_, waiter)) = entry {
            waiter.deliver(reply);
        }
    }

    /// Fail every open call aimed at `peer` — at anyone, for `None`: the
    /// fabric is gone — with `why`, and refuse calls to `peer` from now on.
    /// Returns the request ids failed, for the flight recorder.
    pub fn fail(&self, peer: Option<u16>, why: &str) -> Vec<u64> {
        let mut table = self.0.lock();
        table.dead.extend(peer);
        let hit = table.waiting.extract_if(|_, (dest, _)| peer.is_none_or(|p| *dest == p));
        hit.map(|(req, (_, waiter))| {
            waiter.deliver(Err(why.to_string()));
            req
        })
        .collect()
    }

    /// No call is waiting for a reply.
    pub fn is_empty(&self) -> bool {
        self.0.lock().waiting.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table with calls 1 and 2 open toward machines 1 and 2.
    fn two_open() -> (ReplyTable, [Arc<Waiter>; 2]) {
        let (table, waiters) = (ReplyTable::default(), [1, 2].map(|_| Arc::<Waiter>::default()));
        for (id, waiter) in (1..).zip(&waiters) {
            table.open(id, id as u16, waiter).unwrap();
        }
        (table, waiters)
    }

    fn delivered(waiter: &Waiter) -> Option<Reply> {
        waiter.reply.lock().clone()
    }

    #[test]
    fn fail_pending_is_scoped_to_the_dead_peer() {
        let (table, [w1, w2]) = two_open();
        let w3 = Arc::<Waiter>::default();
        table.open(3, 1, &w3).unwrap();
        table.complete(3, Ok(vec![9]));
        assert_eq!(table.fail(Some(1), &peer_gone(1)), [1]);
        assert!(matches!(delivered(&w1), Some(Err(e)) if e.contains('1')));
        assert_eq!(delivered(&w2), None, "a call to a live peer must keep waiting");
        assert_eq!(delivered(&w3), Some(Ok(vec![9])), "a reply already delivered stays");
        // The same death reported again fails nothing more; a call toward the dead peer is refused, and
        // one toward a live peer is not.
        assert!(table.fail(Some(1), &peer_gone(1)).is_empty());
        assert_eq!(table.open(4, 1, &w3), Err(peer_gone(1)));
        table.open(5, 2, &w3).unwrap();
        assert_eq!(table.0.lock().waiting.len(), 2);
    }

    #[test]
    fn fail_pending_without_peer_fails_everything_waiting() {
        let (table, waiters) = two_open();
        let mut failed = table.fail(None, "transport disconnected");
        failed.sort_unstable();
        assert_eq!(failed, [1, 2]);
        assert!(waiters.iter().all(|w| matches!(delivered(w), Some(Err(_)))));
        assert!(table.is_empty());
    }

    #[test]
    fn a_reply_nobody_waits_for_vanishes() {
        let table = ReplyTable::default();
        table.complete(7, Ok(vec![7]));
        assert!(table.is_empty(), "completing an id nobody opened left something behind");
        let (table, [w1, _]) = two_open();
        table.complete(1, Ok(vec![1]));
        table.complete(1, Ok(vec![2]));
        assert_eq!(w1.wait(), Ok(vec![1]));
        assert_eq!(delivered(&w1), None, "the second reply to one call was delivered");
    }

    #[test]
    fn completing_one_call_wakes_its_caller_and_no_other() {
        let (table, waiters) = two_open();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sleepers = [1u64, 2].map(|req| {
            let (waiter, done) = (waiters[req as usize - 1].clone(), done_tx.clone());
            std::thread::spawn(move || done.send((req, waiter.wait())).unwrap())
        });
        table.complete(2, Ok(vec![2]));
        assert_eq!(done_rx.recv().unwrap(), (2, Ok(vec![2])));
        // Caller 1 was handed nothing and is still in the table.
        assert!(done_rx.try_recv().is_err() && delivered(&waiters[0]).is_none());
        assert!(table.0.lock().waiting.contains_key(&1));
        table.complete(1, Ok(vec![1]));
        assert_eq!(done_rx.recv().unwrap(), (1, Ok(vec![1])));
        sleepers.into_iter().for_each(|t| t.join().unwrap());
        assert!(table.is_empty());
    }
}
