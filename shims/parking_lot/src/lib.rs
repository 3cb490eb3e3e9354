//! Offline shim for `parking_lot`: `Mutex`, `MutexGuard` and `Condvar`
//! over `std::sync`, with parking_lot's no-poisoning behavior (a
//! panicked holder does not poison the lock for everyone else),
//! parking_lot's notify that makes no syscall when no thread waits, and
//! parking_lot's `MutexGuard::bump`, which lets go of the lock only when
//! another thread is acquiring it.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::TryLockError;

/// A mutex that counts the threads acquiring it: a thread is counted from
/// the moment it fails to take the lock until it holds it, on every way of
/// taking it — [`Mutex::lock`], the re-lock in [`MutexGuard::unlocked`] and
/// the re-lock after [`Condvar::wait`]. The count is what
/// [`MutexGuard::bump`] reads; the real crate keeps the same fact in a bit
/// of its lock word. It publishes no data, so `Relaxed` suffices: a holder
/// that reads it a little late lets go at its next bump.
pub struct Mutex<T: ?Sized> {
    acquiring: AtomicUsize,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { acquiring: AtomicUsize::new(0), inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { lock: self, inner: Some(self.acquire()) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.try_inner().map(|inner| MutexGuard { lock: self, inner: Some(inner) })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    fn try_inner(&self) -> Option<std::sync::MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(inner) => Some(inner),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Take the lock, counted in `acquiring` for as long as it has to wait.
    /// An uncontended acquire is the one atomic `try_lock` makes.
    fn acquire(&self) -> std::sync::MutexGuard<'_, T> {
        self.try_inner().unwrap_or_else(|| {
            self.acquiring.fetch_add(1, Relaxed);
            let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            self.acquiring.fetch_sub(1, Relaxed);
            inner
        })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    // `None` only transiently, while `unlocked`/`Condvar::wait` hold the
    // std guard elsewhere.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Temporarily release the lock while running `f`, then reacquire.
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        s.inner = None;
        let out = f();
        s.inner = Some(s.lock.acquire());
        out
    }

    /// Let another thread have the lock if one is acquiring it: unlock,
    /// `yield_now`, relock. With no thread acquiring it does nothing, so an
    /// uncontended bump makes no syscall.
    pub fn bump(s: &mut Self) {
        if Self::contended(s) {
            Self::unlocked(s, std::thread::yield_now);
        }
    }

    /// Whether another thread is acquiring the lock, which is when
    /// [`MutexGuard::bump`] lets go. Not in the real crate, which reads the
    /// same fact from a private bit; a holder that has work to do before it
    /// lets go asks here first.
    pub fn contended(s: &Self) -> bool {
        s.lock.acquiring.load(Relaxed) > 0
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard released")
    }
}

/// A condition variable that, like parking_lot's, makes no call into the
/// OS when nobody waits: it counts the threads inside [`Condvar::wait`], and
/// a notify with the count at 0 returns at once. No wakeup is lost as long
/// as every notifier changes its condition under the mutex the waiters
/// hold: a waiter counts itself before that mutex is released, so a
/// notifier that locks it afterwards sees the count.
///
/// A waiter sleeps on a lock of the condvar's own, not on the caller's
/// mutex, so that once woken it takes the caller's mutex back through the
/// counted acquire, as parking_lot requeues a woken waiter onto the mutex.
/// It takes `sleep` before it lets go of the caller's mutex and holds it
/// until it is asleep; a notifier takes `sleep` once before it notifies, so
/// a counted waiter is asleep by then.
pub struct Condvar {
    cv: std::sync::Condvar,
    sleep: std::sync::Mutex<()>,
    waiters: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            cv: std::sync::Condvar::new(),
            sleep: std::sync::Mutex::new(()),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, releasing `guard`'s lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let sleep = self.sleep.lock().unwrap_or_else(|p| p.into_inner());
        self.waiters.fetch_add(1, Relaxed);
        drop(guard.inner.take().expect("guard released"));
        let sleep = self.cv.wait(sleep).unwrap_or_else(|p| p.into_inner());
        self.waiters.fetch_sub(1, Relaxed);
        drop(sleep);
        guard.inner = Some(guard.lock.acquire());
    }

    pub fn notify_one(&self) {
        if self.asleep() {
            self.cv.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.asleep() {
            self.cv.notify_all();
        }
    }

    /// Whether a thread is counted in `wait`; if so, it is asleep on `cv` once
    /// this returns.
    fn asleep(&self) -> bool {
        if self.waiters.load(Relaxed) == 0 {
            return false;
        }
        drop(self.sleep.lock().unwrap_or_else(|p| p.into_inner()));
        true
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn unlocked_releases_and_reacquires() {
        let m = Arc::new(Mutex::new(0));
        let mut g = m.lock();
        let m2 = m.clone();
        let took = MutexGuard::unlocked(&mut g, move || {
            // We can lock from "elsewhere" while unlocked.
            let mut inner = m2.lock();
            *inner = 7;
            true
        });
        assert!(took);
        assert_eq!(*g, 7);
    }

    /// How long a test waits for a result before it calls the wakeup lost.
    /// A pass returns as soon as the result is there.
    const LOST: std::time::Duration = std::time::Duration::from_secs(60);

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (woken_tx, woken_rx) = std::sync::mpsc::channel();
        let waiter = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*waiter;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
            woken_tx.send(()).unwrap();
        });
        let (m, cv) = &*pair;
        let deadline = std::time::Instant::now() + LOST;
        while cv.waiters.load(Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "the waiter never slept");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        *m.lock() = true;
        cv.notify_all();
        woken_rx.recv_timeout(LOST).expect("the waiter was never woken");
        waiter.join().unwrap();
    }

    /// Two threads take turns through one `Mutex<u32>`: each waits, in a
    /// loop on the predicate, until the counter has its parity, then bumps
    /// it and notifies. A lost wakeup stalls both, and the test fails at
    /// the timeout instead of hanging the suite.
    #[test]
    fn ping_pong_with_predicate_loops_loses_no_wakeup() {
        const ROUNDS: u32 = 20_000;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for parity in 0..2 {
            let (pair, done) = (pair.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut n = m.lock();
                while *n < 2 * ROUNDS {
                    while *n % 2 != parity {
                        cv.wait(&mut n);
                    }
                    *n += 1;
                    cv.notify_one();
                }
                done.send(*n).unwrap();
            });
        }
        for _ in 0..2 {
            let n = done_rx.recv_timeout(LOST).expect("a wakeup was lost");
            assert!(n >= 2 * ROUNDS);
        }
    }

    /// Lock-step with `until`, failing the test at [`LOST`].
    fn within_lost(what: &str, mut until: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + LOST;
        while !until() {
            assert!(std::time::Instant::now() < deadline, "{what}");
        }
    }

    /// A thread blocked in `lock()` is counted, and the holder's bump hands it
    /// the lock; the holder loops on `bump` until the thread has been in.
    #[test]
    fn a_thread_blocked_in_lock_gets_the_lock_at_the_holders_bump() {
        let m = Arc::new(Mutex::new(0u32));
        let mut g = m.lock();
        let m2 = m.clone();
        let blocked = std::thread::spawn(move || *m2.lock() += 1);
        within_lost("the blocked thread was never counted", || MutexGuard::contended(&g));
        within_lost("the blocked thread never got the lock", || {
            MutexGuard::bump(&mut g);
            *g == 1
        });
        drop(g);
        blocked.join().unwrap();
        assert!(!MutexGuard::contended(&m.lock()), "a thread that holds the lock is not counted");
    }

    /// A thread woken by `notify_all` takes the mutex back through the counted
    /// acquire, so a holder that only ever bumps lets it in. Were the re-lock
    /// after `wait` uncounted, `bump` would never let go and this would spin
    /// until the deadline.
    #[test]
    fn a_thread_woken_by_notify_all_gets_in_while_the_holder_bumps() {
        let pair = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let waiter = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*waiter;
            let mut g = m.lock();
            while !g.0 {
                cv.wait(&mut g);
            }
            g.1 = true;
        });
        let (m, cv) = &*pair;
        within_lost("the waiter never slept", || cv.waiters.load(Relaxed) > 0);
        let mut g = m.lock();
        g.0 = true;
        cv.notify_all();
        within_lost("the woken thread never got in", || {
            MutexGuard::bump(&mut g);
            g.1
        });
        drop(g);
        waiter.join().unwrap();
    }

    /// A thread that only calls `try_lock` is never counted, so a holder's
    /// bump never lets go for it.
    #[test]
    fn a_thread_that_only_tries_is_never_let_in_by_bump() {
        use std::sync::atomic::AtomicBool;
        let m = Arc::new(Mutex::new(()));
        let (stop, took) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicUsize::new(0)));
        let mut g = m.lock();
        let (m2, stop2, took2) = (m.clone(), stop.clone(), took.clone());
        let (tried_tx, tried_rx) = std::sync::mpsc::channel();
        let trier = std::thread::spawn(move || {
            let mut tried = false;
            while !stop2.load(Relaxed) {
                // A take counts only while the holder still bumps: `stop` is
                // set before the holder's guard drops, so a take after that
                // drop reads it (the unlock orders the store before it).
                if m2.try_lock().is_some_and(|_g| !stop2.load(Relaxed)) {
                    took2.fetch_add(1, Relaxed);
                }
                if !tried {
                    tried = true;
                    tried_tx.send(()).unwrap();
                }
            }
        });
        tried_rx.recv_timeout(LOST).expect("the trier never ran");
        for _ in 0..10_000 {
            assert!(!MutexGuard::contended(&g));
            MutexGuard::bump(&mut g);
        }
        stop.store(true, Relaxed);
        drop(g);
        trier.join().unwrap();
        assert_eq!(took.load(Relaxed), 0, "bump let go with no thread acquiring");
    }

    #[test]
    fn no_poisoning() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock stays usable after a panicked holder");
    }
}
