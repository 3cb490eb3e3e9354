//! Offline shim for `parking_lot`: `Mutex`, `MutexGuard` and `Condvar`
//! over `std::sync`, with parking_lot's no-poisoning behavior (a
//! panicked holder does not poison the lock for everyone else), and
//! parking_lot's notify that makes no syscall when no thread waits.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.0.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard { lock: self, inner: Some(inner) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(inner) => Some(MutexGuard { lock: self, inner: Some(inner) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { lock: self, inner: Some(p.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
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
        s.inner = Some(s.lock.0.lock().unwrap_or_else(|p| p.into_inner()));
        out
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
pub struct Condvar {
    cv: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { cv: std::sync::Condvar::new(), waiters: AtomicUsize::new(0) }
    }

    /// Block until notified, releasing `guard`'s lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard released");
        self.waiters.fetch_add(1, Relaxed);
        let inner = self.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
        self.waiters.fetch_sub(1, Relaxed);
        guard.inner = Some(inner);
    }

    pub fn notify_one(&self) {
        if self.waiters.load(Relaxed) > 0 {
            self.cv.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.waiters.load(Relaxed) > 0 {
            self.cv.notify_all();
        }
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
