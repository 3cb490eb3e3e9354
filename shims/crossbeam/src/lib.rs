//! Offline shim for `crossbeam`: an unbounded MPMC channel with
//! clonable senders *and* receivers, and crossbeam's disconnect
//! semantics (`recv` errors once the queue is empty and every sender
//! has been dropped). As in the real crate, a send or a disconnect
//! wakes a receiver only when one is asleep in `recv`, so an uncontended
//! send makes no futex call.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        items: VecDeque<T>,
        senders: usize,
        /// Receivers asleep in `recv`. Changed only under the lock, so a
        /// sender that sees 0 knows nobody can miss its item: a receiver
        /// checks the queue under the same lock before it counts itself.
        sleepers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        cv: Condvar,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner { items: VecDeque::new(), senders: 1, sleepers: 0 }),
            cv: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|p| p.into_inner());
            inner.items.push_back(value);
            let asleep = inner.sleepers > 0;
            drop(inner);
            // One item, one receiver: each checks the queue under the lock
            // before it sleeps, so a wake-up cannot be lost, and the rest
            // of an idle pool is not woken to find the queue empty again.
            if asleep {
                self.0.cv.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap_or_else(|p| p.into_inner()).senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap_or_else(|p| p.into_inner());
            inner.senders -= 1;
            let wake = inner.senders == 0 && inner.sleepers > 0;
            drop(inner);
            if wake {
                // Wake blocked receivers so they observe the disconnect.
                self.0.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until an item arrives, or fail once the channel is empty
        /// and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = inner.items.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.sleepers += 1;
                inner = self.0.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
                inner.sleepers -= 1;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|p| p.into_inner());
            match inner.items.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(self.0.clone())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_after_last_sender_drops() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7), "queued items drain before disconnect");
            drop(tx2);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn mpmc_workers_drain_everything() {
            let (tx, rx) = unbounded::<u32>();
            let mut workers = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                workers.push(std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += u64::from(v);
                    }
                    sum
                }));
            }
            for i in 1..=100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(total, 5050);
        }

        /// How long a test waits for a result before it calls the wakeup
        /// lost. A pass returns as soon as the result is there.
        const LOST: std::time::Duration = std::time::Duration::from_secs(60);

        /// Four receivers asleep in `recv`, each reporting what it got.
        /// Returns once the channel counts all four as sleepers.
        fn four_blocked_receivers<T: Send + 'static>(
            rx: &Receiver<T>,
        ) -> (std::sync::mpsc::Receiver<Result<T, RecvError>>, Vec<std::thread::JoinHandle<()>>)
        {
            let (got_tx, got_rx) = std::sync::mpsc::channel();
            let sleepers = (0..4)
                .map(|_| {
                    let (rx, got) = (rx.clone(), got_tx.clone());
                    std::thread::spawn(move || got.send(rx.recv()).unwrap())
                })
                .collect();
            let deadline = std::time::Instant::now() + LOST;
            while rx.0.inner.lock().unwrap().sleepers < 4 {
                assert!(std::time::Instant::now() < deadline, "four receivers never slept");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            (got_rx, sleepers)
        }

        #[test]
        fn one_send_is_received_once_and_four_sends_by_all_four() {
            let (tx, rx) = unbounded::<u32>();
            let (got, sleepers) = four_blocked_receivers(&rx);
            tx.send(1).unwrap();
            assert_eq!(got.recv_timeout(LOST), Ok(Ok(1)));
            // The other three were handed nothing and are still in `recv`:
            // they return only with the three items sent next.
            assert!(got.try_recv().is_err(), "one item reached two receivers");
            for i in 2..=4 {
                tx.send(i).unwrap();
            }
            let mut rest: Vec<u32> =
                (0..3).map(|_| got.recv_timeout(LOST).unwrap().unwrap()).collect();
            rest.sort_unstable();
            assert_eq!(rest, [2, 3, 4]);
            sleepers.into_iter().for_each(|t| t.join().unwrap());
        }

        #[test]
        fn ping_pong_over_two_channels_loses_no_wakeup() {
            const ROUNDS: u32 = 20_000;
            let (ping_tx, ping_rx) = unbounded::<u32>();
            let (pong_tx, pong_rx) = unbounded::<u32>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let echo = std::thread::spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    pong_tx.send(v + 1).unwrap();
                }
            });
            std::thread::spawn(move || {
                let mut v = 0;
                for _ in 0..ROUNDS {
                    ping_tx.send(v).unwrap();
                    v = pong_rx.recv().unwrap();
                }
                done_tx.send(v).unwrap();
            });
            assert_eq!(done_rx.recv_timeout(LOST), Ok(ROUNDS), "a round trip lost its wakeup");
            echo.join().unwrap();
        }

        #[test]
        fn an_item_sent_before_recv_is_received() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(9).unwrap();
            let (got_tx, got_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || got_tx.send(rx.recv()).unwrap());
            assert_eq!(got_rx.recv_timeout(LOST), Ok(Ok(9)));
        }

        #[test]
        fn dropping_the_last_sender_wakes_every_receiver() {
            let (tx, rx) = unbounded::<u32>();
            let (got, sleepers) = four_blocked_receivers(&rx);
            let tx2 = tx.clone();
            drop(tx);
            assert!(got.try_recv().is_err(), "a sender is left: nobody may return yet");
            drop(tx2);
            for _ in 0..4 {
                assert_eq!(got.recv_timeout(LOST), Ok(Err(RecvError)));
            }
            sleepers.into_iter().for_each(|t| t.join().unwrap());
        }
    }
}
