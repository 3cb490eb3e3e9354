//! The yardstick: a fixed piece of work, none of it this repo's code, timed
//! next to every repetition so that a run can tell how fast the box was
//! while it measured (README.md, "Noise").
//!
//! One round trip is what an RMI is made of, with the standard library in
//! the place of the runtime: a buffer is filled, handed to another thread
//! through a channel (the thread is woken), read there, and handed back.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips in one measurement: about 60 ms.
const ROUND_TRIPS: usize = 20_000;
const BUFFER_BYTES: usize = 1024;

pub struct Yardstick {
    to_echo: Option<Sender<Vec<u8>>>,
    from_echo: Receiver<Vec<u8>>,
    echo: Option<JoinHandle<()>>,
    buffer: Vec<u8>,
}

impl Yardstick {
    pub fn start() -> Yardstick {
        let (to_echo, echo_rx) = channel::<Vec<u8>>();
        let (to_main, from_echo) = channel::<Vec<u8>>();
        let echo = std::thread::Builder::new()
            .name("bench-yardstick".into())
            .spawn(move || {
                while let Ok(mut buf) = echo_rx.recv() {
                    let sum = buf.iter().fold(0u8, |s, &b| s.wrapping_add(b));
                    buf[0] = sum;
                    if to_main.send(buf).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn yardstick thread");
        Yardstick {
            to_echo: Some(to_echo),
            from_echo,
            echo: Some(echo),
            buffer: vec![0; BUFFER_BYTES],
        }
    }

    /// Mean ns of one round trip over `ROUND_TRIPS`.
    pub fn measure(&mut self) -> f64 {
        let to_echo = self.to_echo.as_ref().expect("yardstick is running");
        let mut buf = std::mem::take(&mut self.buffer);
        let t = Instant::now();
        for i in 0..ROUND_TRIPS {
            buf.fill(i as u8);
            to_echo.send(buf).expect("yardstick thread is alive");
            buf = self.from_echo.recv().expect("yardstick thread is alive");
        }
        let ns = t.elapsed().as_nanos() as f64 / ROUND_TRIPS as f64;
        self.buffer = black_box(buf);
        ns
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // Closing the channel ends the echo thread's loop.
        self.to_echo = None;
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_repeatedly_and_stops() {
        let mut y = Yardstick::start();
        for _ in 0..2 {
            let ns = y.measure();
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
        drop(y); // joins the echo thread; must not hang
    }
}
