//! Thread-per-stream drive: the socket mesh of [`crate::mesh`] read by
//! one blocking reader thread per inbound stream.
//!
//! This is how classic blocking RMI runtimes spend threads — O(N²)
//! cluster-wide — and it is the reference the reactor drive is measured
//! against. Sends are the mesh's (written inline by the sending
//! thread); on these blocking streams a write the peer does not take
//! within [`WRITE_TIMEOUT`] is a failed write like any other (the mesh
//! retires the connection and reports `PeerGone` to the sender).

use std::io;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use crate::mesh::{lock, pump, Inbound, Mesh};

/// Blocked readers wake at least this often to check the shutdown flag
/// (the FIN from an orderly shutdown wakes them immediately anyway).
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// A stalled peer gets this long before a write is abandoned.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// One reader thread per inbound stream, each looping over the shared
/// [`pump`] until its stream ends or the fabric shuts down.
pub(crate) fn spawn_readers(mesh: &Mesh, inbound: Vec<Inbound>) -> io::Result<()> {
    let mut handles = lock(&mesh.threads);
    for mut ib in inbound {
        let core = mesh.core.clone();
        handles.push(
            thread::Builder::new().name(format!("corm-tcp-rx-{}-to-{}", ib.peer, ib.me)).spawn(
                move || {
                    while !ib.done && !core.rx.shutting_down() {
                        pump(&core, &mut ib);
                    }
                },
            )?,
        );
    }
    Ok(())
}
