//! # corm-net — simulated cluster transport
//!
//! Substitutes the paper's testbed (1 GHz Pentium III nodes on Myrinet
//! with the GM user-level communication system): N in-process machines
//! exchange packets over per-machine queues (or, selectably, real
//! loopback sockets or a seeded lossy fabric — see [`transport`]).
//! Serialization work is done for real by corm-codegen; only the wire
//! transit itself is modeled, via a [`CostModel`] that accrues *modeled
//! network time* from the actual message and byte counts, reported beside
//! the measured time and never added to it.
//!
//! The receive side mirrors the paper's GM setup: exactly one drainer per
//! machine ("at any time only one thread can drain the network as
//! required by our communication software") — the VM runs that loop.

pub mod cost;
pub mod lossy;
mod mesh;
pub mod packet;
mod reactor;
mod receive;
mod tcp;
pub mod transport;

pub use cost::CostModel;
pub use lossy::LossSpec;
pub use packet::Packet;
pub use receive::{Mailbox, Mailboxes, RecvError, ReplyHandler};
pub use transport::{NetHandle, Transport, TransportKind};
