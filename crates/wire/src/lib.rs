//! # corm-wire — the RMI wire protocol
//!
//! Message buffers with typed read/write cursors, the wire tag vocabulary
//! (where the `class` baseline spends its "too much type information is
//! sent for each transferred object" overhead), the runtime
//! cycle-detection handle table that §3.2 eliminates statically, and the
//! global RMI statistics counters behind Tables 4, 6 and 8.

#![deny(unsafe_code)]

pub mod cycle_table;
pub mod message;
pub mod stats;
pub mod tags;

pub use cycle_table::{DeserTable, SerCycleTable};
pub use message::{canary_fill, Message, MessageReader, WireError, CANARY_BYTE};
pub use stats::{Counter, RmiStats, StatsSnapshot, COUNTERS};
pub use tags::*;
