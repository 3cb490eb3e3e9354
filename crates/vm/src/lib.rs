//! # corm-vm — the MiniParty virtual machine
//!
//! A register-machine interpreter over the corm-ir CFG, executing on a
//! simulated cluster:
//!
//! * each machine owns a managed heap, per-machine statics, native queue
//!   table and the per-call-site reuse caches of §3.3;
//! * one thread at a time drains each machine's packets (one drainer, as
//!   in the paper's modified GM) and serves a two-way request itself; a
//!   handler about to wait hands the drain role to another thread first;
//! * remote calls marshal through the corm-codegen serializer programs;
//!   calls that happen to target a local object still clone their
//!   arguments through serialization ("the same parameter passing
//!   semantics are observed regardless of the location of the called
//!   object", §1) and are counted as *local RPCs*;
//! * `spawn` statements become one-way requests handled on dedicated
//!   threads (the long-running tester threads of the superoptimizer).
//!
//! The interpreter runs each function's linked form (`link`), built once per
//! cluster from the CFG the analyses read.

#![deny(unsafe_code)]

pub mod builtins;
mod drain;
pub mod error;
pub mod interp;
mod link;
pub mod machine;
pub mod pool;
pub mod reply;
pub mod rmi;
pub mod runtime;
pub mod serve;

/// Trace types live in `corm-obs` (shared with the exporters); re-export
/// the module so `corm_vm::trace::…` paths keep working.
pub use corm_obs::trace;

pub use corm_obs::{
    render_flight_json, render_timeline, to_chrome_trace, FlightDump, FlightEvent, FlightKind,
    FlightRecorder, Phase, TraceEvent, TraceKind, DEFAULT_FLIGHT_CAPACITY,
};
pub use error::VmError;
pub use runtime::{
    run_program, write_flight_artifact, AuditSnapshot, Cluster, FaultSpec, Mark, Milestone,
    RunOptions, RunOutcome, Runtime,
};
pub use serve::{serve, serve_with, ArrivalSchedule, ServeOptions, ServeReport};
