//! The webserver app as a long-running sharded service.
//!
//! [`webserver_serve`] compiles `programs/webserver.mp` and hands its
//! `Slave` class to the open-loop serving driver (`corm_vm::serve`,
//! DESIGN §8): one slave per machine `1..M`, clients on machine 0,
//! latency recorded against the schedule's intended arrival times. The
//! serving tests enter through here; `corm serve` embeds the same source.

use corm::{ArrivalSchedule, OptConfig, ServeOptions, ServeReport, VmError};

use crate::WEBSERVER;

/// Compile the webserver under `config` and serve it open-loop.
pub fn webserver_serve(
    config: OptConfig,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
) -> Result<ServeReport, VmError> {
    let compiled = WEBSERVER.compile(config);
    corm::serve(&compiled, schedule, opts)
}
