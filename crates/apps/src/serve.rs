//! The webserver app as a long-running sharded service.
//!
//! [`webserver_serve`] compiles `programs/webserver.mp` and hands its
//! `Slave` class to the open-loop serving driver (`corm_vm::serve`,
//! DESIGN §13): one slave per machine `1..M`, clients on machine 0,
//! latency recorded against the schedule's intended arrival times. The
//! serving benchmark (`serve_bench`) enters through here.

use corm::{ArrivalSchedule, OptConfig, ServeOptions, ServeReport, ServeSpec, VmError};

use crate::WEBSERVER;

/// The webserver's service entry points (`Slave.init/getPage/hitCount`).
pub fn webserver_spec() -> ServeSpec {
    ServeSpec::default()
}

/// Compile the webserver under `config` and serve it open-loop.
pub fn webserver_serve(
    config: OptConfig,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
) -> Result<ServeReport, VmError> {
    let compiled = WEBSERVER.compile(config);
    corm::serve(&compiled, &webserver_spec(), schedule, opts)
}
