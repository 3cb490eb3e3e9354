//! # corm-obs — cluster-wide observability
//!
//! The measurement layer behind the paper's evaluation: the whole
//! argument of *Compiler Optimized RMI* rests on counter tables
//! (Tables 4/6/8) and on knowing *where* RMI time goes (marshal vs
//! wire vs unmarshal vs invoke). This crate provides:
//!
//! * [`metrics`] — a sharded metrics registry: one [`RmiStats`]
//!   counter shard plus latency/size histograms *per machine*, and
//!   per-call-site scopes, aggregating into the cluster-global
//!   [`StatsSnapshot`] that the tables are printed from;
//! * [`hist`] — fixed-bucket log2 histograms (lock-free atomics);
//! * [`trace`] — the causal RMI event trace, a view of a traced run's
//!   flight records: marshal, wire, unmarshal, invoke and collection,
//!   with phase spans linked across machines by a per-RMI request id;
//! * [`chrome`] — a Chrome trace-event JSON exporter (loads directly
//!   in Perfetto / `chrome://tracing`, one track per machine);
//! * [`prometheus`] — a Prometheus text-exposition renderer;
//! * [`recorder`] — the RMI flight recorder: one record per boundary, per
//!   machine — a lock-free ring of the last N milestones, or every record
//!   when traced — dumped as JSON on panic, peer loss, audit mismatch or
//!   request;
//! * [`report`] — per-phase time attribution splitting real
//!   (measured) from modeled (cost-model) time;
//! * [`timeline`] — the telemetry timeline plane: a background
//!   sampler that snapshots every machine's metrics at a fixed
//!   cadence into bounded rings.
//!
//! [`RmiStats`]: corm_wire::RmiStats
//! [`StatsSnapshot`]: corm_wire::StatsSnapshot

pub mod chrome;
pub mod hist;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod report;
pub mod timeline;
pub mod trace;

pub use chrome::to_chrome_trace;
pub use hist::{bucket_le, HistSnapshot, Log2Histogram, NBUCKETS, SUB_BUCKETS};
pub use metrics::{
    MachineMetrics, MachineSnapshot, MetricsRegistry, MetricsSnapshot, SiteMetrics, SiteSnapshot,
};
pub use prometheus::render_prometheus;
pub use recorder::{
    render_flight_json, FlightDump, FlightEvent, FlightKind, FlightRecorder,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use report::{attach_measured_wire, phase_report, render_phase_report, PhaseTotals};
pub use timeline::{
    render_timeline_json, spawn_sampler, SamplerHandle, TimelineDoc, TimelineSample, TimelineState,
    DEFAULT_TIMELINE_INTERVAL_US, TIMELINE_SCHEMA_VERSION,
};
pub use trace::{render_timeline, Phase, TraceEvent, TraceKind};
