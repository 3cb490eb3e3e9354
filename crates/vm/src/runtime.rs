//! Cluster assembly and program execution.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use corm_codegen::Plans;
use corm_heap::HeapStats;
use corm_ir::{CallSiteId, Module};
use corm_net::{
    ClusterBarrier, CostModel, LossSpec, Mailbox, NetHandle, Packet, RecvError, TransportKind,
};
use corm_obs::recorder::{
    FlightEvent, FlightKind, DEFAULT_FLIGHT_CAPACITY, TRANSPORT_CHANNEL, TRANSPORT_LOSSY,
    TRANSPORT_REACTOR, TRANSPORT_TCP,
};
use corm_obs::timeline::{spawn_sampler, SamplerHandle, TimelineDoc, DEFAULT_TIMELINE_INTERVAL_US};
use corm_obs::{
    render_flight_json, FlightDump, FlightRecorder, MetricsRegistry, MetricsSnapshot, SiteMetrics,
};
use corm_wire::{RmiStats, StatsSnapshot};
use parking_lot::Mutex;

use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::link::{link, Linked};
use crate::machine::MachineShared;
use crate::reply::peer_gone;
use crate::rmi;
use crate::trace::{Phase, TraceEvent, TraceKind};

/// Options for one program run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of simulated machines (the paper evaluates with 2 CPUs).
    pub machines: usize,
    /// Program arguments readable via `Cluster.arg(i)`.
    pub args: Vec<i64>,
    /// Echo `System.println` to the host stdout (output is always
    /// captured in [`RunOutcome::output`]).
    pub echo: bool,
    /// Request/reply worker threads per machine.
    pub workers_per_machine: usize,
    /// Record an RMI event trace (see [`crate::trace`]).
    pub trace: bool,
    /// Which backend carries the packets (`channel` in-process fabric or
    /// a real loopback TCP mesh). Counters are identical either way;
    /// only TCP also *measures* wire time.
    pub transport: TransportKind,
    /// Run the analysis-verdict auditor (DESIGN §10): cycle-freedom
    /// claims are re-checked by a shadow handle table, and reuse-safety
    /// claims are stress-tested by poisoning cached graphs between
    /// calls. Counters and wire bytes are unchanged; unsound verdicts
    /// surface as `analysis-audit` run errors or output divergence. The
    /// collector is audited with them: every pacing point collects and no
    /// swept slot is reused, so a reference some root set missed is a
    /// `dangling reference` error at its first use.
    pub audit: bool,
    /// Flight-recorder ring capacity per machine (events). On by default
    /// (DESIGN §7.3); `0` disables recording entirely — that switch exists
    /// for `benchmark/`'s `obs.overhead_share` probe, not for production use.
    pub flight_capacity: usize,
    /// Fault injection: abruptly kill a machine mid-run (see
    /// [`FaultSpec`]). `None` in normal operation.
    pub fault: Option<FaultSpec>,
    /// Server-side stall injection (see [`StallSpec`]): every N-th
    /// handled request sleeps before processing. `None` in normal
    /// operation; `tests/serving.rs` uses it to show that a degraded
    /// server's backlog lands in the intended-time latency.
    pub stall: Option<StallSpec>,
    /// Timeline sampler cadence, µs (DESIGN §7.4). A background thread
    /// snapshots every machine's metrics at this interval into the
    /// registry's bounded rings and runs the health assessor over them.
    /// On by default; `0` disables sampling — that switch exists for
    /// `benchmark/`'s `obs.overhead_share` probe, not for production use.
    pub timeline_interval_us: u64,
    /// Loss model for the lossy transport (DESIGN §5.6): seeded
    /// drop/duplicate/reorder rates and retransmission timing. Ignored
    /// by the reliable backends; `None` with `transport: lossy` selects
    /// [`LossSpec::default`].
    pub loss: Option<LossSpec>,
}

/// Deterministic fault injection for failure-path tests: the
/// `after_sends`-th wire request destined to `victim` severs the victim
/// *instead of* being delivered — the request is lost exactly as if the
/// victim's power cord was pulled while the packet was in flight, and
/// every survivor observes `PeerGone`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub victim: u16,
    /// 1-based: `1` kills the victim at the first request toward it.
    pub after_sends: u64,
}

/// Deterministic server-side slowness: every `every`-th request handled
/// anywhere in the cluster sleeps `stall_us` before processing. Models a
/// GC pause / overloaded server for the coordinated-omission and SLO
/// tests without touching the request path's timing otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// Stall the 1st, `every+1`-th, `2*every+1`-th, ... handled request.
    pub every: u64,
    /// How long each stalled request sleeps, in microseconds.
    pub stall_us: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            machines: 2,
            args: Vec::new(),
            echo: false,
            workers_per_machine: 3,
            trace: false,
            transport: TransportKind::default(),
            audit: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            fault: None,
            stall: None,
            timeline_interval_us: DEFAULT_TIMELINE_INTERVAL_US,
            loss: None,
        }
    }
}

/// What the runtime analysis auditor did over a run, reported in
/// [`RunOutcome`]: the machine shards' `audit_*` counters, summed. All
/// zero unless [`RunOptions::audit`] is set; none of them is an
/// `RmiStats` counter, so audited runs keep those bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSnapshot {
    pub enabled: bool,
    /// Shadow cycle tables created (one per message whose plan elided
    /// the real table).
    pub shadow_tables: u64,
    /// Objects identity-checked by shadow tables.
    pub shadow_checks: u64,
    /// Primitive slots / array elements / strings poisoned in reuse
    /// caches before deserialization reclaimed them.
    pub poisoned_values: u64,
}

/// Everything shared by all threads of a cluster run.
pub struct Runtime {
    pub module: Arc<Module>,
    /// Every function of `module` linked for the interpreter, by `FuncId`.
    pub(crate) linked: Box<[Linked]>,
    pub plans: Arc<Plans>,
    /// Sharded per-machine metrics (counters + histograms); see
    /// `corm_obs::MetricsRegistry`. The old cluster-global `RmiStats`
    /// is recovered exactly by `obs.cluster_snapshot()`.
    pub obs: Arc<MetricsRegistry>,
    /// Each call site's metrics scope, resolved in the registry by the
    /// site's first call and read here by every later one. Indexed by
    /// [`CallSiteId`]; a site never called never enters the registry.
    site_scopes: Vec<OnceLock<Arc<SiteMetrics>>>,
    pub net: NetHandle,
    pub machines: Vec<Arc<MachineShared>>,
    pub barrier: ClusterBarrier,
    pub args: Vec<i64>,
    /// The cluster epoch: the zero point of trace, flight and timeline
    /// timestamps (the sampler stamps on the flight recorder's copy).
    pub start: Instant,
    pub output: Mutex<String>,
    pub echo: bool,
    /// Join handles of user `spawn` threads.
    pub spawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Event trace, when enabled by [`RunOptions::trace`].
    pub trace: Option<Mutex<Vec<TraceEvent>>>,
    /// Analysis-verdict auditing (see [`RunOptions::audit`]).
    pub audit: bool,
    /// Always-on RMI flight recorder (DESIGN §7.3): one lock-free ring per
    /// machine holding the last N RMI events for post-mortem dumps.
    pub flight: Arc<FlightRecorder>,
    /// Request ids whose replies were failed by peer loss or disconnect —
    /// these become [`FlightDump::failing_reqs`].
    pub flight_failed: Mutex<Vec<u64>>,
    /// Transport code stamped into flight events
    /// (`corm_obs::recorder::TRANSPORT_*`). The recorder lives below the
    /// net crate, so the kind is mapped to a byte once, here.
    pub transport_code: u8,
    /// Fault injection, when requested (see [`FaultSpec`]).
    pub fault: Option<FaultSpec>,
    /// Count of wire requests sent toward the fault victim so far.
    pub fault_sends: std::sync::atomic::AtomicU64,
    /// Stall injection, when requested (see [`StallSpec`]).
    pub stall: Option<StallSpec>,
    /// Count of requests handled since start, for [`StallSpec::every`].
    pub stall_count: std::sync::atomic::AtomicU64,
    /// Per-call-site marshal-buffer pool (DESIGN §5.4): request buffers
    /// circulate caller → server → reply → caller, so steady-state
    /// marshals allocate nothing. Canary mode rides on `audit`.
    pub pool: crate::pool::BufferPool,
    /// Background timeline sampler (DESIGN §7.4), when enabled by
    /// [`RunOptions::timeline_interval_us`]. Stopped (final forced tick
    /// included) by [`Cluster::finish`] before the metrics snapshot.
    pub sampler: Option<SamplerHandle>,
}

impl Runtime {
    pub fn machine(&self, id: u16) -> &Arc<MachineShared> {
        &self.machines[id as usize]
    }

    /// The metrics scope of call site `site`, which has a marshal plan.
    pub(crate) fn site_metrics(&self, site: CallSiteId) -> &SiteMetrics {
        self.site_scopes[site.index()].get_or_init(|| self.obs.site(site.0))
    }

    /// Microseconds since the cluster epoch — the only clock the RMI
    /// path reads.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Read the clock once and, with tracing on, log `kind(t_us)` at that
    /// reading. Clock read and sequence number happen *under the trace
    /// lock*, so `seq` and `t_us` order agree, and whatever else is fed
    /// from the returned stamp agrees with the trace to the microsecond.
    fn stamp(&self, machine: u16, kind: impl FnOnce(u64) -> Option<TraceKind>) -> u64 {
        let Some(tr) = &self.trace else { return self.now_us() };
        let mut events = tr.lock();
        let t_us = self.now_us();
        if let Some(kind) = kind(t_us) {
            let seq = events.len() as u64;
            events.push(TraceEvent { t_us, seq, machine, kind });
        }
        t_us
    }

    /// Log a trace-only instant outside the RMI pipeline (a collection, a
    /// remote allocation); with tracing off it costs no clock read.
    pub fn instant(&self, machine: u16, kind: TraceKind) {
        if self.trace.is_some() {
            self.stamp(machine, |_| Some(kind));
        }
    }

    /// RMI `req` at call site `site` as machine `at` records it; no `flags` yet.
    pub fn call(&self, at: u16, req: u64, site: u32) -> CallCtx<'_> {
        CallCtx { rt: self, at, req, site, flags: 0 }
    }

    pub fn print(&self, s: &str) {
        let mut out = self.output.lock();
        out.push_str(s);
        if self.echo {
            print!("{s}");
        }
    }

    /// Assemble a flight dump with the given reason, capturing every
    /// machine's recent events and the failed request ids seen so far.
    pub fn flight_dump(&self, reason: &str) -> FlightDump {
        FlightDump {
            reason: reason.to_string(),
            failing_reqs: self.flight_failed.lock().clone(),
            machines: self.flight.snapshot(),
        }
    }
}

/// One RMI as one machine sees it: what every phase span, milestone and
/// flight event of the call is stamped with, settled once per call.
#[derive(Clone, Copy)]
pub struct CallCtx<'a> {
    pub rt: &'a Runtime,
    /// The machine this half of the call runs, and records, on.
    pub at: u16,
    pub req: u64,
    pub site: u32,
    /// The site plan's verdicts as flight-recorder `FLAG_*` bits.
    pub flags: u8,
}

impl CallCtx<'_> {
    /// Open a phase; [`phase_end`](Self::phase_end) takes the stamp back.
    pub fn phase_begin(&self, phase: Phase) -> u64 {
        let Self { rt, at, req, site, .. } = *self;
        rt.stamp(at, |_| Some(TraceKind::PhaseBegin { phase, req, site }))
    }

    /// Close the phase opened at `t0`: one stamp ends both the trace span
    /// and the phase histogram's sample, so the histogram sums equal the
    /// trace's phase report exactly.
    pub fn phase_end(&self, phase: Phase, t0: u64) -> u64 {
        let Self { rt, at, req, site, .. } = *self;
        let t1 = rt.stamp(at, |_| Some(TraceKind::PhaseEnd { phase, req, site }));
        let shard = rt.obs.machine(at);
        let hist = match phase {
            Phase::Marshal => &shard.marshal_us,
            Phase::Queue => &shard.queue_us,
            Phase::Unmarshal => &shard.unmarshal_us,
            Phase::Invoke => &shard.invoke_us,
        };
        hist.record(t1.saturating_sub(t0));
        t1
    }

    /// Run `f` as a phase. It ends when `f` returns, before the caller
    /// can `?` the result away — so a failing marshal or a remote
    /// exception still closes its span and lands in its histogram.
    pub fn in_phase<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = self.phase_begin(phase);
        let out = f();
        self.phase_end(phase, t0);
        out
    }

    /// Record milestone `m`, whose payload is `bytes` long: one stamp feeds
    /// the flight ring, the trace log and — for `Return` and `Local` — the
    /// RTT histograms. Returns it: a `Send`'s is the `since` of its `Return`.
    pub fn milestone(&self, bytes: usize, m: Milestone<'_>) -> u64 {
        use Milestone::*;
        let Self { rt, at, req, site, flags } = *self;
        let (kind, peer, since, scope) = match m {
            Send { to, .. } => (FlightKind::Send, to, 0, None),
            Return { from, since, scope } => (FlightKind::Return, from, since, Some(scope)),
            Handle { from, since, .. } => (FlightKind::Handle, from, since, None),
            Local { since, scope } => (FlightKind::Local, at, since, Some(scope)),
            Fail { peer } => (FlightKind::Fail, peer, 0, None),
            Slo { server } => (FlightKind::Slo, server, 0, None),
        };
        let t_us = rt.stamp(at, |t| {
            let (us, bytes) = (t.saturating_sub(since), bytes as u64);
            Some(match m {
                Send { to, oneway } => TraceKind::RmiSend { req, site, to, bytes, oneway },
                Return { .. } => TraceKind::RmiReturn { req, site, us, reply_bytes: bytes },
                Handle { reused, .. } => TraceKind::Handle { req, site, us, reused },
                Local { .. } => TraceKind::LocalRpc { req, site, us },
                Fail { .. } | Slo { .. } => return None,
            })
        });
        if let Some(scope) = scope {
            let us = t_us.saturating_sub(since);
            rt.obs.machine(at).rtt_us.record(us);
            scope.rtt_us.record(us);
        }
        let (bytes, transport) = (bytes.min(u32::MAX as usize) as u32, rt.transport_code);
        rt.flight.record(at, FlightEvent { t_us, req, site, bytes, kind, peer, flags, transport });
        t_us
    }
}

/// What [`CallCtx::milestone`] records. `since` is the stamp a duration
/// is measured from; `scope` is the call site's metrics, resolved once
/// per RMI by the caller.
#[derive(Clone, Copy)]
pub enum Milestone<'a> {
    /// The request left for `to`.
    Send { to: u16, oneway: bool },
    /// The reply to the request sent at `since` arrived from `from`.
    Return { from: u16, since: u64, scope: &'a SiteMetrics },
    /// The request from `from`, picked up at `since`, was served here
    /// (successfully or not), recycling `reused` cached objects.
    Handle { from: u16, since: u64, reused: u64 },
    /// A same-machine RMI begun at `since` is done.
    Local { since: u64, scope: &'a SiteMetrics },
    /// The reply will never arrive: `peer` is gone. Flight ring only.
    Fail { peer: u16 },
    /// The serving driver measured a latency (µs, in place of `bytes`)
    /// over its SLO for a call served by `server`. Flight ring only.
    Slo { server: u16 },
}

/// Write a flight dump into `$CORM_FLIGHT_DIR` (if set) under a unique
/// name. CI points this at its artifact directory; locally it is unset
/// and dumps stay in [`RunOutcome::flight`] only.
pub fn write_flight_artifact(dump: &FlightDump) {
    let Ok(dir) = std::env::var("CORM_FLIGHT_DIR") else { return };
    if dir.is_empty() {
        return;
    }
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Relaxed);
    let path = format!("{dir}/flight-{}-{n}-{}.json", std::process::id(), dump.reason);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(&path, render_flight_json(dump));
}

/// Dumps the flight recorder if the thread running `run_program` unwinds
/// (assertion failure inside the VM, interpreter bug, ...): the dump is
/// written to `$CORM_FLIGHT_DIR` and, as a last resort, summarized on
/// stderr. Worker-thread panics surface as run errors and are handled by
/// the normal end-of-run classification instead.
struct PanicFlightGuard {
    rt: Arc<Runtime>,
}

impl Drop for PanicFlightGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let dump = self.rt.flight_dump("panic");
            eprintln!("corm: panic with {} flight-recorder event(s) buffered", dump.total_events());
            write_flight_artifact(&dump);
        }
    }
}

/// Result of one cluster run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Captured `System.println` output.
    pub output: String,
    /// Real wall-clock duration of the run (main + spawned work).
    pub wall: Duration,
    /// Modeled wire + allocation time (Myrinet cost model).
    pub modeled: Duration,
    /// RMI statistics (Tables 4/6/8 raw counters), summed over the
    /// per-machine shards.
    pub stats: StatsSnapshot,
    /// Full per-machine / per-call-site metrics (counters + latency and
    /// payload histograms).
    pub metrics: MetricsSnapshot,
    /// Heap statistics summed over all machines (`peak_live_bytes` too: the
    /// machines' peaks, whenever each was reached).
    pub heap: HeapStats,
    /// Error raised by `main`, if any.
    pub error: Option<VmError>,
    /// RMI event trace (empty unless [`RunOptions::trace`] was set).
    pub trace: Vec<TraceEvent>,
    /// Which backend carried the packets.
    pub transport: TransportKind,
    /// Measured in-flight wire time summed over machines. Always zero on
    /// the channel backend; on TCP this is the first *real* (not
    /// modeled) network number in the report.
    pub measured_wire: Duration,
    /// Per-machine measured wire nanoseconds, indexed by the receiving
    /// machine.
    pub measured_wire_ns: Vec<u64>,
    /// Analysis-auditor activity (all zero unless [`RunOptions::audit`]).
    pub audit: AuditSnapshot,
    /// Flight-recorder dump: reason `"ok"` on a clean run, otherwise
    /// `"audit-mismatch"`, `"peer-gone"` or `"error"` with the buffered
    /// events and failed request ids. Render with
    /// `corm_obs::render_flight_json`.
    pub flight: FlightDump,
    /// Timeline of the run: per-machine sampled metrics plus health
    /// findings (empty when [`RunOptions::timeline_interval_us`] is 0).
    /// Render with `corm_obs::render_timeline_json`.
    pub timeline: TimelineDoc,
}

impl RunOutcome {
    /// "seconds" in the sense of the paper's tables: real execution time
    /// plus the modeled time of wire transit and allocation cost that the
    /// simulated cluster does not pay for real.
    pub fn modeled_seconds(&self) -> f64 {
        self.wall.as_secs_f64() + self.modeled.as_secs_f64()
    }
}

/// A booted cluster whose service threads are live but whose `main` has
/// not run: the runtime, drain loops and worker pools of a program run,
/// decoupled from *what* drives them. [`run_program`] is
/// `start → clinits + main → finish`; the open-loop serving driver
/// ([`crate::serve`]) instead issues RMIs directly between `start` and
/// `finish`.
pub struct Cluster {
    pub rt: Arc<Runtime>,
    services: Vec<std::thread::JoinHandle<()>>,
    transport: TransportKind,
    /// When bring-up was done (µs): `RunOutcome::wall` counts from here.
    up_us: u64,
    /// Dumps the flight recorder if the driving thread unwinds.
    _panic_guard: PanicFlightGuard,
}

impl Cluster {
    /// Bring up the simulated cluster: transport, machines, one drain
    /// loop plus a worker pool per machine. Static initializers have NOT
    /// run yet — call [`Cluster::run_clinits`] before issuing work.
    pub fn start(module: Arc<Module>, plans: Arc<Plans>, opts: &RunOptions) -> Cluster {
        // The one epoch, taken before anything that can record: runtime,
        // flight recorder and (through it) sampler count from it, so the
        // trace, flight dump and timeline of a run share a zero point.
        let start = Instant::now();
        let obs = Arc::new(MetricsRegistry::new(opts.machines));
        // The flight recorder exists before the fabric so the lossy
        // backend can land its retransmit / dup-suppression events in
        // the same rings the VM dumps on failure.
        let flight = Arc::new(FlightRecorder::new(opts.machines, opts.flight_capacity, start));
        let (mailboxes, net) = NetHandle::with_kind_config(
            opts.transport,
            opts.machines,
            CostModel::default(),
            obs.clone(),
            opts.loss,
            Some(flight.clone()),
        )
        .unwrap_or_else(|e| panic!("cannot bring up {} transport: {e}", opts.transport));
        let static_defaults = crate::machine::MachineState::static_defaults(&module.table);
        let machines: Vec<Arc<MachineShared>> = (0..opts.machines)
            .map(|i| Arc::new(MachineShared::with_statics(i as u16, static_defaults.clone())))
            .collect();
        if opts.audit {
            machines.iter().for_each(|m| m.state.lock().heap.audit_stale_refs());
        }
        // A reply is completed where it is received (DESIGN §5.6): whichever
        // thread delivers it wakes the caller, and no drain thread forwards it.
        let tables = machines.clone();
        net.on_reply(Box::new(move |to, req, reply| {
            tables[to as usize].pending.complete(req, reply)
        }));

        let transport_code = match opts.transport {
            TransportKind::Channel => TRANSPORT_CHANNEL,
            TransportKind::Tcp => TRANSPORT_TCP,
            TransportKind::Reactor => TRANSPORT_REACTOR,
            TransportKind::Lossy => TRANSPORT_LOSSY,
        };
        // The sampler starts before any work is issued, so the first
        // tick is the run's baseline and the rings cover the whole run.
        let sampler = (opts.timeline_interval_us > 0).then(|| {
            let interval = Duration::from_micros(opts.timeline_interval_us);
            spawn_sampler(obs.clone(), flight.clone(), interval, transport_code)
        });

        let rt = Arc::new(Runtime {
            site_scopes: module.call_sites.iter().map(|_| OnceLock::new()).collect(),
            linked: link(&module),
            module,
            plans,
            obs: obs.clone(),
            net,
            machines,
            barrier: ClusterBarrier::new(opts.machines),
            args: opts.args.clone(),
            start,
            output: Mutex::new(String::new()),
            echo: opts.echo,
            spawned: Mutex::new(Vec::new()),
            trace: if opts.trace { Some(Mutex::new(Vec::new())) } else { None },
            audit: opts.audit,
            flight,
            flight_failed: Mutex::new(Vec::new()),
            transport_code,
            fault: opts.fault,
            fault_sends: std::sync::atomic::AtomicU64::new(0),
            stall: opts.stall,
            stall_count: std::sync::atomic::AtomicU64::new(0),
            pool: crate::pool::BufferPool::new(opts.machines, opts.audit),
            sampler,
        });
        let _panic_guard = PanicFlightGuard { rt: rt.clone() };
        let up_us = rt.now_us();

        // Service threads: one GM-style drain loop per machine plus a
        // small request worker pool.
        let mut services = Vec::new();
        for mailbox in mailboxes {
            let (work_tx, work_rx) = crossbeam::channel::unbounded::<WorkItem>();
            for _ in 0..opts.workers_per_machine.max(1) {
                let rt2 = rt.clone();
                let rx = work_rx.clone();
                let mid = mailbox.machine();
                services.push(spawn_vm_thread("corm-worker", move || {
                    // One `Interp` for the worker's life, lent to each request.
                    let mut interp = Interp::new(rt2, mid);
                    while let Ok(item) = rx.recv() {
                        // Close the queue-depth gauge the drain loop
                        // opened when it parked this request.
                        interp.rt.obs.machine(mid).serve_queue_depth.fetch_sub(1, Relaxed);
                        // A two-way request's failure went home in its reply.
                        let _ = rmi::serve_request(&mut interp, item);
                    }
                }));
            }
            let rt2 = rt.clone();
            services.push(spawn_vm_thread("corm-drain", move || {
                drain_loop(rt2, mailbox, work_tx);
            }));
        }

        Cluster { rt, services, transport: opts.transport, up_us, _panic_guard }
    }

    /// Static initializers: per machine, in declaration order (each
    /// machine owns its statics, as in one JVM per node).
    pub fn run_clinits(&self) -> Option<VmError> {
        let rt = &self.rt;
        for mid in 0..rt.machines.len() as u16 {
            for &f in &rt.module.clinits {
                let mut interp = Interp::new(rt.clone(), mid);
                if let Err(e) = interp.run_function(f, Vec::new()) {
                    return Some(e);
                }
            }
        }
        None
    }

    /// Drain user-spawned threads, shut the network down, join the
    /// service threads and fold everything into a [`RunOutcome`].
    pub fn finish(self, error: Option<VmError>) -> RunOutcome {
        let Cluster { rt, services, transport, up_us, _panic_guard } = self;

        // Join user-spawned threads (applications terminate their
        // workers).
        loop {
            let handle = rt.spawned.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }

        let wall = Duration::from_micros(rt.now_us() - up_us);

        // Shut the network down and join the service threads.
        for i in 0..rt.machines.len() {
            rt.net.send(i as u16, i as u16, Packet::Shutdown);
        }
        for s in services {
            let _ = s.join();
        }
        // Tear the backend down (joins TCP reader threads; no-op on
        // channel) so measured wire time is final and nothing outlives
        // the run.
        rt.net.shutdown();
        // Stop the timeline sampler once the cluster is quiet: its final
        // forced tick lands here, so the rings' delta totals equal the
        // final counters and the snapshot below sees a finished timeline.
        if let Some(s) = &rt.sampler {
            s.stop_and_join();
        }
        let measured_wire_ns = rt.net.measured_wire_ns_per_machine();
        let measured_wire = Duration::from_nanos(measured_wire_ns.iter().sum());

        // Aggregate heap statistics and modeled allocation cost. Each
        // machine's deserialization allocations land in its own shard, so
        // per-machine metrics attribute them to the heap that paid them.
        let mut heap = HeapStats::default();
        for m in &rt.machines {
            let st = m.state.lock();
            let hs = st.heap.stats;
            heap.allocs += hs.allocs;
            heap.alloc_bytes += hs.alloc_bytes;
            heap.deser_allocs += hs.deser_allocs;
            heap.deser_bytes += hs.deser_bytes;
            heap.freed += hs.freed;
            heap.freed_bytes += hs.freed_bytes;
            heap.gc_runs += hs.gc_runs;
            heap.peak_live_bytes += hs.peak_live_bytes;
            let shard = &rt.obs.machine(m.id).stats;
            RmiStats::bump(&shard.deser_bytes, hs.deser_bytes);
            RmiStats::bump(&shard.deser_allocs, hs.deser_allocs);
        }
        // Modeled managed-runtime overhead: dynamic serializer dispatch,
        // cycle-table lookups and deserialization allocations all
        // executed at native-Rust speed here, but cost real time on the
        // paper's Manta/JVM substrate. The per-op costs are calibrated
        // from the paper's own table deltas (see `corm_net::CostModel`);
        // this is what makes the three optimizations' gains visible at
        // the paper's magnitudes.
        let snap = rt.obs.cluster_snapshot();
        rt.net.add_modeled_ns(rt.net.cost.runtime_ns(
            snap.ser_invocations,
            snap.cycle_lookups,
            heap.deser_allocs,
        ));

        let modeled = Duration::from_nanos(rt.net.modeled_ns());
        let output = rt.output.lock().clone();
        let trace = rt.trace.as_ref().map(|t| t.lock().clone()).unwrap_or_default();

        // Classify the run for the flight recorder and persist a dump on
        // any failure (CI collects `$CORM_FLIGHT_DIR` as artifacts).
        let reason = match &error {
            Some(e) if e.message.contains(corm_codegen::AUDIT_ERROR_PREFIX) => "audit-mismatch",
            _ if !rt.flight_failed.lock().is_empty() => "peer-gone",
            Some(_) => "error",
            None => "ok",
        };
        let flight = rt.flight_dump(reason);
        if reason != "ok" {
            write_flight_artifact(&flight);
        }

        let metrics = rt.obs.snapshot();
        let mut audit = AuditSnapshot { enabled: rt.audit, ..AuditSnapshot::default() };
        for m in &metrics.machines {
            audit.shadow_tables += m.audit_tables;
            audit.shadow_checks += m.audit_checks;
            audit.poisoned_values += m.audit_poisons;
        }

        RunOutcome {
            output,
            wall,
            modeled,
            stats: rt.obs.cluster_snapshot(),
            metrics,
            heap,
            error,
            trace,
            transport,
            measured_wire,
            measured_wire_ns,
            audit,
            flight,
            timeline: if rt.sampler.is_some() {
                rt.obs.timeline().doc()
            } else {
                TimelineDoc::default()
            },
        }
    }
}

/// Execute `module` (compiled into `plans`) on a simulated cluster.
pub fn run_program(module: Arc<Module>, plans: Arc<Plans>, opts: RunOptions) -> RunOutcome {
    let cluster = Cluster::start(module, plans, &opts);

    // main() runs on machine 0, after every machine's statics.
    let error = match cluster.run_clinits() {
        Some(e) => Some(e),
        None => {
            let main = cluster.rt.module.main;
            let mut interp = Interp::new(cluster.rt.clone(), 0);
            interp.run_function(main, Vec::new()).err()
        }
    };

    cluster.finish(error)
}

/// Spawn a VM thread with a large stack: recursive serializer programs
/// and deep MiniParty recursion both consume host stack.
pub(crate) fn spawn_vm_thread(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(32 * 1024 * 1024)
        .spawn(f)
        .expect("spawn VM thread")
}

/// Run `body` on a VM thread of its own, with an `Interp` of its own on
/// `machine`: a `spawn`'s thread, whichever side of a call starts it. Nobody
/// waits for it, so its failure is printed; [`Cluster::finish`] joins it.
pub(crate) fn spawn_detached(
    rt: &Arc<Runtime>,
    machine: u16,
    (name, what): (&str, &'static str),
    body: impl FnOnce(&mut Interp) -> VmResult<()> + Send + 'static,
) {
    let rt2 = rt.clone();
    let handle = spawn_vm_thread(name, move || {
        let mut interp = Interp::new(rt2, machine);
        if let Err(e) = body(&mut interp) {
            interp.rt.print(&format!("[machine {machine}] {what} failed: {e}\n"));
        }
    });
    rt.spawned.lock().push(handle);
}

/// Fail the calls of machine `my` that wait on `peer` (on anyone, for
/// `None`) — an orderly remote error in place of silent quiescence. Each
/// gets a `Fail` flight event and is remembered for the end-of-run dump.
fn fail_calls(rt: &Runtime, my: u16, peer: Option<u16>, why: &str) {
    let failed = rt.machine(my).pending.fail(peer, why);
    for &req in &failed {
        rt.call(my, req, 0).milestone(0, Milestone::Fail { peer: peer.unwrap_or(u16::MAX) });
    }
    rt.flight_failed.lock().extend(failed);
}

/// One request on its way from the drain loop to whoever serves it: its
/// `Packet::Request`, plus the stamp at which the drain loop opened its
/// queue phase (host-side only; the wire format does not know it).
pub(crate) struct WorkItem {
    pub req: u64,
    pub from: u16,
    pub site: u32,
    pub target_obj: u32,
    pub payload: Vec<u8>,
    pub oneway: bool,
    pub enq_us: u64,
}

/// The per-machine receive loop: exactly one drainer per machine, as in
/// the paper's modified GM layer. A two-way request whose callee cannot
/// block is served right here, as Manta serves one in the communication
/// upcall; the others go to the worker pool, one-way spawns to a thread of
/// their own; `NewRemote` allocations are served inline. The fabric
/// completes replies where they arrive (`Cluster::start`), so the `Reply`
/// arm is only what a fabric without a reply handler would need. The thread
/// waits only on its mailbox and the machine lock, so the
/// handlers it serves run to completion in arrival order (DESIGN §5.7).
fn drain_loop(rt: Arc<Runtime>, mailbox: Mailbox, work_tx: crossbeam::channel::Sender<WorkItem>) {
    let my = mailbox.machine();
    // One `Interp` for the thread's life, as a worker has, marked so that a
    // wait reached on it is an audit error instead of a stalled machine.
    let mut interp = Interp::new(rt.clone(), my);
    interp.on_drain = true;
    loop {
        let packet = match mailbox.recv() {
            Ok(p) => p,
            Err(RecvError::Disconnected) => {
                // The fabric is gone (not an orderly Shutdown packet):
                // no reply can ever arrive, so fail every waiter.
                fail_calls(&rt, my, None, "transport disconnected");
                break;
            }
        };
        match packet {
            Packet::Shutdown => break,
            Packet::PeerGone { peer } => fail_calls(&rt, my, Some(peer), &peer_gone(peer)),
            Packet::Reply { req_id, payload, err } => {
                rt.machine(my).pending.complete(req_id, err.map_or(Ok(payload), Err));
            }
            // The reply is routed by `from`, and the fabric indexes its
            // tables by it: a sender that is no machine gets no answer.
            Packet::NewRemote { from, .. } | Packet::Request { from, .. }
                if from as usize >= rt.machines.len() =>
            {
                let n = rt.machines.len();
                rt.print(&format!("[machine {my}] dropped a request from machine {from} of {n}\n"));
            }
            Packet::NewRemote { req_id, from, class } => {
                rt.instant(my, TraceKind::NewRemote { class, from });
                let (payload, err) = if class as usize >= rt.module.table.classes.len() {
                    (Vec::new(), Some(format!("unknown class id {class}")))
                } else {
                    let mut st = rt.machine(my).state.lock();
                    let obj = st.alloc_zeroed(&rt.module.table, corm_ir::ClassId(class));
                    st.heap.pin(obj); // exported — lives as long as the run
                    (obj.0.to_le_bytes().to_vec(), None)
                };
                rt.net.send(my, from, Packet::Reply { req_id, payload, err });
            }
            Packet::Request { req_id: req, from, site, target_obj, payload, oneway } => {
                // Queue phase opens the moment the drainer has the
                // request; the worker (or spawned thread) closes it when
                // it picks the request up.
                let enq_us = rt.call(my, req, site).phase_begin(Phase::Queue);
                let item = WorkItem { req, from, site, target_obj, payload, oneway, enq_us };
                // The site's `serve.thread` verdict, read here and nowhere else.
                // With stall injection on, every request may block: the injected
                // sleep is a blocking operation no analysis sees.
                let on_drain = rt.stall.is_none()
                    && rt.plans.plan(CallSiteId(site)).is_some_and(|plan| plan.serve_on_drain);
                if oneway {
                    // Long-running spawned work gets its own thread so it
                    // cannot starve the request pool.
                    let thread = ("corm-spawn", "one-way request");
                    spawn_detached(&rt, my, thread, move |interp| rmi::serve_request(interp, item));
                } else if on_drain {
                    // The same item through the same function a worker runs: the
                    // queue phase closes at once. A failure went home in the reply.
                    let _ = rmi::serve_request(&mut interp, item);
                } else {
                    rt.obs.machine(my).serve_queue_depth.fetch_add(1, Relaxed);
                    let _ = work_tx.send(item);
                }
            }
        }
    }
}
