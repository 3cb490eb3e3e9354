//! Cluster assembly and program execution.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use corm_codegen::Plans;
use corm_heap::HeapStats;
use corm_ir::{CallSiteId, Module};
use corm_net::{CostModel, LossSpec, NetHandle, Packet, TransportKind};
use corm_obs::recorder::{FlightEvent, FlightKind, DEFAULT_FLIGHT_CAPACITY};
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
    /// Record an RMI event trace (see [`crate::trace`]).
    pub trace: bool,
    /// Which backend carries the packets: the in-process `channel`, the
    /// loopback-TCP mesh (`tcp`, or `reactor` on shared event loops), or
    /// the seeded `lossy` datagram fabric. Counters are identical on all
    /// four; all but `channel` also *measure* wire time.
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
    /// Timeline sampler cadence, µs (DESIGN §7.4). A background thread
    /// snapshots every machine's metrics at this interval into the
    /// registry's bounded rings. On by default; `0` disables sampling —
    /// that switch exists for `benchmark/`'s `obs.overhead_share` probe,
    /// not for production use.
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

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            machines: 2,
            args: Vec::new(),
            echo: false,
            trace: false,
            transport: TransportKind::default(),
            audit: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            fault: None,
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
    /// Backs the `Cluster.barrier()` builtin: exactly one thread per
    /// machine takes part (the paper's LU synchronizes its per-machine
    /// workers between phases this way).
    pub barrier: Barrier,
    pub args: Vec<i64>,
    /// The cluster epoch: the zero point of trace, flight and timeline
    /// timestamps (the flight recorder and the sampler hold copies).
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
    /// Fault injection, when requested (see [`FaultSpec`]).
    pub fault: Option<FaultSpec>,
    /// Count of wire requests sent toward the fault victim so far.
    pub fault_sends: std::sync::atomic::AtomicU64,
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

    /// Read the clock once and, with tracing on, log `kinds(t_us)` at that
    /// reading, in order. Clock read and sequence numbers happen *under the
    /// trace lock*, taken once, so `seq` and `t_us` order agree, and whatever
    /// else is fed from the returned stamp agrees with the trace to the
    /// microsecond.
    fn stamp<K>(&self, machine: u16, kinds: impl FnOnce(u64) -> K) -> u64
    where
        K: IntoIterator<Item = TraceKind>,
    {
        let Some(tr) = &self.trace else { return self.now_us() };
        let mut events = tr.lock();
        let t_us = self.now_us();
        for kind in kinds(t_us) {
            let seq = events.len() as u64;
            events.push(TraceEvent { t_us, seq, machine, kind });
        }
        t_us
    }

    /// Log a trace-only instant outside the RMI pipeline (a collection, a
    /// remote allocation); with tracing off it costs no clock read.
    pub fn instant(&self, machine: u16, kind: TraceKind) {
        if self.trace.is_some() {
            self.stamp(machine, |_| [kind]);
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
            transport: self.net.kind().label(),
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
    /// Stamp one boundary between adjacent steps of this half of the RMI
    /// (DESIGN §7.2): the clock is read once, and that reading is what every
    /// one of `marks` is stamped with — the phase that ends, the milestone
    /// at that point, the phase that begins. With tracing on they are logged
    /// in order under one acquisition of the trace lock, so a boundary's
    /// events have consecutive `seq`. A phase's histogram sample and its
    /// trace span come from the same two stamps, so the histogram sums equal
    /// the trace's phase report exactly. Returns the reading: the `t0` of a
    /// phase begun here, the `since` of a later milestone.
    pub fn boundary(&self, marks: &[Mark<'_>]) -> u64 {
        let Self { rt, at, .. } = *self;
        let t_us = rt.stamp(at, |t| marks.iter().flat_map(move |&m| self.traced(m, t)).flatten());
        let shard = rt.obs.machine(at);
        let hist = |phase| match phase {
            Phase::Marshal => &shard.marshal_us,
            Phase::Queue => &shard.queue_us,
            Phase::Unmarshal => &shard.unmarshal_us,
            Phase::Invoke => &shard.invoke_us,
        };
        for &mark in marks {
            match mark {
                Mark::Begin(_) => {}
                Mark::End(phase, t0) => hist(phase).record(t_us.saturating_sub(t0)),
                Mark::Empty(phase) => hist(phase).record(0),
                Mark::At(bytes, m) => self.landed(bytes, m, t_us),
            }
        }
        t_us
    }

    /// Milestone `m` reached at `t_us`: its flight event and, for a call's
    /// last milestone on its caller, its RTT samples.
    fn landed(&self, bytes: usize, m: Milestone<'_>, t_us: u64) {
        let Self { rt, at, req, site, flags } = *self;
        let (kind, peer, since, scope) = m.parts(at);
        if let Some(scope) = scope {
            let us = t_us.saturating_sub(since);
            rt.obs.machine(at).rtt_us.record(us);
            scope.rtt_us.record(us);
        }
        let bytes = bytes.min(u32::MAX as usize) as u32;
        rt.flight.record(at, FlightEvent { t_us, req, site, bytes, kind, peer, flags });
    }

    /// The trace events `mark` logs at stamp `t_us`: at most two.
    fn traced(&self, mark: Mark<'_>, t_us: u64) -> [Option<TraceKind>; 2] {
        use Milestone::*;
        let Self { req, site, .. } = *self;
        let begin = |phase| Some(TraceKind::PhaseBegin { phase, req, site });
        let end = |phase| Some(TraceKind::PhaseEnd { phase, req, site });
        let (bytes, m) = match mark {
            Mark::Begin(phase) => return [begin(phase), None],
            Mark::End(phase, _) => return [end(phase), None],
            Mark::Empty(phase) => return [begin(phase), end(phase)],
            Mark::At(bytes, m) => (bytes as u64, m),
        };
        let (.., since, _) = m.parts(self.at);
        let us = t_us.saturating_sub(since);
        let kind = match m {
            Send { to, oneway } => TraceKind::RmiSend { req, site, to, bytes, oneway },
            Return { .. } => TraceKind::RmiReturn { req, site, us, reply_bytes: bytes },
            Handle { reused, .. } => TraceKind::Handle { req, site, us, reused },
            Local { .. } => TraceKind::LocalRpc { req, site, us },
            Fail { .. } | Slo { .. } => return [None, None],
        };
        [Some(kind), None]
    }
}

/// One event at a boundary of an RMI half, stamped by [`CallCtx::boundary`].
#[derive(Clone, Copy)]
pub enum Mark<'a> {
    /// A phase begins.
    Begin(Phase),
    /// The phase begun at stamp `t0` ends: its span closes and its
    /// histogram gets the sample.
    End(Phase, u64),
    /// A phase that begins and ends at this stamp: the queue of a two-way
    /// request, which the thread that drained it serves.
    Empty(Phase),
    /// Milestone `m`, whose payload is `bytes` long.
    At(usize, Milestone<'a>),
}

/// A milestone of an RMI: one stamp feeds the flight ring, the trace log
/// and — for `Return` and `Local` — the RTT histograms. `since` is the
/// stamp a duration is measured from; `scope` is the call site's metrics,
/// resolved once per RMI by the caller.
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

impl<'a> Milestone<'a> {
    /// Its flight kind and peer, the stamp its duration runs from and, for
    /// a caller's milestone that ends the RMI, the site scope whose RTT it is.
    fn parts(self, at: u16) -> (FlightKind, u16, u64, Option<&'a SiteMetrics>) {
        use Milestone::*;
        match self {
            Send { to, .. } => (FlightKind::Send, to, 0, None),
            Return { from, since, scope } => (FlightKind::Return, from, since, Some(scope)),
            Handle { from, since, .. } => (FlightKind::Handle, from, since, None),
            Local { since, scope } => (FlightKind::Local, at, since, Some(scope)),
            Fail { peer } => (FlightKind::Fail, peer, 0, None),
            Slo { server } => (FlightKind::Slo, server, 0, None),
        }
    }
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
    /// Modeled wire time: the run's remote messages and bytes priced by
    /// the Myrinet [`CostModel`]. Nothing but the wire is modeled.
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
    /// Timeline of the run: per-machine sampled metrics (empty when
    /// [`RunOptions::timeline_interval_us`] is 0).
    /// Render with `corm_obs::render_timeline_json`.
    pub timeline: TimelineDoc,
}

impl RunOutcome {
    /// Real execution time plus the modeled time of the wire transit the
    /// simulated cluster does not pay for real.
    pub fn modeled_seconds(&self) -> f64 {
        self.wall.as_secs_f64() + self.modeled.as_secs_f64()
    }
}

/// A booted cluster whose drain threads are live but whose `main` has
/// not run: the runtime and receive sides of a program run,
/// decoupled from *what* drives them. [`run_program`] is
/// `start → clinits + main → finish`; the open-loop serving driver
/// ([`crate::serve()`]) instead issues RMIs directly between `start` and
/// `finish`.
pub struct Cluster {
    pub rt: Arc<Runtime>,
    transport: TransportKind,
    /// When bring-up was done (µs): `RunOutcome::wall` counts from here.
    up_us: u64,
    /// Dumps the flight recorder if the driving thread unwinds.
    _panic_guard: PanicFlightGuard,
}

impl Cluster {
    /// Bring up the simulated cluster: transport, machines and the first
    /// drain thread of each machine. Static initializers have NOT
    /// run yet — call [`Cluster::run_clinits`] before issuing work.
    pub fn start(module: Arc<Module>, plans: Arc<Plans>, opts: &RunOptions) -> Cluster {
        // The one epoch, taken before anything that can record: runtime,
        // flight recorder and sampler count from it, so the trace, flight
        // dump and timeline of a run share a zero point.
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

        // The sampler starts before any work is issued, so the first
        // tick is the run's baseline and the rings cover the whole run.
        let sampler = (opts.timeline_interval_us > 0).then(|| {
            spawn_sampler(obs.clone(), start, Duration::from_micros(opts.timeline_interval_us))
        });

        let rt = Arc::new(Runtime {
            site_scopes: module.call_sites.iter().map(|_| OnceLock::new()).collect(),
            linked: link(&module),
            module,
            plans,
            obs: obs.clone(),
            net,
            machines,
            barrier: Barrier::new(opts.machines),
            args: opts.args.clone(),
            start,
            output: Mutex::new(String::new()),
            echo: opts.echo,
            spawned: Mutex::new(Vec::new()),
            trace: if opts.trace { Some(Mutex::new(Vec::new())) } else { None },
            audit: opts.audit,
            flight,
            flight_failed: Mutex::new(Vec::new()),
            fault: opts.fault,
            fault_sends: std::sync::atomic::AtomicU64::new(0),
            pool: crate::pool::BufferPool::new(opts.machines, opts.audit),
            sampler,
        });
        let _panic_guard = PanicFlightGuard { rt: rt.clone() };
        let up_us = rt.now_us();

        // One GM-style drainer per machine (`crate::drain`).
        for mailbox in mailboxes {
            rt.machine(mailbox.machine()).drain.start(&rt, mailbox);
        }

        Cluster { rt, transport: opts.transport, up_us, _panic_guard }
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
    /// drain threads and fold everything into a [`RunOutcome`].
    pub fn finish(self, error: Option<VmError>) -> RunOutcome {
        let Cluster { rt, transport, up_us, _panic_guard } = self;

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

        // Shut the network down and join every drain thread, those a
        // handoff started mid-run too.
        for i in 0..rt.machines.len() {
            rt.net.send(i as u16, i as u16, Packet::Shutdown);
        }
        for m in &rt.machines {
            m.drain.join();
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

        // Aggregate heap statistics. Each machine's deserialization
        // allocations land in its own shard, so per-machine metrics
        // attribute them to the heap that paid them.
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

/// Spawn a VM thread with a large stack: deep MiniParty recursion consumes
/// host stack (the marshal engine's walks keep their levels on the heap).
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
