//! The seven workloads: what one repetition sets up, runs and checks.
//!
//! Every RMI workload is closed-loop — each caller waits for its reply before
//! it sends the next call — with the caller count stated per workload. A
//! repetition does a fixed number of operations on a fresh cluster, so the
//! heap trajectory and the call mix are the same run to run; how many
//! repetitions fit in `--seconds` is what varies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use corm::{
    OptConfig, RunOptions, RunOutcome, StatsSnapshot, TraceEvent, TraceKind, TransportKind, Value,
};
use corm_apps::{AppSpec, ARRAY2D, LINKED_LIST, LU, SUPEROPT, WEBSERVER};
use corm_vm::Runtime;

use crate::gen::{self, BulkCall, Site as BulkSite, SIZE_CLASSES, VARIANTS};
use crate::service::{compile_service, Caller, Session, Site, Sites};
use crate::traced::{attribute, PhaseSums};

/// Host stack of the harness's caller threads; VM threads get the same.
const STACK_BYTES: usize = 32 * 1024 * 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ping,
    Bulk,
    Serve,
    Apps,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    config: OptConfig,
    pub transport: TransportKind,
    machines: usize,
    callers: usize,
    /// Timed operations per repetition.
    pub count: usize,
    /// Untimed calls before the window, on the same path.
    warmup: usize,
}

/// Pages each server of `serve_sat` holds a share of.
const SERVE_PAGES: usize = 64;
const PAGE_INTS: i32 = 256;

/// Program arguments of the two timed apps (`lu`: n, seed; `superopt`: max
/// length, registers, opcodes, trials, seed). The seed slot is overwritten.
const LU_ARGS: [i64; 2] = [64, 0];
const SUPEROPT_ARGS: [i64; 5] = [2, 3, 6, 4, 0];

pub fn workload(name: &str) -> Option<Workload> {
    use TransportKind::{Channel, Reactor, Tcp};
    let name = crate::spec::workload_names().find(|n| *n == name)?;
    let w = |kind, config, transport, machines, callers, count, warmup| Workload {
        name,
        kind,
        config,
        transport,
        machines,
        callers,
        count,
        warmup,
    };
    Some(match name {
        "ping_channel" => w(Kind::Ping, OptConfig::ALL, Channel, 2, 1, 50_000, 2_000),
        "ping_tcp" => w(Kind::Ping, OptConfig::ALL, Tcp, 2, 1, 25_000, 2_000),
        "ping_reactor" => w(Kind::Ping, OptConfig::ALL, Reactor, 2, 1, 15_000, 2_000),
        "bulk_reuse" => w(Kind::Bulk, OptConfig::ALL, Channel, 2, 1, 12_000, 400),
        "bulk_class" => w(Kind::Bulk, OptConfig::CLASS, Channel, 2, 1, 6_000, 400),
        "serve_sat" => w(Kind::Serve, OptConfig::ALL, Channel, 3, 2, 48_000, 2_048),
        // count = complete rounds (one lu run + one superopt run) per repetition
        "apps" => w(Kind::Apps, OptConfig::ALL, Channel, 2, 1, 4, 0),
        _ => unreachable!("{name} is in the spec and has no definition"),
    })
}

/// How the program's own instruments are set for a repetition.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    /// Flight recorder and timeline sampler at their defaults, tracing off:
    /// what every end-to-end number is measured with.
    Default,
    /// `RunOptions::trace` on, the rest at defaults.
    Traced,
    /// Flight recorder and timeline sampler off (`obs.overhead_share`).
    Off,
}

impl Obs {
    fn options(self, w: &Workload) -> RunOptions {
        let mut o = RunOptions {
            machines: w.machines,
            transport: w.transport,
            trace: self == Obs::Traced,
            ..RunOptions::default()
        };
        if self == Obs::Off {
            o.flight_capacity = 0;
            o.timeline_interval_us = 0;
        }
        o
    }
}

/// Counters read on both sides of the timed window; reported as differences.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub deser_allocs: u64,
    pub deser_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub measured_wire_ns: u64,
}

impl Counters {
    fn read(rt: &Runtime) -> Counters {
        let mut c = Counters { stats: rt.obs.cluster_snapshot(), ..Counters::default() };
        for m in &rt.machines {
            let heap = m.state.lock().heap.stats;
            c.deser_allocs += heap.deser_allocs;
            c.deser_bytes += heap.deser_bytes;
            let shard = rt.obs.machine(m.id);
            c.pool_hits += shard.pool_hits.load(Relaxed);
            c.pool_misses += shard.pool_misses.load(Relaxed);
        }
        c.measured_wire_ns = rt.net.measured_wire_ns_per_machine().iter().sum();
        c
    }

    fn of_outcome(o: &RunOutcome) -> Counters {
        Counters {
            stats: o.stats,
            deser_allocs: o.heap.deser_allocs,
            deser_bytes: o.heap.deser_bytes,
            pool_hits: o.metrics.machines.iter().map(|m| m.pool_hits).sum(),
            pool_misses: o.metrics.machines.iter().map(|m| m.pool_misses).sum(),
            measured_wire_ns: o.measured_wire_ns.iter().sum(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            stats: self.stats - before.stats,
            deser_allocs: self.deser_allocs - before.deser_allocs,
            deser_bytes: self.deser_bytes - before.deser_bytes,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            measured_wire_ns: self.measured_wire_ns - before.measured_wire_ns,
        }
    }

    pub fn add(&mut self, o: Counters) {
        self.stats = self.stats + o.stats;
        self.deser_allocs += o.deser_allocs;
        self.deser_bytes += o.deser_bytes;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.measured_wire_ns += o.measured_wire_ns;
    }
}

/// What one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    /// Caller-side latency of every timed operation, ascending, ns.
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Over the timed window.
    pub counters: Counters,
    /// RMIs in the window: the operations themselves, or for `apps` the RMIs
    /// the programs made.
    pub rmis: u64,
    /// Traced repetitions only: phase time under the window's root spans,
    /// and the program's trace stream of the (last) run for `--trace-out`.
    pub phases: PhaseSums,
    pub trace: Vec<TraceEvent>,
}

impl Rep {
    pub fn calls_per_s(&self) -> f64 {
        self.lat_ns.len() as f64 / self.window_s
    }
}

pub fn run_rep(w: &Workload, seed: u64, count: usize, obs: Obs) -> Rep {
    match w.kind {
        Kind::Apps => apps_rep(w, seed, count, obs),
        _ => rmi_rep(w, seed, count, obs),
    }
}

// ----- RMI workloads ---------------------------------------------------------

/// One call and what it must return.
enum Op {
    Ping { svc: Value, x: i32 },
    Sum { svc: Value, site: Site, arg: Value, probe: i32, expect: i64 },
    Page { svc: Value, url: Value, pg: i32, len: usize },
}

/// Make the call, time it on the caller's clock and check what came back:
/// `(correct, request id, ns)`.
fn exec(caller: &mut Caller, sites: &Sites, op: &Op) -> (bool, u64, u64) {
    let (site, args, nargs) = match *op {
        Op::Ping { svc, x } => (sites.ping, [svc, Value::Int(x), Value::Null], 2),
        Op::Sum { svc, site, arg, probe, .. } => (site, [svc, arg, Value::Int(probe)], 3),
        Op::Page { svc, url, .. } => (sites.get_page, [svc, url, Value::Null], 2),
    };
    let t = Instant::now();
    caller.call_then(site, &args[..nargs], |heap, r| {
        let ns = t.elapsed().as_nanos() as u64;
        let Ok((ret, req)) = r else { return (false, 0, ns) };
        let ok = match *op {
            Op::Ping { x, .. } => ret == Value::Int(x + 1),
            Op::Sum { expect, .. } => ret == Value::Long(expect),
            Op::Page { pg, len, .. } => sites.page_is(heap, ret, pg, len),
        };
        (ok, req, ns)
    })
}

struct Driven {
    lat_ns: Vec<u64>,
    failed: u64,
    roots: HashMap<u64, u64>,
}

/// Run `ops` from `callers` closed-loop threads on machine 0, each taking
/// the next operation when its previous one has returned.
fn drive(rt: &Arc<Runtime>, sites: &Sites, ops: &[Op], callers: usize, keep_roots: bool) -> Driven {
    let next = AtomicUsize::new(0);
    let parts: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                std::thread::Builder::new()
                    .name("bench-caller".into())
                    .stack_size(STACK_BYTES)
                    .spawn_scoped(s, || {
                        let mut caller = Caller::new(rt, *sites);
                        let mut d = Driven {
                            lat_ns: Vec::with_capacity(ops.len() / callers + 1),
                            failed: 0,
                            roots: HashMap::new(),
                        };
                        loop {
                            let k = next.fetch_add(1, Relaxed);
                            let Some(op) = ops.get(k) else { break };
                            let (ok, req, ns) = exec(&mut caller, sites, op);
                            d.lat_ns.push(ns);
                            d.failed += !ok as u64;
                            if keep_roots && ok {
                                d.roots.insert(req, ns);
                            }
                        }
                        d
                    })
                    .expect("spawn caller thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let mut all =
        Driven { lat_ns: Vec::with_capacity(ops.len()), failed: 0, roots: HashMap::new() };
    for p in parts {
        all.lat_ns.extend(p.lat_ns);
        all.failed += p.failed;
        all.roots.extend(p.roots);
    }
    all
}

/// Build one of the bulk argument graphs on machine 0 from `vals`
/// (`Build.list` / `mat` / `tree` of `service.mp`).
pub fn build_graph(caller: &mut Caller, sites: &Sites, site: BulkSite, vals: &[i32]) -> Value {
    let (func, extra) = match site {
        BulkSite::List => (sites.build_list, None),
        BulkSite::Mat => (sites.build_mat, Some(vals.len().isqrt() as i32)),
        BulkSite::Tree => (sites.build_tree, Some(0)),
        BulkSite::Page => unreachable!("pages are built by the service"),
    };
    let mut args = vec![caller.int_array(vals)];
    args.extend(extra.map(Value::Int));
    caller.run(func, args).expect("build argument graph")
}

/// Servers and inputs of one repetition: the warm-up calls and the timed
/// ones, drawn from different streams of the same kind.
struct Inputs {
    servers: Vec<Value>,
    warm: Vec<Op>,
    timed: Vec<Op>,
}

fn prepare(w: &Workload, seed: u64, count: usize, caller: &mut Caller, sites: &Sites) -> Inputs {
    let warm_seed = seed ^ 0x57A7;
    match w.kind {
        Kind::Ping => {
            let svc = caller.new_service(1, 1, 1, false, 0, 1).expect("start ping service");
            let ops = |seed, n| gen::ping_args(seed, n).into_iter().map(|x| Op::Ping { svc, x });
            Inputs {
                servers: vec![svc],
                warm: ops(warm_seed, w.warmup).collect(),
                timed: ops(seed, count).collect(),
            }
        }
        Kind::Bulk => {
            let npages = SIZE_CLASSES * VARIANTS;
            let svc = caller
                .new_service(1, npages as i32, PAGE_INTS, true, 0, 1)
                .expect("start bulk service");
            let mut graphs: HashMap<(BulkSite, u8, u8), (Value, Vec<i32>)> = HashMap::new();
            for site in [BulkSite::List, BulkSite::Mat, BulkSite::Tree] {
                for class in 0..SIZE_CLASSES as u8 {
                    for variant in 0..VARIANTS as u8 {
                        let vals = gen::graph_values(seed, site, class, variant);
                        let graph = build_graph(caller, sites, site, &vals);
                        graphs.insert((site, class, variant), (graph, vals));
                    }
                }
            }
            let urls: Vec<Value> =
                (0..npages).map(|pg| caller.string(format!("/page/{}", 100 + pg))).collect();
            let op = |c: BulkCall| match c.site {
                BulkSite::Page => {
                    // service.mp sizes page pg by pg % 3: 0 → 3/4, 1 → 4/4, 2 → 5/4
                    let rem = [1, 0, 2][c.class as usize];
                    let pg = rem + 3 * c.variant as usize;
                    let len = gen::graph_len(BulkSite::Page, c.class);
                    Op::Page { svc, url: urls[pg], pg: pg as i32, len }
                }
                site => {
                    let (arg, vals) = &graphs[&(site, c.class, c.variant)];
                    let (probe, expect) =
                        gen::probe_and_digest(&c, gen::graph_len(site, c.class), vals);
                    let site = match site {
                        BulkSite::List => sites.sum_list,
                        BulkSite::Mat => sites.sum_mat,
                        _ => sites.sum_tree,
                    };
                    Op::Sum { svc, site, arg: *arg, probe, expect }
                }
            };
            let ops = |seed, n| gen::bulk_stream(seed, n).into_iter().map(op).collect();
            Inputs { servers: vec![svc], warm: ops(warm_seed, w.warmup), timed: ops(seed, count) }
        }
        Kind::Serve => {
            let nslaves = w.machines - 1;
            let svcs: Vec<Value> = (0..nslaves)
                .map(|s| {
                    caller
                        .new_service(
                            s as u16 + 1,
                            SERVE_PAGES as i32,
                            PAGE_INTS,
                            false,
                            s as i32,
                            nslaves as i32,
                        )
                        .expect("start page server")
                })
                .collect();
            let urls: Vec<Value> =
                (0..SERVE_PAGES).map(|pg| caller.string(format!("/page/{}", 100 + pg))).collect();
            let op = |pg: u32| {
                let pg = pg as usize;
                Op::Page {
                    svc: svcs[pg % nslaves],
                    url: urls[pg],
                    pg: pg as i32,
                    len: PAGE_INTS as usize,
                }
            };
            let ops =
                |seed, n| gen::page_stream(seed, n, SERVE_PAGES).into_iter().map(op).collect();
            Inputs { warm: ops(warm_seed, w.warmup), timed: ops(seed, count), servers: svcs }
        }
        Kind::Apps => unreachable!("apps has no call stream"),
    }
}

fn rmi_rep(w: &Workload, seed: u64, count: usize, obs: Obs) -> Rep {
    let t_setup = Instant::now();
    let compiled = compile_service(w.config);
    let session = Session::start(&compiled, &obs.options(w)).expect("start cluster");
    let rt = session.rt().clone();
    let sites = session.sites;
    let mut caller = Caller::new(&rt, sites);
    let inputs = prepare(w, seed, count, &mut caller, &sites);
    let warm = drive(&rt, &sites, &inputs.warm, w.callers, false);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = Counters::read(&rt);
    let t0 = Instant::now();
    let mut timed = drive(&rt, &sites, &inputs.timed, w.callers, obs == Obs::Traced);
    let window_s = t0.elapsed().as_secs_f64();
    let counters = Counters::read(&rt).since(before);

    // Every getPage that returned a page was counted by the server it hit.
    let ops = || inputs.warm.iter().chain(&inputs.timed);
    let pages = ops().filter(|op| matches!(op, Op::Page { .. })).count() as i64;
    let hits: i64 = inputs
        .servers
        .iter()
        .map(|&svc| match caller.call(sites.hit_count, &[svc]) {
            Ok((Value::Long(n), _)) => n,
            _ => -1,
        })
        .sum();
    let attempted = ops().count() as u64 + 1;
    let mut failed = warm.failed + timed.failed + (hits != pages) as u64;
    drop(caller);
    let outcome = session.finish();
    failed += outcome.error.is_some() as u64;

    timed.lat_ns.sort_unstable();
    Rep {
        setup_s,
        window_s,
        rmis: timed.lat_ns.len() as u64,
        lat_ns: timed.lat_ns,
        attempted,
        failed,
        counters,
        phases: attribute(&outcome.trace, &timed.roots),
        trace: outcome.trace,
    }
}

// ----- apps ------------------------------------------------------------------

fn with_seed(args: &[i64], seed: u64) -> Vec<i64> {
    let mut a = args.to_vec();
    *a.last_mut().expect("app args") = (seed & 0x7FFF_FFFF) as i64;
    a
}

/// Run `spec` once and compare its output with the oracle's, bit for bit.
fn run_app(
    spec: &AppSpec,
    compiled: &corm::Compiled,
    args: &[i64],
    expect: &str,
    opts: RunOptions,
) -> (bool, RunOutcome) {
    let out =
        corm::run(compiled, RunOptions { machines: spec.machines, args: args.to_vec(), ..opts });
    (out.error.is_none() && out.output == expect, out)
}

fn apps_rep(w: &Workload, seed: u64, rounds: usize, obs: Obs) -> Rep {
    let opts = obs.options(w);
    // Set-up: compile all five programs, run the three small ones once for
    // the check, and have the oracle produce what the timed two must print.
    let t_setup = Instant::now();
    let mut attempted = 0;
    let mut failed = 0;
    for spec in [LINKED_LIST, ARRAY2D, WEBSERVER] {
        let compiled = spec.compile(w.config);
        let expect = spec.expected_output(spec.quick_args, spec.machines);
        let (ok, _) = run_app(&spec, &compiled, spec.quick_args, &expect, opts.clone());
        attempted += 1;
        failed += !ok as u64;
    }
    let timed: Vec<_> = [(LU, &LU_ARGS[..]), (SUPEROPT, &SUPEROPT_ARGS[..])]
        .into_iter()
        .map(|(spec, args)| {
            let args = with_seed(args, seed);
            let expect = spec.expected_output(&args, spec.machines);
            (spec, spec.compile(w.config), args, expect)
        })
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut rep = Rep {
        setup_s,
        window_s: 0.0,
        lat_ns: Vec::with_capacity(rounds),
        attempted,
        failed,
        counters: Counters::default(),
        rmis: 0,
        phases: PhaseSums::default(),
        trace: Vec::new(),
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        for (spec, compiled, args, expect) in &timed {
            let (ok, out) = run_app(spec, compiled, args, expect, opts.clone());
            rep.attempted += 1;
            rep.failed += !ok as u64;
            rep.counters.add(Counters::of_outcome(&out));
            rep.rmis += out.stats.remote_rpcs + out.stats.local_rpcs;
            // The programs make their own calls, so the root span of an RMI
            // is the caller-observed round trip the program's trace carries.
            if obs == Obs::Traced {
                let roots: HashMap<u64, u64> = out
                    .trace
                    .iter()
                    .filter_map(|e| match e.kind {
                        TraceKind::RmiReturn { req, us, .. } => Some((req, us * 1000)),
                        _ => None,
                    })
                    .collect();
                rep.phases.add(attribute(&out.trace, &roots));
                rep.trace = out.trace;
            }
        }
        rep.lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    rep.window_s = t0.elapsed().as_secs_f64();
    rep.lat_ns.sort_unstable();
    rep
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
