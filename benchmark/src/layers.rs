//! Layer probes: each layer of the path an RMI walks, measured alone from
//! outside through its public functions, on the inputs the workloads use.
//! A number is the median over batches of a per-operation mean, or, where a
//! thread is woken, the median of operations timed one by one.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use corm::{BufferPool, CostModel, Lane, LossSpec, MetricsRegistry, OptConfig, RunOptions, Value};
use corm_analysis::{analyze_module, AnalysisOptions};
use corm_codegen::{generate_plans, SerNode, Serializer};
use corm_heap::{Heap, ObjRef};
use corm_net::{NetHandle, Packet, TransportKind};
use corm_wire::{DeserTable, Message, RmiStats, SerCycleTable};

use crate::gen::{self, Site as BulkSite};
use crate::service::{compile_service, Caller, Session, SOURCE};
use crate::stats::median;
use crate::workloads::{build_graph, run_rep, workload, Obs};
use crate::Args;

/// Metric name → value.
pub type Metrics = HashMap<&'static str, f64>;

/// How much each probe measures: `batches` timed batches, operation counts
/// divided by `div`.
#[derive(Clone, Copy)]
struct Effort {
    batches: usize,
    div: usize,
}

impl Effort {
    /// Median over batches of the mean ns of one `f()`, `ops` calls a batch.
    fn ns_per_op(self, ops: usize, mut f: impl FnMut()) -> f64 {
        let ops = (ops / self.div).max(1);
        let mut per_batch = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let t = Instant::now();
            for _ in 0..ops {
                f();
            }
            per_batch.push(t.elapsed().as_nanos() as f64 / ops as f64);
        }
        median(&mut per_batch)
    }

    /// Median ns of one `f()`, every call timed on its own: for the probes a
    /// thread is woken in, whose rare long waits (a timer, a sweep) would lift
    /// a mean and are not what a median round trip is made of.
    fn median_ns(self, ops: usize, mut f: impl FnMut()) -> f64 {
        let ops = (ops / self.div).max(1) * self.batches;
        let mut each = Vec::with_capacity(ops);
        for _ in 0..ops {
            let t = Instant::now();
            f();
            each.push(t.elapsed().as_nanos() as f64);
        }
        median(&mut each)
    }
}

pub fn probe_all(args: &Args) -> Metrics {
    let e =
        if args.smoke { Effort { batches: 3, div: 20 } } else { Effort { batches: 30, div: 1 } };
    let mut m = HashMap::new();
    compiler(e, &mut m);
    engine(e, args.seed, &mut m);
    wire_and_heap(e, &mut m);
    packets(e, &mut m);
    handoffs(e, &mut m);
    hops(e, args.seed, &mut m);
    observability(args, &mut m);
    m
}

// ----- ir, analysis, codegen::plan ---------------------------------------------

/// Front end, analyses and plan generation over the five application sources
/// and the service program, and how often each optimisation applied.
fn compiler(e: Effort, m: &mut Metrics) {
    let sources: Vec<&str> =
        corm_apps::ALL_APPS.iter().map(|a| a.source).chain(std::iter::once(SOURCE)).collect();
    let options = |config: OptConfig| AnalysisOptions {
        cycle: corm_analysis::cycles::CycleOptions {
            assume_acyclic_self_lists: config.list_extension,
        },
    };
    let config = OptConfig::ALL;
    let (mut front, mut analysis, mut plan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut total, mut acyclic, mut reusable) = (0, 0, 0);
    for batch in 0..e.batches.min(10) {
        let (mut f, mut a, mut p) = (0.0, 0.0, 0.0);
        for src in &sources {
            let t0 = Instant::now();
            let module = corm_ir::compile_frontend(src).expect("benchmark sources compile");
            let t1 = Instant::now();
            let result = analyze_module(&module, options(config));
            let t2 = Instant::now();
            let plans = generate_plans(&module, &result, config);
            let t3 = Instant::now();
            f += (t1 - t0).as_secs_f64() * 1e6;
            a += (t2 - t1).as_secs_f64() * 1e6;
            p += (t3 - t2).as_secs_f64() * 1e6;
            if batch == 0 {
                for site in plans.sites.values() {
                    total += 1;
                    acyclic += (!site.args_cycle_table && !site.ret_cycle_table) as u32;
                    reusable += (site.ret_reuse || site.arg_reuse.iter().any(|&r| r)) as u32;
                }
            }
            black_box(plans);
        }
        front.push(f);
        analysis.push(a);
        plan.push(p);
    }
    m.insert("ir.frontend_us", median(&mut front));
    m.insert("analysis.analyze_us", median(&mut analysis));
    m.insert("codegen.plan_us", median(&mut plan));
    m.insert("analysis.sites_total", total as f64);
    m.insert("analysis.sites_acyclic", acyclic as f64);
    m.insert("analysis.sites_reusable", reusable as f64);
}

// ----- codegen::engine, vm::rmi local path, vm::interp ---------------------------

/// One of the bulk graphs with the serializer program its call site runs.
struct Subject<'a> {
    node: &'a SerNode,
    value: Value,
    cycle_table: bool,
}

/// Serialize / deserialize ns per byte over the four nominal bulk graphs.
fn engine_per_byte(e: Effort, config: OptConfig, seed: u64) -> (f64, f64, f64) {
    let compiled = compile_service(config);
    let opts = RunOptions { machines: 2, ..RunOptions::default() };
    let session = Session::start(&compiled, &opts).expect("start cluster");
    let sites = session.sites;
    let mut caller = Caller::new(session.rt(), sites);
    let svc = caller.new_service(1, 1, 256, false, 0, 1).expect("start service");

    let mut graph = |site: BulkSite| {
        build_graph(&mut caller, &sites, site, &gen::graph_values(seed, site, 0, 0))
    };
    let (list, mat, tree) = (graph(BulkSite::List), graph(BulkSite::Mat), graph(BulkSite::Tree));
    let url = caller.string("/page/100".into());
    let (page, _) = caller.call(sites.get_page, &[svc, url]).expect("getPage");

    let plan = |site: crate::service::Site| compiled.plans.plan(site.0).expect("planned site");
    let arg = |site, value| {
        let p = plan(site);
        Subject { node: &p.args[0], value, cycle_table: p.args_cycle_table }
    };
    let page_plan = plan(sites.get_page);
    let subjects = [
        arg(sites.sum_list, list),
        arg(sites.sum_mat, mat),
        arg(sites.sum_tree, tree),
        Subject {
            node: page_plan.ret.as_ref().expect("getPage returns"),
            value: page,
            cycle_table: page_plan.ret_cycle_table,
        },
    ];

    let stats = RmiStats::new();
    let ser = Serializer::new(&compiled.plans, &compiled.module.table, &stats);
    let machine = session.rt().machine(0).clone();
    let guard = machine.state.lock();
    let mut msgs: Vec<Message> =
        subjects.iter().map(|_| Message::with_capacity(16 * 1024)).collect();
    let ser_ns = e.ns_per_op(20, || {
        for (s, msg) in subjects.iter().zip(&mut msgs) {
            msg.reset();
            let mut ct = s.cycle_table.then(SerCycleTable::new);
            ser.serialize(&guard.heap, s.node, s.value, &mut ct, msg).expect("serialize");
        }
    });
    let bytes: usize = msgs.iter().map(Message::len).sum();

    let deser = |heap: &mut Heap, reuse: &mut [Value]| {
        for ((s, msg), slot) in subjects.iter().zip(&msgs).zip(reuse) {
            let mut dt = s.cycle_table.then(DeserTable::new);
            let out = ser
                .deserialize(heap, s.node, &mut msg.reader(), &mut dt, *slot)
                .expect("deserialize");
            *slot = out.value;
        }
    };
    // Fresh: nothing to recycle, every object allocated; a new heap per batch
    // keeps the garbage bounded.
    let mut fresh = Vec::new();
    for _ in 0..e.batches {
        let mut heap = Heap::new();
        let rounds = (20 / e.div).max(1);
        let t = Instant::now();
        for _ in 0..rounds {
            deser(&mut heap, &mut [Value::Null; 4]);
        }
        fresh.push(t.elapsed().as_nanos() as f64 / rounds as f64);
    }
    // Reuse: the previous call's graph is overwritten in place.
    let mut heap = Heap::new();
    let mut cached = [Value::Null; 4];
    deser(&mut heap, &mut cached);
    let reuse_ns = e.ns_per_op(20, || deser(&mut heap, &mut cached));
    drop(guard);
    drop(caller);
    session.finish();
    (ser_ns / bytes as f64, median(&mut fresh) / bytes as f64, reuse_ns / bytes as f64)
}

fn engine(e: Effort, seed: u64, m: &mut Metrics) {
    let (ser, fresh, reuse) = engine_per_byte(e, OptConfig::ALL, seed);
    m.insert("codegen.engine.ser_ns_per_byte.site", ser);
    m.insert("codegen.engine.deser_fresh_ns_per_byte.site", fresh);
    m.insert("codegen.engine.deser_reuse_ns_per_byte", reuse);
    let (ser, fresh, _) = engine_per_byte(e, OptConfig::CLASS, seed);
    m.insert("codegen.engine.ser_ns_per_byte.class", ser);
    m.insert("codegen.engine.deser_fresh_ns_per_byte.class", fresh);

    // Fixed per-call cost: ping's one int through its site plan.
    let compiled = compile_service(OptConfig::ALL);
    let session = Session::start(&compiled, &RunOptions::default()).expect("start cluster");
    let sites = session.sites;
    let node = &compiled.plans.plan(sites.ping.0).expect("ping planned").args[0];
    let stats = RmiStats::new();
    let ser = Serializer::new(&compiled.plans, &compiled.module.table, &stats);
    let mut heap = Heap::new();
    let mut msg = Message::with_capacity(64);
    m.insert(
        "codegen.engine.ser_call_ns",
        e.ns_per_op(20_000, || {
            msg.reset();
            ser.serialize(&heap, node, black_box(Value::Int(7)), &mut None, &mut msg)
                .expect("serialize");
        }),
    );
    m.insert(
        "codegen.engine.deser_call_ns",
        e.ns_per_op(20_000, || {
            let out = ser.deserialize(&mut heap, node, &mut msg.reader(), &mut None, Value::Null);
            black_box(out.expect("deserialize"));
        }),
    );

    // The same RMI to an object on the caller's own machine: request
    // bookkeeping, marshal, clone, invoke — and no hop.
    let mut caller = Caller::new(session.rt(), sites);
    let local = caller.new_service(0, 1, 1, false, 0, 1).expect("start local service");
    m.insert(
        "vm.rmi.local_rpc_ns",
        e.median_ns(5_000, || {
            black_box(caller.call(sites.ping, &[local, Value::Int(7)]).expect("local ping"));
        }),
    );
    // A compute-only MiniParty loop: no allocation, no RMI.
    const ITERS: i32 = 20_000;
    m.insert(
        "vm.interp.loop_iter_ns",
        e.ns_per_op(3, || {
            black_box(caller.run(sites.spin, vec![Value::Int(ITERS)]).expect("Build.spin"));
        }) / ITERS as f64,
    );
    drop(caller);
    session.finish();
}

// ----- wire, heap, vm::pool ---------------------------------------------------------

fn wire_and_heap(e: Effort, m: &mut Metrics) {
    const INTS: usize = 2048; // 8 KiB
    let ints = vec![7i32; INTS];
    let mut msg = Message::with_capacity(4 * INTS);
    m.insert(
        "wire.message.write_ns_per_byte",
        e.ns_per_op(200, || {
            msg.reset();
            msg.write_i32_slice(black_box(&ints));
        }) / (4 * INTS) as f64,
    );
    let mut out = vec![0i32; INTS];
    m.insert(
        "wire.message.read_ns_per_byte",
        e.ns_per_op(200, || {
            msg.reader().read_i32_into(black_box(&mut out)).expect("read back");
        }) / (4 * INTS) as f64,
    );

    // A message's worth of lookups: a fresh table, 256 distinct objects.
    const OBJS: u32 = 256;
    m.insert(
        "wire.cycle_table.lookup_ns",
        e.ns_per_op(100, || {
            let mut table = SerCycleTable::new();
            for i in 0..OBJS {
                let _ = black_box(table.check(ObjRef(i)));
            }
        }) / OBJS as f64,
    );

    // Allocate list-node-sized objects, then collect them all.
    const ALLOCS: usize = 20_000;
    let class = crate::service::resolve(&compile_service(OptConfig::ALL)).node_class;
    let n = (ALLOCS / e.div).max(1);
    let (mut alloc, mut gc) = (Vec::new(), Vec::new());
    for _ in 0..e.batches {
        let mut heap = Heap::new();
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(heap.alloc_obj(class, 2));
        }
        let t1 = Instant::now();
        black_box(heap.gc(std::iter::empty()));
        let t2 = Instant::now();
        alloc.push((t1 - t0).as_nanos() as f64 / n as f64);
        gc.push((t2 - t1).as_nanos() as f64 / n as f64);
    }
    m.insert("heap.alloc_ns", median(&mut alloc));
    m.insert("heap.gc_ns_per_obj", median(&mut gc));

    // One request's buffer: checked out under its id, checked back in.
    let pool = BufferPool::new(2, false);
    let registry = MetricsRegistry::new(2);
    let shard = registry.machine(0);
    let mut req = 0u64;
    m.insert(
        "vm.pool.cycle_ns",
        e.ns_per_op(20_000, || {
            req += 1;
            let (buf, _) = pool.checkout_for(0, req, 14, Lane::Args, 64, shard);
            pool.put_for(0, req, black_box(buf), shard);
        }),
    );
}

// ----- net::packet --------------------------------------------------------------------

fn request(payload: Vec<u8>) -> Packet {
    Packet::Request { req_id: 1, from: 0, site: 14, target_obj: 1, payload, oneway: false }
}

/// Payload of a ping request (one int) and of a bulk call.
const SMALL: usize = 4;
const BULK: usize = 8 * 1024;

fn packets(e: Effort, m: &mut Metrics) {
    for (len, enc, dec) in [
        (SMALL, "net.packet.encode_small_ns", "net.packet.decode_small_ns"),
        (BULK, "net.packet.encode_bulk_ns", "net.packet.decode_bulk_ns"),
    ] {
        let packet = request(vec![0xAB; len]);
        let mut frame = Vec::with_capacity(len + 64);
        m.insert(
            enc,
            e.ns_per_op(20_000, || {
                frame.clear();
                black_box(&packet).encode_frame_append(1, &mut frame).expect("encode");
            }),
        );
        // the frame is a u32 length prefix, then the body
        m.insert(
            dec,
            e.ns_per_op(20_000, || {
                black_box(Packet::decode_body(black_box(&frame[4..])).expect("decode"));
            }),
        );
    }
}

// ----- shims::crossbeam --------------------------------------------------------------

fn handoffs(e: Effort, m: &mut Metrics) {
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    m.insert(
        "shims.crossbeam.queue_ns",
        e.ns_per_op(20_000, || {
            tx.send(1).expect("send");
            black_box(rx.try_recv().expect("queued item"));
        }),
    );
    // A receiver blocked in `recv`, woken by another thread's `send`: a ping
    // pong between two threads is two such handoffs.
    let (to_echo, echo_rx) = crossbeam::channel::unbounded::<u64>();
    let (to_main, main_rx) = crossbeam::channel::unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_rx.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    m.insert(
        "shims.crossbeam.handoff_ns",
        e.median_ns(5_000, || {
            to_echo.send(1).expect("send");
            black_box(main_rx.recv().expect("echo"));
        }) / 2.0,
    );
    drop(to_echo);
    echo.join().expect("echo thread");
}

// ----- net::transport, tcp, reactor, lossy ----------------------------------------------

/// One-way `NetHandle::send` → `Mailbox::recv` between two machines with no
/// VM on either: half a ping pong. Also returns retransmissions per thousand
/// frames (zero on the reliable backends).
fn hop_ns(
    e: Effort,
    kind: TransportKind,
    payload: usize,
    ops: usize,
    loss: Option<LossSpec>,
) -> (f64, f64) {
    let registry = Arc::new(MetricsRegistry::new(2));
    let (mailboxes, net) =
        NetHandle::with_kind_config(kind, 2, CostModel::default(), registry.clone(), loss, None)
            .unwrap_or_else(|err| panic!("bring up {kind} transport: {err}"));
    let mut mailboxes = mailboxes.into_iter();
    let (mine, theirs) =
        (mailboxes.next().expect("mailbox 0"), mailboxes.next().expect("mailbox 1"));
    let echo_net = net.clone();
    let echo = std::thread::spawn(move || {
        while let Ok(packet) = theirs.recv() {
            if packet == Packet::Shutdown {
                break;
            }
            echo_net.send(1, 0, packet);
        }
    });
    let mut packet = request(vec![0xAB; payload]);
    let mut frames = 0u64;
    let rtt = e.median_ns(ops, || {
        net.send(0, 1, std::mem::replace(&mut packet, Packet::Shutdown));
        packet = mine.recv().expect("echoed packet");
        frames += 2;
    });
    net.send(1, 1, Packet::Shutdown);
    echo.join().expect("echo thread");
    net.shutdown();
    let retransmits: u64 = (0..2)
        .map(|i| registry.machine(i).lossy_retransmits.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    (rtt / 2.0, retransmits as f64 * 1000.0 / frames as f64)
}

fn hops(e: Effort, seed: u64, m: &mut Metrics) {
    use TransportKind::{Channel, Lossy, Reactor, Tcp};
    m.insert("net.channel.hop_ns", hop_ns(e, Channel, SMALL, 2_000, None).0);
    m.insert("net.tcp.hop_ns", hop_ns(e, Tcp, SMALL, 1_000, None).0);
    m.insert("net.reactor.hop_ns", hop_ns(e, Reactor, SMALL, 500, None).0);
    m.insert("net.tcp.hop_bulk_ns", hop_ns(e, Tcp, BULK, 1_000, None).0);
    m.insert("net.reactor.hop_bulk_ns", hop_ns(e, Reactor, BULK, 500, None).0);
    // 5 % of datagrams dropped and 5 % duplicated, healed by retransmission.
    let lossy = Effort { batches: e.batches.min(10), ..e };
    let (hop, retransmits) = hop_ns(lossy, Lossy, SMALL, 100, Some(LossSpec::seeded(seed, 0.05)));
    m.insert("net.lossy.hop_ns", hop);
    m.insert("net.lossy.retransmits_per_kframe", retransmits);
}

// ----- obs ---------------------------------------------------------------------------------

/// What the always-on instruments cost the ping: `ping_channel` throughput
/// with the flight recorder and the timeline sampler at their defaults
/// against both switched off, in five pairs of repetitions. The two of a
/// pair run 0.2 s apart and so at the box's same speed: the share is taken
/// pair by pair, and the median reported.
fn observability(args: &Args, m: &mut Metrics) {
    let w = workload("ping_channel").expect("ping_channel");
    let count = if args.smoke { w.count / 100 } else { w.count / 3 };
    let mut shares: Vec<f64> = (0..if args.smoke { 1 } else { 5 })
        .map(|_| {
            let off = run_rep(&w, args.seed, count, Obs::Off).calls_per_s();
            let on = run_rep(&w, args.seed, count, Obs::Default).calls_per_s();
            1.0 - on / off
        })
        .collect();
    m.insert("obs.overhead_share", median(&mut shares));
}
