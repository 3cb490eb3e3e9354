//! Observability-layer integration tests: trace causality (every RMI's
//! send/handle/return share one cluster-unique request id), per-machine
//! timestamp monotonicity, agreement of the per-machine counter shards
//! with the cluster snapshot, well-formedness of the Chrome trace-event
//! export, and the instrumentation seam's contracts: one epoch under
//! every plane, phase histograms that equal the trace's phase report,
//! spans that close on the error path, an exact `Handle.reused`, and one
//! record per boundary under both the trace and the flight dump.

use std::collections::{HashMap, HashSet};

use corm::{
    compile_and_run, phase_report, to_chrome_trace, FlightKind, LossSpec, OptConfig, RunOptions,
    RunOutcome, TraceEvent, TraceKind, TransportKind,
};
use proptest::prelude::*;

/// A workload with both scalar round-trips and an object-graph payload,
/// so marshal/unmarshal phases and type-info bytes all show up.
fn list_program(elems: usize) -> String {
    format!(
        r#"
        class Node {{
            Node next; int v;
            Node(Node n, int v) {{ this.next = n; this.v = v; }}
        }}
        remote class Worker {{
            int bump(int x) {{ return x + 1; }}
            int sum(Node n) {{
                if (n == null) {{ return 0; }}
                return n.v + sum(n.next);
            }}
        }}
        class M {{
            static void main() {{
                Worker w = new Worker() @ 1;
                int i = 0;
                int acc = 0;
                while (i < 6) {{ acc = acc + w.bump(i); i = i + 1; }}
                Node list = null;
                int j = 0;
                while (j < {elems}) {{ list = new Node(list, j); j = j + 1; }}
                acc = acc + w.sum(list);
                System.println(Str.fromLong(acc));
            }}
        }}
        "#
    )
}

fn traced_run(src: &str, machines: usize, cfg: OptConfig) -> RunOutcome {
    let opts = RunOptions { machines, echo: false, trace: true, ..Default::default() };
    let out = compile_and_run(src, cfg, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    out
}

/// Every `RmiSend` must have a `Handle` on the target machine with the
/// same request id, and (unless one-way) an `RmiReturn` back on the
/// sending machine. Request ids of distinct sends never collide.
fn assert_causality(events: &[TraceEvent]) {
    let mut seen_reqs: HashSet<u64> = HashSet::new();
    let handles: HashMap<u64, u16> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Handle { req, .. } => Some((req, e.machine)),
            _ => None,
        })
        .collect();
    let returns: HashMap<u64, u16> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RmiReturn { req, .. } => Some((req, e.machine)),
            _ => None,
        })
        .collect();
    let mut sends = 0;
    for e in events {
        if let TraceKind::RmiSend { req, to, oneway, .. } = e.kind {
            sends += 1;
            assert!(seen_reqs.insert(req), "request id {req} minted twice");
            assert_eq!(
                handles.get(&req),
                Some(&to),
                "send req {req} has no Handle on target machine {to}"
            );
            if !oneway {
                assert_eq!(
                    returns.get(&req),
                    Some(&e.machine),
                    "send req {req} has no RmiReturn on machine {}",
                    e.machine
                );
            }
        }
    }
    assert!(sends > 0, "workload produced no remote calls");
    // No orphans in the other direction either.
    for req in handles.keys() {
        assert!(seen_reqs.contains(req), "Handle req {req} without a matching RmiSend");
    }
    for req in returns.keys() {
        assert!(seen_reqs.contains(req), "RmiReturn req {req} without a matching RmiSend");
    }
}

/// Per machine, timestamps never go backwards when events are replayed
/// in recording (seq) order.
fn assert_monotone_per_machine(events: &[TraceEvent]) {
    let mut by_machine: HashMap<u16, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        by_machine.entry(e.machine).or_default().push(e);
    }
    for (m, mut evs) in by_machine {
        evs.sort_by_key(|e| e.seq);
        for pair in evs.windows(2) {
            assert!(
                pair[0].t_us <= pair[1].t_us,
                "machine {m}: t_us regressed between seq {} ({} us) and seq {} ({} us)",
                pair[0].seq,
                pair[0].t_us,
                pair[1].seq,
                pair[1].t_us
            );
        }
    }
}

fn assert_shards_sum_to_cluster(out: &RunOutcome) {
    assert_eq!(
        out.metrics.cluster_stats(),
        out.stats,
        "per-machine counter shards must fold to the cluster snapshot"
    );
    for (i, m) in out.metrics.machines.iter().enumerate() {
        assert!(
            m.stats.type_info_bytes <= m.stats.wire_bytes,
            "machine {i}: type_info_bytes {} > wire_bytes {}",
            m.stats.type_info_bytes,
            m.stats.wire_bytes
        );
    }
}

#[test]
fn send_handle_return_link_by_request_id() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    assert_eq!(out.output, "31\n");
    assert_causality(&out.trace);
}

#[test]
fn causality_holds_for_every_table_config() {
    for (name, cfg) in OptConfig::TABLE_ROWS {
        let out = traced_run(&list_program(4), 2, cfg);
        assert_causality(&out.trace);
        assert_monotone_per_machine(&out.trace);
        assert!(!out.trace.is_empty(), "[{name}] expected a non-empty trace");
    }
}

#[test]
fn per_machine_timestamps_are_monotone_in_seq_order() {
    let out = traced_run(&list_program(6), 3, OptConfig::ALL);
    assert_monotone_per_machine(&out.trace);
    // seq ids are cluster-global and unique.
    let mut seqs: Vec<u64> = out.trace.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), out.trace.len(), "duplicate seq numbers in trace");
}

#[test]
fn machine_shards_sum_to_cluster_snapshot() {
    for (_, cfg) in OptConfig::TABLE_ROWS {
        let out = traced_run(&list_program(5), 2, cfg);
        assert_shards_sum_to_cluster(&out);
    }
}

/// Each run builds its own registry: two identical back-to-back runs
/// must report identical counters — any bleed-through (a shared
/// registry) would double the second run's numbers.
#[test]
fn metrics_are_scoped_per_run_with_no_bleed_through() {
    let src = list_program(5);
    let first = traced_run(&src, 2, OptConfig::ALL);
    let second = traced_run(&src, 2, OptConfig::ALL);
    assert_eq!(
        first.metrics.cluster_stats(),
        second.metrics.cluster_stats(),
        "counters leaked between runs"
    );
    assert_eq!(first.stats, second.stats);
    for (a, b) in first.metrics.machines.iter().zip(&second.metrics.machines) {
        assert_eq!(a.stats, b.stats, "per-machine shards leaked between runs");
    }
}

/// The flight-dump name of a trace event's milestone, if it is one.
fn milestone(kind: &TraceKind) -> Option<&'static str> {
    match kind {
        TraceKind::RmiSend { .. } => Some("send"),
        TraceKind::RmiReturn { .. } => Some("return"),
        TraceKind::Handle { .. } => Some("handle"),
        TraceKind::LocalRpc { .. } => Some("local"),
        _ => None,
    }
}

/// One epoch under every plane, on a transport whose bring-up takes real
/// time: the flight `Send`, `Handle` and `Return` of one request are the
/// trace's events of the same name, at the same stamp, and the timeline's
/// baseline sample precedes every trace event.
#[test]
fn flight_trace_and_timeline_share_one_epoch_over_tcp() {
    let opts = RunOptions {
        machines: 2,
        trace: true,
        transport: TransportKind::Tcp,
        ..Default::default()
    };
    let out = compile_and_run(&list_program(5), OptConfig::ALL, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    let flight: HashMap<(u64, &str), u64> = out
        .flight
        .machines
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .map(|e| ((e.req, e.kind.name()), e.t_us))
        .collect();
    let mut paired: HashMap<&str, usize> = HashMap::new();
    for e in &out.trace {
        let (Some(req), Some(name)) = (e.kind.req(), milestone(&e.kind)) else { continue };
        *paired.entry(name).or_default() += 1;
        assert_eq!(flight.get(&(req, name)), Some(&e.t_us), "req {req} {name}: flight vs trace");
    }
    let want: HashMap<&str, usize> = [("send", 7), ("handle", 7), ("return", 7)].into();
    assert_eq!(paired, want, "six bumps and one sum, each a send, a handle and a return");
    let first_sample = out.timeline.machines[0].first().expect("baseline sample").t_us;
    let first_event = out.trace.iter().map(|e| e.t_us).min().expect("trace events");
    assert!(
        first_sample <= first_event,
        "sample at {first_sample} us, trace from {first_event} us"
    );
}

/// Attribution closes, exactly: a phase's histogram sample and its trace
/// span come from the same two stamps, so per machine the histogram sums
/// equal the phase report of the trace to the microsecond.
#[test]
fn phase_histograms_equal_the_trace_phase_report_for_every_app() {
    for app in corm_apps::ALL_APPS {
        let opts = RunOptions {
            machines: 2,
            args: app.quick_args.to_vec(),
            trace: true,
            ..Default::default()
        };
        let out = corm::run(&app.compile(OptConfig::ALL), opts);
        assert!(out.error.is_none(), "{}: {:?}", app.name, out.error);
        let report = phase_report(&out.trace, |_| 0);
        for (m, ms) in out.metrics.machines.iter().enumerate() {
            let spans = report.get(&(m as u16)).copied().unwrap_or_default();
            let hist = [ms.marshal_us.sum, ms.queue_us.sum, ms.unmarshal_us.sum, ms.invoke_us.sum];
            let traced = [spans.marshal_us, spans.queue_us, spans.unmarshal_us, spans.invoke_us];
            assert_eq!(hist, traced, "{} m{m}: [marshal, queue, unmarshal, invoke] us", app.name);
        }
        assert!(out.metrics.cluster_hist(|m| &m.invoke_us).count > 0, "{}: no RMIs", app.name);
    }
}

/// One RMI half's events, in recording order, each as a label: `+phase` and
/// `-phase` for a span's begin and end, the milestone's name otherwise.
fn halves(events: &[TraceEvent]) -> HashMap<(u16, u64), Vec<(&'static str, &TraceEvent)>> {
    let mut halves: HashMap<(u16, u64), Vec<(&'static str, &TraceEvent)>> = HashMap::new();
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.seq);
    for e in sorted {
        let (label, req) = match e.kind {
            TraceKind::PhaseBegin { phase, req, .. } => {
                (["+marshal", "+queue", "+unmarshal", "+invoke"][phase as usize], req)
            }
            TraceKind::PhaseEnd { phase, req, .. } => {
                (["-marshal", "-queue", "-unmarshal", "-invoke"][phase as usize], req)
            }
            TraceKind::RmiSend { req, .. } => ("send", req),
            TraceKind::RmiReturn { req, .. } => ("return", req),
            TraceKind::Handle { req, .. } => ("handle", req),
            TraceKind::LocalRpc { req, .. } => ("local", req),
            TraceKind::NewRemote { .. } | TraceKind::Gc { .. } => continue,
        };
        halves.entry((e.machine, req)).or_default().push((label, e));
    }
    halves
}

/// Each boundary between adjacent steps of an RMI half is one clock
/// reading: the phase that ends, the milestone there and the phase that
/// begins carry the same `t_us`, and were logged with consecutive `seq`.
/// A half is its list of boundaries, in order; nothing else is logged.
fn assert_one_stamp_per_boundary(half: &[(&'static str, &TraceEvent)], boundaries: &[&[&str]]) {
    let labels: Vec<&str> = half.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, boundaries.concat(), "events of one RMI half");
    let mut events = half.iter().map(|(_, e)| *e);
    for boundary in boundaries {
        let stamped: Vec<&TraceEvent> = events.by_ref().take(boundary.len()).collect();
        for pair in stamped.windows(2) {
            assert_eq!(pair[0].t_us, pair[1].t_us, "{boundary:?}: two clock readings");
            assert_eq!(pair[0].seq + 1, pair[1].seq, "{boundary:?}: logged apart");
        }
    }
}

/// `far` pings to machine 1, then `near` to an object on machine 0.
fn ping_program(far: usize, near: usize) -> String {
    format!(
        r#"
        remote class Pong {{ int ping(int x) {{ return x + 1; }} }}
        class M {{
            static void main() {{
                Pong far = new Pong() @ 1;
                Pong near = new Pong() @ 0;
                int seq = 0;
                for (int i = 0; i < {far}; i++) {{ seq = far.ping(seq); }}
                for (int i = 0; i < {near}; i++) {{ seq = near.ping(seq); }}
                System.println(Str.fromLong(seq));
            }}
        }}
    "#
    )
}

/// Every half of every ping in `trace` is its boundaries, each one stamp,
/// and no event of another request is traced; returns the (wire, local)
/// calls checked.
fn assert_pings_stamp_each_boundary_once(trace: &[TraceEvent]) -> (usize, usize) {
    let halves = halves(trace);
    let (mut wire, mut local) = (0, 0);
    for e in trace {
        match e.kind {
            TraceKind::RmiSend { req, to, oneway: false, .. } => {
                wire += 1;
                assert_one_stamp_per_boundary(
                    &halves[&(e.machine, req)],
                    &[
                        &["+marshal"],
                        &["-marshal", "send"],
                        &["return", "+unmarshal"],
                        &["-unmarshal"],
                    ],
                );
                assert_one_stamp_per_boundary(
                    &halves[&(to, req)],
                    &[
                        &["+queue", "-queue", "+unmarshal"],
                        &["-unmarshal", "+invoke"],
                        &["-invoke", "+marshal"],
                        &["-marshal", "handle"],
                    ],
                );
            }
            TraceKind::LocalRpc { req, .. } => {
                local += 1;
                assert_one_stamp_per_boundary(
                    &halves[&(e.machine, req)],
                    &[
                        &["+marshal"],
                        &["-marshal", "+unmarshal"],
                        &["-unmarshal", "+invoke"],
                        &["-invoke", "+marshal"],
                        &["-marshal", "local", "+unmarshal"],
                        &["-unmarshal"],
                    ],
                );
            }
            _ => {}
        }
    }
    assert_eq!(halves.len(), 2 * wire + local, "a traced request that is no ping");
    (wire, local)
}

#[test]
fn a_boundary_is_one_stamp() {
    let out = traced_run(&ping_program(300, 20), 2, OptConfig::ALL);
    assert_eq!(out.output, "320\n");
    assert_eq!(assert_pings_stamp_each_boundary_once(&out.trace), (300, 20));
}

/// Flight and trace are one record: a traced run's dump of 8 events a
/// machine is the newest 8 milestones of that machine's trace, event for
/// event and stamp for stamp, and the untraced ring of 8 keeps the same 8.
#[test]
fn a_traced_flight_dump_is_the_newest_milestones_of_the_trace() {
    let run = |trace| {
        let opts = RunOptions { machines: 2, trace, flight_capacity: 8, ..Default::default() };
        let out = compile_and_run(&ping_program(300, 20), OptConfig::ALL, opts).expect("compile");
        assert!(out.error.is_none(), "runtime error: {:?}", out.error);
        out
    };
    let (out, untraced) = (run(true), run(false));
    let unstamped = |out: &RunOutcome| -> Vec<Vec<_>> {
        let event = |e: &corm::FlightEvent| (e.kind, e.req, e.site, e.bytes, e.peer, e.flags);
        out.flight.machines.iter().map(|(_, evs)| evs.iter().map(event).collect()).collect()
    };
    assert_eq!(unstamped(&untraced), unstamped(&out), "the ring and the log keep one record");
    assert_eq!(assert_pings_stamp_each_boundary_once(&out.trace), (300, 20));
    assert_eq!(out.flight.machines.len(), 2);
    for (m, dumped) in &out.flight.machines {
        let traced: Vec<(u64, &str, Option<u64>)> = out
            .trace
            .iter()
            .filter(|e| e.machine == *m)
            .filter_map(|e| Some((e.t_us, milestone(&e.kind)?, e.kind.req())))
            .collect();
        let newest = &traced[traced.len() - 8..];
        let dumped: Vec<_> = dumped.iter().map(|e| (e.t_us, e.kind.name(), Some(e.req))).collect();
        assert_eq!(dumped, newest, "machine {m}");
    }
}

/// The lossy fabric's thread writes its retransmit and dup-suppressed
/// records into the same per-machine logs as the VM: the trace of a seeded
/// lossy run still links every call, keeps each machine's stamps in order
/// and each boundary one stamp, and shows neither lossy kind.
#[test]
fn a_traced_lossy_run_keeps_one_stamp_per_boundary() {
    let opts = RunOptions {
        machines: 2,
        trace: true,
        transport: TransportKind::Lossy,
        loss: Some(LossSpec::seeded(7, 0.2)),
        ..Default::default()
    };
    let out = compile_and_run(&ping_program(100, 5), OptConfig::ALL, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    assert_eq!(out.output, "105\n");
    assert_causality(&out.trace);
    assert_monotone_per_machine(&out.trace);
    let seqs: Vec<u64> = out.trace.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (0..out.trace.len() as u64).collect::<Vec<_>>(), "seq is the merged order");
    let key = |e: &TraceEvent| (e.t_us, e.machine);
    assert!(out.trace.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "one merge on (t_us, machine)");
    assert_eq!(assert_pings_stamp_each_boundary_once(&out.trace), (100, 5));
    let lossy: usize = out
        .flight
        .machines
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .filter(|e| matches!(e.kind, FlightKind::Retransmit | FlightKind::DupSuppressed))
        .count();
    assert!(lossy > 0, "a 20% fault rate must retransmit or suppress a duplicate");
}

/// A phase that fails still closes: a remote exception (null dereference
/// in the callee) leaves a `PhaseEnd` for every `PhaseBegin` and an
/// invoke sample for every handled request.
#[test]
fn failing_phase_still_closes_its_span() {
    let src = r#"
        class Box { int v; }
        remote class Worker {
            int bump(int x) { return x + 1; }
            int open(Box b) { return b.v; }
        }
        class M {
            static void main() {
                Worker w = new Worker() @ 1;
                int acc = w.bump(1) + w.bump(2);
                acc = acc + w.open(null);
                System.println(Str.fromLong(acc));
            }
        }
    "#;
    let opts = RunOptions { machines: 2, trace: true, ..Default::default() };
    let out = compile_and_run(src, OptConfig::ALL, opts).expect("compile failed");
    let err = out.error.as_ref().expect("the null dereference must surface");
    assert!(err.message.contains("remote exception"), "{err}");

    let mut open: HashMap<(u16, u64, corm::Phase), i64> = HashMap::new();
    let mut handles = 0;
    for e in &out.trace {
        match e.kind {
            TraceKind::PhaseBegin { phase, req, .. } => {
                *open.entry((e.machine, req, phase)).or_default() += 1
            }
            TraceKind::PhaseEnd { phase, req, .. } => {
                *open.entry((e.machine, req, phase)).or_default() -= 1
            }
            TraceKind::Handle { .. } => handles += 1,
            _ => {}
        }
    }
    let unclosed: Vec<_> = open.iter().filter(|(_, &n)| n != 0).collect();
    assert!(unclosed.is_empty(), "unbalanced phase spans: {unclosed:?}");
    assert_eq!(handles, 3);
    assert_eq!(out.metrics.machines[1].invoke_us.count, handles, "the failed invoke is sampled");
    let report = phase_report(&out.trace, |_| 0);
    assert_eq!(report[&1].invoke_us, out.metrics.machines[1].invoke_us.sum);
}

/// `Handle.reused` is what *that* request's unmarshal recycled, not a
/// before/after difference of a machine-wide counter: with three callers
/// in flight at once, whichever threads serve them, the per-request numbers
/// still sum to the serving machine's `reused_objs`.
#[test]
fn handle_reused_sums_to_the_machine_counter_at_any_worker_count() {
    let src = r#"
        remote class Worker {
            int sum(int[] a) {
                int s = 0;
                int i = 0;
                while (i < a.length) { s = s + a[i]; i = i + 1; }
                return s;
            }
        }
        class Caller {
            static Worker w;
            static int done;
            static void go() {
                int[] a = new int[16];
                int i = 0;
                int acc = 0;
                while (i < 40) { a[0] = i; acc = acc + Caller.w.sum(a); i = i + 1; }
                Caller.done = Caller.done + 1;
            }
        }
        class M {
            static void main() {
                Caller.w = new Worker() @ 1;
                spawn Caller.go();
                spawn Caller.go();
                Caller.go();
                while (Caller.done < 3) { System.sleepMicros(200); }
                System.println("done");
            }
        }
    "#;
    let opts = RunOptions { machines: 2, trace: true, ..Default::default() };
    let out = compile_and_run(src, OptConfig::ALL, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    let mut reused = [0u64; 2];
    for e in &out.trace {
        if let TraceKind::Handle { reused: n, .. } = e.kind {
            reused[e.machine as usize] += n;
        }
    }
    for (m, ms) in out.metrics.machines.iter().enumerate() {
        assert_eq!(reused[m], ms.stats.reused_objs, "machine {m}");
    }
    assert!(reused[1] > 0, "the argument arrays must be recycled");
}

#[test]
fn chrome_trace_export_is_wellformed() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    let json = to_chrome_trace(&out.trace);

    assert!(json.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
    assert!(json.ends_with("]}"));
    // Required trace-event fields are present.
    for field in [r#""ph":"#, r#""ts":"#, r#""pid":"#, r#""tid":"#, r#""name":"#] {
        assert!(json.contains(field), "missing {field} in export");
    }
    // One process-name metadata record per machine.
    assert!(json.contains(r#""name":"machine 0""#));
    assert!(json.contains(r#""name":"machine 1""#));
    // Async begin/end pairs are balanced, so Perfetto will load the file.
    assert_eq!(
        json.matches(r#""ph":"b""#).count(),
        json.matches(r#""ph":"e""#).count(),
        "unbalanced async begin/end pairs"
    );
    // Braces balance (the export is hand-rolled, not serde-generated).
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced braces in chrome trace JSON");
}

/// The flight recorder (DESIGN §7.3) is on by default: a plain run —
/// no opts beyond the workload — ends with a clean dump of milestones
/// only, one send, handle and return for every remote call.
#[test]
fn flight_recorder_is_on_by_default() {
    let opts = RunOptions { machines: 2, ..Default::default() };
    let out = compile_and_run(&list_program(5), OptConfig::ALL, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    assert!(out.trace.is_empty());
    assert_eq!(out.flight.reason, "ok");
    assert!(out.flight.failing_reqs.is_empty());
    let mut per_call: HashMap<u64, Vec<(u16, &str)>> = HashMap::new();
    for (m, evs) in &out.flight.machines {
        for e in evs {
            assert!(e.kind.is_milestone(), "an untraced dump holds a {:?}", e.kind);
            per_call.entry(e.req).or_default().push((*m, e.kind.name()));
        }
    }
    assert_eq!(per_call.len(), 7, "six bumps and one sum");
    for (req, mut events) in per_call {
        events.sort_unstable();
        assert_eq!(events, [(0, "return"), (0, "send"), (1, "handle")], "req {req}");
    }
    // The dump renders as balanced JSON naming the channel transport once,
    // at the top: a run has one transport, so no event repeats it.
    let json = corm::render_flight_json(&out.flight);
    assert!(json.starts_with(
        "{\n  \"schema\": 2,\n  \"reason\": \"ok\",\n  \"transport\": \"channel\",\n"
    ));
    assert_eq!(json.matches(r#""transport""#).count(), 1, "an event carries the transport");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The trace invariants hold for arbitrary list sizes and cluster
    /// sizes, under the full optimizer configuration.
    #[test]
    fn trace_invariants_hold_for_arbitrary_workloads(
        elems in 1usize..8,
        machines in 2usize..4,
    ) {
        let out = traced_run(&list_program(elems), machines, OptConfig::ALL);
        assert_causality(&out.trace);
        assert_monotone_per_machine(&out.trace);
        assert_shards_sum_to_cluster(&out);
        let cluster = out.metrics.cluster_stats();
        prop_assert!(cluster.type_info_bytes <= cluster.wire_bytes);
        prop_assert_eq!(out.metrics.machines.len(), machines);
    }
}
