//! Observability-layer integration tests: trace causality (every RMI's
//! send/handle/return share one cluster-unique request id), per-machine
//! timestamp monotonicity, agreement of the per-machine counter shards
//! with the cluster snapshot, well-formedness of the Chrome trace-event
//! export, and the instrumentation seam's contracts: one epoch under
//! every plane, phase histograms that equal the trace's phase report,
//! spans that close on the error path, and an exact `Handle.reused`.

use std::collections::{HashMap, HashSet};

use corm::{
    compile_and_run, phase_report, to_chrome_trace, FlightKind, OptConfig, RunOptions, RunOutcome,
    TraceEvent, TraceKind, TransportKind,
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

/// One epoch under every plane, on a transport whose bring-up takes real
/// time: the flight `Send` and the trace `RmiSend` of one request are the
/// same stamp, and the timeline's baseline sample precedes every trace
/// event.
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
    let flight_sends: HashMap<u64, u64> = out
        .flight
        .machines
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .filter(|e| e.kind == FlightKind::Send)
        .map(|e| (e.req, e.t_us))
        .collect();
    let mut sends = 0;
    for e in &out.trace {
        if let TraceKind::RmiSend { req, .. } = e.kind {
            sends += 1;
            assert_eq!(flight_sends.get(&req), Some(&e.t_us), "req {req}: flight vs trace t_us");
        }
    }
    assert_eq!(sends, 7, "six bumps and one sum");
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
/// no opts beyond the workload — ends with a clean dump whose event
/// windows carry the send/handle/return triple of every remote call.
#[test]
fn flight_recorder_is_on_by_default() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    assert_eq!(out.flight.reason, "ok");
    assert!(out.flight.failing_reqs.is_empty());
    assert!(out.flight.total_events() > 0, "default run recorded no flight events");
    let kinds: HashSet<(u16, &str)> = out
        .flight
        .machines
        .iter()
        .flat_map(|(m, evs)| evs.iter().map(move |e| (*m, e.kind.name())))
        .collect();
    assert!(kinds.contains(&(0, "send")), "caller machine missing send events");
    assert!(kinds.contains(&(1, "handle")), "callee machine missing handle events");
    assert!(kinds.contains(&(0, "return")), "caller machine missing return events");
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
