//! Which thread serves a request, end to end on every transport (DESIGN
//! §5.7): a two-way request whose `serve.thread` verdict is `drain` is
//! served by the receiving machine's drain thread and needs no worker; one
//! whose verdict is `worker` is handed to the pool and may wait there; and a
//! wait reached on the drain thread — a wrong verdict — is an
//! `analysis-audit` error in the reply, never a hung machine.
//!
//! Every run has a deadline of its own: a defect here shows as a hang, and
//! a hang must fail the test that caused it, not the CI job around it.
//!
//! Tests are prefixed `channel_` / `tcp_` / `reactor_` / `lossy_` like the
//! other transport suites.

use std::sync::Arc;
use std::time::Duration;

use corm::{
    compile, Compiled, OptConfig, Phase, RunOptions, RunOutcome, TraceKind, TransportKind,
    AUDIT_ERROR_PREFIX,
};

/// Run `c` with `opts`, failing — not hanging — if it takes a minute.
fn run_within_deadline(c: &Compiled, opts: RunOptions) -> RunOutcome {
    let (done_tx, done) = std::sync::mpsc::channel();
    let c = c.clone();
    // (The receiver is gone only if the deadline already failed the test.)
    std::thread::spawn(move || drop(done_tx.send(corm::run(&c, opts))));
    done.recv_timeout(Duration::from_secs(60)).expect("the run hung: no outcome after 60 s")
}

/// The `serve.thread` decision (verdict, rule, witness) of the first call
/// site that targets `method`.
fn verdict_of<'c>(c: &'c Compiled, method: &str) -> (&'c str, &'c str, &'c str) {
    let mut plans: Vec<_> = c.plans.sites.values().collect();
    plans.sort_by_key(|p| p.site);
    let plan = plans
        .into_iter()
        .find(|p| c.module.table.method(p.method).name == method)
        .unwrap_or_else(|| panic!("no call site targets {method}"));
    let d = plan.provenance.find("serve.thread").expect("serve.thread decision");
    assert_eq!(d.verdict == "drain", plan.serve_on_drain, "{method}: plan disagrees with {d}");
    (d.verdict, d.rule, d.witness.as_str())
}

/// `a.f(n)` on machine 1 calls `b.g(n - 1)` on machine 0 calls `a.f(n - 2)` …
/// and the innermost call asks the other side's leaf. Every `f` and `g` on the
/// way waits for the next: five workers of machine 1 and four of machine 0
/// are asleep in a round trip when the leaf is served.
const CHAIN: &str = r#"
    remote class A {
        B b;
        void bind(B b) { this.b = b; }
        int leaf() { return 100; }
        int f(int n) {
            if (n == 0) { return this.b.leaf(); }
            return 1 + this.b.g(n - 1);
        }
    }
    remote class B {
        A a;
        void bind(A a) { this.a = a; }
        int leaf() { return 200; }
        int g(int n) {
            if (n == 0) { return this.a.leaf(); }
            return 1 + this.a.f(n - 1);
        }
    }
    class M {
        static void main() {
            A a = new A() @ 1;
            B b = new B() @ 0;
            a.bind(b);
            b.bind(a);
            System.println(Str.fromLong(a.f(8)));
        }
    }
"#;

fn reentrant_chain_completes(transport: TransportKind) {
    let c = compile(CHAIN, OptConfig::ALL).expect("compiles");
    assert_eq!(verdict_of(&c, "f"), ("worker", "remote-call", "A.f → B.leaf (remote call)"));
    assert_eq!(verdict_of(&c, "g"), ("worker", "remote-call", "B.g → A.leaf (remote call)"));
    for leaf in ["leaf", "bind"] {
        let (verdict, rule, _) = verdict_of(&c, leaf);
        assert_eq!((verdict, rule), ("drain", "no-blocking-operation"), "{leaf}");
    }
    let opts = RunOptions { machines: 2, workers_per_machine: 5, transport, ..Default::default() };
    let out = run_within_deadline(&c, opts);
    assert_eq!(out.error, None, "{transport}");
    // f(8) … f(0) add eight ones to what B's leaf returns.
    assert_eq!(out.output, "208\n", "{transport}");
}

/// Machine 1 has ONE worker, and `hold()` keeps it: it waits on a queue until
/// `release()` — a spawn, so served on a thread of its own — fills it. While
/// it waits, `holding()` can only be answered by the drain thread.
const GATE: &str = r#"
    remote class Gate {
        Queue q;
        boolean held;
        void init() { this.q = new Queue(1); this.held = false; }
        int hold() { this.held = true; this.q.take(); return 1; }
        boolean holding() { return this.held; }
        void release() { this.q.put(null); }
    }
    class Helper {
        static void hold(Gate g, Queue done) {
            g.hold();
            done.put(null);
        }
    }
    class M {
        static void main() {
            Gate g = new Gate() @ 1;
            g.init();
            Queue done = new Queue(1);
            spawn Helper.hold(g, done);
            while (!g.holding()) { }
            spawn g.release();
            done.take();
            System.println("released");
        }
    }
"#;

fn a_drain_site_needs_no_worker_and_a_worker_site_may_wait(transport: TransportKind) {
    let c = compile(GATE, OptConfig::ALL).expect("compiles");
    assert_eq!(verdict_of(&c, "hold"), ("worker", "blocking-builtin", "Gate.hold → Queue.take"));
    assert_eq!(verdict_of(&c, "holding").0, "drain");
    let (verdict, rule, _) = verdict_of(&c, "release");
    assert_eq!((verdict, rule), ("worker", "one-way"));
    let opts = RunOptions { machines: 2, workers_per_machine: 1, transport, ..Default::default() };
    let out = run_within_deadline(&c, opts);
    // `hold()` really waited and came back without an audit error, so it was
    // not on the drain thread; `holding()` came back at all, so it was.
    assert_eq!(out.error, None, "{transport}");
    assert_eq!(out.output, "released\n", "{transport}");
}

/// `R.f` is `body`; `main` calls it once on machine 1, where `this.o` is a
/// handle to an object on machine 0.
fn blocking_program(body: &str) -> String {
    format!(
        r#"
        remote class Other {{ int g(int x) {{ return x; }} }}
        remote class R {{
            Other o;
            void set(Other o) {{ this.o = o; }}
            int f(int n) {{ {body} return n; }}
        }}
        class M {{
            static void main() {{
                R r = new R() @ 1;
                r.set(new Other() @ 0);
                System.println(Str.fromLong(r.f(1)));
            }}
        }}
    "#
    )
}

/// Compile `src` and overrule the analysis: every site targeting `method`
/// claims `drain`.
fn forced_onto_the_drain_thread(src: &str, method: &str) -> Compiled {
    let mut c = compile(src, OptConfig::ALL).expect("compiles");
    let mut plans = (*c.plans).clone();
    for plan in plans.sites.values_mut() {
        if c.module.table.method(plan.method).name == method {
            assert!(!plan.serve_on_drain, "{method} was expected to be a worker site");
            plan.serve_on_drain = true;
        }
    }
    c.plans = Arc::new(plans);
    c
}

/// The run fails with the audit error for `op`, names the thread that
/// refused to wait and the site's recorded verdict, and is classified.
fn assert_refused(out: &RunOutcome, op: &str, verdict: &str, ctx: &str) {
    let err = out.error.as_ref().unwrap_or_else(|| panic!("{ctx}: the wait went unnoticed"));
    let msg = &err.message;
    assert!(msg.contains(AUDIT_ERROR_PREFIX), "{ctx}: {msg}");
    assert!(msg.contains(&format!("{op} would make thread corm-drain of machine 1 wait")), "{msg}");
    assert!(msg.contains("analysis provenance for call site"), "{ctx}: {msg}");
    assert!(msg.contains(verdict), "{ctx}: the contradicted verdict is missing: {msg}");
    assert_eq!(out.flight.reason, "audit-mismatch", "{ctx}");
    assert_eq!(out.output, "", "{ctx}: the call returned");
}

fn a_wrong_drain_verdict_is_an_audit_error_not_a_hang(transport: TransportKind) {
    let src = blocking_program("Queue q = new Queue(1); q.take();");
    let c = forced_onto_the_drain_thread(&src, "f");
    let opts = RunOptions { machines: 2, transport, ..Default::default() };
    let out = run_within_deadline(&c, opts);
    let verdict = "serve.thread: worker [rule: blocking-builtin] — R.f → Queue.take";
    assert_refused(&out, "Queue.take", verdict, transport.label());
}

macro_rules! on_every_transport {
    ($($backend:ident => $kind:expr;)*) => {
        $(mod $backend {
            use super::*;

            #[test]
            fn reentrant_chain_completes() {
                super::reentrant_chain_completes($kind);
            }

            #[test]
            fn a_drain_site_needs_no_worker_and_a_worker_site_may_wait() {
                super::a_drain_site_needs_no_worker_and_a_worker_site_may_wait($kind);
            }

            #[test]
            fn a_wrong_drain_verdict_is_an_audit_error_not_a_hang() {
                super::a_wrong_drain_verdict_is_an_audit_error_not_a_hang($kind);
            }
        })*
    };
}

on_every_transport! {
    channel_ => TransportKind::Channel;
    tcp_ => TransportKind::Tcp;
    reactor_ => TransportKind::Reactor;
    lossy_ => TransportKind::Lossy;
}

/// Every point where a VM thread waits refuses to on the drain thread.
#[test]
fn every_waiting_operation_is_refused_on_the_drain_thread() {
    for (body, op, witness) in [
        ("Queue q = new Queue(1); q.put(null); q.put(null);", "Queue.put", "R.f → Queue.put"),
        ("System.sleepMicros(50);", "System.sleepMicros", "R.f → System.sleepMicros"),
        ("Cluster.barrier();", "Cluster.barrier", "R.f → Cluster.barrier"),
        (
            "this.o = new Other() @ 0;",
            "a round trip to another machine",
            "R.f → new Other (remote class)",
        ),
        (
            "int echoed = this.o.g(n);",
            "a round trip to another machine",
            "R.f → Other.g (remote call)",
        ),
    ] {
        let c = forced_onto_the_drain_thread(&blocking_program(body), "f");
        let out = run_within_deadline(&c, RunOptions::default());
        assert_refused(&out, op, &format!("— {witness}"), body);
    }
}

/// A queue operation that finds room, or an item, does not wait: the drain
/// thread may run it even though the verdict (rightly) says `worker`.
#[test]
fn a_queue_operation_that_need_not_wait_is_not_refused() {
    let src = blocking_program("Queue q = new Queue(1); q.put(null); q.take();");
    let c = forced_onto_the_drain_thread(&src, "f");
    let out = run_within_deadline(&c, RunOptions::default());
    assert_eq!((out.error, out.output.as_str()), (None, "1\n"));
}

/// A drain site's request still has a queue phase — opened and closed by
/// the drain thread, back to back — and is never counted as parked.
#[test]
fn a_drain_sites_queue_phase_is_zero_length_not_missing() {
    let src = r#"
        remote class R { int ping(int x) { return x + 1; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int acc = 0;
                for (int i = 0; i < 300; i++) { acc = r.ping(acc); }
                System.println(Str.fromLong(acc));
            }
        }
    "#;
    let c = compile(src, OptConfig::ALL).expect("compiles");
    assert_eq!(verdict_of(&c, "ping").0, "drain");
    let opts = RunOptions { trace: true, timeline_interval_us: 100, ..Default::default() };
    let out = run_within_deadline(&c, opts);
    assert_eq!((out.error.as_ref(), out.output.as_str()), (None, "300\n"));

    let queue_stamps = |begin: bool| -> Vec<(u64, u64)> {
        let stamps = out.trace.iter().filter_map(|e| match e.kind {
            TraceKind::PhaseBegin { phase: Phase::Queue, req, .. } if begin => Some((req, e.seq)),
            TraceKind::PhaseEnd { phase: Phase::Queue, req, .. } if !begin => Some((req, e.seq)),
            _ => None,
        });
        stamps.collect()
    };
    let (begins, ends) = (queue_stamps(true), queue_stamps(false));
    assert_eq!(begins.len(), 300, "one queue phase per ping");
    for (&(req, begin), &(ended, end)) in begins.iter().zip(&ends) {
        assert_eq!((ended, end), (req, begin + 1), "req {req}: something ran between the stamps");
    }
    let server = &out.metrics.machines[1];
    assert_eq!(server.queue_us.count, 300, "the queue histogram missed a drain-served request");
    assert_eq!(server.serve_queue_depth, 0);
    let samples = &out.timeline.machines[1];
    assert!(!samples.is_empty(), "the sampler never ran");
    assert!(samples.iter().all(|s| s.queue_depth == 0), "a drain-served request was parked");
}
