//! Which thread serves a request, end to end on every transport (DESIGN
//! §5.7): the thread that drains a two-way request serves it, and a handler
//! about to wait hands the drain role to another thread first, so its machine
//! keeps answering however many of its handlers wait.
//!
//! Every run has a deadline of its own: a defect here shows as a hang, and
//! a hang must fail the test that caused it, not the CI job around it.
//!
//! Tests are prefixed `channel_` / `tcp_` / `reactor_` / `lossy_` like the
//! other transport suites.

use std::time::Duration;

use corm::{compile, Compiled, OptConfig, Phase, RunOptions, RunOutcome, TraceKind, TransportKind};

/// Run `c` with `opts`, failing — not hanging — if it takes a minute.
fn run_within_deadline(c: &Compiled, opts: RunOptions) -> RunOutcome {
    let (done_tx, done) = std::sync::mpsc::channel();
    let c = c.clone();
    // (The receiver is gone only if the deadline already failed the test.)
    std::thread::spawn(move || drop(done_tx.send(corm::run(&c, opts))));
    done.recv_timeout(Duration::from_secs(60)).expect("the run hung: no outcome after 60 s")
}

/// `a.f(n)` on machine 1 calls `b.g(n - 1)` on machine 0 calls `a.f(n - 2)` …
/// and the innermost call asks the other side's leaf. Every `f` and `g` on the
/// way waits for the next: at depth 16, nine handlers of machine 1 and eight
/// of machine 0 are asleep in a round trip when the leaf is served.
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
            System.println(Str.fromLong(a.f(16)));
        }
    }
"#;

fn reentrant_chain_completes(transport: TransportKind) {
    let c = compile(CHAIN, OptConfig::ALL).expect("compiles");
    let out = run_within_deadline(&c, RunOptions { transport, ..Default::default() });
    assert_eq!(out.error, None, "{transport}");
    // f(16) … f(0) add sixteen ones to what B's leaf returns.
    assert_eq!(out.output, "216\n", "{transport}");
}

/// `hold()` waits on a queue until `release()` — a spawn, so served on a
/// thread of its own — fills it. While it waits, `holding()` can only be
/// answered by the thread `hold()` handed the drain role to: a request that
/// does not wait needs no thread but the one that drained it, and one that
/// waits may.
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
    let out = run_within_deadline(&c, RunOptions { transport, ..Default::default() });
    // `holding()` came back while `hold()` waited, and `hold()` came back.
    assert_eq!(out.error, None, "{transport}");
    assert_eq!(out.output, "released\n", "{transport}");
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
        })*
    };
}

on_every_transport! {
    channel_ => TransportKind::Channel;
    tcp_ => TransportKind::Tcp;
    reactor_ => TransportKind::Reactor;
    lossy_ => TransportKind::Lossy;
}

/// A handler on machine 1 that waits in `body` until `release()` lets it go,
/// called from a thread of machine 0's. `main` asks machine 1 `isWaiting()`
/// until it says yes, runs `main_extra`, then calls `release()`: two-way
/// requests that only another thread of machine 1 can answer while `f` waits.
fn waiting_program(body: &str, main_extra: &str) -> String {
    format!(
        r#"
        remote class Other {{ int g(int x) {{ return x; }} }}
        remote class R {{
            Other o;
            Queue empty;
            Queue full;
            boolean waiting;
            boolean released;
            void init(Other o) {{
                this.o = o;
                this.empty = new Queue(1);
                this.full = new Queue(1);
                this.full.put(null);
            }}
            int f(int n) {{ this.waiting = true; {body} return 2 * n + 1; }}
            boolean isWaiting() {{ return this.waiting; }}
            void release() {{ this.released = true; this.empty.put(null); this.full.take(); }}
        }}
        class Helper {{
            static int got;
            static void call(R r, Queue done) {{ Helper.got = r.f(7); done.put(null); }}
        }}
        class M {{
            static void main() {{
                R r = new R() @ 1;
                r.init(new Other() @ 0);
                Queue done = new Queue(1);
                spawn Helper.call(r, done);
                while (!r.isWaiting()) {{ }}
                {main_extra}
                r.release();
                done.take();
                System.println(Str.fromLong(Helper.got));
            }}
        }}
    "#
    )
}

/// Every wait a handler can reach hands the drain role on: the handler comes
/// back with its value, and machine 1 answered `isWaiting()` and `release()`
/// meanwhile. The barrier takes part only with `main`, the other machine's
/// party.
#[test]
fn every_wait_a_handler_can_reach_hands_the_drain_role_on() {
    for (body, main_extra) in [
        ("this.full.put(null);", ""),
        ("this.empty.take();", ""),
        ("while (!this.released) { System.sleepMicros(50); }", ""),
        ("while (!this.released) { this.o = new Other() @ 0; }", ""),
        ("while (!this.released) { n = this.o.g(n); }", ""),
        ("Cluster.barrier();", "Cluster.barrier();"),
    ] {
        let c = compile(&waiting_program(body, main_extra), OptConfig::ALL).expect("compiles");
        let out = run_within_deadline(&c, RunOptions::default());
        assert_eq!((out.error, out.output.as_str()), (None, "15\n"), "{body}");
    }
}

/// A queue operation that finds room, or an item, does not wait: the
/// handler runs through on the thread that drained it (`corm-vm`'s
/// `drain::tests` counts the threads).
#[test]
fn a_queue_operation_that_need_not_wait_is_not_refused() {
    let src = waiting_program("Queue q = new Queue(1); q.put(null); q.take();", "");
    let c = compile(&src, OptConfig::ALL).expect("compiles");
    let out = run_within_deadline(&c, RunOptions::default());
    assert_eq!((out.error, out.output.as_str()), (None, "15\n"));
}

/// A drain site's request still has a queue phase — opened and closed by
/// the drain thread, back to back.
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
    let opts = RunOptions { trace: true, ..Default::default() };
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
}
