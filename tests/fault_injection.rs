//! Failure-path coverage: runtime faults on either side of an RMI must
//! surface as orderly errors (remote exceptions propagate to the caller,
//! Figure 1's semantics), never as hangs or panics of the harness.
//! TCP-transport faults (killed peers, teardown during traffic) are
//! covered at the bottom.

use corm::{compile_and_run, OptConfig, RunOptions, TransportKind};

fn expect_error_on(src: &str, machines: usize, needle: &str, transport: TransportKind) {
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions { machines, transport, ..Default::default() },
    )
    .expect("compile failed");
    let err = out
        .error
        .unwrap_or_else(|| panic!("expected error containing {needle:?}, output: {}", out.output));
    assert!(err.message.contains(needle), "expected {needle:?} in error, got: {}", err.message);
}

fn expect_error(src: &str, machines: usize, needle: &str) {
    expect_error_on(src, machines, needle, TransportKind::Channel);
}

#[test]
fn null_receiver() {
    expect_error(
        r#"
        remote class R { void f() { } }
        class M { static void main() { R r = null; r.f(); } }
        "#,
        2,
        "null receiver",
    );
}

#[test]
fn remote_division_by_zero_propagates() {
    expect_error(
        r#"
        remote class R { int div(int a, int b) { return a / b; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.div(1, 0))); } }
        "#,
        2,
        "division by zero",
    );
}

#[test]
fn remote_bounds_violation_propagates() {
    expect_error(
        r#"
        remote class R { int get(int[] a, int i) { return a[i]; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.get(new int[2], 9))); } }
        "#,
        2,
        "out of bounds",
    );
}

#[test]
fn remote_null_deref_propagates() {
    expect_error(
        r#"
        class Box { int v; }
        remote class R { int deref(Box b) { return b.v; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.deref(null))); } }
        "#,
        2,
        "null dereference",
    );
}

#[test]
fn bad_cast_after_rmi() {
    expect_error(
        r#"
        class P { int x; }
        class Q { int y; }
        remote class R { Object bounce(Object o) { return o; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                Object o = r.bounce(new P());
                Q q = (Q) o;
            }
        }
        "#,
        2,
        "class cast",
    );
}

#[test]
fn placement_out_of_range() {
    expect_error(
        r#"
        remote class R { void f() { } }
        class M { static void main() { R r = new R() @ 7; r.f(); } }
        "#,
        2,
        "out of range",
    );
}

#[test]
fn serializing_native_objects_fails_cleanly() {
    expect_error(
        r#"
        remote class R { void f(Object o) { } }
        class M { static void main() { R r = new R() @ 1; r.f(new Rng(1)); } }
        "#,
        2,
        "cannot be serialized",
    );
}

#[test]
fn stack_overflow_is_an_error_not_a_crash() {
    expect_error(
        r#"
        class M {
            static int inf(int n) { return inf(n + 1); }
            static void main() { System.println(Str.fromLong(inf(0))); }
        }
        "#,
        1,
        "stack overflow",
    );
}

#[test]
fn error_in_nested_rmi_chain_propagates_to_origin() {
    expect_error(
        r#"
        remote class C { int boom() { int[] a = new int[1]; return a[5]; } }
        remote class B {
            C c;
            void wire(C c) { this.c = c; }
            int relay() { return this.c.boom(); }
        }
        class M {
            static void main() {
                C c = new C() @ 0;
                B b = new B() @ 1;
                b.wire(c);
                System.println(Str.fromLong(b.relay()));
            }
        }
        "#,
        2,
        "out of bounds",
    );
}

#[test]
fn error_after_partial_output_keeps_output() {
    let src = r#"
        class M {
            static void main() {
                System.println("before");
                int x = 1 / 0;
            }
        }
    "#;
    let out = compile_and_run(src, OptConfig::CLASS, RunOptions::default()).unwrap();
    assert_eq!(out.output, "before\n");
    assert!(out.error.is_some());
}

#[test]
fn cluster_arg_out_of_range() {
    expect_error(
        r#"class M { static void main() { long x = Cluster.arg(5); } }"#,
        1,
        "out of range",
    );
}

#[test]
fn queue_capacity_must_be_positive() {
    expect_error(r#"class M { static void main() { Queue q = new Queue(0); } }"#, 1, "positive");
}

#[test]
fn negative_array_size() {
    expect_error(
        r#"class M { static void main() { int n = 0 - 3; int[] a = new int[n]; } }"#,
        1,
        "negative array size",
    );
}

#[test]
fn rng_bound_must_be_positive() {
    expect_error(
        r#"class M { static void main() { Rng g = new Rng(1); int x = g.nextInt(0); } }"#,
        1,
        "positive",
    );
}

// ---------------------------------------------------------------------
// Ids off the wire. A machine id in a remote reference or a packet
// header indexes the fabric's tables; one that names no machine must
// fail the call, or be dropped, without taking a thread down.
// ---------------------------------------------------------------------

const ECHO: &str = r#"
    remote class R { int echo(int x) { return x; } }
    class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.echo(1))); } }
"#;

/// A two-machine cluster running [`ECHO`]'s classes, and what a driver
/// needs to call `R.echo` by hand: the class, the method, its call site.
fn echo_cluster() -> (corm::Cluster, corm_ir::ClassId, corm_ir::MethodId, corm_ir::CallSiteId) {
    let compiled = corm::compile(ECHO, OptConfig::ALL).unwrap();
    let class = compiled.module.table.class_named("R").unwrap();
    let echo = compiled.module.table.find_method(class, "echo").unwrap();
    let site = compiled.plans.sites.values().find(|p| p.method == echo).unwrap().site;
    let cluster = corm::Cluster::start(compiled.module, compiled.plans, &RunOptions::default());
    assert!(cluster.run_clinits().is_none());
    (cluster, class, echo, site)
}

/// `new R() @ 1` from machine 0, then thirty echoes through it: what a
/// machine that "keeps calling" (and one that keeps serving) still does.
fn allocate_and_echo(
    interp: &mut corm_vm::interp::Interp,
    (class, echo, site): (corm_ir::ClassId, corm_ir::MethodId, corm_ir::CallSiteId),
) {
    use corm_heap::Value;
    use corm_vm::rmi;

    let machine = interp.machine.clone();
    let r = rmi::new_remote(interp, &mut machine.enter(), class, 1).unwrap();
    for x in 0..30 {
        let args = [r, Value::Int(x)];
        let guard = &mut machine.enter();
        let (v, _) =
            rmi::remote_call_with_req(interp, guard, site, echo, &args, true, false).unwrap();
        assert_eq!(v, Value::Int(x));
    }
}

#[test]
fn a_remote_reference_to_no_machine_fails_the_call() {
    use corm_heap::{ObjRef, RemoteRef, Value};
    use corm_vm::{interp::Interp, rmi};

    let (cluster, class, echo, site) = echo_cluster();
    let machine = cluster.rt.machine(0).clone();
    let mut interp = Interp::new(cluster.rt.clone(), 0);
    let forged = Value::Remote(RemoteRef { machine: 7, obj: ObjRef(1), class });
    let args = [forged, Value::Int(1)];
    let err = rmi::remote_call_with_req(
        &mut interp,
        &mut machine.enter(),
        site,
        echo,
        &args,
        true,
        false,
    )
    .expect_err("machine 7 of 2");
    assert!(err.message.contains("remote reference to machine 7, cluster has 2"), "{err}");
    assert!(cluster.finish(None).error.is_none());
}

#[test]
fn requests_from_no_machine_are_dropped_and_the_machine_keeps_serving() {
    use corm_net::Packet;
    use corm_vm::interp::Interp;

    let (cluster, class, echo, site) = echo_cluster();
    let rt = cluster.rt.clone();
    // Four forged requests, then a forged allocation; last, a real sender
    // naming a class the program does not have.
    for req_id in 0..4 {
        let forged = Packet::Request {
            req_id,
            from: 99,
            site: site.0,
            target_obj: 1,
            payload: vec![],
            oneway: false,
        };
        rt.net.send(0, 1, forged);
    }
    rt.net.send(0, 1, Packet::NewRemote { req_id: 4, from: 99, class: class.0 });
    // (Its error reply carries an id machine 0 will never mint.)
    rt.net.send(0, 1, Packet::NewRemote { req_id: u64::MAX, from: 0, class: u32::MAX });

    // Per-pair FIFO: machine 1 drains the forgeries before these calls.
    // Where one of them killed its drain thread the calls never return,
    // hence the bounded wait.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        allocate_and_echo(&mut Interp::new(rt, 0), (class, echo, site));
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("machine 1 stopped serving after the forged packets");
    caller.join().unwrap();
    let out = cluster.finish(None);
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output.matches("dropped a request from machine 99 of 2").count(), 5);
}

#[test]
fn a_short_allocation_reply_fails_that_allocation_and_the_machine_keeps_calling() {
    use corm_vm::{interp::Interp, rmi};

    let (cluster, class, echo, site) = echo_cluster();
    let rt = cluster.rt.clone();
    let machine0 = rt.machine(0).clone();
    // The id machine 0's next call will mint. Machine 1's drain thread serves
    // an allocation inline and under its machine lock: held here, it keeps
    // the real reply back until the forged one, three bytes where an object
    // id is four, has been handed over — through the reply table, with no
    // transport to race.
    let req = machine0.state.lock().next_req;
    let server = rt.machine(1).clone();
    let held = server.state.lock();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let machine = rt.machine(0).clone();
        let mut interp = Interp::new(rt.clone(), 0);
        let err = rmi::new_remote(&mut interp, &mut machine.enter(), class, 1)
            .expect_err("three bytes are no object id");
        assert_eq!(err.message, "remote allocation failed: short reply (3 of 4 bytes)");
        // The real reply, late, finds nobody waiting; the next allocation
        // and the calls on it go through.
        allocate_and_echo(&mut interp, (class, echo, site));
        let _ = done_tx.send(());
    });
    while machine0.pending.is_empty() {
        std::thread::yield_now();
    }
    machine0.pending.complete(req, Ok(vec![0; 3]));
    drop(held);
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("machine 0 stopped calling after the short reply");
    caller.join().unwrap();
    assert!(machine0.pending.is_empty(), "the late reply left an entry behind");
    let out = cluster.finish(None);
    assert!(out.error.is_none(), "{:?}", out.error);
}

// ---------------------------------------------------------------------
// TCP-transport faults. Remote errors must cross real sockets the same
// way they cross channels, and torn-down or killed fabrics must produce
// orderly errors (or clean exits) — never hangs.
// ---------------------------------------------------------------------

#[test]
fn tcp_remote_exception_propagates() {
    expect_error_on(
        r#"
        remote class R { int div(int a, int b) { return a / b; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.div(1, 0))); } }
        "#,
        2,
        "division by zero",
        TransportKind::Tcp,
    );
}

#[test]
fn tcp_nested_rmi_error_propagates_to_origin() {
    expect_error_on(
        r#"
        remote class C { int boom() { int[] a = new int[1]; return a[5]; } }
        remote class B {
            C c;
            void wire(C c) { this.c = c; }
            int relay() { return this.c.boom(); }
        }
        class M {
            static void main() {
                C c = new C() @ 0;
                B b = new B() @ 1;
                b.wire(c);
                System.println(Str.fromLong(b.relay()));
            }
        }
        "#,
        2,
        "out of bounds",
        TransportKind::Tcp,
    );
}

#[test]
fn tcp_runs_shut_down_cleanly_under_load() {
    // Heavy cross-machine traffic immediately followed by run teardown:
    // the whole fabric (listeners, readers, writers) must wind down
    // without hanging this test. Several iterations to catch races.
    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 200) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    for _ in 0..3 {
        let out = compile_and_run(
            src,
            OptConfig::ALL,
            RunOptions { machines: 3, transport: TransportKind::Tcp, ..Default::default() },
        )
        .unwrap();
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.output, "19900\n");
    }
}

#[test]
fn tcp_fault_injection_dumps_flight_recorder_with_failing_req() {
    // End-to-end power-cord pull over real sockets: the third request
    // toward machine 1 severs it mid-flight. The caller must get an
    // orderly error AND the run's flight dump must be a parseable JSON
    // artifact that names the failing request id.
    use corm::FaultSpec;

    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 50) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions {
            machines: 2,
            transport: TransportKind::Tcp,
            fault: Some(FaultSpec { victim: 1, after_sends: 3 }),
            ..Default::default()
        },
    )
    .expect("compile failed");
    let err = out.error.expect("severed peer must fail the pending RMI");
    assert!(
        err.message.contains("peer machine 1 disconnected"),
        "expected an orderly peer-gone error, got: {}",
        err.message
    );

    let dump = &out.flight;
    assert_eq!(dump.reason, "peer-gone");
    assert!(!dump.failing_reqs.is_empty(), "dump must name the failing request");
    let failing = dump.failing_reqs[0];
    // The failing request was recorded in flight: its Send on machine 0
    // and its Fail when the drain loop learned the peer was gone.
    let m0: Vec<_> = dump.machines[0].1.iter().collect();
    assert!(
        m0.iter().any(|e| e.req == failing && e.kind == corm::FlightKind::Send),
        "machine 0 must have the failing request's send: {m0:?}"
    );
    assert!(
        m0.iter().any(|e| e.req == failing && e.kind == corm::FlightKind::Fail),
        "machine 0 must have the failure event: {m0:?}"
    );

    // The JSON artifact round-trips: it contains the failing req id, the
    // transport, and balanced structure a parser can consume.
    let json = corm::render_flight_json(dump);
    assert!(json.contains("\"reason\": \"peer-gone\""));
    assert!(json.contains(&format!("\"failing_reqs\": [{failing}")));
    assert!(json.contains(&format!("\"req\": {failing}")));
    assert!(json.contains("\"transport\": \"tcp\""));
    assert!(json.contains("\"kind\": \"fail\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn channel_fault_injection_matches_tcp_semantics() {
    // The same fault on the in-process channel fabric: identical orderly
    // error and dump classification, so fault tests don't depend on
    // having sockets available.
    use corm::FaultSpec;

    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = r.echo(1) + r.echo(2) + r.echo(3);
                System.println(Str.fromLong(s));
            }
        }
    "#;
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions {
            machines: 2,
            fault: Some(FaultSpec { victim: 1, after_sends: 2 }),
            ..Default::default()
        },
    )
    .expect("compile failed");
    let err = out.error.expect("severed peer must fail the pending RMI");
    assert!(err.message.contains("peer machine 1 disconnected"), "{}", err.message);
    assert_eq!(out.flight.reason, "peer-gone");
    assert!(!out.flight.failing_reqs.is_empty());
    assert!(corm::render_flight_json(&out.flight).contains("\"transport\": \"channel\""));
}

// ---------------------------------------------------------------------
// Reactor-transport faults. The shared-event-loop fabric has failure
// modes TCP does not: frames a full socket left parked can be torn
// mid-buffer by a peer kill, and that write failure is discovered by a
// reactor thread rather than the sending thread.
// All of them must still surface as orderly PeerGone — never hangs.
// ---------------------------------------------------------------------

#[test]
fn reactor_remote_exception_propagates() {
    expect_error_on(
        r#"
        remote class R { int div(int a, int b) { return a / b; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.div(1, 0))); } }
        "#,
        2,
        "division by zero",
        TransportKind::Reactor,
    );
}

#[test]
fn reactor_nested_rmi_error_propagates_to_origin() {
    expect_error_on(
        r#"
        remote class C { int boom() { int[] a = new int[1]; return a[5]; } }
        remote class B {
            C c;
            void wire(C c) { this.c = c; }
            int relay() { return this.c.boom(); }
        }
        class M {
            static void main() {
                C c = new C() @ 0;
                B b = new B() @ 1;
                b.wire(c);
                System.println(Str.fromLong(b.relay()));
            }
        }
        "#,
        2,
        "out of bounds",
        TransportKind::Reactor,
    );
}

#[test]
fn reactor_runs_shut_down_cleanly_under_load() {
    // Same teardown hammer as the TCP variant, but here shutdown also
    // races the reactor pool: whatever is still parked in an outbound
    // buffer must be dropped without wedging a reactor thread.
    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 200) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    for _ in 0..3 {
        let out = compile_and_run(
            src,
            OptConfig::ALL,
            RunOptions { machines: 3, transport: TransportKind::Reactor, ..Default::default() },
        )
        .unwrap();
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.output, "19900\n");
    }
}

#[test]
fn reactor_fault_injection_dumps_flight_recorder_with_failing_req() {
    // End-to-end power-cord pull over the reactor fabric, mirroring the
    // TCP test: orderly error plus a parseable flight dump naming the
    // failing request and the reactor transport.
    use corm::FaultSpec;

    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 50) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions {
            machines: 2,
            transport: TransportKind::Reactor,
            fault: Some(FaultSpec { victim: 1, after_sends: 3 }),
            ..Default::default()
        },
    )
    .expect("compile failed");
    let err = out.error.expect("severed peer must fail the pending RMI");
    assert!(
        err.message.contains("peer machine 1 disconnected"),
        "expected an orderly peer-gone error, got: {}",
        err.message
    );
    assert_eq!(out.flight.reason, "peer-gone");
    assert!(!out.flight.failing_reqs.is_empty(), "dump must name the failing request");
    let json = corm::render_flight_json(&out.flight);
    assert!(json.contains("\"transport\": \"reactor\""));
    assert!(json.contains("\"kind\": \"fail\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

// ---------------------------------------------------------------------
// Lossy-transport faults. The datagram fabric already injects drops,
// duplicates and reordering by design (DESIGN §5.6); these tests cover
// the faults it must still surface *through* that machinery: remote
// exceptions crossing a lossy wire, killed peers, and the
// duplicate-PeerGone injection hook (a peer-death notice is itself a
// packet a flaky fabric can deliver twice — the VM must treat it
// idempotently).
// ---------------------------------------------------------------------

#[test]
fn lossy_remote_exception_propagates() {
    expect_error_on(
        r#"
        remote class R { int div(int a, int b) { return a / b; } }
        class M { static void main() { R r = new R() @ 1; System.println(Str.fromLong(r.div(1, 0))); } }
        "#,
        2,
        "division by zero",
        TransportKind::Lossy,
    );
}

#[test]
fn lossy_nested_rmi_error_propagates_to_origin() {
    expect_error_on(
        r#"
        remote class C { int boom() { int[] a = new int[1]; return a[5]; } }
        remote class B {
            C c;
            void wire(C c) { this.c = c; }
            int relay() { return this.c.boom(); }
        }
        class M {
            static void main() {
                C c = new C() @ 0;
                B b = new B() @ 1;
                b.wire(c);
                System.println(Str.fromLong(b.relay()));
            }
        }
        "#,
        2,
        "out of bounds",
        TransportKind::Lossy,
    );
}

#[test]
fn lossy_runs_shut_down_cleanly_under_heavy_loss() {
    // The teardown hammer at a 20% seeded fault rate: every drop has to
    // be healed by retransmission before the loop can finish, and the
    // fabric thread (with its pending retransmit timers) must wind down
    // without hanging the test.
    use corm::LossSpec;

    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 200) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions {
            machines: 3,
            transport: TransportKind::Lossy,
            loss: Some(LossSpec::seeded(0xBEEF, 0.20)),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "19900\n");
    let retransmits: u64 = out.metrics.machines.iter().map(|m| m.lossy_retransmits).sum();
    assert!(retransmits > 0, "a 20% drop rate must force retransmissions");
}

#[test]
fn lossy_fault_injection_dumps_flight_recorder_with_failing_req() {
    // End-to-end power-cord pull across the lossy fabric: orderly error
    // plus a parseable flight dump naming the failing request and the
    // lossy transport.
    use corm::FaultSpec;

    let src = r#"
        remote class R { int echo(int x) { return x; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                int s = 0;
                int i = 0;
                while (i < 50) { s = s + r.echo(i); i = i + 1; }
                System.println(Str.fromLong(s));
            }
        }
    "#;
    let out = compile_and_run(
        src,
        OptConfig::ALL,
        RunOptions {
            machines: 2,
            transport: TransportKind::Lossy,
            fault: Some(FaultSpec { victim: 1, after_sends: 3 }),
            ..Default::default()
        },
    )
    .expect("compile failed");
    let err = out.error.expect("severed peer must fail the pending RMI");
    assert!(
        err.message.contains("peer machine 1 disconnected"),
        "expected an orderly peer-gone error, got: {}",
        err.message
    );
    assert_eq!(out.flight.reason, "peer-gone");
    assert!(!out.flight.failing_reqs.is_empty(), "dump must name the failing request");
    let json = corm::render_flight_json(&out.flight);
    assert!(json.contains("  \"transport\": \"lossy\",\n  \"failing_reqs\""));
    assert_eq!(json.matches("\"transport\"").count(), 1, "an event carries the transport");
    assert!(json.contains("\"kind\": \"fail\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn errors_do_not_poison_subsequent_runs() {
    // A failing run followed by a succeeding one on fresh state.
    let bad = r#"class M { static void main() { int x = 1 / 0; } }"#;
    let good = r#"class M { static void main() { System.println("fine"); } }"#;
    let out1 = compile_and_run(bad, OptConfig::ALL, RunOptions::default()).unwrap();
    assert!(out1.error.is_some());
    let out2 = compile_and_run(good, OptConfig::ALL, RunOptions::default()).unwrap();
    assert!(out2.error.is_none());
    assert_eq!(out2.output, "fine\n");
}
