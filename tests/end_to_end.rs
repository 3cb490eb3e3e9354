//! Cross-crate integration tests: whole MiniParty programs through the
//! full pipeline (front end → analyses → codegen → simulated cluster).

use corm::{compile_and_run, OptConfig, RunOptions, TransportKind};
use corm_fuzz::{check, Matrix};

/// `src` through the differential oracle on the channel: every
/// configuration, audited, prints `expected`, and the per-machine counters
/// obey the paper's cross-config invariants.
fn run_all_configs(src: &str, machines: usize, expected: &str) {
    let matrix = Matrix { machines, args: &[], transports: &[TransportKind::Channel], loss: None };
    let outcome = check(src, &matrix).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(outcome.output, expected);
}

#[test]
fn polymorphic_arguments_over_rmi() {
    // Figure 5's pattern, executed: both derived classes cross the wire.
    let src = r#"
        class Base { int tag() { return 0; } }
        class Derived1 extends Base { int data; int tag() { return 1; } }
        class Derived2 extends Base {
            Derived1 p;
            Derived2() { this.p = new Derived1(); this.p.data = 5; }
            int tag() { return 2; }
        }
        remote class Work {
            int foo(Base b) { return b.tag(); }
        }
        class M {
            static void main() {
                Work w = new Work() @ 1;
                Base b1 = new Derived1();
                Base b2 = new Derived2();
                System.println(Str.fromLong(w.foo(b1)));
                System.println(Str.fromLong(w.foo(b2)));
            }
        }
    "#;
    run_all_configs(src, 2, "1\n2\n");
}

#[test]
fn nested_remote_calls_across_three_machines() {
    let src = r#"
        remote class C {
            int triple(int x) { return x * 3; }
        }
        remote class B {
            C c;
            void wire(C c) { this.c = c; }
            int addTriple(int x) { return this.c.triple(x) + 1; }
        }
        class M {
            static void main() {
                C c = new C() @ 2;
                B b = new B() @ 1;
                b.wire(c);
                System.println(Str.fromLong(b.addTriple(10)));
            }
        }
    "#;
    run_all_configs(src, 3, "31\n");
}

#[test]
fn deep_object_graph_roundtrip() {
    let src = r#"
        class Tree {
            Tree left; Tree right; int v;
            Tree(Tree l, Tree r, int v) { this.left = l; this.right = r; this.v = v; }
        }
        remote class Summer {
            int sum(Tree t) {
                if (t == null) { return 0; }
                return t.v + sum(t.left) + sum(t.right);
            }
        }
        class M {
            static Tree build(int depth, int base) {
                if (depth == 0) { return null; }
                return new Tree(build(depth - 1, base * 2), build(depth - 1, base * 2 + 1), base);
            }
            static void main() {
                Summer s = new Summer() @ 1;
                Tree t = build(6, 1);
                System.println(Str.fromLong(s.sum(t)));
            }
        }
    "#;
    // sum of node labels of a complete binary tree built this way
    let expected = {
        fn build_sum(depth: i64, base: i64) -> i64 {
            if depth == 0 {
                0
            } else {
                base + build_sum(depth - 1, base * 2) + build_sum(depth - 1, base * 2 + 1)
            }
        }
        format!("{}\n", build_sum(6, 1))
    };
    run_all_configs(src, 2, &expected);
}

#[test]
fn shared_subgraph_identity_preserved() {
    // Two fields referencing the same object: after deserialization a
    // store through one must be visible through the other.
    let src = r#"
        class Cell { int v; }
        class Pair { Cell a; Cell b; }
        remote class R {
            int poke(Pair p) {
                p.a.v = 42;
                return p.b.v;
            }
        }
        class M {
            static void main() {
                Pair p = new Pair();
                Cell shared = new Cell();
                p.a = shared;
                p.b = shared;
                R r = new R() @ 1;
                System.println(Str.fromLong(r.poke(p)));
            }
        }
    "#;
    run_all_configs(src, 2, "42\n");
}

#[test]
fn string_arguments_and_returns() {
    let src = r#"
        remote class Greeter {
            String greet(String name) { return "hello, ".concat(name); }
        }
        class M {
            static void main() {
                Greeter g = new Greeter() @ 1;
                String s = g.greet("cluster");
                System.println(s);
                System.println(Str.fromLong(s.length()));
                System.println(Str.fromLong(s.hashCode()));
            }
        }
    "#;
    // Java hashCode of "hello, cluster"
    let h: i32 =
        "hello, cluster".chars().fold(0i32, |acc, c| acc.wrapping_mul(31).wrapping_add(c as i32));
    run_all_configs(src, 2, &format!("hello, cluster\n14\n{h}\n"));
}

#[test]
fn remote_refs_as_arguments() {
    // Passing remote references through RMIs: by reference, never cloned.
    let src = r#"
        remote class Counter {
            int n;
            void inc() { this.n = this.n + 1; }
            int get() { return this.n; }
        }
        remote class Driver {
            void bump(Counter c, int times) {
                for (int i = 0; i < times; i++) { c.inc(); }
            }
        }
        class M {
            static void main() {
                Counter c = new Counter() @ 0;
                Driver d = new Driver() @ 1;
                d.bump(c, 7);
                System.println(Str.fromLong(c.get()));
            }
        }
    "#;
    run_all_configs(src, 2, "7\n");
}

#[test]
fn null_arguments_and_returns() {
    let src = r#"
        class Box { int v; }
        remote class R {
            Box maybe(Box b, boolean give) {
                if (give) { return b; }
                return null;
            }
        }
        class M {
            static void main() {
                R r = new R() @ 1;
                Box b = r.maybe(null, false);
                if (b == null) { System.println("null1"); }
                Box c = r.maybe(new Box(), true);
                if (c != null) { System.println("got it"); }
                Box d = r.maybe(null, true);
                if (d == null) { System.println("null2"); }
            }
        }
    "#;
    run_all_configs(src, 2, "null1\ngot it\nnull2\n");
}

#[test]
fn many_machines() {
    let src = r#"
        remote class Node {
            int id;
            void setId(int id) { this.id = id; }
            int whoami() { return this.id * 100 + Cluster.my(); }
        }
        class M {
            static void main() {
                int p = Cluster.machines();
                Node[] nodes = new Node[p];
                for (int i = 0; i < p; i++) {
                    nodes[i] = new Node() @ i;
                    nodes[i].setId(i);
                }
                long acc = 0;
                for (int i = 0; i < p; i++) {
                    acc += nodes[i].whoami();
                }
                System.println(Str.fromLong(acc));
            }
        }
    "#;
    // sum over i of (i*100 + i) for 4 machines = 101*(0+1+2+3)
    run_all_configs(src, 4, "606\n");
}

#[test]
fn local_and_remote_same_semantics() {
    // The same program with the callee on machine 0 (local RPC) and on
    // machine 1 (remote) must print the same thing — and, the callee being
    // one function run by whoever holds the `Interp`, must marshal the same
    // way: a graph argument through one site and a graph return through
    // another, five times, cost the same lookups, serializer invocations,
    // type bytes, recycled objects and allocations wherever the object
    // lives. Only what counts the hop itself may differ.
    let template = |m: usize| {
        format!(
            r#"
            class Data {{ int v; Data next; }}
            remote class R {{
                int deref(Data d) {{ d.v = d.v + 1; return d.v + d.next.v; }}
                Data pair(int v) {{
                    Data d = new Data(); d.v = v;
                    d.next = new Data(); d.next.v = v + 1;
                    return d;
                }}
            }}
            class M {{
                static void main() {{
                    R r = new R() @ {m};
                    Data d = new Data();
                    d.v = 10;
                    d.next = new Data();
                    d.next.next = d;
                    int sum = 0;
                    for (int i = 0; i < 5; i++) {{
                        sum = sum + r.deref(d);
                        Data p = r.pair(i);
                        sum = sum + p.v + p.next.v;
                    }}
                    System.println(Str.fromLong(sum));
                    System.println(Str.fromLong(d.v));
                }}
            }}
            "#
        )
    };
    for cfg in [OptConfig::CLASS, OptConfig::ALL] {
        let [local, remote] = [0usize, 1].map(|m| {
            let opts = RunOptions { machines: 2, ..Default::default() };
            let out = compile_and_run(&template(m), cfg, opts).unwrap();
            assert!(out.error.is_none(), "{:?}", out.error);
            // the callee sees a fresh clone every time: 5 x 11, caller keeps 10
            assert_eq!(out.output, "80\n10\n", "[{}] placement @{m}", cfg.label());
            out.stats
        });
        assert_eq!((local.local_rpcs, local.remote_rpcs), (10, 0));
        assert_eq!((remote.local_rpcs, remote.remote_rpcs), (0, 10));
        let marshaling = |s: &corm::StatsSnapshot| {
            [s.cycle_lookups, s.ser_invocations, s.type_info_bytes, s.reused_objs, s.deser_allocs]
        };
        assert_eq!(marshaling(&local), marshaling(&remote), "[{}] @0 vs @1", cfg.label());
    }
}

#[test]
fn spawned_threads_share_remote_state() {
    let src = r#"
        remote class Sink {
            Queue q;
            long sum;
            boolean finished;
            void open() { this.q = new Queue(16); }
            boolean ready() { return this.q != null; }
            void pump(int n) {
                long s = 0;
                int seen = 0;
                while (seen < n) {
                    Object o = this.q.take();
                    String x = (String) o;
                    s += x.length();
                    seen++;
                }
                this.sum = s;
                this.finished = true;
            }
            void feed(String s) { this.q.put(s); }
            boolean isDone() { return this.finished; }
            long total() { return this.sum; }
        }
        class M {
            static void main() {
                Sink s = new Sink() @ 1;
                s.open();
                spawn s.pump(3);
                s.feed("a");
                s.feed("bb");
                s.feed("ccc");
                while (!s.isDone()) { System.sleepMicros(100); }
                System.println(Str.fromLong(s.total()));
            }
        }
    "#;
    // Not through the oracle: `main` polls `isDone()`, so how many calls it
    // makes, and so the message counts, follow the thread schedule. Only the
    // output is compared.
    for (name, cfg) in OptConfig::TABLE_ROWS {
        let out = compile_and_run(src, cfg, RunOptions { machines: 2, ..Default::default() })
            .expect("compile failed");
        assert!(out.error.is_none(), "[{name}] runtime error: {:?}", out.error);
        assert_eq!(out.output, "6\n", "[{name}] output mismatch");
    }
}

#[test]
fn timing_builtins_sane() {
    let src = r#"
        class M {
            static void main() {
                long t0 = System.timeMicros();
                System.sleepMicros(2000);
                long t1 = System.timeMicros();
                if (t1 - t0 >= 1500) { System.println("slept"); }
                else { System.println("broken"); }
            }
        }
    "#;
    let out = compile_and_run(src, OptConfig::CLASS, RunOptions::default()).unwrap();
    assert_eq!(out.output, "slept\n");
}

#[test]
fn ignored_return_becomes_ack() {
    // Same method, once with result used and once ignored: the ignored
    // call site must move fewer bytes (paper §3.1's ack optimization).
    let src_used = r#"
        remote class R { double[] make() { return new double[128]; } }
        class M { static void main() { R r = new R() @ 1; double[] d = r.make(); System.println(Str.fromLong(d.length)); } }
    "#;
    let src_ignored = r#"
        remote class R { double[] make() { return new double[128]; } }
        class M { static void main() { R r = new R() @ 1; r.make(); System.println("done"); } }
    "#;
    let used =
        compile_and_run(src_used, OptConfig::ALL, RunOptions { machines: 2, ..Default::default() })
            .unwrap();
    let ignored = compile_and_run(
        src_ignored,
        OptConfig::ALL,
        RunOptions { machines: 2, ..Default::default() },
    )
    .unwrap();
    assert!(used.error.is_none() && ignored.error.is_none());
    assert!(
        ignored.stats.wire_bytes + 1000 < used.stats.wire_bytes,
        "ignored-return site must not ship the 1KB array: {} vs {}",
        ignored.stats.wire_bytes,
        used.stats.wire_bytes
    );
}

#[test]
fn gc_during_rmi_traffic() {
    // Heavy allocation on the serving machine while requests arrive.
    let src = r#"
        remote class R {
            long acc;
            void take(double[] d) {
                double[] scratch = new double[256];
                scratch[0] = d[0];
                this.acc = this.acc + (long) scratch[0];
            }
            long total() { return this.acc; }
        }
        class M {
            static void main() {
                R r = new R() @ 1;
                double[] d = new double[8];
                for (int i = 0; i < 200; i++) {
                    d[0] = 1.0;
                    r.take(d);
                }
                System.println(Str.fromLong(r.total()));
            }
        }
    "#;
    run_all_configs(src, 2, "200\n");
}

#[test]
fn trace_records_the_rmi_pipeline() {
    let src = r#"
        remote class R { int f(int x) { return x + 1; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                System.println(Str.fromLong(r.f(1)));
                System.println(Str.fromLong(r.f(2)));
            }
        }
    "#;
    let c = corm::compile(src, OptConfig::ALL).unwrap();
    let out = corm::run(&c, RunOptions { machines: 2, trace: true, ..Default::default() });
    assert!(out.error.is_none(), "{:?}", out.error);
    use corm::TraceKind;
    let sends = out.trace.iter().filter(|e| matches!(e.kind, TraceKind::RmiSend { .. })).count();
    let handles = out.trace.iter().filter(|e| matches!(e.kind, TraceKind::Handle { .. })).count();
    let returns =
        out.trace.iter().filter(|e| matches!(e.kind, TraceKind::RmiReturn { .. })).count();
    let exports =
        out.trace.iter().filter(|e| matches!(e.kind, TraceKind::NewRemote { .. })).count();
    assert_eq!(sends, 2);
    assert_eq!(handles, 2);
    assert_eq!(returns, 2);
    assert_eq!(exports, 1);
    // the timeline renderer accepts the real trace
    let text = corm::render_timeline(&out.trace);
    assert!(text.contains("send") && text.contains("handle") && text.contains("return"));
    // tracing off by default
    let out2 = corm::run(&c, RunOptions { machines: 2, ..Default::default() });
    assert!(out2.trace.is_empty());
}
