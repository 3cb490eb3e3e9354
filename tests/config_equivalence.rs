//! The central meta-invariant of the reproduction: every optimization
//! configuration (plus the §7 list extension where sound) computes
//! byte-identical program output — the optimizations change performance,
//! never semantics.
//!
//! Each program here runs through the differential oracle,
//! `corm_fuzz::check`, on the channel: all five configurations, audited, the
//! output equal across them and the paper's cross-config counter invariants
//! held (equal message and call counts, cycle elision only removing lookups,
//! reuse only removing allocations, `site` never out-sending `class`).
//! Programs are generated from seeded templates so each run covers a family
//! of object-graph shapes and call patterns; the ablations below compare
//! named configurations directly.

use corm::{compile_and_run, CostModel, OptConfig, RunOptions, TransportKind};
use corm_fuzz::{check, Matrix};

/// The output `src` prints under every configuration, audited, on `machines`
/// machines over the channel; panics with the oracle's verdict otherwise.
fn assert_equivalent(src: &str, machines: usize) -> String {
    let matrix = Matrix { machines, args: &[], transports: &[TransportKind::Channel], loss: None };
    check(src, &matrix).unwrap_or_else(|f| panic!("{f}")).output
}

/// Seeded structural generator: builds a MiniParty program that
/// constructs a pseudo-random object graph (lists, trees, arrays with a
/// seeded mutation pattern), ships it over RMI and prints a structural
/// checksum computed remotely.
fn graph_program(seed: u64) -> String {
    let depth = 2 + (seed % 3);
    let fan = 1 + (seed % 2);
    let ints = 4 + (seed % 7);
    let mutate = seed % 5;
    format!(
        r#"
        class N {{
            N a; N b; int v;
            N(N a, N b, int v) {{ this.a = a; this.b = b; this.v = v; }}
        }}
        remote class R {{
            long walk(N n, int[] data) {{
                long s = 0;
                for (int i = 0; i < data.length; i++) {{ s += data[i] * (i + 1); }}
                return s + visit(n, 1);
            }}
            long visit(N n, int depth) {{
                if (n == null) {{ return 0; }}
                return n.v * depth + visit(n.a, depth * 2) + visit(n.b, depth * 2 + 1);
            }}
        }}
        class M {{
            static N build(int d, int v) {{
                if (d == 0) {{ return null; }}
                N left = build(d - 1, v * 3 + 1);
                N right = null;
                if ({fan} > 1) {{ right = build(d - 1, v * 3 + 2); }}
                return new N(left, right, v);
            }}
            static void main() {{
                N root = build({depth}, {seed} % 97);
                int[] data = new int[{ints}];
                for (int i = 0; i < data.length; i++) {{
                    data[i] = (i * 31 + {mutate}) % 13;
                }}
                R r = new R() @ 1;
                long first = r.walk(root, data);
                // mutate and resend: exercises reuse caches with changed payloads
                data[0] = data[0] + 1;
                long second = r.walk(root, data);
                System.println(Str.fromLong(first));
                System.println(Str.fromLong(second));
            }}
        }}
        "#
    )
}

#[test]
fn generated_graph_programs_agree_across_configs() {
    for seed in 0..12u64 {
        let src = graph_program(seed);
        assert_equivalent(&src, 2);
    }
}

/// Cyclic and shared structures: the dangerous cases for cycle-table
/// elision. The ALL config must keep tables exactly where needed.
#[test]
fn cyclic_and_shared_structures_agree() {
    for (label, link) in
        [("ring", "last.next = first;"), ("line", ""), ("self", "first.next = first;")]
    {
        let src = format!(
            r#"
            class Node {{ Node next; int v; }}
            remote class R {{
                int measure(Node n) {{
                    int count = 0;
                    Node cur = n;
                    while (cur != null && count < 50) {{
                        count++;
                        cur = cur.next;
                        if (cur == n) {{ return 1000 + count; }}
                    }}
                    return count;
                }}
            }}
            class M {{
                static void main() {{
                    Node first = new Node();
                    first.v = 1;
                    Node last = first;
                    for (int i = 0; i < 5; i++) {{
                        Node n = new Node();
                        n.v = i;
                        n.next = null;
                        last.next = n;
                        last = n;
                    }}
                    {link}
                    R r = new R() @ 1;
                    System.println(Str.fromLong(r.measure(first)));
                }}
            }}
            "#
        );
        let out = assert_equivalent(&src, 2);
        match label {
            "ring" => assert_eq!(out, "1006\n"),
            "line" => assert_eq!(out, "6\n"),
            "self" => assert_eq!(out, "1001\n"),
            _ => unreachable!(),
        }
    }
}

/// The §7 list extension is an *unsound-in-general* ablation; on programs
/// whose lists really are acyclic it must still agree with every other
/// configuration.
#[test]
fn list_extension_agrees_on_acyclic_lists() {
    let src = r#"
        class Node { Node next; int v; }
        remote class R {
            int len(Node n) {
                int c = 0;
                Node cur = n;
                while (cur != null) { c++; cur = cur.next; }
                return c;
            }
        }
        class M {
            static void main() {
                Node head = null;
                for (int i = 0; i < 17; i++) {
                    Node n = new Node();
                    n.next = head;
                    head = n;
                }
                R r = new R() @ 1;
                System.println(Str.fromLong(r.len(head)));
            }
        }
    "#;
    let base = assert_equivalent(src, 2);
    let ext = OptConfig { list_extension: true, ..OptConfig::ALL };
    let out = compile_and_run(src, ext, RunOptions { machines: 2, ..Default::default() }).unwrap();
    assert!(out.error.is_none());
    assert_eq!(out.output, base);
    assert_eq!(out.stats.cycle_lookups, 0, "extension elides the list's table");
}

/// Mixed primitive signatures across a parameter sweep.
#[test]
fn primitive_signature_sweep() {
    for (a, b) in [(0i64, 1i64), (7, -3), (2_000_000_000, 1 << 40), (-9, -9)] {
        let src = format!(
            r#"
            remote class Calc {{
                long mix(int a, long b, double c, boolean neg) {{
                    long r = a + b + (long) c;
                    if (neg) {{ return 0 - r; }}
                    return r;
                }}
            }}
            class M {{
                static void main() {{
                    Calc c = new Calc() @ 1;
                    System.println(Str.fromLong(c.mix({a}, {b}, 2.5, false)));
                    System.println(Str.fromLong(c.mix({a}, {b}, 0.5, true)));
                }}
            }}
            "#
        );
        let expect = format!("{}\n{}\n", a + b + 2, -(a + b));
        let got = assert_equivalent(&src, 2);
        assert_eq!(got, expect);
    }
}

/// Stats sanity across configurations: identical message and RPC counts
/// for a deterministic, poll-free program (the oracle's invariants).
#[test]
fn rpc_counts_identical_across_configs() {
    let src = r#"
        class Payload { double[] d; Payload() { this.d = new double[32]; } }
        remote class R {
            double take(Payload p) { return p.d[0]; }
        }
        class M {
            static void main() {
                R r = new R() @ 1;
                double acc = 0.0;
                for (int i = 0; i < 25; i++) { acc += r.take(new Payload()); }
                System.println(Str.fromDouble(acc));
            }
        }
    "#;
    assert_equivalent(src, 2);
}

/// Reuse-cache defeat: the array size alternates on every RMI, so the
/// size check of Figure 13 reallocates each time and `site + reuse`
/// degenerates to `site` — nothing is ever recycled. Nor is anything kept:
/// a candidate the size check rejects is unpinned with it, so the server
/// pins one cached buffer and its exported object however long it runs.
#[test]
fn alternating_array_sizes_defeat_the_reuse_cache() {
    let src = r#"
        remote class Sink {
            double acc;
            void take(double[] a) { this.acc = this.acc + a[0]; }
        }
        class M {
            static void main() {
                Sink s = new Sink() @ 1;
                int n = (int) Cluster.arg(0);
                for (int i = 0; i < n; i++) {
                    double[] a = new double[8 + (i % 2) * 8];
                    a[0] = i;
                    s.take(a);
                }
            }
        }
    "#;
    let opts = |n| RunOptions { machines: 2, args: vec![n], ..Default::default() };
    for (name, cfg) in [("site+cycle", OptConfig::SITE_CYCLE), ("all", OptConfig::ALL)] {
        let out = compile_and_run(src, cfg, opts(50)).unwrap();
        assert!(out.error.is_none(), "[{name}] {:?}", out.error);
        assert_eq!(out.stats.reused_objs, 0, "[{name}] the cached buffer never matches");
    }
    let pins_after = |n| {
        let compiled = corm::compile(src, OptConfig::ALL).unwrap();
        let main = compiled.module.main;
        let cluster = corm::Cluster::start(compiled.module, compiled.plans, &opts(n));
        assert!(cluster.run_clinits().is_none());
        let mut interp = corm_vm::interp::Interp::new(cluster.rt.clone(), 0);
        interp.run_function(main, Vec::new()).unwrap();
        let pins = cluster.rt.machine(1).state.lock().heap.pinned().count();
        assert!(cluster.finish(None).error.is_none());
        pins
    };
    assert_eq!(pins_after(50), 2, "the exported Sink and the one cached buffer");
    assert_eq!(pins_after(200), 2, "rejected candidates stayed pinned");
}

/// `lu`'s master unmarshals `flushRow` for two callers at once — the
/// local worker and the remote one — and each caller's rows are recycled
/// out of its own slot (DESIGN §4.3). What the reuse cache saves is then
/// a property of the program: the same in every run, and the same under
/// the two configurations that apply the same reuse plan.
#[test]
fn lu_reuse_counters_do_not_depend_on_the_schedule() {
    let stats = |cfg: OptConfig| {
        let out = corm_apps::LU.run_quick(cfg);
        assert!(out.error.is_none(), "[{}] {:?}", cfg.label(), out.error);
        out.metrics.machines.iter().map(|m| m.stats).collect::<Vec<_>>()
    };
    let reuse = |per_machine: &[corm::StatsSnapshot]| -> Vec<_> {
        per_machine.iter().map(|s| (s.reused_objs, s.deser_allocs, s.deser_bytes)).collect()
    };
    let (site_reuse, all) = (stats(OptConfig::SITE_REUSE), stats(OptConfig::ALL));
    assert_eq!(reuse(&site_reuse), reuse(&all), "site + reuse vs all");
    // Two flushRow sites x two callers, and getRow's return on each
    // machine: six slots, each filled by one allocation and never evicted.
    assert_eq!(all.iter().map(|s| s.deser_allocs).sum::<u64>(), 6);
    for _ in 0..2 {
        assert_eq!(stats(OptConfig::SITE_REUSE), site_reuse, "site + reuse moved between runs");
        assert_eq!(stats(OptConfig::ALL), all, "all moved between runs");
    }
}

/// Cost-model sensitivity: the full stack never loses to `class` on
/// modeled time, whether the modeled network is the default Myrinet, ten
/// times faster or ten times slower. Modeled time is a run's messages and
/// wire bytes priced by a [`CostModel`], so the claim is that `all` sends no
/// more messages and fewer bytes than `class`; one traced run per
/// configuration is priced under all three.
#[test]
fn all_beats_class_on_modeled_time_under_any_cost_model() {
    let run = |cfg: OptConfig| {
        let opts =
            RunOptions { machines: 2, args: vec![16, 10], trace: true, ..Default::default() };
        let out = corm::run(&corm_apps::ARRAY2D.compile(cfg), opts);
        assert!(out.error.is_none(), "[{}] {:?}", cfg.label(), out.error);
        out
    };
    let (all, class) = (run(OptConfig::ALL), run(OptConfig::CLASS));
    assert!(all.stats.messages <= class.stats.messages);
    assert!(all.stats.wire_bytes < class.stats.wire_bytes);
    let myrinet = CostModel::default();
    let fast = CostModel { latency_ns: 2_000, bandwidth_bytes_per_sec: 1_250_000_000 };
    let slow = CostModel { latency_ns: 100_000, bandwidth_bytes_per_sec: 12_500_000 };
    for (name, cost) in [("myrinet", myrinet), ("fast-net", fast), ("slow-net", slow)] {
        let modeled_ns = |out: &corm::RunOutcome| {
            let wire = corm::phase_report(&out.trace, |bytes| cost.message_ns(bytes));
            wire.values().map(|t| t.wire_modeled_us * 1_000).sum::<u64>()
        };
        // The report prices each message in whole µs, so a few bytes fewer
        // can round to the same figure.
        assert!(modeled_ns(&all) <= modeled_ns(&class), "[{name}]");
    }
}
