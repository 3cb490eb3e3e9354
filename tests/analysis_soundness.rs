//! Soundness properties of the static analyses: wherever the compiler
//! elides the cycle table or enables reuse, execution must still be
//! correct; wherever the runtime graph can genuinely cycle or share, the
//! analysis must have kept the table.

use corm::{compile, compile_and_run, run, OptConfig, RunOptions};
use proptest::prelude::*;

/// Generate a program that builds a statically-shaped nested structure
/// (no cycles, no sharing) and ships it. The analysis must prove it
/// acyclic and the ALL config must run without a single cycle lookup.
fn static_tree_program(widths: &[usize]) -> String {
    // classes C0 { C1 f0; C1 f1; ... } nested `widths.len()` deep, leaf
    // fields are ints. Every tree position gets its OWN builder function
    // and therefore its own allocation site — sibling fields sharing one
    // allocation site would (correctly, conservatively) be flagged as
    // potential sharing by the paper's seen-twice rule.
    let depth = widths.len();
    let mut classes = String::new();
    for (d, &width) in widths.iter().enumerate() {
        let fields: String =
            (0..width)
                .map(|i| {
                    if d + 1 == depth {
                        format!("int f{i};")
                    } else {
                        format!("C{} f{i};", d + 1)
                    }
                })
                .collect();
        classes.push_str(&format!("class C{d} {{ {fields} }}\n"));
    }
    let mut build = String::new();
    fn emit(build: &mut String, widths: &[usize], d: usize, path: String) {
        let depth = widths.len();
        let body: String = (0..widths[d])
            .map(|i| {
                if d + 1 == depth {
                    format!("o.f{i} = {i};")
                } else {
                    format!("o.f{i} = b_{path}_{i}();")
                }
            })
            .collect();
        build.push_str(&format!(
            "static C{d} b_{path}() {{ C{d} o = new C{d}(); {body} return o; }}\n"
        ));
        if d + 1 < depth {
            for i in 0..widths[d] {
                emit(build, widths, d + 1, format!("{path}_{i}"));
            }
        }
    }
    emit(&mut build, widths, 0, "r".to_string());
    format!(
        r#"
        {classes}
        remote class R {{
            int count(C0 c) {{ if (c == null) {{ return 0; }} return 1; }}
        }}
        class M {{
            {build}
            static void main() {{
                R r = new R() @ 1;
                System.println(Str.fromLong(r.count(b_r())));
            }}
        }}
        "#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statically_shaped_trees_need_no_cycle_table(
        widths in proptest::collection::vec(1usize..4, 1..4)
    ) {
        let src = static_tree_program(&widths);
        let out = compile_and_run(&src, OptConfig::ALL, RunOptions { machines: 2, ..Default::default() })
            .expect("compile failed");
        prop_assert!(out.error.is_none(), "{:?}", out.error);
        prop_assert_eq!(out.output.as_str(), "1\n");
        prop_assert_eq!(out.stats.cycle_lookups, 0,
            "analysis failed to remove the table for a pure tree");
        prop_assert_eq!(out.stats.type_info_bytes, 0,
            "statically shaped trees need no wire type info");
    }
}

#[test]
fn genuinely_cyclic_programs_keep_the_table() {
    // If the analysis ever claimed this acyclic, serialization without a
    // handle table would loop forever — so this test both checks the
    // verdict and proves the run terminates correctly.
    let src = r#"
        class Node { Node next; }
        remote class R {
            int probe(Node n) {
                if (n.next.next == n) { return 2; }
                return 0;
            }
        }
        class M {
            static void main() {
                Node a = new Node();
                Node b = new Node();
                a.next = b;
                b.next = a;
                R r = new R() @ 1;
                System.println(Str.fromLong(r.probe(a)));
            }
        }
    "#;
    let compiled = compile(src, OptConfig::ALL).unwrap();
    let site = compiled
        .analysis
        .sites
        .values()
        .find(|s| compiled.module.table.method(s.method).name == "probe")
        .unwrap();
    assert!(site.args_cycle.holds, "soundness: a real cycle must be detected");
    assert_eq!(site.args_cycle.rule, "revisit");
    let out = run(&compiled, RunOptions { machines: 2, ..Default::default() });
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "2\n");
    assert!(out.stats.cycle_lookups > 0);
}

#[test]
fn shared_argument_pairs_keep_the_table() {
    // Figure 8: the same object passed twice.
    let src = r#"
        class B { int v; }
        remote class R {
            int bar(B x, B y) { x.v = 5; return y.v; }
        }
        class M {
            static void main() {
                B b = new B();
                R r = new R() @ 1;
                System.println(Str.fromLong(r.bar(b, b)));
            }
        }
    "#;
    let compiled = compile(src, OptConfig::ALL).unwrap();
    let site = compiled
        .analysis
        .sites
        .values()
        .find(|s| compiled.module.table.method(s.method).name == "bar")
        .unwrap();
    assert!(site.args_cycle.holds, "Fig 8: aliased argument pair requires the table");
    assert_eq!(site.args_cycle.rule, "revisit");
    let out = run(&compiled, RunOptions { machines: 2, ..Default::default() });
    assert_eq!(out.output, "5\n", "sharing must survive the wire");
}

#[test]
fn reuse_disabled_when_callee_stores_argument() {
    // If the callee keeps the argument, the reuse cache must stay off —
    // otherwise the next call would overwrite live state.
    let src = r#"
        class Item { int v; }
        remote class Keeper {
            Item kept;
            void keep(Item i) { this.kept = i; }
            int stored() { return this.kept.v; }
        }
        class M {
            static void main() {
                Keeper k = new Keeper() @ 1;
                Item a = new Item();
                a.v = 1;
                k.keep(a);
                Item b = new Item();
                b.v = 2;
                k.keep(b);
                System.println(Str.fromLong(k.stored()));
            }
        }
    "#;
    let compiled = compile(src, OptConfig::ALL).unwrap();
    let site = compiled
        .analysis
        .sites
        .values()
        .find(|s| compiled.module.table.method(s.method).name == "keep")
        .expect("keep site");
    assert!(!site.arg_reuse[0].holds, "escaping argument must not be reuse-cached");
    assert_eq!(site.arg_reuse[0].rule, "escapes-remote-field");
    let out = run(&compiled, RunOptions { machines: 2, ..Default::default() });
    assert_eq!(out.output, "2\n");
    assert_eq!(out.stats.reused_objs, 0);
}

#[test]
fn reuse_cache_does_not_leak_state_between_calls() {
    // The callee reads the argument; reuse recycles the buffer. Every
    // call must observe exactly the freshly sent values, never stale ones.
    let src = r#"
        remote class R {
            long acc;
            void absorb(long[] xs) {
                long s = 0;
                for (int i = 0; i < xs.length; i++) { s += xs[i]; }
                this.acc = this.acc + s;
            }
            long total() { return this.acc; }
        }
        class M {
            static void main() {
                R r = new R() @ 1;
                long[] xs = new long[4];
                for (int round = 1; round <= 10; round++) {
                    for (int i = 0; i < 4; i++) { xs[i] = round * 10 + i; }
                    r.absorb(xs);
                }
                System.println(Str.fromLong(r.total()));
            }
        }
    "#;
    // expected: sum over rounds of (4*round*10 + 0+1+2+3)
    let expected: i64 = (1..=10).map(|r| 4 * r * 10 + 6).sum();
    for cfg in [OptConfig::SITE_CYCLE, OptConfig::ALL] {
        let out =
            compile_and_run(src, cfg, RunOptions { machines: 2, ..Default::default() }).unwrap();
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.output, format!("{expected}\n"));
    }
    let reuse =
        compile_and_run(src, OptConfig::ALL, RunOptions { machines: 2, ..Default::default() })
            .unwrap();
    assert!(reuse.stats.reused_objs >= 9, "buffer recycled on calls 2..10");
}

#[test]
fn analysis_fixpoint_handles_mutual_recursion() {
    // Mutually recursive remote identity functions — the (logical,
    // physical) tuple rule must terminate the data-flow (Figs. 3/4).
    let src = r#"
        remote class A {
            B peer;
            void wire(B b) { this.peer = b; }
            Object ping(Object o, int n) {
                if (n == 0) { return o; }
                return this.peer.pong(o, n - 1);
            }
        }
        remote class B {
            A peer;
            void wire(A a) { this.peer = a; }
            Object pong(Object o, int n) {
                if (n == 0) { return o; }
                return this.peer.ping(o, n - 1);
            }
        }
        class M {
            static void main() {
                A a = new A() @ 0;
                B b = new B() @ 1;
                a.wire(b);
                b.wire(a);
                Object o = new Object();
                Object back = a.ping(o, 6);
                if (back != null) { System.println("ok"); }
            }
        }
    "#;
    let compiled = compile(src, OptConfig::ALL).unwrap();
    assert!(
        compiled.analysis.points_to.rounds < 100,
        "tuple rule must bound the fixpoint, took {} rounds",
        compiled.analysis.points_to.rounds
    );
    let out = run(&compiled, RunOptions { machines: 2, ..Default::default() });
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "ok\n");
}

#[test]
fn site_plans_never_mistype_under_polymorphism() {
    // A call site that the analysis can only partially resolve must fall
    // back to dynamic serialization rather than guessing a class.
    let src = r#"
        class P { int x; }
        class Q { double y; }
        remote class R {
            int probe(Object o) {
                if (o == null) { return 0; }
                return 1;
            }
        }
        class M {
            static void main() {
                R r = new R() @ 1;
                Object o = new P();
                if (Cluster.machines() > 1) { o = new Q(); }
                System.println(Str.fromLong(r.probe(o)));
                System.println(Str.fromLong(r.probe(null)));
            }
        }
    "#;
    for (name, cfg) in OptConfig::TABLE_ROWS {
        let out =
            compile_and_run(src, cfg, RunOptions { machines: 2, ..Default::default() }).unwrap();
        assert!(out.error.is_none(), "[{name}] {:?}", out.error);
        assert_eq!(out.output, "1\n0\n");
    }
}

/// `ir::opt` is not redundant beside the VM's linker: store freshness
/// (DESIGN §4.2) sees through the temporaries the front end lowers to only
/// after the pass's per-block constant and copy propagation. Lowered
/// without it, superopt's three `Program` sites lose their acyclic verdict,
/// and Table 6's counters would move.
#[test]
fn superopt_program_sites_are_acyclic_only_after_the_cfg_optimizer() {
    use corm_ir::{lower_program, parse_program, resolve_program, CallSiteId, Module};
    let src = corm_apps::SUPEROPT.source;
    let lowered = lower_program(&resolve_program(&parse_program(src).unwrap()).unwrap()).unwrap();
    let optimized = corm_ir::compile_frontend(src).unwrap();
    let verdicts = |m: &Module| {
        let a = corm_analysis::analyze_module(m, Default::default());
        [25, 29, 31].map(|site| {
            let info = &a.sites[&CallSiteId(site)];
            let f = &info.args_cycle;
            (m.table.method(info.method).name.clone(), f.holds, f.rule)
        })
    };
    let expect = |holds, rule| {
        ["configure", "submit", "submit"].map(|method| (method.to_string(), holds, rule))
    };
    assert_eq!(verdicts(&optimized), expect(false, "traversal-complete"));
    assert_eq!(verdicts(&lowered), expect(true, "nonfresh-element-store"));
}
