//! RMI-specific escape analysis (paper §3.3, Figures 10/11).
//!
//! An argument object graph deserialized on the callee side can be reused
//! by the next invocation of the same unmarshaler iff no object of the
//! graph outlives the remote method. The paper's rule: "an object also
//! escapes if recursively any of the objects it refers to escapes."
//!
//! We compute, per function `F`, the set of *escaping* heap nodes:
//! everything reachable from
//!   * static variables (Fig. 11's `d = a.d`),
//!   * the queue blob (values handed to other threads),
//!   * remote-class instances (a store into a field of the remote `this`
//!     keeps the value alive across calls),
//!   * `F`'s return values (the value leaves the invocation).
//!
//! The first three are the same for every function:
//! [`global_root_categories`] defines them, once.
//!
//! A parameter is reusable iff nothing reachable from its points-to set is
//! escaping. Return-value reuse at a call site applies the same rule in
//! the *caller*: the deserialized result graph must not escape the calling
//! function.

use corm_ir::{FuncId, Module, Ty};

use crate::graph::{HeapGraph, NodeSet};
use crate::points_to::PointsTo;
use crate::provenance::Finding;

/// One category of escape roots: the rule a reuse finding names when the
/// graph reaches it, and everything reachable from the roots (the roots
/// included).
#[derive(Debug, Clone)]
pub struct RootCategory {
    pub rule: &'static str,
    pub what: &'static str,
    pub reach: NodeSet,
}

/// The escape roots shared by every function, one category each: statics,
/// the queue blob, and the fields of remote-class instances (which
/// survive across invocations). [`explain_reuse`] checks them in this
/// order, so the most global category a graph reaches names the witness.
/// Each category's closure is computed here, once per module.
pub fn global_root_categories(m: &Module, g: &HeapGraph) -> [RootCategory; 3] {
    let remote_fields = g
        .nodes
        .iter()
        .filter(|n| matches!(n.ty, Ty::Class(c) if m.table.class(c).is_remote))
        .flat_map(|n| n.fields.iter().flatten());
    [
        RootCategory {
            rule: "escapes-static-store",
            what: "a static variable",
            reach: g.reachable(g.statics.iter().flatten().copied()),
        },
        RootCategory {
            rule: "escapes-thread-queue",
            what: "the thread-handoff queue blob",
            reach: g.reachable(g.blob.iter().copied()),
        },
        RootCategory {
            rule: "escapes-remote-field",
            what: "a field of a remote-class instance",
            reach: g.reachable(remote_fields.copied()),
        },
    ]
}

/// Nodes that escape *every* function: the union of the global root
/// categories' closures.
pub fn global_escape_roots(globals: &[RootCategory]) -> NodeSet {
    globals.iter().flat_map(|c| c.reach.iter().copied()).collect()
}

/// The escaping-node set of function `f`: everything reachable from the
/// global roots or from `f`'s return values.
pub fn escaping_nodes(pt: &PointsTo, globals: &[RootCategory], f: FuncId) -> NodeSet {
    let returned = pt.ret_pts[f.index()].iter().copied();
    pt.graph.reachable(global_escape_roots(globals).into_iter().chain(returned))
}

/// Is the graph rooted at `pts` free of escaping nodes (and therefore
/// reusable between invocations)?
pub fn is_reusable(g: &HeapGraph, pts: &NodeSet, escaping: &NodeSet) -> bool {
    let reach = g.reachable(pts.iter().copied());
    reach.is_disjoint(escaping)
}

/// May the graph rooted at `pts` inside function `f` be reused? When it
/// escapes, the finding names the first root category it reaches and the
/// first node reached both from the graph and from that category. The
/// verdict matches [`is_reusable`] against [`escaping_nodes`] exactly:
/// reachability distributes over the union of the categories, so the graph
/// meets the escaping set iff it meets one category's reachable set.
pub fn explain_reuse(pt: &PointsTo, globals: &[RootCategory], f: FuncId, pts: &NodeSet) -> Finding {
    let g = &pt.graph;
    let reach = g.reachable(pts.iter().copied());
    let returned = RootCategory {
        rule: "escapes-returned",
        what: "the enclosing function's return value",
        reach: g.reachable(pt.ret_pts[f.index()].iter().copied()),
    };
    for c in globals.iter().chain([&returned]) {
        if let Some(&hit) = reach.intersection(&c.reach).next() {
            let witness = format!("{hit} is reachable both from the parameter and from {}", c.what);
            return Finding::new(false, c.rule, witness);
        }
    }
    Finding::new(
        true,
        "no-escape",
        format!(
            "{} node(s) reachable from the parameter, disjoint from every escape root",
            reach.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points_to::analyze_points_to;
    use corm_ir::compile_frontend;
    use corm_ir::ssa::build_module_ssa;

    /// The reuse finding for the first parameter of `class.method`, checked
    /// against the reference: `is_reusable` over the escaping-set closure.
    fn param_reuse(src: &str, class: &str, method: &str) -> Finding {
        let m = compile_frontend(src).unwrap();
        let ssa = build_module_ssa(&m);
        let pt = analyze_points_to(&m, &ssa);
        let f = m
            .table
            .class_named(class)
            .and_then(|c| m.table.find_method(c, method))
            .and_then(|mm| m.func_of_method(mm))
            .unwrap();
        let globals = global_root_categories(&m, &pt.graph);
        let param = pt.param_pts(f, &ssa, 1);
        assert!(!param.is_empty(), "{method}");
        let finding = explain_reuse(&pt, &globals, f, param);
        let escaping = escaping_nodes(&pt, &globals, f);
        assert_eq!(finding.holds, is_reusable(&pt.graph, param, &escaping), "{method}");
        assert!(!finding.witness.is_empty());
        finding
    }

    /// Paper Figure 10: `foo(double[] a)` only reads `a` — reusable.
    #[test]
    fn fig10_array_param_reusable() {
        let src = r#"
            remote class Foo {
                double sum;
                void foo(double[] a) { this.sum = a[0] + a[1]; }
            }
            class M {
                static void main() {
                    Foo f = new Foo();
                    double[] a = new double[2];
                    f.foo(a);
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(finding.holds, "Fig 10: `a` never escapes");
        assert_eq!(finding.rule, "no-escape");
    }

    /// Paper Figure 11: `d = a.d` stores into a static — `a` escapes.
    #[test]
    fn fig11_static_store_escapes() {
        let src = r#"
            class Data { int v; }
            class Bar { Data d; }
            remote class Foo {
                static Data d;
                void foo(Bar a) { Foo.d = a.d; }
            }
            class M {
                static void main() {
                    Bar b = new Bar();
                    b.d = new Data();
                    Foo f = new Foo();
                    f.foo(b);
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(!finding.holds, "Fig 11: `d` escapes, therefore `a` escapes as well");
        assert_eq!(finding.rule, "escapes-static-store");
    }

    /// Storing into a field of the remote `this` keeps the argument alive.
    #[test]
    fn store_into_remote_this_escapes() {
        let src = r#"
            class Data { int v; }
            remote class Foo {
                Data keep;
                void foo(Data a) { this.keep = a; }
            }
            class M {
                static void main() {
                    Foo f = new Foo();
                    f.foo(new Data());
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(!finding.holds);
        assert_eq!(finding.rule, "escapes-remote-field");
    }

    /// Returning the argument makes it escape the invocation.
    #[test]
    fn returned_param_escapes() {
        let src = r#"
            class Data { int v; }
            remote class Foo {
                Data foo(Data a) { return a; }
            }
            class M {
                static void main() {
                    Foo f = new Foo();
                    Data d = f.foo(new Data());
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(!finding.holds);
        assert_eq!(finding.rule, "escapes-returned");
    }

    /// Values put into a Queue escape (another thread will take them).
    #[test]
    fn queue_put_escapes() {
        let src = r#"
            class Item { int v; }
            remote class Tester {
                Queue q;
                void submit(Item i) { this.q.put(i); }
            }
            class M {
                static void main() {
                    Tester t = new Tester();
                    t.submit(new Item());
                }
            }
        "#;
        let finding = param_reuse(src, "Tester", "submit");
        assert!(!finding.holds);
        assert_eq!(finding.rule, "escapes-thread-queue");
    }

    /// A local store inside the callee (into a fresh, dying object) does
    /// not make the parameter escape.
    #[test]
    fn store_into_local_temp_does_not_escape() {
        let src = r#"
            class Data { int v; }
            class Holder { Data d; }
            remote class Foo {
                int foo(Data a) {
                    Holder h = new Holder();
                    h.d = a;
                    return h.d.v;
                }
            }
            class M {
                static void main() {
                    Foo f = new Foo();
                    int x = f.foo(new Data());
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(finding.holds, "a store into a non-escaping local holder is harmless");
    }

    /// `explain_reuse` agrees with `is_reusable` and names the category.
    #[test]
    fn explain_matches_verdict_and_names_category() {
        let src = r#"
            class Data { int v; }
            class Bar { Data d; }
            remote class Foo {
                static Data d;
                void foo(Bar a) { Foo.d = a.d; }
                void bar(Bar a) { int x = a.d.v; }
            }
            class M {
                static void main() {
                    Bar b = new Bar();
                    b.d = new Data();
                    Foo f = new Foo();
                    f.foo(b);
                    f.bar(b);
                }
            }
        "#;
        for (meth, expect_reusable, expect_rule) in
            [("foo", false, "escapes-static-store"), ("bar", true, "no-escape")]
        {
            let finding = param_reuse(src, "Foo", meth);
            assert_eq!((finding.holds, finding.rule), (expect_reusable, expect_rule), "{meth}");
        }
    }

    /// A returned parameter's witness points at the return-value category.
    #[test]
    fn explain_returned_category() {
        let src = r#"
            class Data { int v; }
            remote class Foo {
                Data foo(Data a) { return a; }
            }
            class M {
                static void main() {
                    Foo f = new Foo();
                    Data d = f.foo(new Data());
                }
            }
        "#;
        let finding = param_reuse(src, "Foo", "foo");
        assert!(!finding.holds);
        assert_eq!(finding.rule, "escapes-returned");
        assert!(finding.witness.contains("return value"), "{}", finding.witness);
    }
}
