//! Per-remote-call-site analysis summary — the complete input to the code
//! generator (corm-codegen) and the optimization switchboard of the
//! evaluation (the paper's `site`, `cycle`, `reuse` columns).

use std::collections::HashMap;

use corm_ir::ssa::build_module_ssa;
use corm_ir::{CallSiteId, FuncId, MethodId, Module, Ty};

use crate::cycles::{may_cycle_explained, CycleOptions};
use crate::escape::{escaping_nodes, explain_reuse, is_reusable};
use crate::points_to::{analyze_points_to, PointsTo};
use crate::provenance::{Decision, SiteProvenance};
use crate::shape::{shape_of, SerNode};

/// Analysis configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    pub cycle: CycleOptions,
}

/// Everything the compiler statically knows about one remote call site.
#[derive(Debug, Clone)]
pub struct RemoteSiteInfo {
    pub site: CallSiteId,
    pub caller: FuncId,
    pub method: MethodId,
    /// Serializer programs of the arguments (receiver excluded — it is
    /// always a by-reference remote handle): what `site` mode runs.
    pub arg_shapes: Vec<SerNode>,
    /// Serializer program of the return value (None for void methods).
    pub ret_shape: Option<SerNode>,
    /// May the argument graph contain cycles/sharing? (§3.2)
    pub args_may_cycle: bool,
    /// May the return-value graph contain cycles/sharing?
    pub ret_may_cycle: bool,
    /// Per-argument reusability on the callee side (§3.3).
    pub arg_reusable: Vec<bool>,
    /// Reusability of the deserialized return value on the caller side.
    pub ret_reusable: bool,
    /// The caller discards the result — reply degrades to a bare ack.
    pub ret_ignored: bool,
    pub is_spawn: bool,
    /// Fact-level provenance: one [`Decision`] per verdict above
    /// (`args.cycle`, `ret.cycle`, `arg{i}.reuse`, `ret.reuse`), each with
    /// the rule that fired and a concrete witness.
    pub provenance: SiteProvenance,
}

/// Result of running all analyses over a module.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    pub points_to: PointsTo,
    pub sites: HashMap<CallSiteId, RemoteSiteInfo>,
    pub options: AnalysisOptions,
}

/// Run SSA construction, heap analysis, cycle analysis and escape analysis
/// over the whole module and summarize every remote call site.
pub fn analyze_module(m: &Module, options: AnalysisOptions) -> AnalysisResult {
    let ssa = build_module_ssa(m);
    let pt = analyze_points_to(m, &ssa);

    // Escape summaries are per function; compute lazily and memoize. Only
    // the debug build's cross-check of `explain_reuse` reads them.
    let mut escape_cache: HashMap<FuncId, crate::graph::NodeSet> = HashMap::new();
    let mut escaping_of = |f: FuncId, pt: &PointsTo| -> crate::graph::NodeSet {
        escape_cache.entry(f).or_insert_with(|| escaping_nodes(m, pt, f).escaping).clone()
    };

    let mut sites = HashMap::new();
    for cs in m.remote_call_sites() {
        let Some(mid) = cs.method else { continue };
        let meth = m.table.method(mid).clone();
        let Some(info) = pt.site_info.get(&cs.id) else { continue };
        let Some(callee_f) = m.func_of_method(mid) else { continue };

        // Argument shapes and cycle verdict (args[0] is the receiver).
        let arg_shapes: Vec<SerNode> = meth
            .params
            .iter()
            .enumerate()
            .map(|(i, pty)| shape_of(m, &pt.graph, pty, &info.args[i + 1]))
            .collect();
        let arg_roots: Vec<_> = info.args.iter().skip(1).cloned().collect();
        let mut provenance = SiteProvenance::default();
        let cycle_verdict = |mc: bool| if mc { "may_cycle" } else { "acyclic" };

        let args_finding = may_cycle_explained(&pt.graph, &arg_roots, options.cycle);
        let args_may_cycle = args_finding.may_cycle;
        provenance.decisions.push(Decision {
            aspect: "args.cycle".into(),
            verdict: cycle_verdict(args_may_cycle),
            rule: args_finding.rule,
            witness: args_finding.witness,
        });

        // Return shape and cycle verdict.
        let (ret_shape, ret_may_cycle) = if meth.ret == Ty::Void {
            provenance.decisions.push(Decision {
                aspect: "ret.cycle".into(),
                verdict: "acyclic",
                rule: "void-return",
                witness: "method returns void; the reply carries no object graph".into(),
            });
            (None, false)
        } else {
            let shape = shape_of(m, &pt.graph, &meth.ret, &info.callee_rets);
            let finding = may_cycle_explained(
                &pt.graph,
                std::slice::from_ref(&info.callee_rets),
                options.cycle,
            );
            provenance.decisions.push(Decision {
                aspect: "ret.cycle".into(),
                verdict: cycle_verdict(finding.may_cycle),
                rule: finding.rule,
                witness: finding.witness,
            });
            (Some(shape), finding.may_cycle)
        };

        // Callee-side argument reuse.
        let ssa_callee = &ssa[callee_f.index()];
        let arg_reusable: Vec<bool> = (1..=meth.params.len())
            .map(|i| {
                let pty = &meth.params[i - 1];
                let aspect = format!("arg{i}.reuse");
                if !pty.is_ref() {
                    provenance.decisions.push(Decision {
                        aspect,
                        verdict: "not_reusable",
                        rule: "primitive-argument",
                        witness: "argument is passed by value; there is no graph to reuse".into(),
                    });
                    return false; // primitives have nothing to reuse
                }
                let param_pts = &pt.var_pts[callee_f.index()][ssa_callee.params[i].index()];
                if param_pts.is_empty() {
                    provenance.decisions.push(Decision {
                        aspect,
                        verdict: "not_reusable",
                        rule: "no-allocation-site",
                        witness: "parameter points to no allocation site in the heap graph".into(),
                    });
                    return false;
                }
                let finding = explain_reuse(m, &pt, callee_f, param_pts);
                debug_assert_eq!(
                    finding.reusable,
                    is_reusable(&pt.graph, param_pts, &escaping_of(callee_f, &pt)),
                    "explain_reuse must agree with is_reusable"
                );
                provenance.decisions.push(Decision {
                    aspect,
                    verdict: if finding.reusable { "reusable" } else { "not_reusable" },
                    rule: finding.rule,
                    witness: finding.witness,
                });
                finding.reusable
            })
            .collect();

        // Caller-side return reuse.
        let ret_reusable = match (&info.dst, &meth.ret) {
            (Some(dst), rty) if rty.is_ref() && !dst.is_empty() => {
                let finding = explain_reuse(m, &pt, info.caller, dst);
                debug_assert_eq!(
                    finding.reusable,
                    is_reusable(&pt.graph, dst, &escaping_of(info.caller, &pt)),
                    "explain_reuse must agree with is_reusable"
                );
                provenance.decisions.push(Decision {
                    aspect: "ret.reuse".into(),
                    verdict: if finding.reusable { "reusable" } else { "not_reusable" },
                    rule: finding.rule,
                    witness: finding.witness,
                });
                finding.reusable
            }
            (_, rty) if !rty.is_ref() => {
                provenance.decisions.push(Decision {
                    aspect: "ret.reuse".into(),
                    verdict: "not_reusable",
                    rule: "no-reference-return",
                    witness: "return type carries no reusable heap graph".into(),
                });
                false
            }
            _ => {
                provenance.decisions.push(Decision {
                    aspect: "ret.reuse".into(),
                    verdict: "not_reusable",
                    rule: "no-allocation-site",
                    witness: "caller destination points to no allocation site".into(),
                });
                false
            }
        };

        sites.insert(
            cs.id,
            RemoteSiteInfo {
                site: cs.id,
                caller: info.caller,
                method: mid,
                arg_shapes,
                ret_shape,
                args_may_cycle,
                ret_may_cycle,
                arg_reusable,
                ret_reusable,
                ret_ignored: cs.ret_ignored,
                is_spawn: cs.is_spawn,
                provenance,
            },
        );
    }

    AnalysisResult { points_to: pt, sites, options }
}

impl AnalysisResult {
    /// Textual report of all remote call sites (used by examples and for
    /// the paper-figure dumps).
    pub fn report(&self, m: &Module) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let mut ids: Vec<_> = self.sites.keys().copied().collect();
        ids.sort();
        for id in ids {
            let info = &self.sites[&id];
            let meth = m.table.method(info.method);
            let caller = &m.func(info.caller).name;
            let _ = writeln!(
                s,
                "site {} in {}: remote {}.{}",
                id.0,
                caller,
                m.table.class(meth.owner).name,
                meth.name
            );
            for (i, (sh, pty)) in info.arg_shapes.iter().zip(&meth.params).enumerate() {
                let _ = writeln!(
                    s,
                    "  arg{}: {}  [reusable={}]",
                    i + 1,
                    sh.describe(m, pty),
                    info.arg_reusable[i]
                );
            }
            if let Some(r) = &info.ret_shape {
                let _ = writeln!(
                    s,
                    "  ret: {}  [reusable={}, ignored={}]",
                    r.describe(m, &meth.ret),
                    info.ret_reusable,
                    info.ret_ignored
                );
            }
            let _ =
                writeln!(s, "  cycles: args={} ret={}", info.args_may_cycle, info.ret_may_cycle);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::compile_frontend;

    fn analyze(src: &str) -> (Module, AnalysisResult) {
        let m = compile_frontend(src).unwrap();
        let r = analyze_module(&m, AnalysisOptions::default());
        (m, r)
    }

    fn site_for<'r>(m: &Module, r: &'r AnalysisResult, method: &str) -> &'r RemoteSiteInfo {
        r.sites.values().find(|s| m.table.method(s.method).name == method).expect("site")
    }

    /// Paper Figure 12: the generated summary for the array benchmark —
    /// static shape, no cycles, reusable argument.
    #[test]
    fn fig12_summary() {
        let src = r#"
            remote class Foo {
                void send(double[][] arr) { }
            }
            class M {
                static void main() {
                    double[][] arr = new double[16][16];
                    Foo f = new Foo();
                    f.send(arr);
                }
            }
        "#;
        let (m, r) = analyze(src);
        let s = site_for(&m, &r, "send");
        assert!(!s.args_may_cycle, "heap analysis proves no cycles (paper §4)");
        assert!(s.arg_reusable[0], "arr does not escape `send`");
        let elem = SerNode::ArrPrim { elem: crate::PrimKind::F64 };
        assert_eq!(
            s.arg_shapes[0],
            SerNode::ArrRef { elem_ty: Ty::Double.array_of(), elem: Box::new(elem) }
        );
        assert!(s.ret_ignored);
    }

    /// Paper Figure 14: the linked list keeps runtime cycle detection but
    /// its nodes are reusable.
    #[test]
    fn fig14_summary() {
        let src = r#"
            class LinkedList {
                LinkedList next;
                LinkedList(LinkedList next) { this.next = next; }
            }
            remote class Foo {
                void send(LinkedList l) { }
            }
            class M {
                static void main() {
                    LinkedList head = null;
                    for (int i = 0; i < 100; i++) { head = new LinkedList(head); }
                    Foo f = new Foo();
                    f.send(head);
                }
            }
        "#;
        let (m, r) = analyze(src);
        let s = site_for(&m, &r, "send");
        assert!(s.args_may_cycle, "lists are conservatively cyclic (paper §7)");
        assert!(s.arg_reusable[0], "list nodes do not escape");
    }

    /// The §7 extension flips the linked-list verdict.
    #[test]
    fn list_extension_changes_cycle_verdict() {
        let src = r#"
            class LinkedList {
                LinkedList next;
                LinkedList(LinkedList next) { this.next = next; }
            }
            remote class Foo { void send(LinkedList l) { } }
            class M {
                static void main() {
                    LinkedList head = null;
                    for (int i = 0; i < 5; i++) { head = new LinkedList(head); }
                    Foo f = new Foo();
                    f.send(head);
                }
            }
        "#;
        let m = compile_frontend(src).unwrap();
        let opts = AnalysisOptions {
            cycle: crate::cycles::CycleOptions { assume_acyclic_self_lists: true },
        };
        let r = analyze_module(&m, opts);
        let s = site_for(&m, &r, "send");
        assert!(!s.args_may_cycle);
    }

    /// Return-value reuse at the caller (webserver pattern, Table 8).
    #[test]
    fn webserver_return_reuse() {
        let src = r#"
            remote class Server {
                String getPage(String url) { return "page"; }
            }
            class M {
                static void main() {
                    Server s = new Server();
                    for (int i = 0; i < 10; i++) {
                        String page = s.getPage("u");
                    }
                }
            }
        "#;
        let (m, r) = analyze(src);
        let s = site_for(&m, &r, "getPage");
        assert_eq!(s.ret_shape, Some(SerNode::Str));
        assert!(!s.ret_may_cycle, "strings cannot be cyclic");
        // String return values have no heap nodes; callee ret set is empty
        // so ret_reusable is false at the analysis level (the VM caches
        // strings structurally instead). The arg string shape is static:
        assert_eq!(s.arg_shapes[0], SerNode::Str);
    }

    /// A returned argument is not reusable on the callee side.
    #[test]
    fn identity_method_not_reusable() {
        let src = r#"
            class Data { int v; }
            remote class R {
                Data id(Data d) { return d; }
            }
            class M {
                static void main() {
                    R r = new R();
                    Data d = r.id(new Data());
                }
            }
        "#;
        let (m, r) = analyze(src);
        let s = site_for(&m, &r, "id");
        assert!(!s.arg_reusable[0]);
    }

    #[test]
    fn report_renders() {
        let src = r#"
            remote class R { int f(double[] a) { return 0; } }
            class M {
                static void main() {
                    R r = new R();
                    int x = r.f(new double[4]);
                }
            }
        "#;
        let (m, r) = analyze(src);
        let rep = r.report(&m);
        assert!(rep.contains("remote R.f"));
        assert!(rep.contains("double[] (bulk)"));
    }

    /// Every verdict field of a site has a matching provenance decision,
    /// and decisions agree with the booleans they explain.
    #[test]
    fn provenance_covers_every_aspect_and_agrees() {
        let src = r#"
            class LinkedList {
                LinkedList next;
                LinkedList(LinkedList next) { this.next = next; }
            }
            remote class Foo {
                int send(LinkedList l, int n) { return n; }
            }
            class M {
                static void main() {
                    LinkedList head = null;
                    for (int i = 0; i < 5; i++) { head = new LinkedList(head); }
                    Foo f = new Foo();
                    int x = f.send(head, 3);
                }
            }
        "#;
        let (m, r) = analyze(src);
        let s = site_for(&m, &r, "send");
        let p = &s.provenance;
        let args = p.find("args.cycle").expect("args.cycle decision");
        assert_eq!(args.verdict, if s.args_may_cycle { "may_cycle" } else { "acyclic" });
        assert_eq!(args.rule, "revisit", "list spine is conservatively cyclic");
        assert!(args.witness.contains("reached twice"), "{}", args.witness);
        assert!(p.find("ret.cycle").is_some());
        for (i, &reusable) in s.arg_reusable.iter().enumerate() {
            let d = p.find(&format!("arg{}.reuse", i + 1)).expect("arg reuse decision");
            assert_eq!(d.verdict == "reusable", reusable);
            assert!(!d.witness.is_empty());
        }
        assert_eq!(
            p.find("arg2.reuse").unwrap().rule,
            "primitive-argument",
            "int argument is explained as by-value"
        );
        let ret = p.find("ret.reuse").expect("ret.reuse decision");
        assert_eq!(ret.verdict == "reusable", s.ret_reusable);
        assert!(!p.digest().is_empty());
    }
}
