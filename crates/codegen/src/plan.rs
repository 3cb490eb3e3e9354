//! Marshal plan generation: the serializer programs of a module under one
//! configuration, with the verdicts each call site applies.

use std::collections::HashMap;

use corm_analysis::{AnalysisResult, Decision, PrimKind, SerNode, SiteProvenance};
use corm_ir::{CallSiteId, ClassKind, MethodId, Module, Ty};

/// The complete marshaling strategy for one remote call site.
#[derive(Debug, Clone)]
pub struct MarshalPlan {
    pub site: CallSiteId,
    pub method: MethodId,
    /// Serializer programs for the arguments (receiver excluded).
    pub args: Vec<SerNode>,
    /// Serializer program for the return value (None when void).
    pub ret: Option<SerNode>,
    /// Runtime cycle table needed while (de)serializing arguments.
    pub args_cycle_table: bool,
    /// Runtime cycle table needed for the return value.
    pub ret_cycle_table: bool,
    /// Per-argument reuse-cache enablement (callee side).
    pub arg_reuse: Vec<bool>,
    /// Return-value reuse-cache enablement (caller side).
    pub ret_reuse: bool,
    /// Reply degrades to a bare ack (return value ignored by the caller).
    pub ret_ignored: bool,
    pub is_spawn: bool,
    /// Static estimate of the marshaled argument payload size in bytes.
    /// Primes pooled marshal buffers so steady-state serialization never
    /// reallocates; a guess (arrays use a nominal element count), never a
    /// correctness input.
    pub args_wire_size_hint: usize,
    /// Static estimate of the marshaled return payload size in bytes.
    pub ret_wire_size_hint: usize,
    /// Applied provenance: why this plan keeps/elides the cycle table and
    /// enables/disables reuse under its configuration. Where the analysis decided, its rule and witness are
    /// carried over verbatim; where the configuration decided (e.g. `class`
    /// mode), the rule says so.
    pub provenance: SiteProvenance,
}

/// Which serializer engine generates/executes the plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// KaRMI/Manta-style class-specific serializers — the paper's `class`
    /// baseline.
    #[default]
    Class,
    /// Call-site-specific marshalers — the paper's contribution (§3.1).
    Site,
}

/// The optimization switchboard matching the paper's evaluation legend:
/// `class`, `site`, `site+cycle`, `site+reuse`, `site+reuse+cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptConfig {
    pub engine: EngineMode,
    /// §3.2: elide the cycle table where the heap analysis proves
    /// acyclicity. Without this flag the table is always used.
    pub cycle_elim: bool,
    /// §3.3: reuse argument/return object graphs where escape analysis
    /// allows.
    pub reuse: bool,
    /// §7 extension: treat single-field self-recursive spines (linked
    /// lists) as acyclic in the cycle analysis. Ablation only.
    pub list_extension: bool,
}

impl OptConfig {
    /// `class` row of the tables.
    pub const CLASS: OptConfig = OptConfig {
        engine: EngineMode::Class,
        cycle_elim: false,
        reuse: false,
        list_extension: false,
    };
    /// `site` row.
    pub const SITE: OptConfig = OptConfig {
        engine: EngineMode::Site,
        cycle_elim: false,
        reuse: false,
        list_extension: false,
    };
    /// `site + cycle` row.
    pub const SITE_CYCLE: OptConfig = OptConfig {
        engine: EngineMode::Site,
        cycle_elim: true,
        reuse: false,
        list_extension: false,
    };
    /// `site + reuse` row.
    pub const SITE_REUSE: OptConfig = OptConfig {
        engine: EngineMode::Site,
        cycle_elim: false,
        reuse: true,
        list_extension: false,
    };
    /// `site + reuse + cycle` row.
    pub const ALL: OptConfig = OptConfig {
        engine: EngineMode::Site,
        cycle_elim: true,
        reuse: true,
        list_extension: false,
    };
    /// The five configurations of the paper's tables, in table order.
    pub const TABLE_ROWS: [(&'static str, OptConfig); 5] = [
        ("class", OptConfig::CLASS),
        ("site", OptConfig::SITE),
        ("site + cycle", OptConfig::SITE_CYCLE),
        ("site + reuse", OptConfig::SITE_REUSE),
        ("site + reuse + cycle", OptConfig::ALL),
    ];

    pub fn label(&self) -> String {
        for (name, cfg) in Self::TABLE_ROWS {
            if cfg == *self {
                return name.to_string();
            }
        }
        format!("{self:?}")
    }
}

/// All compiled serializer programs for a module under one configuration.
#[derive(Debug, Clone)]
pub struct Plans {
    pub config: OptConfig,
    pub sites: HashMap<CallSiteId, MarshalPlan>,
    /// The per-class serializers (the `class` baseline of the evaluation;
    /// also the target of `Dynamic` dispatch in site mode), indexed by
    /// `ClassId`. Each is the [`SerNode::Inline`] of its class with
    /// [`SerNode::Prim`] for a primitive field and [`SerNode::Dynamic`] for
    /// every reference — a class serializer cannot know what its fields
    /// point at. `None` for a class that cannot cross the wire (a native
    /// instance).
    pub class_sers: Vec<Option<SerNode>>,
}

impl Plans {
    pub fn plan(&self, site: CallSiteId) -> Option<&MarshalPlan> {
        self.sites.get(&site)
    }
}

/// Generate all serializer programs for `m` under `config`, consuming the
/// analysis summary.
pub fn generate_plans(m: &Module, analysis: &AnalysisResult, config: OptConfig) -> Plans {
    let class_sers = m
        .table
        .classes
        .iter()
        .map(|c| {
            let fields = c.layout.iter().enumerate().map(|(slot, &fid)| {
                let program =
                    PrimKind::of(&m.table.field(fid).ty).map_or(SerNode::Dynamic, SerNode::Prim);
                (fid, slot as u32, program)
            });
            (c.kind != ClassKind::NativeInstance)
                .then(|| SerNode::Inline { class: c.id, fields: fields.collect() })
        })
        .collect();

    let mut sites = HashMap::new();
    for cs in m.remote_call_sites() {
        let Some(info) = analysis.sites.get(&cs.id) else { continue };
        let meth = m.table.method(info.method);

        let site_mode = config.engine == EngineMode::Site;
        let args: Vec<SerNode> = if site_mode {
            info.arg_shapes.clone()
        } else {
            // class baseline: the stub knows the method
            // signature (rmic-style) but every object is serialized
            // dynamically with full wire type information.
            meth.params.iter().map(|t| shallow_node_of_ty(m, t)).collect()
        };
        let ret = match (&meth.ret, &info.ret_shape) {
            (Ty::Void, _) => None,
            (_, Some(shape)) if site_mode => Some(shape.clone()),
            (rty, _) => Some(shallow_node_of_ty(m, rty)),
        };

        // Cycle table: always on unless the cycle-elimination optimization
        // is enabled AND the analysis proves acyclicity. Only site mode
        // has per-call-site knowledge ('class' cannot know the call site).
        let args_cycle_table = if config.cycle_elim && site_mode {
            info.args_may_cycle
        } else {
            args_need_table(&args)
        };
        let ret_cycle_table = if config.cycle_elim && site_mode {
            info.ret_may_cycle
        } else {
            ret.as_ref().map(node_needs_table).unwrap_or(false)
        };

        // Reuse: per-argument, only where escape analysis allows; the
        // paper evaluates reuse only together with site-specific
        // unmarshalers (a per-call-site cache slot), so we require site
        // mode as well.
        let arg_reuse: Vec<bool> = if config.reuse && site_mode {
            info.arg_reusable.clone()
        } else {
            vec![false; meth.params.len()]
        };
        let ret_reuse = config.reuse && site_mode && info.ret_reusable;

        // Applied provenance: rewrite the analysis' fact-level decisions
        // into what this configuration actually does at the site.
        let label = config.label();
        let analysis_decided = |aspect: &str| -> (&'static str, String) {
            match info.provenance.find(aspect) {
                Some(d) => (d.rule, d.witness.clone()),
                None => ("analysis-missing", "no recorded analysis decision".into()),
            }
        };
        let mut provenance = SiteProvenance::default();
        for (aspect, kept) in [("args.cycle", args_cycle_table), ("ret.cycle", ret_cycle_table)] {
            let (rule, witness) = if config.cycle_elim && site_mode {
                analysis_decided(aspect)
            } else if kept {
                (
                    "config-conservative",
                    format!(
                        "cycle elimination is off under '{label}'; \
                         every reference payload uses the table"
                    ),
                )
            } else {
                (
                    "no-reference-payload",
                    "only primitives, strings or remote handles cross the wire here; \
                     there is nothing a cycle table could deduplicate"
                        .into(),
                )
            };
            provenance.decisions.push(Decision {
                aspect: aspect.into(),
                verdict: if kept { "cycle_table_kept" } else { "cycle_table_elided" },
                rule,
                witness,
            });
        }
        let reuse_aspects = (1..=meth.params.len())
            .map(|i| (format!("arg{i}.reuse"), arg_reuse[i - 1]))
            .chain(std::iter::once(("ret.reuse".to_string(), ret_reuse)));
        for (aspect, enabled) in reuse_aspects {
            let (rule, witness) = if config.reuse && site_mode {
                analysis_decided(&aspect)
            } else {
                ("config-disables-reuse", format!("object reuse is off under '{label}'"))
            };
            provenance.decisions.push(Decision {
                aspect,
                verdict: if enabled { "reuse_enabled" } else { "reuse_disabled" },
                rule,
                witness,
            });
        }

        let args_wire_size_hint = args_size_hint(&args);
        let ret_wire_size_hint = ret.as_ref().map(node_size_hint).unwrap_or(0);
        sites.insert(
            cs.id,
            MarshalPlan {
                site: cs.id,
                method: info.method,
                args,
                ret,
                args_cycle_table,
                ret_cycle_table,
                arg_reuse,
                ret_reuse,
                ret_ignored: info.ret_ignored,
                is_spawn: info.is_spawn,
                args_wire_size_hint,
                ret_wire_size_hint,
                provenance,
            },
        );
    }

    Plans { config, sites, class_sers }
}

/// Nominal element count assumed for arrays/strings when estimating wire
/// size: big enough that small payloads never reallocate, small enough
/// that a pool of hints stays cheap. The hint is advisory — a marshal
/// that outgrows it just grows the buffer once, and the pooled buffer
/// keeps the larger capacity from then on.
const NOMINAL_ELEMS: usize = 16;
/// Flat estimate for payloads whose shape is unknown statically
/// (`Dynamic` dispatch, monomorphic recursion spines).
const OPAQUE_HINT: usize = 64;
/// Hints are clamped here so a deeply nested static shape cannot demand
/// a pathological up-front allocation.
const MAX_WIRE_SIZE_HINT: usize = 64 * 1024;

/// Static wire-size estimate for one argument list (sum of the per-node
/// hints, clamped to 64 KiB).
pub fn args_size_hint(args: &[SerNode]) -> usize {
    args.iter().map(node_size_hint).fold(0usize, usize::saturating_add).min(MAX_WIRE_SIZE_HINT)
}

/// Static wire-size estimate for one serializer program, mirroring the
/// byte layout the engine emits: primitives by value, presence bits
/// before references, u32 length prefixes before variable payloads.
pub fn node_size_hint(n: &SerNode) -> usize {
    let est = match n {
        SerNode::Prim(PrimKind::Bool) => 1,
        SerNode::Prim(PrimKind::I32) => 4,
        SerNode::Prim(PrimKind::I64) | SerNode::Prim(PrimKind::F64) => 8,
        // presence + u32 length + nominal body
        SerNode::Str => 1 + 4 + NOMINAL_ELEMS,
        // presence + machine + object id + class id
        SerNode::Remote => 1 + 2 + 4 + 4,
        SerNode::Inline { fields, .. } => {
            1 + fields.iter().map(|(_, _, f)| node_size_hint(f)).fold(0usize, usize::saturating_add)
        }
        SerNode::ArrPrim { elem } => 1 + 4 + NOMINAL_ELEMS * node_size_hint(&SerNode::Prim(*elem)),
        SerNode::ArrRef { elem, .. } => 1 + 4 + NOMINAL_ELEMS.saturating_mul(node_size_hint(elem)),
        // Type info on the wire, shape unknown: flat guess.
        SerNode::Dynamic => OPAQUE_HINT,
        // The spine length is a runtime property; charge a flat estimate
        // for the levels we cannot see.
        SerNode::Recur { .. } => OPAQUE_HINT,
    };
    est.min(MAX_WIRE_SIZE_HINT)
}

/// Does any sub-program require the handle table (i.e., contain references
/// that could alias)? Pure primitives/strings never do.
fn args_need_table(args: &[SerNode]) -> bool {
    args.iter().any(node_needs_table)
}

fn node_needs_table(n: &SerNode) -> bool {
    match n {
        SerNode::Prim(_) | SerNode::Str | SerNode::Remote | SerNode::Recur { .. } => false,
        // Without the cycle-elimination optimization every object-graph
        // serialization uses the table (the `class`/`site` rows).
        SerNode::Inline { .. }
        | SerNode::ArrPrim { .. }
        | SerNode::ArrRef { .. }
        | SerNode::Dynamic => true,
    }
}

/// Signature-level serializer node for the class baseline:
/// primitives and strings directly (rmic stubs do the same), remote
/// classes by reference, everything else fully dynamic.
fn shallow_node_of_ty(m: &Module, ty: &Ty) -> SerNode {
    if let Some(k) = PrimKind::of(ty) {
        return SerNode::Prim(k);
    }
    match ty {
        Ty::Str => SerNode::Str,
        Ty::Class(c) if m.table.class(*c).is_remote => SerNode::Remote,
        _ => SerNode::Dynamic,
    }
}

/// Pseudo-code dump of a marshal plan, in the style of the paper's
/// Figures 6, 7 and 13.
pub fn describe_plan(m: &Module, plan: &MarshalPlan) -> String {
    use std::fmt::Write;
    let meth = m.table.method(plan.method);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// call site {}: marshaler {}.{} ({})",
        plan.site.0,
        m.table.class(meth.owner).name,
        meth.name,
        if plan.args_cycle_table { "with cycle table" } else { "NO cycle table" }
    );
    let _ = writeln!(s, "message m = new message();");
    for (i, a) in plan.args.iter().enumerate() {
        describe_node(m, a, &format!("arg{}", i + 1), &mut s, 0);
    }
    let _ = writeln!(s, "m.send();");
    if plan.is_spawn {
        let _ = writeln!(s, "// one-way (spawn): no reply expected");
    } else if plan.ret_ignored {
        let _ = writeln!(s, "wait_for_ack(); // return value ignored at this site");
    } else if let Some(r) = &plan.ret {
        let _ = writeln!(s, "wait_for_return_value();");
        describe_node(m, r, "ret", &mut s, 0);
    } else {
        let _ = writeln!(s, "wait_for_ack();");
    }
    for (i, &ru) in plan.arg_reuse.iter().enumerate() {
        if ru {
            let _ = writeln!(
                s,
                "// unmarshaler keeps arg{} cached between calls (object reuse)",
                i + 1
            );
        }
    }
    if plan.ret_reuse {
        let _ = writeln!(s, "// caller keeps the deserialized return value cached (object reuse)");
    }
    s
}

fn describe_node(m: &Module, n: &SerNode, path: &str, s: &mut String, depth: usize) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    match n {
        SerNode::Prim(k) => {
            let _ = writeln!(s, "{pad}m.write_{}({path});", prim_name(*k));
        }
        SerNode::Str => {
            let _ = writeln!(s, "{pad}m.write_string({path}); // length + bytes, no type tag");
        }
        SerNode::Remote => {
            let _ = writeln!(s, "{pad}m.write_remote_ref({path});");
        }
        SerNode::Inline { class, fields, .. } => {
            let cname = &m.table.class(*class).name;
            let _ = writeln!(s, "{pad}// NOTE: {cname} is inferred by compiler analysis!");
            for (fid, _, node) in fields {
                let fname = &m.table.field(*fid).name;
                describe_node(m, node, &format!("{path}.{fname}"), s, depth);
            }
        }
        SerNode::ArrPrim { elem } => {
            let _ = writeln!(s, "{pad}m.write_int({path}.length);");
            let _ = writeln!(s, "{pad}m.write_{}_array({path}); // bulk copy", prim_name(*elem));
        }
        SerNode::ArrRef { elem, .. } => {
            let _ = writeln!(s, "{pad}m.write_int({path}.length);");
            let _ = writeln!(s, "{pad}for (int i = 0; i < {path}.length; i++) {{");
            describe_node(m, elem, &format!("{path}[i]"), s, depth + 1);
            let _ = writeln!(s, "{pad}}}");
        }
        SerNode::Dynamic => {
            let _ = writeln!(
                s,
                "{pad}serialize_dynamic({path}); // type tag + class serializer dispatch"
            );
        }
        SerNode::Recur { up } => {
            let _ = writeln!(
                s,
                "{pad}write_recursive({path}); // re-enter enclosing serializer ({up} up), no type info"
            );
        }
    }
}

fn prim_name(k: PrimKind) -> &'static str {
    match k {
        PrimKind::Bool => "boolean",
        PrimKind::I32 => "int",
        PrimKind::I64 => "long",
        PrimKind::F64 => "double",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_analysis::{analyze_module, AnalysisOptions};
    use corm_ir::{compile_frontend, ClassId};

    fn plans_for(src: &str, config: OptConfig) -> (Module, Plans) {
        let m = compile_frontend(src).unwrap();
        let opts = AnalysisOptions {
            cycle: corm_analysis::cycles::CycleOptions {
                assume_acyclic_self_lists: config.list_extension,
            },
        };
        let a = analyze_module(&m, opts);
        let p = generate_plans(&m, &a, config);
        (m, p)
    }

    const ARRAY_SRC: &str = r#"
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

    #[test]
    fn site_mode_array_is_static() {
        let (_m, p) = plans_for(ARRAY_SRC, OptConfig::ALL);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        match &plan.args[0] {
            SerNode::ArrRef { elem, .. } => {
                assert_eq!(**elem, SerNode::ArrPrim { elem: PrimKind::F64 })
            }
            other => panic!("expected static array program, got {other:?}"),
        }
        assert!(!plan.args_cycle_table, "cycle analysis proves acyclic (paper §4)");
        assert!(plan.arg_reuse[0], "escape analysis enables reuse (Fig 13)");
        assert!(plan.ret_ignored);
    }

    #[test]
    fn site_without_cycle_elim_keeps_table() {
        let (_m, p) = plans_for(ARRAY_SRC, OptConfig::SITE);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert!(plan.args_cycle_table, "'site' row keeps the cycle table");
        assert!(!plan.arg_reuse[0], "'site' row has no reuse");
    }

    #[test]
    fn class_mode_is_all_dynamic() {
        let (_m, p) = plans_for(ARRAY_SRC, OptConfig::CLASS);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert_eq!(plan.args[0], SerNode::Dynamic);
        assert!(plan.args_cycle_table);
    }

    #[test]
    fn prim_args_never_need_cycle_table() {
        let src = r#"
            remote class R { void f(int x, double y) { } }
            class M { static void main() { R r = new R(); r.f(1, 2.0); } }
        "#;
        let (_m, p) = plans_for(src, OptConfig::SITE);
        let plan = p.sites.values().find(|pl| pl.args.len() == 2).unwrap();
        assert!(!plan.args_cycle_table, "scalars cannot alias");
    }

    #[test]
    fn linked_list_cycle_table_depends_on_extension() {
        let src = r#"
            class LinkedList {
                LinkedList next;
                LinkedList(LinkedList next) { this.next = next; }
            }
            remote class Foo { void send(LinkedList l) { } }
            class M {
                static void main() {
                    LinkedList head = null;
                    for (int i = 0; i < 10; i++) { head = new LinkedList(head); }
                    Foo f = new Foo();
                    f.send(head);
                }
            }
        "#;
        let (_m, p) = plans_for(src, OptConfig::ALL);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert!(plan.args_cycle_table, "paper §7: lists conservatively keep the table");

        let ext = OptConfig { list_extension: true, ..OptConfig::ALL };
        let (_m, p) = plans_for(src, ext);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert!(!plan.args_cycle_table, "§7 extension removes the table");
    }

    #[test]
    fn class_sers_cover_all_classes() {
        let src = r#"
            class Node { Node next; int v; double[] row; String tag; boolean on; long big; }
            class Leaf extends Node { double w; Foo home; }
            remote class Foo { void send(Node n) { } }
            class M { static void main() { Foo f = new Foo(); f.send(new Leaf()); } }
        "#;
        let (m, p) = plans_for(src, OptConfig::CLASS);
        assert_eq!(p.class_sers.len(), m.table.classes.len());
        let rng = m.table.class_named("Rng").unwrap();
        assert_eq!(p.class_sers[rng.index()], None, "a native class cannot cross the wire");
        // The serializer is the class's inlined object: one entry per layout
        // slot, in slot order, `Prim` for a primitive field and `Dynamic`
        // for the rest.
        for (class, ser) in m.table.classes.iter().zip(&p.class_sers) {
            if class.kind == ClassKind::NativeInstance {
                assert_eq!(*ser, None, "{}", class.name);
                continue;
            }
            let Some(SerNode::Inline { class: id, fields }) = ser else {
                panic!("{} has no class serializer", class.name)
            };
            assert_eq!(*id, class.id);
            assert_eq!(fields.len(), class.layout.len(), "{}", class.name);
            for (slot, (&fid, entry)) in class.layout.iter().zip(fields).enumerate() {
                let program = match PrimKind::of(&m.table.field(fid).ty) {
                    Some(k) => SerNode::Prim(k),
                    None => SerNode::Dynamic,
                };
                assert_eq!(*entry, (fid, slot as u32, program), "{}", class.name);
            }
        }
        let leaf = m.table.class_named("Leaf").unwrap();
        let Some(SerNode::Inline { fields, .. }) = &p.class_sers[leaf.index()] else {
            panic!("Leaf has a class serializer")
        };
        let programs: Vec<&SerNode> = fields.iter().map(|(_, _, program)| program).collect();
        use PrimKind::{Bool, F64, I32, I64};
        use SerNode::{Dynamic, Prim};
        assert_eq!(
            programs,
            [
                &Dynamic,
                &Prim(I32),
                &Dynamic,
                &Dynamic,
                &Prim(Bool),
                &Prim(I64),
                &Prim(F64),
                &Dynamic
            ],
            "inherited slots first; arrays, strings and remote references are all `Dynamic`"
        );
    }

    #[test]
    fn describe_matches_fig13_style() {
        let (m, p) = plans_for(ARRAY_SRC, OptConfig::ALL);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        let text = describe_plan(&m, plan);
        assert!(text.contains("NO cycle table"));
        assert!(text.contains("bulk copy"));
        assert!(text.contains("object reuse"));
        assert!(text.contains("wait_for_ack"));
    }

    #[test]
    fn preset_labels() {
        assert_eq!(OptConfig::CLASS.label(), "class");
        assert_eq!(OptConfig::ALL.label(), "site + reuse + cycle");
    }

    #[test]
    fn size_hints_mirror_the_emitted_layout() {
        assert_eq!(node_size_hint(&SerNode::Prim(PrimKind::Bool)), 1);
        assert_eq!(node_size_hint(&SerNode::Prim(PrimKind::I32)), 4);
        assert_eq!(node_size_hint(&SerNode::Prim(PrimKind::I64)), 8);
        assert_eq!(node_size_hint(&SerNode::Prim(PrimKind::F64)), 8);
        assert_eq!(node_size_hint(&SerNode::Str), 1 + 4 + NOMINAL_ELEMS);
        assert_eq!(node_size_hint(&SerNode::Remote), 11);
        // presence + length + nominal f64 body
        assert_eq!(
            node_size_hint(&SerNode::ArrPrim { elem: PrimKind::F64 }),
            1 + 4 + NOMINAL_ELEMS * 8
        );
        // nested shapes multiply but stay clamped
        let deep = SerNode::ArrRef {
            elem_ty: Ty::Class(ClassId(0)),
            elem: Box::new(SerNode::ArrRef {
                elem_ty: Ty::Class(ClassId(0)),
                elem: Box::new(SerNode::ArrRef {
                    elem_ty: Ty::Class(ClassId(0)),
                    elem: Box::new(SerNode::ArrPrim { elem: PrimKind::F64 }),
                }),
            }),
        };
        assert_eq!(node_size_hint(&deep), MAX_WIRE_SIZE_HINT);
        assert_eq!(args_size_hint(&[]), 0);
        assert_eq!(
            args_size_hint(&[SerNode::Prim(PrimKind::I32), SerNode::Str]),
            4 + 1 + 4 + NOMINAL_ELEMS
        );
    }

    #[test]
    fn every_generated_plan_carries_size_hints() {
        for (_, config) in OptConfig::TABLE_ROWS {
            let (_m, p) = plans_for(ARRAY_SRC, config);
            let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
            // double[16][16] argument: at least presence + length bytes.
            assert!(plan.args_wire_size_hint >= 5, "{}", config.label());
            assert!(plan.args_wire_size_hint <= MAX_WIRE_SIZE_HINT);
            assert_eq!(plan.ret_wire_size_hint, 0, "void return has no ret hint");
        }
    }

    /// Applied provenance mirrors the plan's booleans under every table
    /// row, and carries the analysis witness where the analysis decided.
    #[test]
    fn provenance_matches_plan_under_all_rows() {
        for (_, config) in OptConfig::TABLE_ROWS {
            let (_m, p) = plans_for(ARRAY_SRC, config);
            let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
            let d = plan.provenance.find("args.cycle").expect("args.cycle");
            assert_eq!(
                d.verdict,
                if plan.args_cycle_table { "cycle_table_kept" } else { "cycle_table_elided" },
                "{}",
                config.label()
            );
            assert!(!d.witness.is_empty());
            let r = plan.provenance.find("arg1.reuse").expect("arg1.reuse");
            assert_eq!(
                r.verdict,
                if plan.arg_reuse[0] { "reuse_enabled" } else { "reuse_disabled" }
            );
            assert!(plan.provenance.find("ret.cycle").is_some());
            assert!(plan.provenance.find("ret.reuse").is_some());
        }
        // Under ALL, the elision is justified by the analysis traversal...
        let (_m, p) = plans_for(ARRAY_SRC, OptConfig::ALL);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert_eq!(plan.provenance.find("args.cycle").unwrap().rule, "traversal-complete");
        assert_eq!(plan.provenance.find("arg1.reuse").unwrap().rule, "no-escape");
        // ...under SITE the configuration is the reason.
        let (_m, p) = plans_for(ARRAY_SRC, OptConfig::SITE);
        let plan = p.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        assert_eq!(plan.provenance.find("args.cycle").unwrap().rule, "config-conservative");
        assert_eq!(plan.provenance.find("arg1.reuse").unwrap().rule, "config-disables-reuse");
    }
}
