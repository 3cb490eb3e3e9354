//! The call-site serializer program, built from the heap analysis (paper
//! §3.1).
//!
//! "By performing heap analysis, we can often detect what type of object
//! is pointed to by a reference field at compile time and generate
//! specialized code to serialize the fields of the pointed-to object."
//!
//! [`shape_of`] turns the statically-proven structure of a value into the
//! [`SerNode`] tree the engine in `corm-codegen` runs: where the structure
//! is known the program inlines field copies and puts no type information
//! on the wire; where it is not, the node is `Dynamic` and the engine
//! falls back to tagged per-class dispatch (the `class` baseline
//! behaviour).

use corm_ir::{ClassId, ClassKind, FieldId, Module, Ty};

use crate::graph::{HeapGraph, NodeSet};

/// Primitive payload kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimKind {
    Bool,
    I32,
    I64,
    F64,
}

impl PrimKind {
    pub fn of(ty: &Ty) -> Option<PrimKind> {
        Some(match ty {
            Ty::Bool => PrimKind::Bool,
            Ty::Int => PrimKind::I32,
            Ty::Long => PrimKind::I64,
            Ty::Double => PrimKind::F64,
            _ => return None,
        })
    }

    /// The primitive type this kind carries.
    pub fn ty(self) -> Ty {
        match self {
            PrimKind::Bool => Ty::Bool,
            PrimKind::I32 => Ty::Int,
            PrimKind::I64 => Ty::Long,
            PrimKind::F64 => Ty::Double,
        }
    }
}

/// A serializer program node. Site-mode plans are trees of
/// statically-resolved nodes; `Dynamic` is the tagged fall-back (and the
/// entire program in class mode).
#[derive(Debug, Clone, PartialEq)]
pub enum SerNode {
    /// Copy a primitive by value — zero protocol bytes.
    Prim(PrimKind),
    /// Length + UTF-8 bytes behind a presence bit; no type tag.
    Str,
    /// Remote handle: machine + object id + class id, by reference.
    Remote,
    /// Statically-known concrete class: presence bit, then fields inlined
    /// in slot order. No type tag, no dispatch ("serialization code can be
    /// inlined at the RMI call site", §1; "Derived1 is inferred by
    /// compiler analysis!").
    Inline {
        class: ClassId,
        /// (field, slot, program) for every slot in layout order.
        fields: Vec<(FieldId, u32, SerNode)>,
    },
    /// Primitive array: presence bit, u32 length, bulk payload.
    ArrPrim { elem: PrimKind },
    /// Reference array with statically-known element program.
    ArrRef { elem_ty: Ty, elem: Box<SerNode> },
    /// Tagged dynamic serialization (type info on the wire, per-class
    /// serializer dispatch at runtime).
    Dynamic,
    /// Monomorphic recursion: re-enter the `Inline`/`ArrRef` program `up`
    /// levels above this position. Lets recursive types (linked lists,
    /// trees over one allocation site) serialize with zero type info —
    /// "inlined ... often even for referred-to objects" (paper §1).
    Recur { up: u32 },
}

impl SerNode {
    /// Short description for reports. `declared` is the static type of the
    /// slot the value is read from.
    pub fn describe(&self, m: &Module, declared: &Ty) -> String {
        match self {
            SerNode::Prim(k) => m.table.ty_name(&k.ty()),
            SerNode::Str => "String".into(),
            SerNode::Remote => format!("remote {}", m.table.ty_name(declared)),
            SerNode::Inline { class, fields } => {
                let fs: Vec<String> = fields
                    .iter()
                    .map(|(fid, _, node)| {
                        let f = m.table.field(*fid);
                        format!("{}: {}", f.name, node.describe(m, &f.ty))
                    })
                    .collect();
                format!("{}{{{}}}", m.table.class(*class).name, fs.join(", "))
            }
            SerNode::ArrPrim { elem } => format!("{}[] (bulk)", m.table.ty_name(&elem.ty())),
            SerNode::ArrRef { elem_ty, elem } => format!("[{}]", elem.describe(m, elem_ty)),
            SerNode::Dynamic => format!("dynamic<{}>", m.table.ty_name(declared)),
            SerNode::Recur { up } => format!("rec^{up}"),
        }
    }
}

/// Maximum inlining depth before degrading to `Dynamic` (guards against
/// pathological deep static structures).
const MAX_DEPTH: usize = 32;

/// The serializer program for a value of declared type `ty` whose
/// points-to set is `pts`.
pub fn shape_of(m: &Module, g: &HeapGraph, ty: &Ty, pts: &NodeSet) -> SerNode {
    let mut path = Vec::new();
    shape_rec(m, g, ty, pts, &mut path, 0)
}

fn shape_rec(
    m: &Module,
    g: &HeapGraph,
    ty: &Ty,
    pts: &NodeSet,
    path: &mut Vec<(NodeSet, Ty)>,
    depth: usize,
) -> SerNode {
    if let Some(k) = PrimKind::of(ty) {
        return SerNode::Prim(k);
    }
    match ty {
        Ty::Str => return SerNode::Str,
        Ty::Array(_) | Ty::Class(_) => {}
        _ => return SerNode::Dynamic,
    }
    if depth > MAX_DEPTH || pts.is_empty() {
        return SerNode::Dynamic;
    }
    // Recursion: re-encountering *exactly* the node set of an enclosing
    // position is monomorphic recursion — the sub-graph serializes by
    // re-entering the enclosing (inlined) program, with no type info.
    // Partial overlap is statically unbounded in an irregular way and
    // degrades to dynamic serialization.
    if let Some(idx) = path.iter().rposition(|(set, t)| set == pts && t == ty) {
        return SerNode::Recur { up: (path.len() - idx) as u32 };
    }
    if pts.iter().any(|n| path.iter().any(|(set, _)| set.contains(n))) {
        return SerNode::Dynamic;
    }

    // All nodes must agree on one concrete allocated type.
    let mut node_tys: Vec<&Ty> = pts.iter().map(|&n| &g.node(n).ty).collect();
    node_tys.dedup();
    let first = node_tys[0].clone();
    if !node_tys.iter().all(|t| **t == first) {
        return SerNode::Dynamic;
    }

    match first {
        Ty::Class(c) => {
            let cls = m.table.class(c);
            if cls.is_remote {
                return SerNode::Remote;
            }
            if cls.kind == ClassKind::NativeInstance {
                return SerNode::Dynamic;
            }
            path.push((pts.clone(), ty.clone()));
            let fields = cls
                .layout
                .iter()
                .map(|&fid| {
                    let fld = m.table.field(fid);
                    let mut targets = NodeSet::new();
                    for &n in pts {
                        if let Some(set) = g.node(n).fields.get(fld.slot) {
                            targets.extend(set.iter().copied());
                        }
                    }
                    let program = shape_rec(m, g, &fld.ty, &targets, path, depth + 1);
                    (fid, fld.slot as u32, program)
                })
                .collect();
            path.pop();
            SerNode::Inline { class: c, fields }
        }
        Ty::Array(elem) => {
            if let Some(k) = PrimKind::of(&elem) {
                return SerNode::ArrPrim { elem: k };
            }
            path.push((pts.clone(), ty.clone()));
            let mut targets = NodeSet::new();
            for &n in pts {
                targets.extend(g.node(n).elems.iter().copied());
            }
            let inner = shape_rec(m, g, &elem, &targets, path, depth + 1);
            path.pop();
            SerNode::ArrRef { elem_ty: *elem, elem: Box::new(inner) }
        }
        _ => SerNode::Dynamic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points_to::analyze_points_to;
    use corm_ir::compile_frontend;
    use corm_ir::ssa::build_module_ssa;

    fn site_arg_shape(src: &str, method: &str, arg: usize) -> (Module, SerNode) {
        let m = compile_frontend(src).unwrap();
        let ssa = build_module_ssa(&m);
        let pt = analyze_points_to(&m, &ssa);
        let cs = m
            .remote_call_sites()
            .find(|cs| cs.method.map(|mm| m.table.method(mm).name == method).unwrap_or(false))
            .expect("remote call site");
        let info = &pt.site_info[&cs.id];
        let mid = cs.method.unwrap();
        let pty = m.table.method(mid).params[arg - 1].clone();
        let shape = shape_of(&m, &pt.graph, &pty, &info.args[arg]);
        (m, shape)
    }

    /// Paper Figure 5/6: the compiler infers Derived1/Derived2 at the two
    /// call sites even though the declared parameter type is Base.
    #[test]
    fn fig5_call_site_specific_types() {
        let src = r#"
            class Base { }
            class Derived1 extends Base { int data; }
            class Derived2 extends Base { Derived1 p; Derived2() { this.p = new Derived1(); } }
            remote class Work {
                void foo(Base b) { }
            }
            class M {
                static void main() {
                    Work w = new Work();
                    Base b1 = new Derived1();
                    w.foo(b1);
                    Base b2 = new Derived2();
                    w.foo(b2);
                }
            }
        "#;
        let m = compile_frontend(src).unwrap();
        let ssa = build_module_ssa(&m);
        let pt = analyze_points_to(&m, &ssa);
        let sites: Vec<_> = m
            .remote_call_sites()
            .filter(|cs| cs.method.map(|mm| m.table.method(mm).name == "foo").unwrap_or(false))
            .collect();
        assert_eq!(sites.len(), 2);
        let base = m.table.class_named("Base").unwrap();
        let d1 = m.table.class_named("Derived1").unwrap();
        let d2 = m.table.class_named("Derived2").unwrap();
        let shapes: Vec<SerNode> = sites
            .iter()
            .map(|cs| {
                let info = &pt.site_info[&cs.id];
                shape_of(&m, &pt.graph, &Ty::Class(base), &info.args[1])
            })
            .collect();
        match &shapes[0] {
            SerNode::Inline { class, .. } => assert_eq!(*class, d1, "site 1 infers Derived1"),
            other => panic!("expected Inline(Derived1), got {other:?}"),
        }
        match &shapes[1] {
            SerNode::Inline { class, fields } => {
                assert_eq!(*class, d2, "site 2 infers Derived2");
                // Derived2.p must itself be Inline(Derived1) — the recursive
                // serializer call is eliminated (Fig. 6 second marshaler).
                assert!(matches!(&fields[0].2, SerNode::Inline { class, .. } if *class == d1));
            }
            other => panic!("expected Inline(Derived2), got {other:?}"),
        }
    }

    /// Paper Figure 12: a 16x16 double[][] is fully static.
    #[test]
    fn fig12_array_shape() {
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
        let (_m, shape) = site_arg_shape(src, "send", 1);
        let elem = SerNode::ArrPrim { elem: PrimKind::F64 };
        assert_eq!(shape, SerNode::ArrRef { elem_ty: Ty::Double.array_of(), elem: Box::new(elem) });
    }

    /// A recursive structure (linked list) becomes a recursive inline
    /// program, not a dynamic fallback.
    #[test]
    fn linked_list_shape_is_mono_recursive() {
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
        let (m, shape) = site_arg_shape(src, "send", 1);
        let ll = m.table.class_named("LinkedList").unwrap();
        match &shape {
            SerNode::Inline { class, fields } => {
                assert_eq!(*class, ll);
                // monomorphic recursion: `next` re-enters the enclosing
                // program — no type information per node (paper §1:
                // "inlined ... often even for referred-to objects")
                assert_eq!(fields[0].2, SerNode::Recur { up: 1 }, "next is mono-recursive");
            }
            other => panic!("expected Inline(LinkedList), got {other:?}"),
        }
    }

    /// Two different classes reaching one call site force Dynamic.
    #[test]
    fn mixed_classes_dynamic() {
        let src = r#"
            class A { }
            class B { }
            remote class R { void f(Object o) { } }
            class M {
                static void main() {
                    R r = new R();
                    Object o = new A();
                    if (Cluster.machines() > 1) { o = new B(); }
                    r.f(o);
                }
            }
        "#;
        let (m, shape) = site_arg_shape(src, "f", 1);
        assert_eq!(shape, SerNode::Dynamic);
        let object = Ty::Class(m.table.class_named("Object").unwrap());
        assert_eq!(shape.describe(&m, &object), "dynamic<Object>");
    }

    /// Remote references keep their by-reference shape.
    #[test]
    fn remote_ref_shape() {
        let src = r#"
            remote class Peer { void ping() { } }
            remote class R { void f(Peer p) { } }
            class M {
                static void main() {
                    R r = new R();
                    Peer p = new Peer();
                    r.f(p);
                }
            }
        "#;
        let (m, shape) = site_arg_shape(src, "f", 1);
        assert_eq!(shape, SerNode::Remote);
        let peer = Ty::Class(m.table.class_named("Peer").unwrap());
        assert_eq!(shape.describe(&m, &peer), "remote Peer");
    }

    /// Strings are static leaves.
    #[test]
    fn string_shape() {
        let src = r#"
            remote class R { void f(String s) { } }
            class M {
                static void main() { R r = new R(); r.f("hi"); }
            }
        "#;
        let (_m, shape) = site_arg_shape(src, "f", 1);
        assert_eq!(shape, SerNode::Str);
    }
}
