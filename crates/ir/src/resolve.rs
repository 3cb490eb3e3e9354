//! Name resolution: builds the [`ClassTable`] from a parsed AST, registers
//! the built-in classes, computes field layouts and vtables, and enforces
//! the structural rules of MiniParty (no overloading, `remote` classes are
//! final and root-level, ...).

use std::collections::HashMap;

use crate::ast::*;
use crate::classes::*;
use crate::{CompileError, Span};

/// Result of resolution: the class table plus the original AST and a map
/// from user methods back to their AST bodies (consumed by lowering).
#[derive(Debug, Clone)]
pub struct ResolvedProgram {
    pub table: ClassTable,
    pub ast: AstProgram,
    /// `MethodId -> (class index, method index)` into `ast.classes`.
    pub method_src: HashMap<MethodId, (usize, usize)>,
    /// `ClassId -> class index` into `ast.classes` for user classes.
    pub class_src: HashMap<ClassId, usize>,
    /// The user class declaring `static void main()`.
    pub main_method: MethodId,
}

/// Resolve an AST into a [`ResolvedProgram`].
pub fn resolve_program(ast: &AstProgram) -> Result<ResolvedProgram, CompileError> {
    let mut r = Resolver::default();
    r.register_builtins();
    r.declare_classes(ast)?;
    r.link_supers(ast)?;
    r.declare_members(ast)?;
    r.build_layouts_and_vtables()?;
    let main_method = r.find_main()?;
    Ok(ResolvedProgram {
        table: r.table,
        ast: ast.clone(),
        method_src: r.method_src,
        class_src: r.class_src,
        main_method,
    })
}

#[derive(Default)]
struct Resolver {
    table: ClassTable,
    method_src: HashMap<MethodId, (usize, usize)>,
    class_src: HashMap<ClassId, usize>,
    /// Classes in super-before-sub order for layout construction.
    order: Vec<ClassId>,
}

/// The built-in classes, in class-id order: `Object` is [`OBJECT_CLASS`].
const BUILTIN_CLASSES: &[(&str, ClassKind)] = &[
    ("Object", ClassKind::User),
    ("System", ClassKind::NativeStatic),
    ("Math", ClassKind::NativeStatic),
    ("Cluster", ClassKind::NativeStatic),
    ("Str", ClassKind::NativeStatic),
    ("Rng", ClassKind::NativeInstance),
    ("Queue", ClassKind::NativeInstance),
];

/// Their native methods, in method-id order: class, name, parameters, return
/// type and the [`Builtin`] that runs it. The methods of a `NativeStatic`
/// class are static; those of a `NativeInstance` class are instance methods,
/// the one named after the class its constructor.
const BUILTIN_METHODS: &[(&str, &str, &[Ty], Ty, Builtin)] = {
    use Builtin::*;
    use Ty::*;
    &[
        ("System", "println", &[Str], Void, Println),
        ("System", "print", &[Str], Void, Print),
        ("System", "timeMicros", &[], Long, TimeMicros),
        ("System", "sleepMicros", &[Long], Void, SleepMicros),
        ("System", "gc", &[], Void, Gc),
        ("Math", "sqrt", &[Double], Double, Sqrt),
        ("Math", "dabs", &[Double], Double, DAbs),
        ("Math", "lmin", &[Long, Long], Long, LMin),
        ("Math", "lmax", &[Long, Long], Long, LMax),
        ("Cluster", "machines", &[], Int, ClusterMachines),
        ("Cluster", "my", &[], Int, ClusterMy),
        ("Cluster", "barrier", &[], Void, ClusterBarrier),
        ("Cluster", "arg", &[Int], Long, ClusterArg),
        ("Str", "fromLong", &[Long], Str, StrFromLong),
        ("Str", "fromDouble", &[Double], Str, StrFromDouble),
        ("Rng", "Rng", &[Long], Void, RngCtor),
        ("Rng", "nextInt", &[Int], Int, RngNextInt),
        ("Rng", "nextLong", &[], Long, RngNextLong),
        ("Rng", "nextDouble", &[], Double, RngNextDouble),
        ("Queue", "Queue", &[Int], Void, QueueCtor),
        ("Queue", "put", &[Class(OBJECT_CLASS)], Void, QueuePut),
        ("Queue", "take", &[], Class(OBJECT_CLASS), QueueTake),
        ("Queue", "size", &[], Int, QueueSize),
    ]
};

impl Resolver {
    fn add_class(
        &mut self,
        name: &str,
        is_remote: bool,
        kind: ClassKind,
        span: Span,
    ) -> Result<ClassId, CompileError> {
        if self.table.class_by_name.contains_key(name) {
            return Err(CompileError::new(span, format!("duplicate class `{name}`")));
        }
        let id = ClassId(self.table.classes.len() as u32);
        self.table.classes.push(Class {
            id,
            name: name.to_string(),
            super_class: if id == OBJECT_CLASS { None } else { Some(OBJECT_CLASS) },
            is_remote,
            kind,
            own_fields: Vec::new(),
            layout: Vec::new(),
            static_fields: Vec::new(),
            methods: Vec::new(),
            vtable: Vec::new(),
            span,
        });
        self.table.class_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_method(
        &mut self,
        owner: ClassId,
        name: &str,
        is_static: bool,
        is_ctor: bool,
        params: Vec<Ty>,
        ret: Ty,
        body: MethodBody,
        span: Span,
    ) -> MethodId {
        let id = MethodId(self.table.methods.len() as u32);
        self.table.methods.push(Method {
            id,
            name: name.to_string(),
            owner,
            is_static,
            is_ctor,
            params,
            ret,
            vslot: None,
            body,
            span,
        });
        self.table.classes[owner.index()].methods.push(id);
        id
    }

    fn register_builtins(&mut self) {
        let s = Span::default();
        for &(name, kind) in BUILTIN_CLASSES {
            self.add_class(name, false, kind, s).expect("builtin class names are distinct");
        }
        debug_assert_eq!(self.table.class_by_name["Object"], OBJECT_CLASS);
        for (class, name, params, ret, builtin) in BUILTIN_METHODS {
            let owner = self.table.class_by_name[*class];
            let is_static = self.table.classes[owner.index()].kind == ClassKind::NativeStatic;
            let body = MethodBody::Native(*builtin);
            let (params, ret) = (params.to_vec(), ret.clone());
            self.add_method(owner, name, is_static, name == class, params, ret, body, s);
        }
    }

    fn declare_classes(&mut self, ast: &AstProgram) -> Result<(), CompileError> {
        for (i, c) in ast.classes.iter().enumerate() {
            if c.name == "String" || c.name == "Object" {
                return Err(CompileError::new(
                    c.span,
                    format!("`{}` is a reserved class name", c.name),
                ));
            }
            let id = self.add_class(&c.name, c.is_remote, ClassKind::User, c.span)?;
            self.class_src.insert(id, i);
        }
        Ok(())
    }

    fn link_supers(&mut self, ast: &AstProgram) -> Result<(), CompileError> {
        for c in &ast.classes {
            let id = self.table.class_named(&c.name).unwrap();
            if let Some(sup_name) = &c.extends {
                let sup = self.table.class_named(sup_name).ok_or_else(|| {
                    CompileError::new(c.span, format!("unknown superclass `{sup_name}`"))
                })?;
                let sup_cls = self.table.class(sup);
                if sup_cls.kind != ClassKind::User {
                    return Err(CompileError::new(
                        c.span,
                        format!("cannot extend built-in class `{sup_name}`"),
                    ));
                }
                if sup_cls.is_remote {
                    return Err(CompileError::new(
                        c.span,
                        "remote classes are final and cannot be extended",
                    ));
                }
                if c.is_remote {
                    return Err(CompileError::new(
                        c.span,
                        "remote classes cannot extend other classes",
                    ));
                }
                self.table.classes[id.index()].super_class = Some(sup);
            }
        }
        // Detect inheritance cycles and compute super-before-sub order.
        let n = self.table.classes.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::new();
        fn visit(
            table: &ClassTable,
            id: ClassId,
            state: &mut [u8],
            order: &mut Vec<ClassId>,
        ) -> Result<(), CompileError> {
            match state[id.index()] {
                2 => return Ok(()),
                1 => {
                    return Err(CompileError::new(
                        table.class(id).span,
                        format!("inheritance cycle involving `{}`", table.class(id).name),
                    ))
                }
                _ => {}
            }
            state[id.index()] = 1;
            if let Some(sup) = table.class(id).super_class {
                visit(table, sup, state, order)?;
            }
            state[id.index()] = 2;
            order.push(id);
            Ok(())
        }
        for i in 0..n {
            visit(&self.table, ClassId(i as u32), &mut state, &mut order)?;
        }
        self.order = order;
        Ok(())
    }

    fn declare_members(&mut self, ast: &AstProgram) -> Result<(), CompileError> {
        for (ci, c) in ast.classes.iter().enumerate() {
            let id = self.table.class_named(&c.name).unwrap();

            // Fields
            let mut seen = HashMap::new();
            for f in &c.fields {
                if seen.insert(f.name.clone(), ()).is_some() {
                    return Err(CompileError::new(f.span, format!("duplicate field `{}`", f.name)));
                }
                let ty = self.table.resolve_ty(&f.ty, f.span)?;
                if ty == Ty::Void {
                    return Err(CompileError::new(f.span, "fields cannot have type void"));
                }
                let fid = FieldId(self.table.fields.len() as u32);
                let static_id = if f.is_static {
                    let sid = StaticId(self.table.num_statics as u32);
                    self.table.num_statics += 1;
                    Some(sid)
                } else {
                    None
                };
                self.table.fields.push(Field {
                    id: fid,
                    name: f.name.clone(),
                    ty,
                    owner: id,
                    is_static: f.is_static,
                    slot: 0, // filled in build_layouts
                    static_id,
                });
                if f.is_static {
                    self.table.classes[id.index()].static_fields.push(fid);
                } else {
                    self.table.classes[id.index()].own_fields.push(fid);
                }
            }

            // Methods
            let mut seen_m: HashMap<String, ()> = HashMap::new();
            let mut saw_ctor = false;
            for (mi, m) in c.methods.iter().enumerate() {
                if m.is_ctor {
                    if saw_ctor {
                        return Err(CompileError::new(m.span, "duplicate constructor"));
                    }
                    saw_ctor = true;
                } else if seen_m.insert(m.name.clone(), ()).is_some() {
                    return Err(CompileError::new(
                        m.span,
                        format!("duplicate method `{}` (MiniParty has no overloading)", m.name),
                    ));
                }
                let params = m
                    .params
                    .iter()
                    .map(|(t, _)| self.table.resolve_ty(t, m.span))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret = self.table.resolve_ty(&m.ret, m.span)?;
                let mid = self.add_method(
                    id,
                    &m.name,
                    m.is_static,
                    m.is_ctor,
                    params,
                    ret,
                    MethodBody::Pending,
                    m.span,
                );
                self.method_src.insert(mid, (ci, mi));
            }
        }
        Ok(())
    }

    fn build_layouts_and_vtables(&mut self) -> Result<(), CompileError> {
        for &cid in &self.order.clone() {
            let (sup_layout, sup_vtable) = match self.table.class(cid).super_class {
                Some(s) => (self.table.class(s).layout.clone(), self.table.class(s).vtable.clone()),
                None => (Vec::new(), Vec::new()),
            };
            // Layout: inherited slots first, then own fields.
            let own = self.table.class(cid).own_fields.clone();
            let mut layout = sup_layout;
            for f in own {
                let slot = layout.len();
                // Forbid shadowing an inherited field.
                let name = self.table.field(f).name.clone();
                for &g in &layout {
                    if self.table.field(g).name == name {
                        return Err(CompileError::new(
                            self.table.class(cid).span,
                            format!("field `{name}` shadows an inherited field"),
                        ));
                    }
                }
                self.table.fields[f.index()].slot = slot;
                layout.push(f);
            }
            self.table.classes[cid.index()].layout = layout;

            // Vtable: start from super, override by name, append new.
            let mut vtable = sup_vtable;
            let methods = self.table.class(cid).methods.clone();
            for m in methods {
                let meth = self.table.method(m).clone();
                if meth.is_static || meth.is_ctor {
                    continue;
                }
                let mut overridden = None;
                for (slot, &base) in vtable.iter().enumerate() {
                    if self.table.method(base).name == meth.name {
                        overridden = Some((slot, base));
                        break;
                    }
                }
                match overridden {
                    Some((slot, base)) => {
                        let b = self.table.method(base);
                        if b.params != meth.params || b.ret != meth.ret {
                            return Err(CompileError::new(
                                meth.span,
                                format!("override of `{}` changes the signature", meth.name),
                            ));
                        }
                        self.table.methods[m.index()].vslot = Some(slot);
                        vtable[slot] = m;
                    }
                    None => {
                        self.table.methods[m.index()].vslot = Some(vtable.len());
                        vtable.push(m);
                    }
                }
            }
            self.table.classes[cid.index()].vtable = vtable;
        }
        Ok(())
    }

    fn find_main(&self) -> Result<MethodId, CompileError> {
        let mut found = None;
        for m in &self.table.methods {
            if m.name == "main" && m.is_static && matches!(m.body, MethodBody::Pending) {
                if m.params.is_empty() && m.ret == Ty::Void {
                    if found.is_some() {
                        return Err(CompileError::new(
                            m.span,
                            "multiple `static void main()` methods",
                        ));
                    }
                    found = Some(m.id);
                } else {
                    return Err(CompileError::new(m.span, "`main` must be `static void main()`"));
                }
            }
        }
        found.ok_or_else(|| {
            CompileError::new(Span::default(), "program has no `static void main()`")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn resolve_ok(src: &str) -> ResolvedProgram {
        resolve_program(&parse_program(src).unwrap()).expect("resolve failed")
    }

    fn resolve_err(src: &str) -> CompileError {
        resolve_program(&parse_program(src).unwrap()).expect_err("expected error")
    }

    const MAIN: &str = "class M { static void main() { } }";

    #[test]
    fn object_is_class_zero() {
        let p = resolve_ok(MAIN);
        assert_eq!(p.table.class(OBJECT_CLASS).name, "Object");
    }

    #[test]
    fn builtin_classes_present() {
        let p = resolve_ok(MAIN);
        for n in ["System", "Math", "Cluster", "Str", "Rng", "Queue"] {
            assert!(p.table.class_named(n).is_some(), "missing builtin {n}");
        }
    }

    #[test]
    fn field_layout_includes_inherited() {
        let p = resolve_ok(
            "class A { int x; } class B extends A { int y; } class M { static void main() {} }",
        );
        let b = p.table.class_named("B").unwrap();
        let layout = &p.table.class(b).layout;
        assert_eq!(layout.len(), 2);
        assert_eq!(p.table.field(layout[0]).name, "x");
        assert_eq!(p.table.field(layout[1]).name, "y");
        assert_eq!(p.table.field(layout[1]).slot, 1);
    }

    #[test]
    fn vtable_override_shares_slot() {
        let p = resolve_ok(
            "class A { int f() { return 1; } } class B extends A { int f() { return 2; } int g() { return 3; } } class M { static void main() {} }",
        );
        let a = p.table.class_named("A").unwrap();
        let b = p.table.class_named("B").unwrap();
        assert_eq!(p.table.class(a).vtable.len(), 1);
        assert_eq!(p.table.class(b).vtable.len(), 2);
        let bf = p.table.class(b).vtable[0];
        assert_eq!(p.table.method(bf).owner, b);
    }

    #[test]
    fn override_signature_mismatch_rejected() {
        let e = resolve_err(
            "class A { int f() { return 1; } } class B extends A { double f() { return 2.0; } } class M { static void main() {} }",
        );
        assert!(e.message.contains("signature"));
    }

    #[test]
    fn remote_final() {
        let e =
            resolve_err("remote class R {} class S extends R {} class M { static void main() {} }");
        assert!(e.message.contains("final"));
        let e2 =
            resolve_err("class A {} remote class R extends A {} class M { static void main() {} }");
        assert!(e2.message.contains("cannot extend"));
    }

    #[test]
    fn inheritance_cycle_rejected() {
        let e = resolve_err(
            "class A extends B {} class B extends A {} class M { static void main() {} }",
        );
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn duplicate_method_rejected() {
        let e =
            resolve_err("class A { void f() {} void f() {} } class M { static void main() {} }");
        assert!(e.message.contains("duplicate method"));
    }

    #[test]
    fn missing_main_rejected() {
        let e = resolve_err("class A { }");
        assert!(e.message.contains("main"));
    }

    #[test]
    fn subclass_queries() {
        let p = resolve_ok("class A {} class B extends A {} class M { static void main() {} }");
        let a = p.table.class_named("A").unwrap();
        let b = p.table.class_named("B").unwrap();
        assert!(p.table.is_subclass(b, a));
        assert!(p.table.is_subclass(b, OBJECT_CLASS));
        assert!(!p.table.is_subclass(a, b));
        assert!(p.table.assignable(&Ty::Class(b), &Ty::Class(a)));
        assert!(p.table.assignable(&Ty::Null, &Ty::Str));
        assert!(p.table.assignable(&Ty::Int, &Ty::Double));
        assert!(!p.table.assignable(&Ty::Double, &Ty::Int));
    }

    #[test]
    fn statics_are_numbered() {
        let p = resolve_ok(
            "class A { static int x; static double y; } class M { static void main() {} }",
        );
        assert_eq!(p.table.num_statics, 2);
    }
}
