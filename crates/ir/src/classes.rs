//! Resolved program representation: types, the class table, builtins and
//! the lowered module that the VM and the analyses consume.

use std::collections::HashMap;

use crate::ast::AstTy;
use crate::cfg::Function;
use crate::{CompileError, Span};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(/// A class in the class table. `ClassId(0)` is always `Object`.
    ClassId);
id_type!(/// An instance or static field.
    FieldId);
id_type!(/// A method (user or native).
    MethodId);
id_type!(/// Index into the per-machine static-variable table.
    StaticId);
id_type!(/// A lowered function body.
    FuncId);
id_type!(/// An object allocation site — the unit of the paper's heap analysis.
    AllocSiteId);
id_type!(/// A call site — the unit of the paper's call-site-specific codegen.
    CallSiteId);
id_type!(/// Index into the module string pool.
    StrId);

/// `Object` is always the first class registered.
pub const OBJECT_CLASS: ClassId = ClassId(0);

/// Resolved MiniParty types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    Void,
    Bool,
    Int,
    Long,
    Double,
    /// Immutable string (a reference type assignable to `Object`).
    Str,
    Class(ClassId),
    Array(Box<Ty>),
    /// The type of the `null` literal; only appears during checking.
    Null,
}

impl Ty {
    pub fn is_ref(&self) -> bool {
        matches!(self, Ty::Str | Ty::Class(_) | Ty::Array(_) | Ty::Null)
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::Long | Ty::Double)
    }

    pub fn array_of(self) -> Ty {
        Ty::Array(Box::new(self))
    }

    pub fn elem(&self) -> Option<&Ty> {
        match self {
            Ty::Array(e) => Some(e),
            _ => None,
        }
    }
}

/// Identifies native (built-in) methods implemented by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    // System
    Println,
    Print,
    TimeMicros,
    SleepMicros,
    Gc,
    // Math
    Sqrt,
    DAbs,
    LMin,
    LMax,
    // Cluster
    ClusterMachines,
    ClusterMy,
    ClusterBarrier,
    ClusterArg,
    // Rng (native instance class)
    RngCtor,
    RngNextInt,
    RngNextLong,
    RngNextDouble,
    // Queue (native instance class)
    QueueCtor,
    QueuePut,
    QueueTake,
    QueueSize,
    // String instance methods + Str statics
    StrLength,
    StrHash,
    StrEquals,
    StrConcat,
    StrCharAt,
    StrSubstring,
    StrFromLong,
    StrFromDouble,
}

/// How a class behaves at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Ordinary user-defined class.
    User,
    /// Built-in class with native state (`Rng`, `Queue`).
    NativeInstance,
    /// Built-in namespace of static methods (`System`, `Math`, ...); cannot
    /// be instantiated.
    NativeStatic,
}

#[derive(Debug, Clone)]
pub struct Class {
    pub id: ClassId,
    pub name: String,
    pub super_class: Option<ClassId>,
    pub is_remote: bool,
    pub kind: ClassKind,
    /// Instance fields declared by this class (not inherited).
    pub own_fields: Vec<FieldId>,
    /// Full instance layout including inherited fields; index == slot.
    pub layout: Vec<FieldId>,
    /// Static fields declared by this class.
    pub static_fields: Vec<FieldId>,
    /// Methods declared by this class (instance + static + ctor).
    pub methods: Vec<MethodId>,
    /// Virtual dispatch table; index == vslot.
    pub vtable: Vec<MethodId>,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub struct Field {
    pub id: FieldId,
    pub name: String,
    pub ty: Ty,
    pub owner: ClassId,
    pub is_static: bool,
    /// Slot in the instance layout (instance fields only).
    pub slot: usize,
    /// Index into the per-machine statics table (static fields only).
    pub static_id: Option<StaticId>,
}

/// Method body: a lowered function or a VM builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodBody {
    User(FuncId),
    Native(Builtin),
    /// Declared but not yet lowered (transient during construction).
    Pending,
}

#[derive(Debug, Clone)]
pub struct Method {
    pub id: MethodId,
    pub name: String,
    pub owner: ClassId,
    pub is_static: bool,
    pub is_ctor: bool,
    /// Parameter types excluding the receiver.
    pub params: Vec<Ty>,
    pub ret: Ty,
    /// Virtual slot for overridable instance methods of user classes.
    pub vslot: Option<usize>,
    pub body: MethodBody,
    pub span: Span,
}

/// The resolved class table shared by the compiler, the analyses, the code
/// generator and the VM.
#[derive(Debug, Clone, Default)]
pub struct ClassTable {
    pub classes: Vec<Class>,
    pub fields: Vec<Field>,
    pub methods: Vec<Method>,
    pub class_by_name: HashMap<String, ClassId>,
    /// Total number of static variables (per machine).
    pub num_statics: usize,
}

impl ClassTable {
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// The type `t` names, in a declaration at `span`.
    pub fn resolve_ty(&self, t: &AstTy, span: Span) -> Result<Ty, CompileError> {
        Ok(match t {
            AstTy::Void => Ty::Void,
            AstTy::Bool => Ty::Bool,
            AstTy::Int => Ty::Int,
            AstTy::Long => Ty::Long,
            AstTy::Double => Ty::Double,
            AstTy::Str => Ty::Str,
            AstTy::Object => Ty::Class(OBJECT_CLASS),
            AstTy::Named(n) => Ty::Class(
                self.class_named(n)
                    .ok_or_else(|| CompileError::new(span, format!("unknown type `{n}`")))?,
            ),
            AstTy::Array(e) => self.resolve_ty(e, span)?.array_of(),
        })
    }

    /// Is `sub` the same class as `sup` or a (transitive) subclass of it?
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).super_class;
        }
        false
    }

    /// Is a value of type `from` assignable to a location of type `to`
    /// (including implicit numeric widening and reference upcasts)?
    pub fn assignable(&self, from: &Ty, to: &Ty) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            (Ty::Int, Ty::Long | Ty::Double) => true,
            (Ty::Long, Ty::Double) => true,
            (Ty::Null, t) if t.is_ref() => true,
            (Ty::Class(a), Ty::Class(b)) => self.is_subclass(*a, *b),
            (Ty::Str | Ty::Array(_), Ty::Class(c)) if *c == OBJECT_CLASS => true,
            _ => false,
        }
    }

    /// Find an instance field `name` in `class` or its ancestors.
    pub fn find_instance_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for &f in &cls.own_fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = cls.super_class;
        }
        None
    }

    /// Find a static field `name` declared exactly on `class`.
    pub fn find_static_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.class(class).static_fields.iter().copied().find(|&f| self.field(f).name == name)
    }

    /// Find a method `name` in `class` or its ancestors.
    pub fn find_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for &m in &cls.methods {
                let meth = self.method(m);
                if meth.name == name && !meth.is_ctor {
                    return Some(m);
                }
            }
            cur = cls.super_class;
        }
        None
    }

    /// Find the constructor of `class` (if any user-declared one exists).
    pub fn find_ctor(&self, class: ClassId) -> Option<MethodId> {
        self.class(class).methods.iter().copied().find(|&m| self.method(m).is_ctor)
    }

    /// All concrete classes equal to or derived from `base` (used to resolve
    /// virtual call targets conservatively).
    pub fn subclasses_of(&self, base: ClassId) -> Vec<ClassId> {
        self.classes.iter().filter(|c| self.is_subclass(c.id, base)).map(|c| c.id).collect()
    }

    pub fn ty_name(&self, ty: &Ty) -> String {
        match ty {
            Ty::Void => "void".into(),
            Ty::Bool => "boolean".into(),
            Ty::Int => "int".into(),
            Ty::Long => "long".into(),
            Ty::Double => "double".into(),
            Ty::Str => "String".into(),
            Ty::Null => "null".into(),
            Ty::Class(c) => self.class(*c).name.clone(),
            Ty::Array(e) => format!("{}[]", self.ty_name(e)),
        }
    }
}

/// Metadata about one allocation site (paper §2: "assign to each object
/// allocation site a unique number").
#[derive(Debug, Clone)]
pub struct AllocSiteMeta {
    pub id: AllocSiteId,
    pub func: FuncId,
    /// Allocated type: `Ty::Class` for objects, `Ty::Array` for arrays.
    pub ty: Ty,
    pub span: Span,
}

/// Metadata about one call site. Remote call sites are the unit of the
/// paper's call-site-specific marshaler generation.
#[derive(Debug, Clone)]
pub struct CallSiteMeta {
    pub id: CallSiteId,
    pub caller: FuncId,
    /// Statically resolved target (exact for remote/static calls; the
    /// declaration for virtual calls).
    pub method: Option<MethodId>,
    pub is_remote: bool,
    /// `true` when the RMI result is discarded at this call site, enabling
    /// the paper's "return value can be ignored at the sender" optimization.
    pub ret_ignored: bool,
    pub is_spawn: bool,
    pub span: Span,
}

/// A fully lowered program: class table, function bodies, string pool and
/// the site tables used by the analyses.
#[derive(Debug, Clone)]
pub struct Module {
    pub table: ClassTable,
    pub funcs: Vec<Function>,
    pub strings: Vec<String>,
    pub alloc_sites: Vec<AllocSiteMeta>,
    pub call_sites: Vec<CallSiteMeta>,
    /// `static void main()` entry point.
    pub main: FuncId,
    /// Static-initializer functions, in execution order.
    pub clinits: Vec<FuncId>,
}

impl Module {
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    pub fn func_of_method(&self, m: MethodId) -> Option<FuncId> {
        match self.table.method(m).body {
            MethodBody::User(f) => Some(f),
            _ => None,
        }
    }

    pub fn str(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// All remote call sites (the inputs to corm-codegen).
    pub fn remote_call_sites(&self) -> impl Iterator<Item = &CallSiteMeta> {
        self.call_sites.iter().filter(|cs| cs.is_remote)
    }
}
