//! Execution of serializer programs against a heap.
//!
//! One [`Serializer`] is shared per cluster run; it is stateless apart
//! from configuration — cycle tables and reuse candidates are passed in
//! per message, because they are per-RMI (cycle table) or per-call-site
//! (reuse slot) state owned by the VM.

use corm_heap::{Heap, ObjBody, ObjRef, RemoteRef, Value};
use corm_ir::{ClassId, ClassTable, Ty};
use corm_wire::{
    DeserTable, Message, MessageReader, RmiStats, SerCycleTable, ARRAY_TYPE_INFO_BYTES,
    OBJECT_TYPE_INFO_BYTES, TAG_ARRAY_PRIM, TAG_ARRAY_REF, TAG_HANDLE, TAG_NULL, TAG_OBJECT,
    TAG_PRESENT, TAG_REMOTE, TAG_STRING,
};

use crate::plan::{EngineMode, Plans, PrimKind, SerNode, SlotKind};

/// A serialization failure (type confusion, wire corruption, attempting
/// to serialize native objects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerError(pub String);

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serialization error: {}", self.0)
    }
}

impl std::error::Error for SerError {}

fn serr<T>(msg: impl Into<String>) -> Result<T, SerError> {
    Err(SerError(msg.into()))
}

impl From<corm_heap::HeapError> for SerError {
    fn from(e: corm_heap::HeapError) -> Self {
        SerError(e.0)
    }
}

impl From<corm_wire::WireError> for SerError {
    fn from(e: corm_wire::WireError) -> Self {
        SerError(e.0)
    }
}

/// What deserialization produced, including the reuse accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeserOutcome {
    pub value: Value,
    /// Number of objects recycled from the reuse candidate.
    pub reused: u64,
}

/// Shadow-mode cycle audit (see DESIGN §10): when a marshal plan claims
/// cycle-freedom (the real [`SerCycleTable`] was statically elided), this
/// visited-set runs the same identity check *off the wire* — it writes no
/// bytes and bumps no counters, so audited runs stay bit-identical to
/// unaudited ones. Any revisited object means the cycle analysis verdict
/// was unsound: without a table, the serializer would silently duplicate
/// the shared subgraph (or diverge on a true cycle).
#[derive(Debug, Default)]
pub struct ShadowCycleCheck {
    seen: std::collections::HashSet<ObjRef>,
    /// Objects checked (diagnostic only; never fed into `RmiStats`).
    pub checks: u64,
}

impl ShadowCycleCheck {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a visit; `true` means `obj` was already serialized in this
    /// message — a violated cycle-freedom claim.
    fn revisited(&mut self, obj: ObjRef) -> bool {
        self.checks += 1;
        !self.seen.insert(obj)
    }
}

/// The distinctive prefix of every auditor-raised serialization error;
/// the fuzz oracle and the soundness tests match on it.
pub const AUDIT_ERROR_PREFIX: &str = "analysis-audit";

fn audit_check(shadow: &mut Option<ShadowCycleCheck>, r: ObjRef) -> Result<(), SerError> {
    if let Some(sh) = shadow {
        if sh.revisited(r) {
            return serr(format!(
                "{AUDIT_ERROR_PREFIX}: cycle-freedom claim violated: object {} reached twice \
                 by a serializer whose plan elided the cycle table",
                r.0
            ));
        }
    }
    Ok(())
}

/// The serializer engine: executes [`SerNode`] programs.
pub struct Serializer<'a> {
    pub plans: &'a Plans,
    pub table: &'a ClassTable,
    pub stats: &'a RmiStats,
}

impl<'a> Serializer<'a> {
    pub fn new(plans: &'a Plans, table: &'a ClassTable, stats: &'a RmiStats) -> Self {
        Serializer { plans, table, stats }
    }

    fn mode(&self) -> EngineMode {
        self.plans.config.engine
    }

    // =====================================================================
    // Serialization
    // =====================================================================

    /// Serialize `v` according to `node`. `cycle` is the per-message
    /// handle table (None when statically elided).
    pub fn serialize(
        &self,
        heap: &Heap,
        node: &SerNode,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
    ) -> Result<(), SerError> {
        self.serialize_audited(heap, node, v, cycle, msg, &mut None)
    }

    /// [`Serializer::serialize`] with an optional shadow cycle audit. The
    /// VM passes `Some` when audit mode is on *and* the plan elided the
    /// real cycle table; the shadow check then fails loudly on any
    /// revisited object instead of silently duplicating it.
    pub fn serialize_audited(
        &self,
        heap: &Heap,
        node: &SerNode,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
    ) -> Result<(), SerError> {
        let mut stack = Vec::new();
        self.ser_rec(heap, node, v, cycle, msg, shadow, &mut stack)
    }

    #[allow(clippy::too_many_arguments)]
    fn ser_rec<'n>(
        &self,
        heap: &Heap,
        node: &'n SerNode,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
        stack: &mut Vec<&'n SerNode>,
    ) -> Result<(), SerError> {
        if stack.len() > 50_000 {
            return serr("serialization recursion too deep (runaway recursive plan?)");
        }
        match node {
            SerNode::Prim(k) => self.write_prim(*k, v, msg),
            SerNode::Str => match v {
                Value::Null => {
                    msg.write_u8(TAG_NULL);
                    Ok(())
                }
                Value::Ref(r) => {
                    msg.write_u8(TAG_PRESENT);
                    msg.write_str(heap.str_value(r)?);
                    Ok(())
                }
                other => serr(format!("expected string, found {other:?}")),
            },
            SerNode::Remote => match v {
                Value::Null => {
                    msg.write_u8(TAG_NULL);
                    Ok(())
                }
                Value::Remote(rr) => {
                    msg.write_u8(TAG_PRESENT);
                    write_remote(msg, rr);
                    Ok(())
                }
                other => serr(format!("expected remote ref, found {other:?}")),
            },
            SerNode::Inline { class, fields, .. } => {
                let Some(r) = self.header(v, cycle, msg, shadow)? else { return Ok(()) };
                let actual = heap.body(r)?.class();
                if actual != Some(*class) {
                    return serr(format!(
                        "call-site plan expected {} but found {:?} (analysis violation)",
                        self.table.class(*class).name,
                        actual.map(|c| self.table.class(c).name.clone())
                    ));
                }
                stack.push(node);
                for (_, slot, sub) in fields {
                    let fv = heap.field(r, *slot as usize)?;
                    match sub {
                        SerNode::Prim(k) => self.write_prim(*k, fv, msg)?,
                        _ => self.ser_rec(heap, sub, fv, cycle, msg, shadow, stack)?,
                    }
                }
                stack.pop();
                Ok(())
            }
            SerNode::ArrPrim { elem } => {
                let Some(r) = self.header(v, cycle, msg, shadow)? else { return Ok(()) };
                self.write_prim_array_payload(heap, r, *elem, msg)
            }
            SerNode::ArrRef { elem, .. } => {
                let Some(r) = self.header(v, cycle, msg, shadow)? else { return Ok(()) };
                let len = heap.array_len(r)?;
                msg.write_u32(len as u32);
                stack.push(node);
                for i in 0..len {
                    let ev = heap.array_get(r, i)?;
                    self.ser_rec(heap, elem, ev, cycle, msg, shadow, stack)?;
                }
                stack.pop();
                Ok(())
            }
            SerNode::Dynamic => self.serialize_dynamic(heap, v, cycle, msg, shadow),
            SerNode::Recur { up } => {
                let idx = stack.len().checked_sub(*up as usize).ok_or_else(|| {
                    SerError(format!("recursion level {up} underflows plan stack"))
                })?;
                let target = stack[idx];
                self.ser_rec(heap, target, v, cycle, msg, shadow, stack)
            }
        }
    }

    /// Null / handle / presence protocol shared by reference nodes.
    /// Returns the object to serialize, or None when nothing follows.
    fn header(
        &self,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
    ) -> Result<Option<ObjRef>, SerError> {
        let r = match v {
            Value::Null => {
                msg.write_u8(TAG_NULL);
                return Ok(None);
            }
            Value::Ref(r) => r,
            other => return serr(format!("expected reference, found {other:?}")),
        };
        if let Some(table) = cycle {
            RmiStats::bump(&self.stats.cycle_lookups, 1);
            if let Ok(handle) = table.check(r) {
                msg.write_u8(TAG_HANDLE);
                msg.write_u32(handle);
                return Ok(None);
            }
        } else {
            audit_check(shadow, r)?;
        }
        msg.write_u8(TAG_PRESENT);
        Ok(Some(r))
    }

    fn write_prim(&self, k: PrimKind, v: Value, msg: &mut Message) -> Result<(), SerError> {
        match (k, v) {
            (PrimKind::Bool, Value::Bool(b)) => msg.write_bool(b),
            (PrimKind::I32, Value::Int(x)) => msg.write_i32(x),
            (PrimKind::I64, Value::Long(x)) => msg.write_i64(x),
            (PrimKind::I64, Value::Int(x)) => msg.write_i64(x as i64),
            (PrimKind::F64, Value::Double(x)) => msg.write_f64(x),
            (k, v) => return serr(format!("expected {k:?}, found {v:?}")),
        }
        Ok(())
    }

    fn write_prim_array_payload(
        &self,
        heap: &Heap,
        r: ObjRef,
        elem: PrimKind,
        msg: &mut Message,
    ) -> Result<(), SerError> {
        match (heap.body(r)?, elem) {
            (ObjBody::ArrBool(a), PrimKind::Bool) => {
                msg.write_u32(a.len() as u32);
                msg.write_bool_slice(a);
            }
            (ObjBody::ArrI32(a), PrimKind::I32) => {
                msg.write_u32(a.len() as u32);
                msg.write_i32_slice(a);
            }
            (ObjBody::ArrI64(a), PrimKind::I64) => {
                msg.write_u32(a.len() as u32);
                msg.write_i64_slice(a);
            }
            (ObjBody::ArrF64(a), PrimKind::F64) => {
                msg.write_u32(a.len() as u32);
                msg.write_f64_slice(a);
            }
            (b, k) => return serr(format!("array kind mismatch: {k:?} vs {b:?}")),
        }
        Ok(())
    }

    /// Fully dynamic, tagged serialization — the `class`/`introspect`
    /// baseline and the fall-back inside site-mode plans.
    fn serialize_dynamic(
        &self,
        heap: &Heap,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
    ) -> Result<(), SerError> {
        match v {
            Value::Null => {
                msg.write_u8(TAG_NULL);
                return Ok(());
            }
            // Scalars never reach the dynamic path: plans always classify
            // primitive slots statically (SlotKind/shallow signature
            // nodes). Hitting one indicates a codegen bug.
            v @ (Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_)) => {
                return serr(format!("scalar {v:?} in dynamic serialization"));
            }
            Value::Remote(rr) => {
                msg.write_u8(TAG_REMOTE);
                RmiStats::bump(&self.stats.type_info_bytes, 1);
                write_remote(msg, rr);
                return Ok(());
            }
            Value::Ref(_) => {}
        }
        let r = v.as_ref().unwrap();
        if let Some(table) = cycle {
            RmiStats::bump(&self.stats.cycle_lookups, 1);
            if let Ok(handle) = table.check(r) {
                msg.write_u8(TAG_HANDLE);
                msg.write_u32(handle);
                return Ok(());
            }
        } else {
            // Shadow audit mirrors the real table's scope exactly (it
            // covers strings here, just as `table.check` would).
            audit_check(shadow, r)?;
        }
        match heap.body(r)? {
            ObjBody::Str(s) => {
                msg.write_u8(TAG_STRING);
                RmiStats::bump(&self.stats.type_info_bytes, 1);
                msg.write_str(s);
                Ok(())
            }
            ObjBody::Obj { class, .. } => {
                let class = *class;
                msg.write_u8(TAG_OBJECT);
                msg.write_u32(class.0);
                RmiStats::bump(&self.stats.type_info_bytes, OBJECT_TYPE_INFO_BYTES);
                RmiStats::bump(&self.stats.ser_invocations, 1);
                let slots = self.slot_kinds(class)?;
                for (slot, kind) in slots.iter().enumerate() {
                    let fv = heap.field(r, slot)?;
                    match kind {
                        SlotKind::Prim(k) => self.write_prim(*k, fv, msg)?,
                        SlotKind::Ref => self.serialize_dynamic(heap, fv, cycle, msg, shadow)?,
                    }
                }
                Ok(())
            }
            ObjBody::ArrBool(_) | ObjBody::ArrI32(_) | ObjBody::ArrI64(_) | ObjBody::ArrF64(_) => {
                let kind = match heap.body(r)? {
                    ObjBody::ArrBool(_) => PrimKind::Bool,
                    ObjBody::ArrI32(_) => PrimKind::I32,
                    ObjBody::ArrI64(_) => PrimKind::I64,
                    _ => PrimKind::F64,
                };
                msg.write_u8(TAG_ARRAY_PRIM);
                msg.write_u8(kind.elem_code());
                RmiStats::bump(&self.stats.type_info_bytes, ARRAY_TYPE_INFO_BYTES);
                RmiStats::bump(&self.stats.ser_invocations, 1);
                self.write_prim_array_payload(heap, r, kind, msg)
            }
            ObjBody::ArrRef { elem, data } => {
                let (elem, len) = (elem.clone(), data.len());
                msg.write_u8(TAG_ARRAY_REF);
                let ty_bytes = write_ty(msg, &elem);
                RmiStats::bump(&self.stats.type_info_bytes, ARRAY_TYPE_INFO_BYTES + ty_bytes);
                RmiStats::bump(&self.stats.ser_invocations, 1);
                msg.write_u32(len as u32);
                for i in 0..len {
                    let ev = heap.array_get(r, i)?;
                    self.serialize_dynamic(heap, ev, cycle, msg, shadow)?;
                }
                Ok(())
            }
            ObjBody::Native { class, .. } => serr(format!(
                "native objects of class {} cannot be serialized",
                self.table.class(*class).name
            )),
        }
    }

    /// Per-class slot kinds: precompiled in class/site mode, re-derived
    /// from class metadata per object in introspect mode (Sun-RMI style
    /// reflective walk).
    fn slot_kinds(&self, class: ClassId) -> Result<std::borrow::Cow<'_, [SlotKind]>, SerError> {
        if self.mode() == EngineMode::Introspect {
            // Reflective introspection: consult the class table for every
            // field of every object ("examining an object's layout to
            // locate normal fields and references", §1).
            let cls = self.table.class(class);
            let kinds: Vec<SlotKind> = cls
                .layout
                .iter()
                .map(|&fid| {
                    let ty = &self.table.field(fid).ty;
                    match PrimKind::of(ty) {
                        Some(k) => SlotKind::Prim(k),
                        None => SlotKind::Ref,
                    }
                })
                .collect();
            Ok(std::borrow::Cow::Owned(kinds))
        } else {
            let info = self.plans.class_ser(class);
            if !info.serializable {
                return serr(format!("class {} is not serializable", self.table.class(class).name));
            }
            Ok(std::borrow::Cow::Borrowed(&info.slots))
        }
    }

    // =====================================================================
    // Deserialization
    // =====================================================================

    /// Deserialize one value according to `node`. `reuse` is the cached
    /// object graph from the previous invocation of this unmarshaler (the
    /// paper's `temp_arr`, Fig. 13); matching objects are overwritten in
    /// place instead of reallocated.
    pub fn deserialize(
        &self,
        heap: &mut Heap,
        node: &SerNode,
        r: &mut MessageReader<'_>,
        dtable: &mut Option<DeserTable>,
        reuse: Value,
    ) -> Result<DeserOutcome, SerError> {
        let mut st = DeserState::default();
        let mut stack = Vec::new();
        let value = self.deser_rec(heap, node, r, dtable, reuse, &mut st, &mut stack)?;
        Ok(DeserOutcome { value, reused: st.reused })
    }

    /// Claim `old` as a reuse target. A candidate object may be recycled
    /// at most once per deserialization: cached graphs can contain shared
    /// children (they were built with a handle table), and reusing one
    /// object for two distinct wire positions would silently introduce
    /// aliasing that the source graph does not have.
    fn claim(st: &mut DeserState, old: ObjRef) -> bool {
        if st.claimed.insert(old) {
            st.reused += 1;
            true
        } else {
            false
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deser_rec<'n>(
        &self,
        heap: &mut Heap,
        node: &'n SerNode,
        r: &mut MessageReader<'_>,
        dtable: &mut Option<DeserTable>,
        reuse: Value,
        st: &mut DeserState,
        stack: &mut Vec<&'n SerNode>,
    ) -> Result<Value, SerError> {
        if stack.len() > 50_000 {
            return serr("deserialization recursion too deep (runaway recursive plan?)");
        }
        match node {
            SerNode::Prim(k) => read_prim(*k, r),
            SerNode::Str => match r.read_u8()? {
                TAG_NULL => Ok(Value::Null),
                TAG_PRESENT => {
                    let s = r.read_str()?;
                    Ok(Value::Ref(heap.alloc_str(s)))
                }
                t => serr(format!("bad string tag {t}")),
            },
            SerNode::Remote => match r.read_u8()? {
                TAG_NULL => Ok(Value::Null),
                TAG_PRESENT => Ok(Value::Remote(read_remote(r)?)),
                t => serr(format!("bad remote tag {t}")),
            },
            SerNode::Inline { class, nfields, fields } => {
                match self.read_header(r, dtable)? {
                    Header::Null => return Ok(Value::Null),
                    Header::Handle(v) => return Ok(v),
                    Header::Present => {}
                }
                // Reuse: same class ⇒ overwrite in place.
                let (obj, reusing) = match reuse {
                    Value::Ref(old)
                        if heap.body(old).map(|b| b.class() == Some(*class)).unwrap_or(false)
                            && Self::claim(st, old) =>
                    {
                        (old, true)
                    }
                    _ => (heap.alloc_obj(*class, *nfields as usize), false),
                };
                if let Some(t) = dtable {
                    t.register(obj);
                }
                stack.push(node);
                for (_, slot, sub) in fields {
                    let old_field = if reusing {
                        heap.field(obj, *slot as usize).unwrap_or(Value::Null)
                    } else {
                        Value::Null
                    };
                    let fv = match sub {
                        SerNode::Prim(k) => read_prim(*k, r)?,
                        _ => self.deser_rec(heap, sub, r, dtable, old_field, st, stack)?,
                    };
                    heap.set_field(obj, *slot as usize, fv)?;
                }
                stack.pop();
                Ok(Value::Ref(obj))
            }
            SerNode::ArrPrim { elem } => {
                match self.read_header(r, dtable)? {
                    Header::Null => return Ok(Value::Null),
                    Header::Handle(v) => return Ok(v),
                    Header::Present => {}
                }
                let len = r.read_u32()? as usize;
                check_len(len, prim_width(*elem), r)?;
                let obj = self.prim_array_target(heap, *elem, len, reuse, st);
                if let Some(t) = dtable {
                    t.register(obj);
                }
                self.read_prim_array_payload(heap, obj, *elem, len, r)?;
                Ok(Value::Ref(obj))
            }
            SerNode::ArrRef { elem_ty, elem } => {
                match self.read_header(r, dtable)? {
                    Header::Null => return Ok(Value::Null),
                    Header::Handle(v) => return Ok(v),
                    Header::Present => {}
                }
                let len = r.read_u32()? as usize;
                check_len(len, 1, r)?;
                let (obj, reusing) = match reuse {
                    Value::Ref(old)
                        if heap.array_len(old).map(|l| l == len).unwrap_or(false)
                            && matches!(heap.body(old), Ok(ObjBody::ArrRef { .. }))
                            && Self::claim(st, old) =>
                    {
                        (old, true)
                    }
                    _ => (heap.alloc_array(elem_ty, len), false),
                };
                if let Some(t) = dtable {
                    t.register(obj);
                }
                stack.push(node);
                for i in 0..len {
                    let old_elem = if reusing {
                        heap.array_get(obj, i).unwrap_or(Value::Null)
                    } else {
                        Value::Null
                    };
                    let ev = self.deser_rec(heap, elem, r, dtable, old_elem, st, stack)?;
                    heap.array_set(obj, i, ev)?;
                }
                stack.pop();
                Ok(Value::Ref(obj))
            }
            SerNode::Dynamic => self.deser_dynamic(heap, r, dtable, reuse, st),
            SerNode::Recur { up } => {
                let idx = stack.len().checked_sub(*up as usize).ok_or_else(|| {
                    SerError(format!("recursion level {up} underflows plan stack"))
                })?;
                let target = stack[idx];
                self.deser_rec(heap, target, r, dtable, reuse, st, stack)
            }
        }
    }

    fn read_header(
        &self,
        r: &mut MessageReader<'_>,
        dtable: &mut Option<DeserTable>,
    ) -> Result<Header, SerError> {
        match r.read_u8()? {
            TAG_NULL => Ok(Header::Null),
            TAG_PRESENT => Ok(Header::Present),
            TAG_HANDLE => {
                let h = r.read_u32()?;
                let t =
                    dtable.as_ref().ok_or_else(|| SerError("handle without deser table".into()))?;
                let obj =
                    t.lookup(h).ok_or_else(|| SerError(format!("dangling wire handle {h}")))?;
                Ok(Header::Handle(Value::Ref(obj)))
            }
            t => serr(format!("bad header tag {t}")),
        }
    }

    fn prim_array_target(
        &self,
        heap: &mut Heap,
        elem: PrimKind,
        len: usize,
        reuse: Value,
        st: &mut DeserState,
    ) -> ObjRef {
        if let Value::Ref(old) = reuse {
            let matches = match (heap.body(old), elem) {
                (Ok(ObjBody::ArrBool(a)), PrimKind::Bool) => a.len() == len,
                (Ok(ObjBody::ArrI32(a)), PrimKind::I32) => a.len() == len,
                (Ok(ObjBody::ArrI64(a)), PrimKind::I64) => a.len() == len,
                (Ok(ObjBody::ArrF64(a)), PrimKind::F64) => a.len() == len,
                _ => false,
            };
            if matches && Self::claim(st, old) {
                return old;
            }
        }
        let ty = match elem {
            PrimKind::Bool => Ty::Bool,
            PrimKind::I32 => Ty::Int,
            PrimKind::I64 => Ty::Long,
            PrimKind::F64 => Ty::Double,
        };
        heap.alloc_array(&ty, len)
    }

    fn read_prim_array_payload(
        &self,
        heap: &mut Heap,
        obj: ObjRef,
        elem: PrimKind,
        len: usize,
        r: &mut MessageReader<'_>,
    ) -> Result<(), SerError> {
        match (heap.body_mut(obj)?, elem) {
            (ObjBody::ArrBool(a), PrimKind::Bool) => {
                debug_assert_eq!(a.len(), len);
                r.read_bool_into(a)?;
            }
            (ObjBody::ArrI32(a), PrimKind::I32) => {
                r.read_i32_into(a)?;
            }
            (ObjBody::ArrI64(a), PrimKind::I64) => {
                r.read_i64_into(a)?;
            }
            (ObjBody::ArrF64(a), PrimKind::F64) => {
                r.read_f64_into(a)?;
            }
            (b, k) => return serr(format!("deser array kind mismatch: {k:?} vs {b:?}")),
        }
        Ok(())
    }

    fn deser_dynamic(
        &self,
        heap: &mut Heap,
        r: &mut MessageReader<'_>,
        dtable: &mut Option<DeserTable>,
        reuse: Value,
        st: &mut DeserState,
    ) -> Result<Value, SerError> {
        match r.read_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_HANDLE => {
                let h = r.read_u32()?;
                let t =
                    dtable.as_ref().ok_or_else(|| SerError("handle without deser table".into()))?;
                let obj =
                    t.lookup(h).ok_or_else(|| SerError(format!("dangling wire handle {h}")))?;
                Ok(Value::Ref(obj))
            }
            TAG_REMOTE => Ok(Value::Remote(read_remote(r)?)),
            TAG_STRING => {
                let s = r.read_str()?;
                Ok(Value::Ref(heap.alloc_str(s)))
            }
            TAG_OBJECT => {
                let class = ClassId(r.read_u32()?);
                if class.index() >= self.table.classes.len() {
                    return serr(format!("unknown wire class id {}", class.0));
                }
                let slots = self.slot_kinds(class)?.into_owned();
                let (obj, reusing) = match reuse {
                    Value::Ref(old)
                        if heap.body(old).map(|b| b.class() == Some(class)).unwrap_or(false)
                            && Self::claim(st, old) =>
                    {
                        (old, true)
                    }
                    _ => (heap.alloc_obj(class, slots.len()), false),
                };
                if let Some(t) = dtable {
                    t.register(obj);
                }
                for (slot, kind) in slots.iter().enumerate() {
                    let old_field = if reusing {
                        heap.field(obj, slot).unwrap_or(Value::Null)
                    } else {
                        Value::Null
                    };
                    let fv = match kind {
                        SlotKind::Prim(k) => read_prim(*k, r)?,
                        SlotKind::Ref => self.deser_dynamic(heap, r, dtable, old_field, st)?,
                    };
                    heap.set_field(obj, slot, fv)?;
                }
                Ok(Value::Ref(obj))
            }
            TAG_ARRAY_PRIM => {
                let kind = match r.read_u8()? {
                    corm_wire::ELEM_BOOL => PrimKind::Bool,
                    corm_wire::ELEM_I32 => PrimKind::I32,
                    corm_wire::ELEM_I64 => PrimKind::I64,
                    corm_wire::ELEM_F64 => PrimKind::F64,
                    k => return serr(format!("bad elem kind {k}")),
                };
                let len = r.read_u32()? as usize;
                check_len(len, prim_width(kind), r)?;
                let obj = self.prim_array_target(heap, kind, len, reuse, st);
                if let Some(t) = dtable {
                    t.register(obj);
                }
                self.read_prim_array_payload(heap, obj, kind, len, r)?;
                Ok(Value::Ref(obj))
            }
            TAG_ARRAY_REF => {
                let elem_ty = read_ty(r)?;
                let len = r.read_u32()? as usize;
                check_len(len, 1, r)?;
                let (obj, reusing) = match reuse {
                    Value::Ref(old)
                        if matches!(heap.body(old), Ok(ObjBody::ArrRef { .. }))
                            && heap.array_len(old).map(|l| l == len).unwrap_or(false)
                            && Self::claim(st, old) =>
                    {
                        (old, true)
                    }
                    _ => (heap.alloc_array(&elem_ty, len), false),
                };
                if let Some(t) = dtable {
                    t.register(obj);
                }
                for i in 0..len {
                    let old_elem = if reusing {
                        heap.array_get(obj, i).unwrap_or(Value::Null)
                    } else {
                        Value::Null
                    };
                    let ev = self.deser_dynamic(heap, r, dtable, old_elem, st)?;
                    heap.array_set(obj, i, ev)?;
                }
                Ok(Value::Ref(obj))
            }
            t => serr(format!("bad dynamic tag {t}")),
        }
    }
}

enum Header {
    Null,
    Present,
    Handle(Value),
}

/// Mutable state of one deserialization: reuse accounting plus the set of
/// candidate objects already recycled (each may be claimed once).
#[derive(Default)]
struct DeserState {
    reused: u64,
    claimed: std::collections::HashSet<ObjRef>,
}

/// Guard against corrupted length fields: a claimed array of `len`
/// elements with at least `min_elem_bytes` bytes each cannot exceed the
/// remaining payload.
fn prim_width(k: PrimKind) -> usize {
    match k {
        PrimKind::Bool => 1,
        PrimKind::I32 => 4,
        PrimKind::I64 | PrimKind::F64 => 8,
    }
}

fn check_len(len: usize, min_elem_bytes: usize, r: &MessageReader<'_>) -> Result<(), SerError> {
    if len.saturating_mul(min_elem_bytes.max(1)) > r.remaining() {
        return serr(format!("corrupt length {len} exceeds remaining payload {}", r.remaining()));
    }
    Ok(())
}

fn read_prim(k: PrimKind, r: &mut MessageReader<'_>) -> Result<Value, SerError> {
    Ok(match k {
        PrimKind::Bool => Value::Bool(r.read_bool()?),
        PrimKind::I32 => Value::Int(r.read_i32()?),
        PrimKind::I64 => Value::Long(r.read_i64()?),
        PrimKind::F64 => Value::Double(r.read_f64()?),
    })
}

fn write_remote(msg: &mut Message, rr: RemoteRef) {
    msg.write_u32(rr.machine as u32);
    msg.write_u32(rr.obj.0);
    msg.write_u32(rr.class.0);
}

fn read_remote(r: &mut MessageReader<'_>) -> Result<RemoteRef, SerError> {
    let machine = r.read_u32()? as u16;
    let obj = ObjRef(r.read_u32()?);
    let class = ClassId(r.read_u32()?);
    Ok(RemoteRef { machine, obj, class })
}

/// Encode a type for `TAG_ARRAY_REF` element descriptors. Returns the
/// number of bytes written (for type-info accounting).
fn write_ty(msg: &mut Message, ty: &Ty) -> u64 {
    let mut depth = 0u8;
    let mut base = ty;
    while let Ty::Array(e) = base {
        depth += 1;
        base = e;
    }
    msg.write_u8(depth);
    match base {
        Ty::Bool => {
            msg.write_u8(0);
            2
        }
        Ty::Int => {
            msg.write_u8(1);
            2
        }
        Ty::Long => {
            msg.write_u8(2);
            2
        }
        Ty::Double => {
            msg.write_u8(3);
            2
        }
        Ty::Str => {
            msg.write_u8(4);
            2
        }
        Ty::Class(c) => {
            msg.write_u8(5);
            msg.write_u32(c.0);
            6
        }
        _ => {
            msg.write_u8(6);
            2
        }
    }
}

fn read_ty(r: &mut MessageReader<'_>) -> Result<Ty, SerError> {
    let depth = r.read_u8()?;
    let base = match r.read_u8()? {
        0 => Ty::Bool,
        1 => Ty::Int,
        2 => Ty::Long,
        3 => Ty::Double,
        4 => Ty::Str,
        5 => Ty::Class(ClassId(r.read_u32()?)),
        6 => Ty::Class(corm_ir::OBJECT_CLASS),
        k => return serr(format!("bad type code {k}")),
    };
    let mut ty = base;
    for _ in 0..depth {
        ty = ty.array_of();
    }
    Ok(ty)
}

/// Helper shared by tests in several crates: serialize with `node` from
/// `src` heap and deserialize into `dst` heap, returning the outcome.
pub fn roundtrip(
    ser: &Serializer<'_>,
    src: &Heap,
    dst: &mut Heap,
    node: &SerNode,
    v: Value,
    use_table: bool,
    reuse: Value,
) -> Result<(DeserOutcome, usize), SerError> {
    let mut msg = Message::with_capacity(crate::plan::node_size_hint(node));
    let mut ct = if use_table { Some(SerCycleTable::new()) } else { None };
    ser.serialize(src, node, v, &mut ct, &mut msg)?;
    let bytes = msg.len();
    let mut dt = if use_table { Some(DeserTable::new()) } else { None };
    let mut reader = msg.reader();
    let out = ser.deserialize(dst, node, &mut reader, &mut dt, reuse)?;
    if !reader.is_exhausted() {
        return serr("trailing bytes after deserialization");
    }
    Ok((out, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{generate_plans, OptConfig, Plans};
    use corm_analysis::{analyze_module, AnalysisOptions};
    use corm_heap::NativeData;
    use corm_ir::{compile_frontend, Module};

    /// Build a module with a few classes so class ids exist; the heap
    /// objects are constructed manually in tests.
    fn fixture(config: OptConfig) -> (Module, Plans, RmiStats) {
        let src = r#"
            class Node { Node next; int v; }
            class Pair { Object a; Object b; }
            class Point { int x; double y; }
            remote class R {
                void f(Point p) { }
            }
            class M {
                static void main() {
                    R r = new R();
                    Point p = new Point();
                    r.f(p);
                }
            }
        "#;
        let m = compile_frontend(src).unwrap();
        let a = analyze_module(&m, AnalysisOptions::default());
        let p = generate_plans(&m, &a, config);
        (m, p, RmiStats::new())
    }

    fn class_id(m: &Module, name: &str) -> ClassId {
        m.table.class_named(name).unwrap()
    }

    #[test]
    fn dynamic_roundtrip_object() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let point = class_id(&m, "Point");
        let p = src.alloc_obj(point, 2);
        src.set_field(p, 0, Value::Int(3)).unwrap();
        src.set_field(p, 1, Value::Double(4.5)).unwrap();
        let (out, _) =
            roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, Value::Ref(p), true, Value::Null)
                .unwrap();
        let q = out.value.as_ref().unwrap();
        assert_eq!(dst.field(q, 0).unwrap(), Value::Int(3));
        assert_eq!(dst.field(q, 1).unwrap(), Value::Double(4.5));
        assert!(corm_heap::deep_equal_across(&src, Value::Ref(p), &dst, out.value));
        // dynamic mode sent type info and invoked a class serializer
        let snap = stats.snapshot();
        assert_eq!(snap.ser_invocations, 1);
        assert!(snap.type_info_bytes >= OBJECT_TYPE_INFO_BYTES);
    }

    #[test]
    fn dynamic_roundtrip_cycle() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let node = class_id(&m, "Node");
        let a = src.alloc_obj(node, 2);
        let b = src.alloc_obj(node, 2);
        src.set_field(a, 0, Value::Ref(b)).unwrap();
        src.set_field(b, 0, Value::Ref(a)).unwrap(); // cycle
        src.set_field(a, 1, Value::Int(1)).unwrap();
        src.set_field(b, 1, Value::Int(2)).unwrap();
        let (out, _) =
            roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, Value::Ref(a), true, Value::Null)
                .unwrap();
        // cycle reconstructed: a'.next.next == a'
        let a2 = out.value.as_ref().unwrap();
        let b2 = dst.field(a2, 0).unwrap().as_ref().unwrap();
        assert_eq!(dst.field(b2, 0).unwrap(), Value::Ref(a2));
        assert!(stats.snapshot().cycle_lookups >= 2);
    }

    #[test]
    fn shared_subobject_preserved_with_table() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let pair = class_id(&m, "Pair");
        let point = class_id(&m, "Point");
        let shared = src.alloc_obj(point, 2);
        src.set_field(shared, 0, Value::Int(0)).unwrap();
        src.set_field(shared, 1, Value::Double(0.0)).unwrap();
        let p = src.alloc_obj(pair, 2);
        src.set_field(p, 0, Value::Ref(shared)).unwrap();
        src.set_field(p, 1, Value::Ref(shared)).unwrap();
        let (out, _) =
            roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, Value::Ref(p), true, Value::Null)
                .unwrap();
        let q = out.value.as_ref().unwrap();
        assert_eq!(
            dst.field(q, 0).unwrap(),
            dst.field(q, 1).unwrap(),
            "sharing must be preserved through wire handles"
        );
    }

    #[test]
    fn inline_plan_roundtrip_no_type_info() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let point = class_id(&m, "Point");
        let p = src.alloc_obj(point, 2);
        src.set_field(p, 0, Value::Int(7)).unwrap();
        src.set_field(p, 1, Value::Double(8.5)).unwrap();

        // the site plan for r.f(p) has an Inline(Point) program
        let plan = plans.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        let node = &plan.args[0];
        assert!(matches!(node, SerNode::Inline { .. }));
        let (out, bytes) =
            roundtrip(&ser, &src, &mut dst, node, Value::Ref(p), false, Value::Null).unwrap();
        assert!(corm_heap::deep_equal_across(&src, Value::Ref(p), &dst, out.value));
        // presence bit + i32 + f64 and nothing else
        assert_eq!(bytes, 1 + 4 + 8);
        let snap = stats.snapshot();
        assert_eq!(snap.type_info_bytes, 0, "site mode sends no type info");
        assert_eq!(snap.ser_invocations, 0, "site mode inlines — no dispatch");
        assert_eq!(snap.cycle_lookups, 0);
    }

    #[test]
    fn prim_array_bulk_roundtrip() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let a = src.alloc_array(&Ty::Double, 4);
        for i in 0..4 {
            src.array_set(a, i, Value::Double(i as f64 * 1.5)).unwrap();
        }
        let node = SerNode::ArrPrim { elem: PrimKind::F64 };
        let (out, bytes) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(a), false, Value::Null).unwrap();
        assert!(corm_heap::deep_equal_across(&src, Value::Ref(a), &dst, out.value));
        assert_eq!(bytes, 1 + 4 + 32);
    }

    #[test]
    fn reuse_overwrites_in_place() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let a = src.alloc_array(&Ty::Double, 8);
        src.array_set(a, 0, Value::Double(1.0)).unwrap();
        let node = SerNode::ArrPrim { elem: PrimKind::F64 };

        let (out1, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(a), false, Value::Null).unwrap();
        assert_eq!(out1.reused, 0);
        let allocs_before = dst.stats.allocs;

        src.array_set(a, 0, Value::Double(2.0)).unwrap();
        let (out2, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(a), false, out1.value).unwrap();
        assert_eq!(out2.reused, 1, "second deserialization reuses the array");
        assert_eq!(out2.value, out1.value, "same object recycled");
        assert_eq!(dst.stats.allocs, allocs_before, "no new allocation");
        let r2 = out2.value.as_ref().unwrap();
        assert_eq!(dst.array_get(r2, 0).unwrap(), Value::Double(2.0));
    }

    #[test]
    fn reuse_size_mismatch_allocates_fresh() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let node = SerNode::ArrPrim { elem: PrimKind::F64 };

        let a8 = src.alloc_array(&Ty::Double, 8);
        let (out1, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(a8), false, Value::Null).unwrap();

        let a4 = src.alloc_array(&Ty::Double, 4);
        let (out2, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(a4), false, out1.value).unwrap();
        assert_eq!(out2.reused, 0, "size mismatch: allocate fresh (Fig 13)");
        assert_ne!(out2.value, out1.value);
    }

    #[test]
    fn nested_reuse_recycles_whole_graph() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        // double[2][3]
        let outer = src.alloc_array(&Ty::Double.array_of(), 2);
        for i in 0..2 {
            let inner = src.alloc_array(&Ty::Double, 3);
            src.array_set(inner, 0, Value::Double(i as f64)).unwrap();
            src.array_set(outer, i, Value::Ref(inner)).unwrap();
        }
        let node = SerNode::ArrRef {
            elem_ty: Ty::Double.array_of(),
            elem: Box::new(SerNode::ArrPrim { elem: PrimKind::F64 }),
        };
        let (out1, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(outer), false, Value::Null).unwrap();
        let (out2, _) =
            roundtrip(&ser, &src, &mut dst, &node, Value::Ref(outer), false, out1.value).unwrap();
        assert_eq!(out2.reused, 3, "outer + two inner arrays reused");
    }

    #[test]
    fn string_roundtrip() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let s = src.alloc_str("hello rmi");
        let (out, _) =
            roundtrip(&ser, &src, &mut dst, &SerNode::Str, Value::Ref(s), false, Value::Null)
                .unwrap();
        assert_eq!(dst.str_value(out.value.as_ref().unwrap()).unwrap(), "hello rmi");
        // null case
        let (out2, bytes) =
            roundtrip(&ser, &src, &mut dst, &SerNode::Str, Value::Null, false, Value::Null)
                .unwrap();
        assert_eq!(out2.value, Value::Null);
        assert_eq!(bytes, 1);
    }

    #[test]
    fn remote_ref_roundtrip() {
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let src = Heap::new();
        let mut dst = Heap::new();
        let rr = RemoteRef { machine: 1, obj: ObjRef(42), class: class_id(&m, "R") };
        let (out, _) = roundtrip(
            &ser,
            &src,
            &mut dst,
            &SerNode::Remote,
            Value::Remote(rr),
            false,
            Value::Null,
        )
        .unwrap();
        assert_eq!(out.value, Value::Remote(rr));
    }

    #[test]
    fn native_objects_rejected() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let rng_class = class_id(&m, "Rng");
        let rng = src.alloc(ObjBody::Native { class: rng_class, data: NativeData::Rng(1) });
        let mut dst = Heap::new();
        let err =
            roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, Value::Ref(rng), true, Value::Null);
        assert!(err.is_err());
    }

    #[test]
    fn class_plan_mismatch_is_error() {
        // Serializing a Pair through an Inline(Point) plan must fail
        // loudly (would indicate an unsound analysis).
        let (m, plans, stats) = fixture(OptConfig::ALL);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let pair = src.alloc_obj(class_id(&m, "Pair"), 2);
        let plan = plans.sites.values().find(|pl| !pl.args.is_empty()).unwrap();
        let mut msg = Message::with_capacity(plan.args_wire_size_hint);
        let mut ct = None;
        let err = ser.serialize(&src, &plan.args[0], Value::Ref(pair), &mut ct, &mut msg);
        assert!(err.is_err());
    }

    #[test]
    fn deser_attribution_counts_into_heap_stats() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let point = class_id(&m, "Point");
        let p = src.alloc_obj(point, 2);
        src.set_field(p, 0, Value::Int(0)).unwrap();
        src.set_field(p, 1, Value::Double(0.0)).unwrap();
        dst.set_attribution(corm_heap::AllocAttribution::Deserialization);
        roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, Value::Ref(p), true, Value::Null)
            .unwrap();
        assert_eq!(dst.stats.deser_allocs, 1);
    }
}
