//! Execution of serializer programs against a heap.
//!
//! One [`Serializer`] is shared per cluster run; it is stateless apart
//! from configuration — cycle tables and reuse candidates are passed in
//! per message, because they are per-RMI (cycle table) or per-call-site
//! (reuse slot) state owned by the VM.

use corm_heap::{FieldsRef, Heap, ObjBody, ObjRef, ObjSet, RemoteRef, Value};
use corm_ir::{ClassId, ClassTable, FieldId, Ty};
use corm_wire::{
    DeserTable, Message, MessageReader, RmiStats, SerCycleTable, ARRAY_TYPE_INFO_BYTES,
    OBJECT_TYPE_INFO_BYTES, TAG_ARRAY_PRIM, TAG_ARRAY_REF, TAG_HANDLE, TAG_NULL, TAG_OBJECT,
    TAG_PRESENT, TAG_REMOTE, TAG_STRING,
};

use crate::plan::Plans;
use crate::{PrimKind, SerNode};

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
    seen: ObjSet,
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

/// The (field, slot, program) rows of one object body, in slot order: what
/// a [`SerNode::Inline`] carries and what a class serializer is.
type Fields = [(FieldId, u32, SerNode)];

/// Deepest nesting of reference payloads one message may have, on every
/// path and in both directions (DESIGN §5.3). The walks keep their levels
/// in a `Vec` on the heap, not on the thread's stack, so the bound caps that
/// vector — what hostile nesting off the wire can make a receiver hold is
/// 10 000 frames of 72 bytes or fewer — and nothing else.
const MAX_DEPTH: usize = 10_000;

/// One nesting level of a walk: the reference node whose payload is being
/// walked, and what is left of that payload.
struct Frame<'w, P> {
    node: &'w SerNode,
    rest: P,
}

/// The one depth guard. Every reference node whose payload holds further
/// references goes on its walk's frame stack before the payload is walked
/// — innermost last, so a [`SerNode::Recur`] indexes it and its length is
/// the nesting depth.
#[inline(always)]
fn enter<'w, P>(
    frames: &mut Vec<Frame<'w, P>>,
    node: &'w SerNode,
    rest: P,
    direction: &str,
) -> Result<(), SerError> {
    if frames.len() >= MAX_DEPTH {
        return serr(format!("{direction} recursion too deep (runaway recursive plan?)"));
    }
    frames.push(Frame { node, rest });
    Ok(())
}

/// The node a [`SerNode::Recur`] stands for, counted from the innermost
/// frame; any other node is itself.
#[inline(always)]
fn resolve<'w, P>(frames: &[Frame<'w, P>], node: &'w SerNode) -> Result<&'w SerNode, SerError> {
    let SerNode::Recur { up } = node else { return Ok(node) };
    frames
        .len()
        .checked_sub(*up as usize)
        .and_then(|i| frames.get(i))
        .map(|f| f.node)
        .ok_or_else(|| SerError(format!("recursion level {up} underflows plan stack")))
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
    ///
    /// The table counts its own lookups, and the walk its type-info bytes
    /// and serializer invocations; each shared counter takes what this call
    /// added in one bump, error or not. A walk without a table (a ping's)
    /// returns straight from the walk and two zero tests: the lookup
    /// bookkeeping, left on its path, costs 2–3× the ~7 ns the walk itself
    /// takes.
    pub fn serialize_audited(
        &self,
        heap: &Heap,
        node: &SerNode,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
    ) -> Result<(), SerError> {
        let Some(before) = cycle.as_ref().map(SerCycleTable::lookups) else {
            return self.walk(heap, node, v, cycle, msg, shadow);
        };
        let out = self.walk(heap, node, v, cycle, msg, shadow);
        let looked = cycle.as_ref().map_or(0, |t| t.lookups() - before);
        if looked > 0 {
            RmiStats::bump(&self.stats.cycle_lookups, looked);
        }
        out
    }

    /// One [`SerWalk`], and the counts it kept, bumped. A scalar root (a
    /// ping's) is written before a walk exists.
    fn walk(
        &self,
        heap: &Heap,
        node: &SerNode,
        v: Value,
        cycle: &mut Option<SerCycleTable>,
        msg: &mut Message,
        shadow: &mut Option<ShadowCycleCheck>,
    ) -> Result<(), SerError> {
        if let SerNode::Prim(k) = node {
            return write_prim(*k, v, msg);
        }
        let mut walk = SerWalk {
            ser: self,
            heap,
            cycle,
            msg,
            shadow,
            frames: Vec::new(),
            type_info: 0,
            invocations: 0,
        };
        let out = walk.run(node, v);
        let (type_info, invocations) = (walk.type_info, walk.invocations);
        if type_info > 0 {
            RmiStats::bump(&self.stats.type_info_bytes, type_info);
        }
        if invocations > 0 {
            RmiStats::bump(&self.stats.ser_invocations, invocations);
        }
        out
    }

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
        if let SerNode::Prim(k) = node {
            return Ok(DeserOutcome { value: read_prim(*k, r)?, reused: 0 });
        }
        // Without a candidate nothing can be claimed: no round to start.
        if let Value::Ref(_) = reuse {
            heap.start_claims();
        }
        let mut walk = DeserWalk { ser: self, heap, r, dtable, reused: 0, frames: Vec::new() };
        let value = walk.run(node, reuse)?;
        Ok(DeserOutcome { value, reused: walk.reused })
    }

    /// The class serializer the tagged path dispatches to: the rows of its
    /// class's [`SerNode::Inline`], as a call-site plan inlines them.
    fn class_program(&self, class: ClassId) -> Result<&'a Fields, SerError> {
        match &self.plans.class_sers[class.index()] {
            Some(SerNode::Inline { fields, .. }) => Ok(fields),
            _ => serr(format!("class {} is not serializable", self.table.class(class).name)),
        }
    }
}

// =========================================================================
// Serialization
// =========================================================================

/// The payload behind a reference node's header, with what the heap holds
/// of it: a call-site plan names the program statically, the tagged path
/// reads it off the object, and either way the object's slot is looked up
/// once.
enum Body<'w> {
    /// An instance's program and its fields.
    Object(&'w Fields, &'w [Value]),
    /// A primitive array's element kind and its body.
    Prims(PrimKind, &'w ObjBody),
    /// A reference array's element program and its elements.
    Refs(&'w SerNode, &'w [Value]),
}

/// What is left to write of the payload a [`SerWalk`] frame is inside of.
enum SerRest<'w> {
    /// An instance's rows not yet written, and its fields.
    Fields { r: ObjRef, rows: std::slice::Iter<'w, (FieldId, u32, SerNode)>, values: &'w [Value] },
    /// A reference array's elements not yet written, each by `elem`.
    Elems { elem: &'w SerNode, elems: std::slice::Iter<'w, Value> },
}

/// One message's serialization: what [`Serializer::serialize_audited`]
/// was handed, the frame stack of [`enter`], and the tagged path's counts,
/// which [`Serializer::walk`] bumps once.
struct SerWalk<'w> {
    ser: &'w Serializer<'w>,
    heap: &'w Heap,
    cycle: &'w mut Option<SerCycleTable>,
    msg: &'w mut Message,
    shadow: &'w mut Option<ShadowCycleCheck>,
    frames: Vec<Frame<'w, SerRest<'w>>>,
    type_info: u64,
    invocations: u64,
}

impl<'w> SerWalk<'w> {
    /// Serialize `v` by `node`: one loop over the frame stack, which takes
    /// the next value of the innermost payload, or pops it when none is
    /// left.
    fn run(&mut self, node: &'w SerNode, v: Value) -> Result<(), SerError> {
        self.value(node, v)?;
        while let Some(top) = self.frames.last_mut() {
            let next = match &mut top.rest {
                // A run of primitive fields is written here, not round the loop.
                SerRest::Fields { r, rows, values } => loop {
                    let Some((_, slot, sub)) = rows.next() else { break None };
                    let v = values.get(*slot as usize).copied().ok_or_else(|| {
                        SerError(format!("field slot {slot} out of range on {r}"))
                    })?;
                    match sub {
                        SerNode::Prim(k) => write_prim(*k, v, self.msg)?,
                        _ => break Some((sub, v)),
                    }
                },
                SerRest::Elems { elem, elems } => elems.next().map(|&v| (*elem, v)),
            };
            match next {
                Some((sub, v)) => self.value(sub, v)?,
                None => {
                    self.frames.pop();
                }
            }
        }
        Ok(())
    }

    /// Write `v` by `node` up to its first nested reference; a payload
    /// that holds references goes on the frame stack for `run` to walk.
    #[inline(always)]
    fn value(&mut self, node: &'w SerNode, v: Value) -> Result<(), SerError> {
        if let SerNode::Prim(k) = node {
            return write_prim(*k, v, self.msg);
        }
        let node = resolve(&self.frames, node)?;
        let Some((r, body)) = self.open(node, v)? else { return Ok(()) };
        match body {
            Body::Prims(elem, arr) => write_prim_array_payload(arr, elem, self.msg),
            Body::Object(fields, values) => {
                let rest = SerRest::Fields { r, rows: fields.iter(), values };
                enter(&mut self.frames, node, rest, "serialization")
            }
            Body::Refs(elem, elems) => {
                let rest = SerRest::Elems { elem, elems: elems.iter() };
                enter(&mut self.frames, node, rest, "serialization")?;
                self.msg.write_u32(elems.len() as u32);
                Ok(())
            }
        }
    }

    /// Write everything of `v` that precedes a reference payload — which
    /// is all of it for a string, remote reference, null or
    /// back-reference — and name the payload still to come.
    #[inline(always)]
    fn open(
        &mut self,
        node: &'w SerNode,
        v: Value,
    ) -> Result<Option<(ObjRef, Body<'w>)>, SerError> {
        let r = match (node, v) {
            (SerNode::Dynamic, v) => return self.open_dynamic(v),
            (SerNode::Prim(_) | SerNode::Recur { .. }, _) => unreachable!("`value` saw to it"),
            (_, Value::Null) => {
                self.msg.write_u8(TAG_NULL);
                return Ok(None);
            }
            (SerNode::Str, Value::Ref(r)) => {
                self.msg.write_u8(TAG_PRESENT);
                self.msg.write_str(self.heap.str_value(r)?);
                return Ok(None);
            }
            (SerNode::Str, other) => return serr(format!("expected string, found {other:?}")),
            (SerNode::Remote, Value::Remote(rr)) => {
                self.msg.write_u8(TAG_PRESENT);
                write_remote(self.msg, rr);
                return Ok(None);
            }
            (SerNode::Remote, other) => {
                return serr(format!("expected remote ref, found {other:?}"))
            }
            (_, Value::Ref(r)) => r,
            (_, other) => return serr(format!("expected reference, found {other:?}")),
        };
        // A statically known reference: handle or presence, and not a
        // byte of type information.
        if self.back_reference(r)? {
            return Ok(None);
        }
        self.msg.write_u8(TAG_PRESENT);
        let (obj, values) = self.heap.body_and_fields(r)?;
        let body = match (node, obj) {
            (SerNode::Inline { class, fields }, ObjBody::Obj { class: actual, .. })
                if actual == class =>
            {
                Body::Object(fields, values)
            }
            (SerNode::Inline { class, .. }, obj) => {
                let table = self.ser.table;
                return serr(format!(
                    "call-site plan expected {} but found {:?} (analysis violation)",
                    table.class(*class).name,
                    obj.class().map(|c| table.class(c).name.clone())
                ));
            }
            (SerNode::ArrPrim { elem }, obj) => Body::Prims(*elem, obj),
            (SerNode::ArrRef { elem, .. }, ObjBody::ArrRef { data, .. }) => Body::Refs(elem, data),
            (_, _) => return serr(format!("length of non-array {r}")),
        };
        Ok(Some((r, body)))
    }

    /// The handle protocol of a reference about to be written, shared by
    /// both paths: with a cycle table a second visit becomes a
    /// back-reference (`true`: nothing more to write); without one the
    /// auditor's shadow table, when armed, checks the claim that let the
    /// plan drop it (strings included, exactly the real table's scope).
    #[inline(always)]
    fn back_reference(&mut self, r: ObjRef) -> Result<bool, SerError> {
        let Some(table) = self.cycle else {
            return audit_check(self.shadow, r).map(|()| false);
        };
        let Ok(handle) = table.check(r) else { return Ok(false) };
        self.msg.write_u8(TAG_HANDLE);
        self.msg.write_u32(handle);
        Ok(true)
    }

    /// The tagged path — the `class` baseline and the fall-back inside
    /// site-mode plans — keeps what is its own: the `TAG_*` protocol,
    /// the type information it puts on the wire and the serializer
    /// invocation it counts per object. The payload is `value`'s.
    fn open_dynamic(&mut self, v: Value) -> Result<Option<(ObjRef, Body<'w>)>, SerError> {
        let r = match v {
            Value::Null => {
                self.msg.write_u8(TAG_NULL);
                return Ok(None);
            }
            // Scalars never reach the tagged path: every program
            // classifies primitive slots statically. Hitting one
            // indicates a codegen bug.
            v @ (Value::Bool(_) | Value::Int(_) | Value::Long(_) | Value::Double(_)) => {
                return serr(format!("scalar {v:?} in dynamic serialization"));
            }
            Value::Remote(rr) => {
                self.msg.write_u8(TAG_REMOTE);
                self.type_info += 1;
                write_remote(self.msg, rr);
                return Ok(None);
            }
            Value::Ref(r) => r,
        };
        if self.back_reference(r)? {
            return Ok(None);
        }
        let (obj, values) = self.heap.body_and_fields(r)?;
        let (body, type_info) = match obj {
            ObjBody::Str(s) => {
                self.msg.write_u8(TAG_STRING);
                self.type_info += 1;
                self.msg.write_str(s);
                return Ok(None);
            }
            ObjBody::Obj { class, .. } => {
                self.msg.write_u8(TAG_OBJECT);
                self.msg.write_u32(class.0);
                (Body::Object(self.ser.class_program(*class)?, values), OBJECT_TYPE_INFO_BYTES)
            }
            ObjBody::ArrRef { elem, data } => {
                self.msg.write_u8(TAG_ARRAY_REF);
                let ty_bytes = write_ty(self.msg, elem);
                (Body::Refs(&SerNode::Dynamic, data), ARRAY_TYPE_INFO_BYTES + ty_bytes)
            }
            ObjBody::Native { class, .. } => {
                return serr(format!(
                    "native objects of class {} cannot be serialized",
                    self.ser.table.class(*class).name
                ))
            }
            prims => {
                let kind = match prims {
                    ObjBody::ArrBool(_) => PrimKind::Bool,
                    ObjBody::ArrI32(_) => PrimKind::I32,
                    ObjBody::ArrI64(_) => PrimKind::I64,
                    _ => PrimKind::F64,
                };
                self.msg.write_u8(TAG_ARRAY_PRIM);
                self.msg.write_u8(prim_elem(kind).1);
                (Body::Prims(kind, prims), ARRAY_TYPE_INFO_BYTES)
            }
        };
        self.type_info += type_info;
        self.invocations += 1;
        Ok(Some((r, body)))
    }
}

#[inline(always)]
fn write_prim(k: PrimKind, v: Value, msg: &mut Message) -> Result<(), SerError> {
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
    arr: &ObjBody,
    elem: PrimKind,
    msg: &mut Message,
) -> Result<(), SerError> {
    match (arr, elem) {
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

// =========================================================================
// Deserialization
// =========================================================================

/// A value as far as it can be read without reading a nested reference.
enum Opened<'w> {
    /// All of it: a string, remote reference, null, back-reference or
    /// primitive array.
    Done(Value),
    /// An object, allocated or recycled, its fields still on the wire.
    Object { obj: ObjRef, reusing: bool, fields: &'w Fields },
    /// A reference array, allocated or recycled, its `len` elements
    /// (each by `elem`) still on the wire.
    Refs { obj: ObjRef, reusing: bool, len: usize, elem: &'w SerNode },
}

/// Where a value read for a frame's payload is stored: a field slot of its
/// instance, or an element of its array.
#[derive(Clone, Copy)]
enum Dest {
    Slot(FieldsRef, u32),
    Elem(ObjRef, u32),
}

/// The object a [`DeserWalk`] frame reads into, where it goes when it is
/// finished (`None`: it is the root), and what is left to read of it.
struct DeserRest<'w> {
    obj: ObjRef,
    reusing: bool,
    to: Option<Dest>,
    unread: Unread<'w>,
}

enum Unread<'w> {
    /// An instance's rows not yet read, into the fields at `at`.
    Fields { at: FieldsRef, rows: std::slice::Iter<'w, (FieldId, u32, SerNode)> },
    /// A reference array's elements `next..len`, each by `elem`.
    Elems { elem: &'w SerNode, next: u32, len: u32 },
}

/// One message's deserialization: what [`Serializer::deserialize`] was
/// handed, the frame stack of [`enter`], and the reuse accounting.
struct DeserWalk<'w, 'm> {
    ser: &'w Serializer<'w>,
    heap: &'w mut Heap,
    r: &'w mut MessageReader<'m>,
    dtable: &'w mut Option<DeserTable>,
    /// Objects of the reuse candidate recycled so far. Each may be claimed
    /// once ([`Heap::claim`], in the round [`Serializer::deserialize`]
    /// started): cached graphs can contain shared children (they were
    /// built with a handle table), and reusing one object for two distinct
    /// wire positions would silently introduce aliasing that the source
    /// graph does not have.
    reused: u64,
    frames: Vec<Frame<'w, DeserRest<'w>>>,
}

impl<'w> DeserWalk<'w, '_> {
    /// Read one value by `node`, into `reuse` where that fits: one loop
    /// over the frame stack, as [`SerWalk::run`]. A frame is popped when
    /// its payload is read, and its object stored where it goes — unless it
    /// was recycled, and so is there already.
    ///
    /// A recycled object is the candidate `load` read from that very slot or
    /// element before the walk descended into it, and only its pop writes
    /// there: a walk writes only the objects on its frames, and claim stamps
    /// keep one candidate from filling two positions. It is the *child's*
    /// flag that decides: a recycled parent may be given a fresh child. A
    /// value read whole (a recycled primitive array among them) is stored
    /// without a test, which measured faster than comparing it with `old`.
    fn run(&mut self, node: &'w SerNode, reuse: Value) -> Result<Value, SerError> {
        if let Some(v) = self.value(node, reuse, None)? {
            return Ok(v);
        }
        while let Some(top) = self.frames.last_mut() {
            let DeserRest { obj, reusing, unread, .. } = &mut top.rest;
            let reusing = *reusing;
            let next = match unread {
                // A run of primitive fields is read here, not round the loop.
                Unread::Fields { at, rows } => loop {
                    match rows.next() {
                        Some((_, slot, SerNode::Prim(k))) => {
                            let v = read_prim(*k, self.r)?;
                            self.heap.set_slot(*at, *slot as usize, v)?;
                        }
                        row => break row.map(|(_, slot, sub)| (sub, Dest::Slot(*at, *slot))),
                    }
                },
                Unread::Elems { elem, next, len } if *next < *len => {
                    *next += 1;
                    Some((*elem, Dest::Elem(*obj, *next - 1)))
                }
                Unread::Elems { .. } => None,
            };
            let Some((sub, to)) = next else {
                let done = self.frames.pop().expect("the frame just read").rest;
                match done.to {
                    None => return Ok(Value::Ref(done.obj)),
                    Some(_) if done.reusing => {}
                    Some(to) => self.store(to, Value::Ref(done.obj))?,
                }
                continue;
            };
            let old = if reusing { self.load(to)? } else { Value::Null };
            if let Some(v) = self.value(sub, old, Some(to))? {
                self.store(to, v)?;
            }
        }
        unreachable!("the root frame returns the value")
    }

    /// Read `node`'s value up to its first nested reference, into `reuse`
    /// where that fits: the whole value, or `None` when an object or
    /// reference array went on the frame stack to be read into and stored
    /// at `to` (the caller's, for the root).
    #[inline(always)]
    fn value(
        &mut self,
        node: &'w SerNode,
        reuse: Value,
        to: Option<Dest>,
    ) -> Result<Option<Value>, SerError> {
        if let SerNode::Prim(k) = node {
            return read_prim(*k, self.r).map(Some);
        }
        let node = resolve(&self.frames, node)?;
        let (obj, reusing, unread) = match self.open(node, reuse)? {
            Opened::Done(v) => return Ok(Some(v)),
            // One slot lookup for the whole object: nothing is collected
            // inside a walk, so its fields stay where they are while the
            // nested values allocate.
            Opened::Object { obj, reusing, fields } => {
                let at = self.heap.fields_ref(obj)?;
                (obj, reusing, Unread::Fields { at, rows: fields.iter() })
            }
            Opened::Refs { obj, reusing, len, elem } => {
                // A length off the wire: `read_len` read it as a u32.
                (obj, reusing, Unread::Elems { elem, next: 0, len: len as u32 })
            }
        };
        let rest = DeserRest { obj, reusing, to, unread };
        enter(&mut self.frames, node, rest, "deserialization")?;
        Ok(None)
    }

    /// The value a reuse candidate holds where `to` points.
    #[inline(always)]
    fn load(&self, to: Dest) -> Result<Value, SerError> {
        Ok(match to {
            Dest::Slot(at, slot) => self.heap.slot(at, slot as usize)?,
            Dest::Elem(arr, i) => self.heap.array_get(arr, i as usize)?,
        })
    }

    /// Store a finished value where it goes.
    #[inline(always)]
    fn store(&mut self, to: Dest, v: Value) -> Result<(), SerError> {
        match to {
            Dest::Slot(at, slot) => self.heap.set_slot(at, slot as usize, v)?,
            Dest::Elem(arr, i) => self.heap.array_set(arr, i as usize, v)?,
        }
        Ok(())
    }

    /// Read `node`'s value up to its first nested reference.
    #[inline(always)]
    fn open(&mut self, node: &'w SerNode, reuse: Value) -> Result<Opened<'w>, SerError> {
        let tag = match node {
            SerNode::Dynamic => return self.open_dynamic(reuse),
            SerNode::Prim(_) | SerNode::Recur { .. } => unreachable!("`value` saw to it"),
            _ => self.r.read_u8()?,
        };
        match (node, tag) {
            (_, TAG_NULL) => Ok(Opened::Done(Value::Null)),
            (SerNode::Str, TAG_PRESENT) => self.read_string(false),
            (SerNode::Str, t) => serr(format!("bad string tag {t}")),
            (SerNode::Remote, TAG_PRESENT) => self.read_remote(),
            (SerNode::Remote, t) => serr(format!("bad remote tag {t}")),
            // A statically known reference: handle or presence.
            (_, TAG_HANDLE) => self.read_handle(),
            (SerNode::Inline { class, fields }, TAG_PRESENT) => {
                Ok(self.object(*class, fields, reuse))
            }
            (SerNode::ArrPrim { elem }, TAG_PRESENT) => self.prim_array(*elem, reuse),
            (SerNode::ArrRef { elem_ty, elem }, TAG_PRESENT) => {
                self.ref_array(elem_ty, elem, reuse)
            }
            (_, t) => serr(format!("bad header tag {t}")),
        }
    }

    /// The tagged path keeps what is its own — the `TAG_*` protocol and
    /// the checks on a class id off the wire — and reads payloads with
    /// the functions the plan path uses.
    fn open_dynamic(&mut self, reuse: Value) -> Result<Opened<'w>, SerError> {
        match self.r.read_u8()? {
            TAG_NULL => Ok(Opened::Done(Value::Null)),
            TAG_HANDLE => self.read_handle(),
            TAG_REMOTE => self.read_remote(),
            TAG_STRING => self.read_string(true),
            TAG_OBJECT => {
                let class = ClassId(self.r.read_u32()?);
                if class.index() >= self.ser.table.classes.len() {
                    return serr(format!("unknown wire class id {}", class.0));
                }
                Ok(self.object(class, self.ser.class_program(class)?, reuse))
            }
            TAG_ARRAY_PRIM => {
                let kind = match self.r.read_u8()? {
                    corm_wire::ELEM_BOOL => PrimKind::Bool,
                    corm_wire::ELEM_I32 => PrimKind::I32,
                    corm_wire::ELEM_I64 => PrimKind::I64,
                    corm_wire::ELEM_F64 => PrimKind::F64,
                    k => return serr(format!("bad elem kind {k}")),
                };
                self.prim_array(kind, reuse)
            }
            TAG_ARRAY_REF => {
                let elem_ty = read_ty(self.r)?;
                self.ref_array(&elem_ty, &SerNode::Dynamic, reuse)
            }
            t => serr(format!("bad dynamic tag {t}")),
        }
    }

    /// A back-reference: the object the sender's cycle table had already
    /// seen, by the handle both tables gave it.
    fn read_handle(&mut self) -> Result<Opened<'w>, SerError> {
        let h = self.r.read_u32()?;
        let table =
            self.dtable.as_ref().ok_or_else(|| SerError("handle without deser table".into()))?;
        let obj = table.lookup(h).ok_or_else(|| SerError(format!("dangling wire handle {h}")))?;
        Ok(Opened::Done(Value::Ref(obj)))
    }

    /// A string: on the tagged path the sender's cycle table saw it
    /// (`back_reference` runs before the tag), so there it takes a wire
    /// handle like any other object; behind a `Str` node it has none.
    fn read_string(&mut self, tagged: bool) -> Result<Opened<'w>, SerError> {
        let s = self.r.read_str()?;
        let s = self.heap.alloc_str(s);
        if tagged {
            self.register(s);
        }
        Ok(Opened::Done(Value::Ref(s)))
    }

    /// A remote reference must name a remote class of this program's
    /// table: the first call through it indexes the table by that id.
    fn read_remote(&mut self) -> Result<Opened<'w>, SerError> {
        let machine = self.r.read_u32()?;
        let machine = u16::try_from(machine)
            .map_err(|_| SerError(format!("remote reference to machine {machine} out of range")))?;
        let obj = ObjRef(self.r.read_u32()?);
        let class = ClassId(self.r.read_u32()?);
        if !self.ser.table.classes.get(class.index()).is_some_and(|c| c.is_remote) {
            return serr(format!("wire class id {} is not a remote class", class.0));
        }
        Ok(Opened::Done(Value::Remote(RemoteRef { machine, obj, class })))
    }

    /// Same class ⇒ overwrite in place.
    #[inline(always)]
    fn object(&mut self, class: ClassId, fields: &'w Fields, reuse: Value) -> Opened<'w> {
        let recycled = self.recycle(reuse, |b| b.class() == Some(class));
        let obj = recycled.unwrap_or_else(|| self.heap.alloc_obj(class, fields.len()));
        self.register(obj);
        Opened::Object { obj, reusing: recycled.is_some(), fields }
    }

    fn prim_array(&mut self, elem: PrimKind, reuse: Value) -> Result<Opened<'w>, SerError> {
        let len = self.read_len(prim_elem(elem).0)?;
        let recycled = self.recycle(reuse, |b| prim_array_len(b, elem) == Some(len));
        let obj = recycled.unwrap_or_else(|| self.heap.alloc_array(&elem.ty(), len));
        self.register(obj);
        read_prim_array_payload(self.heap, obj, elem, self.r)?;
        Ok(Opened::Done(Value::Ref(obj)))
    }

    fn ref_array(
        &mut self,
        elem_ty: &Ty,
        elem: &'w SerNode,
        reuse: Value,
    ) -> Result<Opened<'w>, SerError> {
        let len = self.read_len(1)?;
        let recycled =
            self.recycle(reuse, |b| matches!(b, ObjBody::ArrRef { data, .. } if data.len() == len));
        let obj = recycled.unwrap_or_else(|| self.heap.alloc_array(elem_ty, len));
        self.register(obj);
        Ok(Opened::Refs { obj, reusing: recycled.is_some(), len, elem })
    }

    /// A length prefix, checked against what is left of the message: a
    /// claimed array of `len` elements of at least `min_elem_bytes`
    /// bytes each cannot exceed the remaining payload.
    fn read_len(&mut self, min_elem_bytes: usize) -> Result<usize, SerError> {
        let len = self.r.read_u32()? as usize;
        let remaining = self.r.remaining();
        if len.saturating_mul(min_elem_bytes) > remaining {
            return serr(format!("corrupt length {len} exceeds remaining payload {remaining}"));
        }
        Ok(len)
    }

    /// The reuse candidate, claimed, when it `fits` and no wire position
    /// took it yet; otherwise the caller allocates. Either way the object
    /// a payload is read into takes the next wire handle (`register`).
    #[inline(always)]
    fn recycle(&mut self, reuse: Value, fits: impl FnOnce(&ObjBody) -> bool) -> Option<ObjRef> {
        let Value::Ref(old) = reuse else { return None };
        let claimed = self.heap.claim(old, fits);
        self.reused += u64::from(claimed);
        claimed.then_some(old)
    }

    #[inline(always)]
    fn register(&mut self, obj: ObjRef) {
        if let Some(t) = self.dtable {
            t.register(obj);
        }
    }
}

/// Wire width and `TAG_ARRAY_PRIM` element code of one element of a
/// primitive array.
fn prim_elem(k: PrimKind) -> (usize, u8) {
    match k {
        PrimKind::Bool => (1, corm_wire::ELEM_BOOL),
        PrimKind::I32 => (4, corm_wire::ELEM_I32),
        PrimKind::I64 => (8, corm_wire::ELEM_I64),
        PrimKind::F64 => (8, corm_wire::ELEM_F64),
    }
}

/// Length of `b` if it is a primitive array of `elem`s.
fn prim_array_len(b: &ObjBody, elem: PrimKind) -> Option<usize> {
    match (b, elem) {
        (ObjBody::ArrBool(a), PrimKind::Bool) => Some(a.len()),
        (ObjBody::ArrI32(a), PrimKind::I32) => Some(a.len()),
        (ObjBody::ArrI64(a), PrimKind::I64) => Some(a.len()),
        (ObjBody::ArrF64(a), PrimKind::F64) => Some(a.len()),
        _ => None,
    }
}

fn read_prim_array_payload(
    heap: &mut Heap,
    obj: ObjRef,
    elem: PrimKind,
    r: &mut MessageReader<'_>,
) -> Result<(), SerError> {
    match (heap.body_mut(obj)?, elem) {
        (ObjBody::ArrBool(a), PrimKind::Bool) => r.read_bool_into(a)?,
        (ObjBody::ArrI32(a), PrimKind::I32) => r.read_i32_into(a)?,
        (ObjBody::ArrI64(a), PrimKind::I64) => r.read_i64_into(a)?,
        (ObjBody::ArrF64(a), PrimKind::F64) => r.read_f64_into(a)?,
        (b, k) => return serr(format!("deser array kind mismatch: {k:?} vs {b:?}")),
    }
    Ok(())
}

#[inline(always)]
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
    use crate::plan::{compile, generate_plans, OptConfig, Plans};
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
        let (m, _, p) = compile(src, config).unwrap();
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

    /// The counter takes the table's lookups once per call — those of a
    /// walk that fails part-way too, as when it was bumped per lookup.
    #[test]
    fn a_failed_walk_counts_the_lookups_it_made() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut src = Heap::new();
        let point = src.alloc_obj(class_id(&m, "Point"), 2);
        src.set_field(point, 0, Value::Int(1)).unwrap();
        src.set_field(point, 1, Value::Double(2.0)).unwrap();
        let rng =
            src.alloc(ObjBody::Native { class: class_id(&m, "Rng"), data: NativeData::Rng(1) });
        let pair = src.alloc_obj(class_id(&m, "Pair"), 2);
        src.set_field(pair, 0, Value::Ref(point)).unwrap();
        src.set_field(pair, 1, Value::Ref(rng)).unwrap();
        let mut ct = Some(SerCycleTable::new());
        let mut msg = Message::new();
        ser.serialize(&src, &SerNode::Dynamic, Value::Ref(point), &mut ct, &mut msg).unwrap();
        assert!(ser
            .serialize(&src, &SerNode::Dynamic, Value::Ref(pair), &mut ct, &mut msg)
            .is_err());
        // point; then pair, point again (a hit) and the native object.
        assert_eq!(ct.unwrap().lookups(), 4);
        assert_eq!(stats.snapshot().cycle_lookups, 4);
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

    /// One guard bounds the nesting of reference payloads, on the tagged
    /// path (`class`) and through an inlined `Node` whose `next` re-enters
    /// it (`all`), in both directions.
    fn nest_to_the_depth_bound_and_one_level_deeper() {
        const LIST_SRC: &str = r#"
            class Node { Node next; int v; Node(Node n) { this.next = n; } }
            remote class R { void f(Node p) { } }
            class M {
                static void main() {
                    R r = new R();
                    Node head = null;
                    for (int i = 0; i < 10; i++) { head = new Node(head); }
                    r.f(head);
                }
            }
        "#;
        let m = compile_frontend(LIST_SRC).unwrap();
        let a = analyze_module(&m, AnalysisOptions::default());
        let node_class = class_id(&m, "Node");
        // MAX_DEPTH + 1 nodes from `head`, MAX_DEPTH from `head.next`.
        let mut src = Heap::new();
        let (mut head, mut second) = (Value::Null, Value::Null);
        for i in 0..=MAX_DEPTH {
            let n = src.alloc_obj(node_class, 2);
            src.set_field(n, 0, head).unwrap();
            src.set_field(n, 1, Value::Int(i as i32)).unwrap();
            (second, head) = (head, Value::Ref(n));
        }
        for config in [OptConfig::CLASS, OptConfig::ALL] {
            let plans = generate_plans(&m, &a, config);
            let stats = RmiStats::new();
            let ser = Serializer::new(&plans, &m.table, &stats);
            let node = &plans.sites.values().find(|pl| !pl.args.is_empty()).unwrap().args[0];
            let (ct, dt) = (|| Some(SerCycleTable::new()), || Some(DeserTable::new()));

            let mut msg = Message::new();
            let err = ser.serialize(&src, node, head, &mut ct(), &mut msg).expect_err("over");
            assert!(err.0.contains("serialization recursion too deep"), "{config:?}: {err}");

            let mut msg = Message::new();
            ser.serialize(&src, node, second, &mut ct(), &mut msg).expect("at the bound");
            let mut dst = Heap::new();
            let copy = ser
                .deserialize(&mut dst, node, &mut msg.reader(), &mut dt(), Value::Null)
                .expect("at the bound");
            // Walk, don't recurse: the copy is as deep as the original.
            let (mut at, mut len) = (copy.value, 0);
            while let Value::Ref(n) = at {
                (at, len) = (dst.field(n, 0).unwrap(), len + 1);
            }
            assert_eq!(len, MAX_DEPTH, "{config:?}");

            // One more object around those bytes, nested by hand.
            if config == OptConfig::CLASS {
                let mut over = vec![TAG_OBJECT];
                over.extend(node_class.0.to_le_bytes());
                over.extend(msg.as_bytes());
                over.extend(0i32.to_le_bytes());
                let err = ser
                    .deserialize(
                        &mut dst,
                        node,
                        &mut MessageReader::new(&over),
                        &mut dt(),
                        Value::Null,
                    )
                    .expect_err("over");
                assert!(err.0.contains("deserialization recursion too deep"), "{err}");
            }
        }
    }

    /// Checked on the stack every VM thread gets.
    #[test]
    fn nesting_at_the_depth_bound_round_trips_and_one_level_deeper_fails_the_call() {
        let vm_stack = std::thread::Builder::new().stack_size(32 * 1024 * 1024);
        vm_stack.spawn(nest_to_the_depth_bound_and_one_level_deeper).unwrap().join().unwrap();
    }

    /// The walks keep their levels on the heap: nesting to the bound needs
    /// no more of the thread's stack than a flat graph does. A recursive
    /// walk overflows 256 KiB at a few hundred levels in debug builds.
    #[test]
    fn the_depth_bound_holds_on_a_256_kib_stack() {
        let small = std::thread::Builder::new().stack_size(256 * 1024);
        small.spawn(nest_to_the_depth_bound_and_one_level_deeper).unwrap().join().unwrap();
    }

    /// Bytes off the wire that name a class which cannot cross it (Seneca,
    /// PAPERS.md: the wire is attacker-controlled) fail the call before
    /// anything is allocated.
    #[test]
    fn a_wire_class_id_naming_a_native_class_is_an_error() {
        let (m, plans, stats) = fixture(OptConfig::CLASS);
        let ser = Serializer::new(&plans, &m.table, &stats);
        let mut bytes = vec![TAG_OBJECT];
        bytes.extend(class_id(&m, "Rng").0.to_le_bytes());
        let mut dst = Heap::new();
        let allocs = dst.stats.allocs;
        let err = ser
            .deserialize(
                &mut dst,
                &SerNode::Dynamic,
                &mut MessageReader::new(&bytes),
                &mut Some(DeserTable::new()),
                Value::Null,
            )
            .expect_err("a native class id");
        assert_eq!(err, SerError("class Rng is not serializable".into()));
        assert_eq!(dst.stats.allocs, allocs, "nothing allocated");
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

    /// The golden-bytes module: one remote method per graph shape, each
    /// called on that shape, so a call-site plan is the analysis's own.
    const GOLDEN_SRC: &str = r#"
        class Node { Node next; int v; }
        class Pair { Pair l; Pair r; int v; }
        class Box { Object x; Object y; Object z; }
        remote class R {
            void list(Node n) { }
            void tree(Pair p) { }
            void diamond(Pair p) { }
            void selfLoop(Node n) { }
            void dyn(Box b) { }
            void arr(Node[] a) { }
        }
        class M {
            static Pair tree(int depth) {
                if (depth <= 0) { return null; }
                Pair p = new Pair();
                p.v = depth;
                p.l = tree(depth - 1);
                p.r = tree(depth - 1);
                return p;
            }
            static void main() {
                R r = new R();
                Node a = new Node();
                a.next = new Node();
                a.next.next = new Node();
                r.list(a);
                r.tree(tree(3));
                Pair d = new Pair();
                Pair s = new Pair();
                d.l = s;
                d.r = s;
                r.diamond(d);
                Node loop = new Node();
                loop.next = loop;
                r.selfLoop(loop);
                Box b = new Box();
                Object o = "hi";
                if (a.v > 0) { o = new int[2]; }
                if (a.v > 1) { o = new Node(); }
                b.x = o;
                b.y = o;
                b.z = o;
                r.dyn(b);
                Node[] arr = new Node[3];
                arr[0] = new Node();
                arr[2] = arr[0];
                r.arr(arr);
            }
        }
    "#;

    /// Each golden graph, built by hand in `heap` as `GOLDEN_SRC`'s `main`
    /// builds it, with the method that carries it.
    fn golden_graphs(m: &Module, heap: &mut Heap) -> Vec<(&'static str, Value)> {
        let (node, pair, boxc) = (class_id(m, "Node"), class_id(m, "Pair"), class_id(m, "Box"));
        let obj = |heap: &mut Heap, class, fields: &[Value]| {
            let o = heap.alloc_obj(class, fields.len());
            for (slot, &v) in fields.iter().enumerate() {
                heap.set_field(o, slot, v).unwrap();
            }
            Value::Ref(o)
        };
        let mut list = Value::Null;
        for v in [3, 2, 1] {
            list = obj(heap, node, &[list, Value::Int(v)]);
        }
        fn tree(heap: &mut Heap, pair: ClassId, depth: i32) -> Value {
            if depth == 0 {
                return Value::Null;
            }
            let (l, r) = (tree(heap, pair, depth - 1), tree(heap, pair, depth - 1));
            let p = heap.alloc_obj(pair, 3);
            for (slot, v) in [l, r, Value::Int(depth)].into_iter().enumerate() {
                heap.set_field(p, slot, v).unwrap();
            }
            Value::Ref(p)
        }
        let tree = tree(heap, pair, 3);
        let shared = obj(heap, pair, &[Value::Null, Value::Null, Value::Int(0)]);
        let diamond = obj(heap, pair, &[shared, shared, Value::Int(0)]);
        let looped = obj(heap, node, &[Value::Null, Value::Int(9)]);
        heap.set_field(looped.as_ref().unwrap(), 0, looped).unwrap();
        let s = Value::Ref(heap.alloc_str("hi"));
        let ints = heap.alloc_array(&Ty::Int, 2);
        heap.array_set(ints, 1, Value::Int(-5)).unwrap();
        let dyn_box = obj(heap, boxc, &[s, Value::Ref(ints), Value::Null]);
        let elem = obj(heap, node, &[Value::Null, Value::Int(4)]);
        let arr = heap.alloc_array(&Ty::Class(node), 3);
        heap.array_set(arr, 0, elem).unwrap();
        heap.array_set(arr, 2, elem).unwrap();
        vec![
            ("list", list),
            ("tree", tree),
            ("diamond", diamond),
            ("selfLoop", looped),
            ("dyn", dyn_box),
            ("arr", Value::Ref(arr)),
        ]
    }

    /// One line per golden graph under `config`: the message its call
    /// site's plan writes, in hex, then how many objects a reuse round trip
    /// recycles and what the walk counted.
    fn golden_lines(config: OptConfig) -> Vec<String> {
        let (m, _, plans) = compile(GOLDEN_SRC, config).unwrap();
        let mut src = Heap::new();
        let graphs = golden_graphs(&m, &mut src);
        let mut lines = Vec::new();
        for (method, v) in graphs {
            let plan = plans.sites.values().find(|p| m.table.method(p.method).name == method);
            let plan = plan.unwrap();
            let (node, table) = (&plan.args[0], plan.args_cycle_table);
            let stats = RmiStats::new();
            let ser = Serializer::new(&plans, &m.table, &stats);
            let mut dst = Heap::new();
            let (first, _) = roundtrip(&ser, &src, &mut dst, node, v, table, Value::Null).unwrap();
            assert!(corm_heap::deep_equal_across(&src, v, &dst, first.value), "{method}");
            let (second, _) = roundtrip(&ser, &src, &mut dst, node, v, table, first.value).unwrap();
            assert!(corm_heap::deep_equal_across(&src, v, &dst, second.value), "{method}");
            let mut msg = Message::new();
            let mut ct = table.then(SerCycleTable::new);
            ser.serialize(&src, node, v, &mut ct, &mut msg).unwrap();
            let hex: String = msg.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
            let s = stats.snapshot();
            lines.push(format!(
                "{method} {hex} reused={} lookups={} type_info={} invocations={}",
                second.reused, s.cycle_lookups, s.type_info_bytes, s.ser_invocations
            ));
        }
        lines
    }

    /// The golden graphs' messages and counts as the recursive walk wrote
    /// them: a walk may change how it runs, never what it writes, recycles
    /// or counts.
    const GOLDEN_CLASS: [&str; 6] = [
        "list \
         03070000000307000000030700000000030000000200000001000000 \
         reused=3 lookups=9 type_info=45 invocations=9",
        "tree \
         0308000000030800000003080000000000010000000308000000000001000000\
         0200000003080000000308000000000001000000030800000000000100000002\
         00000003000000 \
         reused=7 lookups=21 type_info=105 invocations=21",
        "diamond \
         03080000000308000000000000000000020100000000000000 \
         reused=2 lookups=9 type_info=30 invocations=6",
        "selfLoop \
         0307000000020000000009000000 \
         reused=1 lookups=6 type_info=15 invocations=3",
        "dyn \
         03090000000402000000686905010200000000000000fbffffff00 \
         reused=2 lookups=9 type_info=24 invocations=6",
        "arr \
         060005070000000300000003070000000004000000000201000000 \
         reused=2 lookups=9 type_info=39 invocations=6",
    ];

    const GOLDEN_ALL: [&str; 6] = [
        "list \
         01010100030000000200000001000000 \
         reused=3 lookups=0 type_info=0 invocations=0",
        "tree \
         0101010000010000000100000100000002000000010100000100000001000001\
         0000000200000003000000 \
         reused=7 lookups=21 type_info=0 invocations=0",
        "diamond \
         0101000000000000020100000000000000 \
         reused=2 lookups=9 type_info=0 invocations=0",
        "selfLoop 01020000000009000000 reused=1 lookups=6 type_info=0 invocations=0",
        "dyn \
         010402000000686905010200000000000000fbffffff00 \
         reused=2 lookups=9 type_info=9 invocations=3",
        "arr \
         0103000000010004000000000201000000 \
         reused=2 lookups=9 type_info=0 invocations=0",
    ];

    /// A reuse round trip of `sent` (in `src`) into `candidate` (in `dst`)
    /// by the site plan of `GOLDEN_SRC`'s `method` under `all`: the result
    /// must equal what was sent. Returns how many objects were recycled.
    fn reuse_round_trip(
        m: &Module,
        src: &Heap,
        dst: &mut Heap,
        method: &str,
        sent: Value,
        candidate: Value,
    ) -> u64 {
        let a = analyze_module(m, AnalysisOptions::default());
        let plans = generate_plans(m, &a, OptConfig::ALL);
        let plan = plans.sites.values().find(|p| m.table.method(p.method).name == method);
        let plan = plan.unwrap();
        let stats = RmiStats::new();
        let ser = Serializer::new(&plans, &m.table, &stats);
        let table = plan.args_cycle_table;
        let (out, _) = roundtrip(&ser, src, dst, &plan.args[0], sent, table, candidate).unwrap();
        assert!(
            corm_heap::deep_equal_across(src, sent, dst, out.value),
            "{method}: the result is not the graph that was sent"
        );
        out.reused
    }

    /// An instance of `class` with `fields`, in `heap`.
    fn obj(heap: &mut Heap, class: ClassId, fields: &[Value]) -> Value {
        let o = heap.alloc_obj(class, fields.len());
        for (slot, &v) in fields.iter().enumerate() {
            heap.set_field(o, slot, v).unwrap();
        }
        Value::Ref(o)
    }

    /// A `Node` list holding `values`, head first.
    fn list(m: &Module, heap: &mut Heap, values: &[i32]) -> Value {
        let node = class_id(m, "Node");
        values.iter().rev().fold(Value::Null, |next, &v| obj(heap, node, &[next, Value::Int(v)]))
    }

    /// The message's list is longer than the candidate's: the last node is
    /// fresh, and it must be hung into the recycled node before it.
    #[test]
    fn a_longer_list_hangs_its_fresh_tail_into_a_recycled_node() {
        let m = compile_frontend(GOLDEN_SRC).unwrap();
        let (mut src, mut dst) = (Heap::new(), Heap::new());
        let sent = list(&m, &mut src, &[10, 20, 30]);
        let candidate = list(&m, &mut dst, &[1, 2]);
        assert_eq!(reuse_round_trip(&m, &src, &mut dst, "list", sent, candidate), 2);
    }

    /// The message's list is shorter than the candidate's: its null
    /// terminator must be stored into a recycled node, which held a node.
    #[test]
    fn a_shorter_list_stores_its_terminator_into_a_recycled_node() {
        let m = compile_frontend(GOLDEN_SRC).unwrap();
        let (mut src, mut dst) = (Heap::new(), Heap::new());
        let sent = list(&m, &mut src, &[10, 20]);
        let candidate = list(&m, &mut dst, &[1, 2, 3]);
        assert_eq!(reuse_round_trip(&m, &src, &mut dst, "list", sent, candidate), 2);
    }

    /// The candidate's two positions hold one shared child, the message's
    /// two distinct ones: the first recycles it, the second gets a fresh
    /// object, which must replace the shared child there.
    #[test]
    fn a_shared_child_of_the_candidate_fills_one_position_only() {
        let m = compile_frontend(GOLDEN_SRC).unwrap();
        let pair = class_id(&m, "Pair");
        let (mut src, mut dst) = (Heap::new(), Heap::new());
        let leaf = |heap: &mut Heap, v| obj(heap, pair, &[Value::Null, Value::Null, Value::Int(v)]);
        let (l, r) = (leaf(&mut src, 1), leaf(&mut src, 2));
        let sent = obj(&mut src, pair, &[l, r, Value::Int(3)]);
        let shared = leaf(&mut dst, 0);
        let candidate = obj(&mut dst, pair, &[shared, shared, Value::Int(0)]);
        assert_eq!(reuse_round_trip(&m, &src, &mut dst, "tree", sent, candidate), 2);
    }

    /// An `Object`-typed field whose candidate is of another class: the
    /// field gets a fresh object, which must replace the candidate's.
    #[test]
    fn an_object_field_of_another_class_gets_a_fresh_object() {
        let m = compile_frontend(GOLDEN_SRC).unwrap();
        let boxc = class_id(&m, "Box");
        let (mut src, mut dst) = (Heap::new(), Heap::new());
        let node = list(&m, &mut src, &[4]);
        let sent = obj(&mut src, boxc, &[node, Value::Null, Value::Null]);
        let other = obj(&mut dst, class_id(&m, "Pair"), &[Value::Null, Value::Null, Value::Int(4)]);
        let candidate = obj(&mut dst, boxc, &[other, Value::Null, Value::Null]);
        assert_eq!(reuse_round_trip(&m, &src, &mut dst, "dyn", sent, candidate), 1);
    }

    #[test]
    fn golden_wire_bytes_class() {
        assert_eq!(golden_lines(OptConfig::CLASS), GOLDEN_CLASS);
    }

    #[test]
    fn golden_wire_bytes_all() {
        assert_eq!(golden_lines(OptConfig::ALL), GOLDEN_ALL);
    }
}
