//! The slab heap with allocation accounting.

use corm_ir::{ClassId, Ty};

use crate::gc::Pacer;
use crate::value::{ObjRef, ObjSet, Value};

/// Native payloads of built-in instance classes (`Rng`, `Queue`). The VM
/// interprets these; the heap only stores them.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeData {
    /// splitmix64 state of a `Rng`.
    Rng(u64),
    /// Handle into the owning machine's blocking-queue table.
    Queue(u32),
    /// Freshly allocated native object awaiting its constructor.
    Uninit,
}

/// The body of a heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjBody {
    /// An instance of a user class: one slot per field of the layout.
    Obj {
        class: ClassId,
        fields: Box<[Value]>,
    },
    ArrBool(Vec<bool>),
    ArrI32(Vec<i32>),
    ArrI64(Vec<i64>),
    ArrF64(Vec<f64>),
    /// Array of references (objects, strings or nested arrays).
    ArrRef {
        elem: Ty,
        data: Vec<Value>,
    },
    Str(Box<str>),
    /// Built-in instance class (`Rng`, `Queue`).
    Native {
        class: ClassId,
        data: NativeData,
    },
}

impl ObjBody {
    /// Modeled size in bytes (16-byte header plus payload); this feeds the
    /// "new MBytes" statistic from the paper's Tables 4, 6 and 8.
    pub fn byte_size(&self) -> u64 {
        16 + match self {
            ObjBody::Obj { fields, .. } => 8 * fields.len() as u64,
            ObjBody::ArrBool(v) => v.len() as u64,
            ObjBody::ArrI32(v) => 4 * v.len() as u64,
            ObjBody::ArrI64(v) => 8 * v.len() as u64,
            ObjBody::ArrF64(v) => 8 * v.len() as u64,
            ObjBody::ArrRef { data, .. } => 8 * data.len() as u64,
            ObjBody::Str(s) => s.len() as u64,
            ObjBody::Native { .. } => 16,
        }
    }

    pub fn array_len(&self) -> Option<usize> {
        Some(match self {
            ObjBody::ArrBool(v) => v.len(),
            ObjBody::ArrI32(v) => v.len(),
            ObjBody::ArrI64(v) => v.len(),
            ObjBody::ArrF64(v) => v.len(),
            ObjBody::ArrRef { data, .. } => data.len(),
            _ => return None,
        })
    }

    /// Class of an `Obj`/`Native` body.
    pub fn class(&self) -> Option<ClassId> {
        match self {
            ObjBody::Obj { class, .. } | ObjBody::Native { class, .. } => Some(*class),
            _ => None,
        }
    }
}

/// One heap slot.
#[derive(Debug, Clone)]
pub struct Obj {
    pub body: ObjBody,
    pub(crate) mark: bool,
    /// The claim round that last claimed this object ([`Heap::claim`]). It
    /// sits in the padding after `mark`: a slot is no bigger for it.
    claimed_in: u32,
}

/// Who is allocating right now — deserialization-attributed allocations
/// are what the paper's object-reuse optimization eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocAttribution {
    #[default]
    Program,
    Deserialization,
}

/// Allocation/GC counters for one machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapStats {
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Allocations attributed to RMI deserialization ("new MBytes").
    pub deser_allocs: u64,
    pub deser_bytes: u64,
    pub freed: u64,
    pub freed_bytes: u64,
    pub gc_runs: u64,
    /// The most modeled bytes ever live at once: what bounds the heap,
    /// where `alloc_bytes` only ever grows.
    pub peak_live_bytes: u64,
}

impl HeapStats {
    pub fn live(&self) -> u64 {
        self.allocs - self.freed
    }

    /// Modeled bytes allocated and not yet swept.
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes - self.freed_bytes
    }
}

/// Errors surfaced to the VM as runtime exceptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapError(pub String);

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for HeapError {}

fn err<T>(msg: impl Into<String>) -> Result<T, HeapError> {
    Err(HeapError(msg.into()))
}

/// One machine's object heap.
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Option<Obj>>,
    free: Vec<u32>,
    /// Objects that must survive GC regardless of local reachability
    /// (exported remote instances, reuse-cache roots).
    pinned: ObjSet,
    /// The current claim round ([`Heap::start_claims`]); 0, the stamp of an
    /// object no round has claimed, before the first.
    claim_epoch: u32,
    pub stats: HeapStats,
    attribution: AllocAttribution,
    pub(crate) pacer: Pacer,
    /// Set by [`Heap::audit_stale_refs`]: a collection is always due, and
    /// swept slots stay empty instead of going back to `free`.
    pub(crate) audit: bool,
}

impl Heap {
    pub fn new() -> Self {
        Heap {
            slots: Vec::new(),
            free: Vec::new(),
            pinned: ObjSet::default(),
            claim_epoch: 0,
            stats: HeapStats::default(),
            attribution: AllocAttribution::Program,
            pacer: Pacer::default(),
            audit: false,
        }
    }

    /// Switch the attribution of subsequent allocations; returns the
    /// previous attribution so callers can restore it.
    pub fn set_attribution(&mut self, a: AllocAttribution) -> AllocAttribution {
        std::mem::replace(&mut self.attribution, a)
    }

    pub fn attribution(&self) -> AllocAttribution {
        self.attribution
    }

    pub fn alloc(&mut self, body: ObjBody) -> ObjRef {
        let bytes = body.byte_size();
        self.stats.allocs += 1;
        self.stats.alloc_bytes += bytes;
        if self.attribution == AllocAttribution::Deserialization {
            self.stats.deser_allocs += 1;
            self.stats.deser_bytes += bytes;
        }
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes());
        let obj = Obj { body, mark: false, claimed_in: 0 };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(obj);
                ObjRef(i)
            }
            None => {
                self.slots.push(Some(obj));
                ObjRef(self.slots.len() as u32 - 1)
            }
        }
    }

    /// Allocate a user-class instance with `nfields` null/zero slots.
    pub fn alloc_obj(&mut self, class: ClassId, nfields: usize) -> ObjRef {
        self.alloc(ObjBody::Obj { class, fields: vec![Value::Null; nfields].into_boxed_slice() })
    }

    pub fn alloc_str(&mut self, s: impl Into<Box<str>>) -> ObjRef {
        self.alloc(ObjBody::Str(s.into()))
    }

    /// Allocate an array of `len` elements of `elem` type, zero/null filled.
    pub fn alloc_array(&mut self, elem: &Ty, len: usize) -> ObjRef {
        let body = match elem {
            Ty::Bool => ObjBody::ArrBool(vec![false; len]),
            Ty::Int => ObjBody::ArrI32(vec![0; len]),
            Ty::Long => ObjBody::ArrI64(vec![0; len]),
            Ty::Double => ObjBody::ArrF64(vec![0.0; len]),
            _ => ObjBody::ArrRef { elem: elem.clone(), data: vec![Value::Null; len] },
        };
        self.alloc(body)
    }

    pub fn get(&self, r: ObjRef) -> Result<&Obj, HeapError> {
        match self.slots.get(r.index()) {
            Some(Some(o)) => Ok(o),
            _ => err(format!("dangling reference {r}")),
        }
    }

    pub fn get_mut(&mut self, r: ObjRef) -> Result<&mut Obj, HeapError> {
        match self.slots.get_mut(r.index()) {
            Some(Some(o)) => Ok(o),
            _ => err(format!("dangling reference {r}")),
        }
    }

    pub fn body(&self, r: ObjRef) -> Result<&ObjBody, HeapError> {
        Ok(&self.get(r)?.body)
    }

    pub fn body_mut(&mut self, r: ObjRef) -> Result<&mut ObjBody, HeapError> {
        Ok(&mut self.get_mut(r)?.body)
    }

    pub fn is_live(&self, r: ObjRef) -> bool {
        matches!(self.slots.get(r.index()), Some(Some(_)))
    }

    // ----- typed accessors --------------------------------------------------

    pub fn field(&self, r: ObjRef, slot: usize) -> Result<Value, HeapError> {
        match self.body(r)? {
            ObjBody::Obj { fields, .. } => fields
                .get(slot)
                .copied()
                .ok_or_else(|| HeapError(format!("field slot {slot} out of range on {r}"))),
            other => err(format!("field access on non-object {other:?}")),
        }
    }

    pub fn set_field(&mut self, r: ObjRef, slot: usize, v: Value) -> Result<(), HeapError> {
        match self.body_mut(r)? {
            ObjBody::Obj { fields, .. } => match fields.get_mut(slot) {
                Some(f) => {
                    *f = v;
                    Ok(())
                }
                None => err(format!("field slot {slot} out of range on {r}")),
            },
            other => err(format!("field store on non-object {other:?}")),
        }
    }

    pub fn array_len(&self, r: ObjRef) -> Result<usize, HeapError> {
        self.body(r)?.array_len().ok_or_else(|| HeapError(format!("length of non-array {r}")))
    }

    pub fn array_get(&self, r: ObjRef, i: usize) -> Result<Value, HeapError> {
        let body = self.body(r)?;
        let len = body.array_len().ok_or_else(|| HeapError(format!("indexing non-array {r}")))?;
        if i >= len {
            return err(format!("index {i} out of bounds (len {len})"));
        }
        Ok(match body {
            ObjBody::ArrBool(v) => Value::Bool(v[i]),
            ObjBody::ArrI32(v) => Value::Int(v[i]),
            ObjBody::ArrI64(v) => Value::Long(v[i]),
            ObjBody::ArrF64(v) => Value::Double(v[i]),
            ObjBody::ArrRef { data, .. } => data[i],
            _ => unreachable!(),
        })
    }

    pub fn array_set(&mut self, r: ObjRef, i: usize, v: Value) -> Result<(), HeapError> {
        let body = self.body_mut(r)?;
        let len = body.array_len().ok_or_else(|| HeapError(format!("indexing non-array {r}")))?;
        if i >= len {
            return err(format!("index {i} out of bounds (len {len})"));
        }
        match (body, v) {
            (ObjBody::ArrBool(a), Value::Bool(x)) => a[i] = x,
            (ObjBody::ArrI32(a), Value::Int(x)) => a[i] = x,
            (ObjBody::ArrI64(a), Value::Long(x)) => a[i] = x,
            (ObjBody::ArrI64(a), Value::Int(x)) => a[i] = x as i64,
            (ObjBody::ArrF64(a), Value::Double(x)) => a[i] = x,
            (
                ObjBody::ArrRef { data, .. },
                x @ (Value::Null | Value::Ref(_) | Value::Remote(_)),
            ) => data[i] = x,
            (b, x) => return err(format!("type mismatch storing {x:?} into {b:?}")),
        }
        Ok(())
    }

    pub fn str_value(&self, r: ObjRef) -> Result<&str, HeapError> {
        match self.body(r)? {
            ObjBody::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    // ----- pinning -----------------------------------------------------------

    /// Pin an object: it becomes a GC root (exported remote instances,
    /// reuse-cache roots).
    pub fn pin(&mut self, r: ObjRef) {
        self.pinned.insert(r);
    }

    pub fn unpin(&mut self, r: ObjRef) {
        self.pinned.remove(&r);
    }

    pub fn pinned(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.pinned.iter().copied()
    }

    // ----- claim rounds ------------------------------------------------------

    /// Start a claim round: every object is unclaimed again, at the cost of
    /// one increment — an object is claimed in this round when its stamp is
    /// the epoch. When the epoch wraps, every live stamp goes back to 0, so
    /// no stamp from 2^32 rounds ago reads as current, and it restarts at 1.
    pub fn start_claims(&mut self) {
        self.claim_epoch = self.claim_epoch.checked_add(1).unwrap_or_else(|| {
            self.slots.iter_mut().flatten().for_each(|o| o.claimed_in = 0);
            1
        });
    }

    /// Claim `r` for the current round: `true` if no claim since
    /// [`Heap::start_claims`] took it, `false` if one did or `r` dangles.
    pub fn claim(&mut self, r: ObjRef) -> bool {
        match self.slots.get_mut(r.index()) {
            Some(Some(o)) if o.claimed_in != self.claim_epoch => {
                o.claimed_in = self.claim_epoch;
                true
            }
            _ => false,
        }
    }

    pub(crate) fn slots(&self) -> &[Option<Obj>] {
        &self.slots
    }

    pub(crate) fn slots_mut(&mut self) -> &mut Vec<Option<Obj>> {
        &mut self.slots
    }

    pub(crate) fn free_list_mut(&mut self) -> &mut Vec<u32> {
        &mut self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::OBJECT_CLASS;

    #[test]
    fn alloc_and_access_object() {
        let mut h = Heap::new();
        let r = h.alloc_obj(OBJECT_CLASS, 2);
        assert_eq!(h.field(r, 0).unwrap(), Value::Null);
        h.set_field(r, 1, Value::Int(42)).unwrap();
        assert_eq!(h.field(r, 1).unwrap(), Value::Int(42));
        assert!(h.field(r, 2).is_err());
    }

    #[test]
    fn arrays_typed() {
        let mut h = Heap::new();
        let a = h.alloc_array(&Ty::Double, 3);
        assert_eq!(h.array_len(a).unwrap(), 3);
        h.array_set(a, 0, Value::Double(1.5)).unwrap();
        assert_eq!(h.array_get(a, 0).unwrap(), Value::Double(1.5));
        assert!(h.array_get(a, 3).is_err());
        assert!(h.array_set(a, 0, Value::Int(1)).is_err());

        let ar = h.alloc_array(&Ty::Double.array_of(), 2);
        h.array_set(ar, 0, Value::Ref(a)).unwrap();
        assert_eq!(h.array_get(ar, 0).unwrap(), Value::Ref(a));
    }

    #[test]
    fn alloc_stats_and_attribution() {
        let mut h = Heap::new();
        h.alloc_obj(OBJECT_CLASS, 1);
        assert_eq!(h.stats.allocs, 1);
        assert_eq!(h.stats.deser_allocs, 0);
        let prev = h.set_attribution(AllocAttribution::Deserialization);
        h.alloc_obj(OBJECT_CLASS, 1);
        h.set_attribution(prev);
        h.alloc_obj(OBJECT_CLASS, 1);
        assert_eq!(h.stats.allocs, 3);
        assert_eq!(h.stats.deser_allocs, 1);
        assert!(h.stats.deser_bytes > 0);
    }

    #[test]
    fn byte_size_model() {
        assert_eq!(ObjBody::ArrF64(vec![0.0; 4]).byte_size(), 16 + 32);
        assert_eq!(ObjBody::Str("abc".into()).byte_size(), 19);
    }

    #[test]
    fn strings() {
        let mut h = Heap::new();
        let s = h.alloc_str("hello");
        assert_eq!(h.str_value(s).unwrap(), "hello");
    }

    #[test]
    fn dangling_detected() {
        let h = Heap::new();
        assert!(h.get(ObjRef(0)).is_err());
    }

    #[test]
    fn the_claim_stamp_lives_in_the_header_padding() {
        assert_eq!(std::mem::size_of::<Obj>(), 48);
        assert_eq!(std::mem::size_of::<Option<Obj>>(), 48);
    }

    #[test]
    fn a_claim_round_claims_each_object_once_across_the_epoch_wrap() {
        let mut h = Heap::new();
        let [a, b] = [0, 1].map(|_| h.alloc_obj(OBJECT_CLASS, 0));
        // Round 1 stamps `a`; unless the wrap clears it, that stamp reads as
        // claimed when the epoch comes round to 1 again.
        h.start_claims();
        assert!(h.claim(a));
        h.claim_epoch = u32::MAX - 1;
        h.start_claims();
        assert!(h.claim(b), "the last round before the wrap claims");
        assert!(!h.claim(b));
        h.start_claims();
        assert_eq!(h.claim_epoch, 1, "the epoch restarts at 1");
        let c = h.alloc_obj(OBJECT_CLASS, 0);
        for r in [a, b, c] {
            assert!(h.claim(r), "{r} is unclaimed in a new round");
            assert!(!h.claim(r), "{r} is claimed once per round");
        }
        assert!(!h.claim(ObjRef(99)), "a dangling reference is never claimed");
    }
}
