//! Structural equality and digests across heaps.
//!
//! The key correctness invariant of the whole reproduction is that every
//! optimization configuration computes *the same results* — only faster.
//! These helpers let integration tests compare object graphs produced on
//! different machines/heaps under different optimization configs, with
//! cycle-safe traversal.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use crate::heap::{Heap, ObjBody};
use crate::value::{ObjRef, Value};

/// Structural deep equality of two values within one heap.
pub fn deep_equal(heap: &Heap, a: Value, b: Value) -> bool {
    deep_equal_across(heap, a, heap, b)
}

/// Structural deep equality of two values living in (possibly) different
/// heaps. Cycles are handled by memoizing visited reference pairs;
/// isomorphic graphs compare equal.
pub fn deep_equal_across(ha: &Heap, a: Value, hb: &Heap, b: Value) -> bool {
    let mut seen: HashSet<(ObjRef, ObjRef)> = HashSet::new();
    eq_rec(ha, a, hb, b, &mut seen)
}

fn eq_rec(ha: &Heap, a: Value, hb: &Heap, b: Value, seen: &mut HashSet<(ObjRef, ObjRef)>) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Long(x), Value::Long(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Remote(x), Value::Remote(y)) => x == y,
        (Value::Ref(x), Value::Ref(y)) => {
            if !seen.insert((x, y)) {
                return true; // already being compared (cycle)
            }
            let (Ok(oa), Ok(ob)) = (ha.body(x), hb.body(y)) else {
                return false;
            };
            match (oa, ob) {
                (ObjBody::Str(s), ObjBody::Str(t)) => s == t,
                (ObjBody::ArrBool(s), ObjBody::ArrBool(t)) => s == t,
                (ObjBody::ArrI32(s), ObjBody::ArrI32(t)) => s == t,
                (ObjBody::ArrI64(s), ObjBody::ArrI64(t)) => s == t,
                (ObjBody::ArrF64(s), ObjBody::ArrF64(t)) => {
                    s.len() == t.len()
                        && s.iter().zip(t).all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
                }
                (ObjBody::Obj { class: ca, .. }, ObjBody::Obj { class: cb, .. }) => {
                    let (fa, fb) = (ha.fields_of(oa), hb.fields_of(ob));
                    ca == cb
                        && fa.len() == fb.len()
                        && fa.iter().zip(fb.iter()).all(|(&x, &y)| eq_rec(ha, x, hb, y, seen))
                }
                (
                    ObjBody::ArrRef { elem: ea, data: da },
                    ObjBody::ArrRef { elem: eb, data: db },
                ) => {
                    ea == eb
                        && da.len() == db.len()
                        && da.iter().zip(db.iter()).all(|(&x, &y)| eq_rec(ha, x, hb, y, seen))
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// A structural digest of an object graph: equal graphs produce equal
/// digests (the converse is probabilistic). Used by integration tests to
/// compare results across configurations cheaply.
pub fn structure_digest(heap: &Heap, v: Value) -> u64 {
    let mut hasher = DefaultHasher::new();
    let mut numbering: HashMap<ObjRef, u32> = HashMap::new();
    digest_rec(heap, v, &mut numbering, &mut hasher);
    hasher.finish()
}

fn digest_rec(heap: &Heap, v: Value, numbering: &mut HashMap<ObjRef, u32>, h: &mut DefaultHasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Bool(b) => (1u8, b).hash(h),
        Value::Int(x) => (2u8, x).hash(h),
        Value::Long(x) => (3u8, x).hash(h),
        Value::Double(x) => (4u8, x.to_bits()).hash(h),
        Value::Remote(r) => (5u8, r.machine, r.class.0).hash(h),
        Value::Ref(r) => {
            if let Some(&n) = numbering.get(&r) {
                // Back-reference: hash the traversal number so shape
                // (sharing/cycles) influences the digest.
                (6u8, n).hash(h);
                return;
            }
            let n = numbering.len() as u32;
            numbering.insert(r, n);
            let Ok(body) = heap.body(r) else {
                (7u8).hash(h);
                return;
            };
            match body {
                ObjBody::Str(s) => (8u8, s.as_ref()).hash(h),
                ObjBody::ArrBool(a) => (9u8, a).hash(h),
                ObjBody::ArrI32(a) => (10u8, a).hash(h),
                ObjBody::ArrI64(a) => (11u8, a).hash(h),
                ObjBody::ArrF64(a) => {
                    12u8.hash(h);
                    a.len().hash(h);
                    for x in a {
                        x.to_bits().hash(h);
                    }
                }
                ObjBody::Obj { class, .. } => {
                    let fields = heap.fields_of(body);
                    (13u8, class.0, fields.len()).hash(h);
                    for &f in fields.iter() {
                        digest_rec(heap, f, numbering, h);
                    }
                }
                ObjBody::ArrRef { data, .. } => {
                    (14u8, data.len()).hash(h);
                    for &e in data.iter() {
                        digest_rec(heap, e, numbering, h);
                    }
                }
                ObjBody::Native { .. } => 15u8.hash(h),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::OBJECT_CLASS;

    fn list(h: &mut Heap, n: usize, cyclic: bool) -> Value {
        let mut head = Value::Null;
        let mut first = None;
        for _ in 0..n {
            let node = h.alloc_obj(OBJECT_CLASS, 1);
            h.set_field(node, 0, head).unwrap();
            head = Value::Ref(node);
            first.get_or_insert(node);
        }
        if cyclic {
            if let (Some(f), Value::Ref(hd)) = (first, head) {
                h.set_field(f, 0, Value::Ref(hd)).unwrap();
            }
        }
        head
    }

    #[test]
    fn isomorphic_lists_equal() {
        let mut h = Heap::new();
        let a = list(&mut h, 5, false);
        let b = list(&mut h, 5, false);
        assert!(deep_equal(&h, a, b));
        assert_eq!(structure_digest(&h, a), structure_digest(&h, b));
    }

    #[test]
    fn different_lengths_unequal() {
        let mut h = Heap::new();
        let a = list(&mut h, 5, false);
        let b = list(&mut h, 6, false);
        assert!(!deep_equal(&h, a, b));
        assert_ne!(structure_digest(&h, a), structure_digest(&h, b));
    }

    #[test]
    fn cyclic_vs_acyclic_distinguished_by_digest() {
        let mut h = Heap::new();
        let a = list(&mut h, 4, false);
        let b = list(&mut h, 4, true);
        assert_ne!(structure_digest(&h, a), structure_digest(&h, b));
    }

    #[test]
    fn cyclic_graphs_compare_without_hanging() {
        let mut h = Heap::new();
        let a = list(&mut h, 3, true);
        let b = list(&mut h, 3, true);
        assert!(deep_equal(&h, a, b));
    }

    #[test]
    fn across_heaps() {
        let mut h1 = Heap::new();
        let mut h2 = Heap::new();
        let a = list(&mut h1, 4, false);
        let b = list(&mut h2, 4, false);
        assert!(deep_equal_across(&h1, a, &h2, b));
    }

    #[test]
    fn shared_substructure_affects_digest() {
        let mut h = Heap::new();
        // pair (x, x) vs pair (x, y) with y structurally equal to x
        let x = h.alloc_obj(OBJECT_CLASS, 0);
        let y = h.alloc_obj(OBJECT_CLASS, 0);
        let shared = h.alloc_obj(OBJECT_CLASS, 2);
        h.set_field(shared, 0, Value::Ref(x)).unwrap();
        h.set_field(shared, 1, Value::Ref(x)).unwrap();
        let unshared = h.alloc_obj(OBJECT_CLASS, 2);
        h.set_field(unshared, 0, Value::Ref(x)).unwrap();
        h.set_field(unshared, 1, Value::Ref(y)).unwrap();
        assert_ne!(
            structure_digest(&h, Value::Ref(shared)),
            structure_digest(&h, Value::Ref(unshared)),
            "digest must see sharing"
        );
    }
}
