//! Sentinel poisoning of cached object graphs (audit mode).
//!
//! The §3.3 reuse optimization keeps the previous invocation's argument
//! and return graphs alive in per-call-site caches and overwrites them in
//! place on the next RMI. That is only sound if the escape analysis
//! proved the cached graph *dead* between calls — nothing else may hold a
//! reference into it. The runtime auditor checks exactly that: before a
//! cached graph is handed back to the deserializer, every primitive slot,
//! primitive array element and string payload in it is overwritten with a
//! recognizable sentinel. A sound reuse verdict makes the poison
//! invisible (the deserializer overwrites every reused slot, and nothing
//! else can observe the graph); an unsound verdict lets a surviving alias
//! read the sentinel, which shows up as an output divergence in the
//! differential fuzz oracle.

use crate::heap::{Heap, ObjBody};
use crate::value::{ObjSet, Value};

/// Sentinel written into poisoned `int` slots (`0xAAAAAAAA`).
pub const POISON_I32: i32 = -1431655766;
/// Sentinel written into poisoned `long` slots (`0xAAAA…AA`).
pub const POISON_I64: i64 = -6148914691236517206;
/// Sentinel written into poisoned `double` slots.
pub const POISON_F64: f64 = -6.02214076e23;

/// Overwrite every primitive slot, primitive array element and string
/// byte reachable from `root` with sentinel values, leaving references
/// (and therefore the graph's shape and GC view) untouched. String
/// payloads keep their length so modeled byte accounting is unchanged.
/// Returns the number of poisoned slots. Cycle-safe.
pub fn poison_graph(heap: &mut Heap, root: Value) -> u64 {
    let mut seen = ObjSet::default();
    let mut work = Vec::new();
    if let Value::Ref(r) = root {
        work.push(r);
    }
    let mut poisoned = 0u64;
    while let Some(r) = work.pop() {
        if !seen.insert(r) {
            continue;
        }
        let Some(Some(obj)) = heap.slots.get_mut(r.index()) else { continue };
        match &mut obj.body {
            ObjBody::Obj { span, .. } => {
                for f in &mut heap.fields[span.range()] {
                    match f {
                        Value::Bool(b) => {
                            *b = true;
                            poisoned += 1;
                        }
                        Value::Int(x) => {
                            *x = POISON_I32;
                            poisoned += 1;
                        }
                        Value::Long(x) => {
                            *x = POISON_I64;
                            poisoned += 1;
                        }
                        Value::Double(x) => {
                            *x = POISON_F64;
                            poisoned += 1;
                        }
                        Value::Ref(child) => work.push(*child),
                        Value::Null | Value::Remote(_) => {}
                    }
                }
            }
            ObjBody::ArrBool(a) => {
                poisoned += a.len() as u64;
                a.fill(true);
            }
            ObjBody::ArrI32(a) => {
                poisoned += a.len() as u64;
                a.fill(POISON_I32);
            }
            ObjBody::ArrI64(a) => {
                poisoned += a.len() as u64;
                a.fill(POISON_I64);
            }
            ObjBody::ArrF64(a) => {
                poisoned += a.len() as u64;
                a.fill(POISON_F64);
            }
            ObjBody::ArrRef { data, .. } => {
                for v in data.iter() {
                    if let Value::Ref(child) = v {
                        work.push(*child);
                    }
                }
            }
            ObjBody::Str(s) => {
                // Same length, different bytes: byte accounting unchanged.
                *s = "\u{0}".repeat(s.len()).into_boxed_str();
                poisoned += 1;
            }
            // Native objects never sit in reuse caches (they are not
            // serializable); leave them alone if one ever shows up.
            ObjBody::Native { .. } => {}
        }
    }
    poisoned
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{ClassId, Ty};

    #[test]
    fn poisons_fields_arrays_and_strings_but_not_refs() {
        let mut h = Heap::new();
        let arr = h.alloc_array(&Ty::Double, 3);
        let s = h.alloc_str("abc");
        let o = h.alloc_obj(ClassId(0), 4);
        h.set_field(o, 0, Value::Int(7)).unwrap();
        h.set_field(o, 1, Value::Ref(arr)).unwrap();
        h.set_field(o, 2, Value::Ref(s)).unwrap();
        h.set_field(o, 3, Value::Null).unwrap();

        let n = poison_graph(&mut h, Value::Ref(o));
        assert_eq!(n, 1 + 3 + 1, "int slot + 3 doubles + 1 string");
        assert_eq!(h.field(o, 0).unwrap(), Value::Int(POISON_I32));
        assert_eq!(h.field(o, 1).unwrap(), Value::Ref(arr), "refs survive");
        assert_eq!(h.array_get(arr, 2).unwrap(), Value::Double(POISON_F64));
        assert_eq!(h.str_value(s).unwrap().len(), 3, "string length preserved");
        assert_ne!(h.str_value(s).unwrap(), "abc");
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut h = Heap::new();
        let a = h.alloc_obj(ClassId(0), 2);
        let b = h.alloc_obj(ClassId(0), 2);
        h.set_field(a, 0, Value::Ref(b)).unwrap();
        h.set_field(b, 0, Value::Ref(a)).unwrap();
        h.set_field(a, 1, Value::Int(1)).unwrap();
        h.set_field(b, 1, Value::Int(2)).unwrap();
        assert_eq!(poison_graph(&mut h, Value::Ref(a)), 2);
        assert_eq!(h.field(b, 1).unwrap(), Value::Int(POISON_I32));
    }

    #[test]
    fn null_and_scalars_are_no_ops() {
        let mut h = Heap::new();
        assert_eq!(poison_graph(&mut h, Value::Null), 0);
        assert_eq!(poison_graph(&mut h, Value::Int(5)), 0);
    }
}
