//! # corm-heap — the managed object heap
//!
//! Java RMI's costs (reflective introspection, per-object allocation during
//! deserialization, GC pressure) are properties of a managed runtime. Rust
//! has no such runtime, so this crate provides one: a slab heap of tagged
//! objects described by the `corm-ir` class table, with allocation
//! accounting (the paper's "new MBytes" statistic, Table 4/6/8) and a
//! stop-the-world mark–sweep collector.
//!
//! Each simulated machine owns one [`Heap`]. Object identity is an
//! [`ObjRef`] index into the slab; cross-machine references are
//! [`RemoteRef`]s and are never traced (exported remote objects are pinned
//! on their owner). Instance fields live in one arena per heap, a
//! [`FieldSpan`] apiece, so allocating an instance is a pop or a bump, not
//! a `malloc`; strings and arrays keep buffers of their own.

#![deny(unsafe_code)]

mod equal;
mod gc;
mod heap;
mod poison;
mod value;

pub use equal::{deep_equal, deep_equal_across, structure_digest};
pub use gc::{GcReport, MIN_GC_STEP};
pub use heap::{
    AllocAttribution, FieldSpan, FieldsRef, Heap, HeapError, HeapStats, NativeData, Obj, ObjBody,
};
pub use poison::{poison_graph, POISON_F64, POISON_I32, POISON_I64};
pub use value::{ObjMap, ObjRef, ObjSet, RemoteRef, Value};
