//! Stop-the-world mark–sweep collection.
//!
//! The paper's object-reuse optimization (§3.3) is motivated by allocation
//! and GC cost: deserialization of every RMI argument graph creates garbage
//! that a collector must reclaim. This collector makes that cost concrete
//! and measurable. Roots are supplied by the VM (thread frames, statics,
//! reuse caches) plus the heap's pin set (exported remote objects).
//!
//! *When* to collect is the [`Pacer`]'s business: the VM asks
//! [`Heap::gc_due`] wherever garbage is made and collects when it says so.

use crate::heap::{Heap, ObjBody};
use crate::value::{ObjRef, Value};

/// The least a heap allocates between two collections, in modeled bytes.
pub const MIN_GC_STEP: u64 = 1 << 20;

/// When the next collection is due: once the bytes allocated since the last
/// one reach `max(MIN_GC_STEP, bytes live after it)`. That bounds the heap at
/// twice its live size plus one minimum step, and a live heap of any size
/// pays for its marking with as many bytes of allocation.
#[derive(Debug)]
pub(crate) struct Pacer {
    /// `HeapStats::alloc_bytes` at the last collection.
    at: u64,
    step: u64,
}

impl Default for Pacer {
    fn default() -> Self {
        Pacer { at: 0, step: MIN_GC_STEP }
    }
}

/// Result summary of one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    pub live: u64,
    pub freed: u64,
    pub freed_bytes: u64,
}

impl Heap {
    /// Has this heap allocated a full step since its last collection? Asked
    /// at every pacing point, so it is one subtraction and one compare.
    pub fn gc_due(&self) -> bool {
        self.audit || self.stats.alloc_bytes - self.pacer.at >= self.pacer.step
    }

    /// Make a missing root loud (the VM's audit mode): every pacing point
    /// collects, and a swept slot is never handed out again, so the first use
    /// of a stale [`ObjRef`] is a `dangling reference` error instead of a
    /// silent alias of whatever was allocated next.
    pub fn audit_stale_refs(&mut self) {
        self.audit = true;
    }

    /// Run a full mark–sweep collection with the given external roots.
    /// Pinned objects are implicit roots.
    pub fn gc(&mut self, roots: impl IntoIterator<Item = ObjRef>) -> GcReport {
        self.stats.gc_runs += 1;

        // Mark phase (explicit stack; object graphs can be deep).
        let mut stack: Vec<ObjRef> = roots.into_iter().filter(|r| self.is_live(*r)).collect();
        stack.extend(self.pinned().filter(|r| self.is_live(*r)));
        while let Some(r) = stack.pop() {
            let obj = match self.slots.get_mut(r.index()) {
                Some(Some(o)) => o,
                _ => continue,
            };
            if obj.mark {
                continue;
            }
            obj.mark = true;
            let children = match &obj.body {
                ObjBody::Obj { span, .. } => &self.fields[span.range()],
                ObjBody::ArrRef { data, .. } => data,
                _ => continue,
            };
            stack.extend(children.iter().filter_map(Value::as_ref));
        }

        // Sweep phase: a swept instance's range goes back to the free list
        // of its length, as its slot goes back to `free`; under audit
        // neither does.
        let mut report = GcReport::default();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot {
                Some(o) if o.mark => {
                    o.mark = false;
                    report.live += 1;
                }
                Some(o) => {
                    report.freed += 1;
                    report.freed_bytes += o.body.byte_size();
                    if !self.audit {
                        if let ObjBody::Obj { span, .. } = &o.body {
                            self.free_spans.push(span);
                        }
                        self.free.push(i as u32);
                    }
                    *slot = None;
                }
                None => {}
            }
        }
        self.stats.freed += report.freed;
        self.stats.freed_bytes += report.freed_bytes;
        self.pacer.at = self.stats.alloc_bytes;
        self.pacer.step = self.stats.live_bytes().max(MIN_GC_STEP);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{Ty, OBJECT_CLASS};

    #[test]
    fn collects_unreachable() {
        let mut h = Heap::new();
        let keep = h.alloc_obj(OBJECT_CLASS, 1);
        let child = h.alloc_obj(OBJECT_CLASS, 0);
        h.set_field(keep, 0, Value::Ref(child)).unwrap();
        let _garbage = h.alloc_obj(OBJECT_CLASS, 0);
        let report = h.gc([keep]);
        assert_eq!(report.live, 2);
        assert_eq!(report.freed, 1);
        assert!(h.is_live(keep));
        assert!(h.is_live(child));
    }

    #[test]
    fn pinned_objects_survive() {
        let mut h = Heap::new();
        let pinned = h.alloc_obj(OBJECT_CLASS, 0);
        h.pin(pinned);
        let report = h.gc([]);
        assert_eq!(report.live, 1);
        assert!(h.is_live(pinned));
        h.unpin(pinned);
        let report = h.gc([]);
        assert_eq!(report.freed, 1);
    }

    #[test]
    fn cycles_are_collected() {
        let mut h = Heap::new();
        let a = h.alloc_obj(OBJECT_CLASS, 1);
        let b = h.alloc_obj(OBJECT_CLASS, 1);
        h.set_field(a, 0, Value::Ref(b)).unwrap();
        h.set_field(b, 0, Value::Ref(a)).unwrap();
        let report = h.gc([]);
        assert_eq!(report.freed, 2);
    }

    #[test]
    fn cycles_reachable_survive() {
        let mut h = Heap::new();
        let a = h.alloc_obj(OBJECT_CLASS, 1);
        let b = h.alloc_obj(OBJECT_CLASS, 1);
        h.set_field(a, 0, Value::Ref(b)).unwrap();
        h.set_field(b, 0, Value::Ref(a)).unwrap();
        let report = h.gc([a]);
        assert_eq!(report.live, 2);
    }

    #[test]
    fn ref_arrays_traced() {
        let mut h = Heap::new();
        let inner = h.alloc_array(&Ty::Int, 4);
        let outer = h.alloc_array(&Ty::Int.array_of(), 1);
        h.array_set(outer, 0, Value::Ref(inner)).unwrap();
        let report = h.gc([outer]);
        assert_eq!(report.live, 2);
    }

    #[test]
    fn slots_are_reused_after_gc() {
        let mut h = Heap::new();
        let a = h.alloc_obj(OBJECT_CLASS, 0);
        h.gc([]);
        let b = h.alloc_obj(OBJECT_CLASS, 0);
        assert_eq!(a, b, "freed slot must be reused");
    }

    /// `n` arrays of a modeled KiB each (16-byte header + 252 ints), rooted
    /// in one `ArrRef` so a caller can keep them alive: returns that root.
    fn alloc_kib(h: &mut Heap, n: usize) -> ObjRef {
        let root = h.alloc_array(&Ty::Int.array_of(), n);
        for i in 0..n {
            let kib = h.alloc_array(&Ty::Int, 252);
            h.array_set(root, i, Value::Ref(kib)).unwrap();
        }
        root
    }

    #[test]
    fn no_collection_is_due_below_the_step() {
        let mut h = Heap::new();
        alloc_kib(&mut h, 1000);
        assert!(h.stats.alloc_bytes < MIN_GC_STEP && !h.gc_due());
        alloc_kib(&mut h, 24);
        assert!(h.stats.alloc_bytes >= MIN_GC_STEP && h.gc_due());
        h.gc([]);
        assert!(!h.gc_due(), "a collection starts a new step");
    }

    #[test]
    fn the_step_after_a_collection_is_the_live_heap_or_the_floor() {
        let mut h = Heap::new();
        let small = alloc_kib(&mut h, 100);
        h.gc([small]);
        let live = h.stats.live_bytes();
        assert!(live < MIN_GC_STEP);
        alloc_kib(&mut h, 1000);
        assert!(!h.gc_due(), "a small live heap still gets the whole floor");
        alloc_kib(&mut h, 24);
        assert!(h.gc_due());

        let big = alloc_kib(&mut h, 3000);
        h.gc([small, big]);
        let live = h.stats.live_bytes();
        assert!(live > 3 * MIN_GC_STEP);
        let before = h.stats.alloc_bytes;
        while !h.gc_due() {
            alloc_kib(&mut h, 1);
        }
        let step = h.stats.alloc_bytes - before;
        assert!((live..live + 2048).contains(&step), "step {step} for {live} live bytes");
    }

    #[test]
    fn a_collection_that_frees_nothing_doubles_the_distance_to_the_next() {
        let mut h = Heap::new();
        let mut kept = vec![alloc_kib(&mut h, 2048)];
        let mut last = 0;
        for _ in 0..3 {
            while !h.gc_due() {
                kept.push(alloc_kib(&mut h, 1));
            }
            assert_eq!(h.gc(kept.iter().copied()).freed, 0);
            let at = h.stats.alloc_bytes;
            assert!(at >= 2 * last, "collected at {last}, then again at {at}");
            last = at;
        }
        assert_eq!(h.stats.gc_runs, 3);
    }

    #[test]
    fn peak_live_bytes_is_the_high_water_mark() {
        let mut h = Heap::new();
        alloc_kib(&mut h, 100);
        let peak = h.stats.peak_live_bytes;
        assert_eq!(peak, h.stats.live_bytes());
        h.gc([]);
        assert_eq!(h.stats.live_bytes(), 0);
        alloc_kib(&mut h, 50);
        assert_eq!(h.stats.peak_live_bytes, peak, "half as much live: the peak stands");
        alloc_kib(&mut h, 100);
        assert!(h.stats.peak_live_bytes > peak);
    }

    #[test]
    fn under_audit_a_collection_is_always_due_and_a_stale_ref_dangles() {
        let mut h = Heap::new();
        h.audit_stale_refs();
        assert!(h.gc_due());
        let stale = h.alloc_obj(OBJECT_CLASS, 0);
        h.gc([]);
        assert!(h.gc_due());
        let fresh = h.alloc_obj(OBJECT_CLASS, 0);
        assert_ne!(stale, fresh, "a swept slot is never handed out again");
        let err = h.get(stale).expect_err("the stale reference must not alias");
        assert_eq!(err.0, format!("dangling reference {stale}"));
    }
}
