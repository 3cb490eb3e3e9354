//! Property-based tests of the mark–sweep collector: for arbitrary object
//! graphs and arbitrary root subsets, collection must free exactly the
//! unreachable objects and leave every reachable object's contents
//! untouched.

use corm_heap::{structure_digest, Heap, ObjRef, ObjSet, Value};
use corm_ir::OBJECT_CLASS;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GraphSpec {
    /// Per object: up to two outgoing edges (indices into earlier+later
    /// objects, mod n — cycles allowed) and a payload.
    nodes: Vec<(usize, usize, bool, bool, i32)>,
    roots: Vec<usize>,
    pins: Vec<usize>,
}

fn spec_strategy() -> impl Strategy<Value = GraphSpec> {
    (
        proptest::collection::vec(
            (0usize..64, 0usize..64, any::<bool>(), any::<bool>(), any::<i32>()),
            1..40,
        ),
        proptest::collection::vec(0usize..64, 0..6),
        proptest::collection::vec(0usize..64, 0..3),
    )
        .prop_map(|(nodes, roots, pins)| GraphSpec { nodes, roots, pins })
}

fn build(heap: &mut Heap, spec: &GraphSpec) -> (Vec<ObjRef>, Vec<ObjRef>, Vec<ObjRef>) {
    let n = spec.nodes.len();
    let refs: Vec<ObjRef> = (0..n).map(|_| heap.alloc_obj(OBJECT_CLASS, 3)).collect();
    for (i, &(a, b, use_a, use_b, v)) in spec.nodes.iter().enumerate() {
        if use_a {
            heap.set_field(refs[i], 0, Value::Ref(refs[a % n])).unwrap();
        }
        if use_b {
            heap.set_field(refs[i], 1, Value::Ref(refs[b % n])).unwrap();
        }
        heap.set_field(refs[i], 2, Value::Int(v)).unwrap();
    }
    let roots: Vec<ObjRef> = spec.roots.iter().map(|&r| refs[r % n]).collect();
    let pins: Vec<ObjRef> = spec.pins.iter().map(|&p| refs[p % n]).collect();
    for &p in &pins {
        heap.pin(p);
    }
    (refs, roots, pins)
}

/// Host-side reachability oracle, over instances of any field count.
fn reachable(heap: &Heap, starts: &[ObjRef]) -> ObjSet {
    let mut seen = ObjSet::default();
    let mut stack: Vec<ObjRef> = starts.to_vec();
    while let Some(r) = stack.pop() {
        if seen.insert(r) {
            let fields = (0..).map_while(|slot| heap.field(r, slot).ok());
            stack.extend(fields.filter_map(|v| v.as_ref()));
        }
    }
    seen
}

/// One allocate/collect round on a heap that has seen earlier rounds.
#[derive(Debug, Clone)]
struct Round {
    /// Per object: its field count, the targets of fields 0 and 1 (indices
    /// into this round's objects followed by the earlier survivors, mod
    /// their number) and the payload of the fields after them.
    nodes: Vec<(usize, usize, usize, i32)>,
    /// Objects of this round that stay rooted in every later round.
    roots: Vec<usize>,
}

fn rounds_strategy() -> impl Strategy<Value = Vec<Round>> {
    let round = (
        proptest::collection::vec(
            (0usize..=4, any::<usize>(), any::<usize>(), any::<i32>()),
            1..30,
        ),
        proptest::collection::vec(any::<usize>(), 0..4),
    )
        .prop_map(|(nodes, roots)| Round { nodes, roots });
    proptest::collection::vec(round, 2..6)
}

/// A value no program writes, distinct per (object, slot).
fn marker(r: ObjRef, slot: usize) -> Value {
    Value::Long(((r.0 as i64) << 8) | slot as i64)
}

/// Write a distinct marker into every field of every instance in `live`,
/// read them all back, then restore what was there: two instances sharing
/// an arena slot would read each other's marker.
fn assert_disjoint(heap: &mut Heap, live: &ObjSet) {
    let saved: Vec<(ObjRef, Vec<Value>)> = live
        .iter()
        .map(|&r| (r, (0..).map_while(|slot| heap.field(r, slot).ok()).collect()))
        .collect();
    for (r, fields) in &saved {
        for slot in 0..fields.len() {
            heap.set_field(*r, slot, marker(*r, slot)).unwrap();
        }
    }
    for (r, fields) in &saved {
        for slot in 0..fields.len() {
            assert_eq!(heap.field(*r, slot).unwrap(), marker(*r, slot), "{r} shares a slot");
        }
    }
    for (r, fields) in saved {
        for (slot, v) in fields.into_iter().enumerate() {
            heap.set_field(r, slot, v).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gc_frees_exactly_the_unreachable(spec in spec_strategy()) {
        let mut heap = Heap::new();
        let (refs, roots, pins) = build(&mut heap, &spec);

        // Oracle computed before collection.
        let mut starts = roots.clone();
        starts.extend(pins.iter().copied());
        let live_oracle = reachable(&heap, &starts);

        // Digests of the root graphs before collection.
        let digests: Vec<u64> =
            roots.iter().map(|&r| structure_digest(&heap, Value::Ref(r))).collect();

        let report = heap.gc(roots.clone());
        prop_assert_eq!(report.live as usize, live_oracle.len());
        prop_assert_eq!(report.freed as usize, refs.len() - live_oracle.len());

        for &r in &refs {
            prop_assert_eq!(heap.is_live(r), live_oracle.contains(&r));
        }
        // Root graph contents unchanged.
        for (&r, &d) in roots.iter().zip(&digests) {
            prop_assert_eq!(structure_digest(&heap, Value::Ref(r)), d);
        }
    }

    #[test]
    fn gc_is_idempotent(spec in spec_strategy()) {
        let mut heap = Heap::new();
        let (_refs, roots, _pins) = build(&mut heap, &spec);
        let first = heap.gc(roots.clone());
        let second = heap.gc(roots);
        prop_assert_eq!(second.freed, 0, "second collection must free nothing");
        prop_assert_eq!(second.live, first.live);
    }

    #[test]
    fn allocation_after_gc_reuses_slots_without_corruption(spec in spec_strategy()) {
        let mut heap = Heap::new();
        let (_refs, roots, _pins) = build(&mut heap, &spec);
        let digests: Vec<u64> =
            roots.iter().map(|&r| structure_digest(&heap, Value::Ref(r))).collect();
        heap.gc(roots.clone());
        // Allocate a bunch of new objects into the freed slots.
        for i in 0..20 {
            let o = heap.alloc_obj(OBJECT_CLASS, 1);
            heap.set_field(o, 0, Value::Int(i)).unwrap();
        }
        for (&r, &d) in roots.iter().zip(&digests) {
            prop_assert_eq!(structure_digest(&heap, Value::Ref(r)), d,
                "slot reuse must not touch live objects");
        }
    }

    /// Instances of 0 to 4 fields, allocated and collected in rounds on
    /// one heap, so later rounds take the field ranges earlier ones freed:
    /// no survivor's graph changes, and no two live instances share a slot.
    #[test]
    fn recycled_field_ranges_never_alias_a_survivor(rounds in rounds_strategy()) {
        let mut heap = Heap::new();
        let (mut kept, mut digests): (Vec<ObjRef>, Vec<u64>) = (Vec::new(), Vec::new());
        for round in &rounds {
            let fresh: Vec<ObjRef> =
                round.nodes.iter().map(|&(n, ..)| heap.alloc_obj(OBJECT_CLASS, n)).collect();
            let targets: Vec<ObjRef> = fresh.iter().chain(&kept).copied().collect();
            for (&obj, &(n, a, b, v)) in fresh.iter().zip(&round.nodes) {
                for slot in 0..n {
                    let field = match slot {
                        0 => Value::Ref(targets[a % targets.len()]),
                        1 => Value::Ref(targets[b % targets.len()]),
                        _ => Value::Int(v ^ slot as i32),
                    };
                    heap.set_field(obj, slot, field).unwrap();
                }
            }
            for &i in &round.roots {
                let r = fresh[i % fresh.len()];
                kept.push(r);
                digests.push(structure_digest(&heap, Value::Ref(r)));
            }
            heap.gc(kept.iter().copied());
            for (&r, &d) in kept.iter().zip(&digests) {
                prop_assert_eq!(structure_digest(&heap, Value::Ref(r)), d, "{} changed", r);
            }
            let live = reachable(&heap, &kept);
            assert_disjoint(&mut heap, &live);
        }
    }
}
