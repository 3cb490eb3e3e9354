//! Property-based tests of the serializer engines: arbitrary object
//! graphs (including DAGs and cycles) must round-trip structurally
//! identical under every engine, and reuse must never change results.

use corm::{compile, OptConfig};
use corm_codegen::{engine::roundtrip, SerNode, Serializer};
use corm_heap::{deep_equal_across, structure_digest, Heap, ObjRef, Value};
use corm_ir::{ClassId, Ty};
use corm_wire::{DeserTable, Message, MessageReader, RmiStats, SerCycleTable};
use proptest::prelude::*;

/// A tiny module supplying class metadata for graph construction:
/// `Node { Node a; Node b; int v; }`.
fn fixture(config: OptConfig) -> (corm::Compiled, ClassId) {
    let src = r#"
        class Node { Node a; Node b; int v; }
        remote class R { void f(Node n) { } }
        class M {
            static void main() {
                R r = new R();
                r.f(new Node());
            }
        }
    "#;
    let c = compile(src, config).unwrap();
    let node = c.module.table.class_named("Node").unwrap();
    (c, node)
}

/// Blueprint for a pseudo-random object graph over `Node`.
#[derive(Debug, Clone)]
struct GraphSpec {
    /// Per node: (a-edge, b-edge, payload); edges index earlier nodes
    /// (guaranteeing DAGs) unless `back_edges` rewires them afterwards.
    nodes: Vec<(Option<usize>, Option<usize>, i32)>,
    /// (from, to) pairs applied after construction — may create cycles.
    back_edges: Vec<(usize, usize)>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    let node = (0usize..64, 0usize..64, any::<i32>(), any::<bool>(), any::<bool>());
    (
        proptest::collection::vec(node, 1..24),
        proptest::collection::vec((0usize..24, 0usize..24), 0..4),
    )
        .prop_map(|(raw, backs)| {
            let n = raw.len();
            let nodes = raw
                .iter()
                .enumerate()
                .map(|(i, &(a, b, v, use_a, use_b))| {
                    let a = if use_a && i > 0 { Some(a % i) } else { None };
                    let b = if use_b && i > 0 { Some(b % i) } else { None };
                    (a, b, v)
                })
                .collect();
            let back_edges = backs.into_iter().map(|(f, t)| (f % n, t % n)).collect();
            GraphSpec { nodes, back_edges }
        })
}

fn build_graph(heap: &mut Heap, class: ClassId, spec: &GraphSpec) -> Value {
    let mut refs: Vec<ObjRef> = Vec::with_capacity(spec.nodes.len());
    for &(a, b, v) in &spec.nodes {
        let obj = heap.alloc_obj(class, 3);
        heap.set_field(obj, 0, a.map(|i| Value::Ref(refs[i])).unwrap_or(Value::Null)).unwrap();
        heap.set_field(obj, 1, b.map(|i| Value::Ref(refs[i])).unwrap_or(Value::Null)).unwrap();
        heap.set_field(obj, 2, Value::Int(v)).unwrap();
        refs.push(obj);
    }
    for &(f, t) in &spec.back_edges {
        heap.set_field(refs[f], 0, Value::Ref(refs[t])).unwrap();
    }
    Value::Ref(*refs.last().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dynamic serialization with the cycle table round-trips any graph,
    /// including cyclic and shared ones, structurally intact.
    #[test]
    fn dynamic_roundtrip_any_graph(spec in graph_strategy()) {
        let (c, node_class) = fixture(OptConfig::CLASS);
        let stats = RmiStats::new();
        let ser = Serializer::new(&c.plans, &c.module.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let root = build_graph(&mut src, node_class, &spec);
        let (out, _) = roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, root, true, Value::Null)
            .expect("roundtrip failed");
        prop_assert!(deep_equal_across(&src, root, &dst, out.value));
        prop_assert_eq!(structure_digest(&src, root), structure_digest(&dst, out.value));
    }

    /// Reusing the previous deserialization result must produce the same
    /// structure as deserializing fresh — for arbitrary consecutive
    /// acyclic graphs.
    #[test]
    fn reuse_never_changes_results(spec1 in graph_strategy(), spec2 in graph_strategy()) {
        // drop back edges: reuse paths are exercised by the plans only on
        // graphs the analysis could prove acyclic, but the engine must be
        // robust for any DAG input
        let spec1 = GraphSpec { back_edges: vec![], ..spec1 };
        let spec2 = GraphSpec { back_edges: vec![], ..spec2 };
        let (c, node_class) = fixture(OptConfig::ALL);
        let stats = RmiStats::new();
        let ser = Serializer::new(&c.plans, &c.module.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let r1 = build_graph(&mut src, node_class, &spec1);
        let r2 = build_graph(&mut src, node_class, &spec2);
        let (out1, _) = roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, r1, true, Value::Null).unwrap();
        // second transfer reuses the first result as its candidate
        let (out2, _) = roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, r2, true, out1.value).unwrap();
        prop_assert!(deep_equal_across(&src, r2, &dst, out2.value),
            "reused deserialization differs from the source graph");
    }

    /// Primitive arrays: bulk payloads round-trip exactly, with or
    /// without a reuse candidate of mismatched size.
    #[test]
    fn prim_array_roundtrip(data in proptest::collection::vec(any::<f64>(), 0..200),
                            reuse_len in 0usize..200) {
        let (c, _) = fixture(OptConfig::ALL);
        let stats = RmiStats::new();
        let ser = Serializer::new(&c.plans, &c.module.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let arr = src.alloc_array(&Ty::Double, data.len());
        for (i, v) in data.iter().enumerate() {
            src.array_set(arr, i, Value::Double(*v)).unwrap();
        }
        let candidate = Value::Ref(dst.alloc_array(&Ty::Double, reuse_len));
        let node = SerNode::ArrPrim { elem: corm_codegen::PrimKind::F64 };
        let (out, _) = roundtrip(&ser, &src, &mut dst, &node, Value::Ref(arr), false, candidate).unwrap();
        prop_assert!(deep_equal_across(&src, Value::Ref(arr), &dst, out.value));
        // reuse accounting matches the size test (Fig. 13)
        prop_assert_eq!(out.reused, (reuse_len == data.len()) as u64);
    }

    /// Strings round-trip for arbitrary unicode content.
    #[test]
    fn string_roundtrip(s in "\\PC{0,80}") {
        let (c, _) = fixture(OptConfig::ALL);
        let stats = RmiStats::new();
        let ser = Serializer::new(&c.plans, &c.module.table, &stats);
        let mut src = Heap::new();
        let mut dst = Heap::new();
        let obj = src.alloc_str(s.clone());
        let (out, _) = roundtrip(&ser, &src, &mut dst, &SerNode::Str, Value::Ref(obj), false, Value::Null).unwrap();
        prop_assert_eq!(dst.str_value(out.value.as_ref().unwrap()).unwrap(), s.as_str());
    }

    /// A machine keeps one identity table per direction and resets it per
    /// message: after message `a`, the reset table must put `b` — which may
    /// reach `a`'s objects — on the wire in the same bytes, handles
    /// included, as a fresh table, count the same lookups, and resolve the
    /// same handles to the same objects on the other side.
    #[test]
    fn a_reset_table_is_a_fresh_table(spec_a in graph_strategy(), spec_b in graph_strategy(),
                                      link in any::<bool>()) {
        let (c, node_class) = fixture(OptConfig::CLASS);
        let stats = RmiStats::new();
        let ser = Serializer::new(&c.plans, &c.module.table, &stats);
        let node = &SerNode::Dynamic;
        let mut src = Heap::new();
        let a = build_graph(&mut src, node_class, &spec_a);
        let b = build_graph(&mut src, node_class, &spec_b);
        if link {
            src.set_field(b.as_ref().unwrap(), 1, a).unwrap();
        }
        let send = |table: &mut Option<SerCycleTable>, v| {
            let mut msg = Message::new();
            ser.serialize(&src, node, v, table, &mut msg).unwrap();
            msg.into_bytes()
        };
        let mut kept = Some(SerCycleTable::new());
        let a_bytes = send(&mut kept, a);
        kept.as_mut().unwrap().reset();
        let mut fresh = Some(SerCycleTable::new());
        let b_bytes = send(&mut fresh, b);
        prop_assert_eq!(&send(&mut kept, b), &b_bytes);
        let (kept, fresh) = (kept.unwrap(), fresh.unwrap());
        prop_assert_eq!((kept.lookups(), kept.len()), (fresh.lookups(), fresh.len()));

        let recv = |heap: &mut Heap, table: &mut Option<DeserTable>, bytes: &[u8]| {
            let reader = &mut MessageReader::new(bytes);
            ser.deserialize(heap, node, reader, table, Value::Null).unwrap().value
        };
        let (mut kept_heap, mut kept) = (Heap::new(), Some(DeserTable::new()));
        recv(&mut kept_heap, &mut kept, &a_bytes);
        kept.as_mut().unwrap().reset();
        let kept_b = recv(&mut kept_heap, &mut kept, &b_bytes);
        let (mut fresh_heap, mut fresh) = (Heap::new(), Some(DeserTable::new()));
        recv(&mut fresh_heap, &mut fresh, &b_bytes);
        let (kept, fresh) = (kept.unwrap(), fresh.unwrap());
        prop_assert_eq!(kept.len(), fresh.len());
        for h in 0..fresh.len() as u32 {
            let (k, f) = (kept.lookup(h).unwrap(), fresh.lookup(h).unwrap());
            prop_assert_eq!(
                structure_digest(&kept_heap, Value::Ref(k)),
                structure_digest(&fresh_heap, Value::Ref(f)),
                "handle {} names different objects", h
            );
        }
        prop_assert!(deep_equal_across(&src, b, &kept_heap, kept_b));
        prop_assert_eq!(structure_digest(&src, b), structure_digest(&kept_heap, kept_b));
    }
}

/// The reuse candidate shares a child the incoming graph does not: the
/// shared object is recycled for its first wire position only, so every
/// position gets an object of its own and no aliasing appears that the
/// source graph lacks.
#[test]
fn a_shared_child_of_the_candidate_is_claimed_once() {
    let (c, node_class) = fixture(OptConfig::CLASS);
    let stats = RmiStats::new();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let mut src = Heap::new();
    let mut dst = Heap::new();
    // root -> {x, y}, x.a == y.a == shared
    let diamond = GraphSpec {
        nodes: vec![(None, None, 1), (Some(0), None, 2), (Some(0), None, 3), (Some(1), Some(2), 4)],
        back_edges: vec![],
    };
    // root -> {x, y}, x.a and y.a two distinct leaves
    let tree = GraphSpec {
        nodes: vec![
            (None, None, 5),
            (Some(0), None, 6),
            (None, None, 7),
            (Some(2), None, 8),
            (Some(1), Some(3), 9),
        ],
        back_edges: vec![],
    };
    let shared = build_graph(&mut src, node_class, &diamond);
    let (candidate, _) =
        roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, shared, true, Value::Null).unwrap();
    let incoming = build_graph(&mut src, node_class, &tree);
    let allocs = dst.stats.allocs;
    let (out, _) =
        roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, incoming, true, candidate.value)
            .unwrap();
    assert_eq!(out.reused, 4, "the root, x, y and the shared child once");
    assert_eq!(dst.stats.allocs - allocs, 1, "the shared child's second position is fresh");
    assert!(deep_equal_across(&src, incoming, &dst, out.value));
    assert_eq!(structure_digest(&src, incoming), structure_digest(&dst, out.value));
    let root = out.value.as_ref().unwrap();
    let [x, y] = [0, 1].map(|f| dst.field(root, f).unwrap().as_ref().unwrap());
    assert_ne!(dst.field(x, 0).unwrap(), dst.field(y, 0).unwrap(), "an alias the source lacks");
}

/// Deterministic regression cases distilled from the property space.
#[test]
fn handle_table_restores_exact_sharing_pattern() {
    let (c, node_class) = fixture(OptConfig::CLASS);
    let stats = RmiStats::new();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let mut src = Heap::new();
    let mut dst = Heap::new();
    // diamond: root -> {x, y}, x.a == y.a == shared
    let spec = GraphSpec {
        nodes: vec![
            (None, None, 1),       // 0: shared
            (Some(0), None, 2),    // 1: x
            (Some(0), None, 3),    // 2: y
            (Some(1), Some(2), 4), // 3: root
        ],
        back_edges: vec![],
    };
    let root = build_graph(&mut src, node_class, &spec);
    let (out, _) =
        roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, root, true, Value::Null).unwrap();
    let r = out.value.as_ref().unwrap();
    let x = dst.field(r, 0).unwrap().as_ref().unwrap();
    let y = dst.field(r, 1).unwrap().as_ref().unwrap();
    assert_eq!(dst.field(x, 0).unwrap(), dst.field(y, 0).unwrap(), "diamond sharing preserved");
}

#[test]
fn corrupted_payload_is_rejected_not_crashing() {
    let (c, node_class) = fixture(OptConfig::CLASS);
    let stats = RmiStats::new();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let mut src = Heap::new();
    let obj = src.alloc_obj(node_class, 3);
    src.set_field(obj, 2, Value::Int(9)).unwrap();
    let mut msg = corm_wire::Message::new();
    let mut ct = Some(corm_wire::SerCycleTable::new());
    ser.serialize(&src, &SerNode::Dynamic, Value::Ref(obj), &mut ct, &mut msg).unwrap();

    // Truncate / flip bytes: deserialization must error, never panic.
    let bytes = msg.into_bytes();
    for cut in 0..bytes.len() {
        let mut dst = Heap::new();
        let truncated = corm_wire::Message::from_bytes(bytes[..cut].to_vec());
        let mut dt = Some(corm_wire::DeserTable::new());
        let mut reader = truncated.reader();
        let _ = ser.deserialize(&mut dst, &SerNode::Dynamic, &mut reader, &mut dt, Value::Null);
    }
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        let mut dst = Heap::new();
        let msg = corm_wire::Message::from_bytes(corrupted);
        let mut dt = Some(corm_wire::DeserTable::new());
        let mut reader = msg.reader();
        let _ = ser.deserialize(&mut dst, &SerNode::Dynamic, &mut reader, &mut dt, Value::Null);
    }
}

#[test]
fn a_tagged_string_takes_a_handle_on_both_sides() {
    // The sender's cycle table numbers a string it meets on the tagged
    // path; the receiver must count it too, or every handle after it
    // names the wrong object (or none).
    let (c, node_class) = fixture(OptConfig::CLASS);
    let stats = RmiStats::new();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let mut src = Heap::new();
    let mut dst = Heap::new();
    let text = Value::Ref(src.alloc_str("between"));
    let mut node = |a, b| {
        let n = src.alloc_obj(node_class, 3);
        src.set_field(n, 0, a).unwrap();
        src.set_field(n, 1, b).unwrap();
        src.set_field(n, 2, Value::Int(5)).unwrap();
        Value::Ref(n)
    };
    // outer{ text, inner{ shared, text again } }: handles 0..=3, then a
    // back-reference to handle 1.
    let shared = node(Value::Null, Value::Null);
    let inner = node(shared, text);
    let outer = node(text, inner);
    let (out, _) =
        roundtrip(&ser, &src, &mut dst, &SerNode::Dynamic, outer, true, Value::Null).unwrap();
    assert!(deep_equal_across(&src, outer, &dst, out.value));
    let outer2 = out.value.as_ref().unwrap();
    let inner2 = dst.field(outer2, 1).unwrap().as_ref().unwrap();
    assert_eq!(dst.field(outer2, 0).unwrap(), dst.field(inner2, 1).unwrap(), "one string");
}

#[test]
fn a_remote_reference_off_the_wire_must_name_a_machine_id_and_a_remote_class() {
    use corm_heap::RemoteRef;
    use corm_wire::{Message, TAG_PRESENT, TAG_REMOTE};

    let (c, node_class) = fixture(OptConfig::CLASS);
    let stats = RmiStats::new();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let remote = c.module.table.class_named("R").unwrap();
    let nclasses = c.module.table.classes.len() as u32;
    for node in [SerNode::Remote, SerNode::Dynamic] {
        // A bare reference behind the node's "here it comes" tag.
        let read = |machine: u32, class: u32| {
            let mut msg = Message::new();
            msg.write_u8(if node == SerNode::Dynamic { TAG_REMOTE } else { TAG_PRESENT });
            for word in [machine, 42, class] {
                msg.write_u32(word);
            }
            let mut reader = msg.reader();
            ser.deserialize(&mut Heap::new(), &node, &mut reader, &mut None, Value::Null)
                .map(|out| out.value)
        };
        let rr = RemoteRef { machine: 1, obj: ObjRef(42), class: remote };
        assert_eq!(read(1, remote.0), Ok(Value::Remote(rr)));
        for (class, why) in
            [(nclasses, "one past the table"), (u32::MAX, "far past it"), (node_class.0, "local")]
        {
            let err = read(1, class).expect_err(why);
            assert!(err.0.contains(&format!("wire class id {class}")), "{why}: {err}");
        }
        let err = read(1 << 16, remote.0).expect_err("a machine id wider than u16");
        assert!(err.0.contains("machine 65536"), "{err}");
    }
}
