//! Cycle-freedom analysis (paper §3.2, Figures 8/9).
//!
//! "Our (conservative) algorithm traverses the heap graphs rooted at the
//! arguments of the call instruction and records the allocation numbers it
//! has already encountered. Once an allocation number is seen twice, we
//! assume that the argument graph may contain a cycle."
//!
//! Seen-twice covers three situations: a true cycle (self reference,
//! Fig. 9), sharing within one argument graph, and the same node reachable
//! from two arguments (Fig. 8). All three require the runtime handle table,
//! so the conservative merge is exactly what the serializer needs.
//!
//! The paper notes (§7) that acyclic linked lists are mistakenly flagged —
//! one allocation site in a loop creates a self-edge in the graph. The
//! [`CycleOptions::assume_acyclic_self_lists`] extension implements the
//! "more precise heap graph representation" the paper calls future work:
//! a node whose only repetition is a direct self-edge through a single
//! field is treated as a (possibly unbounded, but acyclic) list spine.
//! This is an opt-in ablation; it is unsound for genuinely cyclic lists
//! and is benchmarked as such.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::graph::{HeapGraph, NodeId, NodeSet};
use crate::provenance::Finding;

/// Options for the cycle analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleOptions {
    /// Extension (paper §7 future work): treat a pure self-recursive
    /// single-field spine as acyclic.
    pub assume_acyclic_self_lists: bool,
}

/// May the object graph rooted at `roots` (one points-to set per argument)
/// contain a cycle or sharing, requiring runtime cycle detection? The
/// finding names the rule that fired and a witness: the heap path to the
/// allocation site seen twice, or a traversal summary when the graph is
/// provably acyclic.
pub fn may_cycle(g: &HeapGraph, roots: &[NodeSet], opts: CycleOptions) -> Finding {
    let mut walk = Walk::default();
    let mut spines_skipped = 0usize;
    for (k, set) in roots.iter().enumerate() {
        for &n in set {
            walk.arrive(n, Edge::Arg(k));
        }
    }
    while let Some(n) = walk.stack.pop() {
        let node = g.node(n);
        for (slot, set) in node.fields.iter().enumerate() {
            for &t in set {
                if opts.assume_acyclic_self_lists && t == n && is_single_recursive_field(g, n, slot)
                {
                    spines_skipped += 1;
                    continue;
                }
                walk.arrive(t, Edge::Field(n, slot));
            }
        }
        for &t in &node.elems {
            walk.arrive(t, Edge::Elem(n));
        }
    }
    if let Some(finding) = walk.revisit {
        return finding;
    }

    // Multiplicity pass. Arrival counting visits each heap-graph edge set
    // once, but one array node stands for *all* runtime slots of the
    // array: `[t, u, u]` shares `u` across two slots without any node
    // being seen twice. A store is "fresh" when the stored value was
    // allocated in the same basic block as the store (so every executed
    // store deposits a distinct object); non-fresh stores may alias.
    for &n in &walk.order {
        let node = g.node(n);
        if node.elem_nonfresh && !node.elems.is_empty() {
            return Finding::new(
                true,
                "nonfresh-element-store",
                format!(
                    "array {} (reached via {}) has a non-fresh element store: \
                     two runtime slots may alias one object",
                    n,
                    walk.path_to(n)
                ),
            );
        }
    }
    // Nodes reached through array elements may stand for several runtime
    // objects at once; a non-fresh field store on such a node can make
    // their instances share a target.
    let mut multi = NodeSet::new();
    let mut work: Vec<NodeId> = Vec::new();
    for &n in &walk.order {
        work.extend(g.node(n).elems.iter().copied().filter(|&t| multi.insert(t)));
    }
    while let Some(m) = work.pop() {
        let node = g.node(m);
        for (slot, set) in node.fields.iter().enumerate() {
            if !set.is_empty() && node.nonfresh_fields.contains(&(slot as u32)) {
                return Finding::new(
                    true,
                    "nonfresh-field-on-array-element",
                    format!(
                        "{m} stands for several runtime objects (reached through array \
                         elements) and stores non-fresh into field#{slot}: instances may \
                         share one target"
                    ),
                );
            }
            work.extend(set.iter().copied().filter(|&t| multi.insert(t)));
        }
        if node.elem_nonfresh && !node.elems.is_empty() {
            return Finding::new(
                true,
                "nonfresh-element-store",
                format!(
                    "array {m} (reached through array elements) has a non-fresh element \
                     store: two runtime slots may alias one object"
                ),
            );
        }
        work.extend(node.elems.iter().copied().filter(|&t| multi.insert(t)));
    }

    if spines_skipped > 0 {
        Finding::new(
            false,
            "list-extension",
            format!(
                "{} node(s) traversed; {spines_skipped} single-recursive-field self edge(s) \
                 treated as an acyclic list spine (§7 extension), no other node reached twice",
                walk.order.len()
            ),
        )
    } else {
        Finding::new(
            false,
            "traversal-complete",
            format!(
                "{} node(s) traversed from {} argument set(s); no allocation site reached \
                 twice, no non-fresh store on a multiple-instance node",
                walk.order.len(),
                roots.len()
            ),
        )
    }
}

/// How a node was first reached: from an argument, or over a heap edge
/// from its parent.
#[derive(Clone, Copy)]
enum Edge {
    Arg(usize),
    Field(NodeId, usize),
    Elem(NodeId),
}

/// The traversal: how each node was first reached, in first-arrival order
/// (which keeps the multiplicity passes, and so the witnesses,
/// deterministic), the nodes still to expand, and the first revisit.
#[derive(Default)]
struct Walk {
    arrivals: HashMap<NodeId, Edge>,
    order: Vec<NodeId>,
    stack: Vec<NodeId>,
    revisit: Option<Finding>,
}

impl Walk {
    /// Reach `n` over `edge`. The first node reached a second time is the
    /// `revisit` finding.
    fn arrive(&mut self, n: NodeId, edge: Edge) {
        if let Entry::Vacant(slot) = self.arrivals.entry(n) {
            slot.insert(edge);
            self.order.push(n);
            self.stack.push(n);
        } else if self.revisit.is_none() {
            let again = match edge {
                Edge::Arg(k) => format!("arg{k}"),
                Edge::Field(p, slot) => format!("{p}.field#{slot}"),
                Edge::Elem(p) => format!("{p}[elem]"),
            };
            let witness =
                format!("{n} reached twice: first via {}, again via {again}", self.path_to(n));
            self.revisit = Some(Finding::new(true, "revisit", witness));
        }
    }

    /// Heap path from a traversal root to `n`, one step per edge, e.g.
    /// `arg0 ∋ n1 n1 .field#0→ n3`.
    fn path_to(&self, n: NodeId) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let edge = self.arrivals[&c];
            let (part, parent) = match edge {
                Edge::Arg(k) => (format!("arg{k} ∋ {c}"), None),
                Edge::Field(p, slot) => (format!("{p} .field#{slot}→ {c}"), Some(p)),
                Edge::Elem(p) => (format!("{p} [elem]→ {c}"), Some(p)),
            };
            parts.push(part);
            cur = parent;
        }
        parts.reverse();
        parts.join(" ")
    }
}

/// Is `slot` the only field of `n` that points back to `n` itself, with no
/// other route reaching `n`? (The linked-list spine pattern.)
fn is_single_recursive_field(g: &HeapGraph, n: NodeId, slot: usize) -> bool {
    let node = g.node(n);
    // exactly one self edge, through `slot`, and that edge targets only n
    node.fields.iter().enumerate().all(|(s, set)| {
        if s == slot {
            set.len() == 1 && set.contains(&n)
        } else {
            !set.contains(&n)
        }
    }) && !node.elems.contains(&n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{AllocSiteId, ClassId, Ty};

    fn obj(g: &mut HeapGraph, site: u32, nfields: usize) -> NodeId {
        g.add_node(AllocSiteId(site), Ty::Class(ClassId(1)), nfields, None)
    }

    /// The verdict and the rule that decided it.
    fn verdict(g: &HeapGraph, roots: &[NodeSet], opts: CycleOptions) -> (bool, &'static str) {
        let finding = may_cycle(g, roots, opts);
        (finding.holds, finding.rule)
    }

    const ACYCLIC: (bool, &str) = (false, "traversal-complete");
    const REVISIT: (bool, &str) = (true, "revisit");

    #[test]
    fn tree_is_acyclic() {
        let mut g = HeapGraph::default();
        let root = obj(&mut g, 0, 2);
        let l = obj(&mut g, 1, 0);
        let r = obj(&mut g, 2, 0);
        g.add_field_edge(root, 0, &NodeSet::from([l]));
        g.add_field_edge(root, 1, &NodeSet::from([r]));
        assert_eq!(verdict(&g, &[NodeSet::from([root])], CycleOptions::default()), ACYCLIC);
    }

    /// Paper Figure 8: the same object passed as both arguments.
    #[test]
    fn fig8_same_node_two_args() {
        let mut g = HeapGraph::default();
        let b = obj(&mut g, 3, 0);
        assert_eq!(
            verdict(&g, &[NodeSet::from([b]), NodeSet::from([b])], CycleOptions::default()),
            REVISIT
        );
    }

    /// Paper Figure 9: self-referencing object.
    #[test]
    fn fig9_self_reference() {
        let mut g = HeapGraph::default();
        let b = obj(&mut g, 4, 1);
        g.add_field_edge(b, 0, &NodeSet::from([b]));
        assert_eq!(verdict(&g, &[NodeSet::from([b])], CycleOptions::default()), REVISIT);
    }

    /// Paper §7: a linked list (one allocation site in a loop) is
    /// conservatively flagged as may-cycle.
    #[test]
    fn linked_list_flagged_conservatively() {
        let mut g = HeapGraph::default();
        let node = obj(&mut g, 5, 1);
        g.add_field_edge(node, 0, &NodeSet::from([node])); // next -> same site
        assert_eq!(verdict(&g, &[NodeSet::from([node])], CycleOptions::default()), REVISIT);
    }

    /// The §7 extension lifts the linked-list imprecision.
    #[test]
    fn list_extension_treats_spine_as_acyclic() {
        let mut g = HeapGraph::default();
        let node = obj(&mut g, 5, 1);
        g.add_field_edge(node, 0, &NodeSet::from([node]));
        let opts = CycleOptions { assume_acyclic_self_lists: true };
        assert_eq!(verdict(&g, &[NodeSet::from([node])], opts), (false, "list-extension"));
    }

    /// The extension must NOT fire when the node is additionally shared.
    #[test]
    fn list_extension_still_flags_shared_spine() {
        let mut g = HeapGraph::default();
        let node = obj(&mut g, 5, 2);
        g.add_field_edge(node, 0, &NodeSet::from([node]));
        g.add_field_edge(node, 1, &NodeSet::from([node])); // second route
        let opts = CycleOptions { assume_acyclic_self_lists: true };
        assert_eq!(verdict(&g, &[NodeSet::from([node])], opts), REVISIT);
    }

    #[test]
    fn shared_subobject_within_one_arg() {
        let mut g = HeapGraph::default();
        let root = obj(&mut g, 0, 2);
        let shared = obj(&mut g, 1, 0);
        g.add_field_edge(root, 0, &NodeSet::from([shared]));
        g.add_field_edge(root, 1, &NodeSet::from([shared]));
        assert_eq!(verdict(&g, &[NodeSet::from([root])], CycleOptions::default()), REVISIT);
    }

    #[test]
    fn nested_arrays_acyclic() {
        let mut g = HeapGraph::default();
        let outer = g.add_node(AllocSiteId(0), Ty::Double.array_of().array_of(), 0, None);
        let inner = g.add_node(AllocSiteId(1), Ty::Double.array_of(), 0, None);
        g.add_elem_edge(outer, &NodeSet::from([inner]));
        assert_eq!(verdict(&g, &[NodeSet::from([outer])], CycleOptions::default()), ACYCLIC);
    }

    /// Two runtime slots of one array can alias a single object even when
    /// the heap graph sees every node only once ([t, u, u]); a non-fresh
    /// element store is the only way to build that, so it must flag.
    #[test]
    fn nonfresh_elem_store_flags_slot_aliasing() {
        let mut g = HeapGraph::default();
        let arr = g.add_node(AllocSiteId(0), Ty::Class(ClassId(1)).array_of(), 0, None);
        let t = obj(&mut g, 1, 0);
        g.add_elem_edge(arr, &NodeSet::from([t]));
        assert_eq!(verdict(&g, &[NodeSet::from([arr])], CycleOptions::default()), ACYCLIC);
        g.mark_elem_nonfresh(arr);
        assert_eq!(
            verdict(&g, &[NodeSet::from([arr])], CycleOptions::default()),
            (true, "nonfresh-element-store")
        );
    }

    /// Fresh element stores (value allocated next to the store) deposit a
    /// distinct object per slot — no aliasing, no flag.
    #[test]
    fn fresh_elem_stores_stay_acyclic() {
        let mut g = HeapGraph::default();
        let arr = g.add_node(AllocSiteId(0), Ty::Class(ClassId(1)).array_of(), 0, None);
        let a = obj(&mut g, 1, 0);
        let b = obj(&mut g, 2, 0);
        g.add_elem_edge(arr, &NodeSet::from([a, b]));
        assert_eq!(verdict(&g, &[NodeSet::from([arr])], CycleOptions::default()), ACYCLIC);
    }

    /// A node reached through array elements stands for many runtime
    /// objects; a non-fresh field store on it can make their instances
    /// share one target.
    #[test]
    fn nonfresh_field_on_array_element_flags() {
        let mut g = HeapGraph::default();
        let arr = g.add_node(AllocSiteId(0), Ty::Class(ClassId(1)).array_of(), 0, None);
        let elem = obj(&mut g, 1, 1);
        let child = obj(&mut g, 2, 0);
        g.add_elem_edge(arr, &NodeSet::from([elem]));
        g.add_field_edge(elem, 0, &NodeSet::from([child]));
        assert_eq!(verdict(&g, &[NodeSet::from([arr])], CycleOptions::default()), ACYCLIC);
        g.mark_field_nonfresh(elem, 0);
        assert_eq!(
            verdict(&g, &[NodeSet::from([arr])], CycleOptions::default()),
            (true, "nonfresh-field-on-array-element")
        );
    }

    /// The same non-fresh field store on a node NOT reached through array
    /// elements is harmless — arrival counting already covers sharing
    /// between singleton objects.
    #[test]
    fn nonfresh_field_outside_arrays_is_harmless() {
        let mut g = HeapGraph::default();
        let root = obj(&mut g, 0, 1);
        let child = obj(&mut g, 1, 0);
        g.add_field_edge(root, 0, &NodeSet::from([child]));
        g.mark_field_nonfresh(root, 0);
        assert_eq!(verdict(&g, &[NodeSet::from([root])], CycleOptions::default()), ACYCLIC);
    }

    #[test]
    fn alternatives_in_points_to_set_count_as_arrivals() {
        // Conservative: two nodes in one root set arriving at a common
        // child flag sharing even though only one exists at runtime.
        let mut g = HeapGraph::default();
        let a = obj(&mut g, 0, 1);
        let b = obj(&mut g, 1, 1);
        let child = obj(&mut g, 2, 0);
        g.add_field_edge(a, 0, &NodeSet::from([child]));
        g.add_field_edge(b, 0, &NodeSet::from([child]));
        assert_eq!(verdict(&g, &[NodeSet::from([a, b])], CycleOptions::default()), REVISIT);
    }
}
