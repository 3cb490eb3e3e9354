//! The heap graph: nodes are (logical) allocation sites, edges are
//! field / array-element may-point-to relations (paper §2, Figure 2).

use std::collections::BTreeSet;

use corm_ir::{AllocSiteId, Ty};

/// A *logical* allocation node. Base nodes correspond 1:1 to physical
/// allocation sites; clone nodes are created when a sub-graph crosses a
/// remote call boundary (deep-copy semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A set of heap nodes (points-to set).
pub type NodeSet = BTreeSet<NodeId>;

/// One node of the heap graph.
#[derive(Debug, Clone)]
pub struct HeapNode {
    pub id: NodeId,
    /// The *physical* allocation-site number — invariant under cloning.
    /// This is the second component of the paper's tuple; its only purpose
    /// is to stop the cloning cascade at remote-call boundaries.
    pub phys: AllocSiteId,
    /// Allocated type: `Ty::Class(..)` or `Ty::Array(..)`.
    pub ty: Ty,
    /// May-point-to targets per instance-field slot (objects).
    pub fields: Vec<NodeSet>,
    /// May-point-to targets of array elements (reference arrays).
    pub elems: NodeSet,
    /// Some element store wrote a value that was not freshly allocated
    /// alongside the store — two slots of one runtime array may then hold
    /// the same object, which the single `elems` set cannot express.
    pub elem_nonfresh: bool,
    /// Field slots with a non-fresh store (relevant when this node stands
    /// for several runtime objects: their instances may share the target).
    pub nonfresh_fields: BTreeSet<u32>,
    /// For clone nodes: the base node this was (transitively) cloned from.
    pub clone_of: Option<NodeId>,
}

impl HeapNode {
    pub fn is_clone(&self) -> bool {
        self.clone_of.is_some()
    }
}

/// The global heap graph plus the points-to sets of statics and of the
/// conservative "queue blob" (values that transit built-in queues).
#[derive(Debug, Clone, Default)]
pub struct HeapGraph {
    pub nodes: Vec<HeapNode>,
    /// Points-to set of every static variable.
    pub statics: Vec<NodeSet>,
    /// Values that ever flow through a `Queue` (conservatively merged).
    pub blob: NodeSet,
}

impl HeapGraph {
    pub fn node(&self, id: NodeId) -> &HeapNode {
        &self.nodes[id.index()]
    }

    pub fn add_node(
        &mut self,
        phys: AllocSiteId,
        ty: Ty,
        nfields: usize,
        clone_of: Option<NodeId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(HeapNode {
            id,
            phys,
            ty,
            fields: vec![NodeSet::new(); nfields],
            elems: NodeSet::new(),
            elem_nonfresh: false,
            nonfresh_fields: BTreeSet::new(),
            clone_of,
        });
        id
    }

    /// Record a non-fresh element store into `node`; returns true if the
    /// marker is new.
    pub fn mark_elem_nonfresh(&mut self, node: NodeId) -> bool {
        let n = &mut self.nodes[node.index()];
        !std::mem::replace(&mut n.elem_nonfresh, true)
    }

    /// Record a non-fresh store to `node.fields[slot]`; returns true if
    /// the marker is new.
    pub fn mark_field_nonfresh(&mut self, node: NodeId, slot: u32) -> bool {
        self.nodes[node.index()].nonfresh_fields.insert(slot)
    }

    /// Add `targets` to `node.fields[slot]`; returns true if anything new.
    pub fn add_field_edge(&mut self, node: NodeId, slot: usize, targets: &NodeSet) -> bool {
        let f = &mut self.nodes[node.index()].fields[slot];
        let before = f.len();
        f.extend(targets.iter().copied());
        f.len() != before
    }

    /// Add `targets` to `node.elems`; returns true if anything new.
    pub fn add_elem_edge(&mut self, node: NodeId, targets: &NodeSet) -> bool {
        let e = &mut self.nodes[node.index()].elems;
        let before = e.len();
        e.extend(targets.iter().copied());
        e.len() != before
    }

    /// All outgoing edges of a node: each field slot's set and the elem set.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.node(node);
        n.fields.iter().flat_map(|s| s.iter().copied()).chain(n.elems.iter().copied())
    }

    /// Nodes reachable from `roots` (inclusive) following field/element
    /// edges.
    pub fn reachable(&self, roots: impl IntoIterator<Item = NodeId>) -> NodeSet {
        let mut seen = NodeSet::new();
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            stack.extend(self.successors(n));
        }
        seen
    }

    /// Human-readable dump for debugging and the figures example.
    pub fn dump(&self, m: &corm_ir::Module) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for n in &self.nodes {
            let kind = if n.is_clone() { "clone" } else { "alloc" };
            let _ = writeln!(s, "{} [{kind} site {} : {}]", n.id, n.phys.0, m.table.ty_name(&n.ty));
            for (slot, set) in n.fields.iter().enumerate() {
                if !set.is_empty() {
                    let t: Vec<String> = set.iter().map(|x| x.to_string()).collect();
                    let _ = writeln!(s, "    .slot{} -> {{{}}}", slot, t.join(", "));
                }
            }
            if !n.elems.is_empty() {
                let t: Vec<String> = n.elems.iter().map(|x| x.to_string()).collect();
                let _ = writeln!(s, "    [] -> {{{}}}", t.join(", "));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{ClassId, OBJECT_CLASS};

    fn g() -> HeapGraph {
        HeapGraph::default()
    }

    #[test]
    fn add_and_query_nodes() {
        let mut graph = g();
        let a = graph.add_node(AllocSiteId(0), Ty::Class(OBJECT_CLASS), 2, None);
        let b = graph.add_node(AllocSiteId(1), Ty::Class(ClassId(1)), 0, None);
        assert!(graph.add_field_edge(a, 0, &NodeSet::from([b])));
        assert!(!graph.add_field_edge(a, 0, &NodeSet::from([b])), "idempotent");
        assert_eq!(graph.successors(a).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn reachability() {
        let mut graph = g();
        let a = graph.add_node(AllocSiteId(0), Ty::Class(OBJECT_CLASS), 1, None);
        let b = graph.add_node(AllocSiteId(1), Ty::Class(OBJECT_CLASS), 1, None);
        let c = graph.add_node(AllocSiteId(2), Ty::Class(OBJECT_CLASS), 1, None);
        graph.add_field_edge(a, 0, &NodeSet::from([b]));
        graph.add_field_edge(b, 0, &NodeSet::from([a])); // cycle
        let r = graph.reachable([a]);
        assert!(r.contains(&a) && r.contains(&b));
        assert!(!r.contains(&c));
    }
}
