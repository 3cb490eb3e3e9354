//! # corm-analysis — the paper's static analyses
//!
//! Implements §2 and §3 of *Compiler Optimized Remote Method Invocation*:
//!
//! * **Heap analysis** ([`points_to`]): an allocation-site points-to graph
//!   computed by data-flow over SSA. RMI's deep-copy parameter semantics
//!   are modeled by *cloning* the argument/return sub-graphs at remote call
//!   boundaries; termination uses the paper's (logical, physical)
//!   allocation-number tuples — a physical site is cloned at most once per
//!   remote target (arguments) or per call site (returns), exactly the
//!   mechanism of Figures 3/4.
//! * **Cycle-freedom** ([`cycles`]): conservative traversal of the heap
//!   graph rooted at a call's arguments; any allocation node encountered
//!   twice means "may contain a cycle" (Figures 8/9), including the
//!   paper's acknowledged imprecision on acyclic linked lists (§7).
//! * **Escape / reuse analysis** ([`escape`]): RMI-specific escape analysis
//!   where an object escapes if *anything it recursively refers to*
//!   escapes (Figures 10/11); non-escaping argument and return graphs can
//!   be recycled between RMIs (§3.3).
//! * **Call-site serializers** ([`shape`]): per call site, the [`SerNode`]
//!   program of each argument and the return value — what the heap
//!   analysis proves about the object graph, as the tree the engine in
//!   `corm-codegen` runs (§3.1).

pub mod cycles;
pub mod escape;
pub mod graph;
pub mod points_to;
pub mod provenance;
pub mod shape;
pub mod summary;

pub use graph::{HeapGraph, HeapNode, NodeId, NodeSet};
pub use points_to::{analyze_points_to, PointsTo};
pub use provenance::{Decision, Finding, SiteProvenance};
pub use shape::{PrimKind, SerNode};
pub use summary::{analyze_module, AnalysisOptions, AnalysisResult, RemoteSiteInfo};
