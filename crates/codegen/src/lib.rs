//! # corm-codegen — serializer code generation (paper §3.1, §4)
//!
//! Translates the static shapes proven by `corm-analysis` into executable
//! serializer programs:
//!
//! * **Site mode** (the paper's contribution): one [`MarshalPlan`] per
//!   remote call site. Statically-known sub-graphs are *inlined* — no
//!   per-object dynamic dispatch, no wire type information, only a
//!   one-byte presence bit per nullable reference. The cycle-detection
//!   handle table is omitted when §3.2 proves the argument graph acyclic,
//!   and reuse caches are enabled where §3.3 proves non-escaping.
//! * **Class mode** (the `class` baseline, KaRMI/Manta style): one
//!   precompiled serializer per class ([`ClassSerInfo`]), invoked through
//!   dynamic dispatch with a type tag per object and an always-on cycle
//!   table.
//!
//! Both are programs of [`SerNode`]s — a class serializer is the field
//! list of an inlined object with every reference left `Dynamic` — and
//! the [`engine`] module executes them with one walk per direction
//! against a `corm-heap` heap, updating the `corm-wire` statistics
//! counters.

pub mod engine;
pub mod plan;

pub use engine::{DeserOutcome, SerError, Serializer, ShadowCycleCheck, AUDIT_ERROR_PREFIX};
pub use plan::{
    describe_plan, generate_plans, ClassSerInfo, EngineMode, MarshalPlan, OptConfig, Plans,
    PrimKind, SerNode,
};
