//! # corm-codegen — serializer code generation (paper §3.1, §4)
//!
//! Turns the serializer programs proven by `corm-analysis` into the plans
//! the VM runs:
//!
//! * **Site mode** (the paper's contribution): one [`MarshalPlan`] per
//!   remote call site, running the [`SerNode`] tree the heap analysis
//!   built. Statically-known sub-graphs are *inlined* — no per-object
//!   dynamic dispatch, no wire type information, only a one-byte presence
//!   bit per nullable reference. The cycle-detection handle table is
//!   omitted when §3.2 proves the argument graph acyclic, and reuse caches
//!   are enabled where §3.3 proves non-escaping.
//! * **Class mode** (the `class` baseline, KaRMI/Manta style): one
//!   precompiled serializer per class ([`Plans::class_sers`]), invoked
//!   through dynamic dispatch with a type tag per object and an always-on
//!   cycle table.
//!
//! Both are [`SerNode`] programs — a class serializer is the inlined object
//! of its class with every reference left `Dynamic` — and the [`engine`]
//! module executes them with one walk per direction against a `corm-heap`
//! heap, updating the `corm-wire` statistics counters.

#![deny(unsafe_code)]

pub mod engine;
pub mod plan;

pub use corm_analysis::{PrimKind, SerNode};
pub use engine::{DeserOutcome, SerError, Serializer, ShadowCycleCheck, AUDIT_ERROR_PREFIX};
pub use plan::{compile, describe_plan, generate_plans, EngineMode, MarshalPlan, OptConfig, Plans};
