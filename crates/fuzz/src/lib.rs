//! # corm-fuzz — differential fuzzing harness (DESIGN §10)
//!
//! A seeded generator of MiniParty programs with adversarial heap shapes
//! (cyclic lists, self-loops, shared-diamond DAGs, trees, arrays of
//! objects with holes and aliasing, nested arrays, mixed records with
//! null edges), plus a differential oracle that runs every generated
//! program under all five paper configurations (`class`, `site`,
//! `site + cycle`, `site + reuse`, `site + reuse + cycle`) and both
//! transport backends, asserting:
//!
//! * identical program output everywhere (the printed caller/callee
//!   structure digests double as a post-call heap-equality witness);
//! * bit-identical per-machine wire statistics across transports;
//! * the cross-config counter monotonicities the paper's tables imply
//!   (cycle elision only removes lookups, reuse only removes
//!   deserialization allocations, site mode never out-sends class mode).
//!
//! Every oracle run enables [`corm_vm::RunOptions::audit`], so each
//! iteration is also a soundness check of `crates/analysis`: a plan that
//! claims cycle-freedom is shadow-checked object by object, and a plan
//! that claims reuse-safety has its cached graph poisoned between calls.
//!
//! Failing programs are minimized by the delta-debugging shrinker in
//! [`shrink`](mod@shrink) and written out as committable `.mp` regression cases
//! (see `tests/corpus/`).

pub mod cli;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use gen::gen_spec;
pub use oracle::{
    check_source, check_source_with_loss, check_spec, check_spec_with_loss, FailureKind,
    OracleFailure, OracleOutcome,
};
pub use rng::SplitMix;
pub use shrink::{candidates, shrink};
pub use spec::{CallSpec, ProgramSpec, RootTy, ShapeSpec, Variant};
