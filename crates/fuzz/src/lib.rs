//! # corm-fuzz — differential fuzzing harness (DESIGN §10)
//!
//! A seeded generator of MiniParty programs with adversarial heap shapes
//! (cyclic lists, self-loops, shared-diamond DAGs, trees, arrays of
//! objects with holes and aliasing, nested arrays, mixed records with
//! null edges), plus a differential oracle, [`check`], that runs every
//! generated program under all five paper configurations (`class`, `site`,
//! `site + cycle`, `site + reuse`, `site + reuse + cycle`) and three
//! transport backends (channel, TCP and lossy: [`Matrix::FUZZ`]), asserting:
//!
//! * identical program output everywhere (the printed caller/callee
//!   structure digests double as a post-call heap-equality witness);
//! * bit-identical per-machine wire statistics and audit evidence across
//!   transports;
//! * the cross-config counter monotonicities the paper's tables imply
//!   (cycle elision only removes lookups, reuse only removes
//!   deserialization allocations, site mode never out-sends class mode).
//!
//! Every oracle run enables [`corm_vm::RunOptions::audit`], so each
//! iteration is also a soundness check of `crates/analysis`: a plan that
//! claims cycle-freedom is shadow-checked object by object, and a plan
//! that claims reuse-safety has its cached graph poisoned between calls.
//!
//! The oracle is the workspace's one differential harness: the corpus
//! replay and the equivalence suites under `tests/` call [`check`] with a
//! [`Matrix`] of their own (the apps' machines, arguments and carriers).
//!
//! Failing programs are minimized by the delta-debugging shrinker in
//! [`shrink`](mod@shrink) and written out as `.mp` programs; one copied
//! into `tests/corpus/` replays there as a regression case.

pub mod cli;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use gen::gen_spec;
pub use oracle::{check, FailureKind, Matrix, OracleFailure, OracleOutcome};
pub use rng::SplitMix;
pub use shrink::{candidates, shrink};
pub use spec::{CallSpec, ProgramSpec, RootTy, ShapeSpec, Variant};
