//! The acceptance gate for the analysis-verdict auditor: deliberately
//! unsound plans MUST be caught by the shadow checks, and the audit
//! machinery itself MUST be invisible when the analysis is sound.

use std::sync::Arc;

use corm_codegen::{OptConfig, Plans, AUDIT_ERROR_PREFIX};
use corm_fuzz::spec::{CallSpec, ProgramSpec, ShapeSpec, Variant};
use corm_ir::Module;
use corm_net::TransportKind;
use corm_vm::{run_program, RunOptions, RunOutcome};

fn compile(src: &str, config: OptConfig) -> (Module, Plans) {
    let (module, _, plans) = corm_codegen::compile(src, config).expect("compile");
    (module, plans)
}

fn run_audited(module: Module, plans: Plans, audit: bool) -> RunOutcome {
    run_program(
        Arc::new(module),
        Arc::new(plans),
        RunOptions { machines: 2, transport: TransportKind::Channel, audit, ..Default::default() },
    )
}

fn cyclic_list_spec() -> ProgramSpec {
    ProgramSpec {
        shapes: vec![ShapeSpec::List { len: 4, cyclic: true, seed: 3 }],
        calls: vec![CallSpec {
            shape: 0,
            target: 1,
            reps: 2,
            mutate: false,
            variant: Variant::Digest,
        }],
    }
}

/// Forging a cycle-freedom claim into an otherwise sound plan (the same
/// effect as a bug in `crates/analysis/src/cycles.rs`) must trip the
/// shadow cycle check, not silently corrupt the wire image.
#[test]
fn forged_cycle_freedom_claim_is_caught() {
    let src = cyclic_list_spec().render();
    let (module, mut plans) = compile(&src, OptConfig::SITE);
    assert!(
        plans.sites.values().any(|p| p.args_cycle_table),
        "precondition: the cyclic list must need a cycle table under site mode"
    );
    for plan in plans.sites.values_mut() {
        plan.args_cycle_table = false;
        plan.ret_cycle_table = false;
    }
    let out = run_audited(module, plans, true);
    let err = out.error.expect("forged plan must fail under audit");
    assert!(
        err.message.contains(AUDIT_ERROR_PREFIX),
        "expected an {AUDIT_ERROR_PREFIX} error, got: {err}"
    );
}

/// The §7 list extension is deliberately unsound for genuinely cyclic
/// self-referential spines; the auditor must catch it the moment one is
/// sent. (A self-loop is the minimal single-site single-field spine the
/// extension claims acyclic — the two-site `clist` builder keeps its
/// table even under the extension.)
#[test]
fn list_extension_unsoundness_is_caught() {
    let spec = ProgramSpec {
        shapes: vec![ShapeSpec::SelfLoop { seed: 3 }],
        calls: vec![CallSpec {
            shape: 0,
            target: 1,
            reps: 1,
            mutate: false,
            variant: Variant::Digest,
        }],
    };
    let src = spec.render();
    let cfg = OptConfig { list_extension: true, ..OptConfig::ALL };
    let (module, plans) = compile(&src, cfg);
    assert!(
        plans.sites.values().all(|p| !p.args_cycle_table),
        "precondition: the extension must have (unsoundly) elided the table"
    );
    let out = run_audited(module, plans, true);
    let err = out.error.expect("cyclic list under the list extension must fail under audit");
    assert!(
        err.message.contains(AUDIT_ERROR_PREFIX),
        "expected an {AUDIT_ERROR_PREFIX} error, got: {err}"
    );
}

/// When the analysis is sound, auditing (shadow tables + reuse-cache
/// poisoning) must be undetectable: same output, same wire counters.
#[test]
fn audit_is_invisible_on_sound_plans() {
    let spec = ProgramSpec {
        shapes: vec![ShapeSpec::DoubleArray { len: 8, seed: 2 }],
        calls: vec![CallSpec {
            shape: 0,
            target: 1,
            reps: 3,
            mutate: true,
            variant: Variant::Digest,
        }],
    };
    let src = spec.render();
    let (m1, p1) = compile(&src, OptConfig::ALL);
    let (m2, p2) = compile(&src, OptConfig::ALL);
    let audited = run_audited(m1, p1, true);
    let plain = run_audited(m2, p2, false);
    assert!(audited.error.is_none() && plain.error.is_none());
    assert!(audited.audit.poisoned_values > 0, "reuse caches must have been poisoned");
    assert_eq!(plain.audit.poisoned_values, 0);
    assert_eq!(audited.output, plain.output, "poisoning leaked into program output");
    assert_eq!(audited.stats, plain.stats, "auditing changed the wire statistics");
}
