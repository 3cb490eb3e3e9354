//! The differential oracle: one program, fifteen runs, one verdict.
//!
//! Every check compiles the program once per paper configuration and
//! runs each compilation under three transport backends — channel, TCP
//! and the seeded-fault lossy fabric — with the analysis-verdict
//! auditor enabled ([`corm_vm::RunOptions::audit`]). A disagreement
//! anywhere — output, per-machine counters, audit — is a bug in exactly
//! one of serializer codegen, the heap analyses, or the transport
//! layer, which is what makes the oracle a useful fuzz target. The
//! lossy rows double as an end-to-end proof of exactly-once delivery:
//! all accounting happens above the retransmission machinery, so even
//! under injected drop/duplicate/reorder faults the counters must be
//! bit-identical to the reliable backends.

use std::fmt;
use std::sync::Arc;

use corm_codegen::{OptConfig, Plans, AUDIT_ERROR_PREFIX};
use corm_ir::Module;
use corm_net::{LossSpec, TransportKind};
use corm_vm::{run_program, RunOptions, RunOutcome};
use corm_wire::StatsSnapshot;

use crate::spec::ProgramSpec;

/// Aggregate evidence from a passing oracle check.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleOutcome {
    /// Total runs performed (configs × transports).
    pub runs: usize,
    /// Shadow cycle tables instantiated across all runs — how often a
    /// cycle-freedom claim was actually exercised.
    pub shadow_tables: u64,
    /// Individual shadow identity checks performed.
    pub shadow_checks: u64,
    /// Values overwritten by reuse-cache poisoning.
    pub poisoned_values: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The generated program failed to compile (a generator bug).
    Compile,
    /// A run ended in a VM error that is not an audit violation.
    RunError,
    /// The shadow cycle table caught an unsound cycle-freedom claim.
    AuditViolation,
    /// Outputs differ across configurations or transports.
    OutputDivergence,
    /// Per-machine counters differ between the two transports.
    CounterDivergence,
    /// A cross-config counter monotonicity was violated.
    InvariantViolation,
}

#[derive(Debug, Clone)]
pub struct OracleFailure {
    pub kind: FailureKind,
    /// Configuration label + transport where the disagreement surfaced.
    pub context: String,
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} [{}]: {}", self.kind, self.context, self.detail)
    }
}

impl std::error::Error for OracleFailure {}

fn fail(kind: FailureKind, context: impl Into<String>, detail: impl Into<String>) -> OracleFailure {
    OracleFailure { kind, context: context.into(), detail: detail.into() }
}

/// Compile MiniParty source under one configuration.
fn compile(src: &str, config: OptConfig) -> Result<(Arc<Module>, Arc<Plans>), String> {
    let (module, _, plans) = corm_codegen::compile(src, config).map_err(|e| e.to_string())?;
    Ok((Arc::new(module), Arc::new(plans)))
}

/// One digest line per remote call site, in site order — what oracle
/// failures, fuzz artifacts and corpus files embed so a site's analysis
/// decisions travel with the report.
fn site_digests(plans: &Plans) -> Vec<String> {
    let mut sites: Vec<_> = plans.sites.values().collect();
    sites.sort_by_key(|p| p.site);
    sites.iter().map(|p| format!("site {}: {}", p.site.0, p.provenance.digest())).collect()
}

/// Per-site provenance digests of `src` under the full optimization
/// stack (`site + reuse + cycle` elides the most, so its digests name
/// every claim a fuzz failure could contradict). Returns comment-ready
/// lines; compile errors degrade to a single explanatory line.
pub fn site_provenance_digests(src: &str) -> Vec<String> {
    match compile(src, OptConfig::ALL) {
        Ok((_, plans)) => site_digests(&plans),
        Err(e) => vec![format!("provenance unavailable (compile failed): {e}")],
    }
}

fn audited_run(
    module: Arc<Module>,
    plans: Arc<Plans>,
    transport: TransportKind,
    loss: Option<LossSpec>,
) -> RunOutcome {
    run_program(
        module,
        plans,
        RunOptions { machines: 2, transport, audit: true, loss, ..Default::default() },
    )
}

fn machine_stats(out: &RunOutcome) -> Vec<StatsSnapshot> {
    out.metrics.machines.iter().map(|m| m.stats).collect()
}

/// Run the full differential check on MiniParty source with the
/// default fault plan (`LossSpec::default`) on the lossy rows.
pub fn check_source(src: &str) -> Result<OracleOutcome, OracleFailure> {
    check_source_with_loss(src, None)
}

/// [`check_source`] with an explicit fault plan for the lossy transport
/// rows — the nightly high-loss sweep passes aggressive rates here.
/// `None` selects the backend's default plan; reliable backends ignore
/// the spec either way.
pub fn check_source_with_loss(
    src: &str,
    loss: Option<LossSpec>,
) -> Result<OracleOutcome, OracleFailure> {
    let mut outcome = OracleOutcome::default();
    let mut first: Option<(String, String)> = None; // (label, output)
    let mut per_config: Vec<(&'static str, StatsSnapshot)> = Vec::new();

    for (label, cfg) in OptConfig::TABLE_ROWS {
        let (module, plans) =
            compile(src, cfg).map_err(|e| fail(FailureKind::Compile, label, e))?;
        // Every failure report names the analysis decisions behind the
        // plans that produced the disagreement.
        let with_prov = |detail: String| {
            let sites: Vec<_> = site_digests(&plans).iter().map(|l| format!("  {l}")).collect();
            format!("{detail}\nanalysis provenance ({label}):\n{}", sites.join("\n"))
        };

        let mut transport_runs: Vec<(TransportKind, RunOutcome)> = Vec::new();
        for transport in [TransportKind::Channel, TransportKind::Tcp, TransportKind::Lossy] {
            let ctx = format!("{label} / {transport:?}");
            let out = audited_run(module.clone(), plans.clone(), transport, loss);
            if let Some(err) = &out.error {
                let kind = if err.message.contains(AUDIT_ERROR_PREFIX) {
                    FailureKind::AuditViolation
                } else {
                    FailureKind::RunError
                };
                return Err(fail(
                    kind,
                    ctx,
                    with_prov(format!("{err}\noutput so far:\n{}", out.output)),
                ));
            }
            outcome.runs += 1;
            outcome.shadow_tables += out.audit.shadow_tables;
            outcome.shadow_checks += out.audit.shadow_checks;
            outcome.poisoned_values += out.audit.poisoned_values;
            transport_runs.push((transport, out));
        }

        // Transports must agree bit-for-bit: output, per-machine counter
        // shards, and the audit evidence itself.
        let (_, base) = &transport_runs[0];
        for (transport, out) in &transport_runs[1..] {
            let ctx = format!("{label} / Channel vs {transport:?}");
            if out.output != base.output {
                return Err(fail(
                    FailureKind::OutputDivergence,
                    ctx,
                    with_prov(format!(
                        "channel output:\n{}\n{} output:\n{}",
                        base.output,
                        transport.label(),
                        out.output
                    )),
                ));
            }
            if machine_stats(out) != machine_stats(base) {
                return Err(fail(
                    FailureKind::CounterDivergence,
                    ctx,
                    with_prov(format!(
                        "per-machine stats differ\nchannel: {:?}\nother:   {:?}",
                        machine_stats(base),
                        machine_stats(out)
                    )),
                ));
            }
            if out.audit != base.audit {
                return Err(fail(
                    FailureKind::CounterDivergence,
                    ctx,
                    with_prov(format!(
                        "audit counters differ: {:?} vs {:?}",
                        base.audit, out.audit
                    )),
                ));
            }
        }

        // Outputs must also agree across configurations.
        match &first {
            None => first = Some((label.to_string(), base.output.clone())),
            Some((first_label, expected)) => {
                if base.output != *expected {
                    return Err(fail(
                        FailureKind::OutputDivergence,
                        format!("{first_label} vs {label}"),
                        with_prov(format!(
                            "{first_label} output:\n{expected}\n{label} output:\n{}",
                            base.output
                        )),
                    ));
                }
            }
        }
        per_config.push((label, base.stats));
    }

    check_invariants(&per_config)
        .map_err(|(ctx, detail)| fail(FailureKind::InvariantViolation, ctx, detail))?;
    Ok(outcome)
}

/// Cross-config counter monotonicities implied by the paper's tables.
/// `rows` is in `OptConfig::TABLE_ROWS` order: class, site, site+cycle,
/// site+reuse, site+reuse+cycle.
fn check_invariants(rows: &[(&'static str, StatsSnapshot)]) -> Result<(), (String, String)> {
    let [class, site, site_cycle, site_reuse, all] =
        [rows[0].1, rows[1].1, rows[2].1, rows[3].1, rows[4].1];
    let le = |name: &str, a: u64, b: u64, actx: &str, bctx: &str| {
        if a > b {
            Err((format!("{actx} vs {bctx}"), format!("{name}: {actx}={a} must be <= {bctx}={b}")))
        } else {
            Ok(())
        }
    };
    let eq = |name: &str, pick: fn(&StatsSnapshot) -> u64| {
        let v = pick(&rows[0].1);
        for (label, s) in rows {
            if pick(s) != v {
                return Err((
                    format!("class vs {label}"),
                    format!("{name}: class={v}, {label}={}", pick(s)),
                ));
            }
        }
        Ok(())
    };
    // The program structure is identical under every configuration, so
    // the call/message counts must be too.
    eq("messages", |s| s.messages)?;
    eq("remote_rpcs", |s| s.remote_rpcs)?;
    eq("local_rpcs", |s| s.local_rpcs)?;
    // Reuse is off in the first three rows.
    for (label, s) in &rows[..3] {
        if s.reused_objs != 0 {
            return Err((
                label.to_string(),
                format!("reused_objs={} without reuse", s.reused_objs),
            ));
        }
    }
    // Cycle elision only ever removes handle-table lookups.
    le("cycle_lookups", site_cycle.cycle_lookups, site.cycle_lookups, "site+cycle", "site")?;
    le("cycle_lookups", all.cycle_lookups, site_reuse.cycle_lookups, "all", "site+reuse")?;
    // Site mode never out-sends class mode.
    le("wire_bytes", site.wire_bytes, class.wire_bytes, "site", "class")?;
    le("type_info_bytes", site.type_info_bytes, class.type_info_bytes, "site", "class")?;
    // Reuse only ever removes deserialization allocations.
    le("deser_allocs", site_reuse.deser_allocs, site.deser_allocs, "site+reuse", "site")?;
    le("deser_allocs", all.deser_allocs, site_cycle.deser_allocs, "all", "site+cycle")?;
    Ok(())
}

/// Render a spec and run the differential check on it.
pub fn check_spec(spec: &ProgramSpec) -> Result<OracleOutcome, OracleFailure> {
    check_source(&spec.render())
}

/// Render a spec and run the differential check with an explicit fault
/// plan for the lossy rows.
pub fn check_spec_with_loss(
    spec: &ProgramSpec,
    loss: Option<LossSpec>,
) -> Result<OracleOutcome, OracleFailure> {
    check_source_with_loss(&spec.render(), loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_spec, iter_rng};
    use crate::spec::{CallSpec, ShapeSpec, Variant};

    #[test]
    fn generated_programs_compile_under_every_config() {
        for i in 0..8 {
            let spec = gen_spec(&mut iter_rng(11, i));
            let src = spec.render();
            for (label, cfg) in OptConfig::TABLE_ROWS {
                compile(&src, cfg).unwrap_or_else(|e| {
                    panic!("iter {i} failed to compile under {label}: {e}\n{src}")
                });
            }
        }
    }

    #[test]
    fn oracle_passes_on_a_cyclic_echo_program() {
        let spec = ProgramSpec {
            shapes: vec![ShapeSpec::List { len: 5, cyclic: true, seed: 3 }],
            calls: vec![CallSpec {
                shape: 0,
                target: 1,
                reps: 2,
                mutate: true,
                variant: Variant::Echo,
            }],
        };
        let report = check_spec(&spec).unwrap_or_else(|f| panic!("oracle failed: {f}"));
        assert_eq!(report.runs, 15, "5 configs x 3 transports");
    }

    #[test]
    fn provenance_digests_cover_every_call_site() {
        let spec = ProgramSpec {
            shapes: vec![ShapeSpec::List { len: 4, cyclic: true, seed: 3 }],
            calls: vec![CallSpec {
                shape: 0,
                target: 1,
                reps: 1,
                mutate: false,
                variant: Variant::Echo,
            }],
        };
        let lines = site_provenance_digests(&spec.render());
        assert!(!lines.is_empty());
        for l in &lines {
            assert!(l.starts_with("site "), "digest line must name the site: {l}");
            assert!(l.contains("args.cycle="), "digest must carry the cycle verdict: {l}");
            assert!(!l.contains('\n'), "one line per site");
        }
        // Compile errors degrade gracefully instead of panicking.
        let broken = site_provenance_digests("class {");
        assert_eq!(broken.len(), 1);
        assert!(broken[0].contains("provenance unavailable"));
    }

    #[test]
    fn oracle_passes_on_a_reuse_heavy_program() {
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
        let report = check_spec(&spec).unwrap_or_else(|f| panic!("oracle failed: {f}"));
        // The reuse rows must actually have exercised the poisoner.
        assert!(report.poisoned_values > 0, "expected reuse caches to be poisoned: {report:?}");
    }
}
