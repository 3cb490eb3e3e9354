//! The differential oracle: one program, run several ways, one verdict.
//!
//! [`check`] compiles the program once per paper configuration
//! (`OptConfig::TABLE_ROWS`, all five, in table order) and runs each
//! compilation under every transport of a [`Matrix`], always with the
//! analysis-verdict auditor on ([`corm_vm::RunOptions::audit`]). A
//! disagreement anywhere — output, per-machine counters, audit — is a bug in
//! exactly one of serializer codegen, the heap analyses, or the transport
//! layer, which is what makes the oracle a useful fuzz target. Lossy rows
//! double as an end-to-end proof of exactly-once delivery: all accounting
//! happens above the retransmission machinery, so even under injected
//! drop/duplicate/reorder faults the counters must be bit-identical to the
//! reliable backends.
//!
//! It is the workspace's one "run it several ways and compare" harness: the
//! fuzzer, the corpus replay and the equivalence suites under `tests/` all
//! call [`check`], each with its own [`Matrix`].

use std::fmt;
use std::sync::Arc;

use corm_codegen::{OptConfig, Plans, AUDIT_ERROR_PREFIX};
use corm_ir::Module;
use corm_net::{LossSpec, TransportKind};
use corm_vm::{run_program, RunOptions, RunOutcome};
use corm_wire::{StatsSnapshot, COUNTERS};

/// What [`check`] runs a program under, besides the five configurations.
#[derive(Debug, Clone, Copy)]
pub struct Matrix<'a> {
    /// Cluster size of every run.
    pub machines: usize,
    /// `Cluster.arg` values of every run.
    pub args: &'a [i64],
    /// The carriers each configuration runs over; the first is the one the
    /// others are compared with.
    pub transports: &'a [TransportKind],
    /// Fault plan for lossy rows; `None` is the backend's default plan, and
    /// reliable backends ignore it.
    pub loss: Option<LossSpec>,
}

impl Matrix<'static> {
    /// The fuzzer's matrix: two machines, no arguments, channel, TCP and
    /// lossy under the default fault plan.
    pub const FUZZ: Matrix<'static> = Matrix {
        machines: 2,
        args: &[],
        transports: &[TransportKind::Channel, TransportKind::Tcp, TransportKind::Lossy],
        loss: None,
    };
}

/// Aggregate evidence from a passing oracle check.
#[derive(Debug, Clone, Default)]
pub struct OracleOutcome {
    /// The output every run printed.
    pub output: String,
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
    /// The program failed to compile (for a generated one, a generator bug).
    Compile,
    /// A run ended in a VM error that is not an audit violation.
    RunError,
    /// The shadow cycle table caught an unsound cycle-freedom claim.
    AuditViolation,
    /// Outputs differ across configurations or transports.
    OutputDivergence,
    /// Per-machine counters or audit evidence differ between two transports.
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

/// The comparison rule for two runs of one compilation: the same output,
/// the same counters on every machine (a shard is what that machine sent and
/// served, so a count moved between machines is a difference too) and the
/// same audit evidence. The error is the kind and the first difference.
fn compare(a: &RunOutcome, b: &RunOutcome) -> Result<(), (FailureKind, String)> {
    if a.output != b.output {
        let detail = format!("output:\n{}\nvs\n{}", a.output, b.output);
        return Err((FailureKind::OutputDivergence, detail));
    }
    let shards = a.metrics.machines.iter().zip(&b.metrics.machines);
    for (m, (x, y)) in shards.enumerate() {
        for c in COUNTERS {
            let (x, y) = ((c.get)(&x.stats), (c.get)(&y.stats));
            if x != y {
                return Err((
                    FailureKind::CounterDivergence,
                    format!("machine {m} {}: {x} vs {y}", c.name),
                ));
            }
        }
    }
    if a.audit != b.audit {
        let detail = format!("audit counters differ: {:?} vs {:?}", a.audit, b.audit);
        return Err((FailureKind::CounterDivergence, detail));
    }
    Ok(())
}

/// Run `src` under every configuration × every transport of `matrix`,
/// audited, and check that the runs agree and that the counters obey the
/// paper's cross-config invariants.
pub fn check(src: &str, matrix: &Matrix) -> Result<OracleOutcome, OracleFailure> {
    let mut outcome = OracleOutcome::default();
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

        let mut base: Option<RunOutcome> = None;
        for &transport in matrix.transports {
            let out = run_program(
                module.clone(),
                plans.clone(),
                RunOptions {
                    machines: matrix.machines,
                    args: matrix.args.to_vec(),
                    transport,
                    audit: true,
                    loss: matrix.loss,
                    ..Default::default()
                },
            );
            if let Some(err) = &out.error {
                let kind = if err.message.contains(AUDIT_ERROR_PREFIX) {
                    FailureKind::AuditViolation
                } else {
                    FailureKind::RunError
                };
                let detail = format!("{err}\noutput so far:\n{}", out.output);
                return Err(fail(kind, format!("{label} / {transport:?}"), with_prov(detail)));
            }
            outcome.runs += 1;
            outcome.shadow_tables += out.audit.shadow_tables;
            outcome.shadow_checks += out.audit.shadow_checks;
            outcome.poisoned_values += out.audit.poisoned_values;
            // Transports must agree bit-for-bit.
            match &base {
                None => base = Some(out),
                Some(base) => compare(base, &out).map_err(|(kind, detail)| {
                    let ctx = format!("{label} / {:?} vs {transport:?}", base.transport);
                    fail(kind, ctx, with_prov(detail))
                })?,
            }
        }
        let base = base.expect("a matrix names at least one transport");

        // Outputs must also agree across configurations.
        if let Some(&(first, _)) = per_config.first() {
            if base.output != outcome.output {
                let detail = format!(
                    "{first} output:\n{}\n{label} output:\n{}",
                    outcome.output, base.output
                );
                let ctx = format!("{first} vs {label}");
                return Err(fail(FailureKind::OutputDivergence, ctx, with_prov(detail)));
            }
        } else {
            outcome.output = base.output;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_spec, iter_rng};
    use crate::spec::{CallSpec, ProgramSpec, ShapeSpec, Variant};

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
        let report =
            check(&spec.render(), &Matrix::FUZZ).unwrap_or_else(|f| panic!("oracle failed: {f}"));
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
        let report =
            check(&spec.render(), &Matrix::FUZZ).unwrap_or_else(|f| panic!("oracle failed: {f}"));
        // The reuse rows must actually have exercised the poisoner.
        assert!(report.poisoned_values > 0, "expected reuse caches to be poisoned: {report:?}");
    }

    /// The comparison rule, on two runs of one compilation: a drift of one on
    /// any counter of machine 1 is a counter divergence naming that machine
    /// and that counter, and a different output is an output divergence.
    #[test]
    fn compare_names_the_first_machine_and_counter_that_differ() {
        // No `..Default::default()`: a new StatsSnapshot field stops this
        // compiling until it is given a value COUNTERS must then find.
        let literal = StatsSnapshot {
            local_rpcs: 1,
            remote_rpcs: 2,
            reused_objs: 3,
            cycle_lookups: 4,
            ser_invocations: 5,
            wire_bytes: 6,
            type_info_bytes: 7,
            messages: 8,
            deser_bytes: 9,
            deser_allocs: 10,
        };
        let seen: Vec<u64> = COUNTERS.iter().map(|c| *(c.get)(&literal)).collect();
        assert_eq!(seen, (1..=10).collect::<Vec<u64>>(), "every counter once, in row order");

        let spec = ProgramSpec {
            shapes: vec![ShapeSpec::List { len: 4, cyclic: true, seed: 3 }],
            calls: vec![CallSpec {
                shape: 0,
                target: 1,
                reps: 2,
                mutate: true,
                variant: Variant::Echo,
            }],
        };
        let (module, plans) = compile(&spec.render(), OptConfig::ALL).unwrap();
        let opts = || RunOptions { machines: 2, ..Default::default() };
        let run = || run_program(module.clone(), plans.clone(), opts());
        let (a, mut b) = (run(), run());
        assert_eq!(compare(&a, &b), Ok(()));
        for c in COUNTERS {
            let was = *(c.get)(&b.metrics.machines[1].stats);
            *(c.get_mut)(&mut b.metrics.machines[1].stats) += 1;
            let want = format!("machine 1 {}: {was} vs {}", c.name, was + 1);
            assert_eq!(compare(&a, &b), Err((FailureKind::CounterDivergence, want)));
            *(c.get_mut)(&mut b.metrics.machines[1].stats) = was;
        }
        b.output.push_str("x\n");
        assert_eq!(compare(&a, &b).map_err(|(kind, _)| kind), Err(FailureKind::OutputDivergence));
    }
}
