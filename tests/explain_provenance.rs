//! Provenance acceptance tests: every remote call site of all five
//! evaluation apps carries a complete decision record (verdict, rule,
//! witness) under every Table 1 configuration, the applied verdicts match
//! the marshal-plan booleans, and the runtime auditor (DESIGN §10) never
//! contradicts a recorded `cycle_table_elided` or `reuse_enabled` claim.

use corm::{run, OptConfig, RunOptions, TransportKind};
use corm_apps::ALL_APPS;
use corm_fuzz::{check, Matrix};

#[test]
fn every_site_has_full_provenance_under_all_rows() {
    for app in ALL_APPS {
        for (cfg_name, cfg) in OptConfig::TABLE_ROWS {
            let c = app.compile(cfg);
            assert!(!c.plans.sites.is_empty(), "{}: no remote call sites", app.name);
            for plan in c.plans.sites.values() {
                let ctx = format!("{} under {cfg_name}, site {}", app.name, plan.site.0);
                let aspects: Vec<&str> =
                    plan.provenance.decisions.iter().map(|d| d.aspect.as_str()).collect();
                for required in ["args.cycle", "ret.cycle", "ret.reuse"] {
                    assert!(aspects.contains(&required), "{ctx}: missing {required}");
                }
                for i in 1..=plan.args.len() {
                    let aspect = format!("arg{i}.reuse");
                    assert!(aspects.contains(&aspect.as_str()), "{ctx}: missing {aspect}");
                }
                for d in &plan.provenance.decisions {
                    assert!(!d.verdict.is_empty(), "{ctx}: empty verdict for {}", d.aspect);
                    assert!(!d.rule.is_empty(), "{ctx}: empty rule for {}", d.aspect);
                    assert!(!d.witness.is_empty(), "{ctx}: empty witness for {}", d.aspect);
                }
                // The recorded verdicts are the *applied* ones: they must
                // mirror what the plan actually does.
                let args_cycle = plan.provenance.find("args.cycle").unwrap();
                assert_eq!(
                    args_cycle.verdict == "cycle_table_kept",
                    plan.args_cycle_table,
                    "{ctx}: args.cycle verdict disagrees with the plan"
                );
                let ret_cycle = plan.provenance.find("ret.cycle").unwrap();
                assert_eq!(
                    ret_cycle.verdict == "cycle_table_kept",
                    plan.ret_cycle_table,
                    "{ctx}: ret.cycle verdict disagrees with the plan"
                );
                for (i, &reuse) in plan.arg_reuse.iter().enumerate() {
                    let d = plan.provenance.find(&format!("arg{}.reuse", i + 1)).unwrap();
                    assert_eq!(
                        d.verdict == "reuse_enabled",
                        reuse,
                        "{ctx}: arg{}.reuse verdict disagrees with the plan",
                        i + 1
                    );
                }
                let ret_reuse = plan.provenance.find("ret.reuse").unwrap();
                assert_eq!(
                    ret_reuse.verdict == "reuse_enabled",
                    plan.ret_reuse,
                    "{ctx}: ret.reuse verdict disagrees with the plan"
                );
            }
            // The rendered report names every site.
            let text = corm::render_explain(&c);
            for plan in c.plans.sites.values() {
                assert!(
                    text.contains(&format!("call site {}:", plan.site.0)),
                    "{}: site {} missing from explain report under {cfg_name}",
                    app.name,
                    plan.site.0
                );
            }
        }
    }
}

/// The fuzz corpus too: every decision of every site of every committed
/// program says why, and the explain report shows it.
#[test]
fn every_corpus_site_decision_is_in_the_explain_report() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut programs = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|x| x != "mp") {
            continue;
        }
        programs += 1;
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let c = corm::compile(&src, OptConfig::ALL).expect("corpus program compiles");
        let text = corm::render_explain(&c);
        for plan in c.plans.sites.values() {
            let ctx = format!("{}, site {}", path.display(), plan.site.0);
            assert!(!plan.provenance.decisions.is_empty(), "{ctx}");
            for d in &plan.provenance.decisions {
                assert!(!d.rule.is_empty() && !d.witness.is_empty(), "{ctx}: {d}");
                assert!(text.contains(&format!("  {d}")), "{ctx}: {d} not in the explain report");
            }
        }
    }
    assert!(programs >= 10, "expected >= 10 corpus programs, found {programs}");
}

/// Run every app under every config with the auditor on. A site whose
/// provenance says `cycle_table_elided` gets a shadow cycle table at
/// runtime; any shadow-table hit (an object actually seen twice) raises
/// an `analysis-audit` error, so a clean audited run with the oracle's
/// exact output IS the cross-check between `corm explain` and reality.
#[test]
fn explain_verdicts_agree_with_runtime_auditor() {
    for app in ALL_APPS {
        for (cfg_name, cfg) in OptConfig::TABLE_ROWS {
            let c = app.compile(cfg);
            let out = run(
                &c,
                RunOptions {
                    machines: app.machines,
                    args: app.quick_args.to_vec(),
                    audit: true,
                    ..Default::default()
                },
            );
            assert!(
                out.error.is_none(),
                "{} under {cfg_name}: audited run failed: {}",
                app.name,
                out.error.unwrap()
            );
            assert_eq!(
                out.output,
                app.expected_output(app.quick_args, app.machines),
                "{} under {cfg_name}: audited output diverged",
                app.name
            );
            assert!(out.audit.enabled);
            // Sites that elided the table and moved payload are exactly
            // the ones the shadow table covered.
            let any_elided = c
                .plans
                .sites
                .values()
                .any(|p| !p.args_cycle_table || (p.ret.is_some() && !p.ret_cycle_table));
            if !any_elided {
                assert_eq!(
                    out.audit.shadow_tables, 0,
                    "{} under {cfg_name}: shadow tables without elided sites",
                    app.name
                );
            }
        }
    }
    // The apps' `revisit` sites are acyclic at run time; these two corpus
    // programs send a graph that does cycle, so a cycle verdict that wrongly
    // said "acyclic" elides a table the shadow table then catches.
    for name in ["cyclic_list_echo", "self_loop_keep"] {
        let path = format!("{}/../../tests/corpus/{name}.mp", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let channel = Matrix { transports: &[TransportKind::Channel], ..Matrix::FUZZ };
        if let Err(f) = check(&src, &channel) {
            panic!("{name}: {f}");
        }
    }
}

/// Audit failures cross-link back to the compile-time decision: break the
/// analysis on purpose (a cyclic list under the §7 `+list-ext` assumption
/// it violates) and check the error carries the recorded provenance for
/// the offending site.
#[test]
fn audit_failure_prints_the_recorded_provenance() {
    let src = r#"
        class Node { Node next; int v; Node(int v) { this.v = v; } }
        remote class R {
            int peek(Node n) { return n.v; }
        }
        class M {
            static void main() {
                Node head = null;
                Node cur = null;
                for (int i = 0; i < 4; i++) {
                    Node n = new Node(i);
                    if (head == null) { head = n; }
                    else { cur.next = n; }
                    cur = n;
                }
                cur.next = head; // close the ring: the §7 assumption is false
                R r = new R() @ 1;
                System.println(Str.fromLong(r.peek(head)));
            }
        }
    "#;
    let mut cfg = OptConfig::ALL;
    cfg.list_extension = true; // assume self-recursive lists are acyclic
    let c = corm::compile(src, cfg).expect("compiles");
    // The extension must have elided the table for this test to bite.
    let elided = c.plans.sites.values().any(|p| !p.args_cycle_table);
    assert!(elided, "list extension should elide the cycle table");
    let out = run(&c, RunOptions { audit: true, ..Default::default() });
    let err = out.error.expect("auditor must catch the violated assumption");
    assert!(
        err.message.contains(corm::AUDIT_ERROR_PREFIX),
        "expected an analysis-audit error, got: {err}"
    );
    assert!(
        err.message.contains("analysis provenance for call site"),
        "audit error must carry the provenance cross-link: {err}"
    );
    assert!(
        err.message.contains("args.cycle: cycle_table_elided"),
        "provenance must name the contradicted verdict: {err}"
    );
    assert!(err.message.contains("[rule: "), "provenance must name the rule: {err}");
}
