//! `corm explain` — render the analysis provenance behind every remote
//! call site's marshal plan.
//!
//! The analyses record *why* they decided what they decided (a
//! [`Finding`] per verdict: whether it holds, the rule that fired, and a
//! witness such as the heap path proving a cycle risk or the escape chain
//! blocking reuse). Codegen builds from the findings the [`Decision`]s a
//! given [`OptConfig`] actually applies. This module turns the applied
//! provenance into the human report behind `corm explain` and its `--json`
//! machine form.
//!
//! [`Finding`]: corm_analysis::Finding
//! [`Decision`]: corm_analysis::Decision

use std::fmt::Write;

use corm_codegen::MarshalPlan;

use crate::{esc, Compiled, OptConfig};

/// Plans of a compiled program in stable (call-site id) order.
fn sorted_plans(c: &Compiled) -> Vec<&MarshalPlan> {
    let mut sites: Vec<_> = c.plans.sites.values().collect();
    sites.sort_by_key(|p| p.site);
    sites
}

fn method_label(c: &Compiled, plan: &MarshalPlan) -> String {
    let meth = c.module.table.method(plan.method);
    format!("{}.{}", c.module.table.class(meth.owner).name, meth.name)
}

/// Human-readable provenance report for one compiled configuration.
pub fn render_explain(c: &Compiled) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== provenance ({}) ===", c.config.label());
    let sites = sorted_plans(c);
    if sites.is_empty() {
        let _ = writeln!(s, "no remote call sites");
        return s;
    }
    for plan in sites {
        let _ = writeln!(s, "call site {}: {}", plan.site.0, method_label(c, plan));
        s.push_str(&plan.provenance.render("  "));
    }
    s
}

/// Machine-readable provenance for one compiled configuration. The
/// schema is stable and parses with the hand-rolled `corm_bench::json`
/// parser (CI tooling reuses it for artifact checks).
pub fn render_explain_json(c: &Compiled) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"config\": \"{}\",", esc(&c.config.label()));
    let _ = writeln!(s, "  \"sites\": [");
    let sites = sorted_plans(c);
    for (si, plan) in sites.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"site\": {},", plan.site.0);
        let _ = writeln!(s, "      \"method\": \"{}\",", esc(&method_label(c, plan)));
        let _ = writeln!(s, "      \"decisions\": [");
        let ds = &plan.provenance.decisions;
        for (di, d) in ds.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"aspect\": \"{}\", \"verdict\": \"{}\", \"rule\": \"{}\", \
                 \"witness\": \"{}\"}}",
                esc(&d.aspect),
                esc(d.verdict),
                esc(d.rule),
                esc(&d.witness),
            );
            let _ = writeln!(s, "{}", if di + 1 < ds.len() { "," } else { "" });
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{}", if si + 1 < sites.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

/// `corm explain` over every Table 1 configuration row: the same program
/// compiled five ways, so the report shows which verdicts each config
/// keeps and which it overrides.
pub fn render_explain_all_rows(src: &str) -> Result<String, corm_ir::CompileError> {
    let mut s = String::new();
    for (_, cfg) in OptConfig::TABLE_ROWS {
        let c = crate::compile(src, cfg)?;
        s.push_str(&render_explain(&c));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const LIST: &str = r#"
        class Node { Node next; int v; Node(int v) { this.v = v; } }
        remote class R {
            int len(Node n) {
                int c = 0;
                Node cur = n;
                while (cur != null) { c++; cur = cur.next; }
                return c;
            }
        }
        class M {
            static void main() {
                Node head = new Node(0);
                Node cur = head;
                for (int i = 1; i < 5; i++) { cur.next = new Node(i); cur = cur.next; }
                R r = new R() @ 1;
                System.println(Str.fromLong(r.len(head)));
            }
        }
    "#;

    #[test]
    fn explain_names_every_site_and_aspect() {
        let c = compile(LIST, crate::OptConfig::ALL).unwrap();
        let text = render_explain(&c);
        assert!(text.contains("=== provenance (site + reuse + cycle) ==="));
        assert!(text.contains("R.len"));
        assert!(text.contains("args.cycle:"));
        assert!(text.contains("ret.cycle:"));
        assert!(text.contains("arg1.reuse:"));
        assert!(text.contains("[rule: "));
        // the self-recursive list is a genuine may-cycle: the cycle table
        // stays and the report says why
        assert!(text.contains("cycle_table_kept"), "{text}");
        assert!(text.contains("revisit"), "{text}");
    }

    #[test]
    fn explain_json_parses_with_bench_parser_shape() {
        let c = compile(LIST, crate::OptConfig::SITE).unwrap();
        let json = render_explain_json(&c);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"config\": \"site\""));
        assert!(json.contains("\"aspect\": \"args.cycle\""));
        // under plain site mode the config, not the analysis, decides
        assert!(json.contains("config-conservative"));
        // hand-check balance so the bench parser has a chance
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn explain_all_rows_covers_each_config() {
        let text = render_explain_all_rows(LIST).unwrap();
        for (name, _) in crate::OptConfig::TABLE_ROWS {
            assert!(text.contains(&format!("=== provenance ({name}) ===")), "{name}");
        }
    }
}
