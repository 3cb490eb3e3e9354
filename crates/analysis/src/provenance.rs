//! Analysis provenance: every optimization verdict carries the rule that
//! fired and a concrete witness.
//!
//! The paper's analyses answer two per-call-site questions — "may the
//! argument graph contain a cycle?" (§3.2) and "may the argument graph
//! escape the invocation?" (§3.3) — and the serializer specializations
//! stand or fall with those answers. PR 3's auditor showed a verdict can
//! be *wrong*; this module makes every verdict *inspectable*: a
//! [`Decision`] records the claim, the analysis rule that produced it,
//! and a witness (the heap path proving a cycle risk, or the escape
//! chain blocking reuse) that a human can check against the heap graph
//! dump.
//!
//! The analyses return one [`Finding`] per verdict, which
//! [`crate::RemoteSiteInfo`] keeps; corm-codegen builds from the findings
//! the *applied* [`Decision`]s (`cycle_table_elided`, `reuse_enabled`, …)
//! of the configuration it generates plans for.

use std::fmt;

/// One analysis verdict: whether the property holds (the graph may cycle;
/// the graph is reusable), the rule that decided it, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub holds: bool,
    /// The rule that fired (e.g. `revisit`, `nonfresh-element-store`,
    /// `escapes-static-store`, `no-escape`, `void-return`).
    pub rule: &'static str,
    /// A heap path for a cycle risk, an escape chain for a blocked reuse, a
    /// traversal summary for a negative result.
    pub witness: String,
}

impl Finding {
    pub fn new(holds: bool, rule: &'static str, witness: impl Into<String>) -> Finding {
        Finding { holds, rule, witness: witness.into() }
    }
}

/// The decision a marshal plan applies for one aspect of a remote call
/// site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Which aspect of the site this decides: `args.cycle`, `ret.cycle`,
    /// `arg1.reuse` … `argN.reuse` (1-based, matching the analysis
    /// report), or `ret.reuse`.
    pub aspect: String,
    /// `cycle_table_kept` / `cycle_table_elided` / `reuse_enabled` /
    /// `reuse_disabled`.
    pub verdict: &'static str,
    /// The [`Finding`]'s rule where the analysis decided, or the
    /// configuration's (e.g. `config-conservative`).
    pub rule: &'static str,
    /// The [`Finding`]'s witness, or why the configuration decided.
    pub witness: String,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [rule: {}] — {}", self.aspect, self.verdict, self.rule, self.witness)
    }
}

/// Every decision a marshal plan applies at one remote call site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteProvenance {
    pub decisions: Vec<Decision>,
}

impl SiteProvenance {
    /// Look a decision up by aspect.
    pub fn find(&self, aspect: &str) -> Option<&Decision> {
        self.decisions.iter().find(|d| d.aspect == aspect)
    }

    /// One-line summary (`aspect=verdict(rule)` pairs) — what fuzz
    /// artifacts and audit errors embed.
    pub fn digest(&self) -> String {
        let parts: Vec<String> = self
            .decisions
            .iter()
            .map(|d| format!("{}={}({})", d.aspect, d.verdict, d.rule))
            .collect();
        parts.join("; ")
    }

    /// Multi-line report, one decision per line, each prefixed with
    /// `indent`.
    pub fn render(&self, indent: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for d in &self.decisions {
            let _ = writeln!(s, "{indent}{d}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SiteProvenance {
        SiteProvenance {
            decisions: vec![
                Decision {
                    aspect: "args.cycle".into(),
                    verdict: "cycle_table_kept",
                    rule: "revisit",
                    witness: "n3 reached twice".into(),
                },
                Decision {
                    aspect: "arg1.reuse".into(),
                    verdict: "reuse_enabled",
                    rule: "no-escape",
                    witness: "2 nodes, disjoint from escaping set".into(),
                },
            ],
        }
    }

    #[test]
    fn digest_is_one_line() {
        let p = sample();
        assert_eq!(
            p.digest(),
            "args.cycle=cycle_table_kept(revisit); arg1.reuse=reuse_enabled(no-escape)"
        );
        assert!(!p.digest().contains('\n'));
    }

    #[test]
    fn find_and_render() {
        let p = sample();
        assert_eq!(p.find("args.cycle").unwrap().rule, "revisit");
        assert!(p.find("ret.cycle").is_none());
        let r = p.render("  ");
        assert!(r.contains("  args.cycle: cycle_table_kept [rule: revisit] — n3 reached twice"));
        assert_eq!(r.lines().count(), 2);
    }
}
