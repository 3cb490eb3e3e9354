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
//! The analysis stores fact-level decisions (`may_cycle`, `reusable`)
//! in [`crate::RemoteSiteInfo::provenance`]; corm-codegen rewrites them
//! into the *applied* verdicts (`cycle_table_elided`, `reuse_enabled`,
//! …) for the configuration it generates plans for.

use std::fmt;

/// One recorded analysis (or codegen) decision for one aspect of a
/// remote call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Which aspect of the site this decides: `args.cycle`, `ret.cycle`,
    /// `arg1.reuse` … `argN.reuse` (1-based, matching the analysis
    /// report), or `ret.reuse`.
    pub aspect: String,
    /// The claim. Fact level: `may_cycle` / `acyclic` / `reusable` /
    /// `not_reusable`. Applied level (in a corm-codegen `MarshalPlan`):
    /// `cycle_table_kept` / `cycle_table_elided` / `reuse_enabled` /
    /// `reuse_disabled`.
    pub verdict: &'static str,
    /// The rule that fired (e.g. `revisit`, `nonfresh-element-store`,
    /// `escapes-static-store`, `no-escape`, `config-conservative`).
    pub rule: &'static str,
    /// Concrete evidence: a heap path for cycle claims, an escape chain
    /// for reuse claims, a traversal summary for negative results.
    pub witness: String,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [rule: {}] — {}", self.aspect, self.verdict, self.rule, self.witness)
    }
}

/// Every decision recorded for one remote call site.
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
                    verdict: "may_cycle",
                    rule: "revisit",
                    witness: "n3 reached twice".into(),
                },
                Decision {
                    aspect: "arg1.reuse".into(),
                    verdict: "reusable",
                    rule: "no-escape",
                    witness: "2 nodes, disjoint from escaping set".into(),
                },
            ],
        }
    }

    #[test]
    fn digest_is_one_line() {
        let p = sample();
        assert_eq!(p.digest(), "args.cycle=may_cycle(revisit); arg1.reuse=reusable(no-escape)");
        assert!(!p.digest().contains('\n'));
    }

    #[test]
    fn find_and_render() {
        let p = sample();
        assert_eq!(p.find("args.cycle").unwrap().rule, "revisit");
        assert!(p.find("ret.cycle").is_none());
        let r = p.render("  ");
        assert!(r.contains("  args.cycle: may_cycle [rule: revisit] — n3 reached twice"));
        assert_eq!(r.lines().count(), 2);
    }
}
