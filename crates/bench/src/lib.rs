//! # corm-bench — regenerating the paper's evaluation
//!
//! Helpers of the `tables` binary, which prints Tables 1–8 in the paper's
//! format with the paper's own numbers side by side, and the counter
//! baseline `BENCH_tables.json`, which `tests/baseline.rs` holds the
//! quick-scale run to with `==`. The paper's time claims are judged on
//! measured wall time by one rule ([`compare`]); a claim that a change
//! made the system faster comes from paired runs of the standalone
//! `benchmark/` package; open-loop serving is `corm serve`.
//!
//! Absolute seconds cannot match the paper — the substrate is an
//! interpreter on a simulated Myrinet, not native Manta code on Pentium
//! III hardware — so the claim under test is the *shape*: the ordering of
//! the five configurations.

use std::cmp::Ordering;

use corm::{esc, OptConfig, RunOptions, RunOutcome, StatsSnapshot, TransportKind, COUNTERS};
use corm_apps::{AppSpec, ALL_APPS};

pub mod json;

/// Cluster size of every table, as in the paper.
const MACHINES: usize = 2;

/// One measured row of a timing table. Every time is in seconds.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub config: &'static str,
    /// Wall time of the fastest rep.
    pub wall: f64,
    /// Wall time of the slowest rep minus that of the fastest.
    pub spread: f64,
    /// Reps measured.
    pub reps: usize,
    /// The Myrinet stand-in's price of the run's messages and bytes
    /// ([`corm::CostModel`]): reported beside the wall time, never added to
    /// it, and judged by no verdict.
    pub wire: f64,
    /// Wall gain over the `class` row, percent.
    pub gain: f64,
    pub stats: StatsSnapshot,
}

/// A row of the paper's published numbers.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    pub config: &'static str,
    pub seconds: f64,
    pub gain: f64,
}

/// Run one app at the given scale under all five configurations of the
/// evaluation legend, repeating `reps` times per configuration, on the
/// given transport backend. Each rep runs every configuration once, so a
/// burst of host noise lands on all five rather than on whichever ran
/// during it. The minimum wall time strips that noise; the spread says how
/// much of it is left.
pub fn measure_table(
    spec: &AppSpec,
    args: &[i64],
    reps: usize,
    transport: TransportKind,
) -> Vec<MeasuredRow> {
    let reps = reps.max(1);
    let compiled = OptConfig::TABLE_ROWS.map(|(_, cfg)| spec.compile(cfg));
    let mut walls: [Vec<f64>; 5] = Default::default();
    let mut last: Vec<RunOutcome> = Vec::new();
    for _ in 0..reps {
        last.clear();
        for (i, (name, _)) in OptConfig::TABLE_ROWS.iter().enumerate() {
            let options = RunOptions {
                machines: MACHINES,
                args: args.to_vec(),
                transport,
                ..Default::default()
            };
            let out = corm::run(&compiled[i], options);
            assert!(out.error.is_none(), "{} failed under {name}: {:?}", spec.name, out.error);
            walls[i].push(out.wall.as_secs_f64());
            last.push(out);
        }
    }
    let min = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    let base = min(&walls[0]);
    let rows = OptConfig::TABLE_ROWS.iter().zip(&walls).zip(last);
    rows.map(|(((name, _), w), out)| {
        let (wall, max) = (min(w), w.iter().copied().fold(0.0, f64::max));
        MeasuredRow {
            config: name,
            wall,
            spread: max - wall,
            reps,
            wire: out.modeled.as_secs_f64(),
            gain: (base - wall) / base * 100.0,
            stats: out.stats,
        }
    })
    .collect()
}

// ----- verdicts on measured time ---------------------------------------------

/// Fewest reps per row a time verdict is judged on.
pub const MIN_REPS: usize = 3;

/// The outcome of one of the paper's claims: `Some(true)` holds,
/// `Some(false)` fails, `None` is unresolved. A counter claim is exact, so
/// it is never unresolved.
pub type Verdict = Option<bool>;

/// The claim "`a` is faster than `b`": unresolved within the bound.
pub fn faster(a: &MeasuredRow, b: &MeasuredRow) -> Verdict {
    compare(a, b).filter(|o| o.is_ne()).map(Ordering::is_lt)
}

/// The claim "`a` takes the same time as `b`": an optimization that does
/// not help.
pub fn level(a: &MeasuredRow, b: &MeasuredRow) -> Verdict {
    compare(a, b).map(Ordering::is_eq)
}

/// How a verdict prints.
pub fn label(v: Verdict) -> &'static str {
    match v {
        Some(true) => "PASS",
        Some(false) => "FAIL",
        None => "UNRESOLVED",
    }
}

/// The one rule every time verdict goes through. `a` is faster (`Less`)
/// when its minimum wall time is below `b`'s by more than the larger of
/// the two spreads, slower (`Greater`) in the reverse case, and the same
/// (`Equal`) within that bound. With fewer than [`MIN_REPS`] reps a spread
/// says nothing about the noise, so there is no ordering (`None`).
pub fn compare(a: &MeasuredRow, b: &MeasuredRow) -> Option<Ordering> {
    if a.reps.min(b.reps) < MIN_REPS {
        return None;
    }
    let (bound, d) = (a.spread.max(b.spread), b.wall - a.wall);
    // Beyond the bound, a positive `d` (a is faster) orders `Less`.
    Some(if d.abs() <= bound { Ordering::Equal } else { 0f64.total_cmp(&d) })
}

/// A time claim about rows `a` and `b`, judged by `judge`, with the
/// evidence in its text.
pub fn time_claim(
    claim: &str,
    a: &MeasuredRow,
    b: &MeasuredRow,
    judge: fn(&MeasuredRow, &MeasuredRow) -> Verdict,
) -> (String, Verdict) {
    let bound = a.spread.max(b.spread);
    let evidence =
        format!("{} {:.6} vs {} {:.6}, bound {bound:.6}", a.config, a.wall, b.config, b.wall);
    (format!("{claim} ({evidence})"), judge(a, b))
}

/// One app's measured rows, under its id in `BENCH_tables.json`.
pub struct Table {
    pub id: &'static str,
    /// The app's arguments at the measured scale.
    pub args: &'static [i64],
    pub rows: Vec<MeasuredRow>,
}

/// Measure the five apps of the evaluation, in paper order, at quick (CI)
/// or default scale: everything `tables` prints and `BENCH_tables.json`
/// records.
pub fn measure_tables(quick: bool, reps: usize, transport: TransportKind) -> [Table; 5] {
    const IDS: [&str; 5] =
        ["table1_linkedlist", "table2_array", "table3_lu", "table5_superopt", "table7_webserver"];
    std::array::from_fn(|i| {
        let spec = &ALL_APPS[i];
        let args = if quick { spec.quick_args } else { spec.default_args };
        Table { id: IDS[i], args, rows: measure_table(spec, args, reps, transport) }
    })
}

/// Render a timing table: measured rows against the paper's.
pub fn format_time_table(title: &str, paper: &[PaperRow], measured: &[MeasuredRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "### {title}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "| Compiler Optimization | paper | paper gain | wall min | wall spread | wall gain | modeled wire |"
    );
    let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|---:|");
    for (p, m) in paper.iter().zip(measured) {
        debug_assert_eq!(p.config, m.config);
        let _ = writeln!(
            s,
            "| {} | {:.1} | {:.1}% | {:.6} | {:.6} | {:.1}% | {:.6} |",
            p.config, p.seconds, p.gain, m.wall, m.spread, m.gain, m.wire
        );
    }
    s
}

/// Render a statistics table (paper Tables 4, 6, 8).
pub fn format_stats_table(title: &str, measured: &[MeasuredRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "### {title}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "| Optimization | reused objs | local rpcs | remote rpcs | new (MBytes) | cycle lookups | ser invocations | wire KB | type-info KB |"
    );
    let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for m in measured {
        let st = &m.stats;
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {:.2} | {} | {} | {:.1} | {:.1} |",
            m.config,
            st.reused_objs,
            st.local_rpcs,
            st.remote_rpcs,
            st.new_mbytes(),
            st.cycle_lookups,
            st.ser_invocations,
            st.wire_bytes as f64 / 1024.0,
            st.type_info_bytes as f64 / 1024.0,
        );
    }
    s
}

/// The two claims every timing table makes: the full stack, and `site`
/// alone, beat the `class` baseline.
pub fn shape_verdicts(table: &str, measured: &[MeasuredRow]) -> Vec<(String, Verdict)> {
    let class = &measured[0];
    vec![
        time_claim(&format!("{table}: site+reuse+cycle beats class"), &measured[4], class, faster),
        time_claim(&format!("{table}: site beats class"), &measured[1], class, faster),
    ]
}

// ----- the counter baseline (BENCH_tables.json) -----------------------------

/// Schema version of the document [`render_tables_json`] produces. Bump
/// on any breaking change to its layout.
///
/// v4: only what is a function of the program — scale, machines, and per
/// row its configuration and the ten counters; one row per line.
pub const BENCH_JSON_SCHEMA_VERSION: u32 = 4;

/// Render the counters of every measured table as the schema-versioned
/// document `BENCH_tables.json` holds (hand-rolled — the workspace has no
/// JSON dependency). Every value is exact and the same on every run, host
/// and transport, and a row is a line, so drift reads as a line diff.
pub fn render_tables_json(scale: &str, tables: &[Table]) -> String {
    use std::fmt::Write;
    let comma = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    let mut s = format!(
        "{{\"schema_version\":{BENCH_JSON_SCHEMA_VERSION},\"scale\":\"{}\",\"machines\":{MACHINES},\"tables\":[\n",
        esc(scale)
    );
    for (ti, t) in tables.iter().enumerate() {
        let _ = writeln!(s, r#"{{"id":"{}","rows":["#, esc(t.id));
        for (ri, r) in t.rows.iter().enumerate() {
            let counters: Vec<String> =
                COUNTERS.iter().map(|c| format!(r#""{}":{}"#, c.name, (c.get)(&r.stats))).collect();
            let row = format!(
                r#"{{"config":"{}","counters":{{{}}}}}"#,
                esc(r.config),
                counters.join(",")
            );
            let _ = writeln!(s, "{row}{}", comma(ri, t.rows.len()));
        }
        let _ = writeln!(s, "]}}{}", comma(ti, tables.len()));
    }
    s.push_str("]}\n");
    s
}

// ----- the paper's published numbers ---------------------------------------

/// Table 1: LinkedList, 100 elements, 2 CPUs.
pub const PAPER_TABLE1: [PaperRow; 5] = [
    PaperRow { config: "class", seconds: 161.5, gain: 0.0 },
    PaperRow { config: "site", seconds: 140.4, gain: 13.0 },
    PaperRow { config: "site + cycle", seconds: 140.5, gain: 13.0 },
    PaperRow { config: "site + reuse", seconds: 91.5, gain: 43.3 },
    PaperRow { config: "site + reuse + cycle", seconds: 91.5, gain: 43.3 },
];

/// Table 2: 2-D array transmission, 16x16, 2 CPUs.
pub const PAPER_TABLE2: [PaperRow; 5] = [
    PaperRow { config: "class", seconds: 130.5, gain: 0.0 },
    PaperRow { config: "site", seconds: 110.0, gain: 15.7 },
    PaperRow { config: "site + cycle", seconds: 97.5, gain: 25.2 },
    PaperRow { config: "site + reuse", seconds: 103.0, gain: 21.0 },
    PaperRow { config: "site + reuse + cycle", seconds: 91.5, gain: 29.8 },
];

/// Table 3: LU runtime, 1024 matrix, 2 CPUs.
pub const PAPER_TABLE3: [PaperRow; 5] = [
    PaperRow { config: "class", seconds: 79.81, gain: 0.0 },
    PaperRow { config: "site", seconds: 69.23, gain: 13.2 },
    PaperRow { config: "site + cycle", seconds: 66.88, gain: 16.2 },
    PaperRow { config: "site + reuse", seconds: 67.28, gain: 15.6 },
    PaperRow { config: "site + reuse + cycle", seconds: 64.85, gain: 18.7 },
];

/// Table 5: superoptimizer exhaustive search, 2 CPUs.
pub const PAPER_TABLE5: [PaperRow; 5] = [
    PaperRow { config: "class", seconds: 400.03, gain: 0.0 },
    PaperRow { config: "site", seconds: 373.22, gain: 6.7 },
    PaperRow { config: "site + cycle", seconds: 322.52, gain: 19.3 },
    PaperRow { config: "site + reuse", seconds: 375.47, gain: 6.1 },
    PaperRow { config: "site + reuse + cycle", seconds: 322.06, gain: 19.4 },
];

/// Table 7: webserver, µs per webpage retrieval, 2 CPUs.
pub const PAPER_TABLE7: [PaperRow; 5] = [
    PaperRow { config: "class", seconds: 47.7, gain: 0.0 },
    PaperRow { config: "site", seconds: 39.2, gain: 17.8 },
    PaperRow { config: "site + cycle", seconds: 30.9, gain: 35.2 },
    PaperRow { config: "site + reuse", seconds: 38.0, gain: 20.3 },
    PaperRow { config: "site + reuse + cycle", seconds: 29.7, gain: 37.7 },
];

#[cfg(test)]
mod tests {
    use super::*;
    use corm_apps::ARRAY2D;

    #[test]
    fn measure_produces_five_rows_with_gains() {
        let rows = measure_table(&ARRAY2D, ARRAY2D.quick_args, 1, TransportKind::Channel);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].gain, 0.0);
        assert!(rows.iter().all(|r| r.reps == 1 && r.spread == 0.0 && r.wire > 0.0));
        let text = format_time_table("Table 2", &PAPER_TABLE2, &rows);
        assert!(text.contains("site + reuse + cycle"));
        assert!(text.contains("| wall min | wall spread | wall gain | modeled wire |"));
        let stats = format_stats_table("stats", &rows);
        assert!(stats.contains("cycle lookups"));
    }

    /// A row measured `reps` times: fastest `wall`, slowest `wall + spread`.
    fn row(wall: f64, spread: f64, reps: usize) -> MeasuredRow {
        let stats = StatsSnapshot::default();
        MeasuredRow { config: "x", wall, spread, reps, wire: 0.0, gain: 0.0, stats }
    }

    #[test]
    fn a_difference_beyond_both_spreads_passes() {
        let (a, b) = (row(1.00, 0.02, 5), row(1.10, 0.05, 5));
        assert_eq!(compare(&a, &b), Some(Ordering::Less));
        assert_eq!(faster(&a, &b), Some(true));
    }

    #[test]
    fn the_reverse_difference_beyond_both_spreads_fails() {
        let (a, b) = (row(1.10, 0.05, 5), row(1.00, 0.02, 3));
        assert_eq!(faster(&a, &b), Some(false));
    }

    #[test]
    fn overlapping_spreads_are_unresolved() {
        // 0.06 apart, but the slower row's spread is 0.08: either order holds.
        let (a, b) = (row(1.00, 0.01, 5), row(1.06, 0.08, 5));
        assert_eq!(compare(&a, &b), Some(Ordering::Equal));
        assert_eq!(faster(&a, &b), None);
        assert_eq!(faster(&b, &a), None);
    }

    #[test]
    fn fewer_than_three_reps_is_unresolved_whatever_the_gap() {
        let (a, b) = (row(1.0, 0.0, 2), row(9.0, 0.0, 5));
        assert_eq!(compare(&a, &b), None);
        assert_eq!(faster(&a, &b), None);
        assert_eq!(level(&a, &b), None);
    }

    #[test]
    fn does_not_help_passes_within_the_bound_and_fails_beyond_it_either_way() {
        let site = row(1.00, 0.04, 5);
        assert_eq!(level(&row(0.98, 0.01, 5), &site), Some(true));
        assert_eq!(level(&row(0.90, 0.01, 5), &site), Some(false), "it helped");
        assert_eq!(level(&row(1.10, 0.01, 5), &site), Some(false), "it hurt");
    }

    #[test]
    fn a_time_claim_carries_its_evidence() {
        let (text, verdict) =
            time_claim("T9: a beats b", &row(1.0, 0.01, 3), &row(2.0, 0.02, 3), faster);
        assert_eq!(text, "T9: a beats b (x 1.000000 vs x 2.000000, bound 0.020000)");
        assert_eq!(verdict, Some(true));
    }

    #[test]
    fn json_export_is_schema_versioned_and_escaped() {
        let rows = measure_table(&ARRAY2D, ARRAY2D.quick_args, 1, TransportKind::Channel);
        let tables = [Table { id: "table \"2\"", args: ARRAY2D.quick_args, rows }];
        let json = render_tables_json("quick", &tables);
        let head = format!(
            "{{\"schema_version\":{BENCH_JSON_SCHEMA_VERSION},\"scale\":\"quick\",\"machines\":2,\"tables\":[\n"
        );
        assert!(json.starts_with(&head), "{json}");
        assert!(json.ends_with("}}\n]}\n]}\n"), "{json}");
        assert_eq!(
            json.lines().count(),
            1 + 1 + 5 + 1 + 1,
            "header, id, a line per row, two closers"
        );
        assert!(json.contains(r#"{"id":"table \"2\"","rows":["#), "quotes in ids must be escaped");
        assert!(json.contains(r#"{"config":"class","counters":{"local_rpcs":"#));
        assert!(json.contains(r#""cycle_lookups":"#));
        let doc = json::parse(&json).expect("parses");
        assert_eq!(doc.get("tables").as_arr().unwrap()[0].get("id").as_str(), Some("table \"2\""));
    }
}
