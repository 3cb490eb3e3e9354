//! # corm-bench — regenerating the paper's evaluation
//!
//! Helpers of the `tables` binary, which prints Tables 1–8 in the paper's
//! format with the paper's own numbers side by side, and the counter
//! baseline `BENCH_tables.json`, which `tests/baseline.rs` holds the
//! quick-scale run to with `==`. Timing claims are not made here: they
//! come from paired runs of the standalone `benchmark/` package;
//! open-loop serving is `corm serve`.
//!
//! Absolute seconds cannot match the paper — the substrate is an
//! interpreter on a simulated Myrinet, not native Manta code on Pentium
//! III hardware — so the claim under test is the *shape*: the ordering of
//! the five configurations and the approximate relative gains.

use corm::{esc, OptConfig, RunOptions, RunOutcome, StatsSnapshot, TransportKind, COUNTERS};
use corm_apps::{AppSpec, ALL_APPS};

pub mod json;

/// Cluster size of every table, as in the paper.
const MACHINES: usize = 2;

/// One measured row of a timing table.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub config: &'static str,
    /// Modeled seconds (real work + modeled wire/alloc time) — the
    /// quantity comparable to the paper's "seconds" columns.
    pub seconds: f64,
    /// Real wall seconds of the simulated run.
    pub wall: f64,
    /// Gain over the `class` baseline, percent.
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
/// given transport backend.
///
/// Reported seconds = (minimum wall across reps) + modeled time. The
/// modeled component (wire transit + managed-runtime cost model) is
/// deterministic per configuration; taking the minimum wall strips
/// host-scheduler noise, which otherwise swamps the optimization deltas
/// when the simulated machines timeshare few host cores.
pub fn measure_table(
    spec: &AppSpec,
    args: &[i64],
    reps: usize,
    transport: TransportKind,
) -> Vec<MeasuredRow> {
    let mut rows = Vec::new();
    let mut class_seconds = None;
    for (name, cfg) in OptConfig::TABLE_ROWS {
        let mut min_wall = f64::INFINITY;
        let mut last: Option<RunOutcome> = None;
        for _ in 0..reps.max(1) {
            let compiled = spec.compile(cfg);
            let options = RunOptions {
                machines: MACHINES,
                args: args.to_vec(),
                transport,
                ..Default::default()
            };
            let out = corm::run(&compiled, options);
            assert!(out.error.is_none(), "{} failed under {name}: {:?}", spec.name, out.error);
            min_wall = min_wall.min(out.wall.as_secs_f64());
            last = Some(out);
        }
        let out = last.unwrap();
        let seconds = min_wall + out.modeled.as_secs_f64();
        let base = *class_seconds.get_or_insert(seconds);
        let gain = (base - seconds) / base * 100.0;
        rows.push(MeasuredRow { config: name, seconds, wall: min_wall, gain, stats: out.stats });
    }
    rows
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
        "| Compiler Optimization | paper s | paper gain | measured s | measured gain | wall s |"
    );
    let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|");
    for (p, m) in paper.iter().zip(measured) {
        debug_assert_eq!(p.config, m.config);
        let _ = writeln!(
            s,
            "| {} | {:.1} | {:.1}% | {:.4} | {:.1}% | {:.4} |",
            p.config, p.seconds, p.gain, m.seconds, m.gain, m.wall
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

/// Shape check: does the measured ordering match the paper's headline
/// claims? Returns human-readable verdicts.
pub fn shape_verdicts(table: &str, measured: &[MeasuredRow]) -> Vec<(String, bool)> {
    let sec = |i: usize| measured[i].seconds;
    let mut v = Vec::new();
    // universal: the full optimization stack beats the class baseline
    v.push((format!("{table}: site+reuse+cycle beats class"), sec(4) < sec(0)));
    v.push((format!("{table}: site beats class"), sec(1) < sec(0)));
    v
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
        let text = format_time_table("Table 2", &PAPER_TABLE2, &rows);
        assert!(text.contains("site + reuse + cycle"));
        let stats = format_stats_table("stats", &rows);
        assert!(stats.contains("cycle lookups"));
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
