//! # corm-bench — regenerating the paper's evaluation
//!
//! Helpers of the `tables` binary (which prints Tables 1–8 in the
//! paper's format, with the paper's own numbers side by side) and the
//! `bench_gate` that holds its counters to `BENCH_tables.json`. Timing
//! claims are not made here: they come from paired runs of the
//! standalone `benchmark/` package; open-loop serving is `corm serve`.
//!
//! Absolute seconds cannot match the paper — the substrate is an
//! interpreter on a simulated Myrinet, not native Manta code on Pentium
//! III hardware — so the claim under test is the *shape*: the ordering of
//! the five configurations and the approximate relative gains.

use corm::{
    HistSnapshot, MetricsSnapshot, OptConfig, RunOptions, RunOutcome, StatsSnapshot, TransportKind,
};
use corm_apps::equivalence::COUNTERS;
use corm_apps::AppSpec;

pub mod gate;
pub mod json;

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
    /// Full per-machine / per-site metrics of the measured run (the last
    /// repetition).
    pub metrics: MetricsSnapshot,
    /// Transport-measured wire nanoseconds of the measured run (zero on
    /// the channel backend; real socket time on TCP).
    pub measured_wire_ns: u64,
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
/// given transport backend (`tables --transport tcp` measures over real
/// loopback sockets and fills in `measured_wire_ns`).
///
/// Reported seconds = (minimum wall across reps) + modeled time. The
/// modeled component (wire transit + managed-runtime cost model) is
/// deterministic per configuration; taking the minimum wall strips
/// host-scheduler noise, which otherwise swamps the optimization deltas
/// when the simulated machines timeshare few host cores.
pub fn measure_table(
    spec: &AppSpec,
    args: &[i64],
    machines: usize,
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
            let out = corm::run(
                &compiled,
                RunOptions { machines, args: args.to_vec(), transport, ..Default::default() },
            );
            assert!(out.error.is_none(), "{} failed under {name}: {:?}", spec.name, out.error);
            min_wall = min_wall.min(out.wall.as_secs_f64());
            last = Some(out);
        }
        let out = last.unwrap();
        let seconds = min_wall + out.modeled.as_secs_f64();
        let base = *class_seconds.get_or_insert(seconds);
        rows.push(MeasuredRow {
            config: name,
            seconds,
            wall: min_wall,
            gain: (base - seconds) / base * 100.0,
            stats: out.stats,
            metrics: out.metrics,
            measured_wire_ns: out.measured_wire_ns.iter().sum(),
        });
    }
    rows
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

// ----- machine-readable output (BENCH_tables.json) -------------------------

/// Schema version of the JSON document produced by
/// [`render_tables_json`]. Bump on any breaking change to its layout.
///
/// v2: top-level `"transport"` field; per-row `"measured_wire_ns"`.
/// v3: every histogram object carries `"p999"`.
pub const BENCH_JSON_SCHEMA_VERSION: u32 = 3;

/// One table to export: stable id, human title, unit of the `seconds`
/// column, and the measured rows.
pub struct JsonTable<'a> {
    pub id: &'static str,
    pub title: String,
    pub unit: &'static str,
    pub rows: &'a [MeasuredRow],
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn hist_json(h: &HistSnapshot) -> String {
    format!(
        r#"{{"count":{},"sum":{},"mean":{:.3},"p50":{},"p99":{},"p999":{}}}"#,
        h.count,
        h.sum,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.quantile(0.999)
    )
}

fn counters_json(st: &StatsSnapshot) -> String {
    let fields: Vec<String> =
        COUNTERS.iter().map(|c| format!(r#""{}":{}"#, c.name, (c.get)(st))).collect();
    format!("{{{}}}", fields.join(","))
}

fn row_json(r: &MeasuredRow) -> String {
    let m = &r.metrics;
    let hists = format!(
        r#"{{"rtt_us":{},"marshal_us":{},"unmarshal_us":{},"invoke_us":{},"payload_bytes":{}}}"#,
        hist_json(&m.cluster_hist(|ms| &ms.rtt_us)),
        hist_json(&m.cluster_hist(|ms| &ms.marshal_us)),
        hist_json(&m.cluster_hist(|ms| &ms.unmarshal_us)),
        hist_json(&m.cluster_hist(|ms| &ms.invoke_us)),
        hist_json(&m.cluster_hist(|ms| &ms.payload_bytes)),
    );
    format!(
        concat!(
            r#"{{"config":"{}","seconds":{:.6},"wall_s":{:.6},"gain_pct":{:.2},"#,
            r#""measured_wire_ns":{},"counters":{},"histograms":{}}}"#
        ),
        esc(r.config),
        r.seconds,
        r.wall,
        r.gain,
        r.measured_wire_ns,
        counters_json(&r.stats),
        hists,
    )
}

/// Render every measured table plus the shape verdicts as a
/// schema-versioned JSON document (hand-rolled — the workspace has no
/// JSON dependency). Counters are the exact Tables 4/6/8 values;
/// histograms are cluster aggregates of the per-machine distributions.
pub fn render_tables_json(
    scale: &str,
    reps: usize,
    machines: usize,
    transport: TransportKind,
    tables: &[JsonTable<'_>],
    verdicts: &[(String, bool)],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"schema_version":{BENCH_JSON_SCHEMA_VERSION},"generator":"corm-bench tables","scale":"{}","reps":{reps},"machines":{machines},"transport":"{}","tables":["#,
        esc(scale),
        transport.label()
    );
    for (ti, t) in tables.iter().enumerate() {
        if ti > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"id":"{}","title":"{}","unit":"{}","rows":["#,
            esc(t.id),
            esc(&t.title),
            esc(t.unit)
        );
        for (ri, r) in t.rows.iter().enumerate() {
            if ri > 0 {
                s.push(',');
            }
            s.push_str(&row_json(r));
        }
        s.push_str("]}");
    }
    s.push_str(r#"],"verdicts":["#);
    for (vi, (claim, pass)) in verdicts.iter().enumerate() {
        if vi > 0 {
            s.push(',');
        }
        let _ = write!(s, r#"{{"claim":"{}","pass":{pass}}}"#, esc(claim));
    }
    s.push_str("]}");
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
        let rows = measure_table(&ARRAY2D, ARRAY2D.quick_args, 2, 1, TransportKind::Channel);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].gain, 0.0);
        let text = format_time_table("Table 2", &PAPER_TABLE2, &rows);
        assert!(text.contains("site + reuse + cycle"));
        let stats = format_stats_table("stats", &rows);
        assert!(stats.contains("cycle lookups"));
        // every row carries the full metrics snapshot of its run
        assert!(rows.iter().all(|r| r.metrics.machines.len() == 2));
        assert!(rows.iter().all(|r| r.metrics.cluster_stats() == r.stats));
    }

    #[test]
    fn json_export_is_schema_versioned_and_escaped() {
        let rows = measure_table(&ARRAY2D, ARRAY2D.quick_args, 2, 1, TransportKind::Channel);
        let tables = [JsonTable {
            id: "table2_array",
            title: "Table \"2\": 2D array".to_string(),
            unit: "seconds",
            rows: &rows,
        }];
        let verdicts = vec![("site beats class".to_string(), true)];
        let json = render_tables_json("quick", 1, 2, TransportKind::Channel, &tables, &verdicts);
        assert!(json.starts_with(&format!("{{\"schema_version\":{BENCH_JSON_SCHEMA_VERSION}")));
        assert!(json.ends_with("]}"));
        assert!(json.contains(r#""transport":"channel""#));
        assert!(json.contains(r#""measured_wire_ns":0"#));
        assert!(json.contains(r#""id":"table2_array""#));
        assert!(json.contains(r#"Table \"2\""#), "quotes in titles must be escaped");
        assert!(json.contains(r#""config":"class""#));
        assert!(json.contains(r#""cycle_lookups":"#));
        assert!(json.contains(r#""rtt_us":{"count":"#));
        assert!(json.contains(r#""verdicts":[{"claim":"site beats class","pass":true}"#));
        // structural sanity: balanced braces/brackets (no string content
        // can unbalance them thanks to esc())
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
