//! The counter gate. Every counter of Tables 4/6/8 is a function of the
//! program alone — the same on every run, host and transport — so the
//! quick-scale document `tables --quick --json` writes must equal the
//! committed `BENCH_tables.json` byte for byte. A change that moves a
//! counter on purpose regenerates the file in the same commit and says
//! which rows moved and why.

use std::sync::OnceLock;

use corm::{TransportKind, COUNTERS};
use corm_bench::json::{self, Json};
use corm_bench::{measure_tables, render_tables_json, BENCH_JSON_SCHEMA_VERSION};

const BASELINE: &str = include_str!("../../../BENCH_tables.json");
const REGENERATE: &str =
    "cargo run --release -p corm-bench --bin tables -- --quick --json BENCH_tables.json";

fn render() -> String {
    render_tables_json("quick", &measure_tables(true, 1, TransportKind::Channel))
}

/// One rendering shared by the tests that only read it.
fn fresh() -> &'static str {
    static FRESH: OnceLock<String> = OnceLock::new();
    FRESH.get_or_init(render)
}

/// A row line of the document as (configuration, counters); `None` for the
/// structural lines.
fn row(line: &str) -> Option<(String, Json)> {
    let row = json::parse(line.trim_end_matches(',')).ok()?;
    Some((row.get("config").as_str()?.to_string(), row.get("counters").clone()))
}

/// What differs between two documents, line by line: a drifted counter by
/// table, configuration and name, anything else as the two lines.
fn drift(committed: &str, measured: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if committed.lines().count() != measured.lines().count() {
        bad.push("the documents differ in their number of lines".to_string());
    }
    let show = |v: &Json| v.as_u64().map_or("nothing".to_string(), |v| v.to_string());
    let mut table = "";
    for (c, m) in committed.lines().zip(measured.lines()) {
        if let Some(id) = c.strip_prefix(r#"{"id":""#) {
            table = id.split('"').next().unwrap_or(id);
        }
        if c == m {
            continue;
        }
        match (row(c), row(m)) {
            (Some((config, cc)), Some((mconfig, mc))) if config == mconfig => {
                for name in COUNTERS.iter().map(|counter| counter.name) {
                    let (cv, mv) = (cc.get(name), mc.get(name));
                    if cv != mv {
                        let (cv, mv) = (show(cv), show(mv));
                        bad.push(format!("{table}/{config}: {name} committed {cv}, measured {mv}"));
                    }
                }
            }
            _ => bad.push(format!("- {c}\n+ {m}")),
        }
    }
    bad
}

#[test]
fn quick_tables_equal_the_committed_baseline() {
    let measured = fresh();
    assert!(
        measured == BASELINE,
        "BENCH_tables.json no longer matches what the program counts:\n{}\n\
         If the change is meant to move these counters, regenerate the baseline with\n  {REGENERATE}\n\
         and say in the commit which rows moved and why.",
        drift(BASELINE, measured).join("\n")
    );
}

#[test]
fn rendering_twice_gives_identical_bytes() {
    assert_eq!(render(), fresh());
}

/// The one schema check: the document parses and every row of every table
/// carries every counter.
#[test]
fn every_row_carries_every_counter() {
    let doc = json::parse(fresh()).expect("the rendered document parses");
    assert_eq!(doc.get("schema_version").as_u64(), Some(u64::from(BENCH_JSON_SCHEMA_VERSION)));
    let tables = doc.get("tables").as_arr().expect("tables[]");
    assert_eq!(tables.len(), 5);
    for t in tables {
        let rows = t.get("rows").as_arr().expect("rows[]");
        assert_eq!(rows.len(), 5, "{:?}", t.get("id"));
        for r in rows {
            for c in COUNTERS {
                let at = (t.get("id").as_str(), r.get("config").as_str(), c.name);
                assert!(r.get("counters").get(c.name).as_u64().is_some(), "{at:?}");
            }
        }
    }
}

#[test]
fn a_counter_off_by_one_is_named_with_its_table_and_configuration() {
    for c in COUNTERS {
        // Bump this counter in the last row (table7_webserver / all).
        let key = format!(r#""{}":"#, c.name);
        let at = BASELINE.rfind(&key).unwrap() + key.len();
        let end = at + BASELINE[at..].find(|ch: char| !ch.is_ascii_digit()).unwrap();
        let v: u64 = BASELINE[at..end].parse().unwrap();
        let bumped = format!("{}{}{}", &BASELINE[..at], v + 1, &BASELINE[end..]);
        let (name, w) = (c.name, v + 1);
        let want =
            format!("table7_webserver/site + reuse + cycle: {name} committed {v}, measured {w}");
        assert_eq!(drift(BASELINE, &bumped), [want]);
    }
    assert_eq!(drift(BASELINE, BASELINE), Vec::<String>::new());
}
