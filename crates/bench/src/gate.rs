//! Bench regression gate: compares a freshly generated
//! `BENCH_tables.json` against the committed baseline and reports every
//! drift. CI runs this via the `bench_gate` binary and fails the build
//! on a non-empty report.
//!
//! Timing columns (`seconds`, `wall_s`, `gain_pct`, `measured_wire_ns`)
//! are machine-dependent and only schema-checked. The counters — the ten
//! of `corm_apps::equivalence::COUNTERS`, in every row of every table —
//! are a function of the program alone and must **equal** the baseline.

use crate::json::Json;
use crate::BENCH_JSON_SCHEMA_VERSION;
use corm_apps::equivalence::{Counter, COUNTERS};

/// Structural validation of one document. `who` labels the document in
/// messages ("baseline" / "fresh").
pub fn check_schema(doc: &Json, who: &str) -> Vec<String> {
    let mut bad = Vec::new();
    match doc.get("schema_version").as_u64() {
        Some(v) if v == u64::from(BENCH_JSON_SCHEMA_VERSION) => {}
        Some(v) => bad.push(format!(
            "{who}: schema_version {v}, expected {BENCH_JSON_SCHEMA_VERSION} — regenerate with the current `tables` binary"
        )),
        None => bad.push(format!("{who}: missing schema_version")),
    }
    for (key, ok) in [
        ("generator", doc.get("generator").as_str().is_some()),
        ("scale", doc.get("scale").as_str().is_some()),
        ("reps", doc.get("reps").as_u64().is_some()),
        ("machines", doc.get("machines").as_u64().is_some()),
        ("transport", doc.get("transport").as_str().is_some()),
    ] {
        if !ok {
            bad.push(format!("{who}: missing or mistyped top-level {key:?}"));
        }
    }
    let Some(tables) = doc.get("tables").as_arr() else {
        bad.push(format!("{who}: missing tables[]"));
        return bad;
    };
    if tables.is_empty() {
        bad.push(format!("{who}: tables[] is empty"));
    }
    for t in tables {
        let id = t.get("id").as_str().unwrap_or("<missing id>").to_string();
        if t.get("title").as_str().is_none() || t.get("unit").as_str().is_none() {
            bad.push(format!("{who}/{id}: missing title or unit"));
        }
        let Some(rows) = t.get("rows").as_arr() else {
            bad.push(format!("{who}/{id}: missing rows[]"));
            continue;
        };
        for (ri, row) in rows.iter().enumerate() {
            let cfg = row.get("config").as_str().unwrap_or("<missing config>");
            let ctx = format!("{who}/{id}/row {ri} ({cfg})");
            for (key, ok) in [
                ("config", row.get("config").as_str().is_some()),
                ("seconds", row.get("seconds").as_f64().is_some()),
                ("wall_s", row.get("wall_s").as_f64().is_some()),
                ("gain_pct", row.get("gain_pct").as_f64().is_some()),
                ("measured_wire_ns", row.get("measured_wire_ns").as_u64().is_some()),
                ("histograms", matches!(row.get("histograms"), Json::Obj(_))),
            ] {
                if !ok {
                    bad.push(format!("{ctx}: missing or mistyped {key:?}"));
                }
            }
            let counters = row.get("counters");
            if !matches!(counters, Json::Obj(_)) {
                bad.push(format!("{ctx}: missing counters object"));
                continue;
            }
            for Counter { name, .. } in &COUNTERS {
                if counters.get(name).as_u64().is_none() {
                    bad.push(format!("{ctx}: counter {name:?} missing or not an integer"));
                }
            }
        }
    }
    match doc.get("verdicts").as_arr() {
        None => bad.push(format!("{who}: missing verdicts[]")),
        Some(vs) => {
            for (vi, v) in vs.iter().enumerate() {
                if v.get("claim").as_str().is_none() || v.get("pass").as_bool().is_none() {
                    bad.push(format!("{who}: verdict {vi} missing claim/pass"));
                }
            }
        }
    }
    bad
}

fn counter(row: &Json, name: &str) -> u64 {
    // Schema was validated before this is called.
    row.get("counters").get(name).as_u64().unwrap_or(0)
}

/// Diff two documents: same shape, every counter equal. Returns
/// human-readable drift descriptions; empty = gate passes.
pub fn compare(baseline: &Json, fresh: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    bad.extend(check_schema(baseline, "baseline"));
    bad.extend(check_schema(fresh, "fresh"));
    if !bad.is_empty() {
        return bad;
    }
    for key in ["scale", "transport"] {
        let (b, f) = (baseline.get(key).as_str().unwrap(), fresh.get(key).as_str().unwrap());
        if b != f {
            bad.push(format!("{key} mismatch: baseline {b:?} vs fresh {f:?} — not comparable"));
        }
    }
    let (bm, fm) = (baseline.get("machines").as_u64(), fresh.get("machines").as_u64());
    if bm != fm {
        bad.push(format!("machines mismatch: baseline {bm:?} vs fresh {fm:?} — not comparable"));
    }
    if !bad.is_empty() {
        return bad;
    }

    let btables = baseline.get("tables").as_arr().unwrap();
    let ftables = fresh.get("tables").as_arr().unwrap();
    let bids: Vec<&str> = btables.iter().map(|t| t.get("id").as_str().unwrap()).collect();
    let fids: Vec<&str> = ftables.iter().map(|t| t.get("id").as_str().unwrap()).collect();
    if bids != fids {
        bad.push(format!("table set changed: baseline {bids:?} vs fresh {fids:?}"));
        return bad;
    }

    for (bt, ft) in btables.iter().zip(ftables) {
        let id = bt.get("id").as_str().unwrap();
        if bt.get("unit").as_str() != ft.get("unit").as_str() {
            bad.push(format!("{id}: unit changed"));
        }
        let brows = bt.get("rows").as_arr().unwrap();
        let frows = ft.get("rows").as_arr().unwrap();
        let bcfgs: Vec<&str> = brows.iter().map(|r| r.get("config").as_str().unwrap()).collect();
        let fcfgs: Vec<&str> = frows.iter().map(|r| r.get("config").as_str().unwrap()).collect();
        if bcfgs != fcfgs {
            bad.push(format!("{id}: row configs changed: {bcfgs:?} vs {fcfgs:?}"));
            continue;
        }
        for (br, fr) in brows.iter().zip(frows) {
            let cfg = br.get("config").as_str().unwrap();
            for Counter { name, .. } in &COUNTERS {
                let (b, f) = (counter(br, name), counter(fr, name));
                if b != f {
                    bad.push(format!("{id}/{cfg}: {name} drifted: baseline {b} vs fresh {f}"));
                }
            }
        }
    }

    let bclaims: Vec<&str> = baseline
        .get("verdicts")
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.get("claim").as_str().unwrap())
        .collect();
    let fclaims: Vec<&str> = fresh
        .get("verdicts")
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.get("claim").as_str().unwrap())
        .collect();
    if bclaims != fclaims {
        bad.push(format!("verdict claims changed: {bclaims:?} vs {fclaims:?}"));
    }
    bad
}

/// Parse and gate two documents; the entry point used by the
/// `bench_gate` binary.
pub fn gate(baseline_text: &str, fresh_text: &str) -> Vec<String> {
    let baseline = match crate::json::parse(baseline_text) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline: {e}")],
    };
    let fresh = match crate::json::parse(fresh_text) {
        Ok(v) => v,
        Err(e) => return vec![format!("fresh: {e}")],
    };
    compare(&baseline, &fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_table, render_tables_json, JsonTable};
    use corm::TransportKind;
    use corm_apps::ARRAY2D;

    fn doc() -> String {
        // Minimal schema-valid document: two tables, two rows each.
        let row = |cfg: &str, wb: u64, msgs: u64| {
            format!(
                concat!(
                    r#"{{"config":"{}","seconds":0.5,"wall_s":0.1,"gain_pct":0.0,"#,
                    r#""measured_wire_ns":0,"counters":{{"local_rpcs":10,"remote_rpcs":20,"#,
                    r#""messages":{},"wire_bytes":{},"type_info_bytes":64,"cycle_lookups":5,"#,
                    r#""ser_invocations":40,"reused_objs":7,"deser_bytes":900,"deser_allocs":30}},"#,
                    r#""histograms":{{}}}}"#
                ),
                cfg, msgs, wb
            )
        };
        format!(
            concat!(
                r#"{{"schema_version":{},"generator":"corm-bench tables","scale":"quick","#,
                r#""reps":1,"machines":2,"transport":"channel","tables":["#,
                r#"{{"id":"table2_array","title":"t2","unit":"seconds","rows":[{},{}]}},"#,
                r#"{{"id":"table3_lu","title":"t3","unit":"seconds","rows":[{},{}]}}"#,
                r#"],"verdicts":[{{"claim":"site beats class","pass":true}}]}}"#
            ),
            BENCH_JSON_SCHEMA_VERSION,
            row("class", 5000, 100),
            row("site", 4000, 80),
            row("class", 5000, 100),
            row("site", 4000, 80),
        )
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(gate(&doc(), &doc()), Vec::<String>::new());
    }

    #[test]
    fn deterministic_tables_require_exact_counters() {
        let fresh = doc().replacen(r#""wire_bytes":4000"#, r#""wire_bytes":4001"#, 1);
        let bad = gate(&doc(), &fresh);
        assert_eq!(bad, ["table2_array/site: wire_bytes drifted: baseline 4000 vs fresh 4001"]);
    }

    #[test]
    fn schema_and_structure_drift_is_fatal() {
        let base = doc();
        let old = base.replacen(
            &format!(r#""schema_version":{BENCH_JSON_SCHEMA_VERSION}"#),
            r#""schema_version":1"#,
            1,
        );
        assert!(gate(&old, &base).iter().any(|m| m.contains("regenerate")), "schema bump");
        let other_transport = base.replacen(r#""transport":"channel""#, r#""transport":"tcp""#, 1);
        assert!(
            gate(&base, &other_transport).iter().any(|m| m.contains("transport mismatch")),
            "transport provenance"
        );
        let renamed = base.replacen(r#""id":"table3_lu""#, r#""id":"table3_renamed""#, 1);
        assert!(gate(&base, &renamed).iter().any(|m| m.contains("table set changed")));
        assert_eq!(gate("not json", &base).len(), 1);
    }

    #[test]
    fn real_tables_output_gates_against_itself() {
        // End to end: a real measured document passes both the schema
        // check and a self-comparison.
        let rows = measure_table(&ARRAY2D, ARRAY2D.quick_args, 2, 1, TransportKind::Channel);
        let tables = [JsonTable {
            id: "table2_array",
            title: "Table 2".to_string(),
            unit: "seconds",
            rows: &rows,
        }];
        let verdicts = vec![("t2: site beats class".to_string(), true)];
        let json = render_tables_json("quick", 1, 2, TransportKind::Channel, &tables, &verdicts);
        assert_eq!(gate(&json, &json), Vec::<String>::new());
    }

    #[test]
    fn a_drift_of_one_on_any_counter_of_the_lu_table_fails_the_gate() {
        let base = doc();
        for c in &COUNTERS {
            // Bump this counter in the last row (table3_lu / site).
            let key = format!(r#""{}":"#, c.name);
            let at = base.rfind(&key).unwrap() + key.len();
            let end = at + base[at..].find(|ch: char| !ch.is_ascii_digit()).unwrap();
            let v: u64 = base[at..end].parse().unwrap();
            let (name, f) = (c.name, v + 1);
            let fresh = format!("{}{f}{}", &base[..at], &base[end..]);
            let want = format!("table3_lu/site: {name} drifted: baseline {v} vs fresh {f}");
            assert_eq!(gate(&base, &fresh), [want]);
        }
    }
}
