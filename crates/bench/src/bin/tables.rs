//! Regenerate every table of the paper's evaluation (§5) and print them
//! in the paper's format, with the published numbers alongside.
//!
//! Usage:
//!   cargo run --release -p corm-bench --bin tables             # default scale
//!   cargo run --release -p corm-bench --bin tables -- --quick  # CI scale
//!   cargo run --release -p corm-bench --bin tables -- --reps 3
//!   cargo run --release -p corm-bench --bin tables -- --json BENCH_tables.json
//!   cargo run --release -p corm-bench --bin tables -- --transport tcp

use corm::TransportKind;
use corm_apps::{ARRAY2D, LINKED_LIST, LU, SUPEROPT, WEBSERVER};
use corm_bench::{
    format_stats_table, format_time_table, measure_table, render_tables_json, shape_verdicts,
    JsonTable, MeasuredRow, PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE5, PAPER_TABLE7,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    // A missing value parses as "" so the error names every backend.
    let transport = match args.iter().position(|a| a == "--transport") {
        None => TransportKind::Channel,
        Some(i) => {
            let v = args.get(i + 1).map_or("", String::as_str);
            v.parse().unwrap_or_else(|e| {
                eprintln!("--transport {v}: {e}");
                std::process::exit(2);
            })
        }
    };
    let measure =
        |spec: &corm_apps::AppSpec, args: &[i64]| measure_table(spec, args, 2, reps, transport);

    println!("# COR-RMI: reproduction of the paper's Tables 1-8");
    println!();
    println!(
        "Scale: {} | repetitions per cell: {reps} | machines: 2 (as in the paper) | transport: {transport}",
        if quick { "quick" } else { "default" }
    );
    println!();

    let mut verdicts: Vec<(String, bool)> = Vec::new();

    // Table 1 + the linked-list workload.
    let t1_args = if quick { LINKED_LIST.quick_args } else { LINKED_LIST.default_args };
    let t1 = measure(&LINKED_LIST, t1_args);
    let t1_title =
        format!("Table 1: LinkedList, {} elements, {} reps, 2 CPUs", t1_args[0], t1_args[1]);
    println!("{}", format_time_table(&t1_title, &PAPER_TABLE1, &t1));
    verdicts.extend(shape_verdicts("T1", &t1));
    verdicts.push((
        "T1: cycle elimination does not help the (conservatively cyclic) list".into(),
        (t1[2].seconds - t1[1].seconds).abs() / t1[1].seconds < 0.10,
    ));
    verdicts.push(("T1: reuse adds a large gain over site".into(), t1[3].seconds < t1[1].seconds));

    // Table 2.
    let t2_args = if quick { ARRAY2D.quick_args } else { ARRAY2D.default_args };
    let t2 = measure(&ARRAY2D, t2_args);
    let t2_title = format!(
        "Table 2: 2D array transmission, {0}x{0}, {1} reps, 2 CPUs",
        t2_args[0], t2_args[1]
    );
    println!("{}", format_time_table(&t2_title, &PAPER_TABLE2, &t2));
    verdicts.extend(shape_verdicts("T2", &t2));
    verdicts.push(("T2: cycle elimination helps the array".into(), t2[2].seconds < t2[1].seconds));

    // Tables 3 and 4.
    let t3_args = if quick { LU.quick_args } else { LU.default_args };
    let t3 = measure(&LU, t3_args);
    let t3_title = format!("Table 3: LU runtime, {0}x{0} matrix, 2 CPUs", t3_args[0]);
    println!("{}", format_time_table(&t3_title, &PAPER_TABLE3, &t3));
    println!("{}", format_stats_table("Table 4: LU runtime statistics", &t3));
    verdicts.extend(shape_verdicts("T3", &t3));
    verdicts.push((
        "T4: cycle elimination removes (almost) all lookups".into(),
        t3[4].stats.cycle_lookups * 100 < t3[0].stats.cycle_lookups.max(1),
    ));
    verdicts.push((
        "T4: reuse cuts deserialization MBytes".into(),
        t3[4].stats.deser_bytes < t3[2].stats.deser_bytes,
    ));

    // Tables 5 and 6.
    let t5_args = if quick { SUPEROPT.quick_args } else { SUPEROPT.default_args };
    let t5 = measure(&SUPEROPT, t5_args);
    let t5_title = format!(
        "Table 5: superoptimizer exhaustive search (len<={}, {} regs, {} ops), 2 CPUs",
        t5_args[0], t5_args[1], t5_args[2]
    );
    println!("{}", format_time_table(&t5_title, &PAPER_TABLE5, &t5));
    println!("{}", format_stats_table("Table 6: superoptimizer runtime statistics", &t5));
    verdicts.extend(shape_verdicts("T5", &t5));
    verdicts.push(("T6: queued programs are not reusable".into(), t5[4].stats.reused_objs <= 2));
    verdicts.push((
        "T6: cycle lookups drop to ~0".into(),
        t5[4].stats.cycle_lookups * 100 < t5[0].stats.cycle_lookups.max(1),
    ));

    // Tables 7 and 8. The paper reports µs per webpage retrieval.
    let t7_args = if quick { WEBSERVER.quick_args } else { WEBSERVER.default_args };
    let t7_raw = measure(&WEBSERVER, t7_args);
    let requests = t7_args[2] as f64;
    let t7: Vec<MeasuredRow> = t7_raw
        .iter()
        .map(|r| MeasuredRow {
            seconds: r.seconds * 1e6 / requests, // µs / page
            wall: r.wall * 1e6 / requests,
            ..r.clone()
        })
        .collect();
    let t7_title = format!(
        "Table 7: webserver, us per webpage retrieval ({} pages, {} requests), 2 CPUs",
        t7_args[0], t7_args[2]
    );
    println!("{}", format_time_table(&t7_title, &PAPER_TABLE7, &t7));
    println!("{}", format_stats_table("Table 8: webserver runtime statistics", &t7_raw));
    verdicts.extend(shape_verdicts("T7", &t7));
    verdicts.push(("T8: returned pages are reused".into(), t7_raw[4].stats.reused_objs > 0));
    verdicts.push((
        "T8: reuse eliminates most deserialization allocation".into(),
        t7_raw[4].stats.deser_bytes * 2 < t7_raw[2].stats.deser_bytes,
    ));

    // Shape summary.
    println!("### Shape verdicts (measured vs paper's qualitative claims)");
    println!();
    let mut ok = 0;
    for (claim, pass) in &verdicts {
        println!("- [{}] {}", if *pass { "PASS" } else { "FAIL" }, claim);
        if *pass {
            ok += 1;
        }
    }
    println!();
    println!("{ok}/{} shape claims hold", verdicts.len());

    if let Some(path) = json_path {
        let tables = [
            JsonTable { id: "table1_linkedlist", title: t1_title, unit: "seconds", rows: &t1 },
            JsonTable { id: "table2_array", title: t2_title, unit: "seconds", rows: &t2 },
            JsonTable { id: "table3_lu", title: t3_title, unit: "seconds", rows: &t3 },
            JsonTable { id: "table5_superopt", title: t5_title, unit: "seconds", rows: &t5 },
            JsonTable { id: "table7_webserver", title: t7_title, unit: "us_per_page", rows: &t7 },
        ];
        let json = render_tables_json(
            if quick { "quick" } else { "default" },
            reps,
            2,
            transport,
            &tables,
            &verdicts,
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("machine-readable tables written to {path}");
    }
}
