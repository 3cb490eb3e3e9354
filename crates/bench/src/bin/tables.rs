//! Regenerate every table of the paper's evaluation (§5) and print them
//! in the paper's format, with the published numbers alongside.
//!
//! Usage:
//!   cargo run --release -p corm-bench --bin tables             # default scale
//!   cargo run --release -p corm-bench --bin tables -- --quick  # CI scale
//!   cargo run --release -p corm-bench --bin tables -- --reps 5  # default 3
//!   cargo run --release -p corm-bench --bin tables -- --json BENCH_tables.json
//!   cargo run --release -p corm-bench --bin tables -- --transport tcp

use corm::TransportKind;
use corm_bench::{
    faster, format_stats_table, format_time_table, label, level, measure_tables,
    render_tables_json, shape_verdicts, time_claim, MeasuredRow, Verdict, MIN_REPS, PAPER_TABLE1,
    PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE5, PAPER_TABLE7,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { "quick" } else { "default" };
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(MIN_REPS);
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

    println!("# COR-RMI: reproduction of the paper's Tables 1-8");
    println!();
    println!(
        "Scale: {scale} | repetitions per cell: {reps} | machines: 2 (as in the paper) | transport: {transport}"
    );
    println!();
    println!(
        "Time cells are seconds (Table 7: us per page). wall min is the fastest of the reps, \
         wall spread the slowest minus the fastest; modeled wire prices the run's messages and \
         bytes on the paper's Myrinet and is not part of any verdict."
    );
    println!();

    let tables = measure_tables(quick, reps, transport);
    let [t1, t2, t3, t5, t7] = &tables;
    let mut verdicts: Vec<(String, Verdict)> = Vec::new();
    let counter = |claim: &str, holds: bool| (claim.to_string(), Some(holds));

    let title =
        format!("Table 1: LinkedList, {} elements, {} reps, 2 CPUs", t1.args[0], t1.args[1]);
    println!("{}", format_time_table(&title, &PAPER_TABLE1, &t1.rows));
    let (site, cycle, reuse) = (&t1.rows[1], &t1.rows[2], &t1.rows[3]);
    verdicts.extend(shape_verdicts("T1", &t1.rows));
    let claim = "T1: cycle elimination does not help the (conservatively cyclic) list";
    verdicts.push(time_claim(claim, cycle, site, level));
    verdicts.push(time_claim("T1: reuse adds a large gain over site", reuse, site, faster));

    let title = format!(
        "Table 2: 2D array transmission, {0}x{0}, {1} reps, 2 CPUs",
        t2.args[0], t2.args[1]
    );
    println!("{}", format_time_table(&title, &PAPER_TABLE2, &t2.rows));
    verdicts.extend(shape_verdicts("T2", &t2.rows));
    let (site, cycle) = (&t2.rows[1], &t2.rows[2]);
    verdicts.push(time_claim("T2: cycle elimination helps the array", cycle, site, faster));

    let title = format!("Table 3: LU runtime, {0}x{0} matrix, 2 CPUs", t3.args[0]);
    println!("{}", format_time_table(&title, &PAPER_TABLE3, &t3.rows));
    println!("{}", format_stats_table("Table 4: LU runtime statistics", &t3.rows));
    let stats = |i: usize| &t3.rows[i].stats;
    verdicts.extend(shape_verdicts("T3", &t3.rows));
    let holds = stats(4).cycle_lookups * 100 < stats(0).cycle_lookups.max(1);
    verdicts.push(counter("T4: cycle elimination removes (almost) all lookups", holds));
    let holds = stats(4).deser_bytes < stats(2).deser_bytes;
    verdicts.push(counter("T4: reuse cuts deserialization MBytes", holds));

    let title = format!(
        "Table 5: superoptimizer exhaustive search (len<={}, {} regs, {} ops), 2 CPUs",
        t5.args[0], t5.args[1], t5.args[2]
    );
    println!("{}", format_time_table(&title, &PAPER_TABLE5, &t5.rows));
    println!("{}", format_stats_table("Table 6: superoptimizer runtime statistics", &t5.rows));
    let stats = |i: usize| &t5.rows[i].stats;
    verdicts.extend(shape_verdicts("T5", &t5.rows));
    verdicts.push(counter("T6: queued programs are not reusable", stats(4).reused_objs <= 2));
    let holds = stats(4).cycle_lookups * 100 < stats(0).cycle_lookups.max(1);
    verdicts.push(counter("T6: cycle lookups drop to ~0", holds));

    // The paper reports Table 7 in µs per webpage retrieval.
    let us = 1e6 / t7.args[2] as f64;
    let per_page = |r: &MeasuredRow| MeasuredRow {
        wall: r.wall * us,
        spread: r.spread * us,
        wire: r.wire * us,
        ..r.clone()
    };
    let t7_per_page: Vec<MeasuredRow> = t7.rows.iter().map(per_page).collect();
    let title = format!(
        "Table 7: webserver, us per webpage retrieval ({} pages, {} requests), 2 CPUs",
        t7.args[0], t7.args[2]
    );
    println!("{}", format_time_table(&title, &PAPER_TABLE7, &t7_per_page));
    println!("{}", format_stats_table("Table 8: webserver runtime statistics", &t7.rows));
    let stats = |i: usize| &t7.rows[i].stats;
    verdicts.extend(shape_verdicts("T7", &t7_per_page));
    verdicts.push(counter("T8: returned pages are reused", stats(4).reused_objs > 0));
    let holds = stats(4).deser_bytes * 2 < stats(2).deser_bytes;
    verdicts.push(counter("T8: reuse eliminates most deserialization allocation", holds));

    println!("### Shape verdicts (measured vs paper's qualitative claims)");
    println!();
    println!(
        "A time claim that A beats B passes when B's wall min exceeds A's by more than the larger \
         spread (the bound), fails when A's exceeds B's by more, and is unresolved in between or \
         with fewer than {MIN_REPS} reps. \"Does not help\" passes within the bound."
    );
    println!();
    for (claim, verdict) in &verdicts {
        println!("- [{}] {claim}", label(*verdict));
    }
    println!();
    let count = |v: Verdict| verdicts.iter().filter(|(_, x)| *x == v).count();
    let (pass, fail, unresolved) = (count(Some(true)), count(Some(false)), count(None));
    println!("{pass}/{} shape claims hold ({fail} fail, {unresolved} unresolved)", verdicts.len());

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_tables_json(scale, &tables)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("counter baseline written to {path}");
    }
}
