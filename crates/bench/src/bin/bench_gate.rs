//! Bench regression gate (CI).
//!
//! Compares a freshly generated `BENCH_tables.json` against the
//! committed baseline and exits nonzero on drift — a schema mismatch, or
//! any counter of any row that does not equal the baseline. Timing
//! columns are schema-checked only: a timing claim is a paired run of
//! the standalone `benchmark/` package.
//!
//! Usage:
//!   cargo run --release -p corm-bench --bin bench_gate -- BENCH_tables.json fresh.json

use corm_bench::gate::gate;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let failures = gate(&read(baseline_path), &read(fresh_path));
    if failures.is_empty() {
        println!("bench gate: OK (every counter of {fresh_path} equals {baseline_path})");
        return;
    }
    eprintln!("bench gate: {} drift(s) between {baseline_path} and {fresh_path}:", failures.len());
    for f in &failures {
        eprintln!("  - {f}");
    }
    eprintln!();
    eprintln!(
        "If the drift is intentional (workload, counter or schema change), regenerate the \
         baseline:\n  cargo run --release -p corm-bench --bin tables -- --quick --json BENCH_tables.json"
    );
    std::process::exit(1);
}
