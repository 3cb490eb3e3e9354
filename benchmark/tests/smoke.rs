//! Runs the built harness end to end at smoke scale: every workload in its
//! own child process, untraced then traced, no bounds applied.

use std::process::Command;
use std::time::Instant;

use corm_bench::json::{self, Json};

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_corm-benchmark"))
}

#[test]
fn smoke_run_fills_every_cell() {
    let t = Instant::now();
    let out = harness().arg("--smoke").output().expect("run harness");
    let took = t.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(!stdout.contains("missing"), "a workload x metric cell is missing:\n{stdout}");
    for table in ["End-to-end metrics", "Per-layer metrics"] {
        assert!(stdout.contains(table), "no {table} table:\n{stdout}");
    }
    for metric in ["rtt_p50_us", "setup_s", "budget.residue_share", "phase.wire_rtt_us"] {
        assert!(stdout.contains(&format!("| `{metric}` |")), "no row for {metric}:\n{stdout}");
    }
    // Optimised builds only: the interpreter is several times slower without.
    if !cfg!(debug_assertions) {
        assert!(took.as_secs() < 10, "smoke run took {took:?}");
    }
}

#[test]
fn result_line_is_json_with_the_contract_keys() {
    let run = |trace: &str| {
        let out = harness()
            .args(["--workload", "ping_channel", "--seed", "3", "--seconds", "1", "--smoke"])
            .args(["--trace", trace])
            .output()
            .expect("run harness");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
    };
    for (trace, a_metric) in [("0", "rtt_p50_us"), ("1", "net.channel.hop_ns")] {
        let doc = run(trace);
        let Json::Obj(keys) = &doc else { panic!("result line is not an object") };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").as_bool(), Some(true));
        assert_eq!(doc.get("failed").as_u64(), Some(0));
        assert!(doc.get("attempted").as_u64().unwrap() >= 1);
        let cell = doc.get("metrics").get(a_metric);
        assert!(cell.get("value").as_f64().is_some_and(|v| v > 0.0), "{a_metric}: {cell:?}");
        assert!(cell.get("unit").as_str().is_some());
    }
}

#[test]
fn refuses_unknown_workloads_and_flags() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..], &["--trace", "2"][..]] {
        let out = harness().args(args).output().expect("run harness");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.iter().all(|&b| b != b'{'), "{args:?} printed a result");
    }
}
