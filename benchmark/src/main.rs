//! The repo's benchmark harness. See README.md in this directory for what is
//! measured and why, and `BENCHMARK.json` at the repo root for the contract.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints its result as the last line of standard output.
//! Without `--workload` every workload runs in a
//! child process of its own, untraced then traced, and a table is printed;
//! `--check-repeat` makes the untraced pass twice and compares the two.

mod gen;
mod layers;
mod run;
mod service;
mod spec;
mod stats;
mod traced;
mod workloads;
mod yardstick;

use std::process::{Command, ExitCode};

use corm_bench::json::{self, Json};

use run::Outcome;
use spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS};

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    trace: bool,
    /// Counts divided by 100 and one repetition: checks that every cell is
    /// produced, measures nothing.
    pub smoke: bool,
    check_repeat: bool,
    /// Write the traced pass's spans here as Chrome trace-event JSON.
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

// ----- one CPU ---------------------------------------------------------------

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Pin this process (and so every thread it later spawns, and its children)
/// to the highest-numbered CPU it is allowed on. Returns the CPUs allowed
/// before and after.
fn pin_to_one_cpu() -> Result<(Vec<usize>, Vec<usize>), String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let before = cpus_of(&set);
    let cpu = *before.last().ok_or("no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed. Called on the
    // main thread before any other thread exists, so the whole process is
    // covered.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    // SAFETY: as for the first call.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let after = cpus_of(&set);
    if after != [cpu] {
        return Err(format!("asked for CPU {cpu}, allowed on {after:?}"));
    }
    Ok((before, after))
}

/// First line a command prints, or "unknown".
fn output_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_environment(before: &[usize], after: &[usize]) {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // The benchmark reads nothing outside the directory it is run from: git
    // must not look for a repository above it.
    let here = std::env::current_dir().ok();
    let above = here.as_deref().and_then(|d| d.parent()).unwrap_or("/".as_ref());
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).env("GIT_CEILING_DIRECTORIES", above);
    println!("# nproc: {}", before.len());
    println!("# allowed cpus before pin: {before:?}, after: {after:?}");
    println!("# kernel: {}", kernel.trim());
    println!("# rustc: {}", output_of(Command::new("rustc").arg("-V")));
    println!("# git revision: {}", output_of(&mut git));
}

// ----- one workload, this process ---------------------------------------------

fn result_line(o: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let mut cells = Vec::new();
    for m in specs {
        let v = o.metrics.get(m.name).ok_or(format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", m.name));
        }
        cells.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        cells.join(", ")
    ))
}

fn single(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::workload(name).ok_or(format!("unknown workload {name}"))?;
    let (outcome, specs): (Outcome, &[MetricSpec]) = if args.trace {
        (run::per_layer(&w, args), &PER_LAYER)
    } else {
        (run::end_to_end(&w, args), &END_TO_END)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&outcome, specs)?);
    Ok(outcome.failed == 0)
}

// ----- every workload, one child process each ----------------------------------

/// `metrics` of a child's result line, or why there is none.
fn run_child(name: &str, trace: bool, args: &Args) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!("{name}: no result line ({e:?}): {}", String::from_utf8_lossy(&out.stderr))
    })?;
    let Json::Obj(metrics) = doc.get("metrics") else {
        return Err(format!("{name}: result line has no metrics"));
    };
    let cells = metrics
        .iter()
        .map(|(k, v)| {
            Ok((k.clone(), v.get("value").as_f64().ok_or(format!("{name}: {k} has no value"))?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let correct = doc.get("correct").as_bool() == Some(true) && out.status.success();
    Ok((correct, cells))
}

type Table = Vec<(&'static str, Vec<(String, f64)>)>;

fn pass(trace: bool, args: &Args, ok: &mut bool) -> Result<Table, String> {
    let mut table = Vec::new();
    for w in &spec::WORKLOADS {
        let name = w.name;
        let mode = if trace { "layer probes and traced pass" } else { "untraced" };
        eprintln!("running {name} ({mode}): {}", w.why);
        let (correct, cells) = run_child(name, trace, args)?;
        if !correct {
            eprintln!("{name}: operations failed or returned wrong results");
            *ok = false;
        }
        table.push((name, cells));
    }
    Ok(table)
}

fn print_table(title: &str, specs: &[MetricSpec], table: &Table) {
    println!("\n{title}\n");
    println!(
        "| metric | unit | better | {} |",
        table.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" | ")
    );
    println!("|---|---|---|{}", "---:|".repeat(table.len()));
    for m in specs {
        let row: Vec<String> = table
            .iter()
            .map(|(_, cells)| {
                cells
                    .iter()
                    .find(|(k, _)| k == m.name)
                    .map_or("missing".into(), |(_, v)| format!("{v:.4}"))
            })
            .collect();
        println!("| `{}` | {} | {} | {} |", m.name, m.unit, m.better, row.join(" | "));
    }
}

/// Every end-to-end cell of `b` against `a`: the share by which the two
/// medians differ, and whether that is within the metric's bound.
fn compare(a: &Table, b: &Table) -> bool {
    let mut within = true;
    println!("\n| workload | metric | first | second | differ by | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    for ((name, first), (_, second)) in a.iter().zip(b) {
        for m in &END_TO_END {
            let get =
                |cells: &[(String, f64)]| cells.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(first), get(second)) else {
                within = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let ok = diff <= bound;
            within &= ok;
            println!(
                "| {name} | `{}` | {x:.4} | {y:.4} | {:.2} % | {:.0} % | {} |",
                m.name,
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    within
}

fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let first = pass(false, args, &mut ok)?;
    print_table("End-to-end metrics (untraced pass)", &END_TO_END, &first);
    if args.check_repeat {
        let second = pass(false, args, &mut ok)?;
        print_table("End-to-end metrics (second untraced pass)", &END_TO_END, &second);
        if !compare(&first, &second) {
            eprintln!("check-repeat: two passes of the same build differ by more than a bound");
            ok = false;
        }
    } else {
        let layers = pass(true, args, &mut ok)?;
        print_table("Per-layer metrics (layer probes, traced pass, budget)", &PER_LAYER, &layers);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("corm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any set-up, so every thread the runtime spawns inherits the mask.
    let (before, after) = match pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("corm-benchmark: cannot pin to one CPU, refusing to measure: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_environment(&before, &after);
    let done = match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("corm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
