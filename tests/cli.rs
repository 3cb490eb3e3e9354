//! The `corm` binary as a shell pipeline sees it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// `corm run many.mp | head -1`: the reader takes one line and closes the
/// pipe while the program still prints. The echo stops; the run does not
/// panic and exits as it would have.
#[test]
fn a_closed_stdout_pipe_stops_the_echo_without_a_panic() {
    let program = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("many_lines.mp");
    // 200 000 lines, far more than a pipe buffers: the program is still
    // printing when the reader goes.
    let src = r#"
        class Main {
            static void main() {
                for (int i = 0; i < 200000; i++) { System.println(Str.fromLong(i)); }
            }
        }
    "#;
    std::fs::write(&program, src).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_corm"))
        .arg("run")
        .arg(&program)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("corm starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert_eq!(first, "0\n");
    // The reader is dropped: the pipe is closed.
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "{status}; stderr: {stderr}");
}

/// The interpreter kernels of `examples/miniparty/kernels.mp`, each at a small
/// N, print the result they always printed: the spin loop crosses many
/// safepoint quanta, LU's elimination runs the element-typed array ops and
/// loads from a `double[][]`, and `Isa.exec` field reads, a call and a return
/// per program run. The `us:` line after it is a timing and is not compared.
#[test]
fn the_interpreter_kernels_print_their_pinned_results() {
    let kernels = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/miniparty/kernels.mp");
    let cases = [
        ("0,20000", "spin: -1384630489899236607"),
        ("1,24", "lu: 584.0177781853594"),
        ("2,1000", "exec: 999000"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_corm"))
            .args(["run", kernels, "--machines", "1", "--args", args])
            .output()
            .expect("corm starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {}; stderr: {stderr}", out.status);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{args}: {stdout}");
        assert_eq!(lines[0], want, "{args}");
        assert!(lines[1].starts_with("us: "), "{args}: {stdout}");
    }
}

/// A value of a flag that does not parse is the usage exit, and the error
/// names the flag: a list-valued one (`--args`, `--rate`) too, and `fuzz`'s,
/// which the same parser reads. `--loss-rate` is a probability in [0, 0.9]
/// on every subcommand: above it nearly every copy is dropped, and a negative
/// rate or NaN would mean no faults at all.
#[test]
fn a_bad_flag_value_names_the_flag() {
    let kernels = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/miniparty/kernels.mp");
    let lossy = ["run", kernels, "--transport", "lossy"];
    let cases: [(&[&str], &str); 11] = [
        (&["run", kernels, "--args", "1,x"], "bad --args value"),
        (&[&lossy[..], &["--loss-seed", "zz"]].concat(), "bad --loss-seed value"),
        (&[&lossy[..], &["--loss-rate", "7"]].concat(), "bad --loss-rate value"),
        (&[&lossy[..], &["--loss-rate", "-1"]].concat(), "bad --loss-rate value"),
        (&[&lossy[..], &["--loss-rate", "nan"]].concat(), "bad --loss-rate value"),
        (&["serve", "--rate", "1,x"], "bad --rate value"),
        (&["fuzz", "--seed", "zz"], "bad --seed value"),
        (&["fuzz", "--iters", "-3"], "bad --iters value"),
        (&["fuzz", "--loss-rate", "1.5"], "bad --loss-rate value"),
        (&["fuzz", "--seed"], "usage:"),
        (&["fuzz", "--bogus"], "unknown fuzz flag --bogus"),
    ];
    for (args, want) in cases {
        let out =
            Command::new(env!("CARGO_BIN_EXE_corm")).args(args).output().expect("corm starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert_eq!(stderr.lines().next(), Some(want), "{args:?}: stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// `corm fuzz` with a hex seed runs its iterations through the oracle and
/// ends with the summary line: 15 audited runs an iteration.
#[test]
fn a_short_fuzz_run_passes_and_prints_its_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_corm"))
        .args(["fuzz", "--seed", "0xC0DE", "--iters", "2"])
        .output()
        .expect("corm starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("[corm fuzz] 2 iterations passed (30 runs): "), "{stdout}");
}
