//! `corm fuzz` — the CLI entry point (invoked from the `corm` binary).
//!
//! ```text
//! corm fuzz [--seed 0xC0DE] [--iters 200] [--shrink] [--out DIR] [--loss-rate 0.25]
//! ```
//!
//! Exit code 0 when every iteration passes the differential oracle;
//! 1 on the first failure (the failing program — shrunk when `--shrink`
//! is given — is written to `--out`, default `fuzz-artifacts/`). A
//! failing program copied into `tests/corpus/` joins the regression corpus.

use std::path::PathBuf;

use crate::gen::{gen_spec, iter_rng};
use crate::oracle::{check_spec_with_loss, OracleOutcome};
use crate::shrink::shrink;
use crate::spec::ProgramSpec;

struct Cli {
    seed: u64,
    iters: u64,
    do_shrink: bool,
    out: PathBuf,
    /// Drop/duplicate rate for the oracle's lossy-transport rows; the
    /// fault plan is seeded from `--seed` so a failing iteration is
    /// replayable. `None` keeps the backend's default plan.
    loss_rate: Option<f64>,
}

/// A number in hex (`0xC0DE`) or decimal — how seeds read naturally; the
/// `corm` driver's `--loss-seed` parses with it too.
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("invalid number: {s}"))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        iters: 100,
        do_shrink: false,
        out: PathBuf::from("fuzz-artifacts"),
        loss_rate: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => cli.seed = parse_u64(val()?)?,
            "--iters" => cli.iters = parse_u64(val()?)?,
            "--shrink" => cli.do_shrink = true,
            "--out" => cli.out = PathBuf::from(val()?),
            "--loss-rate" => {
                let v = val()?;
                let rate: f64 = v.parse().map_err(|_| format!("invalid rate: {v}"))?;
                if !(0.0..=0.9).contains(&rate) {
                    return Err(format!("--loss-rate must be in [0, 0.9], got {rate}"));
                }
                cli.loss_rate = Some(rate);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

const USAGE: &str =
    "usage: corm fuzz [--seed N|0xHEX] [--iters N] [--shrink] [--out DIR] [--loss-rate F]";

fn write_artifact(dir: &PathBuf, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Comment block with the per-site provenance digests of `src` — makes
/// failure artifacts (and so corpus entries) self-explaining: the
/// analysis decisions the program exercises ride along with it.
fn provenance_comment(src: &str) -> String {
    crate::oracle::site_provenance_digests(src)
        .iter()
        .map(|l| format!("// provenance: {l}\n"))
        .collect()
}

/// Run the fuzz loop. Returns the process exit code.
pub fn fuzz_main(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let loss = cli.loss_rate.map(|rate| corm_net::LossSpec::seeded(cli.seed, rate));
    if let Some(spec) = &loss {
        println!(
            "[corm fuzz] lossy rows use seeded fault plan: rate {}, seed {:#x}",
            spec.rate, spec.seed
        );
    }
    let mut totals = OracleOutcome::default();
    for i in 0..cli.iters {
        let spec = gen_spec(&mut iter_rng(cli.seed, i));
        match check_spec_with_loss(&spec, loss) {
            Ok(report) => {
                totals.runs += report.runs;
                totals.shadow_tables += report.shadow_tables;
                totals.shadow_checks += report.shadow_checks;
                totals.poisoned_values += report.poisoned_values;
                if (i + 1) % 50 == 0 {
                    println!("[corm fuzz] {}/{} iterations ok", i + 1, cli.iters);
                }
            }
            Err(failure) => {
                eprintln!("[corm fuzz] FAILURE at seed {:#x} iteration {i}: {failure}", cli.seed);
                let final_spec: ProgramSpec = if cli.do_shrink {
                    eprintln!("[corm fuzz] shrinking...");
                    let min = shrink(&spec, &mut |candidate| {
                        check_spec_with_loss(candidate, loss).is_err()
                    });
                    eprintln!(
                        "[corm fuzz] shrunk {} -> {} shapes, {} -> {} calls",
                        spec.shapes.len(),
                        min.shapes.len(),
                        spec.calls.len(),
                        min.calls.len()
                    );
                    min
                } else {
                    spec
                };
                // Re-run the final spec so the recorded failure matches
                // the recorded program (shrinking may change the detail).
                let detail = match check_spec_with_loss(&final_spec, loss) {
                    Err(f) => f.to_string(),
                    Ok(_) => failure.to_string(),
                };
                let stem = format!("fail-seed-{:#x}-iter-{i}", cli.seed);
                // The failure detail is multi-line; comment every line so
                // the artifact stays a valid, directly replayable program.
                let commented: String = detail.lines().map(|l| format!("// {l}\n")).collect();
                let src = final_spec.render();
                let body = format!(
                    "// corm-fuzz failing program\n// seed {:#x}, iteration {i}\n{commented}{}{src}",
                    cli.seed,
                    provenance_comment(&src)
                );
                match write_artifact(&cli.out, &format!("{stem}.mp"), &body) {
                    Ok(path) => eprintln!("[corm fuzz] wrote {}", path.display()),
                    Err(e) => eprintln!("[corm fuzz] could not write artifact: {e}"),
                }
                eprintln!("[corm fuzz] {detail}");
                return 1;
            }
        }
    }
    println!(
        "[corm fuzz] {} iterations passed ({} runs): {} shadow tables, {} shadow checks, {} poisoned values",
        cli.iters, totals.runs, totals.shadow_tables, totals.shadow_checks, totals.poisoned_values
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--seed", "0xC0DE", "--iters", "200", "--shrink", "--out", "art"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = parse(&args).unwrap();
        assert_eq!(cli.seed, 0xC0DE);
        assert_eq!(cli.iters, 200);
        assert!(cli.do_shrink);
        assert_eq!(cli.out, PathBuf::from("art"));
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&["--seed".to_string()]).is_err());
        let lossy = parse(&["--loss-rate".to_string(), "0.25".to_string()]).unwrap();
        assert_eq!(lossy.loss_rate, Some(0.25));
        assert!(parse(&["--loss-rate".to_string(), "1.5".to_string()]).is_err());
    }
}
