//! `corm fuzz` — the CLI entry point (invoked from the `corm` binary).
//!
//! ```text
//! corm fuzz [--seed 0xC0DE] [--iters 200] [--shrink] [--out DIR] [--loss-rate 0.25]
//! ```
//!
//! The `corm` binary parses the flags, with the parser of its other
//! subcommands; this module is the loop.
//!
//! Exit code 0 when every iteration passes the differential oracle;
//! 1 on the first failure (the failing program — shrunk when `--shrink`
//! is given — is written to `--out`, default `fuzz-artifacts/`). A
//! failing program copied into `tests/corpus/` joins the regression corpus.

use std::path::{Path, PathBuf};

use crate::gen::{gen_spec, iter_rng};
use crate::oracle::{check, Matrix, OracleOutcome};
use crate::shrink::shrink;
use crate::spec::ProgramSpec;

/// A number in hex (`0xC0DE`) or decimal — how seeds read naturally; the
/// `corm` driver parses `--seed`, `--iters` and `--loss-seed` with it.
pub fn parse_u64(s: &str) -> Option<u64> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.ok()
}

fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
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

/// Run the fuzz loop over `iters` programs generated from `seed`; the first
/// failing program (shrunk when `do_shrink`) is written to `out`. A
/// `loss_rate` gives the lossy rows a fault plan seeded from `seed`, so a
/// failing iteration is replayable; `None` keeps the backend's default plan.
/// Returns the process exit code.
pub fn fuzz_main(
    seed: u64,
    iters: u64,
    do_shrink: bool,
    out: &Path,
    loss_rate: Option<f64>,
) -> i32 {
    let loss = loss_rate.map(|rate| corm_net::LossSpec::seeded(seed, rate));
    if let Some(spec) = &loss {
        println!(
            "[corm fuzz] lossy rows use seeded fault plan: rate {}, seed {:#x}",
            spec.rate, spec.seed
        );
    }
    let matrix = Matrix { loss, ..Matrix::FUZZ };
    let check_spec = |spec: &ProgramSpec| check(&spec.render(), &matrix);
    let mut totals = OracleOutcome::default();
    for i in 0..iters {
        let spec = gen_spec(&mut iter_rng(seed, i));
        match check_spec(&spec) {
            Ok(report) => {
                totals.runs += report.runs;
                totals.shadow_tables += report.shadow_tables;
                totals.shadow_checks += report.shadow_checks;
                totals.poisoned_values += report.poisoned_values;
                if (i + 1) % 50 == 0 {
                    println!("[corm fuzz] {}/{} iterations ok", i + 1, iters);
                }
            }
            Err(failure) => {
                eprintln!("[corm fuzz] FAILURE at seed {seed:#x} iteration {i}: {failure}");
                let final_spec: ProgramSpec = if do_shrink {
                    eprintln!("[corm fuzz] shrinking...");
                    let min = shrink(&spec, &mut |candidate| check_spec(candidate).is_err());
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
                let detail = match check_spec(&final_spec) {
                    Err(f) => f.to_string(),
                    Ok(_) => failure.to_string(),
                };
                let stem = format!("fail-seed-{:#x}-iter-{i}", seed);
                // The failure detail is multi-line; comment every line so
                // the artifact stays a valid, directly replayable program.
                let commented: String = detail.lines().map(|l| format!("// {l}\n")).collect();
                let src = final_spec.render();
                let body = format!(
                    "// corm-fuzz failing program\n// seed {:#x}, iteration {i}\n{commented}{}{src}",
                    seed,
                    provenance_comment(&src)
                );
                match write_artifact(out, &format!("{stem}.mp"), &body) {
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
        iters, totals.runs, totals.shadow_tables, totals.shadow_checks, totals.poisoned_values
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `corm`'s `--seed`, `--iters` and `--loss-seed` read their values with
    /// `parse_u64`: hex with either prefix or decimal, and anything else is
    /// `None`, which the binary reports as `bad <flag> value`.
    #[test]
    fn flag_parsing() {
        assert_eq!(parse_u64("0xC0DE"), Some(0xC0DE));
        assert_eq!(parse_u64("0Xc0de"), Some(0xC0DE));
        assert_eq!(parse_u64("200"), Some(200));
        assert_eq!(parse_u64("18446744073709551615"), Some(u64::MAX));
        for bad in ["", "zz", "0x", "0xZZ", "-3", "1.5", "18446744073709551616"] {
            assert_eq!(parse_u64(bad), None, "{bad:?}");
        }
    }
}
