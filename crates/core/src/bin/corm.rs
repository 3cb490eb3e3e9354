//! `corm` — command-line driver for the COR-RMI compiler and simulated
//! cluster: `run` a program, inspect what the compiler decided about it
//! (`explain`, `analyze`, `ir`, `graph`), `fuzz` the analyses, or drive the
//! embedded webserver open-loop (`serve`, and `top` with a live table).
//! Subcommands, flags and defaults are listed once, in [`usage`].

use std::process::ExitCode;

use corm::{
    compile, run, ArrivalSchedule, FlightDump, LossSpec, MetricsRegistry, OptConfig, RunOptions,
    RunOutcome, ServeOptions, ServeReport, TimelineSample, TransportKind,
};

/// The webserver program `corm serve` drives (the app crate sits above
/// this one in the dependency graph, so the source is embedded here).
const WEBSERVER_MP: &str = include_str!("../../../apps/src/programs/webserver.mp");

fn usage() -> ! {
    eprintln!(
        "usage:
  corm run <file.mp> [SHARED] [--args a,b,c] [--stats] [--trace] [--trace-json PATH] [--quiet]
  corm explain <file.mp> [--config CFG] [--json]    per-site analysis provenance
  corm analyze <file.mp> [--config CFG]             analysis report + marshalers
  corm ir <file.mp>                                 lowered IR + SSA dump
  corm graph <file.mp>                              points-to heap graph
  corm fuzz [--seed N|0xHEX] [--iters N] [--shrink] [--out DIR] [--loss-rate R] [--emit-corpus DIR]
  corm serve [SHARED] [--rate RPS[,RPS...]] [--requests N] [--seed N] [--clients N] [--slo-us N]
  corm top   [SHARED] [--rate RPS] [--seconds S] [--seed N] [--clients N] [--refresh-ms MS]

CFG: class | site | site-cycle | site-reuse | all [+list-ext]

SHARED flags (run, serve and top):
  --config CFG       optimization configuration (default all)
  --machines N       simulated machines (default 2; serve and top 3)
  --transport T      packet carrier: channel (in-process, default), tcp
                     (one socket+thread per peer pair), reactor (the same
                     sockets read by a few shared event loops), or lossy (seeded
                     drop/duplicate/reorder shim healed by retransmission,
                     dedup and holdback); all but channel measure wire time
  --loss-seed N      lossy only: seed for the deterministic fault hash
  --loss-rate R      lossy only: drop AND duplicate each datagram copy with
                     probability R (default 0.05 each, reorder 0.25)
  --metrics          print Prometheus text-format metrics to stdout
  --dump-flight PATH write the flight-recorder events as JSON after the run
  --timeline-json PATH
                     write the sampled telemetry timeline as JSON (per-machine
                     deltas at the 10ms sampler cadence)

run flags:
  --stats            print run statistics (counters, modeled wire time) to stderr
  --trace            print the RMI timeline and phase attribution to stderr
                     (suppressed by --quiet; trace is still recorded)
  --trace-json PATH  write a Chrome trace-event JSON file (open in Perfetto)
  --quiet            suppress program output echo and trace printing

serve flags (open-loop load on the embedded webserver, latency vs intended arrival):
  --rate R[,R...]    offered load (default 500); several rates run in turn, a
                     fresh cluster and --requests arrivals (default 500) each,
                     stopping at the first that leaves a request unserved
  --slo-us N         flag requests slower than N us (default 50000)
  exit 1 when the last rate run had an error, a miss or an unaccounted request;
  --metrics and the artifacts are that run's

top flags (serve, with a live per-machine table redrawn from the timeline rings):
  --seconds S        drive the webserver for ~S seconds (default 10)
  --refresh-ms MS    redraw cadence for the live table (default 250)

explain flags:
  --config CFG       explain only this configuration (default: all 5 rows)
  --json             machine-readable provenance instead of the text report"
    );
    std::process::exit(2);
}

fn parse_config(s: &str) -> Option<OptConfig> {
    let (base, ext) = match s.strip_suffix("+list-ext") {
        Some(b) => (b, true),
        None => (s, false),
    };
    let mut cfg = match base {
        "class" => OptConfig::CLASS,
        "site" => OptConfig::SITE,
        "site-cycle" => OptConfig::SITE_CYCLE,
        "site-reuse" => OptConfig::SITE_REUSE,
        "all" => OptConfig::ALL,
        _ => return None,
    };
    cfg.list_extension = ext;
    Some(cfg)
}

/// Seeds read naturally in hex (`0xFA11`) or decimal.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The value of the flag at `argv[*i]`, or the usage exit.
fn value<'a>(argv: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
}

/// [`value`], parsed; a value that does not parse is the usage exit.
fn parsed<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> T {
    let flag = &argv[*i];
    value(argv, i).parse().unwrap_or_else(|_| {
        eprintln!("bad {flag} value");
        usage()
    })
}

/// The flags `run`, `serve` and `top` share, parsed once.
struct Common {
    config: OptConfig,
    /// Whether `--config` was given explicitly (explain defaults to all
    /// five Table 1 rows when it was not).
    config_explicit: bool,
    machines: usize,
    transport: TransportKind,
    /// The `--loss-*` flags folded into one spec. `None` when no flag was
    /// given (the lossy backend then uses its seeded default model).
    loss: Option<LossSpec>,
    metrics: bool,
    dump_flight: Option<String>,
    timeline_json: Option<String>,
}

impl Common {
    /// Consume the shared flags out of `argv`; what is left, in order, is
    /// the subcommand's own. `machines` is the subcommand's default.
    fn parse(argv: &[String], machines: usize) -> (Common, Vec<String>) {
        let mut c = Common {
            config: OptConfig::ALL,
            config_explicit: false,
            machines,
            transport: TransportKind::default(),
            loss: None,
            metrics: false,
            dump_flight: None,
            timeline_json: None,
        };
        let (mut seed, mut rate) = (None::<u64>, None::<f64>);
        let mut rest = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--config" => {
                    c.config = parse_config(value(argv, &mut i)).unwrap_or_else(|| {
                        eprintln!("bad --config value");
                        usage()
                    });
                    c.config_explicit = true;
                }
                "--machines" => c.machines = parsed(argv, &mut i),
                "--transport" => c.transport = parsed(argv, &mut i),
                "--loss-seed" => {
                    seed = Some(parse_seed(value(argv, &mut i)).unwrap_or_else(|| usage()))
                }
                "--loss-rate" => rate = Some(parsed(argv, &mut i)),
                "--metrics" => c.metrics = true,
                "--dump-flight" => c.dump_flight = Some(value(argv, &mut i).to_string()),
                "--timeline-json" => c.timeline_json = Some(value(argv, &mut i).to_string()),
                _ => rest.push(argv[i].clone()),
            }
            i += 1;
        }
        if seed.is_some() || rate.is_some() {
            if c.transport != TransportKind::Lossy {
                eprintln!("--loss-seed/--loss-rate need --transport lossy");
                usage();
            }
            let seed = seed.unwrap_or(LossSpec::default().seed);
            c.loss = Some(match rate {
                Some(r) => LossSpec::seeded(seed, r),
                None => LossSpec { seed, ..LossSpec::default() },
            });
        }
        (c, rest)
    }

    /// The shared flags' share of a run's options.
    fn apply(&self, run: &mut RunOptions) {
        run.machines = self.machines;
        run.transport = self.transport;
        run.loss = self.loss;
    }

    /// Print the metrics and write the artifacts the flags asked for:
    /// `flight` as the flight dump, the outcome's timeline, and its trace
    /// to `trace_json`. A file that cannot be written is exit code 2.
    fn emit(
        &self,
        outcome: &RunOutcome,
        flight: &FlightDump,
        trace_json: Option<&str>,
        quiet: bool,
    ) -> Result<(), ExitCode> {
        let write = |path: &str, body: String, what: String| -> Result<(), ExitCode> {
            std::fs::write(path, body).map_err(|e| {
                eprintln!("cannot write {path}: {e}");
                ExitCode::from(2)
            })?;
            if !quiet {
                eprintln!("{what} written to {path}");
            }
            Ok(())
        };
        if let Some(path) = trace_json {
            let what = "trace (open in https://ui.perfetto.dev)".to_string();
            write(path, corm::to_chrome_trace(&outcome.trace), what)?;
        }
        if self.metrics {
            print!("{}", corm::render_prometheus(&outcome.metrics));
        }
        if let Some(path) = &self.dump_flight {
            let what = format!("flight recorder dump ({} events)", flight.total_events());
            write(path, corm::render_flight_json(flight), what)?;
        }
        if let Some(path) = &self.timeline_json {
            let what = format!("timeline ({} samples)", outcome.timeline.total_samples());
            write(path, corm::render_timeline_json(&outcome.timeline), what)?;
        }
        Ok(())
    }
}

/// Parse the command line of `serve` or `top` (`cmd`): the shared flags,
/// the flags the two have in common, and their `own`, which returns
/// `false` for a flag it does not know. Returns the shared flags, the
/// options, the arrival rates and the schedule seed.
fn serve_flags(
    cmd: &str,
    argv: &[String],
    mut own: impl FnMut(&[String], &mut usize, &mut ServeOptions) -> bool,
) -> (Common, ServeOptions, Vec<f64>, u64) {
    let (common, rest) = Common::parse(argv, 3);
    let mut opts = ServeOptions::default();
    common.apply(&mut opts.run);
    let (mut rates, mut seed) = (vec![500.0f64], 42u64);
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--rate" => {
                let list = value(&rest, &mut i).split(',');
                rates = list.map(|r| r.parse().unwrap_or_else(|_| usage())).collect();
            }
            "--seed" => seed = parsed(&rest, &mut i),
            "--clients" => opts.clients = parsed(&rest, &mut i),
            _ if own(&rest, &mut i, &mut opts) => {}
            other => {
                eprintln!("unknown {cmd} flag {other}");
                usage();
            }
        }
        i += 1;
    }
    (common, opts, rates, seed)
}

/// `corm serve`: run the embedded webserver open-loop, once per rate on a
/// fresh cluster, and print each run's coordinated-omission-safe latency
/// report. A rate that leaves a request unserved ends the sweep.
fn serve_main(argv: &[String]) -> ExitCode {
    let mut requests = 500usize;
    let (common, opts, rates, seed) = serve_flags("serve", argv, |rest, i, opts| {
        match rest[*i].as_str() {
            "--requests" => requests = parsed(rest, i),
            "--slo-us" => opts.slo_us = parsed(rest, i),
            _ => return false,
        }
        true
    });
    if opts.run.machines < 2 || rates.iter().any(|&r| r <= 0.0) || requests == 0 {
        eprintln!("serve needs --machines >= 2, every --rate > 0 and --requests > 0");
        return ExitCode::from(2);
    }

    let compiled = match compile(WEBSERVER_MP, common.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("webserver: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut last = None;
    for &rate in &rates {
        let schedule = ArrivalSchedule::generate(seed, rate, requests);
        let report = match corm::serve(&compiled, &schedule, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_serve_report(common.config, seed, requests, &report);
        let served = last.insert(report).served_all();
        if !served {
            break;
        }
    }
    finish_serve(&common, &last.expect("--rate names at least one rate"))
}

/// Emit a serving run's artifacts and turn it into an exit code: an
/// error, a misrouted request or one unaccounted for fails it; latency
/// never does.
fn finish_serve(common: &Common, report: &ServeReport) -> ExitCode {
    // Prefer the dump taken while the SLO violations were hot.
    let flight = report.flight_slo.as_ref().unwrap_or(&report.outcome.flight);
    if let Err(code) = common.emit(&report.outcome, flight, None, false) {
        return code;
    }
    if !report.served_all() {
        eprintln!(
            "FAILED at {:.0} rps: {} errors, {} misses, {} of {} requests completed",
            report.offered_rps, report.errors, report.misses, report.completed, report.intended
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The end-of-run serving summary shared by `corm serve` and `corm top`.
fn print_serve_report(config: OptConfig, seed: u64, requests: usize, report: &ServeReport) {
    eprintln!("--- serving report ({}, {}) ---", config.label(), report.outcome.transport);
    eprintln!("offered         : {:.1} rps (seed {seed}, {requests} requests)", report.offered_rps);
    eprintln!(
        "achieved        : {:.1} rps over {:.3} s",
        report.achieved_rps,
        report.serve_wall_us as f64 / 1e6
    );
    eprintln!(
        "requests        : {} completed, {} misses, {} errors",
        report.completed, report.misses, report.errors
    );
    eprintln!(
        "latency (CO-safe): p50 {} µs, p99 {} µs, p99.9 {} µs  (vs intended arrival)",
        report.latency.quantile(0.5),
        report.latency.quantile(0.99),
        report.latency.quantile(0.999)
    );
    eprintln!(
        "service (closed) : p50 {} µs, p99 {} µs, p99.9 {} µs  (vs actual send)",
        report.service.quantile(0.5),
        report.service.quantile(0.99),
        report.service.quantile(0.999)
    );
    // The round trip runs from `Send` to `Return`: the server's phases are
    // inside it, so it is printed apart from them.
    let m = &report.outcome.metrics;
    eprintln!(
        "phases (mean µs) : queue {:.0}, marshal {:.0}, unmarshal {:.0}, invoke {:.0}; round trip {:.0}",
        m.cluster_hist(|ms| &ms.queue_us).mean(),
        m.cluster_hist(|ms| &ms.marshal_us).mean(),
        m.cluster_hist(|ms| &ms.unmarshal_us).mean(),
        m.cluster_hist(|ms| &ms.invoke_us).mean(),
        m.cluster_hist(|ms| &ms.rtt_us).mean(),
    );
    eprintln!("slave hits      : {:?}", report.slave_hits);
    eprintln!(
        "SLO ({} µs)  : {} violation(s){}",
        report.slo_us,
        report.violations.len(),
        if report.violations.is_empty() {
            String::new()
        } else {
            let shown: Vec<String> =
                report.violations.iter().take(8).map(|r| r.to_string()).collect();
            format!(
                " — req ids {}{}",
                shown.join(", "),
                if report.violations.len() > 8 { ", ..." } else { "" }
            )
        }
    );
}

/// One redraw of the `corm top` table, rendered from the timeline rings.
/// Rates are computed over the newest few samples using their `t_us`
/// span (the final interval may be short — DESIGN §7.4 honesty notes),
/// gauges are the latest tick's values.
fn render_top_frame(
    obs: &MetricsRegistry,
    machines: usize,
    transport: TransportKind,
    elapsed: std::time::Duration,
) -> String {
    use std::fmt::Write;
    let tl = obs.timeline();
    let interval = tl.interval_us().max(1);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "corm top — {machines} machines, transport {transport}, sampler {:.0} ms, elapsed {:.1} s",
        interval as f64 / 1e3,
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "{:>3} {:>9} {:>9} {:>9} {:>6} {:>10} {:>6}",
        "m", "call/s", "srv/s", "p99(µs)", "infl", "pool(KiB)", "outst"
    );
    for m in 0..machines {
        let w = tl.recent(m as u16, 8);
        // Each sample's deltas cover the interval ending at its t_us, so
        // the window spans one extra interval before the first sample.
        let span_us =
            w.last().map_or(0, |l| l.t_us).saturating_sub(w.first().map_or(0, |f| f.t_us))
                + interval;
        let secs = span_us as f64 / 1e6;
        let calls: u64 = w.iter().map(|p| p.started).sum();
        let served: u64 = w.iter().map(|p| p.handled).sum();
        // Newest interval that actually saw round trips.
        let p99 = w.iter().rev().map(|p| p.rtt_p99_us).find(|&v| v > 0).unwrap_or(0);
        let last: TimelineSample = w.last().copied().unwrap_or_default();
        let _ = writeln!(
            s,
            "{:>3} {:>9.1} {:>9.1} {:>9} {:>6} {:>10.1} {:>6}",
            m,
            calls as f64 / secs,
            served as f64 / secs,
            p99,
            last.in_flight,
            last.pool_resident_bytes as f64 / 1024.0,
            last.pool_outstanding
        );
    }
    s
}

/// `corm top`: drive the embedded webserver open-loop (like `corm
/// serve`) while redrawing a live plain-ANSI per-machine table from the
/// timeline rings, then print the usual serving report.
fn top_main(argv: &[String]) -> ExitCode {
    let (mut seconds, mut refresh_ms) = (10.0f64, 250u64);
    let (common, opts, rates, seed) = serve_flags("top", argv, |rest, i, _| {
        match rest[*i].as_str() {
            "--seconds" => seconds = parsed(rest, i),
            "--refresh-ms" => refresh_ms = parsed(rest, i),
            _ => return false,
        }
        true
    });
    let &[rate] = rates.as_slice() else {
        eprintln!("top takes exactly one --rate");
        return ExitCode::from(2);
    };
    if opts.run.machines < 2 || rate <= 0.0 || seconds <= 0.0 || refresh_ms == 0 {
        eprintln!("top needs --machines >= 2, --rate > 0, --seconds > 0 and --refresh-ms > 0");
        return ExitCode::from(2);
    }
    let requests = (rate * seconds).ceil().max(1.0) as usize;
    let config = common.config;

    let compiled = match compile(WEBSERVER_MP, config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("webserver: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let schedule = ArrivalSchedule::generate(seed, rate, requests);
    let machines = opts.run.machines;
    let transport = opts.run.transport;

    // The benchmark drives on a background thread; the hook hands the
    // live registry back so this thread can redraw from the rings.
    let (tx, rx) = std::sync::mpsc::channel::<std::sync::Arc<MetricsRegistry>>();
    let worker = {
        let module = compiled.module.clone();
        let plans = compiled.plans.clone();
        let opts = opts.clone();
        let schedule = schedule.clone();
        std::thread::spawn(move || {
            corm::serve_with(module, plans, &schedule, &opts, |c| {
                let _ = tx.send(c.rt.obs.clone());
            })
        })
    };
    let obs = match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(o) => o,
        Err(_) => {
            // The cluster never came up; surface the serve error.
            return match worker.join() {
                Ok(Err(e)) => {
                    eprintln!("serve failed: {e}");
                    ExitCode::FAILURE
                }
                _ => {
                    eprintln!("cluster did not start");
                    ExitCode::FAILURE
                }
            };
        }
    };
    let epoch = std::time::Instant::now();
    while !worker.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
        let frame = render_top_frame(&obs, machines, transport, epoch.elapsed());
        // Plain ANSI: cursor home + clear screen, then the fresh frame.
        print!("\x1b[H\x1b[2J{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    }
    let report = match worker.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("serve thread panicked");
            return ExitCode::FAILURE;
        }
    };
    // One last frame from the finished timeline, then the summary.
    let frame = render_top_frame(&obs, machines, transport, epoch.elapsed());
    print!("\x1b[H\x1b[2J{frame}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    print_serve_report(config, seed, requests, &report);
    finish_serve(&common, &report)
}

fn main() -> ExitCode {
    // `fuzz`, `serve` and `top` take no <file.mp> operand — intercept
    // them before the positional parser.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("fuzz") => return ExitCode::from(corm_fuzz::cli::fuzz_main(&argv[1..]) as u8),
        Some("serve") => return serve_main(&argv[1..]),
        Some("top") => return top_main(&argv[1..]),
        _ if argv.len() < 2 => usage(),
        _ => {}
    }
    let (command, file) = (argv[0].as_str(), argv[1].as_str());
    let (common, rest) = Common::parse(&argv[2..], 2);
    let (mut args, mut trace_json) = (Vec::<i64>::new(), None::<String>);
    let (mut stats, mut quiet, mut trace, mut json) = (false, false, false, false);
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--args" => {
                args = value(&rest, &mut i)
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--stats" => stats = true,
            "--quiet" => quiet = true,
            "--trace" => trace = true,
            "--trace-json" => trace_json = Some(value(&rest, &mut i).to_string()),
            "--json" => json = true,
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let compiled = match compile(&src, common.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{file}: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match command {
        "run" => {
            // --trace-json needs the trace recorded even when the textual
            // timeline is off.
            let mut opts = RunOptions {
                args,
                echo: !quiet,
                trace: trace || trace_json.is_some(),
                ..Default::default()
            };
            common.apply(&mut opts);
            let outcome = run(&compiled, opts);
            if trace && !quiet {
                eprintln!("--- RMI timeline ---");
                eprint!("{}", corm::render_timeline(&outcome.trace));
                eprintln!("--- phase attribution ---");
                let cost = corm::CostModel::default();
                let mut report = corm::phase_report(&outcome.trace, |bytes| cost.message_ns(bytes));
                corm::attach_measured_wire(&mut report, &outcome.measured_wire_ns);
                eprint!("{}", corm::render_phase_report(&report));
            }
            // A requested dump of a healthy run is labeled as such;
            // failures keep their classification (peer-gone, ...).
            let mut dump = outcome.flight.clone();
            if dump.reason == "ok" {
                dump.reason = "requested".to_string();
            }
            if let Err(code) = common.emit(&outcome, &dump, trace_json.as_deref(), quiet) {
                return code;
            }
            if stats {
                let st = &outcome.stats;
                eprintln!("--- run statistics ({}) ---", common.config.label());
                eprintln!("transport       : {}", outcome.transport);
                eprintln!("wall            : {:?}", outcome.wall);
                eprintln!("modeled wire    : {:.3} ms", outcome.modeled.as_secs_f64() * 1e3);
                if outcome.transport != TransportKind::Channel {
                    eprintln!(
                        "wire (measured) : {:.3} ms",
                        outcome.measured_wire.as_secs_f64() * 1e3
                    );
                }
                for c in corm::COUNTERS {
                    eprintln!("{:<16}: {}", c.name, (c.get)(st));
                }
                eprintln!("deser MBytes    : {:.2}", st.new_mbytes());
                eprintln!("GC runs         : {}", outcome.heap.gc_runs);
                eprintln!("peak live bytes : {}", outcome.heap.peak_live_bytes);
            }
            if let Some(e) = outcome.error {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "explain" => {
            if common.config_explicit {
                if json {
                    println!("{}", corm::render_explain_json(&compiled));
                } else {
                    print!("{}", corm::render_explain(&compiled));
                }
            } else if json {
                // One JSON document per row, newline-separated (JSONL of
                // pretty documents would be ambiguous; emit an array).
                let mut docs = Vec::new();
                for (_, cfg) in OptConfig::TABLE_ROWS {
                    let c = compile(&src, cfg).expect("already compiled once");
                    docs.push(corm::render_explain_json(&c));
                }
                println!("[");
                for (i, d) in docs.iter().enumerate() {
                    print!("{d}");
                    println!("{}", if i + 1 < docs.len() { "," } else { "" });
                }
                println!("]");
            } else {
                match corm::render_explain_all_rows(&src) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("{file}: compile error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "analyze" => {
            println!("=== remote call site analysis ({}) ===", common.config.label());
            println!("{}", compiled.dump_analysis());
            println!("=== generated marshalers ===");
            println!("{}", compiled.dump_marshalers());
            ExitCode::SUCCESS
        }
        "ir" => {
            println!("{}", corm_ir_dump(&compiled));
            ExitCode::SUCCESS
        }
        "graph" => {
            println!("{}", compiled.dump_heap_graph());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn corm_ir_dump(compiled: &corm::Compiled) -> String {
    use std::fmt::Write;
    let mut s = corm_ir::pretty::print_module(&compiled.module);
    let _ = writeln!(s, "=== SSA ===");
    for f in &compiled.module.funcs {
        let ssa = corm_ir::ssa::build_ssa(f);
        s.push_str(&corm_ir::pretty::print_ssa(&compiled.module, &ssa));
    }
    s
}
