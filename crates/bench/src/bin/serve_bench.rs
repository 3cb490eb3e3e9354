//! Open-loop serving benchmark (DESIGN §13).
//!
//! Drives the webserver app as a long-running sharded service under a
//! seeded Poisson arrival schedule and reports coordinated-omission-safe
//! latency: every request is charged from its *intended* arrival time,
//! so a stalled server shows up in the tail instead of silently
//! throttling the load.
//!
//! Usage:
//!   serve_bench [--quick | --full] [--transport channel|tcp|reactor]
//!               [--rates R1,R2,...] [--requests N] [--seed N]
//!               [--machines N] [--clients N] [--slo-us N]
//!               [--stall EVERY:US] [--json PATH] [--flight PATH]
//!               [--timeline-json PATH]
//!
//! Exit code: 0 when every point served every intended request, 1 when
//! any point had an error, a miss or an unaccounted request (the points
//! are named on stderr), 2 on usage or IO errors. Latency is reported,
//! never judged here — a latency claim is a paired run of `benchmark/`.
//!
//! `--json` writes the schema-versioned serving document; `--flight`
//! writes the flight recorder dump of the first SLO-violating point
//! (reason "slo-violation", `failing_reqs` = the violators) so the
//! request ids behind a bad tail can be looked up. `--stall EVERY:US`
//! injects a server-side stall of US microseconds into every EVERY-th
//! handled request, to see coordinated-omission-safe latency absorb it.
//! `--timeline-json` writes the sampled telemetry timeline of the last
//! sweep point (DESIGN §15). `--machines N` sets the mesh size: one
//! client machine plus N-1 slaves, so `--transport reactor --machines 32`
//! is the mesh-scale smoke CI runs.

use corm::{OptConfig, TransportKind};
use corm_bench::loadgen::{
    quick_sweep, render_serve_json, run_sweep, served_all, LoadPoint, ServeOptions, ServeReport,
    StallSpec, DEFAULT_SEED,
};

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--quick | --full] [--transport channel|tcp|reactor] [--rates R1,R2,...]\n                   [--requests N] [--seed N] [--machines N] [--clients N] [--slo-us N]\n                   [--stall EVERY:US] [--json PATH] [--flight PATH] [--timeline-json PATH]"
    );
    std::process::exit(2);
}

struct Cli {
    scale: &'static str,
    transport: TransportKind,
    rates: Option<Vec<f64>>,
    requests: Option<usize>,
    seed: u64,
    machines: usize,
    clients: usize,
    slo_us: u64,
    stall: Option<StallSpec>,
    json: Option<String>,
    flight: Option<String>,
    timeline_json: Option<String>,
}

fn parse_cli() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        scale: "quick",
        transport: TransportKind::default(),
        rates: None,
        requests: None,
        seed: DEFAULT_SEED,
        machines: 3,
        clients: 8,
        slo_us: 50_000,
        stall: None,
        json: None,
        flight: None,
        timeline_json: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--quick" => cli.scale = "quick",
            "--full" => cli.scale = "full",
            "--transport" => {
                cli.transport = take(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--rates" => {
                cli.rates = Some(
                    take(&mut i)
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--requests" => cli.requests = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => cli.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--machines" => cli.machines = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--clients" => cli.clients = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--slo-us" => cli.slo_us = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--stall" => {
                let spec = take(&mut i);
                let Some((every, stall_us)) = spec.split_once(':') else { usage() };
                cli.stall = Some(StallSpec {
                    every: every.parse().unwrap_or_else(|_| usage()),
                    stall_us: stall_us.parse().unwrap_or_else(|_| usage()),
                });
            }
            "--json" => cli.json = Some(take(&mut i)),
            "--flight" => cli.flight = Some(take(&mut i)),
            "--timeline-json" => cli.timeline_json = Some(take(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if cli.machines < 2 {
        eprintln!("--machines must be at least 2 (one client machine plus one slave)");
        std::process::exit(2);
    }
    cli
}

fn points_for(cli: &Cli) -> Vec<LoadPoint> {
    let mut points = match cli.rates {
        Some(ref rates) => {
            let requests = cli.requests.unwrap_or(300);
            rates.iter().map(|&rate_rps| LoadPoint { rate_rps, requests }).collect()
        }
        None if cli.scale == "full" => corm_bench::loadgen::full_sweep(),
        None => quick_sweep(),
    };
    if let Some(requests) = cli.requests {
        for p in &mut points {
            p.requests = requests;
        }
    }
    points
}

fn print_point(p: &LoadPoint, r: &ServeReport) {
    println!(
        "{:>8.0} rps offered | {:>8.1} achieved | {:>6}/{:<6} ok | p50 {:>6} µs | p99 {:>7} µs | p99.9 {:>7} µs | {} over SLO",
        p.rate_rps,
        r.achieved_rps,
        r.completed,
        r.intended,
        r.latency.quantile(0.5),
        r.latency.quantile(0.99),
        r.latency.quantile(0.999),
        r.violations.len(),
    );
    let m = &r.outcome.metrics;
    let mean = |h: corm::HistSnapshot| format!("{:.0}", h.mean());
    println!(
        "           phases (mean µs): queue {} | marshal {} | wire-rtt {} | unmarshal {} | invoke {}",
        mean(m.cluster_hist(|ms| &ms.queue_us)),
        mean(m.cluster_hist(|ms| &ms.marshal_us)),
        mean(m.cluster_hist(|ms| &ms.rtt_us)),
        mean(m.cluster_hist(|ms| &ms.unmarshal_us)),
        mean(m.cluster_hist(|ms| &ms.invoke_us)),
    );
}

fn main() {
    let cli = parse_cli();
    let mut opts = ServeOptions::default();
    opts.run.machines = cli.machines;
    opts.run.transport = cli.transport;
    opts.clients = cli.clients;
    opts.slo_us = cli.slo_us;
    opts.run.stall = cli.stall;

    let points = points_for(&cli);
    println!(
        "serving benchmark: webserver, {} transport, {} machines, {} clients, seed {}, SLO {} µs{}",
        cli.transport.label(),
        cli.machines,
        cli.clients,
        cli.seed,
        cli.slo_us,
        match cli.stall {
            Some(s) => format!(", injected stall {} µs every {} requests", s.stall_us, s.every),
            None => String::new(),
        }
    );
    let runs = match run_sweep(OptConfig::ALL, &points, cli.seed, &opts) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("serving run failed: {e}");
            std::process::exit(1);
        }
    };
    for (p, r) in &runs {
        print_point(p, r);
    }

    if let Some(path) = &cli.json {
        let doc = render_serve_json(
            cli.scale,
            cli.transport,
            cli.machines,
            cli.clients,
            cli.seed,
            cli.slo_us,
            &runs,
        );
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("serving document written to {path}");
    }
    if let Some(path) = &cli.flight {
        // The dump of the first violating point — taken while the Slo
        // events were still hot in the rings, failing_reqs = violators.
        match runs.iter().find_map(|(_, r)| r.flight_slo.as_ref()) {
            Some(dump) => {
                if let Err(e) = std::fs::write(path, corm::render_flight_json(dump)) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "flight dump ({} SLO violations) written to {path}",
                    dump.failing_reqs.len()
                );
            }
            None => println!("no SLO violations; {path} not written"),
        }
    }
    if let Some(path) = &cli.timeline_json {
        match runs.last() {
            Some((_, r)) => {
                let doc = corm::render_timeline_json(&r.outcome.timeline);
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "timeline ({} samples, {} health finding(s)) written to {path}",
                    r.outcome.timeline.total_samples(),
                    r.outcome.timeline.health.len()
                );
            }
            None => println!("no sweep points; {path} not written"),
        }
    }

    // After the artifacts, so a failing CI run still uploads them.
    let failed: Vec<_> = runs.iter().filter(|(_, r)| !served_all(r)).collect();
    for (p, r) in &failed {
        eprintln!(
            "FAILED at {:.0} rps: {} errors, {} misses, {} of {} requests completed",
            p.rate_rps, r.errors, r.misses, r.completed, r.intended
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
