//! One run of one workload: repetitions folded into the named metrics.

use std::collections::HashMap;
use std::time::Instant;

use crate::layers::{self, Metrics};
use crate::stats::{median, quantile, rel_range};
use crate::workloads::{peak_rss_mb, run_rep, Counters, Kind, Obs, Rep, Workload};
use crate::yardstick::Yardstick;
use crate::Args;

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Printed as `# ...` lines before the result line.
    pub notes: Vec<String>,
}

/// Smoke runs divide every count by this.
const SMOKE_DIV: usize = 100;

fn scaled(count: usize, args: &Args) -> usize {
    if args.smoke {
        count.div_ceil(SMOKE_DIV)
    } else {
        count
    }
}

/// `f` of every repetition, ascending.
fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// A latency quantile of each repetition's operations, µs, ascending.
fn rtt_quantile_us(reps: &[Rep], q: f64) -> Vec<f64> {
    per_rep(reps, |r| quantile(&r.lat_ns, q) as f64 / 1e3)
}

/// What a yardstick round trip takes on the sizing box when nothing disturbs
/// it, ns. Reported times are scaled to a box on which it takes this long.
const YARDSTICK_NOMINAL_NS: f64 = 3000.0;

/// The median of `values`, one per repetition, each scaled by the yardstick
/// reading taken before its repetition, and (max - min) / median of those.
fn scaled_median(values: &[f64], yard_ns: &[f64]) -> (f64, f64) {
    assert_eq!(values.len(), yard_ns.len(), "one yardstick reading per repetition");
    let mut scaled: Vec<f64> =
        values.iter().zip(yard_ns).map(|(v, y)| v * YARDSTICK_NOMINAL_NS / y).collect();
    let spread = rel_range(&scaled);
    (median(&mut scaled), spread)
}

/// The untraced pass: repetitions on fresh clusters until `--seconds` of
/// timed windows have been measured.
///
/// The box this was sized on runs at several speeds, a third apart, for a
/// second or for minutes at a time (README.md, "Noise"), and a run's raw
/// times move with it. So the yardstick is timed before every repetition,
/// each repetition's times are divided by it, and the run reports the median
/// of that over its repetitions, in time units at the yardstick's nominal
/// speed. The raw value of every repetition and every yardstick reading are
/// printed.
pub fn end_to_end(w: &Workload, args: &Args) -> Outcome {
    let count = scaled(w.count, args);
    let mut reps: Vec<Rep> = Vec::new();
    let mut yard_ns = Vec::new();
    let mut yardstick = Yardstick::start();
    let mut measured = 0.0;
    let mut rss_mb = 0.0;
    loop {
        yard_ns.push(yardstick.measure());
        let rep = run_rep(w, args.seed, count, Obs::Default);
        measured += rep.window_s;
        reps.push(rep);
        if reps.len() == 1 {
            // What one repetition needs in a process of its own. The mark keeps
            // creeping up by a few MB over later repetitions (allocator arenas
            // of the threads each cluster spawns), so read at the end it would
            // measure how many repetitions the run had time for.
            rss_mb = peak_rss_mb();
        }
        if args.smoke || measured >= args.seconds as f64 {
            break;
        }
    }
    drop(yardstick);

    let samples: usize = reps.iter().map(|r| r.lat_ns.len()).sum();
    let mut notes = vec![format!(
        "{}: {} repetitions of {} operations, {:.2} s timed, {} latency samples",
        w.name,
        reps.len(),
        reps[0].lat_ns.len(),
        measured,
        samples
    )];
    let rtt_us: Vec<f64> = reps.iter().map(|r| quantile(&r.lat_ns, 0.5) as f64 / 1e3).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut in_order = |name: &str, values: Vec<String>| {
        notes.push(format!("{name} of each repetition, as measured: {}", values.join(" ")));
    };
    in_order("calls_per_s", reps.iter().map(|r| format!("{:.0}", r.calls_per_s())).collect());
    in_order("rtt_p50_us", rtt_us.iter().map(|v| format!("{v:.3}")).collect());
    in_order("setup_s", setup_s.iter().map(|v| format!("{v:.4}")).collect());
    in_order("yardstick_ns", yard_ns.iter().map(|v| format!("{v:.0}")).collect());

    let mut wire = per_rep(&reps, |r| r.counters.stats.wire_bytes as f64 / r.lat_ns.len() as f64);
    let mut metrics = HashMap::new();
    for (name, (value, spread)) in [
        ("rtt_p50_us", scaled_median(&rtt_us, &yard_ns)),
        ("wire_bytes_per_call", (median(&mut wire), rel_range(&wire))),
        ("setup_s", scaled_median(&setup_s, &yard_ns)),
        ("peak_rss_mb", (rss_mb, 0.0)),
    ] {
        notes.push(format!("{name} = {value:.4}, (max-min)/median over repetitions {spread:.4}"));
        metrics.insert(name, value);
    }
    Outcome {
        metrics,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        notes,
    }
}

/// Fewest untraced/traced pairs of repetitions in the traced pass.
const TRACE_PAIRS: usize = 2;

/// The per-layer run: the layer probes, then the workload at a third of its
/// count untraced and traced in alternation until `--seconds` have passed,
/// then the budget.
pub fn per_layer(w: &Workload, args: &Args) -> Outcome {
    let started = Instant::now();
    let probes = layers::probe_all(args);
    let count = scaled(w.count.div_ceil(3), args);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut yardstick = Yardstick::start();
    let mut yard_ns = Vec::new();
    // Only the newest traced repetition's spans are kept: `--trace-out`
    // writes those, and the phase sums of the others are already folded.
    let spans = loop {
        yard_ns.push(yardstick.measure());
        plain.push(run_rep(w, args.seed, count, Obs::Default));
        let mut rep = run_rep(w, args.seed, count, Obs::Traced);
        let spans = std::mem::take(&mut rep.trace);
        traced.push(rep);
        let enough = traced.len() >= TRACE_PAIRS && started.elapsed().as_secs() >= args.seconds;
        if args.smoke || enough {
            break spans;
        }
    };
    if let Some(path) = &args.trace_out {
        let json = corm::to_chrome_trace(&spans);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    drop(spans);
    drop(yardstick);

    let mut metrics = probes.clone();
    // Per-layer times are as measured; this says how fast the box was.
    metrics.insert("box.yardstick_ns", median(&mut yard_ns));
    // No bound hangs on a per-layer number, and the probes are medians: so
    // are these.
    let plain_cps = median(&mut per_rep(&plain, Rep::calls_per_s));
    // The two of a pair ran next to each other, at the box's same speed.
    let mut overhead: Vec<f64> =
        plain.iter().zip(&traced).map(|(p, t)| 1.0 - t.calls_per_s() / p.calls_per_s()).collect();
    metrics.insert("trace.overhead_share", median(&mut overhead));

    // Phase self-times: means over every RMI of the traced repetitions.
    let mut phases = crate::traced::PhaseSums::default();
    let mut counters = Counters::default();
    let mut rmis = 0u64;
    for r in &traced {
        phases.add(r.phases);
        counters.add(r.counters);
        rmis += r.rmis;
    }
    let per_root = |us: f64| us / phases.rmis.max(1) as f64;
    metrics.insert("phase.marshal_us", per_root(phases.marshal_us));
    metrics.insert("phase.queue_us", per_root(phases.queue_us));
    metrics.insert("phase.unmarshal_us", per_root(phases.unmarshal_us));
    metrics.insert("phase.invoke_us", per_root(phases.invoke_us));
    metrics.insert("phase.wire_rtt_us", per_root(phases.wire_rtt_us()));
    metrics.insert("trace.rtt_mean_us", per_root(phases.root_us));

    // Counts made where the work happens, per RMI of the traced repetitions.
    let per_rmi = |n: u64| n as f64 / rmis.max(1) as f64;
    let s = counters.stats;
    metrics.insert("wire.type_info_bytes_per_call", per_rmi(s.type_info_bytes));
    metrics.insert("wire.cycle_lookups_per_call", per_rmi(s.cycle_lookups));
    metrics.insert("codegen.engine.ser_invocations_per_call", per_rmi(s.ser_invocations));
    metrics.insert("heap.deser_allocs_per_call", per_rmi(counters.deser_allocs));
    metrics.insert("heap.deser_bytes_per_call", per_rmi(counters.deser_bytes));
    let ratio =
        |hit: u64, miss: u64| if hit + miss == 0 { 0.0 } else { hit as f64 / (hit + miss) as f64 };
    metrics.insert("vm.reuse.hit_ratio", ratio(s.reused_objs, counters.deser_allocs));
    metrics.insert("vm.pool.hit_ratio", ratio(counters.pool_hits, counters.pool_misses));
    metrics.insert("net.measured_wire_us_per_call", per_rmi(counters.measured_wire_ns) / 1e3);

    // Budget: the path one RMI walks, priced from the isolated probes, against
    // what the caller saw. For the RMI workloads that is the untraced median;
    // `apps` has no caller clock around its RMIs, so the traced mean stands in.
    let rtt_us = if w.kind == Kind::Apps {
        per_root(phases.root_us)
    } else {
        median(&mut rtt_quantile_us(&plain, 0.50))
    };
    // Throughput and the tail are too unsteady on the sizing box to carry a
    // bound (README.md), so they are reported here, from the untraced
    // repetitions.
    metrics.insert("calls_per_s", plain_cps);
    metrics.insert("rtt_p99_us", median(&mut rtt_quantile_us(&plain, 0.99)));
    let path_us = budget_path_us(w, &probes, s.wire_bytes as f64 / (2 * rmis.max(1)) as f64)
        + per_root(phases.invoke_us);
    metrics.insert("budget.rtt_p50_us", rtt_us);
    metrics.insert("budget.path_sum_us", path_us);
    metrics.insert("budget.residue_share", (rtt_us - path_us) / rtt_us);

    let all = plain.iter().chain(&traced);
    Outcome {
        metrics,
        attempted: all.clone().map(|r| r.attempted).sum(),
        failed: all.map(|r| r.failed).sum(),
        notes: vec![format!(
            "{}: layer probes, then {} untraced/traced pairs of {} operations",
            w.name,
            traced.len(),
            count
        )],
    }
}

/// Sum of the probed parts of one remote call on `w`'s transport: two hops,
/// two more thread handoffs (drain loop → worker, reply → caller), the fixed
/// marshal and unmarshal costs in both directions, one buffer-pool cycle,
/// frame encode and decode per hop on the socket backends, and the engine's
/// per-byte costs for the payload (`bytes` per direction). The caller adds
/// the invoke, which only the traced pass sees.
fn budget_path_us(w: &Workload, probes: &Metrics, bytes: f64) -> f64 {
    use corm::TransportKind::{Channel, Lossy, Reactor, Tcp};
    let p = |name: &str| probes[name];
    let bulk = bytes > 1024.0;
    let (hop, framing) = match (w.transport, bulk) {
        (Channel, _) => (p("net.channel.hop_ns"), 0.0),
        (Tcp, false) => {
            (p("net.tcp.hop_ns"), p("net.packet.encode_small_ns") + p("net.packet.decode_small_ns"))
        }
        (Tcp, true) => (
            p("net.tcp.hop_bulk_ns"),
            p("net.packet.encode_bulk_ns") + p("net.packet.decode_bulk_ns"),
        ),
        (Reactor, false) => (
            p("net.reactor.hop_ns"),
            p("net.packet.encode_small_ns") + p("net.packet.decode_small_ns"),
        ),
        (Reactor, true) => (
            p("net.reactor.hop_bulk_ns"),
            p("net.packet.encode_bulk_ns") + p("net.packet.decode_bulk_ns"),
        ),
        (Lossy, _) => (p("net.lossy.hop_ns"), 0.0),
    };
    let site = w.name != "bulk_class";
    let (ser, deser) = if !site {
        (
            p("codegen.engine.ser_ns_per_byte.class"),
            p("codegen.engine.deser_fresh_ns_per_byte.class"),
        )
    } else {
        (p("codegen.engine.ser_ns_per_byte.site"), p("codegen.engine.deser_reuse_ns_per_byte"))
    };
    let ns = 2.0 * hop
        + 2.0 * framing
        + 2.0 * p("shims.crossbeam.handoff_ns")
        + 2.0 * (p("codegen.engine.ser_call_ns") + p("codegen.engine.deser_call_ns"))
        + p("vm.pool.cycle_ns")
        + 2.0 * bytes * (ser + deser);
    ns / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_scaled_to_the_nominal_yardstick() {
        // A box at half speed: every time doubles and so does the yardstick.
        let nominal = [10.0, 11.0, 12.0];
        let yard = [YARDSTICK_NOMINAL_NS; 3];
        let slow: Vec<f64> = nominal.iter().map(|v| v * 2.0).collect();
        let slow_yard = [YARDSTICK_NOMINAL_NS * 2.0; 3];
        assert_eq!(scaled_median(&nominal, &yard), scaled_median(&slow, &slow_yard));
        assert_eq!(scaled_median(&nominal, &yard).0, 11.0);
        // One repetition hit by a burst its yardstick reading missed: the
        // median leaves it out.
        let (value, spread) = scaled_median(&[10.0, 30.0, 10.0], &yard);
        assert_eq!((value, spread), (10.0, 2.0));
    }
}
