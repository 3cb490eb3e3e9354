//! The benchmark's contract: workloads and metrics by name. `BENCHMARK.json`
//! at the repo root lists the same names, units, directions and bounds; a
//! test holds the two together. README.md defines every metric.

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// Seconds one run measures when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 14;

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "ping_channel",
        why: "int ping(int) on the in-process channel: 40 wire bytes, so the thread handoffs and the drain loop are the call and the marshaler is almost none of it",
    },
    WorkloadSpec {
        name: "ping_tcp",
        why: "the same call over loopback TCP: adds packet framing and socket syscalls per hop; a net::tcp change shows here and must not move ping_channel",
    },
    WorkloadSpec {
        name: "ping_reactor",
        why: "the same call through the reactor's event loops and batching window; against ping_tcp it is the tcp-or-reactor decision",
    },
    WorkloadSpec {
        name: "bulk_reuse",
        why: "list/matrix/tree/page graphs of 1-13 KB under config all, one call in ten changing size: the serializer engine and the reuse cache are most of the call",
    },
    WorkloadSpec {
        name: "bulk_class",
        why: "the identical call stream under config class: per-object type tags, the cycle table and a fresh allocation per object; bulk_class over bulk_reuse is the paper's ratio",
    },
    WorkloadSpec {
        name: "serve_sat",
        why: "two concurrent callers against two page servers: saturation, where the machine lock, drain fan-in, worker pool and buffer-pool ledger contend",
    },
    WorkloadSpec {
        name: "apps",
        why: "complete runs of the paper's lu and superopt programs checked against the oracle: the interpreter does almost all the work and the hop almost none",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("rtt_p50_us", "us", "lower", 0.25),
    e2e("wire_bytes_per_call", "B", "lower", 0.01),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Printed by every workload with `--trace 1`: the layer probes (the same
/// code whatever the workload), then the workload's traced pass and budget.
pub const PER_LAYER: [MetricSpec; 56] = [
    layer("box.yardstick_ns", "ns", "lower"),
    layer("calls_per_s", "1/s", "higher"),
    layer("rtt_p99_us", "us", "lower"),
    layer("ir.frontend_us", "us", "lower"),
    layer("analysis.analyze_us", "us", "lower"),
    layer("codegen.plan_us", "us", "lower"),
    layer("analysis.sites_total", "count", "higher"),
    layer("analysis.sites_acyclic", "count", "higher"),
    layer("analysis.sites_reusable", "count", "higher"),
    layer("codegen.engine.ser_call_ns", "ns", "lower"),
    layer("codegen.engine.deser_call_ns", "ns", "lower"),
    layer("codegen.engine.ser_ns_per_byte.site", "ns/B", "lower"),
    layer("codegen.engine.ser_ns_per_byte.class", "ns/B", "lower"),
    layer("codegen.engine.deser_fresh_ns_per_byte.site", "ns/B", "lower"),
    layer("codegen.engine.deser_fresh_ns_per_byte.class", "ns/B", "lower"),
    layer("codegen.engine.deser_reuse_ns_per_byte", "ns/B", "lower"),
    layer("wire.message.write_ns_per_byte", "ns/B", "lower"),
    layer("wire.message.read_ns_per_byte", "ns/B", "lower"),
    layer("wire.cycle_table.lookup_ns", "ns", "lower"),
    layer("heap.alloc_ns", "ns", "lower"),
    layer("heap.gc_ns_per_obj", "ns", "lower"),
    layer("vm.pool.cycle_ns", "ns", "lower"),
    layer("net.packet.encode_small_ns", "ns", "lower"),
    layer("net.packet.decode_small_ns", "ns", "lower"),
    layer("net.packet.encode_bulk_ns", "ns", "lower"),
    layer("net.packet.decode_bulk_ns", "ns", "lower"),
    layer("shims.crossbeam.queue_ns", "ns", "lower"),
    layer("shims.crossbeam.handoff_ns", "ns", "lower"),
    layer("net.channel.hop_ns", "ns", "lower"),
    layer("net.tcp.hop_ns", "ns", "lower"),
    layer("net.reactor.hop_ns", "ns", "lower"),
    layer("net.lossy.hop_ns", "ns", "lower"),
    layer("net.tcp.hop_bulk_ns", "ns", "lower"),
    layer("net.reactor.hop_bulk_ns", "ns", "lower"),
    layer("net.lossy.retransmits_per_kframe", "count", "lower"),
    layer("vm.rmi.local_rpc_ns", "ns", "lower"),
    layer("vm.interp.loop_iter_ns", "ns", "lower"),
    layer("obs.overhead_share", "share", "lower"),
    layer("phase.marshal_us", "us", "lower"),
    layer("phase.queue_us", "us", "lower"),
    layer("phase.unmarshal_us", "us", "lower"),
    layer("phase.invoke_us", "us", "lower"),
    layer("phase.wire_rtt_us", "us", "lower"),
    layer("trace.rtt_mean_us", "us", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("wire.type_info_bytes_per_call", "B", "lower"),
    layer("wire.cycle_lookups_per_call", "count", "lower"),
    layer("codegen.engine.ser_invocations_per_call", "count", "lower"),
    layer("heap.deser_allocs_per_call", "count", "lower"),
    layer("heap.deser_bytes_per_call", "B", "lower"),
    layer("vm.reuse.hit_ratio", "share", "higher"),
    layer("vm.pool.hit_ratio", "share", "higher"),
    layer("net.measured_wire_us_per_call", "us", "lower"),
    layer("budget.rtt_p50_us", "us", "lower"),
    layer("budget.path_sum_us", "us", "lower"),
    layer("budget.residue_share", "share", "lower"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_bench::json::{self, Json};

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(["lower", "higher"].contains(&m.better), "{}", m.better);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_this_spec() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(doc.get("run_seconds").as_u64(), Some(RUN_SECONDS));
        assert_eq!(doc.get("paths").as_arr().unwrap(), [Json::Str("benchmark".into())]);

        let text =
            |j: &Json, k: &str| j.get(k).as_str().unwrap_or_else(|| panic!("no {k}")).to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.into(), w.why.into())).collect();
        assert_eq!(listed, ours);

        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).as_arr().unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (j, m) in listed.iter().zip(specs) {
                assert_eq!(
                    (text(j, "name"), text(j, "unit"), text(j, "better")),
                    (m.name.into(), m.unit.into(), m.better.into())
                );
                assert_eq!(j.get("bound").as_f64(), m.bound, "{}", m.name);
            }
        }
    }
}
