//! Open-loop load generation for the serving benchmark.
//!
//! Thin orchestration over the VM's serving driver
//! (`corm_vm::serve`, re-exported through `corm`): rate presets, the
//! seeded schedules they expand to, a sweep runner that drives the
//! webserver app at each rate in turn, the pass/fail rule of a served
//! point and the `serve_bench --json` document. The schedules are fully
//! deterministic — `(seed, rate, requests, npages)` pins every intended
//! arrival time and every page choice — so two runs of the same sweep
//! issue byte-identical request streams, which `tests/serving.rs`
//! verifies down to the per-site RMI counters.
//!
//! Latencies are recorded against *intended* arrival time
//! (coordinated-omission-safe — see `corm_vm::serve`), so a stalled
//! server cannot hide behind a throttled client. They are reported, not
//! gated: a latency claim is a paired run of `benchmark/`.

pub use corm::{ArrivalSchedule, ServeOptions, ServeReport, StallSpec};

use crate::{esc, hist_json, BENCH_JSON_SCHEMA_VERSION};
use corm::{OptConfig, TransportKind, VmError};
use corm_apps::serve::webserver_serve;

/// The seed every recorded sweep and CI run uses.
pub const DEFAULT_SEED: u64 = 42;

/// One rate step of a sweep: `requests` arrivals at `rate_rps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    pub rate_rps: f64,
    pub requests: usize,
}

impl LoadPoint {
    /// Expand this point into its arrival schedule.
    pub fn schedule(&self, seed: u64, npages: u32) -> ArrivalSchedule {
        ArrivalSchedule::generate(seed, self.rate_rps, self.requests, npages)
    }
}

/// CI-scale sweep: two rates, a couple of seconds of offered load each.
pub fn quick_sweep() -> Vec<LoadPoint> {
    vec![LoadPoint { rate_rps: 200.0, requests: 300 }, LoadPoint { rate_rps: 500.0, requests: 500 }]
}

/// Paper-scale sweep (the EXPERIMENTS appendix): a wider rate ladder
/// with enough requests per point for a meaningful p99.9.
pub fn full_sweep() -> Vec<LoadPoint> {
    vec![
        LoadPoint { rate_rps: 200.0, requests: 2_000 },
        LoadPoint { rate_rps: 500.0, requests: 5_000 },
        LoadPoint { rate_rps: 1_000.0, requests: 10_000 },
        LoadPoint { rate_rps: 2_000.0, requests: 10_000 },
    ]
}

/// Drive the webserver at every point of the sweep, reusing `opts` for
/// each run (machines, transport, clients, SLO, optional stall
/// injection). Each point gets a fresh cluster — serving runs measure a
/// warm service, not a warm process, and isolation keeps the points
/// independent.
pub fn run_sweep(
    config: OptConfig,
    points: &[LoadPoint],
    seed: u64,
    opts: &ServeOptions,
) -> Result<Vec<(LoadPoint, ServeReport)>, VmError> {
    let mut out = Vec::with_capacity(points.len());
    for &p in points {
        let schedule = p.schedule(seed, opts.npages.max(1) as u32);
        let report = webserver_serve(config, &schedule, opts)?;
        out.push((p, report));
    }
    Ok(out)
}

/// Whether a point served every intended request. An error or a
/// misrouted request is a correctness bug, not load, so this — not a
/// latency budget — decides `serve_bench`'s exit code.
pub fn served_all(r: &ServeReport) -> bool {
    r.errors == 0 && r.misses == 0 && r.completed as usize == r.intended
}

fn point_json(point: &LoadPoint, r: &ServeReport) -> String {
    let m = &r.outcome.metrics;
    let phases = format!(
        r#"{{"queue_us":{},"marshal_us":{},"unmarshal_us":{},"invoke_us":{},"rtt_us":{}}}"#,
        hist_json(&m.cluster_hist(|ms| &ms.queue_us)),
        hist_json(&m.cluster_hist(|ms| &ms.marshal_us)),
        hist_json(&m.cluster_hist(|ms| &ms.unmarshal_us)),
        hist_json(&m.cluster_hist(|ms| &ms.invoke_us)),
        hist_json(&m.cluster_hist(|ms| &ms.rtt_us)),
    );
    let reqs: Vec<String> = r.violations.iter().map(u64::to_string).collect();
    format!(
        concat!(
            r#"{{"arrival_rate":{:.3},"requests":{},"achieved_rps":{:.3},"#,
            r#""intended":{},"completed":{},"misses":{},"errors":{},"serve_wall_us":{},"#,
            r#""latency_p50_us":{},"latency_p99_us":{},"latency_p999_us":{},"#,
            r#""service_p50_us":{},"service_p99_us":{},"service_p999_us":{},"#,
            r#""slo_violations":{},"violating_reqs":[{}],"#,
            r#""latency":{},"service":{},"phases":{}}}"#
        ),
        point.rate_rps,
        point.requests,
        r.achieved_rps,
        r.intended,
        r.completed,
        r.misses,
        r.errors,
        r.serve_wall_us,
        r.latency.quantile(0.5),
        r.latency.quantile(0.99),
        r.latency.quantile(0.999),
        r.service.quantile(0.5),
        r.service.quantile(0.99),
        r.service.quantile(0.999),
        r.violations.len(),
        reqs.join(","),
        hist_json(&r.latency),
        hist_json(&r.service),
        phases,
    )
}

/// Render a serving sweep as a schema-versioned JSON document.
pub fn render_serve_json(
    scale: &str,
    transport: TransportKind,
    machines: usize,
    clients: usize,
    seed: u64,
    slo_us: u64,
    runs: &[(LoadPoint, ServeReport)],
) -> String {
    let points: Vec<String> = runs.iter().map(|(p, r)| point_json(p, r)).collect();
    format!(
        concat!(
            r#"{{"schema_version":{},"generator":"corm-bench serve","scale":"{}","#,
            r#""transport":"{}","machines":{},"clients":{},"seed":{},"slo_us":{},"points":[{}]}}"#
        ),
        BENCH_JSON_SCHEMA_VERSION,
        esc(scale),
        transport.label(),
        machines,
        clients,
        seed,
        slo_us,
        points.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_expand_to_deterministic_schedules() {
        for p in quick_sweep() {
            let a = p.schedule(DEFAULT_SEED, 20);
            let b = p.schedule(DEFAULT_SEED, 20);
            assert_eq!(a, b);
            assert_eq!(a.len(), p.requests);
            assert_eq!(a.rate_rps, p.rate_rps);
        }
    }

    fn channel_opts() -> ServeOptions {
        let mut opts = ServeOptions::default();
        opts.run.machines = 3;
        opts
    }

    #[test]
    fn sweep_serves_every_request() {
        let points = [LoadPoint { rate_rps: 2_000.0, requests: 120 }];
        let runs = run_sweep(OptConfig::ALL, &points, DEFAULT_SEED, &channel_opts()).unwrap();
        let (p, report) = &runs[0];
        assert_eq!(report.intended, p.requests);
        assert_eq!(report.errors, 0, "no transport or VM errors at quick scale");
        assert_eq!(report.misses, 0, "every URL must route to a live page");
        assert_eq!(report.completed as usize, p.requests);
        assert_eq!(report.latency.count as usize, p.requests);
        assert!(served_all(report));
        // the slaves' own hitCount() counters agree with the client view
        let hits: i64 = report.slave_hits.iter().sum();
        assert_eq!(hits as usize, p.requests);

        // The document `serve_bench --json` writes parses with the
        // workspace parser and reports the same accounting.
        let text =
            render_serve_json("quick", TransportKind::Channel, 3, 4, DEFAULT_SEED, 50_000, &runs);
        let doc = crate::json::parse(&text).expect("serving document must be valid JSON");
        assert_eq!(doc.get("schema_version").as_u64(), Some(u64::from(BENCH_JSON_SCHEMA_VERSION)));
        assert_eq!(doc.get("transport").as_str(), Some("channel"));
        let point = &doc.get("points").as_arr().expect("points[]")[0];
        for (key, want) in [("intended", 120), ("completed", 120), ("misses", 0), ("errors", 0)] {
            assert_eq!(point.get(key).as_u64(), Some(want), "{key}");
        }
        assert!(point.get("latency_p99_us").as_u64().is_some());
        assert_eq!(point.get("latency").get("count").as_u64(), Some(120));
        assert!(point.get("phases").get("queue_us").get("count").as_u64().is_some());
    }

    /// A service shaped like the webserver whose `/page/0` throws.
    const THROWING_SERVICE: &str = r#"
        class Page { int[] body; }
        remote class Slave {
            long hits;
            void init(int npages, int pageSize, int id, int nslaves) { this.hits = 0; }
            Page getPage(String url) {
                this.hits = this.hits + 1;
                int size = 4;
                if (url.equals("/page/0")) { size = 0 - 1; }
                Page p = new Page();
                p.body = new int[size];
                return p;
            }
            long hitCount() { return this.hits; }
        }
        class Master {
            static void main() {
                Slave s = new Slave() @ 1;
                s.init(1, 1, 0, 1);
                Page p = s.getPage("/page/1");
                System.println(Str.fromLong(s.hitCount() + p.body.length));
            }
        }
    "#;

    #[test]
    fn a_request_that_errors_fails_the_point() {
        // A remote exception rather than a `FaultSpec`-severed slave: the
        // serving driver keeps sending to a dead peer and those calls
        // never return, so a severed run has no report to judge.
        let compiled = corm::compile(THROWING_SERVICE, OptConfig::ALL).expect("service compiles");
        let schedule = ArrivalSchedule::generate(DEFAULT_SEED, 2_000.0, 120, 20);
        let report =
            corm::serve(&compiled, &corm::ServeSpec::default(), &schedule, &channel_opts())
                .expect("the run itself completes");
        let page0 = schedule.pages.iter().filter(|&&pg| pg == 0).count() as u64;
        assert!(page0 > 0, "the seeded schedule must ask for the throwing page");
        assert_eq!(report.errors, page0);
        assert_eq!(report.completed + report.errors, 120);
        assert!(!served_all(&report));
    }
}
