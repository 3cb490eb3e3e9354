//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! Naming conventions (documented in DESIGN.md):
//!
//! * every series is prefixed `corm_`;
//! * per-machine series carry a `machine="<id>"` label, per-call-site
//!   series a `site="<id>"` label;
//! * counters end in `_total`, histograms follow the standard
//!   `_bucket{le=...}` / `_sum` / `_count` triple with cumulative
//!   log2 buckets;
//! * time histograms are in microseconds (`_microseconds`), size
//!   histograms in bytes (`_bytes`).

use std::fmt::Write;

use crate::hist::{bucket_le, HistSnapshot};
use crate::metrics::{
    paper_counters, Metric, MetricsSnapshot, Read, MACHINE_METRICS, SITE_METRICS,
};

/// One labelled scope a family has a series for: `machine="0"` and that
/// machine's snapshot, say.
type Scope<'a, S> = (String, &'a S);

fn scalar<S>(out: &mut String, ty: &str, m: &Metric<S>, scopes: &[Scope<S>], f: fn(&S) -> &u64) {
    let name = m.family;
    let _ = writeln!(out, "# HELP {name} {}", m.help);
    let _ = writeln!(out, "# TYPE {name} {ty}");
    for (labels, s) in scopes {
        let _ = writeln!(out, "{name}{{{labels}}} {}", f(s));
    }
}

fn histogram<S>(out: &mut String, m: &Metric<S>, scopes: &[Scope<S>], f: fn(&S) -> &HistSnapshot) {
    let (name, help) = (m.family, m.help);
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, s) in scopes {
        let h = f(s);
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            cum += c;
            // Skip interior zero-count buckets to keep the exposition
            // readable; always emit the +Inf bucket.
            match bucket_le(i) {
                Some(le) if c > 0 => {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
                }
                Some(_) => {}
                None => {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
    // Derived quantile gauges: log-linear buckets are sparse, so
    // dashboards would otherwise need histogram_quantile over coarse
    // data. Empty series report nothing (a 0 would read as a real
    // latency).
    for (q, suffix) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
        let qname = format!("{name}_{suffix}");
        let _ = writeln!(out, "# HELP {qname} {help} ({suffix} upper bound, derived)");
        let _ = writeln!(out, "# TYPE {qname} gauge");
        for (labels, s) in scopes {
            let h = f(s);
            if h.count > 0 {
                let _ = writeln!(out, "{qname}{{{labels}}} {}", h.quantile(q));
            }
        }
    }
}

/// Emit every family `table` declares, one series per scope.
fn families<S>(out: &mut String, table: &[Metric<S>], scopes: &[Scope<S>]) {
    for m in table {
        match m.read {
            Read::Counter(f) => scalar(out, "counter", m, scopes, f),
            Read::Gauge(f) => scalar(out, "gauge", m, scopes, f),
            Read::Histogram(f) => histogram(out, m, scopes, f),
        }
    }
}

/// Render the registry snapshot as a Prometheus text exposition: the
/// paper counters and the per-machine table per machine, then the
/// per-call-site series.
pub fn render_prometheus(m: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let label = |i: usize| format!("machine=\"{i}\"");
    let stats: Vec<_> =
        m.machines.iter().enumerate().map(|(i, ms)| (label(i), &ms.stats)).collect();
    families(&mut out, &paper_counters(), &stats);
    let machines: Vec<_> = m.machines.iter().enumerate().map(|(i, ms)| (label(i), ms)).collect();
    families(&mut out, MACHINE_METRICS, &machines);
    let sites: Vec<_> = m.sites.iter().map(|s| (format!("site=\"{}\"", s.site), s)).collect();
    families(&mut out, SITE_METRICS, &sites);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use corm_wire::RmiStats;

    #[test]
    fn exposition_has_machine_and_site_series() {
        let reg = MetricsRegistry::new(2);
        RmiStats::bump(&reg.machine(0).stats.remote_rpcs, 4);
        reg.machine(0).rtt_us.record(100);
        let site = reg.site(7);
        site.calls.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        site.rtt_us.record(100);

        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_remote_rpcs_total counter"));
        assert!(text.contains(r#"corm_remote_rpcs_total{machine="0"} 4"#));
        assert!(text.contains(r#"corm_remote_rpcs_total{machine="1"} 0"#));
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds histogram"));
        // 100 lands in the [96,111] log-linear sub-bucket.
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_bucket{machine="0",le="111"} 1"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_bucket{machine="0",le="+Inf"} 1"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_sum{machine="0"} 100"#));
        assert!(text.contains(r#"corm_site_calls_total{site="7"} 4"#));
        assert!(text.contains(r#"corm_site_rtt_microseconds_count{site="7"} 1"#));
    }

    #[test]
    fn quantile_gauges_follow_each_histogram() {
        let reg = MetricsRegistry::new(2);
        for _ in 0..99 {
            reg.machine(0).rtt_us.record(100); // bucket le=111
        }
        reg.machine(0).rtt_us.record(100_000); // bucket le=114687
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds_p50 gauge"));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p50{machine="0"} 111"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p99{machine="0"} 111"#));
        // p999 of 100 observations is the single 100 ms outlier.
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds_p999 gauge"));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p999{machine="0"} 114687"#));
        // machine 1 recorded nothing: no gauge line rather than a fake 0
        assert!(!text.contains(r#"corm_rmi_rtt_microseconds_p50{machine="1"}"#));
        // every histogram family gets the derived gauges
        for fam in [
            "corm_marshal_microseconds",
            "corm_queue_microseconds",
            "corm_rmi_payload_bytes",
            "corm_site_rtt_microseconds",
        ] {
            assert!(text.contains(&format!("# TYPE {fam}_p50 gauge")), "{fam}");
            assert!(text.contains(&format!("# TYPE {fam}_p99 gauge")), "{fam}");
            assert!(text.contains(&format!("# TYPE {fam}_p999 gauge")), "{fam}");
        }
    }

    #[test]
    fn bucket_le_labels_stay_cumulative_and_sorted() {
        // Satellite guard for the log-linear layout: the `le` labels of
        // one rendered histogram must be strictly increasing and the
        // counts cumulative, ending in +Inf == count.
        let reg = MetricsRegistry::new(1);
        for v in [0, 3, 4, 5, 97, 100, 111, 112, 5_000, 1u64 << 33] {
            reg.machine(0).rtt_us.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        let mut les: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut inf_count = None;
        for line in text.lines() {
            if let Some(rest) =
                line.strip_prefix("corm_rmi_rtt_microseconds_bucket{machine=\"0\",le=\"")
            {
                let (le, tail) = rest.split_once('"').unwrap();
                let count: u64 = tail.trim_start_matches('}').trim().parse().unwrap();
                if le == "+Inf" {
                    inf_count = Some(count);
                } else {
                    les.push(le.parse().unwrap());
                    counts.push(count);
                }
            }
        }
        assert!(les.len() >= 5, "expected several occupied buckets: {les:?}");
        assert!(les.windows(2).all(|w| w[0] < w[1]), "le labels must be sorted: {les:?}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "counts must be cumulative: {counts:?}");
        assert_eq!(inf_count, Some(10), "+Inf bucket equals the observation count");
        // 97, 100 and 111 share the [96,111] sub-bucket; 112 opens the
        // adjacent [112,127] one — distinctions the pure-log2 layout
        // collapsed into a single [64,127] bucket.
        assert!(text.contains(r#"le="111""#));
        assert!(text.contains(r#"le="127""#));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let reg = MetricsRegistry::new(1);
        for v in [1, 2, 4, 8, 1000, 100000] {
            reg.machine(0).rtt_us.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        let mut last = 0u64;
        for line in text.lines() {
            if line.starts_with("corm_rmi_rtt_microseconds_bucket") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "cumulative counts must be monotone: {line}");
                last = v;
            }
        }
        assert_eq!(last, 6, "+Inf bucket equals the count");
    }
}
