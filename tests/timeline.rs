//! Timeline-plane integration tests (DESIGN §7.4): delta accounting
//! (ring totals reproduce the final counters, deterministically across
//! seeded runs), the disabled-sampler escape hatch, and well-formedness
//! of the JSON export.

use corm::{compile_and_run, render_timeline_json, OptConfig, RunOptions, RunOutcome, TimelineDoc};

/// Enough cross-machine traffic that every sampled counter moves.
fn chatter_program() -> &'static str {
    r#"
    remote class Worker {
        int bump(int x) { return x + 1; }
    }
    class M {
        static void main() {
            Worker a = new Worker() @ 1;
            Worker b = new Worker() @ 2;
            int i = 0;
            int acc = 0;
            while (i < 200) {
                acc = acc + a.bump(i) + b.bump(i);
                i = i + 1;
            }
            System.println(Str.fromLong(acc));
        }
    }
    "#
}

fn sampled_run(interval_us: u64) -> RunOutcome {
    let opts = RunOptions {
        machines: 3,
        echo: false,
        timeline_interval_us: interval_us,
        ..Default::default()
    };
    let out = compile_and_run(chatter_program(), OptConfig::ALL, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    out
}

/// Per-machine delta totals from the timeline rings. These are what the
/// determinism assertion compares: sample *counts* depend on wall time,
/// but the deltas must always sum back to the deterministic counters.
fn ring_totals(doc: &TimelineDoc, machines: u16) -> Vec<[u64; 4]> {
    (0..machines)
        .map(|m| {
            [
                doc.total(m, |s| s.started),
                doc.total(m, |s| s.completed),
                doc.total(m, |s| s.remote_rpcs),
                doc.total(m, |s| s.wire_bytes),
            ]
        })
        .collect()
}

/// The sampler's honesty contract: the final forced tick means the
/// per-machine ring deltas sum to exactly the end-of-run counters — no
/// traffic escapes between the last periodic tick and shutdown. And
/// because the counters are deterministic on the channel transport, so
/// are the ring totals across identical runs.
#[test]
fn timeline_deltas_account_for_every_final_counter() {
    let first = sampled_run(1_000);
    let second = sampled_run(1_000);

    for out in [&first, &second] {
        let doc = &out.timeline;
        assert!(doc.total_samples() > 0, "sampler produced no samples");
        assert_eq!(doc.machines.len(), 3);
        for m in 0..3u16 {
            let ms = &out.metrics.machines[m as usize];
            assert_eq!(
                doc.total(m, |s| s.started),
                ms.requests_started,
                "machine {m}: ring `started` deltas disagree with the final counter"
            );
            assert_eq!(doc.total(m, |s| s.completed), ms.requests_completed, "machine {m}");
            assert_eq!(doc.total(m, |s| s.remote_rpcs), ms.stats.remote_rpcs, "machine {m}");
            assert_eq!(doc.total(m, |s| s.wire_bytes), ms.stats.wire_bytes, "machine {m}");
            // Timestamps are strictly ordered within each machine's ring.
            let ts: Vec<u64> = doc.machines[m as usize].iter().map(|s| s.t_us).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "machine {m}: t_us not monotone: {ts:?}");
        }
    }

    assert_eq!(
        ring_totals(&first.timeline, 3),
        ring_totals(&second.timeline, 3),
        "timeline delta totals diverged between identical seeded runs"
    );
    assert_eq!(first.stats, second.stats);
}

/// `timeline_interval_us: 0` is the overhead-gate escape hatch: no
/// sampler thread, no samples.
#[test]
fn disabled_sampler_produces_an_empty_timeline() {
    let out = sampled_run(0);
    assert_eq!(out.timeline.total_samples(), 0);
    // The run itself is unaffected.
    assert!(out.stats.remote_rpcs > 0);
}

/// The exported document is structurally sound without a JSON parser:
/// schema-versioned, balanced, every per-sample field present, and a
/// record only — no verdict rides along.
#[test]
fn timeline_json_export_is_wellformed() {
    let out = sampled_run(1_000);
    let json = render_timeline_json(&out.timeline);

    assert!(json.starts_with("{\n"));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"schema\": 4"));
    assert!(!json.contains("\"health\""), "the timeline records, it does not judge");
    assert!(json.contains("\"interval_us\": 1000"));
    for field in [
        "\"machine\":",
        "\"samples\":",
        "\"t_us\":",
        "\"started\":",
        "\"completed\":",
        "\"handled\":",
        "\"remote_rpcs\":",
        "\"wire_bytes\":",
        "\"in_flight\":",
        "\"pool_resident_bytes\":",
        "\"pool_outstanding\":",
        "\"reactor_queued_bytes\":",
        "\"rtt_p99_us\":",
    ] {
        assert!(json.contains(field), "missing {field} in export");
    }
    let balance = |open: char, close: char| {
        let opens = json.matches(open).count();
        let closes = json.matches(close).count();
        assert_eq!(opens, closes, "unbalanced {open}{close} in export");
    };
    balance('{', '}');
    balance('[', ']');
    // One samples array entry per ring sample.
    assert_eq!(json.matches("\"t_us\":").count(), out.timeline.total_samples());
}
