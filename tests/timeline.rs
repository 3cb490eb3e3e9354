//! Timeline-plane integration tests (DESIGN §7.4): delta accounting
//! (ring totals reproduce the final counters, deterministically across
//! seeded runs), the disabled-sampler escape hatch, the health assessor
//! flagging an injected server stall by machine in both the timeline
//! and the flight recorder, and well-formedness of the JSON export.

use corm::{
    compile_and_run, render_timeline_json, ArrivalSchedule, FlightKind, HealthKind, OptConfig,
    RunOptions, RunOutcome, ServeOptions, StallSpec, TimelineDoc,
};
use corm_apps::serve::webserver_serve;

const SEED: u64 = 42;

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
        // A clean run raises no health findings.
        assert!(doc.health.is_empty(), "clean run flagged: {:?}", doc.health);
    }

    assert_eq!(
        ring_totals(&first.timeline, 3),
        ring_totals(&second.timeline, 3),
        "timeline delta totals diverged between identical seeded runs"
    );
    assert_eq!(first.stats, second.stats);
}

/// `timeline_interval_us: 0` is the overhead-gate escape hatch: no
/// sampler thread, no samples, no health scanning.
#[test]
fn disabled_sampler_produces_an_empty_timeline() {
    let out = sampled_run(0);
    assert_eq!(out.timeline.total_samples(), 0);
    assert!(out.timeline.health.is_empty());
    // The run itself is unaffected.
    assert!(out.stats.remote_rpcs > 0);
}

/// The acceptance scenario: stall *every* request long enough to tie up
/// all of a slave's workers, so its queue holds work while nothing is
/// served. The assessor must name a slave machine with a `Stall`
/// finding, and the same finding must land in the flight-recorder rings
/// as a `Health` event (the SLO-violation dump carries it out).
#[test]
fn injected_stall_raises_a_health_event_naming_the_stalled_machine() {
    let stall_us = 300_000;
    let schedule = ArrivalSchedule::generate(SEED, 400.0, 60);
    let mut opts = ServeOptions::default();
    opts.run.machines = 3;
    opts.clients = 4;
    opts.slo_us = 50_000;
    opts.run.stall = Some(StallSpec { every: 1, stall_us });
    let r = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("stalled run");

    let stalls: Vec<_> =
        r.outcome.timeline.health.iter().filter(|h| h.kind == HealthKind::Stall).collect();
    assert!(
        !stalls.is_empty(),
        "a fully stalled server must raise a Stall finding; health = {:?}",
        r.outcome.timeline.health
    );
    for h in &stalls {
        assert!(
            (1..3).contains(&h.machine),
            "stall must name a slave machine (1..3), got m{}",
            h.machine
        );
        assert!(h.value > 0, "stall finding must carry the no-progress interval count");
    }

    // The same findings were emitted live into the flight rings: the
    // SLO dump (taken while the stall was still in flight) names the
    // stalled machine in its Health events' peer field.
    let dump = r.flight_slo.as_ref().expect("a 300 ms stall must blow the 50 ms SLO");
    let health_peers: Vec<u16> = dump
        .machines
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .filter(|e| e.kind == FlightKind::Health)
        .map(|e| e.peer)
        .collect();
    assert!(
        !health_peers.is_empty(),
        "flight rings must hold the Health events the assessor emitted"
    );
    assert!(
        stalls.iter().any(|h| health_peers.contains(&h.machine)),
        "flight Health events ({health_peers:?}) must name a timeline-flagged machine"
    );
}

/// The exported document is structurally sound without a JSON parser:
/// schema-versioned, balanced, every per-sample field present.
#[test]
fn timeline_json_export_is_wellformed() {
    let out = sampled_run(1_000);
    let json = render_timeline_json(&out.timeline);

    assert!(json.starts_with("{\n"));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"schema\": 2"));
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
        "\"queue_depth\":",
        "\"pool_resident_bytes\":",
        "\"pool_outstanding\":",
        "\"reactor_queued_bytes\":",
        "\"rtt_p99_us\":",
        "\"health\":",
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
