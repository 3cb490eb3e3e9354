//! Cross-transport equivalence harness.
//!
//! Runs an app under a given transport backend and diffs two runs:
//! program output plus the shard-folded `RmiStats` counters. Used by
//! the `tests/transport_equivalence.rs` suite, which the CI
//! `transport-equivalence` job shards per wire backend; `corm-bench`'s
//! baseline gate compares `BENCH_tables.json` counters by the same
//! [`COUNTERS`] policy.
//!
//! ## What must match, and for which apps
//!
//! All accounting happens in `NetHandle::send` *before* the backend
//! carries the packet, so for a deterministic program every counter is
//! bit-identical across backends. Three of the five apps are fully
//! deterministic at the RMI level: `linked_list`, `array2d` and
//! `webserver` — for these, every per-machine counter must be exactly
//! equal.
//!
//! `lu` and `superopt` contain *completion polling* loops
//! (`while (!w.isDone()) { System.sleepMicros(...); }`), so the number
//! of poll RMIs — and with them messages, wire bytes and rpc counts —
//! depends on timing; `lu`'s reuse caches are additionally raced by
//! concurrent unmarshalers, perturbing `deser_*`/`reused_objs`. For
//! these two, the timing-free counters of [`COUNTERS`] must still be
//! exact, while the poll-affected ones get a relative tolerance.
//!
//! The lossy backend adds one more carve-out: its fault plan models
//! delay, jitter and retransmission timeouts, which *deliberately*
//! inflate wall-clock latency — and with it the number of completion
//! polls a polling app issues (observed 2–3x, far past any sensible
//! tolerance). Poll counts are pure timing artifacts, so when either
//! side of a comparison is lossy the poll-affected counters are
//! skipped for polling apps; output, errors and the timing-free
//! counters remain exact.

use corm::{OptConfig, RunOptions, RunOutcome, StatsSnapshot, TransportKind};

use crate::AppSpec;

/// Relative tolerance for poll-affected counters of polling apps. The
/// observed run-to-run drift is well under 1%; 30% absorbs scheduler
/// differences between backends and loaded CI machines.
pub const POLL_TOLERANCE: f64 = 0.30;

/// One run of an app under a specific transport, reduced to what the
/// equivalence gates compare.
pub struct TransportRun {
    pub transport: TransportKind,
    pub output: String,
    /// Per-machine counters (shard `m` = what machine `m` sent/served).
    pub per_machine: Vec<StatsSnapshot>,
    /// Shard-folded cluster totals.
    pub cluster: StatsSnapshot,
    /// Transport-measured wire nanoseconds, summed over machines.
    pub measured_wire_ns: u64,
    pub error: Option<String>,
}

/// One of the ten paper counters (Tables 4/6/8): its name in
/// `BENCH_tables.json`, its [`StatsSnapshot`] field, and which rule
/// compares it on an app that [`polls`].
pub struct Counter {
    pub name: &'static str,
    pub get: fn(&StatsSnapshot) -> u64,
    /// Exact even for polling apps: polls move only primitive payloads,
    /// so they never touch type info, cycle tables or serializer
    /// invocations. The others are perturbed by completion polling (and,
    /// for `lu`, by reuse caches raced across worker threads) and get
    /// [`POLL_TOLERANCE`].
    pub timing_free: bool,
}

/// The counter policy, stated once: this module's [`diff_runs`] and
/// `corm-bench`'s JSON writer, schema check and baseline gate all walk
/// this table, in the column order of `BENCH_tables.json`.
pub const COUNTERS: [Counter; 10] = [
    Counter { name: "local_rpcs", get: |s| s.local_rpcs, timing_free: false },
    Counter { name: "remote_rpcs", get: |s| s.remote_rpcs, timing_free: false },
    Counter { name: "messages", get: |s| s.messages, timing_free: false },
    Counter { name: "wire_bytes", get: |s| s.wire_bytes, timing_free: false },
    Counter { name: "type_info_bytes", get: |s| s.type_info_bytes, timing_free: true },
    Counter { name: "cycle_lookups", get: |s| s.cycle_lookups, timing_free: true },
    Counter { name: "ser_invocations", get: |s| s.ser_invocations, timing_free: true },
    Counter { name: "reused_objs", get: |s| s.reused_objs, timing_free: false },
    Counter { name: "deser_bytes", get: |s| s.deser_bytes, timing_free: false },
    Counter { name: "deser_allocs", get: |s| s.deser_allocs, timing_free: false },
];

/// Whether the app behind `name` — an app name (`lu`) or its
/// `BENCH_tables.json` table id (`table3_lu`) — has completion-polling
/// loops. Every RMI of the other apps is data-driven, so all their
/// counters are exact.
pub fn polls(name: &str) -> bool {
    matches!(name.rsplit('_').next(), Some("lu" | "superopt"))
}

/// Symmetric relative closeness; 0 vs nonzero is never close.
pub fn rel_close(a: u64, b: u64, tol: f64) -> bool {
    a == b || (a as f64 - b as f64).abs() / (a.max(b) as f64) <= tol
}

/// Run `spec` at quick scale under `transport` and fold the outcome.
pub fn run_under(spec: &AppSpec, config: OptConfig, transport: TransportKind) -> TransportRun {
    let compiled = spec.compile(config);
    let outcome = corm::run(
        &compiled,
        RunOptions {
            machines: spec.machines,
            args: spec.quick_args.to_vec(),
            transport,
            ..Default::default()
        },
    );
    fold(transport, outcome)
}

fn fold(transport: TransportKind, outcome: RunOutcome) -> TransportRun {
    TransportRun {
        transport,
        output: outcome.output.clone(),
        per_machine: outcome.metrics.machines.iter().map(|m| m.stats).collect(),
        cluster: outcome.stats,
        measured_wire_ns: outcome.measured_wire_ns.iter().sum(),
        error: outcome.error.map(|e| e.message),
    }
}

/// Diff two runs of the same (app, config); returns human-readable
/// mismatch descriptions (empty = equivalent).
pub fn diff_runs(app: &str, config: &str, a: &TransportRun, b: &TransportRun) -> Vec<String> {
    let ctx = format!("{app}/{config} [{} vs {}]", a.transport, b.transport);
    let mut bad = Vec::new();
    if a.error != b.error {
        bad.push(format!("{ctx}: error mismatch: {:?} vs {:?}", a.error, b.error));
    }
    if a.output != b.output {
        bad.push(format!("{ctx}: output differs ({} vs {} bytes)", a.output.len(), b.output.len()));
    }
    if a.per_machine.len() != b.per_machine.len() {
        bad.push(format!(
            "{ctx}: machine count {} vs {}",
            a.per_machine.len(),
            b.per_machine.len()
        ));
        return bad;
    }
    if !polls(app) {
        // Fully deterministic app: every per-machine counter bit-equal.
        for (m, (sa, sb)) in a.per_machine.iter().zip(&b.per_machine).enumerate() {
            if sa != sb {
                bad.push(format!("{ctx}: machine {m} counters differ: {sa:?} vs {sb:?}"));
            }
        }
        return bad;
    }
    // Lossy latency modeling inflates poll counts past any fixed
    // tolerance (see module docs): poll-affected counters are only
    // comparable between latency-comparable backends.
    let lossy = a.transport == TransportKind::Lossy || b.transport == TransportKind::Lossy;
    for Counter { name, get, timing_free } in &COUNTERS {
        if *timing_free {
            for (m, (sa, sb)) in a.per_machine.iter().zip(&b.per_machine).enumerate() {
                if get(sa) != get(sb) {
                    bad.push(format!(
                        "{ctx}: machine {m} {name} (timing-free) {} vs {}",
                        get(sa),
                        get(sb)
                    ));
                }
            }
        } else if !lossy {
            let (va, vb) = (get(&a.cluster), get(&b.cluster));
            if !rel_close(va, vb, POLL_TOLERANCE) {
                bad.push(format!("{ctx}: cluster {name} {va} vs {vb} (tol {POLL_TOLERANCE})"));
            }
        }
    }
    bad
}

/// Compare `spec` under two transports for one config; panics with the
/// accumulated diff on mismatch. The workhorse of the equivalence suite.
pub fn assert_equivalent(spec: &AppSpec, config: OptConfig, x: TransportKind, y: TransportKind) {
    let a = run_under(spec, config, x);
    let b = run_under(spec, config, y);
    let bad = diff_runs(spec.name, &config.label(), &a, &b);
    assert!(bad.is_empty(), "transport equivalence failed:\n{}", bad.join("\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_close_handles_zero_and_tolerance() {
        assert!(rel_close(0, 0, 0.3));
        assert!(!rel_close(0, 5, 0.3), "0 vs nonzero is a real difference");
        assert!(rel_close(100, 129, 0.3));
        assert!(!rel_close(100, 150, 0.3), "50/150 exceeds the symmetric 30% bound");
    }

    #[test]
    fn poll_classification_matches_the_probe() {
        for spec in crate::ALL_APPS {
            let expected = matches!(spec.name, "lu" | "superopt");
            assert_eq!(polls(spec.name), expected, "{}", spec.name);
        }
    }

    #[test]
    fn diff_flags_output_and_counter_mismatches() {
        let mk = |msgs| TransportRun {
            transport: TransportKind::Channel,
            output: "x\n".into(),
            per_machine: vec![StatsSnapshot { messages: msgs, ..Default::default() }],
            cluster: StatsSnapshot { messages: msgs, ..Default::default() },
            measured_wire_ns: 0,
            error: None,
        };
        assert!(diff_runs("array2d", "all", &mk(3), &mk(3)).is_empty());
        let bad = diff_runs("array2d", "all", &mk(3), &mk(4));
        assert_eq!(bad.len(), 1, "{bad:?}");
        // A polling app tolerates small drift on messages…
        assert!(diff_runs("lu", "all", &mk(100), &mk(110)).is_empty());
        // …but not beyond the tolerance.
        assert!(!diff_runs("lu", "all", &mk(100), &mk(200)).is_empty());
    }
}
