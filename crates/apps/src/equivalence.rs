//! Cross-transport equivalence harness.
//!
//! Runs an app under a given transport backend and diffs two runs:
//! error, program output and the per-machine `RmiStats` counters. Used by
//! the `tests/transport_equivalence.rs` suite.
//!
//! There is one comparison rule, `==`. All accounting happens in
//! `NetHandle::send` *before* the backend carries the packet, every RMI
//! of every app is data-driven (spawned workers are awaited with a
//! blocking `join()`, not polled) and a reuse slot belongs to one caller
//! (DESIGN §4.3), so no counter depends on the carrier's latency or on
//! how the scheduler interleaves handlers — the lossy fabric's modeled
//! delays and retransmissions included.

use corm::{OptConfig, RunOptions, StatsSnapshot, TransportKind};

use crate::AppSpec;

/// One run of an app under a specific transport, reduced to what the
/// equivalence suite compares.
pub struct TransportRun {
    pub transport: TransportKind,
    pub output: String,
    /// Per-machine counters (shard `m` = what machine `m` sent/served).
    pub per_machine: Vec<StatsSnapshot>,
    /// Transport-measured wire nanoseconds, summed over machines.
    pub measured_wire_ns: u64,
    pub error: Option<String>,
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
    TransportRun {
        transport,
        output: outcome.output,
        per_machine: outcome.metrics.machines.iter().map(|m| m.stats).collect(),
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
    for (m, (sa, sb)) in a.per_machine.iter().zip(&b.per_machine).enumerate() {
        if sa != sb {
            bad.push(format!("{ctx}: machine {m} counters differ: {sa:?} vs {sb:?}"));
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
    use corm::COUNTERS;

    #[test]
    fn diff_flags_output_and_counter_mismatches() {
        // No `..Default::default()`: a new StatsSnapshot field stops this
        // compiling until it is given a value COUNTERS must then find.
        let base = StatsSnapshot {
            local_rpcs: 1,
            remote_rpcs: 2,
            reused_objs: 3,
            cycle_lookups: 4,
            ser_invocations: 5,
            wire_bytes: 6,
            type_info_bytes: 7,
            messages: 8,
            deser_bytes: 9,
            deser_allocs: 10,
        };
        let seen: Vec<u64> = COUNTERS.iter().map(|c| *(c.get)(&base)).collect();
        assert_eq!(seen, (1..=10).collect::<Vec<u64>>(), "every counter once, in row order");

        let run = |transport, output: &str, machine1| TransportRun {
            transport,
            output: output.into(),
            per_machine: vec![base, machine1],
            measured_wire_ns: 0,
            error: None,
        };
        let chan = run(TransportKind::Channel, "x\n", base);
        let lossy = |output, machine1| run(TransportKind::Lossy, output, machine1);
        assert!(diff_runs("lu", "all", &chan, &lossy("x\n", base)).is_empty());
        let bad = diff_runs("lu", "all", &chan, &lossy("y\n", base));
        assert_eq!(bad.len(), 1, "output: {bad:?}");

        // `lu` against a lossy run is compared like everything else: a
        // drift of one, on any counter of any machine, is a mismatch.
        for c in COUNTERS {
            let mut bumped = base;
            *(c.get_mut)(&mut bumped) += 1;
            let bad = diff_runs("lu", "all", &chan, &lossy("x\n", bumped));
            assert_eq!(bad.len(), 1, "{}: {bad:?}", c.name);
            assert!(bad[0].contains("machine 1 counters differ"), "{}: {bad:?}", c.name);
        }
    }
}
