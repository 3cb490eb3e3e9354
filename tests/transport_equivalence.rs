//! Cross-transport equivalence: every app under every configuration
//! must behave identically whether packets move over the in-process
//! channel fabric, the real loopback-TCP mesh, the reactor fabric
//! (the same sockets read by a few shared event loops), or the
//! lossy datagram fabric (seeded drop/duplicate/reorder faults healed
//! by retransmission, dedup and holdback, DESIGN §16).
//!
//! The invariance tests run each app through the differential oracle,
//! `corm_fuzz::check`, at quick scale over the channel and one wire carrier:
//! all five configurations, audited, the output equal everywhere and equal to
//! the host-side oracle's, every per-machine counter and the audit evidence
//! bit-equal across the two carriers, and the paper's cross-config counter
//! invariants held. All counter accounting happens in `NetHandle::send` before
//! the backend carries the packet, every RMI of every app is data-driven
//! (spawned workers are awaited with a blocking `join()`, not polled) and a
//! reuse slot belongs to one caller (DESIGN §4.3), so no counter depends on
//! the carrier's latency or on the schedule; the comparison is `==`.
//!
//! Tests are prefixed `tcp_` / `reactor_` / `lossy_` so CI can shard
//! the sweep across a backend matrix with a plain name filter.

use corm::{LossSpec, OptConfig, RunOptions, RunOutcome, TransportKind};
use corm_apps::{AppSpec, ALL_APPS, ARRAY2D, LINKED_LIST, LU, SUPEROPT, WEBSERVER};
use corm_fuzz::{check, Matrix, OracleOutcome};

/// `spec` at quick scale through the oracle over the channel and `wire`; the
/// output all runs agreed on must be the host-side oracle's.
fn check_all_configs(spec: &AppSpec, wire: TransportKind) -> OracleOutcome {
    let matrix = Matrix {
        machines: spec.machines,
        args: spec.quick_args,
        transports: &[TransportKind::Channel, wire],
        loss: None,
    };
    let outcome = check(spec.source, &matrix).unwrap_or_else(|f| panic!("{}: {f}", spec.name));
    let expected = spec.expected_output(spec.quick_args, spec.machines);
    assert_eq!(outcome.output, expected, "{} diverged from the host-side oracle", spec.name);
    outcome
}

/// One unaudited run of `spec` at quick scale, which must not fail.
fn run_on(spec: &AppSpec, config: OptConfig, transport: TransportKind) -> RunOutcome {
    let opts = RunOptions {
        machines: spec.machines,
        args: spec.quick_args.to_vec(),
        transport,
        ..Default::default()
    };
    let out = corm::run(&spec.compile(config), opts);
    assert!(out.error.is_none(), "{} errored under {transport}: {:?}", spec.name, out.error);
    out
}

macro_rules! invariance_tests {
    ($($name:ident => $spec:expr, $wire:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check_all_configs(&$spec, $wire);
            }
        )*
    };
}

invariance_tests! {
    tcp_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Tcp;
    tcp_array2d_is_transport_invariant => ARRAY2D, TransportKind::Tcp;
    tcp_superopt_is_transport_invariant => SUPEROPT, TransportKind::Tcp;
    tcp_webserver_is_transport_invariant => WEBSERVER, TransportKind::Tcp;
    reactor_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Reactor;
    reactor_array2d_is_transport_invariant => ARRAY2D, TransportKind::Reactor;
    reactor_lu_is_transport_invariant => LU, TransportKind::Reactor;
    reactor_superopt_is_transport_invariant => SUPEROPT, TransportKind::Reactor;
    reactor_webserver_is_transport_invariant => WEBSERVER, TransportKind::Reactor;
    lossy_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Lossy;
    lossy_array2d_is_transport_invariant => ARRAY2D, TransportKind::Lossy;
    lossy_lu_is_transport_invariant => LU, TransportKind::Lossy;
    lossy_superopt_is_transport_invariant => SUPEROPT, TransportKind::Lossy;
    lossy_webserver_is_transport_invariant => WEBSERVER, TransportKind::Lossy;
}

#[test]
fn tcp_lu_is_transport_invariant() {
    // The audit is on: LU's reuse rows poison what their caches hold before
    // each unmarshal overwrites it.
    let outcome = check_all_configs(&LU, TransportKind::Tcp);
    assert!(outcome.poisoned_values > 0, "the audit poisoned nothing");
}

fn output_matches_the_oracle(wire: TransportKind) {
    // The full stack alone, unaudited: a wire run reproduces the host-side
    // oracle bit-for-bit, as channel runs do elsewhere.
    for spec in ALL_APPS {
        let run = run_on(&spec, OptConfig::ALL, wire);
        assert_eq!(
            run.output,
            spec.expected_output(spec.quick_args, spec.machines),
            "{} output diverged from the oracle under {wire}",
            spec.name
        );
    }
}

#[test]
fn tcp_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Tcp);
}

#[test]
fn reactor_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Reactor);
}

#[test]
fn lossy_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Lossy);
}

#[test]
fn lossy_at_most_once_is_exactly_once_under_seeded_faults() {
    // The acceptance gate in one test: under aggressive seeded loss the
    // link protocol must heal every fault below the VM, so the
    // app's output AND per-machine counters are bit-identical
    // to a channel run — zero double-executions, zero lost calls. The
    // lossy-plane counters prove the faults actually happened.
    let compiled = LINKED_LIST.compile(OptConfig::ALL);
    let mk = |transport, loss| {
        corm::run(
            &compiled,
            RunOptions {
                machines: LINKED_LIST.machines,
                args: LINKED_LIST.quick_args.to_vec(),
                transport,
                loss,
                ..Default::default()
            },
        )
    };
    let chan = mk(TransportKind::Channel, None);
    for rate in [0.05, 0.20] {
        let lossy = mk(TransportKind::Lossy, Some(LossSpec::seeded(0xFA11, rate)));
        assert!(lossy.error.is_none(), "rate {rate}: {:?}", lossy.error);
        assert_eq!(lossy.output, chan.output, "rate {rate}: output diverged");
        let mut faults = 0;
        for (m, (a, b)) in chan.metrics.machines.iter().zip(&lossy.metrics.machines).enumerate() {
            assert_eq!(a.stats, b.stats, "rate {rate}: machine {m} counters diverged");
            faults += b.lossy_retransmits + b.lossy_dups_suppressed;
        }
        assert!(faults > 0, "rate {rate}: the seeded fault plan injected nothing");
    }
}

#[test]
fn tcp_measures_wire_time_and_channel_does_not() {
    let wire_ns = |t| run_on(&ARRAY2D, OptConfig::ALL, t).measured_wire_ns.iter().sum::<u64>();
    assert!(wire_ns(TransportKind::Tcp) > 0, "TCP must record real in-flight time");
    assert_eq!(wire_ns(TransportKind::Channel), 0, "channel delivery is a pointer move");
}

#[test]
fn reactor_measures_wire_time() {
    // Frames are timestamped when they enter the outbound buffer, so
    // time spent parked there behind a full socket is charged too.
    let run = run_on(&ARRAY2D, OptConfig::ALL, TransportKind::Reactor);
    let wire_ns: u64 = run.measured_wire_ns.iter().sum();
    assert!(wire_ns > 0, "reactor must record real in-flight time");
}

fn pool_checkouts_match(wire: TransportKind) {
    // The sender-side marshal-buffer pool keys on (call site, lane), so
    // the number of checkouts a machine performs (hits + misses) is a
    // pure function of the program — it cannot depend on the carrier.
    // Both backends must also be leak-free: zero steady-state misses at
    // quick scale.
    //
    // `pool_resident_bytes` is deliberately NOT compared: the channel
    // backend moves the request `Vec` by pointer (capacity survives the
    // round trip) while the socket backends reconstruct exact-size
    // payloads on the read side, so parked capacity legitimately
    // differs.
    for spec in &ALL_APPS {
        let chan = run_on(spec, OptConfig::ALL, TransportKind::Channel);
        let other = run_on(spec, OptConfig::ALL, wire);
        for (m, (a, b)) in chan.metrics.machines.iter().zip(&other.metrics.machines).enumerate() {
            assert_eq!(
                a.pool_hits + a.pool_misses,
                b.pool_hits + b.pool_misses,
                "{} machine {m}: pool checkout count diverged across backends",
                spec.name
            );
            assert_eq!(
                a.pool_steady_misses(),
                0,
                "{} machine {m} leaks marshal buffers under channel",
                spec.name
            );
            assert_eq!(
                b.pool_steady_misses(),
                0,
                "{} machine {m} leaks marshal buffers under {wire}",
                spec.name
            );
        }
    }
}

#[test]
fn tcp_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Tcp);
}

#[test]
fn reactor_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Reactor);
}

#[test]
fn lossy_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Lossy);
}

#[test]
fn modeled_time_is_backend_independent_for_poll_free_apps() {
    // Modeled wire time is a pure function of the (deterministic)
    // counters, so it cannot depend on the carrier.
    let [chan, tcp, reactor, lossy] =
        [TransportKind::Channel, TransportKind::Tcp, TransportKind::Reactor, TransportKind::Lossy]
            .map(|t| run_on(&ARRAY2D, OptConfig::ALL, t).modeled);
    assert_eq!(chan, tcp, "tcp modeled time diverged");
    assert_eq!(chan, reactor, "reactor modeled time diverged");
    assert_eq!(chan, lossy, "lossy modeled time diverged");
}
