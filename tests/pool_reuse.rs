//! Sender-side marshal-buffer pool, end to end: steady-state RMI loops
//! must recycle their marshal buffers (zero steady-state misses), the
//! flight recorder must show warm call sites as pool hits, and the
//! auditor's canary painting of recycled buffers must be invisible to
//! program behavior and RMI statistics.

use corm::{compile_and_run, OptConfig, RunOptions, TransportKind};
use corm_apps::{AppSpec, ALL_APPS, ARRAY2D, LINKED_LIST, WEBSERVER};

const ECHO_LOOP: &str = r#"
    remote class R { int echo(int x) { return x; } }
    class M {
        static void main() {
            R r = new R() @ 1;
            int s = 0;
            int i = 0;
            while (i < 25) { s = s + r.echo(i); i = i + 1; }
            System.println(Str.fromLong(s));
        }
    }
"#;

#[test]
fn steady_state_loop_runs_hot_out_of_the_pool() {
    let out = compile_and_run(
        ECHO_LOOP,
        OptConfig::ALL,
        RunOptions { machines: 2, ..Default::default() },
    )
    .unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "300\n");
    let m0 = &out.metrics.machines[0];
    // The first call at the site allocates (a cold miss); every later
    // iteration checks the recycled request buffer back out.
    assert!(m0.pool_hits >= 24, "expected a hot loop, got {} hits", m0.pool_hits);
    assert_eq!(m0.pool_steady_misses(), 0, "the echo loop must not leak buffers");
}

#[test]
fn flight_recorder_marks_warm_sites_as_pool_hits() {
    let out = compile_and_run(
        ECHO_LOOP,
        OptConfig::ALL,
        RunOptions { machines: 2, ..Default::default() },
    )
    .unwrap();
    let json = corm::render_flight_json(&out.flight);
    // The first send misses (pool empty), the rest hit: both flag values
    // must appear in the dump.
    assert!(json.contains("\"pool_hit\": true"), "warm sends must carry the pool flag");
    assert!(json.contains("\"pool_hit\": false"), "the cold first send must not");
}

#[test]
fn canary_painting_under_audit_changes_nothing_observable() {
    // `audit: true` turns on canary-filling of recycled buffers (spare
    // capacity is painted with a sentinel on check-in). Marshalers only
    // ever append, so a run with the auditor + canaries enabled must be
    // byte-identical in output and counter-identical in RMI stats.
    fn both(spec: &AppSpec) -> Vec<corm::RunOutcome> {
        let compiled = spec.compile(OptConfig::ALL);
        [false, true]
            .into_iter()
            .map(|audit| {
                corm::run(
                    &compiled,
                    RunOptions {
                        machines: spec.machines,
                        args: spec.quick_args.to_vec(),
                        audit,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }
    for spec in [&LINKED_LIST, &ARRAY2D, &WEBSERVER] {
        let runs = both(spec);
        let (plain, audited) = (&runs[0], &runs[1]);
        assert!(plain.error.is_none() && audited.error.is_none(), "{}", spec.name);
        assert_eq!(plain.output, audited.output, "{}: canary mode changed output", spec.name);
        assert_eq!(plain.stats, audited.stats, "{}: canary mode changed RMI stats", spec.name);
        assert!(audited.audit.enabled, "{}: audit mode (and so canaries) must be on", spec.name);
        for (m, snap) in audited.metrics.machines.iter().enumerate() {
            assert_eq!(
                snap.pool_steady_misses(),
                0,
                "{} machine {m} leaks buffers with canaries on",
                spec.name
            );
        }
    }
}

#[test]
fn all_five_apps_run_hot_out_of_the_pool() {
    // The paper's headline row (`site + reuse + cycle`) at quick scale:
    // once a site's working set is built (at most `PER_KEY_CAP` buffers
    // per key), every marshal must check a recycled buffer out. A steady
    // miss means some path leaks buffers and the hot loop allocates again.
    for spec in &ALL_APPS {
        let out = corm::run(
            &spec.compile(OptConfig::ALL),
            RunOptions { machines: 2, args: spec.quick_args.to_vec(), ..Default::default() },
        );
        assert!(out.error.is_none(), "{}: {:?}", spec.name, out.error);
        let machines = &out.metrics.machines;
        let hits: u64 = machines.iter().map(|m| m.pool_hits).sum();
        let misses: u64 = machines.iter().map(|m| m.pool_misses).sum();
        let steady: u64 = machines.iter().map(|m| m.pool_steady_misses()).sum();
        assert!(hits + misses > 0, "{}: the run never touched the pool", spec.name);
        assert!(hits > 0, "{}: a steady-state app must hit the pool", spec.name);
        assert_eq!(steady, 0, "{}: leaked marshal buffers", spec.name);
    }
}

#[test]
fn pooling_works_over_tcp_too() {
    let out = compile_and_run(
        ECHO_LOOP,
        OptConfig::ALL,
        RunOptions { machines: 2, transport: TransportKind::Tcp, ..Default::default() },
    )
    .unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "300\n");
    let m0 = &out.metrics.machines[0];
    assert!(m0.pool_hits >= 24, "expected a hot loop over tcp, got {} hits", m0.pool_hits);
    assert_eq!(m0.pool_steady_misses(), 0);
}

#[test]
fn pooling_works_over_reactor_too() {
    let out = compile_and_run(
        ECHO_LOOP,
        OptConfig::ALL,
        RunOptions { machines: 2, transport: TransportKind::Reactor, ..Default::default() },
    )
    .unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "300\n");
    let m0 = &out.metrics.machines[0];
    assert!(m0.pool_hits >= 24, "expected a hot loop over reactor, got {} hits", m0.pool_hits);
    assert_eq!(m0.pool_steady_misses(), 0);
}

#[test]
fn pooling_works_over_lossy_too() {
    // Drops and duplicates are healed below the VM, so the pool ledger
    // sees exactly the channel-backend traffic pattern.
    let out = compile_and_run(
        ECHO_LOOP,
        OptConfig::ALL,
        RunOptions { machines: 2, transport: TransportKind::Lossy, ..Default::default() },
    )
    .unwrap();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.output, "300\n");
    let m0 = &out.metrics.machines[0];
    assert!(m0.pool_hits >= 24, "expected a hot loop over lossy, got {} hits", m0.pool_hits);
    assert_eq!(m0.pool_steady_misses(), 0);
}

#[test]
fn a_reply_nobody_waits_for_is_dropped() {
    // The reply table completes only a call that is still waiting. A
    // second copy of a reply already consumed, or a reply to a request
    // never made, must vanish: delivered, it would wake a later call with
    // another call's bytes and check the same marshal buffer in twice.
    use corm::{Cluster, Value};
    use corm_net::Packet;
    use corm_vm::{interp::Interp, rmi};

    let compiled = corm::compile(ECHO_LOOP, OptConfig::ALL).unwrap();
    let (module, plans) = (compiled.module.clone(), compiled.plans.clone());
    let cluster = Cluster::start(module, plans, &RunOptions::default());
    assert!(cluster.run_clinits().is_none());
    let rt = cluster.rt.clone();

    let class = compiled.module.table.class_named("R").unwrap();
    let echo = compiled.module.table.find_method(class, "echo").unwrap();
    let site = compiled.plans.sites.values().find(|p| p.method == echo).unwrap().site;
    let machine = rt.machine(0).clone();
    let mut interp = Interp::new(rt.clone(), 0);
    let r = rmi::new_remote(&mut interp, &mut machine.enter(), class, 1).unwrap();
    let mut echo_of = |x: i32| {
        let args = [r, Value::Int(x)];
        let guard = &mut machine.enter();
        rmi::remote_call_with_req(&mut interp, guard, site, echo, &args, true, false).unwrap()
    };

    let (first, req_id) = echo_of(0);
    assert_eq!(first, Value::Int(0));
    for stale in [req_id, req_id + 1_000] {
        rt.net.send(1, 0, Packet::Reply { req_id: stale, payload: vec![0; 4], err: None });
    }
    // Per-pair FIFO: the forged replies are drained before these calls'.
    for x in 1..=30 {
        assert_eq!(echo_of(x).0, Value::Int(x));
    }
    assert!(machine.pending.is_empty(), "a stale reply left a slot behind");
    assert_eq!(rt.pool.outstanding(0), 0, "a stale reply corrupted the pool ledger");
    let out = cluster.finish(None);
    assert_eq!(out.metrics.machines[0].pool_steady_misses(), 0);
}

const INTERLEAVED_SITES: &str = r#"
    remote class Small { int tag(int x) { return x; } }
    remote class Big {
        int sum(int[] a) {
            int s = 0; int i = 0;
            while (i < a.length) { s = s + a[i]; i = i + 1; }
            return s;
        }
    }
    class M {
        static void main() {
            Small s = new Small() @ 1;
            Big b = new Big() @ 1;
            int[] block = new int[256];
            int i = 0;
            while (i < 256) { block[i] = i; i = i + 1; }
            int acc = 0;
            i = 0;
            // Interleave a tiny-payload site with a large-payload site so
            // their buffers keep crossing in the pool; the ledger must
            // route each one home regardless of the interleaving.
            while (i < 20) {
                acc = acc + s.tag(i) + b.sum(block);
                i = i + 1;
            }
            System.println(Str.fromLong(acc));
        }
    }
"#;

#[test]
fn interleaved_sites_never_swap_buffers_across_slots() {
    // 0+1+..+19 = 190; sum(0..255) = 32640 per call, 20 calls.
    let want = format!("{}\n", 190 + 20 * 32640);
    for transport in
        [TransportKind::Channel, TransportKind::Tcp, TransportKind::Reactor, TransportKind::Lossy]
    {
        let out = compile_and_run(
            INTERLEAVED_SITES,
            OptConfig::ALL,
            RunOptions { machines: 2, transport, ..Default::default() },
        )
        .unwrap();
        assert!(out.error.is_none(), "{transport}: {:?}", out.error);
        assert_eq!(out.output, want, "{transport}");
        let m0 = &out.metrics.machines[0];
        // Each site cold-misses once; every later checkout must be a hit.
        // If check-ins ever landed in the wrong slot, the small site
        // would keep missing on capacity and steady misses would climb.
        assert_eq!(
            m0.pool_steady_misses(),
            0,
            "{transport}: interleaved sites leaked or swapped buffers"
        );
        assert!(m0.pool_hits >= 38, "{transport}: got only {} hits", m0.pool_hits);
    }
}
