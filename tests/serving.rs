//! Open-loop serving integration tests (DESIGN §8): schedule and
//! call-counter determinism, the served-every-request rule behind `corm
//! serve`'s exit code, coordinated-omission safety against a handler
//! that sleeps, SLO violations surfacing through the flight recorder, a
//! slave severed under load, and a TCP smoke run.

use corm::{ArrivalSchedule, FaultSpec, OptConfig, ServeOptions, TransportKind};
use corm_apps::serve::webserver_serve;

const SEED: u64 = 42;

fn channel_opts(machines: usize) -> ServeOptions {
    let mut opts = ServeOptions::default();
    opts.run.machines = machines;
    opts.clients = 4;
    opts
}

/// Two runs from the same seed must issue the identical request stream:
/// same schedule, same per-site RMI call counters, same per-slave hit
/// counts. This is what makes two serving runs comparable at all.
#[test]
fn same_seed_gives_identical_schedules_and_call_counters() {
    let schedule = ArrivalSchedule::generate(SEED, 2_000.0, 150);
    assert_eq!(schedule, ArrivalSchedule::generate(SEED, 2_000.0, 150));

    let opts = channel_opts(3);
    let a = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("first run");
    let b = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("second run");
    for r in [&a, &b] {
        assert_eq!(r.errors, 0);
        assert_eq!(r.misses, 0, "every URL must route to a live page");
        assert_eq!(r.completed as usize, r.intended);
    }
    // Same URLs hashed to the same slaves: per-slave hitCount() agrees.
    assert_eq!(a.slave_hits, b.slave_hits);
    assert_eq!(a.slave_hits.iter().sum::<i64>(), 150);
    // And the per-site call counters are identical — the runs made the
    // exact same RMIs (init, getPage, hitCount) site by site.
    let calls = |r: &corm::ServeReport| -> Vec<(u32, u64)> {
        r.outcome.metrics.sites.iter().map(|s| (s.site, s.calls)).collect()
    };
    assert_eq!(calls(&a), calls(&b), "per-site RMI call counters diverged between identical runs");
    assert_eq!(a.outcome.stats.remote_rpcs, b.outcome.stats.remote_rpcs);
}

/// A served point: every request completed, the client's view agrees
/// with the slaves' own counters, and `served_all` — the rule behind the
/// exit code of `corm serve` and `corm top` — holds.
#[test]
fn sweep_serves_every_request() {
    let schedule = ArrivalSchedule::generate(SEED, 2_000.0, 120);
    let report = webserver_serve(OptConfig::ALL, &schedule, &channel_opts(3)).expect("clean run");
    assert_eq!(report.intended, 120);
    assert_eq!(report.errors, 0, "no transport or VM errors at quick scale");
    assert_eq!(report.misses, 0, "every URL must route to a live page");
    assert_eq!(report.completed, 120);
    assert_eq!(report.latency.count, 120);
    assert!(report.served_all());
    assert_eq!(report.slave_hits.iter().sum::<i64>(), 120);
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

/// The run of a point whose requests error completes with a report, and
/// the report fails the point: `corm serve` stops its sweep there and
/// exits 1.
#[test]
fn a_request_that_errors_fails_the_point() {
    let compiled = corm::compile(THROWING_SERVICE, OptConfig::ALL).expect("service compiles");
    let schedule = ArrivalSchedule::generate(SEED, 2_000.0, 120);
    let report =
        corm::serve(&compiled, &schedule, &channel_opts(3)).expect("the run itself completes");
    let page0 = schedule.pages.iter().filter(|&&pg| pg == 0).count() as u64;
    assert!(page0 > 0, "the seeded schedule must ask for the throwing page");
    assert_eq!(report.errors, page0);
    assert_eq!(report.completed + report.errors, 120);
    assert!(!report.served_all());
}

/// A service shaped like the webserver whose `getPage` sleeps 100 ms on
/// the first and then every third hit of each slave.
const SLEEPING_SERVICE: &str = r#"
    class Page { int[] body; }
    remote class Slave {
        long hits;
        void init(int npages, int pageSize, int id, int nslaves) { this.hits = 0; }
        Page getPage(String url) {
            this.hits = this.hits + 1;
            if (this.hits % 3 == 1) { System.sleepMicros(100000); }
            Page p = new Page();
            p.body = new int[4];
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

/// The coordinated-omission claim, demonstrated: a server that stalls
/// still *completes* every request (a closed-loop harness would report a
/// healthy p50 and a high completion count), but latency measured
/// against intended arrival explodes — the backlog is charged to the
/// server, not silently excused by the throttled clients. The stall is
/// the program's own: `getPage` sleeps, and hands its machine's drain role
/// on while it does, as a real blocking handler would.
#[test]
fn stalled_server_inflates_intended_latency_while_completions_stay_high() {
    let stall_us = 100_000;
    let compiled = corm::compile(SLEEPING_SERVICE, OptConfig::ALL).expect("service compiles");

    let schedule = ArrivalSchedule::generate(SEED, 1_500.0, 120);
    let mut opts = channel_opts(3);
    opts.slo_us = 10_000;
    let r = corm::serve(&compiled, &schedule, &opts).expect("stalled run");

    // Completion stays high: the closed-loop view looks healthy.
    assert_eq!(r.errors, 0);
    assert_eq!(r.completed as usize + r.misses as usize, r.intended);
    // But the CO-safe histogram shows the stall: the tail is at least a
    // full stall long, and the median intended-time latency dwarfs the
    // median send-to-reply (service) latency the closed-loop view sees.
    assert!(
        r.latency.quantile(0.99) >= stall_us,
        "CO-safe p99 {} µs must absorb the {} µs stall",
        r.latency.quantile(0.99),
        stall_us
    );
    assert!(
        r.latency.quantile(0.5) >= 4 * r.service.quantile(0.5).max(1),
        "intended-time p50 {} µs should dwarf closed-loop p50 {} µs",
        r.latency.quantile(0.5),
        r.service.quantile(0.5)
    );

    // The violators surfaced through the flight recorder: an Slo event
    // per violation and a dump whose failing_reqs name them.
    assert!(!r.violations.is_empty(), "a stalled server must blow a 10 ms SLO");
    let dump = r.flight_slo.as_ref().expect("violations must produce a flight dump");
    assert_eq!(dump.reason, "slo-violation");
    assert_eq!(dump.failing_reqs, r.violations);
    let slo_events = dump
        .machines
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .filter(|e| e.kind.name() == "slo")
        .count();
    assert!(slo_events > 0, "flight rings must hold the Slo violation events");
}

/// A clean quick-scale run on the channel backend meets a generous SLO —
/// no violations, no dump.
#[test]
fn unstalled_channel_run_meets_the_slo() {
    let schedule = ArrivalSchedule::generate(SEED, 1_000.0, 100);
    let opts = channel_opts(3);
    let r = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("clean run");
    assert_eq!(r.errors, 0);
    assert_eq!(r.completed as usize, r.intended);
    assert!(
        r.violations.is_empty(),
        "quick-scale channel serving blew the {} µs SLO: {:?} (p99 {} µs)",
        r.slo_us,
        r.violations,
        r.latency.quantile(0.99)
    );
    assert!(r.flight_slo.is_none());
    // The phase split saw real server-side work.
    let m = &r.outcome.metrics;
    assert!(m.cluster_hist(|ms| &ms.queue_us).count > 0, "queue phase must be measured");
    assert!(m.cluster_hist(|ms| &ms.invoke_us).count > 0);
}

/// A slave dies under load. Calls in flight toward it fail when its
/// `PeerGone` arrives, and every call routed to it *afterwards* must fail
/// too, at once — its packets are dropped, so a caller that waited for a
/// reply would hang the run. The other slave keeps serving.
#[test]
fn severed_slave_fails_its_requests_and_the_run_returns() {
    let schedule = ArrivalSchedule::generate(SEED, 2_000.0, 200);
    let mut opts = channel_opts(3);
    opts.run.fault = Some(FaultSpec { victim: 1, after_sends: 5 });
    let r = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("the run must return");
    assert!(r.errors > 0, "requests routed to the dead slave must fail");
    assert_eq!(r.completed + r.misses + r.errors, 200, "every request is accounted for");
    assert_eq!(r.slave_hits[0], -1, "the dead slave's counter cannot be read");
    assert!(r.slave_hits[1] > 0, "the surviving slave must keep serving");
    assert_eq!(r.outcome.flight.reason, "peer-gone");
}

/// The same driver works over real loopback sockets.
#[test]
fn serving_works_over_tcp() {
    let schedule = ArrivalSchedule::generate(SEED, 500.0, 60);
    let mut opts = channel_opts(2);
    opts.run.transport = TransportKind::Tcp;
    let r = webserver_serve(OptConfig::ALL, &schedule, &opts).expect("tcp run");
    assert_eq!(r.errors, 0);
    assert_eq!(r.misses, 0);
    assert_eq!(r.completed as usize, r.intended);
    assert_eq!(r.outcome.transport, TransportKind::Tcp);
    assert_eq!(r.slave_hits.iter().sum::<i64>(), 60);
}
