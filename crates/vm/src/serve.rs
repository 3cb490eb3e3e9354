//! The open-loop serving driver (DESIGN §8).
//!
//! Runs the webserver application as a *long-running sharded service*
//! instead of a fixed-iteration benchmark `main`: slaves are placed on
//! machines `1..M`, and a pool of client threads on machine 0 issues
//! `getPage` RMIs according to a pre-generated arrival schedule.
//!
//! The load is **open-loop**: request `k`'s intended send time is fixed
//! by the schedule before the run starts, and its latency is measured
//! against that *intended* arrival time — not against the moment the
//! client thread finally got around to sending it. A closed-loop
//! harness (issue, wait, issue) silently excuses a stalled server: while
//! one request is stuck, the requests that *would have* arrived are
//! simply never sent, so they never appear in the histogram. That
//! measurement bug is called coordinated omission; recording against
//! intended time is the standard fix, and `tests/serving.rs`'s
//! `stalled_server_inflates_intended_latency_while_completions_stay_high`
//! demonstrates the difference on a server whose handler sleeps.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use corm_codegen::Plans;
use corm_heap::Value;
use corm_ir::{CallSiteId, ClassId, MethodId, Module};
use corm_obs::{FlightDump, HistSnapshot, Log2Histogram};
use parking_lot::Mutex;

use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::rmi;
use crate::runtime::{spawn_vm_thread, Cluster, Mark, Milestone, RunOptions, RunOutcome};

/// The service entry points the driver resolves in the loaded module, by
/// name. Any compiled module shaped like the paper's webserver can be
/// served: a remote class `CLASS` with `INIT(npages, pageSize, id,
/// nslaves)`, a hot `CALL(String) -> obj` keyed by `"/page/N"` URLs routed
/// by Java string hash, and a `COUNTER() -> long` served-request count.
const CLASS: &str = "Slave";
const INIT: &str = "init";
const CALL: &str = "getPage";
const COUNTER: &str = "hitCount";

/// The page set every serving run is initialised with: `NPAGES` pages of
/// `PAGE_SIZE` ints, spread over the slaves.
const NPAGES: i32 = 20;
const PAGE_SIZE: i32 = 16;

/// A deterministic open-loop arrival process: request `k` is due at
/// `arrivals_us[k]` microseconds after the measurement epoch and fetches
/// page `pages[k]`. Inter-arrival gaps are exponentially distributed
/// (Poisson arrivals) at `rate_rps`, drawn from a seeded splitmix64
/// stream — the same `(seed, rate, requests)` always yields the same
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    pub seed: u64,
    pub rate_rps: f64,
    pub arrivals_us: Vec<u64>,
    pub pages: Vec<u32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from the top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ArrivalSchedule {
    pub fn generate(seed: u64, rate_rps: f64, requests: usize) -> ArrivalSchedule {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let mut rng = seed;
        let mut t = 0.0f64;
        let mut arrivals_us = Vec::with_capacity(requests);
        let mut pages = Vec::with_capacity(requests);
        for _ in 0..requests {
            // Exponential gap with mean 1/rate seconds. 1-u is in (0, 1]
            // so the log is finite.
            let u = unit(splitmix64(&mut rng));
            t += -(1.0 - u).ln() / rate_rps * 1e6;
            arrivals_us.push(t as u64);
            pages.push((splitmix64(&mut rng) % NPAGES as u64) as u32);
        }
        ArrivalSchedule { seed, rate_rps, arrivals_us, pages }
    }

    pub fn len(&self) -> usize {
        self.arrivals_us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals_us.is_empty()
    }
}

/// Options for one serving run. `run.machines` must be at least 2:
/// machine 0 hosts the clients, machines `1..M` each host one slave, so
/// every request crosses the wire (and the server-side work queue).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub run: RunOptions,
    /// Simulated client threads multiplexed over the transport.
    pub clients: usize,
    /// Latency SLO against intended arrival, in microseconds: slower
    /// requests are tagged with [`Milestone::Slo`] flight events and collected
    /// into [`ServeReport::violations`].
    pub slo_us: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { run: RunOptions::default(), clients: 4, slo_us: 50_000 }
    }
}

/// What one serving run measured.
#[derive(Debug)]
pub struct ServeReport {
    /// Requests in the schedule.
    pub intended: usize,
    /// Requests that completed with a page.
    pub completed: u64,
    /// Requests that completed with `null` (a routing bug, not load).
    pub misses: u64,
    /// Requests that failed with a VM or transport error.
    pub errors: u64,
    /// Measurement window: epoch to last completion, microseconds.
    pub serve_wall_us: u64,
    /// The schedule's arrival rate.
    pub offered_rps: f64,
    /// Completions per second over the measurement window.
    pub achieved_rps: f64,
    pub slo_us: u64,
    /// End-to-end latency against *intended* arrival time
    /// (coordinated-omission-safe).
    pub latency: HistSnapshot,
    /// Latency against the actual send time — the closed-loop view, kept
    /// next to `latency` so the omission gap is visible in the report.
    pub service: HistSnapshot,
    /// Request ids that blew `slo_us`, in completion order.
    pub violations: Vec<u64>,
    /// `counter()` per slave, queried after the drain.
    pub slave_hits: Vec<i64>,
    /// Flight-recorder dump taken while the violations were still hot in
    /// the rings (`None` when every request met the SLO).
    pub flight_slo: Option<FlightDump>,
    /// The usual end-of-run outcome: per-machine metrics (including the
    /// queue/marshal/unmarshal/invoke phase histograms), trace, flight.
    pub outcome: RunOutcome,
}

impl ServeReport {
    /// Whether every intended request was served. An error or a misrouted
    /// request is a correctness bug, not load, so this — not a latency
    /// budget — decides the exit code of `corm serve` and `corm top`.
    pub fn served_all(&self) -> bool {
        self.errors == 0 && self.misses == 0 && self.completed as usize == self.intended
    }
}

/// Java's `String.hashCode`, mirroring the `StrHash` builtin: the driver
/// routes URLs exactly as the in-language master does.
fn java_string_hash(s: &str) -> i32 {
    let mut h: i32 = 0;
    for c in s.chars() {
        h = h.wrapping_mul(31).wrapping_add(c as i32);
    }
    h
}

/// Resolve the single call site whose plan invokes `method` — the
/// webserver has exactly one site per RMI method; ties (if a future
/// service has several) break to the lowest site id for determinism.
fn site_of(plans: &Plans, method: MethodId) -> VmResult<CallSiteId> {
    plans
        .sites
        .iter()
        .filter(|(_, p)| p.method == method)
        .map(|(&s, _)| s)
        .min_by_key(|s| s.0)
        .ok_or_else(|| VmError::new(format!("no marshal plan targets method {}", method.0)))
}

struct ResolvedService {
    class: ClassId,
    init: (CallSiteId, MethodId),
    call: (CallSiteId, MethodId),
    counter: (CallSiteId, MethodId),
}

fn resolve(module: &Module, plans: &Plans) -> VmResult<ResolvedService> {
    let table = &module.table;
    let class =
        table.class_named(CLASS).ok_or_else(|| VmError::new(format!("no class named {CLASS}")))?;
    let method = |name: &str| -> VmResult<(CallSiteId, MethodId)> {
        let mid = table
            .find_method(class, name)
            .ok_or_else(|| VmError::new(format!("{CLASS} has no method {name}")))?;
        Ok((site_of(plans, mid)?, mid))
    };
    Ok(ResolvedService {
        class,
        init: method(INIT)?,
        call: method(CALL)?,
        counter: method(COUNTER)?,
    })
}

/// Run the service open-loop and measure it. See the module docs for the
/// measurement model; the [`ServeReport`] carries both the CO-safe and
/// the closed-loop histograms plus the full [`RunOutcome`].
pub fn serve(
    module: Arc<Module>,
    plans: Arc<Plans>,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
) -> Result<ServeReport, VmError> {
    serve_with(module, plans, schedule, opts, |_| {})
}

/// [`serve`] with an observer hook invoked once the cluster is up
/// (statics run, load not yet started). `corm top` uses it to grab the
/// live metrics registry and redraw from the timeline rings while the
/// benchmark drives.
pub fn serve_with(
    module: Arc<Module>,
    plans: Arc<Plans>,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
    on_start: impl FnOnce(&Cluster),
) -> Result<ServeReport, VmError> {
    assert!(opts.run.machines >= 2, "serving needs at least one slave machine besides the clients");
    let cluster = Cluster::start(module, plans, &opts.run);
    if let Some(e) = cluster.run_clinits() {
        cluster.finish(Some(e.clone()));
        return Err(e);
    }
    on_start(&cluster);
    match drive(&cluster, schedule, opts) {
        Ok(partial) => Ok(partial.into_report(cluster, schedule, opts)),
        Err(e) => {
            cluster.finish(Some(e.clone()));
            Err(e)
        }
    }
}

/// Everything measured before the cluster is torn down.
struct PartialReport {
    completed: u64,
    misses: u64,
    errors: u64,
    serve_wall_us: u64,
    latency: Arc<Log2Histogram>,
    service: Arc<Log2Histogram>,
    violations: Vec<u64>,
    slave_hits: Vec<i64>,
    flight_slo: Option<FlightDump>,
}

impl PartialReport {
    fn into_report(
        self,
        cluster: Cluster,
        schedule: &ArrivalSchedule,
        opts: &ServeOptions,
    ) -> ServeReport {
        let outcome = cluster.finish(None);
        let finished = self.completed + self.misses;
        let achieved_rps = if self.serve_wall_us > 0 {
            finished as f64 / (self.serve_wall_us as f64 / 1e6)
        } else {
            0.0
        };
        ServeReport {
            intended: schedule.len(),
            completed: self.completed,
            misses: self.misses,
            errors: self.errors,
            serve_wall_us: self.serve_wall_us,
            offered_rps: schedule.rate_rps,
            achieved_rps,
            slo_us: opts.slo_us,
            latency: self.latency.snapshot(),
            service: self.service.snapshot(),
            violations: self.violations,
            slave_hits: self.slave_hits,
            flight_slo: self.flight_slo,
            outcome,
        }
    }
}

fn drive(
    cluster: &Cluster,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
) -> VmResult<PartialReport> {
    let rt = cluster.rt.clone();
    let svc = resolve(&rt.module, &rt.plans)?;
    let nslaves = opts.run.machines - 1;

    // Instantiate and init one slave per serving machine. Slave `s`
    // lives on machine `s + 1`, so machine 0 is pure client and every
    // request is a wire RPC.
    let machine0 = rt.machine(0).clone();
    let mut interp = Interp::new(rt.clone(), 0);
    let mut slaves = Vec::with_capacity(nslaves);
    {
        let mut guard = machine0.enter();
        for s in 0..nslaves {
            let slave = rmi::new_remote(&mut interp, &mut guard, svc.class, (s + 1) as u16)?;
            let args = [
                slave,
                Value::Int(NPAGES),
                Value::Int(PAGE_SIZE),
                Value::Int(s as i32),
                Value::Int(nslaves as i32),
            ];
            let (site, init) = svc.init;
            rmi::remote_call_with_req(&mut interp, &mut guard, site, init, &args, false, false)?;
            slaves.push(slave);
        }
    }

    // Pre-build the URL strings on machine 0 (pinned: they are shared by
    // every client thread for the whole run) and their routes, using the
    // same Java string hash the in-language master uses.
    let mut urls = Vec::with_capacity(NPAGES as usize);
    let mut routes = Vec::with_capacity(NPAGES as usize);
    {
        let mut guard = machine0.state.lock();
        for pg in 0..NPAGES {
            let url = format!("/page/{pg}");
            let mut route = java_string_hash(&url) % nslaves as i32;
            if route < 0 {
                route += nslaves as i32;
            }
            let r = guard.heap.alloc_str(url);
            guard.heap.pin(r);
            urls.push(Value::Ref(r));
            routes.push(route as usize);
        }
    }

    // Shared measurement state.
    let shared = Arc::new(DriveShared {
        rt: rt.clone(),
        slaves,
        urls,
        routes,
        call: svc.call,
        slo_us: opts.slo_us,
        // Give the clients a settled epoch slightly in the future so
        // request 0's intended time is not already in the past.
        epoch_us: rt.now_us() + 1_000,
        arrivals_us: schedule.arrivals_us.clone(),
        pages: schedule.pages.clone(),
        next: AtomicUsize::new(0),
        completed: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        latency: Arc::new(Log2Histogram::default()),
        service: Arc::new(Log2Histogram::default()),
        violations: Mutex::new(Vec::new()),
    });

    let clients: Vec<_> = (0..opts.clients.max(1))
        .map(|_| {
            let sh = shared.clone();
            spawn_vm_thread("corm-client", move || client_loop(&sh))
        })
        .collect();
    for c in clients {
        let _ = c.join();
    }
    let serve_wall_us = rt.now_us().saturating_sub(shared.epoch_us);

    // Per-slave served counts, queried over the same RMI path.
    let mut slave_hits = Vec::with_capacity(nslaves);
    {
        let mut guard = machine0.enter();
        for &slave in &shared.slaves {
            let (site, counter) = svc.counter;
            let hit = rmi::remote_call_with_req(
                &mut interp,
                &mut guard,
                site,
                counter,
                &[slave],
                true,
                false,
            );
            slave_hits.push(match hit {
                Ok((Value::Long(n), _)) => n,
                _ => -1,
            });
        }
    }

    let violations = shared.violations.lock().clone();
    // Dump while the Slo events are still in the rings, so the artifact
    // names the offending request ids.
    let flight_slo = (!violations.is_empty()).then(|| {
        let mut d = rt.flight_dump("slo-violation");
        d.failing_reqs = violations.clone();
        d
    });

    Ok(PartialReport {
        completed: shared.completed.load(Relaxed),
        misses: shared.misses.load(Relaxed),
        errors: shared.errors.load(Relaxed),
        serve_wall_us,
        latency: shared.latency.clone(),
        service: shared.service.clone(),
        violations,
        slave_hits,
        flight_slo,
    })
}

struct DriveShared {
    rt: Arc<crate::runtime::Runtime>,
    slaves: Vec<Value>,
    urls: Vec<Value>,
    routes: Vec<usize>,
    call: (CallSiteId, MethodId),
    slo_us: u64,
    epoch_us: u64,
    arrivals_us: Vec<u64>,
    pages: Vec<u32>,
    next: AtomicUsize,
    completed: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    latency: Arc<Log2Histogram>,
    service: Arc<Log2Histogram>,
    violations: Mutex<Vec<u64>>,
}

/// One simulated client: claim the next schedule slot, sleep until its
/// intended arrival, issue the RMI, record latency against the intended
/// time. Slots are claimed globally, so a client stuck behind a slow
/// reply does not strand "its" future arrivals — another client picks
/// them up, keeping the load open-loop as long as the pool is deep
/// enough (and when the whole pool saturates, the intended-time baseline
/// still charges the backlog to the server).
fn client_loop(sh: &DriveShared) {
    let machine = sh.rt.machine(0).clone();
    let mut interp = Interp::new(sh.rt.clone(), 0);
    loop {
        let k = sh.next.fetch_add(1, Relaxed);
        if k >= sh.arrivals_us.len() {
            return;
        }
        let intended = sh.epoch_us + sh.arrivals_us[k];
        loop {
            let now = sh.rt.now_us();
            if now >= intended {
                break;
            }
            std::thread::sleep(Duration::from_micros(intended - now));
        }
        let pg = sh.pages[k] as usize % sh.urls.len();
        let target = sh.routes[pg];
        let send_us = sh.rt.now_us();
        let res = rmi::remote_call_with_req(
            &mut interp,
            &mut machine.enter(),
            sh.call.0,
            sh.call.1,
            &[sh.slaves[target], sh.urls[pg]],
            true,
            false,
        );
        let done_us = sh.rt.now_us();
        match res {
            Ok((val, req)) => {
                let lat = done_us.saturating_sub(intended);
                sh.latency.record(lat);
                sh.service.record(done_us.saturating_sub(send_us));
                if matches!(val, Value::Null) {
                    sh.misses.fetch_add(1, Relaxed);
                } else {
                    sh.completed.fetch_add(1, Relaxed);
                }
                if lat > sh.slo_us {
                    sh.violations.lock().push(req);
                    let missed = Milestone::Slo { server: (target + 1) as u16 };
                    sh.rt.call(0, req, sh.call.0 .0).boundary(&[Mark::At(lat as usize, missed)]);
                }
            }
            Err(_) => {
                sh.errors.fetch_add(1, Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_rate_shaped() {
        let a = ArrivalSchedule::generate(42, 1000.0, 500);
        let b = ArrivalSchedule::generate(42, 1000.0, 500);
        assert_eq!(a, b, "same seed must give the identical schedule");
        let c = ArrivalSchedule::generate(43, 1000.0, 500);
        assert_ne!(a.arrivals_us, c.arrivals_us, "different seeds must diverge");

        // Arrivals are sorted and the mean gap tracks 1/rate (1000 µs at
        // 1000 rps) within a loose statistical band.
        assert!(a.arrivals_us.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = *a.arrivals_us.last().unwrap() as f64 / a.len() as f64;
        assert!((500.0..2000.0).contains(&mean_gap), "mean gap {mean_gap} µs at 1000 rps");
        assert!(a.pages.iter().all(|&p| p < NPAGES as u32));
    }

    #[test]
    fn java_hash_matches_the_reference_values() {
        // Reference values from java.lang.String.hashCode.
        assert_eq!(java_string_hash(""), 0);
        assert_eq!(java_string_hash("a"), 97);
        assert_eq!(java_string_hash("ab"), 97 * 31 + 98);
        assert_eq!(java_string_hash("/page/0"), {
            let mut h: i32 = 0;
            for c in "/page/0".chars() {
                h = h.wrapping_mul(31).wrapping_add(c as i32);
            }
            h
        });
    }
}
