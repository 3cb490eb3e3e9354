//! The RMI dispatch path: marshal → send → unmarshal → invoke → reply,
//! with the paper's local-RPC cloning semantics and the §3.3 reuse
//! caches wired into (de)serialization. Each step of Figure 1 is written
//! once (DESIGN §5.1): `marshal` is `serialize_objects`, `round_trip` is
//! `wait(Machine 1)`, `callee` is `Unmarshaler_Example.foo`. Each boundary
//! between two steps of one half of a call is one clock reading (DESIGN
//! §7.2), shared by the phase that ends, the milestone there and the phase
//! that begins.

use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;

use corm_codegen::{
    DeserOutcome, MarshalPlan, SerNode, Serializer, ShadowCycleCheck, AUDIT_ERROR_PREFIX,
};
use corm_heap::{AllocAttribution, ObjRef, RemoteRef, Value};
use corm_ir::{CallSiteId, ClassId, MethodId};
use corm_net::Packet;
use corm_obs::recorder::{
    FLAG_ARGS_CYCLE_TABLE, FLAG_ARG_REUSE, FLAG_ONEWAY, FLAG_POOL_HIT, FLAG_RET_CYCLE_TABLE,
    FLAG_RET_REUSE,
};
use corm_obs::SiteMetrics;
use corm_wire::{DeserTable, Message, MessageReader, RmiStats, SerCycleTable};
use parking_lot::MutexGuard;

use crate::drain::WorkItem;
use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::machine::{lend, MachineState, ReuseSlot};
use crate::pool::Lane;
use crate::reply::Reply;
use crate::runtime::{CallCtx, Mark, Milestone};
use crate::trace::Phase;

/// One half of an RMI — the caller's or the callee's — on the machine it
/// runs on: settled before any byte moves, shared by every step.
struct Call<'a> {
    id: CallCtx<'a>,
    plan: &'a MarshalPlan,
    ser: Serializer<'a>,
    /// The machine the call was made on: it has reuse slots of its own.
    caller: u16,
    receiver: RemoteRef,
    oneway: bool,
}

/// The plan's applied verdicts (and whether the request buffer came out of
/// the pool) as flight-recorder flags: every event carries its site's config.
fn plan_flags(plan: &MarshalPlan, oneway: bool, pool_hit: bool) -> u8 {
    [
        (plan.args_cycle_table, FLAG_ARGS_CYCLE_TABLE),
        (plan.ret_cycle_table, FLAG_RET_CYCLE_TABLE),
        (plan.arg_reuse.iter().any(|&b| b), FLAG_ARG_REUSE),
        (plan.ret_reuse, FLAG_RET_REUSE),
        (oneway, FLAG_ONEWAY),
        (pool_hit, FLAG_POOL_HIT),
    ]
    .iter()
    .fold(0, |flags, &(on, bit)| if on { flags | bit } else { flags })
}

/// Cross-link an auditor failure back to the compile-time decision that
/// caused it: `analysis-audit` errors get the site's recorded provenance
/// (verdict, rule, witness) appended — the claim the runtime contradicted.
fn attach_provenance(plan: &MarshalPlan, e: impl std::fmt::Display) -> VmError {
    let msg = e.to_string();
    let header = format!("analysis provenance for call site {}:", plan.site.0);
    // Once per site: a marshal error reaches `serve_request` already explained.
    if msg.contains(AUDIT_ERROR_PREFIX) && !msg.contains(&header) {
        VmError::new(format!("{msg}\n  {header}\n{}", plan.provenance.render("    ")))
    } else {
        VmError::new(msg)
    }
}

/// Figure 1's `serialize_objects`: `values` through their plan `nodes`
/// onto the end of `buf`, under one cycle table where the plan kept it —
/// the machine's, lent to this message. Under audit (DESIGN §10) a plan that
/// elided the table gets a shadow one — exactly when an unsound
/// cycle-freedom verdict would go unnoticed.
fn marshal(
    call: &Call<'_>,
    state: &mut MachineState,
    nodes: &[SerNode],
    values: &[Value],
    cycle_table: bool,
    buf: Vec<u8>,
) -> VmResult<Vec<u8>> {
    let mut msg = Message::from_bytes(buf);
    let mut ct = cycle_table.then(|| lend(&mut state.ser_table, SerCycleTable::reset));
    let mut shadow = (call.id.rt.audit && !cycle_table).then(ShadowCycleCheck::new);
    for (node, &v) in nodes.iter().zip(values) {
        call.ser
            .serialize_audited(&state.heap, node, v, &mut ct, &mut msg, &mut shadow)
            .map_err(|e| attach_provenance(call.plan, e))?;
    }
    if let Some(table) = ct {
        state.ser_table = table;
    }
    if let Some(sh) = shadow {
        let shard = call.id.rt.obs.machine(call.id.at);
        shard.audit_tables.fetch_add(1, Relaxed);
        shard.audit_checks.fetch_add(sh.checks, Relaxed);
    }
    Ok(msg.into_bytes())
}

/// Execute a remote (or local-RPC) call at `site`. Returns the minted
/// request id beside the result, so a driver can correlate one call with
/// its flight-recorder and trace events — e.g. to tag SLO violators.
pub fn remote_call_with_req(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    site: CallSiteId,
    mid: MethodId,
    argv: &[Value],
    _want_ret: bool,
    oneway: bool,
) -> VmResult<(Value, u64)> {
    let rt = interp.rt.clone();
    let plan = rt
        .plans
        .plan(site)
        .ok_or_else(|| VmError::new(format!("no marshal plan for call site {}", site.0)))?;
    debug_assert_eq!(plan.method, mid);

    let receiver = match argv[0] {
        Value::Remote(rr) => rr,
        Value::Null => {
            let name = &rt.module.table.method(mid).name;
            return Err(VmError::new(format!("null receiver calling remote {name}")));
        }
        other => return Err(VmError::new(format!("remote call on {other:?}"))),
    };
    // A reference can arrive off the wire; the fabric is indexed by it.
    let (to, n) = (receiver.machine, rt.machines.len());
    if to as usize >= n {
        return Err(VmError::new(format!("remote reference to machine {to}, cluster has {n}")));
    }

    // Mint the cluster-unique request id up front so the marshal phase
    // is already attributable to this RMI.
    let my = interp.machine_id();
    let req = guard.fresh_req_id();
    let shard = rt.obs.machine(my);
    let ser = Serializer::new(&rt.plans, &rt.module.table, &shard.stats);
    let mut call = Call { id: rt.call(my, req, site.0), plan, ser, caller: my, receiver, oneway };

    // The marshal phase ends at the next boundary: the `Send`, or the start
    // of a local call's clone-in — or here, if the marshal fails.
    let marshal_t0 = call.id.boundary(&[Mark::Begin(Phase::Marshal)]);
    // A one-way send never sees a reply, so its buffer cannot come back
    // to the pool: built once, primed to size. Every other one circulates.
    let (buf, pool_hit) = if oneway {
        (Vec::with_capacity(plan.args_wire_size_hint), false)
    } else {
        // Checked out under the request id: pipelined replies land in
        // any order, so the pool's ledger decides the slot they refill.
        rt.pool.checkout_for(my, req, site.0, Lane::Args, plan.args_wire_size_hint, shard)
    };
    let payload = marshal(&call, guard, &plan.args, &argv[1..], plan.args_cycle_table, buf)
        .inspect_err(|_| {
            call.id.boundary(&[Mark::End(Phase::Marshal, marshal_t0)]);
        })?;
    call.id.flags = plan_flags(plan, oneway, pool_hit);

    let scope = rt.site_metrics(site);
    scope.calls.fetch_add(1, Relaxed);
    scope.payload_bytes.record(payload.len() as u64);
    shard.payload_bytes.record(payload.len() as u64);

    if !oneway {
        shard.requests_started.fetch_add(1, Relaxed);
    }
    let result = if receiver.machine == my {
        local_rpc(interp, guard, &call, scope, payload, marshal_t0)
    } else {
        wire_rpc(interp, guard, &call, scope, payload, marshal_t0)
    };
    if !oneway {
        if result.is_ok() {
            shard.requests_completed.fetch_add(1, Relaxed);
        } else {
            // The buffer died with the failed call: retire its ledger entry,
            // if still there, so the id can't alias a future check-in.
            rt.pool.abandon(my, req, shard);
        }
    }
    // A pacing point: the reply just unmarshaled (or, for a local call, the
    // arguments cloned in) is garbage-to-be on this heap. What came back is in
    // no frame yet, and a harness caller's `argv` never is: both are held here.
    let value = result?;
    if guard.heap.gc_due() {
        let held: Vec<Value> = argv.iter().copied().chain([value]).collect();
        interp.collect(guard, &held);
    }
    Ok((value, req))
}

/// "If the remote object ... is (accidentally) located on the same machine
/// as the invoking machine, the parameter and return value objects are
/// cloned" (§1) — through the same serializer programs and reuse caches: the
/// caller lends the [`callee`] its own `Interp`, and only the wire transit is
/// skipped. Two things differ from a wire call on purpose (DESIGN §5.1). A
/// *one-way* local call unmarshals here, on the caller's thread, and never
/// refills the argument caches. And the buffers pool by lane: the request's is
/// back in `Lane::Args` once the clone-in is done with it, the return value
/// clones through a `Lane::Ret` one — the two payloads differ in size. Each
/// phase is the caller machine's: the clone-in is an unmarshal, the return
/// value's clone a marshal and an unmarshal.
fn local_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    call: &Call<'_>,
    scope: &SiteMetrics,
    request: Vec<u8>,
    marshal_t0: u64,
) -> VmResult<Value> {
    let &Call { id, plan, oneway, .. } = call;
    let (rt, my) = (id.rt, id.at);
    let shard = rt.obs.machine(my);
    RmiStats::bump(&shard.stats.local_rpcs, 1);
    let bytes = request.len();

    // The caller's share — clone in, invoke (or launch, for a spawn), marshal
    // what comes back — runs from the marshal's end to one `Local` milestone,
    // raised or not.
    let since =
        id.boundary(&[Mark::End(Phase::Marshal, marshal_t0), Mark::Begin(Phase::Unmarshal)]);
    let local = Mark::At(bytes, Milestone::Local { since, scope });
    if oneway {
        let argv = deserialize_args(call, guard, &request);
        id.boundary(&[Mark::End(Phase::Unmarshal, since)]);
        let thread = ("corm-local-spawn", "spawned rmi");
        let launched = argv.and_then(|(argv, _)| interp.spawn(guard, plan.method, argv, thread));
        id.boundary(&[local]);
        return launched.map(|()| Value::Null);
    }
    let (cloned_out, open) = callee(
        interp,
        guard,
        call,
        request,
        since,
        |request, _| rt.pool.put_for(my, id.req, request, shard),
        || rt.pool.checkout(my, id.site, Lane::Ret, plan.ret_wire_size_hint, shard).0,
    );
    let ret_bytes = match cloned_out {
        Ok(Some(ret_bytes)) => ret_bytes,
        done => {
            id.boundary(&[open, local]);
            return done.map(|_| Value::Null);
        }
    };
    let t0 = id.boundary(&[open, local, Mark::Begin(Phase::Unmarshal)]);
    let out = deserialize_ret(call, guard, &ret_bytes);
    id.boundary(&[Mark::End(Phase::Unmarshal, t0)]);
    rt.pool.put(my, id.site, Lane::Ret, ret_bytes, shard);
    out
}

fn wire_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    call: &Call<'_>,
    scope: &SiteMetrics,
    payload: Vec<u8>,
    marshal_t0: u64,
) -> VmResult<Value> {
    let &Call { id, plan, receiver, oneway, .. } = call;
    let (rt, my, to) = (id.rt, id.at, receiver.machine);
    let shard = rt.obs.machine(my);
    RmiStats::bump(&shard.stats.remote_rpcs, 1);

    let bytes = payload.len();
    let packet = Packet::Request {
        req_id: id.req,
        from: my,
        site: id.site,
        target_obj: receiver.obj.0,
        payload,
        oneway,
    };
    // Lands before the packet leaves: the flight ring exists for calls
    // whose reply never arrives. The same stamp ends the marshal.
    let sent = Mark::At(bytes, Milestone::Send { to, oneway });
    let since = id.boundary(&[Mark::End(Phase::Marshal, marshal_t0), sent]);
    // Fault injection: the N-th request toward the victim pulls its power
    // cord *before* the packet goes out — it is lost in flight and the
    // survivors are told `PeerGone`. Part of the send, so the call it kills is
    // already open and the drain loop fails it, whichever thread runs first.
    let send = || {
        if let Some(fault) = rt.fault {
            if to == fault.victim && rt.fault_sends.fetch_add(1, Relaxed) + 1 == fault.after_sends {
                rt.net.sever(fault.victim);
            }
        }
        rt.net.send(my, to, packet);
    };
    if oneway {
        interp.off_lock(guard, |_, g| MutexGuard::unlocked(g, send));
        return Ok(Value::Null);
    }
    shard.in_flight.fetch_add(1, Relaxed);
    let result = round_trip(interp, guard, id.req, to, send);
    shard.in_flight.fetch_sub(1, Relaxed);

    match result {
        Err(remote_err) => {
            id.boundary(&[Mark::At(0, Milestone::Fail { peer: to })]);
            Err(VmError::new(format!("remote exception: {remote_err}")))
        }
        Ok(payload) => {
            let returned = Mark::At(payload.len(), Milestone::Return { from: to, since, scope });
            let out = if plan.ret_ignored || plan.ret.is_none() {
                id.boundary(&[returned]);
                Ok(Value::Null)
            } else {
                let t0 = id.boundary(&[returned, Mark::Begin(Phase::Unmarshal)]);
                let out = deserialize_ret(call, guard, &payload);
                id.boundary(&[Mark::End(Phase::Unmarshal, t0)]);
                out
            };
            // The reply payload is the request buffer coming home (over a
            // socket, a fresh Vec accounted the same): checked in under the
            // request id, it closes the per-site recycling loop.
            rt.pool.put_for(my, id.req, payload, shard);
            out
        }
    }
}

/// Figure 1's `wait(Machine 1)`: open call `req` of this machine toward
/// `to`, `send` its packet and sleep, off the machine lock, until the reply
/// completes the call where it is received, or the drain loop fails it with
/// the peer's death. The transport drops what is sent to a dead peer, so the
/// table refuses a call to one.
fn round_trip(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    req: u64,
    to: u16,
    send: impl FnOnce(),
) -> Reply {
    interp.about_to_wait();
    if let Err(why) = interp.machine.pending.open(req, to, &interp.waiter) {
        interp.rt.flight_failed.lock().push(req);
        return Err(why);
    }
    interp.off_lock(guard, |me, g| {
        MutexGuard::unlocked(g, || {
            send();
            me.waiter.wait()
        })
    })
}

/// The callee half of an RMI — Figure 1's `Unmarshaler_Example.foo` — on
/// whichever thread lends its `Interp`: a drain thread, a one-way request's own
/// thread, or the caller itself for a local RPC. Unmarshal the arguments out
/// of `request`, invoke, refill the caller's argument caches, marshal the
/// return value: `None` where there is none (void, ignored, one-way). Whose
/// buffers these are is the lender's business: `unmarshaled` gets `request`
/// back once the arguments are out of it, with the count of cached objects
/// recycled; `reply_buf` is asked, after the invocation, for one to marshal into.
///
/// The lender began the unmarshal phase at stamp `begun`; each later boundary
/// is one stamp that ends a phase and begins the next. Beside the result comes
/// the [`Mark::End`] of the phase still open — the reply's marshal, the invoke
/// when nothing goes back, or the phase that failed — for the lender to stamp
/// with its own milestone.
fn callee(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    call: &Call<'_>,
    request: Vec<u8>,
    begun: u64,
    unmarshaled: impl FnOnce(Vec<u8>, u64),
    reply_buf: impl FnOnce() -> Vec<u8>,
) -> (VmResult<Option<Vec<u8>>>, Mark<'static>) {
    let &Call { id, plan, caller, oneway, .. } = call;
    let mut open = Mark::End(Phase::Unmarshal, begun);
    let produced = (|| {
        let (argv, reused) = deserialize_args(call, guard, &request)?;
        open = Mark::End(Phase::Invoke, id.boundary(&[open, Mark::Begin(Phase::Invoke)]));
        unmarshaled(request, reused);

        // Fig. 13's `temp_arr = t`: the roots the plan reuses outlive the
        // invocation and wait in the cache for this caller's next call. The
        // cache's pin is taken before the invocation: the handler may overwrite
        // the parameter — the one frame slot that holds a root — and then
        // allocate, so collect.
        let f = interp.func_of(plan.method)?;
        let reused_args = plan.arg_reuse.iter().enumerate().filter(|&(_, &reuse)| reuse);
        let roots: Vec<(usize, Value)> = reused_args.map(|(arg, _)| (arg, argv[arg + 1])).collect();
        let pins = || roots.iter().filter_map(|(_, root)| root.as_ref());
        pins().for_each(|root| guard.heap.pin(root));
        let ret = interp.call_in(guard, f, argv).inspect_err(|_| {
            // No `put_reuse` will follow: the graphs are garbage like any dead one.
            pins().for_each(|root| guard.heap.unpin(root));
        })?;
        for &(arg, root) in &roots {
            guard.put_reuse(ReuseSlot::Arg { site: plan.site, arg, caller }, root);
        }

        match &plan.ret {
            Some(node) if !(oneway || plan.ret_ignored) => {
                open = Mark::End(Phase::Marshal, id.boundary(&[open, Mark::Begin(Phase::Marshal)]));
                let mut buf = reply_buf();
                buf.clear();
                let (nodes, cycle_table) = (std::slice::from_ref(node), plan.ret_cycle_table);
                marshal(call, guard, nodes, &[ret], cycle_table, buf).map(Some)
            }
            _ => Ok(None),
        }
    })();
    (produced, open)
}

/// One value off the wire through its plan `node` — into the graph cached
/// in `slot`, where the plan `reuse`s there. Under audit that graph is
/// poisoned first: invisible if the reuse verdict is sound (the graph is dead,
/// every reclaimed slot overwritten); if not, a surviving alias sees sentinels.
fn unmarshal(
    call: &Call<'_>,
    guard: &mut MutexGuard<'_, MachineState>,
    node: &SerNode,
    reader: &mut MessageReader<'_>,
    dt: &mut Option<DeserTable>,
    slot: ReuseSlot,
    reuse: bool,
) -> VmResult<DeserOutcome> {
    let &Call { id, plan, .. } = call;
    let cached = if reuse { guard.take_reuse(slot) } else { Value::Null };
    if id.rt.audit && !matches!(cached, Value::Null) {
        let n = corm_heap::poison_graph(&mut guard.heap, cached);
        id.rt.obs.machine(id.at).audit_poisons.fetch_add(n, Relaxed);
    }
    let prev = guard.heap.set_attribution(AllocAttribution::Deserialization);
    let out = call.ser.deserialize(&mut guard.heap, node, reader, dt, cached);
    guard.heap.set_attribution(prev);
    // A `WireError`'s offsets cannot say *whose* payload was short: name the site.
    let site = plan.site.0;
    out.map_err(|e| attach_provenance(plan, format!("{e} (unmarshaling call site {site})")))
}

/// Unmarshal the invocation's arguments — the receiver, then what `request`
/// carries; also returns how many cached objects were recycled for them.
fn deserialize_args(
    call: &Call<'_>,
    guard: &mut MutexGuard<'_, MachineState>,
    request: &[u8],
) -> VmResult<(Vec<Value>, u64)> {
    let &Call { plan, caller, receiver, .. } = call;
    let mut reader = MessageReader::new(request);
    let mut dt = plan.args_cycle_table.then(|| lend(&mut guard.deser_table, DeserTable::reset));
    let mut reused = 0;
    let args = plan.args.iter().zip(&plan.arg_reuse).enumerate().map(|(arg, (node, &reuse))| {
        let slot = ReuseSlot::Arg { site: plan.site, arg, caller };
        let out = unmarshal(call, guard, node, &mut reader, &mut dt, slot, reuse)?;
        reused += out.reused;
        Ok(out.value)
    });
    let argv = std::iter::once(Ok(Value::Remote(receiver))).chain(args).collect::<VmResult<_>>()?;
    if let Some(table) = dt {
        guard.deser_table = table;
    }
    RmiStats::bump(&call.ser.stats.reused_objs, reused);
    Ok((argv, reused))
}

/// Unmarshal the return value of `call` straight off the reply `payload`:
/// the Vec stays with the caller for pool check-in.
fn deserialize_ret(
    call: &Call<'_>,
    guard: &mut MutexGuard<'_, MachineState>,
    payload: &[u8],
) -> VmResult<Value> {
    let plan = call.plan;
    let node = plan.ret.as_ref().expect("ret plan");
    let mut dt = plan.ret_cycle_table.then(|| lend(&mut guard.deser_table, DeserTable::reset));
    let slot = ReuseSlot::Ret { site: plan.site };
    let reader = &mut MessageReader::new(payload);
    let out = unmarshal(call, guard, node, reader, &mut dt, slot, plan.ret_reuse)?;
    if let Some(table) = dt {
        guard.deser_table = table;
    }
    RmiStats::bump(&call.ser.stats.reused_objs, out.reused);
    if plan.ret_reuse {
        guard.put_reuse(slot, out.value);
    }
    Ok(out.value)
}

/// Instantiate a remote-class object on `target`.
pub fn new_remote(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    class: ClassId,
    target: u16,
) -> VmResult<Value> {
    let my = interp.machine_id();
    if target == my {
        let obj = guard.alloc_zeroed(&interp.rt.module.table, class);
        guard.heap.pin(obj); // exported
        return Ok(Value::Remote(RemoteRef { machine: my, obj, class }));
    }
    let req_id = guard.fresh_req_id();
    let packet = Packet::NewRemote { req_id, from: my, class: class.0 };
    let rt = interp.rt.clone();
    let obj = round_trip(interp, guard, req_id, target, || rt.net.send(my, target, packet))
        .map_err(|e| VmError::new(format!("remote allocation failed: {e}")))
        .and_then(|payload| new_remote_reply(&payload))?;
    Ok(Value::Remote(RemoteRef { machine: target, obj, class }))
}

/// What a `NewRemote` reply carries: the new object's id on its machine,
/// four bytes. They come off the wire, so fewer is an error, not a panic.
fn new_remote_reply(payload: &[u8]) -> VmResult<ObjRef> {
    let id = payload.first_chunk::<4>().ok_or_else(|| {
        let n = payload.len();
        VmError::new(format!("remote allocation failed: short reply ({n} of 4 bytes)"))
    })?;
    Ok(ObjRef(u32::from_le_bytes(*id)))
}

/// Serve one incoming request on the thread that lends `interp`: run the
/// [`callee`] under the machine lock and send what it produced home. A
/// two-way request's failure travels in its reply; a one-way's is returned.
pub(crate) fn serve_request(interp: &mut Interp, item: WorkItem) -> VmResult<()> {
    let WorkItem { req, from, site, target_obj, payload, oneway, enq_us } = item;
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    let plan = rt.plans.plan(CallSiteId(site));
    let mut id = rt.call(my, req, site);
    id.flags = plan.map_or(0, |p| plan_flags(p, oneway, false));
    let request_bytes = payload.len();
    let draining = interp.draining;

    // The request buffer becomes the reply payload — the return marshal, or
    // cleared for a bare ack — so on the channel backend its capacity rides
    // home and closes the caller's recycling loop with no server-side pool.
    let (held, reused) = (Cell::new(Vec::new()), Cell::new(0));
    let unmarshaled = |request, n| {
        held.set(request);
        reused.set(n);
    };
    let call = plan.map(|plan| {
        let ser = Serializer::new(&rt.plans, &rt.module.table, &rt.obs.machine(my).stats);
        let class = rt.module.table.method(plan.method).owner;
        let receiver = RemoteRef { machine: my, obj: ObjRef(target_obj), class };
        Call { id, plan, ser, caller: from, receiver, oneway }
    });
    let (result, open, since, gc_due) = {
        let guard = &mut rt.machine(my).enter();
        // The handler starts, under the machine lock: one stamp closes the
        // queue phase — the drain loop's, for a one-way request on its own
        // thread; an empty one for a request its drainer serves — and opens
        // the unmarshal and the handle span.
        let queue = enq_us.map_or(Mark::Empty(Phase::Queue), |t0| Mark::End(Phase::Queue, t0));
        let since = id.boundary(&[queue, Mark::Begin(Phase::Unmarshal)]);
        let (result, open) = match &call {
            Some(call) => callee(interp, guard, call, payload, since, unmarshaled, || held.take()),
            None => {
                let e = VmError::new(format!("no unmarshal plan for site {site}"));
                (Err(e), Mark::End(Phase::Unmarshal, since))
            }
        };
        (result, open, since, guard.heap.gc_due())
    };
    if draining && !interp.draining {
        // The handler gave the drain role up: it queues again before its reply leaves.
        interp.machine.drain.requeue();
    }

    let handled = Milestone::Handle { from, since, reused: reused.get() };
    id.boundary(&[open, Mark::At(request_bytes, handled)]);
    let served = if oneway {
        result.map(drop)
    } else {
        let (payload, err) = match result {
            Ok(Some(ret)) => (ret, None),
            Ok(None) => {
                let mut ack = held.take();
                ack.clear();
                (ack, None)
            }
            Err(e) => (Vec::new(), Some(e.message)),
        };
        rt.net.send(my, from, Packet::Reply { req_id: req, payload, err });
        Ok(())
    };
    // The request's pacing point: its arguments are garbage now. The collection
    // it may owe runs here, after the reply has left, so the pause is not in
    // the caller's round trip; the lock is retaken only when one was due.
    if gc_due {
        interp.pace_gc(&mut rt.machine(my).enter());
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_new_remote_reply_is_an_error_not_a_panic() {
        for n in 0..4 {
            let err = new_remote_reply(&[7; 3][..n]).expect_err("fewer than four bytes");
            assert!(err.message.ends_with(&format!("short reply ({n} of 4 bytes)")), "{err}");
        }
        assert_eq!(new_remote_reply(&[1, 1, 0, 0]).unwrap(), ObjRef(257));
    }
}
