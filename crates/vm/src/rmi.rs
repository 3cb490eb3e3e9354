//! The RMI dispatch path: marshal → send → unmarshal → invoke → reply,
//! with the paper's local-RPC cloning semantics and the §3.3 reuse
//! caches wired into (de)serialization.

use std::sync::atomic::Ordering::Relaxed;

use corm_codegen::{MarshalPlan, Serializer, ShadowCycleCheck, AUDIT_ERROR_PREFIX};
use corm_heap::{AllocAttribution, ObjRef, Value};
use corm_ir::{CallSiteId, ClassId, MethodId};
use corm_net::Packet;
use corm_obs::recorder::{
    FLAG_ARGS_CYCLE_TABLE, FLAG_ARG_REUSE, FLAG_ONEWAY, FLAG_POOL_HIT, FLAG_RET_CYCLE_TABLE,
    FLAG_RET_REUSE,
};
use corm_obs::SiteMetrics;
use corm_wire::{DeserTable, Message, MessageReader, RmiStats, SerCycleTable};
use parking_lot::MutexGuard;

use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::machine::{peer_gone, MachineState, ReplySlot, ReuseSlot};
use crate::pool::Lane;
use crate::runtime::{Milestone, Runtime};
use crate::trace::Phase;

/// Shadow table for the audit mode (DESIGN §10): created only when
/// auditing is on *and* the plan statically elided the real cycle table —
/// i.e. exactly when an unsound cycle-freedom verdict would otherwise go
/// unnoticed.
fn audit_shadow(rt: &Runtime, has_real_table: bool) -> Option<ShadowCycleCheck> {
    if rt.audit && !has_real_table {
        Some(ShadowCycleCheck::new())
    } else {
        None
    }
}

/// Fold a finished shadow table into the machine's metrics shard
/// (`corm_audit_tables_total`, `corm_audit_checks_total`).
fn absorb_shadow(rt: &Runtime, my: u16, shadow: Option<ShadowCycleCheck>) {
    if let Some(sh) = shadow {
        let shard = rt.obs.machine(my);
        shard.audit_tables.fetch_add(1, Relaxed);
        shard.audit_checks.fetch_add(sh.checks, Relaxed);
    }
}

/// The plan's applied verdicts (and whether the request buffer came out of
/// the pool) packed as flight-recorder flags, so every recorded event
/// carries the config decisions in effect at its site.
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

/// Unmarshal failures name their call site (the byte offsets inside the
/// [`corm_wire::WireError`] alone cannot say *whose* payload was short),
/// and analysis-audit errors additionally carry the site's provenance
/// via [`attach_provenance`].
fn unmarshal_context(plan: &MarshalPlan, site: CallSiteId, e: impl std::fmt::Display) -> VmError {
    attach_provenance(plan, site, format!("{e} (unmarshaling call site {})", site.0))
}

/// Cross-link an auditor failure back to the compile-time decision that
/// caused it: `analysis-audit` errors get the offending site's recorded
/// provenance (verdict, rule, witness) appended, so the report names the
/// exact analysis claim the runtime just contradicted.
fn attach_provenance(plan: &MarshalPlan, site: CallSiteId, e: impl std::fmt::Display) -> VmError {
    let msg = e.to_string();
    if msg.contains(AUDIT_ERROR_PREFIX) {
        VmError::new(format!(
            "{msg}\n  analysis provenance for call site {}:\n{}",
            site.0,
            plan.provenance.render("    ")
        ))
    } else {
        VmError::new(msg)
    }
}

/// Poison a reuse-cache hit before the deserializer reclaims it. A sound
/// reuse verdict makes this invisible (the cached graph is dead and every
/// reclaimed slot is overwritten from the wire); an unsound one lets a
/// surviving alias observe the sentinels, diverging the program output.
fn audit_poison(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    reuse: Value,
) -> Value {
    if rt.audit && !matches!(reuse, Value::Null) {
        let n = corm_heap::poison_graph(&mut guard.heap, reuse);
        rt.obs.machine(my).audit_poisons.fetch_add(n, Relaxed);
    }
    reuse
}

/// Execute a remote (or local-RPC) call at `site`.
pub fn remote_call(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    site: CallSiteId,
    mid: MethodId,
    argv: &[Value],
    want_ret: bool,
    oneway: bool,
) -> VmResult<Value> {
    remote_call_with_req(interp, guard, site, mid, argv, want_ret, oneway).map(|(v, _)| v)
}

/// Like [`remote_call`], but also returns the minted request id, letting
/// drivers (the open-loop serving benchmark) correlate one call with its
/// flight-recorder and trace events — e.g. to tag SLO violators.
#[allow(clippy::too_many_arguments)]
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
    let plans = rt.plans.clone();
    let plan = plans
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
    if receiver.machine as usize >= rt.machines.len() {
        return Err(VmError::new(format!(
            "remote reference to machine {}, cluster has {}",
            receiver.machine,
            rt.machines.len()
        )));
    }

    // Mint the cluster-unique request id up front so the marshal phase
    // is already attributable to this RMI.
    let my = interp.machine_id();
    let req = guard.fresh_req_id();
    let shard = rt.obs.machine(my);

    // Marshal the arguments (Figure 1's `serialize_objects`). The
    // serializer bumps this machine's metrics shard.
    let ser = Serializer::new(&plans, &rt.module.table, &shard.stats);
    let (msg, pool_hit) = rt.in_phase(my, Phase::Marshal, req, site.0, || {
        // One-way sends never see a reply, so their buffer could not
        // return to the pool; they get capacity-primed one-shot
        // construction instead (apps only spawn at startup). Everything
        // else checks out of the per-site pool and the buffer circulates
        // back after the reply is deserialized.
        let (buf, pool_hit) = if oneway {
            (Vec::with_capacity(plan.args_wire_size_hint), false)
        } else {
            // Checked out under the request id: with pipelined transports
            // the replies that return these buffers can land in any order,
            // so the pool's ledger — not completion order — decides the
            // slot.
            rt.pool.checkout_for(my, req, site.0, Lane::Args, plan.args_wire_size_hint, shard)
        };
        let mut msg = Message::from_bytes(buf);
        let mut ct = if plan.args_cycle_table { Some(SerCycleTable::new()) } else { None };
        let mut shadow = audit_shadow(&rt, plan.args_cycle_table);
        for (i, node) in plan.args.iter().enumerate() {
            ser.serialize_audited(&guard.heap, node, argv[i + 1], &mut ct, &mut msg, &mut shadow)
                .map_err(|e| attach_provenance(plan, site, e))?;
        }
        absorb_shadow(&rt, my, shadow);
        Ok::<_, VmError>((msg, pool_hit))
    })?;

    // The per-site scope sits behind the registry-wide site lock:
    // resolved here, once, and carried through the rest of the RMI.
    let scope = rt.obs.site(site.0);
    scope.calls.fetch_add(1, Relaxed);
    let payload_len = msg.as_bytes().len() as u64;
    scope.payload_bytes.record(payload_len);
    shard.payload_bytes.record(payload_len);

    if !oneway {
        shard.requests_started.fetch_add(1, Relaxed);
    }
    let flags = plan_flags(plan, oneway, pool_hit);
    let call = Call { plan, ser: &ser, site, req, receiver, oneway, flags, scope: &scope };
    let result = if receiver.machine == my {
        local_rpc(interp, guard, &call, msg)
    } else {
        wire_rpc(interp, guard, &call, msg)
    };
    if !oneway {
        if result.is_ok() {
            shard.requests_completed.fetch_add(1, Relaxed);
        } else {
            // The buffer died with the failed call; retire its ledger
            // entry so the id can't alias a future check-in. (No-op when
            // the call already consumed the entry before failing.)
            rt.pool.abandon(my, req, shard);
        }
    }
    result.map(|v| (v, req))
}

/// What [`remote_call_with_req`] has settled by the time a call leaves for
/// its target; shared by the local-clone and the wire path.
#[derive(Clone, Copy)]
struct Call<'a> {
    plan: &'a MarshalPlan,
    ser: &'a Serializer<'a>,
    site: CallSiteId,
    req: u64,
    receiver: corm_heap::RemoteRef,
    oneway: bool,
    /// The plan's verdicts and the pool outcome, as flight-recorder flags.
    flags: u8,
    /// The call site's metrics scope.
    scope: &'a SiteMetrics,
}

/// "If the remote object ... is (accidentally) located on the same machine
/// as the invoking machine, the parameter and return value objects are
/// cloned" (§1). The clone goes through the same serializer programs and
/// reuse caches; only the wire transit is skipped.
fn local_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    call: &Call<'_>,
    msg: Message,
) -> VmResult<Value> {
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    let shard = rt.obs.machine(my);
    let Call { plan, ser, site, req, receiver, oneway, flags, scope } = *call;
    RmiStats::bump(&shard.stats.local_rpcs, 1);
    let since = rt.now_us();
    let bytes = msg.as_bytes().len();

    // The caller's share of the call — clone in, invoke (or launch, for a
    // spawn) — ends in one `Local` milestone whether or not the callee
    // raised. `None` is a launched spawn: nothing comes back.
    let invoked: VmResult<Option<Value>> = (|| {
        let (vals, _) = rt.in_phase(my, Phase::Unmarshal, req, site.0, || {
            deserialize_args(&rt, my, guard, ser, plan, site, my, &mut msg.reader())
        })?;
        // The clone is done with the request bytes; recycle them for the
        // site's next call (one-way buffers were never pooled).
        if !oneway {
            rt.pool.put_for(my, req, msg.into_bytes(), shard);
        }

        let f = interp.func_of(plan.method)?;
        let mut args = vec![Value::Remote(receiver)];
        args.extend(vals.iter().copied());

        if oneway {
            // spawn on a local object: run on a fresh local thread
            let rt2 = rt.clone();
            let handle = crate::runtime::spawn_vm_thread("corm-local-spawn", move || {
                let mut i2 = Interp::new(rt2.clone(), my);
                if let Err(e) = i2.run_function(f, args) {
                    rt2.print(&format!("[machine {my}] spawned rmi failed: {e}\n"));
                }
            });
            rt.spawned.lock().push(handle);
            return Ok(None);
        }

        let ret = rt.in_phase(my, Phase::Invoke, req, site.0, || interp.call_in(guard, f, args))?;
        update_arg_caches(guard, plan, site, my, &vals);
        Ok(Some(ret))
    })();
    rt.milestone(my, req, site.0, flags, bytes, Milestone::Local { since, scope });

    // Clone the return value through serialization as well. The clone
    // buffer pools on its own lane: return payloads have a different
    // steady-state size than request payloads.
    let wanted = plan.ret.as_ref().filter(|_| !plan.ret_ignored);
    let (Some(ret), Some(node)) = (invoked?, wanted) else { return Ok(Value::Null) };
    let (rbuf, _ret_hit) = rt.pool.checkout(my, site.0, Lane::Ret, plan.ret_wire_size_hint, shard);
    let mut rmsg = Message::from_bytes(rbuf);
    let mut rct = if plan.ret_cycle_table { Some(SerCycleTable::new()) } else { None };
    let mut shadow = audit_shadow(&rt, plan.ret_cycle_table);
    ser.serialize_audited(&guard.heap, node, ret, &mut rct, &mut rmsg, &mut shadow)
        .map_err(|e| attach_provenance(plan, site, e))?;
    absorb_shadow(&rt, my, shadow);
    let ret_bytes = rmsg.into_bytes();
    let out = deserialize_ret(&rt, my, guard, ser, plan, site, &ret_bytes);
    rt.pool.put(my, site.0, Lane::Ret, ret_bytes, shard);
    out
}

fn wire_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    call: &Call<'_>,
    msg: Message,
) -> VmResult<Value> {
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    let shard = rt.obs.machine(my);
    let Call { plan, ser, site, req, receiver, oneway, flags, scope } = *call;
    let to = receiver.machine;
    RmiStats::bump(&shard.stats.remote_rpcs, 1);

    let payload = msg.into_bytes();
    let bytes = payload.len();
    let packet = Packet::Request {
        req_id: req,
        from: my,
        site: site.0,
        target_obj: receiver.obj.0,
        payload,
        oneway,
    };
    // Lands before the packet leaves: the flight ring exists for calls
    // whose reply never arrives.
    let since = rt.milestone(my, req, site.0, flags, bytes, Milestone::Send { to, oneway });
    // Fault injection: the N-th request toward the victim pulls its power
    // cord *before* the packet goes out — the request is lost in flight
    // and the transport broadcasts `PeerGone` to the survivors.
    if let Some(fault) = rt.fault {
        if to == fault.victim && rt.fault_sends.fetch_add(1, Relaxed) + 1 == fault.after_sends {
            rt.net.sever(fault.victim);
        }
    }
    if oneway {
        MutexGuard::unlocked(guard, || rt.net.send(my, to, packet));
        return Ok(Value::Null);
    }
    shard.in_flight.fetch_add(1, Relaxed);
    let result = round_trip(interp, guard, req, to, packet);
    shard.in_flight.fetch_sub(1, Relaxed);

    match result {
        Err(remote_err) => {
            rt.milestone(my, req, site.0, flags, 0, Milestone::Fail { peer: to });
            Err(VmError::new(format!("remote exception: {remote_err}")))
        }
        Ok(payload) => {
            let done = Milestone::Return { from: to, since, scope };
            rt.milestone(my, req, site.0, flags, payload.len(), done);
            // The reply payload is the request buffer coming home: the
            // server reuses it for the return marshal (or clears it for
            // a bare ack), so checking it in here closes the per-site
            // recycling loop. On TCP the receiver decoded into a fresh
            // Vec, but the hit/miss accounting is identical either way.
            // Check-in goes through the request-id ledger: pipelined
            // replies can land out of order, and the ledger routes each
            // buffer back to the slot it was checked out of.
            if plan.ret_ignored || plan.ret.is_none() {
                rt.pool.put_for(my, req, payload, shard);
                return Ok(Value::Null);
            }
            let out = rt.in_phase(my, Phase::Unmarshal, req, site.0, || {
                deserialize_ret(&rt, my, guard, ser, plan, site, &payload)
            });
            rt.pool.put_for(my, req, payload, shard);
            out
        }
    }
}

/// Send `packet`, request `req` of this machine, to `to` and sleep until
/// the drain loop fills its reply slot with the reply or with the peer's
/// death — Figure 1's `wait(Machine 1)`. The transport drops what is sent
/// to a dead peer, so a peer already known dead fails the call here: a
/// slot opened for it would never be filled.
fn round_trip(
    interp: &Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    req: u64,
    to: u16,
    packet: Packet,
) -> Result<Vec<u8>, String> {
    if guard.dead_peers.contains(&to) {
        interp.rt.flight_failed.lock().push(req);
        return Err(peer_gone(to));
    }
    guard.replies.insert(req, ReplySlot::Waiting { dest: to });
    MutexGuard::unlocked(guard, || interp.rt.net.send(interp.machine_id(), to, packet));
    loop {
        if let Some(ReplySlot::Ready(_)) = guard.replies.get(&req) {
            let Some(ReplySlot::Ready(r)) = guard.replies.remove(&req) else { unreachable!() };
            return r;
        }
        interp.machine.cv.wait(guard);
    }
}

/// Unmarshal the arguments of a request from machine `caller`; also
/// returns how many cached objects the reuse caches recycled for it.
#[allow(clippy::too_many_arguments)]
fn deserialize_args(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    ser: &Serializer<'_>,
    plan: &MarshalPlan,
    site: CallSiteId,
    caller: u16,
    reader: &mut corm_wire::MessageReader<'_>,
) -> VmResult<(Vec<Value>, u64)> {
    let mut dt = if plan.args_cycle_table { Some(DeserTable::new()) } else { None };
    let prev = guard.heap.set_attribution(AllocAttribution::Deserialization);
    let mut vals = Vec::with_capacity(plan.args.len());
    let mut total_reused = 0;
    let mut err = None;
    for (i, node) in plan.args.iter().enumerate() {
        let slot = ReuseSlot::Arg { site, arg: i, caller };
        let reuse = if plan.arg_reuse[i] { guard.take_reuse(slot) } else { Value::Null };
        let reuse = audit_poison(rt, my, guard, reuse);
        match ser.deserialize(&mut guard.heap, node, reader, &mut dt, reuse) {
            Ok(out) => {
                total_reused += out.reused;
                vals.push(out.value);
            }
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    guard.heap.set_attribution(prev);
    if let Some(e) = err {
        return Err(unmarshal_context(plan, site, e));
    }
    RmiStats::bump(&ser.stats.reused_objs, total_reused);
    Ok((vals, total_reused))
}

/// After the invocation completes, stash the deserialized argument roots
/// for `caller`'s next call through this unmarshaler (Fig. 13's
/// `temp_arr = t`).
fn update_arg_caches(
    guard: &mut MutexGuard<'_, MachineState>,
    plan: &MarshalPlan,
    site: CallSiteId,
    caller: u16,
    vals: &[Value],
) {
    for (arg, &reuse) in plan.arg_reuse.iter().enumerate() {
        if reuse {
            guard.put_reuse(ReuseSlot::Arg { site, arg, caller }, vals[arg]);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn deserialize_ret(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    ser: &Serializer<'_>,
    plan: &MarshalPlan,
    site: CallSiteId,
    payload: &[u8],
) -> VmResult<Value> {
    let node = plan.ret.as_ref().expect("ret plan");
    // Read straight off the payload slice — the reply Vec stays with the
    // caller for pool check-in (the old path copied it into a fresh
    // Message here).
    let mut reader = MessageReader::new(payload);
    let mut dt = if plan.ret_cycle_table { Some(DeserTable::new()) } else { None };
    let slot = ReuseSlot::Ret { site };
    let reuse = if plan.ret_reuse { guard.take_reuse(slot) } else { Value::Null };
    let reuse = audit_poison(rt, my, guard, reuse);
    let prev = guard.heap.set_attribution(AllocAttribution::Deserialization);
    let out = ser.deserialize(&mut guard.heap, node, &mut reader, &mut dt, reuse);
    guard.heap.set_attribution(prev);
    let out = out.map_err(|e| unmarshal_context(plan, site, e))?;
    RmiStats::bump(&ser.stats.reused_objs, out.reused);
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
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    if target == my {
        let obj = guard.alloc_zeroed(&rt.module.table, class);
        guard.heap.pin(obj); // exported
        return Ok(Value::Remote(corm_heap::RemoteRef { machine: my, obj, class }));
    }
    let req_id = guard.fresh_req_id();
    let packet = Packet::NewRemote { req_id, from: my, class: class.0 };
    let payload = round_trip(interp, guard, req_id, target, packet)
        .map_err(|e| VmError::new(format!("remote allocation failed: {e}")))?;
    let obj = ObjRef(u32::from_le_bytes(payload[..4].try_into().unwrap()));
    Ok(Value::Remote(corm_heap::RemoteRef { machine: target, obj, class }))
}

/// Server-side execution of one incoming request (Figure 1's
/// `Unmarshaler_Example.foo`).
#[allow(clippy::too_many_arguments)]
pub fn handle_request(
    rt: &std::sync::Arc<Runtime>,
    my: u16,
    req_id: u64,
    from: u16,
    site: u32,
    target_obj: u32,
    payload: Vec<u8>,
    oneway: bool,
    enq_us: u64,
) {
    let plans = rt.plans.clone();
    let site = CallSiteId(site);
    let machine = rt.machine(my).clone();
    let mut interp = Interp::new(rt.clone(), my);
    let shard = rt.obs.machine(my);
    // Close the queue phase the drain loop opened: the time between the
    // drainer receiving this request and this worker picking it up is
    // pure waiting — the component that dominates round trips on a
    // saturated server. The same stamp opens the handle span, so the
    // queue span ends exactly where the handle span begins.
    let since = rt.phase_end(my, Phase::Queue, req_id, site.0, enq_us);
    // Stall injection (RunOptions::stall): model a slow server by putting
    // the configured requests to sleep before any processing.
    if let Some(stall) = rt.stall {
        if stall.every > 0
            && stall.stall_us > 0
            && rt.stall_count.fetch_add(1, Relaxed).is_multiple_of(stall.every)
        {
            std::thread::sleep(std::time::Duration::from_micros(stall.stall_us));
        }
    }
    let request_bytes = payload.len();
    let mut reused = 0;

    let result: VmResult<Vec<u8>> = (|| {
        let plan = plans
            .plan(site)
            .ok_or_else(|| VmError::new(format!("no unmarshal plan for site {}", site.0)))?;
        let ser = Serializer::new(&plans, &rt.module.table, &shard.stats);
        let mut guard = machine.enter();

        let msg = Message::from_bytes(payload);
        let (vals, n) = rt.in_phase(my, Phase::Unmarshal, req_id, site.0, || {
            deserialize_args(rt, my, &mut guard, &ser, plan, site, from, &mut msg.reader())
        })?;
        reused = n;

        let meth = rt.module.table.method(plan.method);
        let this = Value::Remote(corm_heap::RemoteRef {
            machine: my,
            obj: ObjRef(target_obj),
            class: meth.owner,
        });
        let f = interp.func_of(plan.method)?;
        let mut args = vec![this];
        args.extend(vals.iter().copied());

        let ret =
            rt.in_phase(my, Phase::Invoke, req_id, site.0, || interp.call_in(&mut guard, f, args))?;
        update_arg_caches(&mut guard, plan, site, from, &vals);

        // The request buffer becomes the reply payload: cleared for a
        // bare ack (zero payload bytes — `wire_bytes` accounting is
        // unchanged), or reused for the return-value marshal. On the
        // channel backend its capacity rides back to the caller, closing
        // the pool's recycling loop without any server-side pool.
        let mut reply = msg.into_bytes();
        reply.clear();
        if oneway || plan.ret_ignored || plan.ret.is_none() {
            return Ok(reply); // bare ack
        }
        let node = plan.ret.as_ref().unwrap();
        let mut rmsg = Message::from_bytes(reply);
        let mut rct = if plan.ret_cycle_table { Some(SerCycleTable::new()) } else { None };
        let mut shadow = audit_shadow(rt, plan.ret_cycle_table);
        ser.serialize_audited(&guard.heap, node, ret, &mut rct, &mut rmsg, &mut shadow)
            .map_err(|e| attach_provenance(plan, site, e))?;
        absorb_shadow(rt, my, shadow);
        Ok(rmsg.into_bytes())
    })();

    let flags = plans.plan(site).map(|p| plan_flags(p, oneway, false)).unwrap_or(0);
    let served = Milestone::Handle { from, since, reused };
    rt.milestone(my, req_id, site.0, flags, request_bytes, served);
    if oneway {
        if let Err(e) = result {
            rt.print(&format!("[machine {my}] one-way request failed: {e}\n"));
        }
        return;
    }
    let (payload, err) = match result {
        Ok(payload) => (payload, None),
        Err(e) => (Vec::new(), Some(e.message)),
    };
    rt.net.send(my, from, Packet::Reply { req_id, payload, err });
}
