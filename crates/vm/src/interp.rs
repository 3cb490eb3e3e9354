//! The register-machine interpreter.
//!
//! One [`Interp`] per VM thread. The interpreter holds its machine's lock
//! while executing and releases it at blocking points (RMI waits, queue
//! operations, the cluster barrier) and periodically at safepoints so
//! concurrent handlers can run — always through [`Interp::off_lock`], which
//! leaves the thread's frames with the machine meanwhile. Frames live in an
//! explicit stack, which both bounds recursion and gives the garbage
//! collector exact roots: whichever thread collects sees every thread's.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use corm_codegen::AUDIT_ERROR_PREFIX;
use corm_heap::{ObjBody, Value};
use corm_ir::{
    BinKind, BlockId, CallTarget, ClassKind, Const, FuncId, Instr, MethodId, Reg, Terminator, Ty,
    UnKind,
};
use parking_lot::MutexGuard;

use crate::builtins;
use crate::error::{VmError, VmResult};
use crate::machine::{MachineShared, MachineState};
use crate::reply::Waiter;
use crate::rmi;
use crate::runtime::{spawn_detached, Runtime};
use crate::trace::TraceKind;

/// Thread name and failure label of a local `spawn`'s thread.
const USER_SPAWN: (&str, &str) = ("corm-user-spawn", "spawned thread");

/// An activation record.
pub struct Frame {
    pub func: FuncId,
    pub block: BlockId,
    pub ip: usize,
    pub regs: Vec<Value>,
    /// Register in the *caller* frame receiving the return value.
    pub ret_dst: Option<Reg>,
}

/// Interpreter state for one VM thread pinned to one machine.
pub struct Interp {
    pub rt: Arc<Runtime>,
    pub machine: Arc<MachineShared>,
    pub frames: Vec<Frame>,
    /// What this thread's frames are parked under in `MachineState::parked`.
    id: u64,
    /// Where this thread sleeps for the reply to its one outstanding call.
    pub(crate) waiter: Arc<Waiter>,
    /// This is a drain thread's `Interp`: it serves the handlers whose
    /// `serve.thread` verdict is `drain`, and must never wait for anything
    /// but the machine lock (see [`Interp::about_to_wait`]).
    pub(crate) on_drain: bool,
    steps: u64,
}

/// A key of `MachineState::parked` no one else has: an `Interp`'s for its own
/// frames, a spawner's for the arguments of a thread that has not started.
fn parking_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Relaxed)
}

impl Interp {
    pub fn new(rt: Arc<Runtime>, machine: u16) -> Self {
        let machine = rt.machine(machine).clone();
        let (id, waiter) = (parking_key(), Arc::default());
        Interp { rt, machine, frames: Vec::new(), id, waiter, on_drain: false, steps: 0 }
    }

    /// The one way a VM thread lets go of the machine lock. `wait` does the
    /// letting go — `MutexGuard::unlocked`, a condvar wait — and returns with
    /// the lock held again; for as long, the thread's frames stay with the
    /// machine, where a sibling that collects meanwhile finds them. The `Vec`
    /// moves out and back, so parking allocates nothing and copies no
    /// register; a thread with no frame (a harness caller) leaves nothing.
    pub(crate) fn off_lock<T>(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        wait: impl FnOnce(&Interp, &mut MutexGuard<'_, MachineState>) -> T,
    ) -> T {
        if self.frames.is_empty() {
            return wait(self, guard);
        }
        guard.parked.insert(self.id, std::mem::take(&mut self.frames));
        let out = wait(self, guard);
        self.frames = guard.parked.remove(&self.id).expect("parked frames wait for their thread");
        out
    }

    /// Called at every point where a VM thread is about to wait — for a
    /// reply, a queue, the barrier, a sleep — with the operation's name.
    /// The drain thread reaches one only if the may-block analysis cleared a
    /// method it should not have: an `analysis-audit` error, not a hang.
    pub(crate) fn about_to_wait(&self, op: &str) -> VmResult<()> {
        if !self.on_drain {
            return Ok(());
        }
        Err(VmError::new(format!(
            "{AUDIT_ERROR_PREFIX}: non-blocking claim violated: {op} would make thread {} of \
             machine {} wait",
            std::thread::current().name().unwrap_or("?"),
            self.machine.id
        )))
    }

    pub fn machine_id(&self) -> u16 {
        self.machine.id
    }

    /// Run `func` to completion as a fresh VM thread activity on this
    /// machine (registers the thread in `active_threads`). A reference among
    /// `args`, and one returned, is the caller's to keep alive: no frame
    /// holds it before the lock is taken or after it is dropped.
    pub fn run_function(&mut self, func: FuncId, args: Vec<Value>) -> VmResult<Value> {
        let machine = self.machine.clone();
        let mut guard = machine.enter();
        self.call_in(&mut guard, func, args)
    }

    /// Start method `mid(args)` as the activity of a new VM thread on this
    /// machine. A value handed across threads is registered by the hand that
    /// gives it: the spawner, under the lock it holds, parks `args` under a key
    /// of their own, in the shape the machine keeps roots in — a frame at the
    /// method's entry whose registers are the arguments — and the new thread's
    /// first act under the lock is to take them into a frame it allocates. (Not
    /// one allocated here: a chunk that lives as long as the child, in the
    /// spawner's malloc arena, read +3 MB of peak RSS on `apps`.)
    pub(crate) fn spawn(
        &self,
        guard: &mut MutexGuard<'_, MachineState>,
        mid: MethodId,
        args: Vec<Value>,
        thread: (&str, &'static str),
    ) -> VmResult<()> {
        let func = self.func_of(mid)?;
        let block = self.rt.module.func(func).entry;
        let key = parking_key();
        guard.parked.insert(key, vec![Frame { func, block, ip: 0, regs: args, ret_dst: None }]);
        spawn_detached(&self.rt, self.machine_id(), thread, move |child| {
            let machine = child.machine.clone();
            let mut guard = machine.enter();
            let waiting = guard.parked.remove(&key).and_then(|mut frames| frames.pop());
            let args = waiting.expect("the spawner parked the arguments").regs;
            child.call_in(&mut guard, func, args).map(drop)
        });
        Ok(())
    }

    /// Invoke `func` while already holding the machine lock (nested calls
    /// from RMI handlers and local RPCs).
    pub fn call_in(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        func: FuncId,
        args: Vec<Value>,
    ) -> VmResult<Value> {
        let base = self.frames.len();
        if base == 0 {
            // A new activity starts a new safepoint quantum: a handler shorter
            // than one holds the machine lock throughout, on any `Interp`.
            self.steps = 0;
        }
        self.push_frame(func, args, None)?;
        let res = self.run_loop(guard, base);
        if res.is_err() {
            // Unwind this activation's frames (error trace collected).
            self.frames.truncate(base);
        }
        res
    }

    fn push_frame(&mut self, func: FuncId, args: Vec<Value>, ret_dst: Option<Reg>) -> VmResult<()> {
        if self.frames.len() >= 4096 {
            return Err(VmError::new("stack overflow (4096 frames)"));
        }
        let f = self.rt.module.func(func);
        let mut regs = vec![Value::Null; f.num_regs()];
        if args.len() != f.params.len() {
            return Err(VmError::new(format!(
                "{} expects {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        for (&p, v) in f.params.iter().zip(args) {
            regs[p.index()] = v;
        }
        self.frames.push(Frame { func, block: f.entry, ip: 0, regs, ret_dst });
        Ok(())
    }

    #[inline]
    fn reg(&self, r: Reg) -> Value {
        self.frames.last().unwrap().regs[r.index()]
    }

    #[inline]
    fn set(&mut self, r: Reg, v: Value) {
        self.frames.last_mut().unwrap().regs[r.index()] = v;
    }

    fn err(&self, msg: impl Into<String>) -> VmError {
        let mut e = VmError::new(msg);
        let module = &self.rt.module;
        for fr in self.frames.iter().rev().take(8) {
            e = e.with_frame(module.func(fr.func).name.clone());
        }
        e
    }

    /// Briefly release the machine lock so drain handlers and sibling threads
    /// can make progress. The quantum trades interpreter overhead against
    /// lock-handoff latency for concurrent RMI handlers; 512 keeps a machine
    /// responsive while a local compute thread spins. Out of line: it is one
    /// step in 512 of the loop it interrupts.
    #[cold]
    #[inline(never)]
    fn safepoint(&mut self, guard: &mut MutexGuard<'_, MachineState>) {
        self.off_lock(guard, |_, g| MutexGuard::unlocked(g, std::thread::yield_now));
    }

    /// Execute until the frame stack returns to `base` depth. Returns the
    /// value produced by the activation that started at `base`.
    pub fn run_loop(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        base: usize,
    ) -> VmResult<Value> {
        let module = self.rt.module.clone();
        loop {
            self.steps += 1;
            if self.steps.is_multiple_of(512) {
                self.safepoint(guard);
            }

            let (func_id, block, ip) = {
                let fr = self.frames.last().expect("active frame");
                (fr.func, fr.block, fr.ip)
            };
            let f = module.func(func_id);
            let blk = f.block(block);

            if ip >= blk.instrs.len() {
                match &blk.term {
                    Terminator::Jump(t) => {
                        let fr = self.frames.last_mut().unwrap();
                        fr.block = *t;
                        fr.ip = 0;
                    }
                    Terminator::Branch { cond, t, f: fb } => {
                        let c = self.reg(*cond);
                        let Value::Bool(b) = c else {
                            return Err(self.err(format!("branch on non-boolean {c:?}")));
                        };
                        let fr = self.frames.last_mut().unwrap();
                        fr.block = if b { *t } else { *fb };
                        fr.ip = 0;
                    }
                    Terminator::Ret(v) => {
                        let value = v.map(|r| self.reg(r)).unwrap_or(Value::Null);
                        let frame = self.frames.pop().unwrap();
                        if self.frames.len() == base {
                            return Ok(value);
                        }
                        if let Some(dst) = frame.ret_dst {
                            self.set(dst, value);
                        }
                    }
                }
                continue;
            }

            self.frames.last_mut().unwrap().ip += 1;
            self.exec(guard, &blk.instrs[ip])?;
        }
    }

    fn exec(&mut self, guard: &mut MutexGuard<'_, MachineState>, instr: &Instr) -> VmResult<()> {
        match instr {
            Instr::Const { dst, v } => {
                let value = match v {
                    Const::Null => Value::Null,
                    Const::Bool(b) => Value::Bool(*b),
                    Const::Int(x) => Value::Int(*x),
                    Const::Long(x) => Value::Long(*x),
                    Const::Double(x) => Value::Double(*x),
                    Const::Str(id) => {
                        // String literals are interned per machine.
                        let obj = match guard.lit_strings.get(&id.0) {
                            Some(&o) => o,
                            None => {
                                let s = self.rt.module.str(*id).to_string();
                                let o = guard.heap.alloc_str(s);
                                guard.heap.pin(o);
                                guard.lit_strings.insert(id.0, o);
                                o
                            }
                        };
                        Value::Ref(obj)
                    }
                };
                self.set(*dst, value);
            }
            Instr::Move { dst, src } => {
                let v = self.reg(*src);
                self.set(*dst, v);
            }
            Instr::Un { dst, op, a } => {
                let v = self.reg(*a);
                let out = match (op, v) {
                    (UnKind::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
                    (UnKind::Neg, Value::Long(x)) => Value::Long(x.wrapping_neg()),
                    (UnKind::Neg, Value::Double(x)) => Value::Double(-x),
                    (UnKind::Not, Value::Bool(b)) => Value::Bool(!b),
                    (op, v) => return Err(self.err(format!("bad unary {op:?} on {v:?}"))),
                };
                self.set(*dst, out);
            }
            Instr::Bin { dst, op, a, b } => {
                let out = self.binop(*op, self.reg(*a), self.reg(*b))?;
                self.set(*dst, out);
            }
            Instr::Cast { dst, src, to } => {
                let out = self.cast(guard, self.reg(*src), to)?;
                self.set(*dst, out);
            }
            Instr::New { dst, class, site: _, placement } => {
                let cls = self.rt.module.table.class(*class);
                let (kind, is_remote) = (cls.kind, cls.is_remote);
                let value = match kind {
                    ClassKind::NativeInstance => {
                        let obj = guard.heap.alloc(ObjBody::Native {
                            class: *class,
                            data: corm_heap::NativeData::Uninit,
                        });
                        Value::Ref(obj)
                    }
                    _ if is_remote => {
                        let target = match placement {
                            Some(p) => {
                                let m = self.int_of(self.reg(*p))?;
                                if m < 0 || m as usize >= self.rt.machines.len() {
                                    return Err(self.err(format!(
                                        "placement machine {m} out of range (cluster has {})",
                                        self.rt.machines.len()
                                    )));
                                }
                                m as u16
                            }
                            None => self.machine_id(),
                        };
                        rmi::new_remote(self, guard, *class, target)?
                    }
                    _ => {
                        self.pace_gc(guard);
                        let obj = guard.alloc_zeroed(&self.rt.module.table, *class);
                        Value::Ref(obj)
                    }
                };
                self.set(*dst, value);
            }
            Instr::NewArray { dst, elem, len, site: _ } => {
                let n = self.int_of(self.reg(*len))?;
                if n < 0 {
                    return Err(self.err(format!("negative array size {n}")));
                }
                self.pace_gc(guard);
                let obj = guard.heap.alloc_array(elem, n as usize);
                self.set(*dst, Value::Ref(obj));
            }
            Instr::GetField { dst, obj, field } => {
                let r = self.localize(self.reg(*obj))?;
                let v = guard.heap.field(r, field.slot as usize).map_err(|e| self.err(e.0))?;
                self.set(*dst, v);
            }
            Instr::SetField { obj, field, val } => {
                let r = self.localize(self.reg(*obj))?;
                let v = self.reg(*val);
                guard.heap.set_field(r, field.slot as usize, v).map_err(|e| self.err(e.0))?;
            }
            Instr::GetStatic { dst, sid } => {
                let v = guard.statics[sid.index()];
                self.set(*dst, v);
            }
            Instr::SetStatic { sid, val } => {
                guard.statics[sid.index()] = self.reg(*val);
            }
            Instr::ArrLoad { dst, arr, idx } => {
                let r = self.obj_of(self.reg(*arr))?;
                let i = self.int_of(self.reg(*idx))?;
                if i < 0 {
                    return Err(self.err(format!("negative index {i}")));
                }
                let v = guard.heap.array_get(r, i as usize).map_err(|e| self.err(e.0))?;
                self.set(*dst, v);
            }
            Instr::ArrStore { arr, idx, val } => {
                let r = self.obj_of(self.reg(*arr))?;
                let i = self.int_of(self.reg(*idx))?;
                if i < 0 {
                    return Err(self.err(format!("negative index {i}")));
                }
                let v = self.reg(*val);
                guard.heap.array_set(r, i as usize, v).map_err(|e| self.err(e.0))?;
            }
            Instr::ArrLen { dst, arr } => {
                let r = self.obj_of(self.reg(*arr))?;
                let n = guard.heap.array_len(r).map_err(|e| self.err(e.0))?;
                self.set(*dst, Value::Int(n as i32));
            }
            Instr::Call { dst, target, args, site } => {
                let argv: Vec<Value> = args.iter().map(|r| self.reg(*r)).collect();
                match target {
                    CallTarget::Builtin(b) => {
                        let out = builtins::call(self, guard, *b, &argv)?;
                        if let Some(d) = dst {
                            self.set(*d, out);
                        }
                    }
                    CallTarget::Static(mid) | CallTarget::Ctor(mid) => {
                        let f = self.func_of(*mid)?;
                        self.push_frame(f, argv, *dst)?;
                    }
                    CallTarget::Virtual { decl, vslot } => {
                        let mid = self.dispatch(guard, &argv, *decl, *vslot)?;
                        let f = self.func_of(mid)?;
                        self.push_frame(f, argv, *dst)?;
                    }
                    CallTarget::Remote(mid) => {
                        let (want_ret, oneway) = (dst.is_some(), false);
                        let (out, _) = rmi::remote_call_with_req(
                            self, guard, *site, *mid, &argv, want_ret, oneway,
                        )?;
                        if let Some(d) = dst {
                            self.set(*d, out);
                        }
                    }
                }
            }
            Instr::Spawn { target, args, site } => {
                let argv: Vec<Value> = args.iter().map(|r| self.reg(*r)).collect();
                match target {
                    CallTarget::Remote(mid) => {
                        rmi::remote_call_with_req(self, guard, *site, *mid, &argv, false, true)?;
                    }
                    CallTarget::Static(mid) | CallTarget::Ctor(mid) => {
                        self.spawn(guard, *mid, argv, USER_SPAWN)?;
                    }
                    CallTarget::Virtual { decl, vslot } => {
                        let mid = self.dispatch(guard, &argv, *decl, *vslot)?;
                        self.spawn(guard, mid, argv, USER_SPAWN)?;
                    }
                    CallTarget::Builtin(_) => {
                        return Err(self.err("cannot spawn a builtin"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve a virtual call through the receiver's runtime class.
    fn dispatch(
        &self,
        guard: &MutexGuard<'_, MachineState>,
        argv: &[Value],
        decl: MethodId,
        vslot: u32,
    ) -> VmResult<MethodId> {
        let recv = argv.first().copied().unwrap_or(Value::Null);
        let class = match recv {
            Value::Ref(r) => guard
                .heap
                .body(r)
                .map_err(|e| self.err(e.0))?
                .class()
                .ok_or_else(|| self.err("method call on non-object"))?,
            Value::Remote(rr) => rr.class,
            Value::Null => {
                let m = self.rt.module.table.method(decl);
                return Err(self.err(format!("null receiver calling {}", m.name)));
            }
            other => return Err(self.err(format!("method call on {other:?}"))),
        };
        let vt = &self.rt.module.table.class(class).vtable;
        vt.get(vslot as usize).copied().ok_or_else(|| self.err("vtable slot out of range"))
    }

    pub fn func_of(&self, mid: MethodId) -> VmResult<FuncId> {
        self.rt.module.func_of_method(mid).ok_or_else(|| {
            self.err(format!("method {} has no body", self.rt.module.table.method(mid).name))
        })
    }

    /// A pacing point: somewhere garbage has just been made — an allocation,
    /// a served request, a reply unmarshaled. Collects when the heap's pacer
    /// says a step's worth has been allocated since the last collection.
    pub(crate) fn pace_gc(&self, guard: &mut MutexGuard<'_, MachineState>) {
        if guard.heap.gc_due() {
            self.collect(guard, &[]);
        }
    }

    /// Collect this machine's heap, on behalf of the pacer or `System.gc()`.
    /// The roots are this thread's frames and the values it holds `in_flight`
    /// outside any, and what the machine keeps: every other thread's frames
    /// (each is off the lock, so parked), statics, queues and the pin set.
    #[cold]
    pub fn collect(&self, guard: &mut MutexGuard<'_, MachineState>, in_flight: &[Value]) {
        let began = Instant::now();
        let report = guard.collect(&self.frames, in_flight);
        let pause_us = began.elapsed().as_micros() as u64;
        let shard = self.rt.obs.machine(self.machine_id());
        shard.gc_runs.fetch_add(1, Relaxed);
        shard.gc_pause_us.record(pause_us);
        shard.heap_live_bytes.store(guard.heap.stats.live_bytes(), Relaxed);
        let kind = TraceKind::Gc { freed: report.freed, live: report.live, pause_us };
        self.rt.instant(self.machine_id(), kind);
    }

    // ----- value helpers ---------------------------------------------------

    pub fn int_of(&self, v: Value) -> VmResult<i32> {
        match v {
            Value::Int(x) => Ok(x),
            other => Err(self.err(format!("expected int, found {other:?}"))),
        }
    }

    /// A reference that must denote a local heap object.
    pub fn obj_of(&self, v: Value) -> VmResult<corm_heap::ObjRef> {
        match v {
            Value::Ref(r) => Ok(r),
            Value::Null => Err(self.err("null dereference")),
            other => Err(self.err(format!("expected object, found {other:?}"))),
        }
    }

    /// Resolve a reference for field access: local refs directly, remote
    /// refs only when they live on this machine (`this` inside remote
    /// methods).
    fn localize(&self, v: Value) -> VmResult<corm_heap::ObjRef> {
        match v {
            Value::Ref(r) => Ok(r),
            Value::Remote(rr) if rr.machine == self.machine_id() => Ok(rr.obj),
            Value::Remote(_) => Err(self.err("field access on a remote object")),
            Value::Null => Err(self.err("null dereference")),
            other => Err(self.err(format!("expected object, found {other:?}"))),
        }
    }

    fn binop(&self, op: BinKind, a: Value, b: Value) -> VmResult<Value> {
        use BinKind::*;
        // Numeric promotion (operands arrive same-typed from lowering,
        // but mixed Int/Long appear via compound-assign narrowing paths).
        let out = match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Add => Value::Int(x.wrapping_add(y)),
                Sub => Value::Int(x.wrapping_sub(y)),
                Mul => Value::Int(x.wrapping_mul(y)),
                Div => {
                    if y == 0 {
                        return Err(self.err("division by zero"));
                    }
                    Value::Int(x.wrapping_div(y))
                }
                Rem => {
                    if y == 0 {
                        return Err(self.err("division by zero"));
                    }
                    Value::Int(x.wrapping_rem(y))
                }
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                BitAnd => Value::Int(x & y),
                BitOr => Value::Int(x | y),
                BitXor => Value::Int(x ^ y),
                Shl => Value::Int(x.wrapping_shl(y as u32 & 31)),
                Shr => Value::Int(x.wrapping_shr(y as u32 & 31)),
            },
            (Value::Long(_), _) | (_, Value::Long(_))
                if matches!(a, Value::Long(_) | Value::Int(_))
                    && matches!(b, Value::Long(_) | Value::Int(_)) =>
            {
                let x = a.as_long();
                let y = b.as_long();
                match op {
                    Add => Value::Long(x.wrapping_add(y)),
                    Sub => Value::Long(x.wrapping_sub(y)),
                    Mul => Value::Long(x.wrapping_mul(y)),
                    Div => {
                        if y == 0 {
                            return Err(self.err("division by zero"));
                        }
                        Value::Long(x.wrapping_div(y))
                    }
                    Rem => {
                        if y == 0 {
                            return Err(self.err("division by zero"));
                        }
                        Value::Long(x.wrapping_rem(y))
                    }
                    Eq => Value::Bool(x == y),
                    Ne => Value::Bool(x != y),
                    Lt => Value::Bool(x < y),
                    Le => Value::Bool(x <= y),
                    Gt => Value::Bool(x > y),
                    Ge => Value::Bool(x >= y),
                    BitAnd => Value::Long(x & y),
                    BitOr => Value::Long(x | y),
                    BitXor => Value::Long(x ^ y),
                    Shl => Value::Long(x.wrapping_shl(y as u32 & 63)),
                    Shr => Value::Long(x.wrapping_shr(y as u32 & 63)),
                }
            }
            (Value::Double(_) | Value::Int(_) | Value::Long(_), Value::Double(_))
            | (Value::Double(_), Value::Int(_) | Value::Long(_)) => {
                let x = a.as_double();
                let y = b.as_double();
                match op {
                    Add => Value::Double(x + y),
                    Sub => Value::Double(x - y),
                    Mul => Value::Double(x * y),
                    Div => Value::Double(x / y),
                    Rem => Value::Double(x % y),
                    Eq => Value::Bool(x == y),
                    Ne => Value::Bool(x != y),
                    Lt => Value::Bool(x < y),
                    Le => Value::Bool(x <= y),
                    Gt => Value::Bool(x > y),
                    Ge => Value::Bool(x >= y),
                    other => return Err(self.err(format!("bad double op {other:?}"))),
                }
            }
            (Value::Bool(x), Value::Bool(y)) => match op {
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                other => return Err(self.err(format!("bad boolean op {other:?}"))),
            },
            // Reference identity.
            (a, b) => match op {
                Eq => Value::Bool(ref_eq(a, b)),
                Ne => Value::Bool(!ref_eq(a, b)),
                other => return Err(self.err(format!("bad operands for {other:?}: {a:?}, {b:?}"))),
            },
        };
        Ok(out)
    }

    fn cast(&self, guard: &MutexGuard<'_, MachineState>, v: Value, to: &Ty) -> VmResult<Value> {
        Ok(match (v, to) {
            // numeric conversions
            (Value::Int(x), Ty::Int) => Value::Int(x),
            (Value::Int(x), Ty::Long) => Value::Long(x as i64),
            (Value::Int(x), Ty::Double) => Value::Double(x as f64),
            (Value::Long(x), Ty::Int) => Value::Int(x as i32),
            (Value::Long(x), Ty::Long) => Value::Long(x),
            (Value::Long(x), Ty::Double) => Value::Double(x as f64),
            (Value::Double(x), Ty::Int) => Value::Int(x as i32),
            (Value::Double(x), Ty::Long) => Value::Long(x as i64),
            (Value::Double(x), Ty::Double) => Value::Double(x),
            // reference casts
            (Value::Null, t) if t.is_ref() => Value::Null,
            (Value::Ref(r), Ty::Class(c)) => {
                let body = guard.heap.body(r).map_err(|e| self.err(e.0))?;
                match body.class() {
                    Some(actual) if self.rt.module.table.is_subclass(actual, *c) => Value::Ref(r),
                    _ if *c == corm_ir::OBJECT_CLASS => Value::Ref(r),
                    Some(actual) => {
                        return Err(self.err(format!(
                            "class cast: {} is not a {}",
                            self.rt.module.table.class(actual).name,
                            self.rt.module.table.class(*c).name
                        )))
                    }
                    None => {
                        if *c == corm_ir::OBJECT_CLASS {
                            Value::Ref(r)
                        } else {
                            return Err(self.err("class cast on non-object"));
                        }
                    }
                }
            }
            (Value::Ref(r), Ty::Str) => {
                if matches!(guard.heap.body(r), Ok(ObjBody::Str(_))) {
                    Value::Ref(r)
                } else {
                    return Err(self.err("class cast: not a String"));
                }
            }
            (Value::Ref(r), Ty::Array(_)) => Value::Ref(r),
            (Value::Remote(rr), Ty::Class(c)) => {
                if self.rt.module.table.is_subclass(rr.class, *c) || *c == corm_ir::OBJECT_CLASS {
                    Value::Remote(rr)
                } else {
                    return Err(self.err("class cast on remote reference"));
                }
            }
            (v, t) => {
                return Err(self
                    .err(format!("invalid cast of {v:?} to {}", self.rt.module.table.ty_name(t))))
            }
        })
    }
}

fn ref_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Ref(x), Value::Ref(y)) => x == y,
        (Value::Remote(x), Value::Remote(y)) => x == y,
        _ => false,
    }
}
