//! The register-machine interpreter.
//!
//! One [`Interp`] per VM thread. The interpreter holds its machine's lock
//! while executing and releases it at blocking points (RMI waits, queue
//! operations, the cluster barrier) and periodically at safepoints so
//! concurrent handlers can run — always through `Interp::off_lock`, which
//! leaves the thread's stack with the machine meanwhile. It executes the
//! linked form of each function (`crate::link`) over one register file per
//! thread, in which every activation has a window; the register file is the
//! union of the live frames' registers, so it gives the garbage collector
//! exact roots: whichever thread collects sees every thread's.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use corm_heap::{ObjBody, Value};
use corm_ir::scalar::{self, compare, double_arith, int_arith, long_arith};
use corm_ir::{BinKind, CallTarget, ClassKind, Const, FuncId, Instr, MethodId, Reg, Ty, UnKind};
use parking_lot::MutexGuard;

use crate::builtins;
use crate::error::{VmError, VmResult};
use crate::link::{scalar_of, value_of, CallArgs, Linked, Op};
use crate::machine::{MachineShared, MachineState};
use crate::reply::Waiter;
use crate::rmi;
use crate::runtime::{spawn_detached, Mark, Milestone, Runtime};

/// Thread name and failure label of a local `spawn`'s thread.
const USER_SPAWN: (&str, &str) = ("corm-user-spawn", "spawned thread");

/// Steps between safepoints: the quantum trades interpreter overhead against
/// lock-handoff latency for concurrent RMI handlers; 512 keeps a machine
/// responsive while a local compute thread spins.
pub(crate) const QUANTUM: u64 = 512;

/// The deepest a thread's frame stack grows.
const MAX_FRAMES: usize = 4096;

/// No builtin takes more arguments (the type checker holds every call to its
/// signature), so a builtin call gathers them into an array, not a `Vec`.
const MAX_BUILTIN_ARGS: usize = 3;

/// An activation record: its registers are `Stack::regs[base..base + nregs]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    /// Where the activation resumes; kept up to date only across a call.
    pub(crate) pc: u32,
    pub(crate) base: u32,
    /// Register in the *caller's* window receiving the return value.
    pub(crate) ret_dst: Option<Reg>,
}

/// A thread's activations and the one register file their windows share.
#[derive(Debug, Default)]
pub(crate) struct Stack {
    pub(crate) frames: Vec<Frame>,
    pub(crate) regs: Vec<Value>,
}

/// Interpreter state for one VM thread pinned to one machine.
pub struct Interp {
    pub rt: Arc<Runtime>,
    pub machine: Arc<MachineShared>,
    pub(crate) stack: Stack,
    /// What this thread's stack is parked under in `MachineState::parked`.
    id: u64,
    /// Where this thread sleeps for the reply to its one outstanding call.
    pub(crate) waiter: Arc<Waiter>,
    /// This thread holds its machine's drain role (`crate::drain`) and
    /// hands it on before it waits (see [`Interp::about_to_wait`]).
    pub(crate) draining: bool,
    /// Steps charged since the last safepoint.
    steps: u64,
}

/// A key of `MachineState::parked` no one else has: an `Interp`'s for its own
/// stack, a spawner's for the arguments of a thread that has not started.
fn parking_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Relaxed)
}

impl Interp {
    pub fn new(rt: Arc<Runtime>, machine: u16) -> Self {
        let machine = rt.machine(machine).clone();
        let (id, waiter) = (parking_key(), Arc::default());
        Interp { rt, machine, stack: Stack::default(), id, waiter, draining: false, steps: 0 }
    }

    /// The one way a VM thread lets go of the machine lock. `wait` does the
    /// letting go — `MutexGuard::unlocked`, a condvar wait — and returns with
    /// the lock held again; for as long, the thread's stack stays with the
    /// machine, where a sibling that collects meanwhile finds its registers.
    /// The `Vec`s move out and back, so parking allocates nothing and copies
    /// no register; a thread with no frame (a harness caller) leaves nothing.
    pub(crate) fn off_lock<T>(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        wait: impl FnOnce(&Interp, &mut MutexGuard<'_, MachineState>) -> T,
    ) -> T {
        if self.stack.frames.is_empty() {
            return wait(self, guard);
        }
        guard.parked.insert(self.id, std::mem::take(&mut self.stack));
        let out = wait(self, guard);
        self.stack = guard.parked.remove(&self.id).expect("a parked stack waits for its thread");
        out
    }

    /// Called at every point where a VM thread is about to wait — for a
    /// reply, a queue, the barrier, a sleep. A thread that holds its
    /// machine's drain role hands it on first, so the machine keeps receiving
    /// while the handler waits (DESIGN §5.7); any other thread just waits.
    pub(crate) fn about_to_wait(&mut self) {
        if std::mem::take(&mut self.draining) {
            self.machine.drain.hand_off(&self.rt, self.machine.id);
        }
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
    /// of their own, in the shape the machine keeps roots in — a stack with no
    /// frame whose registers are the arguments — and the new thread's first act
    /// under the lock is to copy them into a register file it allocates. (Not
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
        let key = parking_key();
        guard.parked.insert(key, Stack { frames: Vec::new(), regs: args });
        spawn_detached(&self.rt, self.machine_id(), thread, move |child| {
            let machine = child.machine.clone();
            let mut guard = machine.enter();
            let waiting = guard.parked.remove(&key).expect("the spawner parked the arguments");
            child.call_in(&mut guard, func, waiting.regs).map(drop)
        });
        Ok(())
    }

    /// Invoke `func` while already holding the machine lock (nested calls
    /// from RMI handlers and local RPCs). It returns with the caller's window
    /// current: what it pushed is popped, on an error too.
    pub fn call_in(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        func: FuncId,
        args: Vec<Value>,
    ) -> VmResult<Value> {
        let (depth, bottom) = (self.stack.frames.len(), self.stack.regs.len());
        if depth == 0 {
            // A new activity starts a new safepoint quantum: a handler shorter
            // than one holds the machine lock throughout, on any `Interp`.
            self.steps = 0;
        }
        let rt = self.rt.clone();
        let callee = &rt.linked[func.index()];
        let base = self.push_frame(callee, func, args.len(), None)?;
        for (p, v) in callee.params.iter().zip(args) {
            self.stack.regs[base + p.index()] = v;
        }
        let res = self.run_loop(guard, depth);
        if res.is_err() {
            // Unwind this activation's frames and registers (error trace collected).
            self.stack.frames.truncate(depth);
            self.stack.regs.truncate(bottom);
        }
        res
    }

    /// Push an activation of `callee` (`func`) taking `nargs` arguments: a
    /// window of its registers, all null, at the top of the register file.
    /// Returns the window's base; the caller fills in the parameters.
    fn push_frame(
        &mut self,
        callee: &Linked,
        func: FuncId,
        nargs: usize,
        ret_dst: Option<Reg>,
    ) -> VmResult<usize> {
        if self.stack.frames.len() >= MAX_FRAMES {
            return Err(VmError::new(format!("stack overflow ({MAX_FRAMES} frames)")));
        }
        if nargs != callee.params.len() {
            let (name, want) = (&self.rt.module.func(func).name, callee.params.len());
            return Err(VmError::new(format!("{name} expects {want} arguments, got {nargs}")));
        }
        let base = self.stack.regs.len();
        self.stack.regs.resize(base + callee.nregs, Value::Null);
        let frame = Frame { func, pc: callee.entry, base: base as u32, ret_dst };
        self.stack.frames.push(frame);
        Ok(base)
    }

    /// Push a call's activation, the caller to resume at `resume`, the
    /// arguments copied from the caller's window at `from`: no `Vec` per call.
    fn push_call(
        &mut self,
        callee: &Linked,
        func: FuncId,
        resume: usize,
        from: usize,
        call: &CallArgs,
    ) -> VmResult<usize> {
        self.stack.frames.last_mut().expect("active frame").pc = resume as u32;
        let base = self.push_frame(callee, func, call.args.len(), call.dst)?;
        for (p, a) in callee.params.iter().zip(&call.args) {
            self.stack.regs[base + p.index()] = self.stack.regs[from + a.index()];
        }
        Ok(base)
    }

    /// The current activation's register `r`, for `exec`.
    #[inline]
    fn reg(&self, r: Reg) -> Value {
        self.stack.regs[self.window() + r.index()]
    }

    #[inline]
    fn set(&mut self, r: Reg, v: Value) {
        let at = self.window() + r.index();
        self.stack.regs[at] = v;
    }

    fn window(&self) -> usize {
        self.stack.frames.last().expect("active frame").base as usize
    }

    fn err(&self, msg: impl Into<String>) -> VmError {
        let mut e = VmError::new(msg);
        let module = &self.rt.module;
        for fr in self.stack.frames.iter().rev().take(8) {
            e = e.with_frame(module.func(fr.func).name.clone());
        }
        e
    }

    /// Charge `steps` to the quantum; a safepoint when it is used up.
    #[inline]
    fn charge(&mut self, guard: &mut MutexGuard<'_, MachineState>, steps: u32) {
        self.steps += steps as u64;
        if self.steps >= QUANTUM {
            self.steps %= QUANTUM;
            self.safepoint(guard);
        }
    }

    /// Briefly release the machine lock so drain handlers and sibling threads
    /// can make progress. Out of line: it is one charge in many of the loop
    /// it interrupts.
    #[cold]
    #[inline(never)]
    fn safepoint(&mut self, guard: &mut MutexGuard<'_, MachineState>) {
        self.off_lock(guard, |_, g| MutexGuard::unlocked(g, std::thread::yield_now));
    }

    /// Execute until the frame stack returns to `depth` frames. Returns the
    /// value produced by the activation that started at `depth`.
    fn run_loop(
        &mut self,
        guard: &mut MutexGuard<'_, MachineState>,
        depth: usize,
    ) -> VmResult<Value> {
        let rt = self.rt.clone();
        let linked = &rt.linked;
        let top = *self.stack.frames.last().expect("active frame");
        let (mut lk, mut pc, mut base) =
            (&linked[top.func.index()], top.pc as usize, top.base as usize);
        // The current window's register `r`, readable and writable.
        macro_rules! reg {
            ($r:expr) => {
                self.stack.regs[base + $r.index()]
            };
        }
        // A binary op on its static type: `$f` on the payloads when both
        // operands hold tag `$tag`, its result tagged `$out`. Otherwise the
        // tagged `binop`, which also raises whatever `$f` declined, so results
        // and errors are the untyped ones. The result is a scalar until it is
        // stored, never a `Value` assembled on the stack.
        macro_rules! typed {
            ($dst:expr, $op:expr, $x:expr, $y:expr, $tag:ident, $f:ident => $out:ident) => {{
                let (x, y) = ($x, $y);
                let v = match (x, y) {
                    (Value::$tag(p), Value::$tag(q)) => $f($op, p, q),
                    _ => None,
                };
                match v {
                    Some(v) => reg!($dst) = Value::$out(v),
                    None => reg!($dst) = self.binop($op, x, y)?,
                }
            }};
        }
        // A numeric conversion; the tagged cast raises what it declines.
        macro_rules! convert {
            ($dst:expr, $src:expr, $to:ident) => {{
                let v = reg!($src);
                reg!($dst) = match scalar_of(v).and_then(|a| scalar::convert(a, &Ty::$to)) {
                    Some(c) => value_of(c),
                    None => self.cast(guard, v, &Ty::$to)?,
                };
            }};
        }
        // The tagged array accesses: what every typed one falls back to.
        macro_rules! load {
            ($dst:expr, $arr:expr, $idx:expr) => {{
                let (r, i) = (self.obj_of(reg!($arr))?, self.index_of(reg!($idx))?);
                reg!($dst) = guard.heap.array_get(r, i).map_err(|e| self.err(e.0))?;
            }};
        }
        macro_rules! store {
            ($arr:expr, $idx:expr, $val:expr) => {{
                let (r, i) = (self.obj_of(reg!($arr))?, self.index_of(reg!($idx))?);
                let v = reg!($val);
                guard.heap.array_set(r, i, v).map_err(|e| self.err(e.0))?;
            }};
        }
        // An access typed by its array's element type: one match on that
        // body (`ObjBody::$body`), an element of tag `$tag`, and the tagged
        // access on anything else, which raises the untyped errors. A
        // negative index is out of range of `get`.
        macro_rules! typed_load {
            ($dst:expr, $arr:expr, $idx:expr, $body:ident, $tag:ident) => {{
                let hit = match (reg!($arr), reg!($idx)) {
                    (Value::Ref(r), Value::Int(i)) => match guard.heap.body(r) {
                        Ok(ObjBody::$body(a)) => a.get(i as usize).copied(),
                        _ => None,
                    },
                    _ => None,
                };
                match hit {
                    Some(x) => reg!($dst) = Value::$tag(x),
                    None => load!($dst, $arr, $idx),
                }
            }};
        }
        macro_rules! typed_store {
            ($arr:expr, $idx:expr, $val:expr, $body:ident, $tag:ident) => {{
                let done = match (reg!($arr), reg!($idx), reg!($val)) {
                    (Value::Ref(r), Value::Int(i), Value::$tag(x)) => {
                        match guard.heap.body_mut(r) {
                            Ok(ObjBody::$body(a)) => a.get_mut(i as usize).map(|e| *e = x),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if done.is_none() {
                    store!($arr, $idx, $val)
                }
            }};
        }
        // A fused compare-and-branch: the int compare when both operands
        // hold ints, else the tagged `binop` and the branch's own check, so
        // a result or error is the unfused pair's.
        macro_rules! branch {
            ($op:expr, $x:expr, $y:expr, $t:expr, $f:expr, $steps:expr) => {{
                let (x, y) = ($x, $y);
                let taken = match (x, y) {
                    (Value::Int(p), Value::Int(q)) => compare($op, p, q),
                    _ => None,
                };
                let taken = match taken {
                    Some(b) => b,
                    None => match self.binop($op, x, y)? {
                        Value::Bool(b) => b,
                        v => return Err(self.err(format!("branch on non-boolean {v:?}"))),
                    },
                };
                self.charge(guard, $steps);
                pc = if taken { $t } else { $f } as usize;
            }};
        }
        loop {
            let op = &lk.code[pc];
            pc += 1;
            match *op {
                Op::Const { dst, v } => reg!(dst) = v,
                Op::Move { dst, src } => reg!(dst) = reg!(src),
                Op::Un { dst, op, a } => {
                    let v = self.unop(op, reg!(a))?;
                    reg!(dst) = v;
                }
                Op::Bin { dst, op, a, b } => {
                    let v = self.binop(op, reg!(a), reg!(b))?;
                    reg!(dst) = v;
                }
                Op::BinInt { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Int, int_arith => Int)
                }
                Op::BinIntImm { dst, op, a, imm } => {
                    typed!(dst, op, reg!(a), Value::Int(imm), Int, int_arith => Int)
                }
                Op::AddIntImm { dst, a, imm } => {
                    typed!(dst, BinKind::Add, reg!(a), Value::Int(imm), Int, int_arith => Int)
                }
                Op::BinLong { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Long, long_arith => Long)
                }
                Op::BinDouble { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Double, double_arith => Double)
                }
                Op::AddDouble { dst, a, b } => {
                    typed!(dst, BinKind::Add, reg!(a), reg!(b), Double, double_arith => Double)
                }
                Op::SubDouble { dst, a, b } => {
                    typed!(dst, BinKind::Sub, reg!(a), reg!(b), Double, double_arith => Double)
                }
                Op::MulDouble { dst, a, b } => {
                    typed!(dst, BinKind::Mul, reg!(a), reg!(b), Double, double_arith => Double)
                }
                Op::CmpInt { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Int, compare => Bool)
                }
                Op::CmpIntImm { dst, op, a, imm } => {
                    typed!(dst, op, reg!(a), Value::Int(imm), Int, compare => Bool)
                }
                Op::CmpLong { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Long, compare => Bool)
                }
                Op::CmpDouble { dst, op, a, b } => {
                    typed!(dst, op, reg!(a), reg!(b), Double, compare => Bool)
                }
                Op::IntToLong { dst, src } => convert!(dst, src, Long),
                Op::IntToDouble { dst, src } => convert!(dst, src, Double),
                Op::LongToInt { dst, src } => convert!(dst, src, Int),
                Op::LongToDouble { dst, src } => convert!(dst, src, Double),
                Op::DoubleToInt { dst, src } => convert!(dst, src, Int),
                Op::DoubleToLong { dst, src } => convert!(dst, src, Long),
                Op::GetField { dst, obj, slot } => {
                    let r = self.localize(reg!(obj))?;
                    reg!(dst) = guard.heap.field(r, slot as usize).map_err(|e| self.err(e.0))?;
                }
                Op::SetField { obj, slot, val } => {
                    let r = self.localize(reg!(obj))?;
                    let v = reg!(val);
                    guard.heap.set_field(r, slot as usize, v).map_err(|e| self.err(e.0))?;
                }
                Op::GetStatic { dst, sid } => reg!(dst) = guard.statics[sid as usize],
                Op::SetStatic { sid, val } => guard.statics[sid as usize] = reg!(val),
                Op::ArrLoad { dst, arr, idx } => load!(dst, arr, idx),
                Op::ArrStore { arr, idx, val } => store!(arr, idx, val),
                Op::ArrLoadInt { dst, arr, idx } => typed_load!(dst, arr, idx, ArrI32, Int),
                Op::ArrLoadDouble { dst, arr, idx } => typed_load!(dst, arr, idx, ArrF64, Double),
                Op::ArrStoreInt { arr, idx, val } => typed_store!(arr, idx, val, ArrI32, Int),
                Op::ArrStoreDouble { arr, idx, val } => {
                    typed_store!(arr, idx, val, ArrF64, Double)
                }
                Op::ArrLen { dst, arr } => {
                    let r = self.obj_of(reg!(arr))?;
                    let n = guard.heap.array_len(r).map_err(|e| self.err(e.0))?;
                    reg!(dst) = Value::Int(n as i32);
                }
                Op::CallDirect { func, call, steps } => {
                    self.charge(guard, steps);
                    let callee = &linked[func.index()];
                    base = self.push_call(callee, func, pc, base, &lk.calls[call as usize])?;
                    (lk, pc) = (callee, callee.entry as usize);
                }
                Op::CallVirtual { decl, vslot, call, steps } => {
                    self.charge(guard, steps);
                    let call = &lk.calls[call as usize];
                    let recv = call.args.first().map_or(Value::Null, |r| reg!(r));
                    let func = self.func_of(self.dispatch(guard, recv, decl, vslot)?)?;
                    let callee = &linked[func.index()];
                    base = self.push_call(callee, func, pc, base, call)?;
                    (lk, pc) = (callee, callee.entry as usize);
                }
                Op::Jump { to, steps } => {
                    self.steps += steps as u64;
                    pc = to as usize;
                }
                Op::Loop { to, steps } => {
                    self.charge(guard, steps);
                    pc = to as usize;
                }
                Op::Branch { cond, t, f, steps } => {
                    let Value::Bool(b) = reg!(cond) else {
                        return Err(self.err(format!("branch on non-boolean {:?}", reg!(cond))));
                    };
                    self.charge(guard, steps);
                    pc = if b { t } else { f } as usize;
                }
                Op::BrInt { op, a, b, t, f, steps } => branch!(op, reg!(a), reg!(b), t, f, steps),
                Op::BrIntImm { op, a, imm, t, f, steps } => {
                    branch!(op, reg!(a), Value::Int(imm), t, f, steps)
                }
                Op::Ret { src, steps } => {
                    self.charge(guard, steps);
                    let value = src.map_or(Value::Null, |r| reg!(r));
                    let done = self.stack.frames.pop().expect("active frame");
                    self.stack.regs.truncate(done.base as usize);
                    if self.stack.frames.len() == depth {
                        return Ok(value);
                    }
                    let caller = *self.stack.frames.last().expect("a caller");
                    lk = &linked[caller.func.index()];
                    (pc, base) = (caller.pc as usize, caller.base as usize);
                    if let Some(dst) = done.ret_dst {
                        reg!(dst) = value;
                    }
                }
                Op::Other(ref instr) => self.exec(guard, instr)?,
            }
        }
    }

    /// What has no op of its own: string literals, allocation, non-numeric
    /// casts, builtin and remote calls, `spawn`.
    fn exec(&mut self, guard: &mut MutexGuard<'_, MachineState>, instr: &Instr) -> VmResult<()> {
        match instr {
            Instr::Const { dst, v: Const::Str(id) } => {
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
                self.set(*dst, Value::Ref(obj));
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
            Instr::Call { dst, target, args, site } => {
                let out = match *target {
                    CallTarget::Builtin(b) => {
                        let mut argv = [Value::Null; MAX_BUILTIN_ARGS];
                        for (v, r) in argv.iter_mut().zip(args) {
                            *v = self.reg(*r);
                        }
                        builtins::call(self, guard, b, &argv[..args.len()])?
                    }
                    CallTarget::Remote(mid) => {
                        let argv: Vec<Value> = args.iter().map(|r| self.reg(*r)).collect();
                        let want_ret = dst.is_some();
                        rmi::remote_call_with_req(self, guard, *site, mid, &argv, want_ret, false)?
                            .0
                    }
                    // Linked to `CallDirect` / `CallVirtual`, unless the method has no body.
                    CallTarget::Static(mid) | CallTarget::Ctor(mid) => {
                        return Err(self.no_body(mid))
                    }
                    CallTarget::Virtual { .. } => unreachable!("virtual calls are linked"),
                };
                if let Some(d) = dst {
                    self.set(*d, out);
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
                        let recv = argv.first().copied().unwrap_or(Value::Null);
                        let mid = self.dispatch(guard, recv, *decl, *vslot)?;
                        self.spawn(guard, mid, argv, USER_SPAWN)?;
                    }
                    CallTarget::Builtin(_) => {
                        return Err(self.err("cannot spawn a builtin"));
                    }
                }
            }
            other => unreachable!("{other:?} has an op of its own"),
        }
        Ok(())
    }

    /// Resolve a virtual call through the receiver's runtime class.
    fn dispatch(
        &self,
        guard: &MutexGuard<'_, MachineState>,
        recv: Value,
        decl: MethodId,
        vslot: u32,
    ) -> VmResult<MethodId> {
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
        self.rt.module.func_of_method(mid).ok_or_else(|| self.no_body(mid))
    }

    fn no_body(&self, mid: MethodId) -> VmError {
        self.err(format!("method {} has no body", self.rt.module.table.method(mid).name))
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
    /// The roots are this thread's registers and the values it holds
    /// `in_flight` outside any, and what the machine keeps: every other
    /// thread's registers (each is off the lock, so parked), statics, queues
    /// and the pin set.
    #[cold]
    pub fn collect(&self, guard: &mut MutexGuard<'_, MachineState>, in_flight: &[Value]) {
        let began = Instant::now();
        let report = guard.collect(&self.stack.regs, in_flight);
        let pause_us = began.elapsed().as_micros() as u64;
        let shard = self.rt.obs.machine(self.machine_id());
        shard.gc_runs.fetch_add(1, Relaxed);
        shard.gc_pause_us.record(pause_us);
        shard.heap_live_bytes.store(guard.heap.stats.live_bytes(), Relaxed);
        let gc = Milestone::Gc { pause_us, freed: report.freed };
        self.rt.call(self.machine_id(), 0, 0).boundary(&[Mark::At(report.live as usize, gc)]);
    }

    // ----- value helpers ---------------------------------------------------

    #[inline]
    pub fn int_of(&self, v: Value) -> VmResult<i32> {
        match v {
            Value::Int(x) => Ok(x),
            other => Err(self.err(format!("expected int, found {other:?}"))),
        }
    }

    /// An array index: an int that is not negative.
    #[inline]
    fn index_of(&self, v: Value) -> VmResult<usize> {
        match self.int_of(v)? {
            i if i < 0 => Err(self.err(format!("negative index {i}"))),
            i => Ok(i as usize),
        }
    }

    /// A reference that must denote a local heap object.
    #[inline]
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
    #[inline]
    fn localize(&self, v: Value) -> VmResult<corm_heap::ObjRef> {
        match v {
            Value::Ref(r) => Ok(r),
            Value::Remote(rr) if rr.machine == self.machine_id() => Ok(rr.obj),
            Value::Remote(_) => Err(self.err("field access on a remote object")),
            Value::Null => Err(self.err("null dereference")),
            other => Err(self.err(format!("expected object, found {other:?}"))),
        }
    }

    fn unop(&self, op: UnKind, v: Value) -> VmResult<Value> {
        let out = scalar_of(v).and_then(|a| scalar::unary(op, a));
        out.map(value_of).ok_or_else(|| self.err(format!("bad unary {op:?} on {v:?}")))
    }

    /// The tagged binary operator: what every typed op falls back to.
    fn binop(&self, op: BinKind, a: Value, b: Value) -> VmResult<Value> {
        use Value::{Bool, Double, Int, Long};
        // Numeric promotion (operands arrive same-typed from lowering,
        // but mixed Int/Long appear via compound-assign narrowing paths).
        let (x, y) = match (a, b) {
            (Int(x), Int(y)) => (Const::Int(x), Const::Int(y)),
            (Int(_) | Long(_), Int(_) | Long(_)) => {
                (Const::Long(a.as_long()), Const::Long(b.as_long()))
            }
            (Int(_) | Long(_) | Double(_), Int(_) | Long(_) | Double(_)) => {
                (Const::Double(a.as_double()), Const::Double(b.as_double()))
            }
            (Bool(x), Bool(y)) => (Const::Bool(x), Const::Bool(y)),
            // Reference identity.
            (a, b) => {
                return match op {
                    BinKind::Eq => Ok(Value::Bool(ref_eq(a, b))),
                    BinKind::Ne => Ok(Value::Bool(!ref_eq(a, b))),
                    other => Err(self.err(format!("bad operands for {other:?}: {a:?}, {b:?}"))),
                }
            }
        };
        scalar::binary(op, x, y).map(value_of).ok_or_else(|| {
            self.err(match x {
                Const::Double(_) => format!("bad double op {op:?}"),
                Const::Bool(_) => format!("bad boolean op {op:?}"),
                _ => "division by zero".to_string(),
            })
        })
    }

    fn cast(&self, guard: &MutexGuard<'_, MachineState>, v: Value, to: &Ty) -> VmResult<Value> {
        if let Some(c) = scalar_of(v).and_then(|a| scalar::convert(a, to)) {
            return Ok(value_of(c));
        }
        Ok(match (v, to) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{Block, Module, Terminator};

    use crate::runtime::{Cluster, RunOptions};

    /// Boot a one-machine cluster on `src`, `edit` applied to the module after
    /// the analyses ran (a hand-made body the front end would not produce).
    fn cluster(src: &str, edit: impl FnOnce(&mut Module)) -> Cluster {
        let mut module = corm_ir::compile_frontend(src).unwrap();
        let analysis = corm_analysis::analyze_module(&module, Default::default());
        let plans = corm_codegen::generate_plans(&module, &analysis, corm_codegen::OptConfig::ALL);
        edit(&mut module);
        let opts = RunOptions { machines: 1, timeline_interval_us: 0, ..Default::default() };
        Cluster::start(Arc::new(module), Arc::new(plans), &opts)
    }

    fn func(c: &Cluster, name: &str) -> FuncId {
        c.rt.module.funcs.iter().find(|f| f.name == name).expect("function").id
    }

    #[test]
    fn a_typed_op_on_another_tag_raises_the_tagged_error() {
        // `r2 = r0 + r1` on int registers, `r1` read before anything writes it.
        let c =
            cluster("class M { static int f(int a) { return a; } static void main() { } }", |m| {
                let f = m.funcs.iter_mut().find(|f| f.name == "M.f").unwrap();
                f.reg_tys = vec![Ty::Int; 3];
                f.blocks = vec![Block {
                    instrs: vec![Instr::Bin {
                        dst: Reg(2),
                        op: BinKind::Add,
                        a: Reg(0),
                        b: Reg(1),
                    }],
                    term: Terminator::Ret(Some(Reg(2))),
                }];
                f.entry = corm_ir::BlockId(0);
            });
        let f = func(&c, "M.f");
        assert!(matches!(c.rt.linked[f.index()].code[0], Op::BinInt { .. }));
        let mut interp = Interp::new(c.rt.clone(), 0);
        let e = interp.run_function(f, vec![Value::Int(5)]).unwrap_err();
        assert_eq!(e.message, "bad operands for Add: Int(5), Null");
        assert_eq!(e.trace, ["M.f"]);
        drop(interp);
        c.finish(None);
    }

    #[test]
    fn a_fused_branch_on_another_tag_raises_the_tagged_error() {
        // bb0: [r1 = 3;] r2 = r0 < r1; branch r2 ? bb1 : bb2
        // bb1: r3 = 1; ret r3    bb2: ret r0
        let body = |imm: bool| {
            move |m: &mut Module| {
                let f = m.funcs.iter_mut().find(|f| f.name == "M.f").unwrap();
                f.reg_tys = vec![Ty::Int, Ty::Int, Ty::Bool, Ty::Int];
                let three = Instr::Const { dst: Reg(1), v: Const::Int(3) };
                let lt = Instr::Bin { dst: Reg(2), op: BinKind::Lt, a: Reg(0), b: Reg(1) };
                let branch = Terminator::Branch {
                    cond: Reg(2),
                    t: corm_ir::BlockId(1),
                    f: corm_ir::BlockId(2),
                };
                let one = Instr::Const { dst: Reg(3), v: Const::Int(1) };
                f.blocks = vec![
                    Block { instrs: if imm { vec![three, lt] } else { vec![lt] }, term: branch },
                    Block { instrs: vec![one], term: Terminator::Ret(Some(Reg(3))) },
                    Block { instrs: vec![], term: Terminator::Ret(Some(Reg(0))) },
                ];
                f.entry = corm_ir::BlockId(0);
            }
        };
        let src = "class M { static int f(int a) { return a; } static void main() { } }";
        // `r1` read before anything writes it.
        let c = cluster(src, body(false));
        let f = func(&c, "M.f");
        assert!(matches!(c.rt.linked[f.index()].code[0], Op::BrInt { .. }));
        let mut interp = Interp::new(c.rt.clone(), 0);
        let e = interp.run_function(f, vec![Value::Int(5)]).unwrap_err();
        assert_eq!(e.message, "bad operands for Lt: Int(5), Null");
        assert_eq!(e.trace, ["M.f"]);
        drop(interp);
        c.finish(None);
        // An immediate against another tag: the tagged compare decides, or raises.
        let c = cluster(src, body(true));
        let f = func(&c, "M.f");
        assert!(matches!(c.rt.linked[f.index()].code[0], Op::BrIntImm { imm: 3, .. }));
        let mut interp = Interp::new(c.rt.clone(), 0);
        assert_eq!(interp.run_function(f, vec![Value::Long(5)]), Ok(Value::Long(5)));
        assert_eq!(interp.run_function(f, vec![Value::Long(2)]), Ok(Value::Int(1)));
        let e = interp.run_function(f, vec![Value::Bool(true)]).unwrap_err();
        assert_eq!(e.message, "bad operands for Lt: Bool(true), Int(3)");
        drop(interp);
        c.finish(None);
    }

    #[test]
    fn a_typed_array_access_raises_the_tagged_errors() {
        let src = "class M {
            static double ld(double[] a, int i) { return a[i]; }
            static void sd(double[] a, int i, double v) { a[i] = v; }
            static int li(int[] a, int i) { return a[i]; }
            static void si(int[] a, int i, int v) { a[i] = v; }
            static void main() { } }";
        let names = ["M.ld", "M.sd", "M.li", "M.si"];
        let typed = cluster(src, |_| {});
        // The same bodies with each array an `Object`: the tagged accesses.
        let tagged = cluster(src, |m| {
            for f in m.funcs.iter_mut().filter(|f| names.contains(&f.name.as_str())) {
                f.reg_tys[0] = Ty::Class(corm_ir::OBJECT_CLASS);
            }
        });
        fn first<'c>(c: &'c Cluster, name: &str) -> &'c Op {
            &c.rt.linked[func(c, name).index()].code[0]
        }
        assert!(matches!(first(&typed, "M.ld"), Op::ArrLoadDouble { .. }));
        assert!(matches!(first(&typed, "M.sd"), Op::ArrStoreDouble { .. }));
        assert!(matches!(first(&typed, "M.li"), Op::ArrLoadInt { .. }));
        assert!(matches!(first(&typed, "M.si"), Op::ArrStoreInt { .. }));
        assert!(matches!(first(&tagged, "M.ld"), Op::ArrLoad { .. }));
        assert!(matches!(first(&tagged, "M.sd"), Op::ArrStore { .. }));

        // A `double[]` and an `int[]` of two, a string, null, a scalar.
        #[derive(Clone, Copy)]
        enum Arg {
            A,
            I,
            S,
            Null,
            V(Value),
        }
        let run = |c: &Cluster, name: &str, args: &[Arg]| {
            let mut interp = Interp::new(c.rt.clone(), 0);
            let machine = interp.machine.clone();
            let mut guard = machine.enter();
            let (a, i) =
                (guard.heap.alloc_array(&Ty::Double, 2), guard.heap.alloc_array(&Ty::Int, 2));
            let s = guard.heap.alloc_str("s");
            let args = args.iter().map(|arg| match *arg {
                Arg::A => Value::Ref(a),
                Arg::I => Value::Ref(i),
                Arg::S => Value::Ref(s),
                Arg::Null => Value::Null,
                Arg::V(v) => v,
            });
            let out = interp.call_in(&mut guard, func(c, name), args.collect());
            // The string's id is the one that varies run to run.
            out.map_err(|e| e.message.replace(&s.to_string(), "s"))
        };
        use Arg::{Null, A, I, S, V};
        let (int, double) = (|x| V(Value::Int(x)), |x| V(Value::Double(x)));
        let cases: &[(&str, &[Arg], Result<Value, &str>)] = &[
            ("M.ld", &[A, int(1)], Ok(Value::Double(0.0))),
            ("M.ld", &[Null, int(0)], Err("null dereference")),
            ("M.ld", &[A, int(-1)], Err("negative index -1")),
            ("M.ld", &[A, int(2)], Err("index 2 out of bounds (len 2)")),
            ("M.ld", &[A, V(Value::Long(0))], Err("expected int, found Long(0)")),
            ("M.ld", &[int(7), int(0)], Err("expected object, found Int(7)")),
            ("M.ld", &[S, int(0)], Err("indexing non-array s")),
            ("M.ld", &[I, int(0)], Ok(Value::Int(0))),
            ("M.sd", &[A, int(1), double(2.5)], Ok(Value::Null)),
            ("M.sd", &[Null, int(0), double(1.0)], Err("null dereference")),
            ("M.sd", &[A, int(-1), double(1.0)], Err("negative index -1")),
            ("M.sd", &[A, int(2), double(1.0)], Err("index 2 out of bounds (len 2)")),
            (
                "M.sd",
                &[A, int(0), int(1)],
                Err("type mismatch storing Int(1) into ArrF64([0.0, 0.0])"),
            ),
            ("M.sd", &[S, int(0), double(1.0)], Err("indexing non-array s")),
            (
                "M.sd",
                &[I, int(0), double(1.0)],
                Err("type mismatch storing Double(1.0) into ArrI32([0, 0])"),
            ),
            ("M.li", &[I, int(1)], Ok(Value::Int(0))),
            ("M.li", &[Null, int(0)], Err("null dereference")),
            ("M.li", &[I, int(-3)], Err("negative index -3")),
            ("M.li", &[I, int(9)], Err("index 9 out of bounds (len 2)")),
            ("M.li", &[S, int(0)], Err("indexing non-array s")),
            ("M.li", &[A, int(0)], Ok(Value::Double(0.0))),
            ("M.si", &[I, int(1), int(4)], Ok(Value::Null)),
            ("M.si", &[Null, int(0), int(4)], Err("null dereference")),
            ("M.si", &[I, int(-1), int(4)], Err("negative index -1")),
            ("M.si", &[I, int(2), int(4)], Err("index 2 out of bounds (len 2)")),
            (
                "M.si",
                &[I, int(0), double(4.0)],
                Err("type mismatch storing Double(4.0) into ArrI32([0, 0])"),
            ),
            ("M.si", &[S, int(0), int(4)], Err("indexing non-array s")),
        ];
        for (name, args, want) in cases {
            let got = run(&typed, name, args);
            assert_eq!(
                got.as_ref().map(|v| *v).map_err(|e| e.as_str()),
                *want,
                "{name} {}",
                args.len()
            );
            assert_eq!(got, run(&tagged, name, args), "{name}: typed and tagged agree");
        }
        typed.finish(None);
        tagged.finish(None);
    }

    #[test]
    fn a_stack_overflow_unwinds_frames_and_registers() {
        let c = cluster(
            "class M { static int depth(int n) { if (n == 0) { return 0; } return M.depth(n - 1) + 1; }
               static void main() { } }",
            |_| {},
        );
        let f = func(&c, "M.depth");
        let mut interp = Interp::new(c.rt.clone(), 0);
        // `depth(n)` is n + 1 frames deep.
        assert_eq!(interp.run_function(f, vec![Value::Int(4095)]), Ok(Value::Int(4095)));
        let e = interp.run_function(f, vec![Value::Int(4096)]).unwrap_err();
        assert_eq!(e.message, "stack overflow (4096 frames)");
        assert!(interp.stack.frames.is_empty() && interp.stack.regs.is_empty());
        assert_eq!(interp.run_function(f, vec![Value::Int(4095)]), Ok(Value::Int(4095)));
        assert_eq!(
            interp.run_function(f, vec![]).unwrap_err().message,
            "M.depth expects 1 arguments, got 0"
        );
        drop(interp);
        c.finish(None);
    }
}
