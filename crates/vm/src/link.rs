//! The linked form of a function: what `Interp::run_loop` executes.
//!
//! `Cluster::start` links every function of the module once. The CFG stays
//! what the analyses read; the interpreter walks this instead:
//!
//! * one op array per function, blocks laid out in index order, a jump to the
//!   next block elided, a jump into an empty block that only jumps on threaded
//!   to where it leads, and every other target a pc (a backward one is
//!   [`Op::Loop`]);
//! * arithmetic, comparisons, numeric casts, field and array accesses typed by the
//!   register types the type checker settled (`Function::reg_tys`), each
//!   with the tagged path as its checked fallback, so a register holding
//!   another tag at run time gets exactly the untyped result or error;
//! * static calls and constructors resolved to their function
//!   ([`Op::CallDirect`]);
//! * a peephole over single-use temporaries: `t = op …; y = t` is
//!   `y = op …`, `k = const int; z = a op k` is [`Op::BinIntImm`] (or
//!   [`Op::CmpIntImm`]), and `t = x; … z = t op b` is `z = x op b` (copy
//!   coalescing: `t` a primitive of `x`'s type, `x` unwritten in between);
//! * an int compare read only by its block's branch fused with it
//!   ([`Op::BrInt`], [`Op::BrIntImm`]);
//! * element-typed accesses to `int[]` and `double[]` registers
//!   ([`Op::ArrLoadDouble`], …) and per-operator forms of `i + k` and of
//!   double `+ - *`;
//! * safepoints at block ends, each charged its block's instruction count;
//! * loop rotation: a back edge into a fused test that only a few
//!   primitive-writing ops precede runs a copy of that head, charged the
//!   latch's steps and the head's at its branch, in place of [`Op::Loop`].
//!
//! What has no typed form — string literals, `new`, reference casts, remote
//! and builtin calls, `spawn` — is [`Op::Other`], the one escape to
//! `Interp::exec`.

use corm_heap::Value;
use corm_ir::{
    BinKind, BlockId, CallTarget, Const, FuncId, Function, Instr, MethodId, Module, Reg,
    Terminator, Ty, UnKind,
};

use crate::interp::QUANTUM;

/// One function, linked.
pub(crate) struct Linked {
    pub(crate) code: Box<[Op]>,
    /// Registers of one activation: the size of its window in the register file.
    pub(crate) nregs: usize,
    /// The registers the arguments land in, in argument order.
    pub(crate) params: Box<[Reg]>,
    /// The pc of the entry block.
    pub(crate) entry: u32,
    /// The argument lists and result registers of the calls in `code`.
    pub(crate) calls: Box<[CallArgs]>,
}

/// What [`Op::CallDirect`] and [`Op::CallVirtual`] read beside the callee.
pub(crate) struct CallArgs {
    pub(crate) dst: Option<Reg>,
    pub(crate) args: Box<[Reg]>,
}

/// One linked instruction. Registers index the current activation's window;
/// `steps` is what a safepoint is charged: the CFG instructions since the last
/// charge, this one included.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Const {
        dst: Reg,
        v: Value,
    },
    Move {
        dst: Reg,
        src: Reg,
    },
    Un {
        dst: Reg,
        op: UnKind,
        a: Reg,
    },
    /// Operands of no one numeric type: the tagged `binop`.
    Bin {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    BinInt {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    BinIntImm {
        dst: Reg,
        op: BinKind,
        a: Reg,
        imm: i32,
    },
    /// `BinIntImm` of `Add`: every `i++`.
    AddIntImm {
        dst: Reg,
        a: Reg,
        imm: i32,
    },
    BinLong {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    BinDouble {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    /// `BinDouble` of one operator each: what LU's elimination runs.
    AddDouble {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SubDouble {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MulDouble {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    CmpInt {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    CmpIntImm {
        dst: Reg,
        op: BinKind,
        a: Reg,
        imm: i32,
    },
    CmpLong {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    CmpDouble {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    IntToLong {
        dst: Reg,
        src: Reg,
    },
    IntToDouble {
        dst: Reg,
        src: Reg,
    },
    LongToInt {
        dst: Reg,
        src: Reg,
    },
    LongToDouble {
        dst: Reg,
        src: Reg,
    },
    DoubleToInt {
        dst: Reg,
        src: Reg,
    },
    DoubleToLong {
        dst: Reg,
        src: Reg,
    },
    GetField {
        dst: Reg,
        obj: Reg,
        slot: u32,
    },
    SetField {
        obj: Reg,
        slot: u32,
        val: Reg,
    },
    GetStatic {
        dst: Reg,
        sid: u32,
    },
    SetStatic {
        sid: u32,
        val: Reg,
    },
    ArrLoad {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    ArrStore {
        arr: Reg,
        idx: Reg,
        val: Reg,
    },
    ArrLen {
        dst: Reg,
        arr: Reg,
    },
    /// `ArrLoad` / `ArrStore` on an `int[]` or `double[]` register: one
    /// match on that body, the tagged access on anything else.
    ArrLoadInt {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    ArrLoadDouble {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    ArrStoreInt {
        arr: Reg,
        idx: Reg,
        val: Reg,
    },
    ArrStoreDouble {
        arr: Reg,
        idx: Reg,
        val: Reg,
    },
    /// A static call or constructor; `call` indexes [`Linked::calls`].
    CallDirect {
        func: FuncId,
        call: u32,
        steps: u32,
    },
    CallVirtual {
        decl: MethodId,
        vslot: u32,
        call: u32,
        steps: u32,
    },
    /// A forward jump: charged, no safepoint.
    Jump {
        to: u32,
        steps: u32,
    },
    /// A backward jump: charged, and a safepoint.
    Loop {
        to: u32,
        steps: u32,
    },
    Branch {
        cond: Reg,
        t: u32,
        f: u32,
        steps: u32,
    },
    /// `CmpInt` and the `Branch` that is its one reader, fused.
    BrInt {
        op: BinKind,
        a: Reg,
        b: Reg,
        t: u32,
        f: u32,
        steps: u32,
    },
    BrIntImm {
        op: BinKind,
        a: Reg,
        imm: i32,
        t: u32,
        f: u32,
        steps: u32,
    },
    Ret {
        src: Option<Reg>,
        steps: u32,
    },
    Other(Box<Instr>),
}

impl Op {
    /// The register a fusable op writes: an op with a result that is no call.
    fn dst_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Op::Const { dst, .. }
            | Op::Move { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::BinInt { dst, .. }
            | Op::BinIntImm { dst, .. }
            | Op::AddIntImm { dst, .. }
            | Op::BinLong { dst, .. }
            | Op::BinDouble { dst, .. }
            | Op::AddDouble { dst, .. }
            | Op::SubDouble { dst, .. }
            | Op::MulDouble { dst, .. }
            | Op::CmpInt { dst, .. }
            | Op::CmpIntImm { dst, .. }
            | Op::CmpLong { dst, .. }
            | Op::CmpDouble { dst, .. }
            | Op::IntToLong { dst, .. }
            | Op::IntToDouble { dst, .. }
            | Op::LongToInt { dst, .. }
            | Op::LongToDouble { dst, .. }
            | Op::DoubleToInt { dst, .. }
            | Op::DoubleToLong { dst, .. }
            | Op::GetField { dst, .. }
            | Op::GetStatic { dst, .. }
            | Op::ArrLoad { dst, .. }
            | Op::ArrLoadInt { dst, .. }
            | Op::ArrLoadDouble { dst, .. }
            | Op::ArrLen { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

/// Link every function of `module`, indexed by `FuncId`.
pub(crate) fn link(module: &Module) -> Box<[Linked]> {
    module.funcs.iter().map(|f| link_function(module, f)).collect()
}

/// The value of a scalar constant. A string literal is an object of the
/// machine's heap, made where it is run.
#[inline]
pub(crate) fn value_of(c: Const) -> Value {
    match c {
        Const::Null => Value::Null,
        Const::Bool(b) => Value::Bool(b),
        Const::Int(x) => Value::Int(x),
        Const::Long(x) => Value::Long(x),
        Const::Double(x) => Value::Double(x),
        Const::Str(_) => unreachable!("a string literal is a heap object"),
    }
}

/// The constant of a scalar value, what `corm_ir::scalar` computes on;
/// `None` for a reference.
#[inline]
pub(crate) fn scalar_of(v: Value) -> Option<Const> {
    Some(match v {
        Value::Bool(b) => Const::Bool(b),
        Value::Int(x) => Const::Int(x),
        Value::Long(x) => Const::Long(x),
        Value::Double(x) => Const::Double(x),
        _ => return None,
    })
}

fn comparison(op: BinKind) -> bool {
    use BinKind::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}

/// A primitive type: a register of one holds no GC root, so whether a
/// temporary of one is ever written leaves the root set as it was.
fn primitive(ty: &Ty) -> bool {
    matches!(ty, Ty::Bool | Ty::Int | Ty::Long | Ty::Double)
}

/// How many times each register of `f` is written and read: a parameter is
/// written on entry, a branch condition or returned register is read.
fn def_use(f: &Function) -> (Vec<u32>, Vec<u32>) {
    let (mut defs, mut uses) = (vec![0u32; f.num_regs()], vec![0u32; f.num_regs()]);
    f.params.iter().for_each(|p| defs[p.index()] += 1);
    for block in &f.blocks {
        for i in &block.instrs {
            i.def().into_iter().for_each(|d| defs[d.index()] += 1);
            i.uses().into_iter().for_each(|u| uses[u.index()] += 1);
        }
        match block.term {
            Terminator::Branch { cond, .. } => uses[cond.index()] += 1,
            Terminator::Ret(Some(r)) => uses[r.index()] += 1,
            _ => {}
        }
    }
    (defs, uses)
}

/// The most ops a loop head may run before its test and still be copied
/// onto a back edge.
const ROTATE_MAX: usize = 3;

/// An op that writes one register of `f`, a primitive, and does nothing else:
/// no call, no allocation, no store.
fn writes_a_primitive(f: &Function, op: &Op) -> bool {
    op.clone().dst_mut().is_some_and(|d| primitive(f.reg_ty(*d)))
}

/// What a back edge charged `steps` runs in place of a jump to a head linked
/// as `head`: a copy of it, when it is a fused test preceded by at most
/// [`ROTATE_MAX`] ops that each only write a primitive. So the copy moves no
/// root past the back edge's safepoint, and its branch is charged the
/// latch's steps and the head's in one charge, which takes the safepoints the
/// two did while their sum stays below a quantum.
fn rotation(f: &Function, head: &[Op], steps: u32) -> Option<Vec<Op>> {
    let mut copy = head.to_vec();
    let (test, ops) = copy.split_last_mut()?;
    let (Op::BrInt { steps: s, .. } | Op::BrIntImm { steps: s, .. }) = test else { return None };
    let lone = ops.len() <= ROTATE_MAX && ops.iter().all(|op| writes_a_primitive(f, op));
    *s += steps;
    (lone && u64::from(*s) < QUANTUM).then_some(copy)
}

pub(crate) fn link_function(module: &Module, f: &Function) -> Linked {
    // A jump into an empty block that only jumps on lands where that one
    // leads: the linker threads jumps, so the CFG need not.
    let target = |mut t: BlockId| {
        for _ in 0..f.blocks.len() {
            let block = f.block(t);
            match block.term {
                Terminator::Jump(u) if block.instrs.is_empty() && u != t => t = u,
                _ => break,
            }
        }
        t
    };
    // Predecessors are counted along the threaded edges.
    let (defs, uses) = def_use(f);
    let mut preds = vec![0u32; f.blocks.len()];
    for block in &f.blocks {
        for t in block.term.succs() {
            preds[target(t).index()] += 1;
        }
    }
    let single = |r: Reg| defs[r.index()] == 1 && uses[r.index()] == 1;

    let (mut l, mut code) = (Linker { module, f, calls: Vec::new() }, Vec::new());
    let mut block_pc = Vec::with_capacity(f.blocks.len());
    // Steps of a block that fell through into the next, which has no other
    // predecessor: charged with that block's first charge.
    let mut carry = 0;
    for (b, block) in f.blocks.iter().enumerate() {
        block_pc.push(code.len());
        let mut steps = if preds[b] == 1 { carry } else { 0 };
        // `k = const int` whose one use is a later `z = a op k` of this block.
        let folded: Vec<(Reg, i32)> = block
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Const { dst, v: Const::Int(c) } if single(*dst) => Some((*dst, *c)),
                _ => None,
            })
            .filter(|&(k, _)| {
                block.instrs.iter().skip_while(|i| i.def() != Some(k)).any(|i| {
                    matches!(i, Instr::Bin { a, b, .. }
                        if *b == k && *a != k && *f.reg_ty(*a) == Ty::Int && *f.reg_ty(k) == Ty::Int)
                })
            })
            .collect();
        let imm = |r: Reg| folded.iter().find(|&&(k, _)| k == r).map(|&(_, c)| c);
        // `t = x` whose one use is a later `z = t op b` of this block, `x`
        // unwritten in between and `t` a primitive of `x`'s type: that op
        // reads `x`, and `t` is never written.
        let coalesced: Vec<(Reg, Reg)> = block
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(at, i)| match *i {
                Instr::Move { dst: t, src: x }
                    if t != x
                        && single(t)
                        && primitive(f.reg_ty(t))
                        && f.reg_ty(t) == f.reg_ty(x) =>
                {
                    let rest = &block.instrs[at + 1..];
                    let user = rest.iter().position(|i| i.uses().contains(&t))?;
                    let clear = rest[..user].iter().all(|i| i.def() != Some(x));
                    (clear && matches!(rest[user], Instr::Bin { a, .. } if a == t))
                        .then_some((t, x))
                }
                _ => None,
            })
            .collect();
        let read = |r: Reg| coalesced.iter().find(|&&(t, _)| t == r).map_or(r, |&(_, x)| x);

        let mut instrs = block.instrs.iter().peekable();
        while let Some(instr) = instrs.next() {
            steps += 1;
            match *instr {
                Instr::Const { dst, .. } if imm(dst).is_some() => continue,
                Instr::Move { dst, .. } if read(dst) != dst => continue,
                _ => {}
            }
            let op = match *instr {
                Instr::Bin { dst, op, a, b } if read(a) != a => {
                    l.op(&Instr::Bin { dst, op, a: read(a), b }, steps, &imm)
                }
                _ => l.op(instr, steps, &imm),
            };
            if matches!(op, Op::CallDirect { .. } | Op::CallVirtual { .. }) {
                steps = 0;
            }
            code.push(op);
            // `t = op …; y = t` with `t` written and read once: `y = op …`.
            let Some(t) = instr.def().filter(|&t| single(t) && primitive(f.reg_ty(t))) else {
                continue;
            };
            if let Some(Instr::Move { dst: y, src }) = instrs.peek() {
                if *src == t && *y != t && read(*y) == *y {
                    if let Some(dst) = code.last_mut().and_then(Op::dst_mut) {
                        *dst = *y;
                        instrs.next();
                        steps += 1;
                    }
                }
            }
        }
        steps += 1;
        carry = 0;
        match block.term {
            Terminator::Jump(t) => match target(t).index() {
                h if h == b + 1 => carry = steps,
                // A back edge into a lone test runs a copy of it, charged the
                // latch's steps and the head's at its branch.
                h if h <= b => {
                    // A block that jumps to itself (`h == b`) has no head linked yet.
                    let head = block_pc.get(h + 1).map(|&end| &code[block_pc[h]..end]);
                    match head.and_then(|head| rotation(f, head, steps)) {
                        Some(copy) => code.extend(copy),
                        None => code.push(Op::Loop { to: h as u32, steps }),
                    }
                }
                h => code.push(Op::Jump { to: h as u32, steps }),
            },
            Terminator::Branch { cond, t, f: e } => {
                let (t, f) = (target(t).0, target(e).0);
                // A compare whose one reader is this branch, the block's last op.
                let fusable = code.len() > block_pc[b] && single(cond);
                let fused = match code.last() {
                    Some(&Op::CmpInt { dst, op, a, b }) if fusable && dst == cond => {
                        Some(Op::BrInt { op, a, b, t, f, steps })
                    }
                    Some(&Op::CmpIntImm { dst, op, a, imm }) if fusable && dst == cond => {
                        Some(Op::BrIntImm { op, a, imm, t, f, steps })
                    }
                    _ => None,
                };
                match fused {
                    Some(br) => *code.last_mut().expect("the compare") = br,
                    None => code.push(Op::Branch { cond, t, f, steps }),
                }
            }
            Terminator::Ret(src) => code.push(Op::Ret { src, steps }),
        }
    }
    // Block ids to pcs.
    for op in &mut code {
        match op {
            Op::Jump { to, .. } | Op::Loop { to, .. } => *to = block_pc[*to as usize] as u32,
            Op::Branch { t, f, .. } | Op::BrInt { t, f, .. } | Op::BrIntImm { t, f, .. } => {
                *t = block_pc[*t as usize] as u32;
                *f = block_pc[*f as usize] as u32;
            }
            _ => {}
        }
    }
    Linked {
        code: code.into(),
        nregs: f.num_regs(),
        params: f.params.clone().into(),
        entry: block_pc[target(f.entry).index()] as u32,
        calls: l.calls.into(),
    }
}

struct Linker<'m> {
    module: &'m Module,
    f: &'m Function,
    calls: Vec<CallArgs>,
}

impl Linker<'_> {
    /// The op for `instr`, `steps` charged if it is a call.
    fn op(&mut self, instr: &Instr, steps: u32, imm: &impl Fn(Reg) -> Option<i32>) -> Op {
        let f = self.f;
        let ty = |r: Reg| f.reg_ty(r);
        let elem = |r: Reg| match ty(r) {
            Ty::Array(e) => Some(&**e),
            _ => None,
        };
        let other = || Op::Other(Box::new(instr.clone()));
        match *instr {
            Instr::Const { v: Const::Str(_), .. } => other(),
            Instr::Const { dst, v } => Op::Const { dst, v: value_of(v) },
            Instr::Move { dst, src } => Op::Move { dst, src },
            Instr::Un { dst, op, a } => Op::Un { dst, op, a },
            Instr::Bin { dst, op, a, b } => match (ty(a), ty(b), comparison(op)) {
                (Ty::Int, Ty::Int, false) => match (imm(b), op) {
                    (Some(imm), BinKind::Add) => Op::AddIntImm { dst, a, imm },
                    (Some(imm), _) => Op::BinIntImm { dst, op, a, imm },
                    (None, _) => Op::BinInt { dst, op, a, b },
                },
                (Ty::Int, Ty::Int, true) => match imm(b) {
                    Some(imm) => Op::CmpIntImm { dst, op, a, imm },
                    None => Op::CmpInt { dst, op, a, b },
                },
                (Ty::Long, Ty::Long, false) => Op::BinLong { dst, op, a, b },
                (Ty::Long, Ty::Long, true) => Op::CmpLong { dst, op, a, b },
                (Ty::Double, Ty::Double, false) => match op {
                    BinKind::Add => Op::AddDouble { dst, a, b },
                    BinKind::Sub => Op::SubDouble { dst, a, b },
                    BinKind::Mul => Op::MulDouble { dst, a, b },
                    _ => Op::BinDouble { dst, op, a, b },
                },
                (Ty::Double, Ty::Double, true) => Op::CmpDouble { dst, op, a, b },
                _ => Op::Bin { dst, op, a, b },
            },
            Instr::Cast { dst, src, ref to } => match (ty(src), to) {
                (Ty::Int, Ty::Long) => Op::IntToLong { dst, src },
                (Ty::Int, Ty::Double) => Op::IntToDouble { dst, src },
                (Ty::Long, Ty::Int) => Op::LongToInt { dst, src },
                (Ty::Long, Ty::Double) => Op::LongToDouble { dst, src },
                (Ty::Double, Ty::Int) => Op::DoubleToInt { dst, src },
                (Ty::Double, Ty::Long) => Op::DoubleToLong { dst, src },
                _ => other(),
            },
            Instr::GetField { dst, obj, field } => Op::GetField { dst, obj, slot: field.slot },
            Instr::SetField { obj, field, val } => Op::SetField { obj, slot: field.slot, val },
            Instr::GetStatic { dst, sid } => Op::GetStatic { dst, sid: sid.0 },
            Instr::SetStatic { sid, val } => Op::SetStatic { sid: sid.0, val },
            Instr::ArrLoad { dst, arr, idx } => match elem(arr) {
                Some(Ty::Int) => Op::ArrLoadInt { dst, arr, idx },
                Some(Ty::Double) => Op::ArrLoadDouble { dst, arr, idx },
                _ => Op::ArrLoad { dst, arr, idx },
            },
            Instr::ArrStore { arr, idx, val } => match elem(arr) {
                Some(Ty::Int) => Op::ArrStoreInt { arr, idx, val },
                Some(Ty::Double) => Op::ArrStoreDouble { arr, idx, val },
                _ => Op::ArrStore { arr, idx, val },
            },
            Instr::ArrLen { dst, arr } => Op::ArrLen { dst, arr },
            Instr::Call { dst, target, ref args, .. } => {
                let call = self.calls.len() as u32;
                let op = match target {
                    CallTarget::Static(mid) | CallTarget::Ctor(mid) => self
                        .module
                        .func_of_method(mid)
                        .map(|func| Op::CallDirect { func, call, steps }),
                    CallTarget::Virtual { decl, vslot } => {
                        Some(Op::CallVirtual { decl, vslot, call, steps })
                    }
                    CallTarget::Remote(_) | CallTarget::Builtin(_) => None,
                };
                // A static method with no body raises so when run, as unlinked.
                let Some(op) = op else { return other() };
                self.calls.push(CallArgs { dst, args: args.clone().into() });
                op
            }
            Instr::New { .. } | Instr::NewArray { .. } | Instr::Spawn { .. } => other(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::{Block, Span};
    use std::collections::BTreeMap;

    fn r(i: u32) -> Reg {
        Reg(i)
    }

    /// A hand-made function: `params` are registers 0.., every register typed `ty`.
    fn function(nparams: u32, ty: Ty, nregs: usize, blocks: Vec<Block>) -> Function {
        Function {
            id: FuncId(0),
            method: None,
            name: "T.f".into(),
            params: (0..nparams).map(Reg).collect(),
            ret: ty.clone(),
            reg_tys: vec![ty; nregs],
            blocks,
            entry: BlockId(0),
            span: Span::default(),
        }
    }

    fn block(instrs: Vec<Instr>, term: Terminator) -> Block {
        Block { instrs, term }
    }

    fn empty_module() -> Module {
        corm_ir::compile_frontend("class M { static void main() { } }").unwrap()
    }

    fn moves(l: &Linked) -> usize {
        l.code.iter().filter(|op| matches!(op, Op::Move { .. })).count()
    }

    /// An op with an int immediate operand.
    fn immediate(op: &Op) -> bool {
        matches!(
            op,
            Op::BinIntImm { .. }
                | Op::AddIntImm { .. }
                | Op::CmpIntImm { .. }
                | Op::BrIntImm { .. }
        )
    }

    /// The fused branches that jump backwards: each the copied test of a
    /// rotated loop, as (its pc, the pc it jumps back to, its steps).
    fn back_tests(l: &Linked) -> Vec<(usize, usize, u32)> {
        let back =
            |pc: usize, t: u32, steps: u32| (t as usize <= pc).then_some((pc, t as usize, steps));
        l.code
            .iter()
            .enumerate()
            .filter_map(|(pc, op)| match *op {
                Op::BrInt { t, steps, .. } | Op::BrIntImm { t, steps, .. } => back(pc, t, steps),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_single_use_temporary_fuses_into_its_move() {
        // r1 = r0 * r0; r2 = r1; ret r2
        let f = function(
            1,
            Ty::Int,
            3,
            vec![block(
                vec![
                    Instr::Bin { dst: r(1), op: BinKind::Mul, a: r(0), b: r(0) },
                    Instr::Move { dst: r(2), src: r(1) },
                ],
                Terminator::Ret(Some(r(2))),
            )],
        );
        let l = link_function(&empty_module(), &f);
        assert_eq!(moves(&l), 0);
        assert!(matches!(l.code[0], Op::BinInt { dst: Reg(2), op: BinKind::Mul, .. }));
        assert!(matches!(l.code[1], Op::Ret { src: Some(Reg(2)), steps: 3 }));
    }

    #[test]
    fn a_temporary_read_twice_does_not_fuse() {
        // r1 = r0 + r0; r2 = r1; r3 = r1 * r2; ret r3
        let f = function(
            1,
            Ty::Int,
            4,
            vec![block(
                vec![
                    Instr::Bin { dst: r(1), op: BinKind::Add, a: r(0), b: r(0) },
                    Instr::Move { dst: r(2), src: r(1) },
                    Instr::Bin { dst: r(3), op: BinKind::Mul, a: r(1), b: r(2) },
                ],
                Terminator::Ret(Some(r(3))),
            )],
        );
        let l = link_function(&empty_module(), &f);
        assert_eq!(moves(&l), 1);
        assert!(matches!(l.code[0], Op::BinInt { dst: Reg(1), .. }));
    }

    #[test]
    fn a_loop_carried_temporary_with_two_defs_does_not_fuse() {
        // bb0: r1 = 0; jump bb1
        // bb1: r1 = r2 + r0; r2 = r1; r3 = r2 < r0; branch r3 ? bb1 : bb2
        // bb2: ret r2
        let f = function(
            1,
            Ty::Int,
            4,
            vec![
                block(
                    vec![Instr::Const { dst: r(1), v: Const::Int(0) }],
                    Terminator::Jump(BlockId(1)),
                ),
                block(
                    vec![
                        Instr::Bin { dst: r(1), op: BinKind::Add, a: r(2), b: r(0) },
                        Instr::Move { dst: r(2), src: r(1) },
                        Instr::Bin { dst: r(3), op: BinKind::Lt, a: r(2), b: r(0) },
                    ],
                    Terminator::Branch { cond: r(3), t: BlockId(1), f: BlockId(2) },
                ),
                block(vec![], Terminator::Ret(Some(r(2)))),
            ],
        );
        let l = link_function(&empty_module(), &f);
        assert_eq!(moves(&l), 1);
        // The fall-through into a block that is also a loop head is not charged
        // there; the loop's own steps are, at its branch, fused with its test.
        assert!(matches!(l.code[3], Op::BrInt { t: 1, f: 4, steps: 4, .. }), "{:?}", l.code);
    }

    #[test]
    fn a_calls_result_does_not_fuse() {
        let m = corm_ir::compile_frontend(
            "class M { static int g(int a) { return a + 1; }
               static int f(int a) { int y = 0; y = M.g(a); return y; }
               static void main() { } }",
        )
        .unwrap();
        let f = m.funcs.iter().find(|f| f.name == "M.f").unwrap();
        let l = link_function(&m, f);
        let call = l.code.iter().position(|op| matches!(op, Op::CallDirect { .. })).unwrap();
        assert!(matches!(l.code[call + 1], Op::Move { .. }), "the call's dst stays a register");
        assert_eq!(l.calls.len(), 1);
    }

    #[test]
    fn an_int_constant_used_twice_stays_a_register() {
        let m = corm_ir::compile_frontend(
            "class M { static int f(int a) { int k = 5; int b = a * k; int c = b + k; return c; }
               static int g(int a) { return a * 5 + 1; }
               static void main() { } }",
        )
        .unwrap();
        let link = |name: &str| link_function(&m, m.funcs.iter().find(|f| f.name == name).unwrap());
        let f = link("M.f");
        assert!(matches!(f.code[0], Op::Const { v: Value::Int(5), .. }));
        assert!(f.code.iter().all(|op| !immediate(op)));
        // Used once, each constant is an immediate, and the temporaries fuse.
        let g = link("M.g");
        let imms = g.code.iter().filter(|op| immediate(op)).count();
        assert_eq!((imms, g.code.len()), (2, 4), "a * 5, + 1, ret, the tombstone's ret");
    }

    #[test]
    fn the_linker_threads_jumps_through_empty_blocks() {
        // An `if` without `else` in a loop: its join blocks only jump on.
        let m = corm_ir::compile_frontend(
            "class M { static int g(int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { if (i > 3) { s = s + i; } }
                 return s;
               }
               static void main() { } }",
        )
        .unwrap();
        let f = m.funcs.iter().find(|f| f.name == "M.g").unwrap();
        let forwarding = f
            .blocks
            .iter()
            .filter(|b| b.instrs.is_empty() && matches!(b.term, Terminator::Jump(_)))
            .count();
        assert!(forwarding >= 2, "the CFG keeps its forwarding blocks");
        let l = link_function(&m, f);
        let hops = |to: u32| matches!(l.code[to as usize], Op::Jump { .. } | Op::Loop { .. });
        for op in l.code.iter() {
            match *op {
                Op::Jump { to, .. } | Op::Loop { to, .. } => assert!(!hops(to)),
                Op::Branch { t, f, .. } => assert!(!hops(t) && !hops(f)),
                _ => {}
            }
        }
    }

    #[test]
    fn the_interpreter_probes_loop_links_to_eight_ops_an_iteration() {
        // `benchmark/`'s `Build.spin`: 16 CFG steps an iteration unlinked.
        let m = corm_ir::compile_frontend(
            "class Build {
               static long spin(int n) {
                 long h = 1;
                 for (int i = 0; i < n; i++) { h = h * 31 + (i ^ (i >> 3)); }
                 return h;
               }
             }
             class M { static void main() { } }",
        )
        .unwrap();
        let f = m.funcs.iter().find(|f| f.name == "Build.spin").unwrap();
        let l = link_function(&m, f);
        assert!(l.code.iter().all(|op| !matches!(op, Op::Loop { .. })), "the back edge is rotated");
        let [(at, head, steps)] = back_tests(&l)[..] else { panic!("one back-edge: {:?}", l.code) };
        assert_eq!(at + 1 - head, 8, "ops an iteration: {:?}", &l.code[head..=at]);
        assert_eq!(steps, 16, "an iteration is charged its CFG steps");
    }

    #[test]
    fn rotation_refuses_a_head_that_calls_allocates_or_writes_a_reference() {
        let m = corm_ir::compile_frontend(
            "class M {
               int n;
               static int g(int n) { return n; }
               static int calls(int n) { int s = 0; for (int i = 0; i < M.g(n); i++) { s = s + i; } return s; }
               static int allocs(int n) { int s = 0; for (int i = 0; i < new int[n].length; i++) { s = s + i; } return s; }
               static int refs(int[][] a) { int s = 0; for (int i = 0; i < a[0].length; i++) { s = s + i; } return s; }
               static int len(int[] a) { int s = 0; for (int i = 0; i < a.length; i++) { s = s + i; } return s; }
               int field() { int s = 0; for (int i = 0; i < this.n; i++) { s = s + i; } return s; }
               static void main() { } }",
        )
        .unwrap();
        let link = |name: &str| link_function(&m, m.funcs.iter().find(|f| f.name == name).unwrap());
        for name in ["M.calls", "M.allocs", "M.refs"] {
            let l = link(name);
            assert!(back_tests(&l).is_empty(), "{name} is not rotated: {:?}", l.code);
            assert!(l.code.iter().any(|op| matches!(op, Op::Loop { .. })), "{name}: {:?}", l.code);
        }
        // An `ArrLen` or a primitive `GetField` before the test is copied.
        for name in ["M.len", "M.field"] {
            let l = link(name);
            assert_eq!(back_tests(&l).len(), 1, "{name} is rotated: {:?}", l.code);
            assert!(l.code.iter().all(|op| !matches!(op, Op::Loop { .. })), "{name}: {:?}", l.code);
        }
    }

    #[test]
    fn coalescing_refuses_a_temporary_read_twice_or_of_another_type() {
        let coalesce = |tys: [Ty; 4], instrs: Vec<Instr>| {
            let mut f = function(2, Ty::Long, 4, vec![block(instrs, Terminator::Ret(Some(r(3))))]);
            f.reg_tys = tys.to_vec();
            link_function(&empty_module(), &f)
        };
        use Ty::{Int, Long};
        // r2 = r0; r3 = r2 + r1; ret r3: `r2` is read once, as `r0`'s type.
        let once = || {
            vec![
                Instr::Move { dst: r(2), src: r(0) },
                Instr::Bin { dst: r(3), op: BinKind::Add, a: r(2), b: r(1) },
            ]
        };
        let l = coalesce([Long, Long, Long, Long], once());
        assert_eq!(moves(&l), 0);
        assert!(matches!(l.code[0], Op::BinLong { dst: Reg(3), a: Reg(0), b: Reg(1), .. }));
        // `r0` an int: the move stays, and the add reads the long it wrote.
        let l = coalesce([Int, Long, Long, Long], once());
        assert_eq!(moves(&l), 1);
        assert!(matches!(l.code[1], Op::BinLong { a: Reg(2), .. }));
        // r2 = r0; r1 = r2 + r1; r3 = r2 + r1: `r2` read twice.
        let twice = vec![
            Instr::Move { dst: r(2), src: r(0) },
            Instr::Bin { dst: r(1), op: BinKind::Add, a: r(2), b: r(1) },
            Instr::Bin { dst: r(3), op: BinKind::Add, a: r(2), b: r(1) },
        ];
        assert_eq!(moves(&coalesce([Long, Long, Long, Long], twice)), 1);
        // r2 = r0; r0 = r0 + r1; r3 = r2 + r1: `r0` written before the read.
        let clobbered = vec![
            Instr::Move { dst: r(2), src: r(0) },
            Instr::Bin { dst: r(0), op: BinKind::Add, a: r(0), b: r(1) },
            Instr::Bin { dst: r(3), op: BinKind::Add, a: r(2), b: r(1) },
        ];
        assert_eq!(moves(&coalesce([Long, Long, Long, Long], clobbered)), 1);
    }

    /// The five apps, linked: a static op histogram and its top adjacent
    /// pairs (`cargo test -p corm-vm op_histogram -- --nocapture`), what
    /// each rule of this module must have left no instance of, and the
    /// linked length of two hot loops.
    #[test]
    fn op_histogram_of_the_apps() {
        let apps = [
            ("linked_list", include_str!("../../apps/src/programs/linked_list.mp")),
            ("array2d", include_str!("../../apps/src/programs/array2d.mp")),
            ("lu", include_str!("../../apps/src/programs/lu.mp")),
            ("superopt", include_str!("../../apps/src/programs/superopt.mp")),
            ("webserver", include_str!("../../apps/src/programs/webserver.mp")),
        ];
        let name = |op: &Op| {
            let s = format!("{op:?}");
            s[..s.find([' ', '(', '{']).unwrap_or(s.len())].to_string()
        };
        let (mut ops, mut pairs) =
            (BTreeMap::<String, usize>::new(), BTreeMap::<String, usize>::new());
        let mut loops = Vec::new();
        for (app, src) in apps {
            let m = corm_ir::compile_frontend(src).unwrap();
            for f in &m.funcs {
                let l = link_function(&m, f);
                let (defs, uses) = def_use(f);
                for (pc, op) in l.code.iter().enumerate() {
                    *ops.entry(name(op)).or_default() += 1;
                    if let Some(next) = l.code.get(pc + 1) {
                        *pairs.entry(format!("{} -> {}", name(op), name(next))).or_default() += 1;
                    }
                    match *op {
                        // No back edge jumps to a test that it could have run a copy of.
                        Op::Loop { to, .. } => {
                            let head = &l.code[to as usize..];
                            let test =
                                head.iter().position(|op| !writes_a_primitive(f, op)).unwrap();
                            assert!(
                                test > ROTATE_MAX
                                    || !matches!(
                                        head[test],
                                        Op::BrInt { .. } | Op::BrIntImm { .. }
                                    ),
                                "{app} {}: pc {pc} loops to a lone test at {to}",
                                f.name
                            );
                        }
                        // No branch reads an int compare that is its one reader.
                        Op::Branch { cond, .. } => {
                            let single = defs[cond.index()] == 1 && uses[cond.index()] == 1;
                            let fusable = matches!(l.code[pc - 1],
                                Op::CmpInt { dst, .. } | Op::CmpIntImm { dst, .. } if dst == cond);
                            assert!(!(single && fusable), "{app} {}: pc {pc} {op:?}", f.name);
                        }
                        _ => {}
                    }
                }
                for (at, head, steps) in back_tests(&l) {
                    loops.push((f.name.clone(), steps, l.code[head..=at].to_vec()));
                }
            }
        }
        let mut ranked: Vec<_> = ops.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let total: usize = ops.values().sum();
        println!("{total} ops linked over the five apps:");
        ranked.iter().for_each(|(op, n)| println!("  {n:5}  {op}"));
        let mut ranked: Vec<_> = pairs.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("top adjacent pairs:");
        ranked.iter().take(12).for_each(|(pair, n)| println!("  {n:5}  {pair}"));

        // The innermost loop of `func` that runs an op `has` picks.
        let loop_of = |func: &str, has: fn(&Op) -> bool| {
            let hits = loops.iter().filter(|(f, _, body)| f == func && body.iter().any(has));
            let (_, steps, body) = hits.min_by_key(|(_, _, body)| body.len()).expect("a loop");
            (body.len(), *steps)
        };
        // `Master.flushRow`'s copy loop: ArrLoadDouble, ArrStoreDouble,
        // AddIntImm, ArrLen, BrInt (8 ops unrotated, uncoalesced and untyped),
        // charged its 11 CFG steps.
        assert_eq!(
            loop_of("Master.flushRow", |op| matches!(op, Op::ArrStoreDouble { .. })),
            (5, 11)
        );
        // LU's elimination: row[j] = row[j] - l * pivot[j] (10 ops before), 13 steps.
        assert_eq!(loop_of("Worker.run", |op| matches!(op, Op::MulDouble { .. })), (7, 13));
    }

    #[test]
    fn an_op_is_no_bigger_than_three_words() {
        assert!(std::mem::size_of::<Op>() <= 24, "{}", std::mem::size_of::<Op>());
    }
}
