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
//!   `y = op …`, and `k = const int; z = a op k` is [`Op::BinIntImm`] (or
//!   [`Op::CmpIntImm`]);
//! * safepoints at block ends, each charged its block's instruction count.
//!
//! What has no typed form — string literals, `new`, reference casts, remote
//! and builtin calls, `spawn` — is [`Op::Other`], the one escape to
//! `Interp::exec`.

use corm_heap::Value;
use corm_ir::{
    BinKind, BlockId, CallTarget, Const, FuncId, Function, Instr, MethodId, Module, Reg,
    Terminator, Ty, UnKind,
};

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
            | Op::BinLong { dst, .. }
            | Op::BinDouble { dst, .. }
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
            | Op::ArrLen { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

/// Link every function of `module`, indexed by `FuncId`.
pub(crate) fn link(module: &Module) -> Box<[Linked]> {
    module.funcs.iter().map(|f| link_function(module, f)).collect()
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
    // Def and use counts, per function: a parameter is defined on entry.
    // Predecessors are counted along the threaded edges.
    let (mut defs, mut uses) = (vec![0u32; f.num_regs()], vec![0u32; f.num_regs()]);
    let mut preds = vec![0u32; f.blocks.len()];
    f.params.iter().for_each(|p| defs[p.index()] += 1);
    for block in &f.blocks {
        for i in &block.instrs {
            i.def().into_iter().for_each(|d| defs[d.index()] += 1);
            i.uses().into_iter().for_each(|u| uses[u.index()] += 1);
        }
        match block.term {
            Terminator::Jump(t) => preds[target(t).index()] += 1,
            Terminator::Branch { cond, t, f: e } => {
                uses[cond.index()] += 1;
                preds[target(t).index()] += 1;
                preds[target(e).index()] += 1;
            }
            Terminator::Ret(r) => r.into_iter().for_each(|r| uses[r.index()] += 1),
        }
    }
    let single = |r: Reg| defs[r.index()] == 1 && uses[r.index()] == 1;

    let (mut l, mut code) = (Linker { module, f, calls: Vec::new() }, Vec::new());
    let mut block_pc = Vec::with_capacity(f.blocks.len());
    // Steps of a block that fell through into the next, which has no other
    // predecessor: charged with that block's first charge.
    let mut carry = 0;
    for (b, block) in f.blocks.iter().enumerate() {
        block_pc.push(code.len() as u32);
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

        let mut instrs = block.instrs.iter().peekable();
        while let Some(instr) = instrs.next() {
            steps += 1;
            if matches!(instr, Instr::Const { dst, .. } if imm(*dst).is_some()) {
                continue;
            }
            let op = l.op(instr, steps, &imm);
            if matches!(op, Op::CallDirect { .. } | Op::CallVirtual { .. }) {
                steps = 0;
            }
            code.push(op);
            // `t = op …; y = t` with `t` written and read once: `y = op …`.
            let Some(t) = instr.def().filter(|&t| single(t) && primitive(f.reg_ty(t))) else {
                continue;
            };
            if let Some(Instr::Move { dst: y, src }) = instrs.peek() {
                if *src == t && *y != t {
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
            Terminator::Jump(t) => match target(t) {
                t if t.index() == b + 1 => carry = steps,
                t if t.index() <= b => code.push(Op::Loop { to: t.0, steps }),
                t => code.push(Op::Jump { to: t.0, steps }),
            },
            Terminator::Branch { cond, t, f: e } => {
                code.push(Op::Branch { cond, t: target(t).0, f: target(e).0, steps })
            }
            Terminator::Ret(src) => code.push(Op::Ret { src, steps }),
        }
    }
    // Block ids to pcs.
    for op in &mut code {
        match op {
            Op::Jump { to, .. } | Op::Loop { to, .. } => *to = block_pc[*to as usize],
            Op::Branch { t, f, .. } => {
                *t = block_pc[*t as usize];
                *f = block_pc[*f as usize];
            }
            _ => {}
        }
    }
    Linked {
        code: code.into(),
        nregs: f.num_regs(),
        params: f.params.clone().into(),
        entry: block_pc[target(f.entry).index()],
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
        let other = || Op::Other(Box::new(instr.clone()));
        match *instr {
            Instr::Const { dst, v } => match v {
                Const::Null => Op::Const { dst, v: Value::Null },
                Const::Bool(b) => Op::Const { dst, v: Value::Bool(b) },
                Const::Int(x) => Op::Const { dst, v: Value::Int(x) },
                Const::Long(x) => Op::Const { dst, v: Value::Long(x) },
                Const::Double(x) => Op::Const { dst, v: Value::Double(x) },
                Const::Str(_) => other(),
            },
            Instr::Move { dst, src } => Op::Move { dst, src },
            Instr::Un { dst, op, a } => Op::Un { dst, op, a },
            Instr::Bin { dst, op, a, b } => match (ty(a), ty(b), comparison(op)) {
                (Ty::Int, Ty::Int, false) => match imm(b) {
                    Some(imm) => Op::BinIntImm { dst, op, a, imm },
                    None => Op::BinInt { dst, op, a, b },
                },
                (Ty::Int, Ty::Int, true) => match imm(b) {
                    Some(imm) => Op::CmpIntImm { dst, op, a, imm },
                    None => Op::CmpInt { dst, op, a, b },
                },
                (Ty::Long, Ty::Long, false) => Op::BinLong { dst, op, a, b },
                (Ty::Long, Ty::Long, true) => Op::CmpLong { dst, op, a, b },
                (Ty::Double, Ty::Double, false) => Op::BinDouble { dst, op, a, b },
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
            Instr::ArrLoad { dst, arr, idx } => Op::ArrLoad { dst, arr, idx },
            Instr::ArrStore { arr, idx, val } => Op::ArrStore { arr, idx, val },
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
    use corm_ir::{Block, BlockId, Span};

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
        // there; the loop's own steps are, at its branch.
        assert!(matches!(l.code[4], Op::Branch { t: 1, f: 5, steps: 4, .. }));
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
        assert!(f.code.iter().all(|op| !matches!(op, Op::BinIntImm { .. })));
        // Used once, each constant is an immediate, and the temporaries fuse.
        let g = link("M.g");
        let imms = g.code.iter().filter(|op| matches!(op, Op::BinIntImm { .. })).count();
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
    fn the_interpreter_probes_loop_links_to_eleven_ops_an_iteration() {
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
        let (at, head, steps) = l
            .code
            .iter()
            .enumerate()
            .find_map(|(pc, op)| match *op {
                Op::Loop { to, steps } => Some((pc, to as usize, steps)),
                _ => None,
            })
            .expect("a back-edge");
        assert!(at + 1 - head <= 11, "{} ops an iteration", at + 1 - head);
        let Op::Branch { steps: head_steps, .. } = l.code[head + 1] else { panic!("loop test") };
        assert_eq!(head_steps + steps, 16, "an iteration is charged its CFG steps");
    }

    #[test]
    fn an_op_is_no_bigger_than_three_words() {
        assert!(std::mem::size_of::<Op>() <= 24, "{}", std::mem::size_of::<Op>());
    }
}
