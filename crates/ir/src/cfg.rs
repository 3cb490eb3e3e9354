//! Control-flow-graph register IR — the representation interpreted by the
//! VM and converted to SSA for the static analyses.

use crate::classes::*;
use crate::Span;

macro_rules! small_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

small_id!(/// A virtual register local to one function.
    Reg);
small_id!(/// A basic block within one function.
    BlockId);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Constant operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    Null,
    Bool(bool),
    Int(i32),
    Long(i64),
    Double(f64),
    Str(StrId),
}

/// Arithmetic / comparison operators, operand type taken from register
/// types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    Neg,
    Not,
}

/// Reference to an instance field: the declaring class, the resolved slot
/// within the instance layout, and the field id (for analyses and printing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    pub field: FieldId,
    pub slot: u32,
}

/// Call targets after resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// Static method of a user class.
    Static(MethodId),
    /// Instance method dispatched through the vtable (local classes).
    Virtual { decl: MethodId, vslot: u32 },
    /// Instance method of a `remote class` — goes through the RMI machinery
    /// (remote classes are final, so the target is exact).
    Remote(MethodId),
    /// Constructor invocation on a freshly allocated (or `this`) object.
    Ctor(MethodId),
    /// VM-implemented native method.
    Builtin(Builtin),
}

#[derive(Debug, Clone)]
pub enum Instr {
    Const {
        dst: Reg,
        v: Const,
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
    Bin {
        dst: Reg,
        op: BinKind,
        a: Reg,
        b: Reg,
    },
    /// Numeric conversion or checked reference downcast to `to`.
    Cast {
        dst: Reg,
        src: Reg,
        to: Ty,
    },
    /// Allocate an instance of `class` with zeroed fields. For remote
    /// classes, `placement` (if present) selects the target machine.
    New {
        dst: Reg,
        class: ClassId,
        site: AllocSiteId,
        placement: Option<Reg>,
    },
    /// Allocate a one-dimensional array (`elem` is the element type).
    /// Multi-dimensional `new` is lowered into nested allocation loops so
    /// each source dimension level keeps its own allocation site, matching
    /// Figure 2 of the paper.
    NewArray {
        dst: Reg,
        elem: Ty,
        len: Reg,
        site: AllocSiteId,
    },
    GetField {
        dst: Reg,
        obj: Reg,
        field: FieldRef,
    },
    SetField {
        obj: Reg,
        field: FieldRef,
        val: Reg,
    },
    GetStatic {
        dst: Reg,
        sid: StaticId,
    },
    SetStatic {
        sid: StaticId,
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
    Call {
        dst: Option<Reg>,
        target: CallTarget,
        args: Vec<Reg>,
        site: CallSiteId,
    },
    /// Fire-and-forget asynchronous call (one-way RMI / local thread).
    Spawn {
        target: CallTarget,
        args: Vec<Reg>,
        site: CallSiteId,
    },
}

#[derive(Debug, Clone)]
pub enum Terminator {
    Jump(BlockId),
    Branch { cond: Reg, t: BlockId, f: BlockId },
    Ret(Option<Reg>),
}

impl Terminator {
    /// The blocks control may pass to — of a lowered or an SSA block alike.
    pub fn succs(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch { t, f, .. } => vec![*t, *f],
            Terminator::Ret(_) => vec![],
        }
    }
}

#[derive(Debug, Clone)]
pub struct Block {
    pub instrs: Vec<Instr>,
    pub term: Terminator,
}

/// A lowered function body.
#[derive(Debug, Clone)]
pub struct Function {
    pub id: FuncId,
    /// Backing method, if this function lowers a user method (clinits have
    /// none).
    pub method: Option<MethodId>,
    pub name: String,
    /// Parameter registers; for instance methods, `params[0]` is `this`.
    pub params: Vec<Reg>,
    pub ret: Ty,
    /// Type of every register.
    pub reg_tys: Vec<Ty>,
    pub blocks: Vec<Block>,
    pub entry: BlockId,
    pub span: Span,
}

impl Function {
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    pub fn reg_ty(&self, r: Reg) -> &Ty {
        &self.reg_tys[r.index()]
    }

    pub fn num_regs(&self) -> usize {
        self.reg_tys.len()
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: BlockId) -> Vec<BlockId> {
        self.block(b).term.succs()
    }

    /// Predecessor map for all blocks.
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, _) in self.blocks.iter().enumerate() {
            let b = BlockId(i as u32);
            for s in self.succs(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Blocks in reverse post order from the entry.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with explicit stack of (block, next-successor-index).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = self.succs(b);
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

impl Instr {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::New { dst, .. }
            | Instr::NewArray { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::GetStatic { dst, .. }
            | Instr::ArrLoad { dst, .. }
            | Instr::ArrLen { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::SetField { .. }
            | Instr::SetStatic { .. }
            | Instr::ArrStore { .. }
            | Instr::Spawn { .. } => None,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Instr::Const { .. } | Instr::GetStatic { .. } => vec![],
            Instr::Move { src, .. } => vec![*src],
            Instr::Un { a, .. } => vec![*a],
            Instr::Bin { a, b, .. } => vec![*a, *b],
            Instr::Cast { src, .. } => vec![*src],
            Instr::New { placement, .. } => placement.iter().copied().collect(),
            Instr::NewArray { len, .. } => vec![*len],
            Instr::GetField { obj, .. } => vec![*obj],
            Instr::SetField { obj, val, .. } => vec![*obj, *val],
            Instr::SetStatic { val, .. } => vec![*val],
            Instr::ArrLoad { arr, idx, .. } => vec![*arr, *idx],
            Instr::ArrStore { arr, idx, val } => vec![*arr, *idx, *val],
            Instr::ArrLen { arr, .. } => vec![*arr],
            Instr::Call { args, .. } | Instr::Spawn { args, .. } => args.clone(),
        }
    }
}
