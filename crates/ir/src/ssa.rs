//! SSA construction — step 1 of the paper's heap-analysis algorithm
//! ("convert all code to SSA form", citing Cytron et al.).
//!
//! Dominators are computed with the Cooper–Harvey–Kennedy iterative
//! algorithm, phi nodes are placed on iterated dominance frontiers, and
//! renaming walks the dominator tree with per-variable stacks. The SSA
//! function reuses the [`Instr`] encoding of the CFG IR: registers are
//! simply renumbered into a fresh SSA value space, with phi nodes stored
//! per block.

use crate::cfg::*;
use crate::classes::Ty;
use crate::scalar;

/// A phi node: `dst = phi [(pred_block, value), ...]`.
#[derive(Debug, Clone)]
pub struct Phi {
    pub dst: Reg,
    /// The original (pre-SSA) register this phi merges — kept for
    /// diagnostics.
    pub orig: Reg,
    pub args: Vec<(BlockId, Reg)>,
}

#[derive(Debug, Clone)]
pub struct SsaBlock {
    pub phis: Vec<Phi>,
    pub instrs: Vec<Instr>,
    pub term: Terminator,
}

/// A function in SSA form. Register ids are SSA value ids; every value has
/// exactly one definition (a parameter, a phi, or an instruction `def`).
#[derive(Debug, Clone)]
pub struct SsaFunction {
    pub id: crate::classes::FuncId,
    pub name: String,
    pub entry: BlockId,
    pub params: Vec<Reg>,
    pub var_tys: Vec<Ty>,
    pub blocks: Vec<SsaBlock>,
}

impl SsaFunction {
    pub fn block(&self, b: BlockId) -> &SsaBlock {
        &self.blocks[b.index()]
    }

    pub fn succs(&self, b: BlockId) -> Vec<BlockId> {
        self.block(b).term.succs()
    }

    /// Check the single-definition invariant; returns the offending SSA
    /// value on violation. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined = vec![false; self.var_tys.len()];
        let mut define = |r: Reg| -> Result<(), String> {
            if defined[r.index()] {
                return Err(format!("SSA value {r} defined twice"));
            }
            defined[r.index()] = true;
            Ok(())
        };
        for &p in &self.params {
            define(p)?;
        }
        for b in &self.blocks {
            for phi in &b.phis {
                define(phi.dst)?;
            }
            for i in &b.instrs {
                if let Some(d) = i.def() {
                    define(d)?;
                }
                if matches!(i, Instr::Move { .. }) {
                    return Err("SSA form must not contain Move instructions".into());
                }
            }
        }
        Ok(())
    }
}

/// Dominator tree and dominance frontiers for a CFG function.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator of each block (entry maps to itself).
    pub idom: Vec<BlockId>,
    /// Children in the dominator tree.
    pub children: Vec<Vec<BlockId>>,
    /// Dominance frontier of each block.
    pub frontier: Vec<Vec<BlockId>>,
    /// Reverse post order used during construction.
    pub rpo: Vec<BlockId>,
}

/// Compute dominators with the Cooper–Harvey–Kennedy algorithm.
pub fn dominators(f: &Function) -> Dominators {
    let n = f.blocks.len();
    let rpo = f.rpo();
    let mut rpo_num = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_num[b.index()] = i;
    }
    let preds = f.preds();

    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[f.entry.index()] = Some(f.entry);

    let intersect =
        |idom: &[Option<BlockId>], rpo_num: &[usize], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while rpo_num[a.index()] > rpo_num[b.index()] {
                    a = idom[a.index()].unwrap();
                }
                while rpo_num[b.index()] > rpo_num[a.index()] {
                    b = idom[b.index()].unwrap();
                }
            }
            a
        };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.index()] {
                if rpo_num[p.index()] == usize::MAX {
                    continue; // unreachable predecessor
                }
                if idom[p.index()].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_num, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.index()] != Some(ni) {
                    idom[b.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }

    // Unreachable blocks: park them under the entry so downstream passes
    // have a total function.
    let idom: Vec<BlockId> = (0..n).map(|i| idom[i].unwrap_or(f.entry)).collect();

    let mut children = vec![Vec::new(); n];
    for i in 0..n {
        let b = BlockId(i as u32);
        if b != f.entry {
            children[idom[i].index()].push(b);
        }
    }

    // Dominance frontiers (Cooper et al. style).
    let mut frontier = vec![Vec::new(); n];
    for i in 0..n {
        let b = BlockId(i as u32);
        if preds[i].len() >= 2 {
            for &p in &preds[i] {
                if rpo_num[p.index()] == usize::MAX {
                    continue;
                }
                let mut runner = p;
                while runner != idom[i] {
                    if !frontier[runner.index()].contains(&b) {
                        frontier[runner.index()].push(b);
                    }
                    let next = idom[runner.index()];
                    if next == runner {
                        break; // reached entry
                    }
                    runner = next;
                }
            }
        }
    }

    Dominators { idom, children, frontier, rpo }
}

/// Convert a CFG function to SSA form.
pub fn build_ssa(f: &Function) -> SsaFunction {
    let dom = dominators(f);
    let n_blocks = f.blocks.len();
    let n_orig = f.num_regs();

    // Definition sites per original register. Parameters count as a
    // definition in the entry block; every other register additionally gets
    // an implicit default definition at entry so renaming never underflows
    // (MiniParty lowering zero-initializes declarations, so these implicit
    // defs are only reachable for compiler temporaries on dead paths).
    let mut def_blocks: Vec<Vec<BlockId>> = vec![vec![f.entry]; n_orig];
    for (bi, b) in f.blocks.iter().enumerate() {
        for i in &b.instrs {
            if let Some(d) = i.def() {
                def_blocks[d.index()].push(BlockId(bi as u32));
            }
        }
    }

    // Phi placement on iterated dominance frontiers.
    let mut phi_for: Vec<Vec<Reg>> = vec![Vec::new(); n_blocks]; // per block: orig regs needing phis
    for (v, defs) in def_blocks.iter().enumerate() {
        let mut work: Vec<BlockId> = defs.clone();
        let mut has_phi = vec![false; n_blocks];
        let mut in_work = vec![false; n_blocks];
        for &b in &work {
            in_work[b.index()] = true;
        }
        while let Some(b) = work.pop() {
            for &df in &dom.frontier[b.index()] {
                if !has_phi[df.index()] {
                    has_phi[df.index()] = true;
                    phi_for[df.index()].push(Reg(v as u32));
                    if !in_work[df.index()] {
                        in_work[df.index()] = true;
                        work.push(df);
                    }
                }
            }
        }
    }

    // Renaming.
    struct Renamer<'a> {
        f: &'a Function,
        dom: &'a Dominators,
        stacks: Vec<Vec<Reg>>,
        var_tys: Vec<Ty>,
        orig_of: Vec<Reg>,
        out: Vec<SsaBlock>,
    }

    impl<'a> Renamer<'a> {
        fn fresh(&mut self, orig: Reg) -> Reg {
            let id = Reg(self.var_tys.len() as u32);
            self.var_tys.push(self.f.reg_ty(orig).clone());
            self.orig_of.push(orig);
            id
        }

        fn top(&mut self, orig: Reg) -> Reg {
            if let Some(&v) = self.stacks[orig.index()].last() {
                v
            } else {
                // Unreachable-path use: synthesize a value (never executed).
                let v = self.fresh(orig);
                self.stacks[orig.index()].push(v);
                v
            }
        }

        fn rename_operands(&mut self, i: &mut Instr) {
            macro_rules! r {
                ($x:expr) => {
                    *$x = self.top(*$x)
                };
            }
            match i {
                Instr::Const { .. } | Instr::GetStatic { .. } => {}
                Instr::Move { src, .. } => r!(src),
                Instr::Un { a, .. } => r!(a),
                Instr::Bin { a, b, .. } => {
                    r!(a);
                    r!(b);
                }
                Instr::Cast { src, .. } => r!(src),
                Instr::New { placement, .. } => {
                    if let Some(p) = placement {
                        r!(p);
                    }
                }
                Instr::NewArray { len, .. } => r!(len),
                Instr::GetField { obj, .. } => r!(obj),
                Instr::SetField { obj, val, .. } => {
                    r!(obj);
                    r!(val);
                }
                Instr::SetStatic { val, .. } => r!(val),
                Instr::ArrLoad { arr, idx, .. } => {
                    r!(arr);
                    r!(idx);
                }
                Instr::ArrStore { arr, idx, val } => {
                    r!(arr);
                    r!(idx);
                    r!(val);
                }
                Instr::ArrLen { arr, .. } => r!(arr),
                Instr::Call { args, .. } | Instr::Spawn { args, .. } => {
                    for a in args {
                        r!(a);
                    }
                }
            }
        }

        fn walk(&mut self, b: BlockId, phi_for: &[Vec<Reg>]) {
            let mut pushed: Vec<Reg> = Vec::new();

            // Phi definitions first.
            for (pi, &orig) in phi_for[b.index()].iter().enumerate() {
                let v = self.fresh(orig);
                self.out[b.index()].phis[pi].dst = v;
                self.stacks[orig.index()].push(orig);
                *self.stacks[orig.index()].last_mut().unwrap() = v;
                pushed.push(orig);
            }

            // Instructions: rename uses, then defs. `Move` collapses into a
            // pure renaming (copy propagation) and is dropped from SSA.
            let src_instrs = self.f.block(b).instrs.clone();
            for mut i in src_instrs {
                self.rename_operands(&mut i);
                if let Instr::Move { dst, src } = i {
                    self.stacks[dst.index()].push(src);
                    pushed.push(dst);
                    continue;
                }
                if let Some(d) = i.def() {
                    let v = self.fresh(d);
                    set_def(&mut i, v);
                    self.stacks[d.index()].push(v);
                    pushed.push(d);
                }
                self.out[b.index()].instrs.push(i);
            }

            // Terminator.
            let mut term = self.f.block(b).term.clone();
            if let Terminator::Branch { cond, .. } = &mut term {
                *cond = self.top(*cond);
            }
            if let Terminator::Ret(Some(v)) = &mut term {
                *v = self.top(*v);
            }
            self.out[b.index()].term = term;

            // Fill phi arguments of successors.
            for s in self.f.succs(b) {
                for (pi, &orig) in phi_for[s.index()].iter().enumerate() {
                    let v = self.top(orig);
                    self.out[s.index()].phis[pi].args.push((b, v));
                }
            }

            // Recurse into dominator-tree children.
            for &c in &self.dom.children[b.index()].clone() {
                self.walk(c, phi_for);
            }

            for orig in pushed.into_iter().rev() {
                self.stacks[orig.index()].pop();
            }
        }
    }

    fn set_def(i: &mut Instr, v: Reg) {
        match i {
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
            | Instr::ArrLen { dst, .. } => *dst = v,
            Instr::Call { dst, .. } => *dst = Some(v),
            _ => unreachable!("instruction has no def"),
        }
    }

    let mut out: Vec<SsaBlock> = f
        .blocks
        .iter()
        .map(|b| SsaBlock {
            phis: Vec::new(),
            instrs: Vec::with_capacity(b.instrs.len()),
            term: b.term.clone(),
        })
        .collect();
    for (bi, regs) in phi_for.iter().enumerate() {
        for &orig in regs {
            out[bi].phis.push(Phi { dst: Reg(u32::MAX), orig, args: Vec::new() });
        }
    }

    let mut ren = Renamer {
        f,
        dom: &dom,
        stacks: vec![Vec::new(); n_orig],
        var_tys: Vec::new(),
        orig_of: Vec::new(),
        out,
    };

    // Parameters: fresh SSA values pushed before walking.
    let mut ssa_params = Vec::with_capacity(f.params.len());
    for &p in &f.params {
        let v = ren.fresh(p);
        ren.stacks[p.index()].push(v);
        ssa_params.push(v);
    }
    // Implicit default definitions for all other registers (makes every
    // use well-defined even on paths the type system knows are dead).
    for v in 0..n_orig {
        if ren.stacks[v].is_empty() {
            let orig = Reg(v as u32);
            let sv = ren.fresh(orig);
            ren.stacks[v].push(sv);
            // Materialize as a Const default at function entry.
            let v = scalar::zero(f.reg_ty(orig));
            ren.out[f.entry.index()].instrs.push(Instr::Const { dst: sv, v });
        }
    }
    // The walk appends the renamed entry instructions after these defs.
    ren.walk(f.entry, &phi_for);

    let ssa = SsaFunction {
        id: f.id,
        name: f.name.clone(),
        entry: f.entry,
        params: ssa_params,
        var_tys: ren.var_tys,
        blocks: ren.out,
    };
    debug_assert!(ssa.validate().is_ok(), "{:?}", ssa.validate());
    ssa
}

/// Build SSA for every function of a module.
pub fn build_module_ssa(m: &crate::classes::Module) -> Vec<SsaFunction> {
    m.funcs.iter().map(build_ssa).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_frontend;

    fn ssa_of(src: &str, fname: &str) -> SsaFunction {
        let m = compile_frontend(src).unwrap();
        let f = m.funcs.iter().find(|f| f.name == fname).expect("function");
        build_ssa(f)
    }

    #[test]
    fn straightline_has_no_phis() {
        let s = ssa_of(
            "class M { static int f() { int x = 1; int y = x + 2; return y; } static void main() {} }",
            "M.f",
        );
        assert!(s.blocks.iter().all(|b| b.phis.is_empty()));
        s.validate().unwrap();
    }

    #[test]
    fn diamond_redefinition_gets_phi() {
        let s = ssa_of(
            "class M { static int f(boolean c) { int x = 1; if (c) { x = 2; } else { x = 3; } return x; } static void main() {} }",
            "M.f",
        );
        let phis: usize = s.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phis >= 1, "join point needs a phi");
        s.validate().unwrap();
    }

    #[test]
    fn loop_variable_gets_phi() {
        let s = ssa_of(
            "class M { static int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; } static void main() {} }",
            "M.f",
        );
        let phis: usize = s.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(phis >= 2, "loop needs phis for i and s, got {phis}");
        s.validate().unwrap();
    }

    #[test]
    fn phi_args_cover_all_preds() {
        let s = ssa_of(
            "class M { static int f(boolean c) { int x = 1; if (c) { x = 2; } return x; } static void main() {} }",
            "M.f",
        );
        for (bi, b) in s.blocks.iter().enumerate() {
            let bid = BlockId(bi as u32);
            let n_preds = s
                .blocks
                .iter()
                .enumerate()
                .filter(|(pi, _)| s.succs(BlockId(*pi as u32)).contains(&bid))
                .count();
            for phi in &b.phis {
                assert_eq!(phi.args.len(), n_preds, "phi must have one arg per pred");
            }
        }
    }

    #[test]
    fn moves_are_eliminated() {
        let s = ssa_of(
            "class M { static int f(int a) { int b = a; int c = b; return c; } static void main() {} }",
            "M.f",
        );
        s.validate().unwrap(); // validate() rejects Move in SSA
                               // the returned value must be the parameter itself (copy propagated)
        let ret = s
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Terminator::Ret(Some(v)) => Some(*v),
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, s.params[0]);
    }

    #[test]
    fn dominators_of_diamond() {
        let m = compile_frontend(
            "class M { static int f(boolean c) { int x = 0; if (c) { x = 1; } else { x = 2; } return x; } static void main() {} }",
        )
        .unwrap();
        let f = m.funcs.iter().find(|f| f.name == "M.f").unwrap();
        let dom = dominators(f);
        // entry dominates everything; the join block's idom is the entry
        // (the branch block).
        for (i, &id) in dom.idom.iter().enumerate() {
            let _ = i;
            // idom chain must terminate at entry
            let mut cur = id;
            let mut steps = 0;
            while cur != f.entry {
                cur = dom.idom[cur.index()];
                steps += 1;
                assert!(steps < dom.idom.len() + 1, "idom chain cycle");
            }
        }
    }

    #[test]
    fn while_loop_dominators_terminate() {
        let s = ssa_of(
            "class M { static int f(int n) { int i = 0; while (i < n) { i++; } return i; } static void main() {} }",
            "M.f",
        );
        s.validate().unwrap();
    }
}
