//! CFG-level optimizations run between lowering and execution/analysis.
//!
//! The paper's toolchain compiles Java to native code through the Manta
//! compiler, so the straight-line quality of the lowered code is part of
//! the substrate. These passes keep the interpreted IR lean:
//!
//! * local constant folding and propagation (per basic block),
//! * branch simplification (`branch const` → `jump`),
//! * unreachable-block elimination,
//! * dead pure-instruction elimination.
//!
//! Allocation sites and call sites are never removed or renumbered — they
//! are the currency of the heap analysis and of the marshal-plan tables.
//! Jumps through empty forwarding blocks are threaded where the interpreter
//! links the CFG (`corm-vm`); no analysis reads the difference.

use std::collections::HashMap;

use crate::cfg::*;
use crate::classes::Module;

/// Statistics from one optimization run (used by tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    pub folded: usize,
    pub branches_simplified: usize,
    pub blocks_removed: usize,
    pub dead_removed: usize,
}

/// Optimize every function of a module in place.
pub fn optimize_module(m: &mut Module) -> OptStats {
    let mut total = OptStats::default();
    for f in &mut m.funcs {
        let s = optimize_function(f);
        total.folded += s.folded;
        total.branches_simplified += s.branches_simplified;
        total.blocks_removed += s.blocks_removed;
        total.dead_removed += s.dead_removed;
    }
    total
}

/// Optimize one function in place.
pub fn optimize_function(f: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    // Iterate to a small fixpoint: folding enables branch simplification
    // enables dead-code elimination enables more folding.
    for _ in 0..4 {
        let before = stats;
        fold_constants(f, &mut stats);
        remove_unreachable(f, &mut stats);
        eliminate_dead(f, &mut stats);
        if stats == before {
            break;
        }
    }
    stats
}

/// Per-block constant propagation and folding.
fn fold_constants(f: &mut Function, stats: &mut OptStats) {
    for b in &mut f.blocks {
        let mut env: HashMap<Reg, Const> = HashMap::new();
        for instr in &mut b.instrs {
            match instr {
                Instr::Const { dst, v } => {
                    env.insert(*dst, *v);
                }
                Instr::Move { dst, src } => {
                    let (dst, src) = (*dst, *src);
                    match env.get(&src).copied() {
                        Some(c) => {
                            *instr = Instr::Const { dst, v: c };
                            env.insert(dst, c);
                            stats.folded += 1;
                        }
                        None => {
                            env.remove(&dst);
                        }
                    }
                }
                Instr::Un { dst, op, a } => {
                    let (dst, op, a) = (*dst, *op, *a);
                    if let Some(c) = env.get(&a).copied().and_then(|va| fold_un(op, va)) {
                        *instr = Instr::Const { dst, v: c };
                        env.insert(dst, c);
                        stats.folded += 1;
                        continue;
                    }
                    env.remove(&dst);
                }
                Instr::Bin { dst, op, a, b } => {
                    let (dst, op, a, b) = (*dst, *op, *a, *b);
                    if let (Some(va), Some(vb)) = (env.get(&a).copied(), env.get(&b).copied()) {
                        if let Some(c) = fold_bin(op, va, vb) {
                            *instr = Instr::Const { dst, v: c };
                            env.insert(dst, c);
                            stats.folded += 1;
                            continue;
                        }
                    }
                    env.remove(&dst);
                }
                Instr::Cast { dst, src, to } => {
                    let (dst, src, to) = (*dst, *src, to.clone());
                    if let Some(c) = env.get(&src).copied().and_then(|vs| fold_cast(vs, &to)) {
                        *instr = Instr::Const { dst, v: c };
                        env.insert(dst, c);
                        stats.folded += 1;
                        continue;
                    }
                    env.remove(&dst);
                }
                other => {
                    if let Some(d) = other.def() {
                        env.remove(&d);
                    }
                }
            }
        }
        // Branch on constant condition.
        if let Terminator::Branch { cond, t, f: fb } = &b.term {
            if let Some(Const::Bool(v)) = env.get(cond) {
                b.term = Terminator::Jump(if *v { *t } else { *fb });
                stats.branches_simplified += 1;
            }
        }
    }
}

fn fold_un(op: UnKind, a: Const) -> Option<Const> {
    Some(match (op, a) {
        (UnKind::Neg, Const::Int(x)) => Const::Int(x.wrapping_neg()),
        (UnKind::Neg, Const::Long(x)) => Const::Long(x.wrapping_neg()),
        (UnKind::Neg, Const::Double(x)) => Const::Double(-x),
        (UnKind::Not, Const::Bool(b)) => Const::Bool(!b),
        _ => return None,
    })
}

fn fold_bin(op: BinKind, a: Const, b: Const) -> Option<Const> {
    use BinKind::*;
    Some(match (a, b) {
        (Const::Int(x), Const::Int(y)) => match op {
            Add => Const::Int(x.wrapping_add(y)),
            Sub => Const::Int(x.wrapping_sub(y)),
            Mul => Const::Int(x.wrapping_mul(y)),
            Div if y != 0 => Const::Int(x.wrapping_div(y)),
            Rem if y != 0 => Const::Int(x.wrapping_rem(y)),
            Eq => Const::Bool(x == y),
            Ne => Const::Bool(x != y),
            Lt => Const::Bool(x < y),
            Le => Const::Bool(x <= y),
            Gt => Const::Bool(x > y),
            Ge => Const::Bool(x >= y),
            BitAnd => Const::Int(x & y),
            BitOr => Const::Int(x | y),
            BitXor => Const::Int(x ^ y),
            Shl => Const::Int(x.wrapping_shl(y as u32 & 31)),
            Shr => Const::Int(x.wrapping_shr(y as u32 & 31)),
            _ => return None,
        },
        (Const::Long(x), Const::Long(y)) => match op {
            Add => Const::Long(x.wrapping_add(y)),
            Sub => Const::Long(x.wrapping_sub(y)),
            Mul => Const::Long(x.wrapping_mul(y)),
            Div if y != 0 => Const::Long(x.wrapping_div(y)),
            Rem if y != 0 => Const::Long(x.wrapping_rem(y)),
            Eq => Const::Bool(x == y),
            Ne => Const::Bool(x != y),
            Lt => Const::Bool(x < y),
            Le => Const::Bool(x <= y),
            Gt => Const::Bool(x > y),
            Ge => Const::Bool(x >= y),
            BitAnd => Const::Long(x & y),
            BitOr => Const::Long(x | y),
            BitXor => Const::Long(x ^ y),
            Shl => Const::Long(x.wrapping_shl(y as u32 & 63)),
            Shr => Const::Long(x.wrapping_shr(y as u32 & 63)),
            _ => return None,
        },
        (Const::Double(x), Const::Double(y)) => match op {
            Add => Const::Double(x + y),
            Sub => Const::Double(x - y),
            Mul => Const::Double(x * y),
            Div => Const::Double(x / y),
            Rem => Const::Double(x % y),
            Eq => Const::Bool(x == y),
            Ne => Const::Bool(x != y),
            Lt => Const::Bool(x < y),
            Le => Const::Bool(x <= y),
            Gt => Const::Bool(x > y),
            Ge => Const::Bool(x >= y),
            _ => return None,
        },
        (Const::Bool(x), Const::Bool(y)) => match op {
            Eq => Const::Bool(x == y),
            Ne => Const::Bool(x != y),
            _ => return None,
        },
        _ => return None,
    })
}

fn fold_cast(v: Const, to: &crate::classes::Ty) -> Option<Const> {
    use crate::classes::Ty;
    Some(match (v, to) {
        (Const::Int(x), Ty::Long) => Const::Long(x as i64),
        (Const::Int(x), Ty::Double) => Const::Double(x as f64),
        (Const::Int(x), Ty::Int) => Const::Int(x),
        (Const::Long(x), Ty::Int) => Const::Int(x as i32),
        (Const::Long(x), Ty::Double) => Const::Double(x as f64),
        (Const::Long(x), Ty::Long) => Const::Long(x),
        (Const::Double(x), Ty::Int) => Const::Int(x as i32),
        (Const::Double(x), Ty::Long) => Const::Long(x as i64),
        (Const::Double(x), Ty::Double) => Const::Double(x),
        _ => return None,
    })
}

/// Drop blocks unreachable from the entry (their instructions vanish; the
/// block slots remain as empty tombstones so BlockIds stay stable).
fn remove_unreachable(f: &mut Function, stats: &mut OptStats) {
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b.index()], true) {
            continue;
        }
        stack.extend(f.succs(b));
    }
    for (i, b) in f.blocks.iter_mut().enumerate() {
        if !reachable[i] && (!b.instrs.is_empty() || !matches!(b.term, Terminator::Ret(None))) {
            b.instrs.clear();
            b.term = Terminator::Ret(None);
            stats.blocks_removed += 1;
        }
    }
}

/// Remove pure instructions whose results are never used.
fn eliminate_dead(f: &mut Function, stats: &mut OptStats) {
    loop {
        let mut used = vec![false; f.num_regs()];
        for &p in &f.params {
            used[p.index()] = true; // parameters stay (GC roots, debuggers)
        }
        for b in &f.blocks {
            for i in &b.instrs {
                for u in i.uses() {
                    used[u.index()] = true;
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => used[cond.index()] = true,
                Terminator::Ret(Some(v)) => used[v.index()] = true,
                _ => {}
            }
        }
        let mut removed = 0;
        for b in &mut f.blocks {
            b.instrs.retain(|i| {
                // Purity excludes anything that can raise at runtime:
                // integer Div/Rem (division by zero) and reference casts
                // (checked downcasts). Java preserves those faults even
                // when the result is unused; so do we.
                let pure = match i {
                    Instr::Const { .. } | Instr::Move { .. } | Instr::Un { .. } => true,
                    Instr::Bin { op, .. } => !matches!(op, BinKind::Div | BinKind::Rem),
                    Instr::Cast { to, .. } => to.is_numeric(),
                    _ => false,
                };
                let dead = pure && i.def().map(|d| !used[d.index()]).unwrap_or(false);
                if dead {
                    removed += 1;
                }
                !dead
            });
        }
        stats.dead_removed += removed;
        if removed == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower::lower_program, parse_program, resolve_program};

    fn lowered(src: &str) -> Module {
        let ast = parse_program(src).unwrap();
        let r = resolve_program(&ast).unwrap();
        lower_program(&r).unwrap()
    }

    fn func<'m>(m: &'m Module, name: &str) -> &'m Function {
        m.funcs.iter().find(|f| f.name == name).expect("function")
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut m =
            lowered("class M { static int f() { return (3 + 4) * 2; } static void main() { } }");
        let stats = optimize_module(&mut m);
        assert!(stats.folded >= 2, "folded {}", stats.folded);
        // result must be a single Const feeding the return
        let f = func(&m, "M.f");
        let consts: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Const { v: Const::Int(x), .. } => Some(*x),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&14));
    }

    #[test]
    fn simplifies_constant_branch() {
        let mut m = lowered(
            "class M { static int f() { if (1 < 2) { return 5; } return 6; } static void main() { } }",
        );
        let stats = optimize_module(&mut m);
        assert!(stats.branches_simplified >= 1);
        let f = func(&m, "M.f");
        assert!(
            f.blocks.iter().all(|b| !matches!(b.term, Terminator::Branch { .. })),
            "constant branch must be gone"
        );
    }

    #[test]
    fn removes_dead_pure_code() {
        let mut m = lowered(
            "class M { static int f(int a) { int unused = a * 37; return a; } static void main() { } }",
        );
        let stats = optimize_module(&mut m);
        assert!(stats.dead_removed >= 1);
        let f = func(&m, "M.f");
        let muls = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Bin { op: BinKind::Mul, .. }))
            .count();
        assert_eq!(muls, 0, "dead multiply must be eliminated");
    }

    #[test]
    fn keeps_side_effects() {
        let mut m = lowered(
            r#"class M { static void main() { int[] a = new int[3]; a[0] = 1; System.println("x"); } }"#,
        );
        optimize_module(&mut m);
        let f = func(&m, "M.main");
        let instrs: Vec<_> = f.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs.iter().any(|i| matches!(i, Instr::NewArray { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::ArrStore { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn folding_preserves_division_guard() {
        // 1/0 must NOT fold (runtime error semantics preserved)
        let mut m = lowered("class M { static int f() { return 1 / 0; } static void main() { } }");
        optimize_module(&mut m);
        let f = func(&m, "M.f");
        let divs = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Bin { op: BinKind::Div, .. }))
            .count();
        assert_eq!(divs, 1, "division by zero must stay for the VM to raise");
    }

    #[test]
    fn optimized_module_still_validates_ssa() {
        let mut m = lowered(
            "class M { static int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * 2; } return s; } static void main() { } }",
        );
        optimize_module(&mut m);
        for f in &m.funcs {
            crate::ssa::build_ssa(f).validate().unwrap();
        }
    }
}
