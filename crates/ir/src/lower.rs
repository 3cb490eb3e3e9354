//! Typed lowering: walks AST method bodies, type-checks every expression
//! and emits the CFG register IR. Also synthesizes constructors (field
//! initializers) and per-class static initializers (`<clinit>`).
//!
//! Allocation sites and call sites are numbered globally here — they are
//! the currency of the paper's heap analysis (§2) and call-site-specific
//! code generation (§3.1).

use std::collections::HashMap;

use crate::ast::*;
use crate::cfg::*;
use crate::classes::*;
use crate::resolve::ResolvedProgram;
use crate::scalar;
use crate::{CompileError, Span};

/// Lower a resolved program into a [`Module`].
pub fn lower_program(rp: &ResolvedProgram) -> Result<Module, CompileError> {
    let mut lw = Lowerer {
        rp,
        table: rp.table.clone(),
        funcs: Vec::new(),
        strings: Vec::new(),
        str_pool: HashMap::new(),
        alloc_sites: Vec::new(),
        call_sites: Vec::new(),
        clinits: Vec::new(),
    };
    lw.run()?;
    let main = lw.table.method(rp.main_method).body;
    let main = match main {
        MethodBody::User(f) => f,
        _ => unreachable!("main must have been lowered"),
    };
    Ok(Module {
        table: lw.table,
        funcs: lw.funcs,
        strings: lw.strings,
        alloc_sites: lw.alloc_sites,
        call_sites: lw.call_sites,
        main,
        clinits: lw.clinits,
    })
}

struct Lowerer<'a> {
    rp: &'a ResolvedProgram,
    table: ClassTable,
    funcs: Vec<Function>,
    strings: Vec<String>,
    str_pool: HashMap<String, StrId>,
    alloc_sites: Vec<AllocSiteMeta>,
    call_sites: Vec<CallSiteMeta>,
    clinits: Vec<FuncId>,
}

impl<'a> Lowerer<'a> {
    fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.str_pool.get(s) {
            return id;
        }
        let id = StrId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.str_pool.insert(s.to_string(), id);
        id
    }

    fn run(&mut self) -> Result<(), CompileError> {
        let class_ids: Vec<ClassId> = self
            .table
            .classes
            .iter()
            .filter(|c| c.kind == ClassKind::User && c.id != OBJECT_CLASS)
            .map(|c| c.id)
            .collect();

        // Static initializers, in declaration order.
        for &cid in &class_ids {
            let ci = self.rp.class_src[&cid];
            let ast_class = &self.rp.ast.classes[ci];
            let static_inits: Vec<(FieldId, Expr)> = ast_class
                .fields
                .iter()
                .filter(|f| f.is_static && f.init.is_some())
                .map(|f| {
                    let fid = self.table.find_static_field(cid, &f.name).unwrap();
                    (fid, f.init.clone().unwrap())
                })
                .collect();
            if static_inits.is_empty() {
                continue;
            }
            let name = format!("{}.<clinit>", ast_class.name);
            let fid = self.lower_synthetic(cid, &name, move |fb| {
                for (field, init) in &static_inits {
                    let place = fb.static_place(*field);
                    let (r, t) = fb.expr(init)?;
                    let r = fb.coerce(r, &t, &place.ty(fb), init.span)?;
                    fb.store_place(&place, r);
                }
                Ok(())
            })?;
            self.clinits.push(fid);
        }

        // Constructors (synthesized to run instance field initializers
        // before the user ctor body) and ordinary methods.
        for &cid in &class_ids {
            let ci = self.rp.class_src[&cid];
            let methods = self.table.class(cid).methods.clone();
            let has_ctor = methods.iter().any(|&m| self.table.method(m).is_ctor);
            let has_inst_inits =
                self.rp.ast.classes[ci].fields.iter().any(|f| !f.is_static && f.init.is_some());
            if !has_ctor && has_inst_inits {
                // Synthesize a default constructor so initializers run.
                let span = self.rp.ast.classes[ci].span;
                let mid = MethodId(self.table.methods.len() as u32);
                self.table.methods.push(Method {
                    id: mid,
                    name: self.table.class(cid).name.clone(),
                    owner: cid,
                    is_static: false,
                    is_ctor: true,
                    params: vec![],
                    ret: Ty::Void,
                    vslot: None,
                    body: MethodBody::Pending,
                    span,
                });
                self.table.classes[cid.index()].methods.push(mid);
                self.lower_method(cid, mid, None)?;
            }
            for m in methods {
                if matches!(self.table.method(m).body, MethodBody::Pending) {
                    let src = self.rp.method_src.get(&m).copied();
                    self.lower_method(cid, m, src)?;
                }
            }
        }
        Ok(())
    }

    /// Lower a synthetic static function (clinit).
    fn lower_synthetic(
        &mut self,
        cid: ClassId,
        name: &str,
        build: impl FnOnce(&mut FuncBuilder) -> Result<(), CompileError>,
    ) -> Result<FuncId, CompileError> {
        let fid = FuncId(self.funcs.len() as u32);
        let mut fb =
            FuncBuilder::new(self, fid, name.to_string(), cid, true, Ty::Void, Span::default());
        build(&mut fb)?;
        let func = fb.finish(None)?;
        self.funcs.push(func);
        Ok(fid)
    }

    fn lower_method(
        &mut self,
        cid: ClassId,
        mid: MethodId,
        src: Option<(usize, usize)>,
    ) -> Result<(), CompileError> {
        let meth = self.table.method(mid).clone();
        let fid = FuncId(self.funcs.len() as u32);
        let cls_name = self.table.class(cid).name.clone();
        let fname = format!("{}.{}", cls_name, if meth.is_ctor { "<init>" } else { &meth.name });
        let ast_method = src.map(|(ci, mi)| (ci, self.rp.ast.classes[ci].methods[mi].clone()));
        let default_ctor_ci = self.rp.class_src.get(&cid).copied();
        let mut fb =
            FuncBuilder::new(self, fid, fname, cid, meth.is_static, meth.ret.clone(), meth.span);

        // Parameter registers: `this` first for instance methods.
        if !meth.is_static {
            let this = fb.new_reg(Ty::Class(cid));
            fb.params.push(this);
            fb.declare("this", this, meth.span)?;
        }
        if let Some((ci, ast_m)) = &ast_method {
            let ci = *ci;
            for ((pty, pname), rty) in ast_m.params.iter().zip(meth.params.iter()) {
                let _ = pty;
                let r = fb.new_reg(rty.clone());
                fb.params.push(r);
                fb.declare(pname, r, ast_m.span)?;
            }
            // Instance field initializers run at the start of constructors.
            if meth.is_ctor {
                fb.emit_field_inits(ci)?;
            }
            let body = ast_m.body.clone();
            fb.push_scope();
            for st in &body {
                fb.stmt(st)?;
            }
            fb.pop_scope();
        } else if meth.is_ctor {
            // Synthesized default ctor: just the field initializers.
            fb.emit_field_inits(default_ctor_ci.expect("user class has AST source"))?;
        }

        let func = fb.finish(Some(mid))?;
        self.funcs.push(func);
        self.table.methods[mid.index()].body = MethodBody::User(fid);
        Ok(())
    }
}

/// Per-function lowering state.
struct FuncBuilder<'a, 'b> {
    lw: &'a mut Lowerer<'b>,
    id: FuncId,
    name: String,
    class: ClassId,
    is_static: bool,
    ret: Ty,
    span: Span,
    reg_tys: Vec<Ty>,
    params: Vec<Reg>,
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
    cur: BlockId,
    scopes: Vec<HashMap<String, Reg>>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
}

impl<'a, 'b> FuncBuilder<'a, 'b> {
    fn new(
        lw: &'a mut Lowerer<'b>,
        id: FuncId,
        name: String,
        class: ClassId,
        is_static: bool,
        ret: Ty,
        span: Span,
    ) -> Self {
        FuncBuilder {
            lw,
            id,
            name,
            class,
            is_static,
            ret,
            span,
            reg_tys: Vec::new(),
            params: Vec::new(),
            blocks: vec![(Vec::new(), None)],
            cur: BlockId(0),
            scopes: vec![HashMap::new()],
            loop_stack: Vec::new(),
        }
    }

    fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_tys.len() as u32);
        self.reg_tys.push(ty);
        r
    }

    fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push((Vec::new(), None));
        b
    }

    fn emit(&mut self, i: Instr) {
        if self.blocks[self.cur.index()].1.is_none() {
            self.blocks[self.cur.index()].0.push(i);
        }
        // Instructions after a terminator are unreachable and dropped.
    }

    fn terminate(&mut self, t: Terminator) {
        let slot = &mut self.blocks[self.cur.index()].1;
        if slot.is_none() {
            *slot = Some(t);
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, r: Reg, span: Span) -> Result<(), CompileError> {
        let scope = self.scopes.last_mut().unwrap();
        if scope.insert(name.to_string(), r).is_some() {
            return Err(CompileError::new(span, format!("duplicate variable `{name}`")));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Reg> {
        for s in self.scopes.iter().rev() {
            if let Some(&r) = s.get(name) {
                return Some(r);
            }
        }
        None
    }

    fn reg_ty(&self, r: Reg) -> Ty {
        self.reg_tys[r.index()].clone()
    }

    fn this_reg(&self, span: Span) -> Result<Reg, CompileError> {
        if self.is_static {
            return Err(CompileError::new(span, "`this` used in a static context"));
        }
        Ok(self.params[0])
    }

    fn new_alloc_site(&mut self, ty: Ty, span: Span) -> AllocSiteId {
        let id = AllocSiteId(self.lw.alloc_sites.len() as u32);
        self.lw.alloc_sites.push(AllocSiteMeta { id, func: self.id, ty, span });
        id
    }

    fn new_call_site(
        &mut self,
        method: Option<MethodId>,
        is_remote: bool,
        ret_ignored: bool,
        is_spawn: bool,
        span: Span,
    ) -> CallSiteId {
        let id = CallSiteId(self.lw.call_sites.len() as u32);
        self.lw.call_sites.push(CallSiteMeta {
            id,
            caller: self.id,
            method,
            is_remote,
            ret_ignored,
            is_spawn,
            span,
        });
        id
    }

    fn emit_field_inits(&mut self, ci: usize) -> Result<(), CompileError> {
        let inits: Vec<(String, Expr)> = self.lw.rp.ast.classes[ci]
            .fields
            .iter()
            .filter(|f| !f.is_static && f.init.is_some())
            .map(|f| (f.name.clone(), f.init.clone().unwrap()))
            .collect();
        for (name, init) in inits {
            let this = self.this_reg(init.span)?;
            let fid = self.lw.table.find_instance_field(self.class, &name).unwrap();
            let place = self.field_place(this, fid);
            let (v, vt) = self.expr(&init)?;
            let v = self.coerce(v, &vt, &place.ty(self), init.span)?;
            self.store_place(&place, v);
        }
        Ok(())
    }

    /// Insert a widening conversion so a value of type `from` can be stored
    /// into a location of type `to`.
    fn coerce(&mut self, r: Reg, from: &Ty, to: &Ty, span: Span) -> Result<Reg, CompileError> {
        if from == to {
            return Ok(r);
        }
        if !self.lw.table.assignable(from, to) {
            return Err(CompileError::new(
                span,
                format!(
                    "type mismatch: expected {}, found {}",
                    self.lw.table.ty_name(to),
                    self.lw.table.ty_name(from)
                ),
            ));
        }
        match (from, to) {
            (Ty::Int, Ty::Long | Ty::Double) | (Ty::Long, Ty::Double) => {
                let dst = self.new_reg(to.clone());
                self.emit(Instr::Cast { dst, src: r, to: to.clone() });
                Ok(dst)
            }
            // Reference upcasts are representation-free.
            _ => Ok(r),
        }
    }

    fn finish(mut self, method: Option<MethodId>) -> Result<Function, CompileError> {
        // Terminate any open block with a return (default value for
        // non-void functions; MiniParty does not prove return coverage).
        let needs_ret: Vec<usize> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, (_, t))| t.is_none())
            .map(|(i, _)| i)
            .collect();
        for i in needs_ret {
            self.cur = BlockId(i as u32);
            if self.ret == Ty::Void {
                self.terminate(Terminator::Ret(None));
            } else {
                let c = scalar::zero(&self.ret);
                let r = self.new_reg(self.ret.clone());
                self.blocks[i].0.push(Instr::Const { dst: r, v: c });
                self.blocks[i].1 = Some(Terminator::Ret(Some(r)));
            }
        }
        Ok(Function {
            id: self.id,
            method,
            name: self.name,
            params: self.params,
            ret: self.ret,
            reg_tys: self.reg_tys,
            blocks: self
                .blocks
                .into_iter()
                .map(|(instrs, term)| Block { instrs, term: term.unwrap() })
                .collect(),
            entry: BlockId(0),
            span: self.span,
        })
    }

    // ----- statements -----------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Block(stmts) => {
                self.push_scope();
                for st in stmts {
                    self.stmt(st)?;
                }
                self.pop_scope();
                Ok(())
            }
            Stmt::VarDecl { ty, name, init, span } => {
                let ty = self.lw.table.resolve_ty(ty, *span)?;
                if ty == Ty::Void {
                    return Err(CompileError::new(*span, "variables cannot have type void"));
                }
                let r = self.new_reg(ty.clone());
                match init {
                    Some(e) => {
                        let (v, vt) = self.expr(e)?;
                        let v = self.coerce(v, &vt, &ty, e.span)?;
                        self.emit(Instr::Move { dst: r, src: v });
                    }
                    None => {
                        self.emit(Instr::Const { dst: r, v: scalar::zero(&ty) });
                    }
                }
                self.declare(name, r, *span)
            }
            Stmt::If { cond, then, els } => {
                let c = self.bool_expr(cond)?;
                let tb = self.new_block();
                let eb = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::Branch { cond: c, t: tb, f: eb });
                self.switch_to(tb);
                self.stmt(then)?;
                self.terminate(Terminator::Jump(join));
                self.switch_to(eb);
                if let Some(e) = els {
                    self.stmt(e)?;
                }
                self.terminate(Terminator::Jump(join));
                self.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.new_block();
                let bodyb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(head));
                self.switch_to(head);
                let c = self.bool_expr(cond)?;
                self.terminate(Terminator::Branch { cond: c, t: bodyb, f: exit });
                self.switch_to(bodyb);
                self.loop_stack.push((head, exit));
                self.stmt(body)?;
                self.loop_stack.pop();
                self.terminate(Terminator::Jump(head));
                self.switch_to(exit);
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                self.push_scope();
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.new_block();
                let bodyb = self.new_block();
                let stepb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(head));
                self.switch_to(head);
                match cond {
                    Some(c) => {
                        let r = self.bool_expr(c)?;
                        self.terminate(Terminator::Branch { cond: r, t: bodyb, f: exit });
                    }
                    None => self.terminate(Terminator::Jump(bodyb)),
                }
                self.switch_to(bodyb);
                self.loop_stack.push((stepb, exit));
                self.stmt(body)?;
                self.loop_stack.pop();
                self.terminate(Terminator::Jump(stepb));
                self.switch_to(stepb);
                if let Some(st) = step {
                    self.expr_discard(st)?;
                }
                self.terminate(Terminator::Jump(head));
                self.switch_to(exit);
                self.pop_scope();
                Ok(())
            }
            Stmt::Break { span } => {
                let &(_, exit) = self
                    .loop_stack
                    .last()
                    .ok_or_else(|| CompileError::new(*span, "`break` outside a loop"))?;
                self.terminate(Terminator::Jump(exit));
                let cont = self.new_block();
                self.switch_to(cont);
                Ok(())
            }
            Stmt::Continue { span } => {
                let &(target, _) = self
                    .loop_stack
                    .last()
                    .ok_or_else(|| CompileError::new(*span, "`continue` outside a loop"))?;
                self.terminate(Terminator::Jump(target));
                let cont = self.new_block();
                self.switch_to(cont);
                Ok(())
            }
            Stmt::Return { value, span } => {
                match (value, self.ret.clone()) {
                    (None, Ty::Void) => self.terminate(Terminator::Ret(None)),
                    (Some(e), ret) if ret != Ty::Void => {
                        let (v, vt) = self.expr(e)?;
                        let v = self.coerce(v, &vt, &ret, e.span)?;
                        self.terminate(Terminator::Ret(Some(v)));
                    }
                    (None, _) => return Err(CompileError::new(*span, "missing return value")),
                    (Some(_), _) => {
                        return Err(CompileError::new(*span, "cannot return a value from void"))
                    }
                }
                // Continue lowering into a fresh (unreachable) block so the
                // rest of the statements still type-check.
                let cont = self.new_block();
                self.switch_to(cont);
                Ok(())
            }
            Stmt::Expr(e) => self.expr_discard(e),
            Stmt::Spawn { call, span } => match &call.kind {
                ExprKind::Call { recv, name, args } => {
                    self.lower_call(recv.as_deref(), name, args, *span, false, true)?;
                    Ok(())
                }
                _ => Err(CompileError::new(*span, "`spawn` requires a method call")),
            },
        }
    }

    /// Lower an expression for effect, discarding the result (marks call
    /// sites as `ret_ignored`, enabling the paper's ack-only reply path).
    fn expr_discard(&mut self, e: &Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Call { recv, name, args } => {
                self.lower_call(recv.as_deref(), name, args, e.span, false, false)?;
                Ok(())
            }
            _ => {
                self.expr(e)?;
                Ok(())
            }
        }
    }

    fn bool_expr(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        let (r, t) = self.expr(e)?;
        if t != Ty::Bool {
            return Err(CompileError::new(
                e.span,
                format!("condition must be boolean, found {}", self.lw.table.ty_name(&t)),
            ));
        }
        Ok(r)
    }

    // ----- expressions ----------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<(Reg, Ty), CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                if *v > i32::MAX as i64 || *v < i32::MIN as i64 {
                    let r = self.new_reg(Ty::Long);
                    self.emit(Instr::Const { dst: r, v: Const::Long(*v) });
                    Ok((r, Ty::Long))
                } else {
                    let r = self.new_reg(Ty::Int);
                    self.emit(Instr::Const { dst: r, v: Const::Int(*v as i32) });
                    Ok((r, Ty::Int))
                }
            }
            ExprKind::DoubleLit(v) => {
                let r = self.new_reg(Ty::Double);
                self.emit(Instr::Const { dst: r, v: Const::Double(*v) });
                Ok((r, Ty::Double))
            }
            ExprKind::BoolLit(v) => {
                let r = self.new_reg(Ty::Bool);
                self.emit(Instr::Const { dst: r, v: Const::Bool(*v) });
                Ok((r, Ty::Bool))
            }
            ExprKind::StrLit(s) => {
                let id = self.lw.intern(s);
                let r = self.new_reg(Ty::Str);
                self.emit(Instr::Const { dst: r, v: Const::Str(id) });
                Ok((r, Ty::Str))
            }
            ExprKind::Null => {
                let r = self.new_reg(Ty::Null);
                self.emit(Instr::Const { dst: r, v: Const::Null });
                Ok((r, Ty::Null))
            }
            ExprKind::This => {
                let r = self.this_reg(e.span)?;
                Ok((r, self.reg_ty(r)))
            }
            ExprKind::Ident(_) | ExprKind::Field { .. } | ExprKind::Index { .. } => {
                let place = self.lower_place(e, false)?;
                Ok(self.load_place(&place))
            }
            ExprKind::Unary(op, a) => self.lower_unary(*op, a, e.span),
            ExprKind::Binary(op, a, b) => self.lower_binary(*op, a, b, e.span),
            ExprKind::Assign { target, op, value } => self.lower_assign(target, *op, value, e.span),
            ExprKind::IncDec { target, inc, pre } => self.lower_incdec(target, *inc, *pre, e.span),
            ExprKind::Call { recv, name, args } => {
                match self.lower_call(recv.as_deref(), name, args, e.span, true, false)? {
                    Some(rt) => Ok(rt),
                    None => Err(CompileError::new(e.span, "void call used as a value")),
                }
            }
            ExprKind::New { class, args, placement } => {
                self.lower_new(class, args, placement.as_deref(), e.span)
            }
            ExprKind::NewArray { elem, dims, extra_dims } => {
                let base = self.lw.table.resolve_ty(elem, e.span)?;
                let mut full = base;
                for _ in 0..(dims.len() + extra_dims) {
                    full = full.array_of();
                }
                let dim_regs: Vec<Reg> = dims
                    .iter()
                    .map(|d| {
                        let (r, t) = self.expr(d)?;
                        self.coerce(r, &t, &Ty::Int, d.span)
                    })
                    .collect::<Result<_, _>>()?;
                let r = self.lower_array_alloc(&full, &dim_regs, e.span)?;
                Ok((r, full))
            }
            ExprKind::Cast { ty, expr } => {
                let to = self.lw.table.resolve_ty(ty, e.span)?;
                let (r, from) = self.expr(expr)?;
                self.lower_cast(r, &from, &to, e.span)
            }
        }
    }

    fn lower_unary(&mut self, op: UnOp, a: &Expr, span: Span) -> Result<(Reg, Ty), CompileError> {
        let (r, t) = self.expr(a)?;
        match op {
            UnOp::Neg => {
                if !t.is_numeric() {
                    return Err(CompileError::new(span, "negation requires a numeric operand"));
                }
                let dst = self.new_reg(t.clone());
                self.emit(Instr::Un { dst, op: UnKind::Neg, a: r });
                Ok((dst, t))
            }
            UnOp::Not => {
                if t != Ty::Bool {
                    return Err(CompileError::new(span, "`!` requires a boolean operand"));
                }
                let dst = self.new_reg(Ty::Bool);
                self.emit(Instr::Un { dst, op: UnKind::Not, a: r });
                Ok((dst, Ty::Bool))
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        // Short-circuit logical operators lower to control flow.
        if matches!(op, BinOp::And | BinOp::Or) {
            let dst = self.new_reg(Ty::Bool);
            let ra = self.bool_expr(a)?;
            self.emit(Instr::Move { dst, src: ra });
            let rhs = self.new_block();
            let join = self.new_block();
            match op {
                BinOp::And => self.terminate(Terminator::Branch { cond: ra, t: rhs, f: join }),
                BinOp::Or => self.terminate(Terminator::Branch { cond: ra, t: join, f: rhs }),
                _ => unreachable!(),
            }
            self.switch_to(rhs);
            let rb = self.bool_expr(b)?;
            self.emit(Instr::Move { dst, src: rb });
            self.terminate(Terminator::Jump(join));
            self.switch_to(join);
            return Ok((dst, Ty::Bool));
        }

        let (ra, ta) = self.expr(a)?;
        let (rb, tb) = self.expr(b)?;
        let numeric = ta.is_numeric() && tb.is_numeric();
        let integral = |t: &Ty| matches!(t, Ty::Int | Ty::Long);
        let (ok, message) = match op {
            BinOp::Eq | BinOp::Ne => (
                numeric || (ta.is_ref() && tb.is_ref()) || (ta == Ty::Bool && tb == Ty::Bool),
                "incomparable operand types",
            ),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                (numeric, "comparison requires numeric operands")
            }
            BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                (integral(&ta) && integral(&tb), "bitwise operators require integral operands")
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                (numeric, "arithmetic requires numeric operands")
            }
            BinOp::And | BinOp::Or => unreachable!(),
        };
        if !ok {
            return Err(CompileError::new(span, message));
        }
        self.emit_bin(op, (ra, ta), (rb, tb), span)
    }

    /// Widen numeric operands to their common type and emit `op`. The
    /// operands of `==`/`!=` may instead be two references or two booleans,
    /// left as they are. A comparison yields `boolean`, the rest the common
    /// type; the caller has checked the operand types.
    fn emit_bin(
        &mut self,
        op: BinOp,
        (a, ta): (Reg, Ty),
        (b, tb): (Reg, Ty),
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        let (a, b, common) = if ta.is_numeric() && tb.is_numeric() {
            let common = unify_numeric(&ta, &tb);
            (self.coerce(a, &ta, &common, span)?, self.coerce(b, &tb, &common, span)?, common)
        } else {
            (a, b, Ty::Bool)
        };
        let comparison =
            matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge);
        let ty = if comparison { Ty::Bool } else { common };
        let dst = self.new_reg(ty.clone());
        self.emit(Instr::Bin { dst, op: bin_kind(op), a, b });
        Ok((dst, ty))
    }

    fn lower_assign(
        &mut self,
        target: &Expr,
        op: Option<BinOp>,
        value: &Expr,
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        let place = self.lower_place(target, true)?;
        let (v, vt) = match op {
            None => self.expr(value)?,
            Some(bop) => {
                let (old, oldt) = self.load_place(&place);
                let (rv, rt) = self.expr(value)?;
                if !(oldt.is_numeric() && rt.is_numeric()) {
                    return Err(CompileError::new(
                        span,
                        "compound assignment requires numeric operands",
                    ));
                }
                self.emit_bin(bop, (old, oldt), (rv, rt), span)?
            }
        };
        let target_ty = place.ty(self);
        // Narrowing for compound assignment on smaller types (i += d is an
        // error in Java without cast; we require exact narrowing too).
        let v = if vt.is_numeric()
            && target_ty.is_numeric()
            && !self.lw.table.assignable(&vt, &target_ty)
        {
            if op.is_some() {
                // implicit narrowing back to the target type, like Java's
                // compound-assignment semantics
                let dst = self.new_reg(target_ty.clone());
                self.emit(Instr::Cast { dst, src: v, to: target_ty.clone() });
                dst
            } else {
                return Err(CompileError::new(
                    span,
                    format!(
                        "type mismatch: expected {}, found {}",
                        self.lw.table.ty_name(&target_ty),
                        self.lw.table.ty_name(&vt)
                    ),
                ));
            }
        } else {
            self.coerce(v, &vt, &target_ty, span)?
        };
        self.store_place(&place, v);
        Ok((v, target_ty))
    }

    fn lower_incdec(
        &mut self,
        target: &Expr,
        inc: i64,
        pre: bool,
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        let place = self.lower_place(target, true)?;
        let (loaded, ty) = self.load_place(&place);
        if !matches!(ty, Ty::Int | Ty::Long | Ty::Double) {
            return Err(CompileError::new(span, "++/-- requires a numeric operand"));
        }
        // Snapshot the pre-value: for local places `load_place` returns the
        // variable's own register, which the store below would alias.
        let old = self.new_reg(ty.clone());
        self.emit(Instr::Move { dst: old, src: loaded });
        let one = self.new_reg(ty.clone());
        self.emit(Instr::Const {
            dst: one,
            v: match ty {
                Ty::Int => Const::Int(inc as i32),
                Ty::Long => Const::Long(inc),
                Ty::Double => Const::Double(inc as f64),
                _ => unreachable!(),
            },
        });
        let newv = self.new_reg(ty.clone());
        self.emit(Instr::Bin { dst: newv, op: BinKind::Add, a: old, b: one });
        self.store_place(&place, newv);
        Ok((if pre { newv } else { old }, ty))
    }

    fn lower_cast(
        &mut self,
        r: Reg,
        from: &Ty,
        to: &Ty,
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        if from == to {
            return Ok((r, to.clone()));
        }
        let ok = if from.is_numeric() && to.is_numeric() {
            true
        } else if from.is_ref() && to.is_ref() {
            // up- or down-cast along the class hierarchy (checked at runtime)
            self.lw.table.assignable(from, to) || self.lw.table.assignable(to, from)
        } else {
            false
        };
        if !ok {
            return Err(CompileError::new(
                span,
                format!(
                    "invalid cast from {} to {}",
                    self.lw.table.ty_name(from),
                    self.lw.table.ty_name(to)
                ),
            ));
        }
        let dst = self.new_reg(to.clone());
        self.emit(Instr::Cast { dst, src: r, to: to.clone() });
        Ok((dst, to.clone()))
    }

    fn lower_new(
        &mut self,
        class: &str,
        args: &[Expr],
        placement: Option<&Expr>,
        span: Span,
    ) -> Result<(Reg, Ty), CompileError> {
        let cid = self
            .lw
            .table
            .class_named(class)
            .ok_or_else(|| CompileError::new(span, format!("unknown class `{class}`")))?;
        let cls = self.lw.table.class(cid).clone();
        if cls.kind == ClassKind::NativeStatic {
            return Err(CompileError::new(span, format!("`{class}` cannot be instantiated")));
        }
        let is_remote = cls.is_remote;
        let placement_reg = match placement {
            Some(p) => {
                if !is_remote {
                    return Err(CompileError::new(span, "placement `@` requires a remote class"));
                }
                let (r, t) = self.expr(p)?;
                Some(self.coerce(r, &t, &Ty::Int, p.span)?)
            }
            None => None,
        };
        let site = self.new_alloc_site(Ty::Class(cid), span);
        let dst = self.new_reg(Ty::Class(cid));
        self.emit(Instr::New { dst, class: cid, site, placement: placement_reg });

        if let Some(ctor) = self.lw.table.find_ctor(cid) {
            let meth = self.lw.table.method(ctor).clone();
            let arg_regs = self.lower_args("constructor", &meth.params, args, Some(dst), span)?;
            let target = if matches!(meth.body, MethodBody::Native(_)) {
                let MethodBody::Native(b) = meth.body else { unreachable!() };
                CallTarget::Builtin(b)
            } else if is_remote {
                CallTarget::Remote(ctor)
            } else {
                CallTarget::Ctor(ctor)
            };
            let cs = self.new_call_site(Some(ctor), is_remote, true, false, span);
            self.emit(Instr::Call { dst: None, target, args: arg_regs, site: cs });
        } else if !args.is_empty() {
            return Err(CompileError::new(span, format!("`{class}` has no constructor")));
        }
        Ok((dst, Ty::Class(cid)))
    }

    fn lower_array_alloc(
        &mut self,
        full_ty: &Ty,
        dims: &[Reg],
        span: Span,
    ) -> Result<Reg, CompileError> {
        let elem = full_ty
            .elem()
            .cloned()
            .ok_or_else(|| CompileError::new(span, "internal: array type expected"))?;
        let site = self.new_alloc_site(full_ty.clone(), span);
        let dst = self.new_reg(full_ty.clone());
        self.emit(Instr::NewArray { dst, elem: elem.clone(), len: dims[0], site });
        if dims.len() > 1 {
            // Fill each slot with a recursively allocated sub-array. Every
            // source dimension level keeps its own allocation site (paper
            // Fig. 2: `new double[2][3][4]` yields three sites).
            let i = self.new_reg(Ty::Int);
            self.emit(Instr::Const { dst: i, v: Const::Int(0) });
            let head = self.new_block();
            let body = self.new_block();
            let exit = self.new_block();
            self.terminate(Terminator::Jump(head));
            self.switch_to(head);
            let cond = self.new_reg(Ty::Bool);
            self.emit(Instr::Bin { dst: cond, op: BinKind::Lt, a: i, b: dims[0] });
            self.terminate(Terminator::Branch { cond, t: body, f: exit });
            self.switch_to(body);
            let inner = self.lower_array_alloc(&elem, &dims[1..], span)?;
            self.emit(Instr::ArrStore { arr: dst, idx: i, val: inner });
            let one = self.new_reg(Ty::Int);
            self.emit(Instr::Const { dst: one, v: Const::Int(1) });
            let ni = self.new_reg(Ty::Int);
            self.emit(Instr::Bin { dst: ni, op: BinKind::Add, a: i, b: one });
            self.emit(Instr::Move { dst: i, src: ni });
            self.terminate(Terminator::Jump(head));
            self.switch_to(exit);
        }
        Ok(dst)
    }

    /// Lower a call. Returns `Some((reg, ty))` when the call produces a
    /// value and `want_result` is set.
    fn lower_call(
        &mut self,
        recv: Option<&Expr>,
        name: &str,
        args: &[Expr],
        span: Span,
        want_result: bool,
        is_spawn: bool,
    ) -> Result<Option<(Reg, Ty)>, CompileError> {
        // Case 1: static call through a class name.
        if let Some((cid, cls_name)) = recv.and_then(|r| self.class_qualifier(r)) {
            let mid = self.lw.table.find_method(cid, name).ok_or_else(|| {
                CompileError::new(span, format!("no method `{name}` on `{cls_name}`"))
            })?;
            if !self.lw.table.method(mid).is_static {
                return Err(CompileError::new(
                    span,
                    format!("`{cls_name}.{name}` is an instance method"),
                ));
            }
            return self.emit_call(None, mid, args, span, want_result, is_spawn);
        }

        match recv {
            None => {
                // Unqualified: instance or static method of the current class.
                let mid =
                    self.lw.table.find_method(self.class, name).ok_or_else(|| {
                        CompileError::new(span, format!("unknown method `{name}`"))
                    })?;
                let meth = self.lw.table.method(mid).clone();
                if meth.is_static {
                    self.emit_call(None, mid, args, span, want_result, is_spawn)
                } else {
                    let this = self.this_reg(span)?;
                    self.emit_call(Some((this, true)), mid, args, span, want_result, is_spawn)
                }
            }
            Some(robj) => {
                let (o, ot) = self.expr(robj)?;
                match &ot {
                    Ty::Str => self.lower_str_method(o, name, args, span, want_result),
                    Ty::Class(c) => {
                        let mid = self.lw.table.find_method(*c, name).ok_or_else(|| {
                            CompileError::new(
                                span,
                                format!("no method `{name}` on `{}`", self.lw.table.class(*c).name),
                            )
                        })?;
                        let meth = self.lw.table.method(mid).clone();
                        if meth.is_static {
                            return Err(CompileError::new(
                                span,
                                format!("`{name}` is static; call it through the class name"),
                            ));
                        }
                        let recv_is_this = matches!(robj.kind, ExprKind::This);
                        self.emit_call(
                            Some((o, recv_is_this)),
                            mid,
                            args,
                            span,
                            want_result,
                            is_spawn,
                        )
                    }
                    _ => Err(CompileError::new(
                        span,
                        format!("no method `{name}` on {}", self.lw.table.ty_name(&ot)),
                    )),
                }
            }
        }
    }

    fn emit_call(
        &mut self,
        recv: Option<(Reg, bool)>,
        mid: MethodId,
        args: &[Expr],
        span: Span,
        want_result: bool,
        is_spawn: bool,
    ) -> Result<Option<(Reg, Ty)>, CompileError> {
        let meth = self.lw.table.method(mid).clone();
        let callee = format!("`{}`", meth.name);
        let arg_regs = self.lower_args(&callee, &meth.params, args, recv.map(|(r, _)| r), span)?;

        let owner_cls = self.lw.table.class(meth.owner).clone();
        let target = match meth.body {
            MethodBody::Native(b) => CallTarget::Builtin(b),
            _ => {
                if meth.is_static {
                    CallTarget::Static(mid)
                } else if owner_cls.is_remote {
                    let recv_is_this = recv.is_some_and(|(_, t)| t);
                    if recv_is_this {
                        // Calls through `this` stay local (the object is by
                        // definition on the executing machine).
                        CallTarget::Virtual { decl: mid, vslot: meth.vslot.unwrap() as u32 }
                    } else {
                        CallTarget::Remote(mid)
                    }
                } else {
                    CallTarget::Virtual { decl: mid, vslot: meth.vslot.unwrap() as u32 }
                }
            }
        };

        if is_spawn && matches!(target, CallTarget::Builtin(_)) {
            return Err(CompileError::new(span, "cannot spawn a builtin method"));
        }
        if is_spawn && meth.ret != Ty::Void {
            return Err(CompileError::new(span, "spawned methods must return void"));
        }

        let is_remote = matches!(target, CallTarget::Remote(_));
        let produces = meth.ret != Ty::Void && want_result;
        let dst = if produces { Some(self.new_reg(meth.ret.clone())) } else { None };

        let site = self.new_call_site(Some(mid), is_remote, !produces, is_spawn, span);
        if is_spawn {
            self.emit(Instr::Spawn { target, args: arg_regs, site });
            return Ok(None);
        }
        self.emit(Instr::Call { dst, target, args: arg_regs, site });
        Ok(dst.map(|d| (d, meth.ret)))
    }

    fn lower_str_method(
        &mut self,
        recv: Reg,
        name: &str,
        args: &[Expr],
        span: Span,
        want_result: bool,
    ) -> Result<Option<(Reg, Ty)>, CompileError> {
        let (builtin, params, ret): (Builtin, Vec<Ty>, Ty) = match name {
            "length" => (Builtin::StrLength, vec![], Ty::Int),
            "hashCode" => (Builtin::StrHash, vec![], Ty::Int),
            "equals" => (Builtin::StrEquals, vec![Ty::Class(OBJECT_CLASS)], Ty::Bool),
            "concat" => (Builtin::StrConcat, vec![Ty::Str], Ty::Str),
            "charAt" => (Builtin::StrCharAt, vec![Ty::Int], Ty::Int),
            "substring" => (Builtin::StrSubstring, vec![Ty::Int, Ty::Int], Ty::Str),
            _ => return Err(CompileError::new(span, format!("no method `{name}` on String"))),
        };
        let arg_regs =
            self.lower_args(&format!("`String.{name}`"), &params, args, Some(recv), span)?;
        let produces = want_result && ret != Ty::Void;
        let dst = if produces { Some(self.new_reg(ret.clone())) } else { None };
        let site = self.new_call_site(None, false, !produces, false, span);
        self.emit(Instr::Call { dst, target: CallTarget::Builtin(builtin), args: arg_regs, site });
        Ok(dst.map(|d| (d, ret)))
    }

    /// Check `args` against `params` and lower each one, widened to its
    /// parameter type, after `lead` (the receiver, if any). `callee` names
    /// the callee in the arity error.
    fn lower_args(
        &mut self,
        callee: &str,
        params: &[Ty],
        args: &[Expr],
        lead: Option<Reg>,
        span: Span,
    ) -> Result<Vec<Reg>, CompileError> {
        if params.len() != args.len() {
            return Err(CompileError::new(
                span,
                format!("{callee} expects {} arguments, got {}", params.len(), args.len()),
            ));
        }
        let mut regs: Vec<Reg> = lead.into_iter().collect();
        for (a, pt) in args.iter().zip(params) {
            let (r, t) = self.expr(a)?;
            regs.push(self.coerce(r, &t, pt, a.span)?);
        }
        Ok(regs)
    }

    /// The class a bare identifier names when no variable in scope has
    /// that name: the qualifier of `ClassName.m()` and `ClassName.field`.
    fn class_qualifier<'e>(&self, e: &'e Expr) -> Option<(ClassId, &'e str)> {
        let ExprKind::Ident(cls_name) = &e.kind else { return None };
        if self.lookup(cls_name).is_some() {
            return None;
        }
        self.lw.table.class_named(cls_name).map(|cid| (cid, cls_name.as_str()))
    }

    // ----- places (named locations) -----------------------------------------

    /// Resolve a variable, field, static or array element to the location
    /// it names, for a read or, with `write`, for a store. An array's
    /// `length` is a place only for reads; a store to it fails as a field
    /// the array does not have.
    fn lower_place(&mut self, e: &Expr, write: bool) -> Result<Place, CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(r) = self.lookup(name) {
                    return Ok(Place::Local(r));
                }
                if !self.is_static {
                    if let Some(fid) = self.lw.table.find_instance_field(self.class, name) {
                        let this = self.this_reg(e.span)?;
                        return Ok(self.field_place(this, fid));
                    }
                }
                if let Some(fid) = self.lw.table.find_static_field(self.class, name) {
                    return Ok(self.static_place(fid));
                }
                Err(CompileError::new(e.span, format!("unknown variable `{name}`")))
            }
            ExprKind::Field { obj, name } => {
                if let Some((cid, cls_name)) = self.class_qualifier(obj) {
                    let fid = self.lw.table.find_static_field(cid, name).ok_or_else(|| {
                        CompileError::new(
                            e.span,
                            format!("no static field `{name}` on `{cls_name}`"),
                        )
                    })?;
                    return Ok(self.static_place(fid));
                }
                let (o, ot) = self.expr(obj)?;
                if name == "length" && ot.elem().is_some() && !write {
                    return Ok(Place::Len(o));
                }
                let Ty::Class(c) = &ot else {
                    return Err(CompileError::new(
                        e.span,
                        format!("no field `{name}` on {}", self.lw.table.ty_name(&ot)),
                    ));
                };
                let cls = self.lw.table.class(*c);
                if cls.is_remote && !matches!(obj.kind, ExprKind::This) {
                    return Err(CompileError::new(
                        e.span,
                        "field access on remote objects is not allowed; use accessor methods",
                    ));
                }
                let fid = self.lw.table.find_instance_field(*c, name).ok_or_else(|| {
                    CompileError::new(e.span, format!("no field `{name}` on `{}`", cls.name))
                })?;
                Ok(self.field_place(o, fid))
            }
            ExprKind::Index { arr, idx } => {
                let (a, at) = self.expr(arr)?;
                let elem = at
                    .elem()
                    .cloned()
                    .ok_or_else(|| CompileError::new(e.span, "indexing a non-array"))?;
                let (i, it) = self.expr(idx)?;
                let i = self.coerce(i, &it, &Ty::Int, idx.span)?;
                Ok(Place::Elem { arr: a, idx: i, ty: elem })
            }
            _ => Err(CompileError::new(e.span, "invalid assignment target")),
        }
    }

    fn field_place(&self, obj: Reg, fid: FieldId) -> Place {
        let fld = self.lw.table.field(fid);
        Place::Field {
            obj,
            fref: FieldRef { field: fid, slot: fld.slot as u32 },
            ty: fld.ty.clone(),
        }
    }

    fn static_place(&self, fid: FieldId) -> Place {
        let fld = self.lw.table.field(fid);
        Place::Static { sid: fld.static_id.unwrap(), ty: fld.ty.clone() }
    }

    fn load_place(&mut self, p: &Place) -> (Reg, Ty) {
        match p {
            Place::Local(r) => (*r, self.reg_ty(*r)),
            Place::Field { obj, fref, ty } => {
                let dst = self.new_reg(ty.clone());
                self.emit(Instr::GetField { dst, obj: *obj, field: *fref });
                (dst, ty.clone())
            }
            Place::Static { sid, ty } => {
                let dst = self.new_reg(ty.clone());
                self.emit(Instr::GetStatic { dst, sid: *sid });
                (dst, ty.clone())
            }
            Place::Elem { arr, idx, ty } => {
                let dst = self.new_reg(ty.clone());
                self.emit(Instr::ArrLoad { dst, arr: *arr, idx: *idx });
                (dst, ty.clone())
            }
            Place::Len(arr) => {
                let dst = self.new_reg(Ty::Int);
                self.emit(Instr::ArrLen { dst, arr: *arr });
                (dst, Ty::Int)
            }
        }
    }

    fn store_place(&mut self, p: &Place, v: Reg) {
        match p {
            Place::Local(r) => self.emit(Instr::Move { dst: *r, src: v }),
            Place::Field { obj, fref, .. } => {
                self.emit(Instr::SetField { obj: *obj, field: *fref, val: v })
            }
            Place::Static { sid, .. } => self.emit(Instr::SetStatic { sid: *sid, val: v }),
            Place::Elem { arr, idx, .. } => {
                self.emit(Instr::ArrStore { arr: *arr, idx: *idx, val: v })
            }
            Place::Len(_) => unreachable!("`length` is a place only for reads"),
        }
    }
}

/// A named location; `Len`, an array's `length`, is read-only.
enum Place {
    Local(Reg),
    Field { obj: Reg, fref: FieldRef, ty: Ty },
    Static { sid: StaticId, ty: Ty },
    Elem { arr: Reg, idx: Reg, ty: Ty },
    Len(Reg),
}

impl Place {
    fn ty(&self, fb: &FuncBuilder) -> Ty {
        match self {
            Place::Local(r) => fb.reg_ty(*r),
            Place::Len(_) => Ty::Int,
            Place::Field { ty, .. } | Place::Static { ty, .. } | Place::Elem { ty, .. } => {
                ty.clone()
            }
        }
    }
}

fn bin_kind(op: BinOp) -> BinKind {
    match op {
        BinOp::Add => BinKind::Add,
        BinOp::Sub => BinKind::Sub,
        BinOp::Mul => BinKind::Mul,
        BinOp::Div => BinKind::Div,
        BinOp::Rem => BinKind::Rem,
        BinOp::Eq => BinKind::Eq,
        BinOp::Ne => BinKind::Ne,
        BinOp::Lt => BinKind::Lt,
        BinOp::Le => BinKind::Le,
        BinOp::Gt => BinKind::Gt,
        BinOp::Ge => BinKind::Ge,
        BinOp::BitAnd => BinKind::BitAnd,
        BinOp::BitOr => BinKind::BitOr,
        BinOp::BitXor => BinKind::BitXor,
        BinOp::Shl => BinKind::Shl,
        BinOp::Shr => BinKind::Shr,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops lower to control flow"),
    }
}

fn unify_numeric(a: &Ty, b: &Ty) -> Ty {
    if *a == Ty::Double || *b == Ty::Double {
        Ty::Double
    } else if *a == Ty::Long || *b == Ty::Long {
        Ty::Long
    } else {
        Ty::Int
    }
}

#[cfg(test)]
mod tests {
    use crate::classes::*;
    use crate::compile_frontend;

    #[test]
    fn lowers_minimal_program() {
        let m = compile_frontend("class M { static void main() { int x = 1 + 2; } }").unwrap();
        let f = m.func(m.main);
        assert_eq!(f.ret, Ty::Void);
        assert!(!f.blocks.is_empty());
    }

    #[test]
    fn multidim_new_creates_site_per_level() {
        let m = compile_frontend(
            "class M { static void main() { double[][][] a = new double[2][3][4]; } }",
        )
        .unwrap();
        // Paper Fig. 2: three allocation sites for the three levels.
        assert_eq!(m.alloc_sites.len(), 3);
    }

    #[test]
    fn remote_call_site_marked() {
        let m = compile_frontend(
            "remote class R { void f(int x) { } } \
             class M { static void main() { R r = new R(); r.f(1); } }",
        )
        .unwrap();
        let remote: Vec<_> = m.remote_call_sites().collect();
        // `R` has no constructor, so only `r.f(1)` is a remote site.
        assert_eq!(remote.len(), 1);
        assert!(remote.iter().all(|cs| cs.is_remote));
    }

    #[test]
    fn ignored_return_is_flagged() {
        let m = compile_frontend(
            "remote class R { int f() { return 1; } } \
             class M { static void main() { R r = new R(); r.f(); int x = r.f(); } }",
        )
        .unwrap();
        let sites: Vec<_> = m
            .remote_call_sites()
            .filter(|cs| cs.method.map(|mm| m.table.method(mm).name == "f").unwrap_or(false))
            .collect();
        assert_eq!(sites.len(), 2);
        assert!(sites[0].ret_ignored);
        assert!(!sites[1].ret_ignored);
    }

    #[test]
    fn this_calls_stay_local() {
        let m = compile_frontend(
            "remote class R { void f() { this.g(); g(); } void g() { } } \
             class M { static void main() { R r = new R(); r.f(); } }",
        )
        .unwrap();
        // only r.f() is remote; this.g()/g() are local calls
        assert_eq!(m.remote_call_sites().count(), 1);
    }

    #[test]
    fn field_access_on_remote_rejected() {
        let err = compile_frontend(
            "remote class R { int x; } class M { static void main() { R r = new R(); int y = r.x; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("remote"));
    }

    #[test]
    fn short_circuit_lowering_builds_blocks() {
        let m = compile_frontend(
            "class M { static boolean f(boolean a, boolean b) { return a && b; } static void main() { } }",
        )
        .unwrap();
        let f = m.funcs.iter().find(|f| f.name == "M.f").expect("function M.f");
        assert!(f.blocks.len() >= 3, "short-circuit && must create blocks");
    }

    #[test]
    fn type_errors_detected() {
        assert!(compile_frontend("class M { static void main() { int x = 1.5; } }").is_err());
        assert!(compile_frontend("class M { static void main() { boolean b = 1; } }").is_err());
        assert!(
            compile_frontend("class M { static void main() { if (1) { } } }").is_err(),
            "non-boolean condition"
        );
        assert!(compile_frontend("class M { static void main() { double d = 1.0; long l = d; } }")
            .is_err());
    }

    #[test]
    fn widening_allowed() {
        assert!(compile_frontend("class M { static void main() { long l = 1; double d = l; } }")
            .is_ok());
    }

    #[test]
    fn ctor_field_inits_run() {
        let m = compile_frontend(
            "class A { int x = 7; } class M { static void main() { A a = new A(); } }",
        )
        .unwrap();
        // a synthesized default ctor must exist
        let a = m.table.class_named("A").unwrap();
        assert!(m.table.find_ctor(a).is_some());
    }

    #[test]
    fn static_inits_produce_clinit() {
        let m =
            compile_frontend("class A { static int x = 7; } class M { static void main() { } }")
                .unwrap();
        assert_eq!(m.clinits.len(), 1);
    }

    #[test]
    fn string_methods_lower() {
        compile_frontend(
            r#"class M { static void main() { String s = "ab"; int n = s.length(); int h = s.hashCode(); boolean e = s.equals(s); String t = s.concat(s); } }"#,
        )
        .unwrap();
    }

    #[test]
    fn builtins_lower() {
        compile_frontend(
            r#"class M { static void main() {
                System.println("hi");
                long t = System.timeMicros();
                double r = Math.sqrt(2.0);
                int n = Cluster.machines();
                Rng g = new Rng(42);
                int k = g.nextInt(10);
                Queue q = new Queue(4);
                q.put(q);
                Object o = q.take();
            } }"#,
        )
        .unwrap();
    }

    #[test]
    fn spawn_requires_void() {
        let err = compile_frontend(
            "remote class R { int f() { return 1; } } class M { static void main() { R r = new R(); spawn r.f(); } }",
        )
        .unwrap_err();
        assert!(err.message.contains("void"));
    }

    #[test]
    fn cast_checks() {
        assert!(compile_frontend(
            "class A {} class B extends A {} class M { static void main() { A a = new B(); B b = (B) a; } }"
        )
        .is_ok());
        assert!(compile_frontend(
            "class A {} class C {} class M { static void main() { A a = new A(); C c = (C) a; } }"
        )
        .is_err());
    }

    #[test]
    fn incdec_and_compound_assign() {
        compile_frontend(
            "class M { static void main() { int i = 0; i++; ++i; i--; i += 2; i *= 3; int j = i++; } }",
        )
        .unwrap();
    }

    #[test]
    fn array_length_and_indexing() {
        compile_frontend(
            "class M { static void main() { int[] a = new int[3]; a[0] = 1; int n = a.length; int v = a[n - 1]; } }",
        )
        .unwrap();
    }
}
