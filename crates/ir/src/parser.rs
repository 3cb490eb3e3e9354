//! Recursive-descent parser for MiniParty.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use crate::{CompileError, Span};

/// Parse a complete MiniParty source file into an AST.
pub fn parse_program(src: &str) -> Result<AstProgram, CompileError> {
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.program()
}

/// The binary operators by precedence level, loosest first.
const BINARY_LEVELS: &[&[(TokenKind, BinOp)]] = &[
    &[(TokenKind::OrOr, BinOp::Or)],
    &[(TokenKind::AndAnd, BinOp::And)],
    &[(TokenKind::Pipe, BinOp::BitOr)],
    &[(TokenKind::Caret, BinOp::BitXor)],
    &[(TokenKind::Amp, BinOp::BitAnd)],
    &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::NotEq, BinOp::Ne)],
    &[
        (TokenKind::Lt, BinOp::Lt),
        (TokenKind::Le, BinOp::Le),
        (TokenKind::Gt, BinOp::Gt),
        (TokenKind::Ge, BinOp::Ge),
    ],
    &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
    &[(TokenKind::Plus, BinOp::Add), (TokenKind::Minus, BinOp::Sub)],
    &[
        (TokenKind::Star, BinOp::Mul),
        (TokenKind::Slash, BinOp::Div),
        (TokenKind::Percent, BinOp::Rem),
    ],
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), CompileError> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", kind.describe(), self.peek().describe())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn err(&self, message: impl Into<String>) -> CompileError {
        CompileError::new(self.span(), message)
    }

    // ----- declarations ---------------------------------------------------

    fn program(&mut self) -> Result<AstProgram, CompileError> {
        let mut classes = Vec::new();
        while self.peek() != &TokenKind::Eof {
            classes.push(self.class_decl()?);
        }
        Ok(AstProgram { classes })
    }

    fn class_decl(&mut self) -> Result<AstClass, CompileError> {
        let span = self.span();
        let is_remote = self.eat(&TokenKind::KwRemote);
        self.expect(TokenKind::KwClass)?;
        let name = self.expect_ident()?;
        let extends =
            if self.eat(&TokenKind::KwExtends) { Some(self.expect_ident()?) } else { None };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            self.member(&name, &mut fields, &mut methods)?;
        }
        Ok(AstClass { name, is_remote, extends, fields, methods, span })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<AstField>,
        methods: &mut Vec<AstMethod>,
    ) -> Result<(), CompileError> {
        let span = self.span();
        let is_static = self.eat(&TokenKind::KwStatic);

        // Constructor: `ClassName ( ... )`
        if let TokenKind::Ident(id) = self.peek() {
            if id == class_name && self.peek_at(1) == &TokenKind::LParen {
                if is_static {
                    return Err(self.err("constructors cannot be static"));
                }
                let name = self.expect_ident()?;
                let params = self.params()?;
                let body = self.block()?;
                methods.push(AstMethod {
                    name,
                    is_static: false,
                    is_ctor: true,
                    ret: AstTy::Void,
                    params,
                    body,
                    span,
                });
                return Ok(());
            }
        }

        let ty = self.ty()?;
        let name = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            let params = self.params()?;
            let body = self.block()?;
            methods.push(AstMethod {
                name,
                is_static,
                is_ctor: false,
                ret: ty,
                params,
                body,
                span,
            });
        } else {
            let init = if self.eat(&TokenKind::Assign) { Some(self.expr()?) } else { None };
            self.expect(TokenKind::Semi)?;
            fields.push(AstField { name, ty, is_static, init, span });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(AstTy, String)>, CompileError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = self.ty()?;
                let name = self.expect_ident()?;
                params.push((ty, name));
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(params)
    }

    fn ty(&mut self) -> Result<AstTy, CompileError> {
        let mut base = match self.bump() {
            TokenKind::KwVoid => AstTy::Void,
            TokenKind::KwBoolean => AstTy::Bool,
            TokenKind::KwInt => AstTy::Int,
            TokenKind::KwLong => AstTy::Long,
            TokenKind::KwDouble => AstTy::Double,
            TokenKind::Ident(s) if s == "String" => AstTy::Str,
            TokenKind::Ident(s) if s == "Object" => AstTy::Object,
            TokenKind::Ident(s) => AstTy::Named(s),
            other => return Err(self.err(format!("expected a type, found {}", other.describe()))),
        };
        while self.peek() == &TokenKind::LBracket && self.peek_at(1) == &TokenKind::RBracket {
            self.bump();
            self.bump();
            base = base.array_of();
        }
        Ok(base)
    }

    /// Is the token at `self.pos + n` the start of a type followed by an
    /// identifier (a variable declaration)?
    fn looks_like_var_decl(&self) -> bool {
        let mut i = 0;
        match self.peek_at(i) {
            TokenKind::KwBoolean
            | TokenKind::KwInt
            | TokenKind::KwLong
            | TokenKind::KwDouble
            | TokenKind::Ident(_) => i += 1,
            _ => return false,
        }
        // array suffixes
        while self.peek_at(i) == &TokenKind::LBracket && self.peek_at(i + 1) == &TokenKind::RBracket
        {
            i += 2;
        }
        matches!(self.peek_at(i), TokenKind::Ident(_))
    }

    // ----- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        match self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then = Box::new(self.stmt()?);
                let els =
                    if self.eat(&TokenKind::KwElse) { Some(Box::new(self.stmt()?)) } else { None };
                Ok(Stmt::If { cond, then, els })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.peek() == &TokenKind::Semi {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.simple_stmt(true)?))
                };
                let cond = if self.peek() == &TokenKind::Semi { None } else { Some(self.expr()?) };
                self.expect(TokenKind::Semi)?;
                let step =
                    if self.peek() == &TokenKind::RParen { None } else { Some(self.expr()?) };
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi { None } else { Some(self.expr()?) };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break { span })
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue { span })
            }
            TokenKind::KwSpawn => {
                self.bump();
                let call = self.expr()?;
                self.expect(TokenKind::Semi)?;
                if !matches!(call.kind, ExprKind::Call { .. }) {
                    return Err(CompileError::new(span, "`spawn` requires a method call"));
                }
                Ok(Stmt::Spawn { call, span })
            }
            _ => self.simple_stmt(true),
        }
    }

    /// A declaration or expression statement; consumes the trailing `;`
    /// when `want_semi`.
    fn simple_stmt(&mut self, want_semi: bool) -> Result<Stmt, CompileError> {
        let span = self.span();
        let stmt = if self.looks_like_var_decl() {
            let ty = self.ty()?;
            let name = self.expect_ident()?;
            let init = if self.eat(&TokenKind::Assign) { Some(self.expr()?) } else { None };
            Stmt::VarDecl { ty, name, init, span }
        } else {
            Stmt::Expr(self.expr()?)
        };
        if want_semi {
            self.expect(TokenKind::Semi)?;
        }
        Ok(stmt)
    }

    // ----- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.binary(0)?;
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let value = self.assignment()?;
        match lhs.kind {
            ExprKind::Ident(_) | ExprKind::Field { .. } | ExprKind::Index { .. } => Ok(Expr::new(
                ExprKind::Assign { target: Box::new(lhs), op, value: Box::new(value) },
                span,
            )),
            _ => Err(CompileError::new(span, "invalid assignment target")),
        }
    }

    /// An expression of the operators at `level` of `BINARY_LEVELS` or
    /// tighter; past the last level, a unary expression. Every level is
    /// left-associative, and each node keeps its operator token's span.
    fn binary(&mut self, level: usize) -> Result<Expr, CompileError> {
        let Some(ops) = BINARY_LEVELS.get(level) else { return self.unary() };
        let mut lhs = self.binary(level + 1)?;
        while let Some(&(_, op)) = ops.iter().find(|(t, _)| t == self.peek()) {
            let span = self.span();
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(e)), span))
            }
            TokenKind::Not => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Not, Box::new(e)), span))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = if self.bump() == TokenKind::PlusPlus { 1 } else { -1 };
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::IncDec { target: Box::new(e), inc, pre: true }, span))
            }
            TokenKind::LParen if self.is_cast() => {
                self.bump();
                let ty = self.ty()?;
                self.expect(TokenKind::RParen)?;
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Cast { ty, expr: Box::new(e) }, span))
            }
            _ => self.postfix(),
        }
    }

    /// Disambiguate `(T) expr` casts from parenthesized expressions: a cast
    /// begins with a primitive type keyword, or with an identifier whose
    /// closing paren is followed by a token that can begin a unary
    /// expression (and that is not an operator continuation).
    fn is_cast(&self) -> bool {
        debug_assert_eq!(self.peek(), &TokenKind::LParen);
        match self.peek_at(1) {
            TokenKind::KwBoolean | TokenKind::KwInt | TokenKind::KwLong | TokenKind::KwDouble => {
                true
            }
            TokenKind::Ident(_) => {
                // scan over identifier and []s
                let mut i = 2;
                while self.peek_at(i) == &TokenKind::LBracket
                    && self.peek_at(i + 1) == &TokenKind::RBracket
                {
                    i += 2;
                }
                if self.peek_at(i) != &TokenKind::RParen {
                    return false;
                }
                matches!(
                    self.peek_at(i + 1),
                    TokenKind::Ident(_)
                        | TokenKind::IntLit(_)
                        | TokenKind::DoubleLit(_)
                        | TokenKind::StrLit(_)
                        | TokenKind::KwNew
                        | TokenKind::KwThis
                        | TokenKind::KwNull
                        | TokenKind::KwTrue
                        | TokenKind::KwFalse
                        | TokenKind::LParen
                )
            }
            _ => false,
        }
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if self.peek() == &TokenKind::LParen {
                        let args = self.args()?;
                        e = Expr::new(ExprKind::Call { recv: Some(Box::new(e)), name, args }, span);
                    } else {
                        e = Expr::new(ExprKind::Field { obj: Box::new(e), name }, span);
                    }
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::new(ExprKind::Index { arr: Box::new(e), idx: Box::new(idx) }, span);
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let inc = if self.bump() == TokenKind::PlusPlus { 1 } else { -1 };
                    e = Expr::new(ExprKind::IncDec { target: Box::new(e), inc, pre: false }, span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, CompileError> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.bump() {
            TokenKind::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), span)),
            TokenKind::DoubleLit(v) => Ok(Expr::new(ExprKind::DoubleLit(v), span)),
            TokenKind::StrLit(s) => Ok(Expr::new(ExprKind::StrLit(s), span)),
            TokenKind::KwTrue => Ok(Expr::new(ExprKind::BoolLit(true), span)),
            TokenKind::KwFalse => Ok(Expr::new(ExprKind::BoolLit(false), span)),
            TokenKind::KwNull => Ok(Expr::new(ExprKind::Null, span)),
            TokenKind::KwThis => Ok(Expr::new(ExprKind::This, span)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::KwNew => self.new_expr(span),
            TokenKind::Ident(name) => {
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    Ok(Expr::new(ExprKind::Call { recv: None, name, args }, span))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name), span))
                }
            }
            other => Err(CompileError::new(
                span,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    fn new_expr(&mut self, span: Span) -> Result<Expr, CompileError> {
        // `new T[d]...` or `new C(args) [@ placement]`
        let elem = match self.bump() {
            TokenKind::KwBoolean => AstTy::Bool,
            TokenKind::KwInt => AstTy::Int,
            TokenKind::KwLong => AstTy::Long,
            TokenKind::KwDouble => AstTy::Double,
            TokenKind::Ident(s) if s == "String" => AstTy::Str,
            TokenKind::Ident(s) if s == "Object" && self.peek() != &TokenKind::LParen => {
                AstTy::Object
            }
            TokenKind::Ident(s) => {
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    let placement =
                        if self.eat(&TokenKind::At) { Some(Box::new(self.unary()?)) } else { None };
                    return Ok(Expr::new(ExprKind::New { class: s, args, placement }, span));
                }
                AstTy::Named(s)
            }
            other => {
                return Err(CompileError::new(
                    span,
                    format!("expected a type after `new`, found {}", other.describe()),
                ))
            }
        };
        // array allocation
        let mut dims = Vec::new();
        let mut extra_dims = 0;
        loop {
            if self.peek() != &TokenKind::LBracket {
                break;
            }
            self.bump();
            if self.eat(&TokenKind::RBracket) {
                extra_dims += 1;
                // all remaining must be `[]`
                while self.peek() == &TokenKind::LBracket {
                    self.bump();
                    self.expect(TokenKind::RBracket)?;
                    extra_dims += 1;
                }
                break;
            }
            if extra_dims > 0 {
                return Err(self.err("sized dimension after unsized dimension"));
            }
            dims.push(self.expr()?);
            self.expect(TokenKind::RBracket)?;
        }
        if dims.is_empty() {
            return Err(CompileError::new(
                span,
                "array allocation requires at least one sized dimension",
            ));
        }
        Ok(Expr::new(ExprKind::NewArray { elem, dims, extra_dims }, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> AstProgram {
        parse_program(src).expect("parse failed")
    }

    #[test]
    fn parses_empty_class() {
        let p = parse_ok("class A { }");
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].name, "A");
        assert!(!p.classes[0].is_remote);
    }

    #[test]
    fn parses_remote_class_with_extends() {
        let p = parse_ok("remote class Foo extends Base { }");
        assert!(p.classes[0].is_remote);
        assert_eq!(p.classes[0].extends.as_deref(), Some("Base"));
    }

    #[test]
    fn parses_fields_and_methods() {
        let p = parse_ok(
            "class A { int x; static double y = 1.5; void f(int a, double b) { } int g() { return x; } }",
        );
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 2);
        assert!(c.fields[1].is_static);
        assert!(c.fields[1].init.is_some());
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[0].params.len(), 2);
    }

    #[test]
    fn parses_constructor() {
        let p = parse_ok(
            "class LinkedList { LinkedList next; LinkedList(LinkedList n) { this.next = n; } }",
        );
        let c = &p.classes[0];
        assert!(c.methods[0].is_ctor);
        assert_eq!(c.methods[0].name, "LinkedList");
    }

    #[test]
    fn parses_paper_fig14_linked_list() {
        // Figure 14 of the paper, adapted to MiniParty syntax.
        let src = r#"
            class LinkedList {
                LinkedList next;
                LinkedList(LinkedList next) { this.next = next; }
            }
            remote class Foo {
                void send(LinkedList l) { }
                static void benchmark() {
                    LinkedList head = null;
                    for (int i = 0; i < 100; i++) {
                        head = new LinkedList(head);
                    }
                    Foo f = new Foo();
                    f.send(head);
                }
            }
        "#;
        let p = parse_ok(src);
        assert_eq!(p.classes.len(), 2);
        assert!(p.classes[1].is_remote);
    }

    #[test]
    fn parses_multidim_new() {
        let p = parse_ok("class A { void f() { double[][] arr = new double[16][16]; } }");
        let m = &p.classes[0].methods[0];
        match &m.body[0] {
            Stmt::VarDecl { init: Some(e), .. } => match &e.kind {
                ExprKind::NewArray { dims, extra_dims, .. } => {
                    assert_eq!(dims.len(), 2);
                    assert_eq!(*extra_dims, 0);
                }
                other => panic!("expected NewArray, got {other:?}"),
            },
            other => panic!("expected VarDecl, got {other:?}"),
        }
    }

    #[test]
    fn parses_unsized_dims() {
        let p = parse_ok("class A { void f() { int[][] a = new int[4][]; } }");
        let m = &p.classes[0].methods[0];
        match &m.body[0] {
            Stmt::VarDecl { init: Some(e), .. } => match &e.kind {
                ExprKind::NewArray { dims, extra_dims, .. } => {
                    assert_eq!(dims.len(), 1);
                    assert_eq!(*extra_dims, 1);
                }
                other => panic!("expected NewArray, got {other:?}"),
            },
            other => panic!("expected VarDecl, got {other:?}"),
        }
    }

    #[test]
    fn parses_placement() {
        let p = parse_ok("remote class W {} class A { void f() { W w = new W() @ 1; } }");
        let m = &p.classes[1].methods[0];
        match &m.body[0] {
            Stmt::VarDecl { init: Some(e), .. } => {
                assert!(matches!(&e.kind, ExprKind::New { placement: Some(_), .. }));
            }
            other => panic!("expected VarDecl, got {other:?}"),
        }
    }

    #[test]
    fn parses_cast() {
        let p =
            parse_ok("class P {} class A { void f(Object o) { P p = (P) o; int x = (int) 3.5; } }");
        let m = &p.classes[1].methods[0];
        assert!(matches!(
            &m.body[0],
            Stmt::VarDecl { init: Some(Expr { kind: ExprKind::Cast { .. }, .. }), .. }
        ));
    }

    #[test]
    fn paren_expr_is_not_cast() {
        let p = parse_ok("class A { int f(int a, int b) { return (a) + b; } }");
        let m = &p.classes[0].methods[0];
        match &m.body[0] {
            Stmt::Return { value: Some(e), .. } => {
                assert!(matches!(&e.kind, ExprKind::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_for_with_incdec_and_compound_assign() {
        parse_ok("class A { void f() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } } }");
    }

    #[test]
    fn parses_spawn() {
        let p =
            parse_ok("remote class T { void run() {} } class A { void f(T t) { spawn t.run(); } }");
        let m = &p.classes[1].methods[0];
        assert!(matches!(&m.body[0], Stmt::Spawn { .. }));
    }

    #[test]
    fn spawn_requires_call() {
        assert!(parse_program("class A { void f() { spawn 3; } }").is_err());
    }

    #[test]
    fn rejects_missing_semi() {
        assert!(parse_program("class A { void f() { int x = 1 } }").is_err());
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse_program("class A { void f() { 1 = 2; } }").is_err());
    }

    /// `e` with every binary node parenthesized.
    fn render(e: &Expr) -> String {
        let ExprKind::Binary(op, a, b) = &e.kind else {
            let ExprKind::Ident(name) = &e.kind else { panic!("unexpected {e:?}") };
            return name.clone();
        };
        let op = match op {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::BitAnd => "&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        };
        format!("({} {op} {})", render(a), render(b))
    }

    #[test]
    fn parses_logical_and_bitwise_precedence() {
        let cases = [
            // each adjacent pair of levels, the tighter one on both sides
            ("a && b || c && d", "((a && b) || (c && d))"),
            ("a | b && c | d", "((a | b) && (c | d))"),
            ("a ^ b | c ^ d", "((a ^ b) | (c ^ d))"),
            ("a & b ^ c & d", "((a & b) ^ (c & d))"),
            ("a == b & c != d", "((a == b) & (c != d))"),
            ("a < b == c >= d", "((a < b) == (c >= d))"),
            ("a << b < c >> d", "((a << b) < (c >> d))"),
            ("a + b << c - d", "((a + b) << (c - d))"),
            ("a * b - c % d", "((a * b) - (c % d))"),
            // each level left-associative
            ("a || b || c", "((a || b) || c)"),
            ("a && b && c", "((a && b) && c)"),
            ("a | b | c", "((a | b) | c)"),
            ("a ^ b ^ c", "((a ^ b) ^ c)"),
            ("a & b & c", "((a & b) & c)"),
            ("a == b != c", "((a == b) != c)"),
            ("a < b >= c > d <= e", "((((a < b) >= c) > d) <= e)"),
            ("a << b >> c", "((a << b) >> c)"),
            ("a - b + c", "((a - b) + c)"),
            ("a / b * c % d", "(((a / b) * c) % d)"),
        ];
        for (src, want) in cases {
            let p = parse_ok(&format!("class A {{ void f() {{ return {src}; }} }}"));
            match &p.classes[0].methods[0].body[0] {
                Stmt::Return { value: Some(e), .. } => assert_eq!(render(e), want, "{src}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn parses_chained_calls_and_indexing() {
        parse_ok("class A { int f(int[][] m) { return m[0][1]; } void g(A a) { a.f(null); } }");
    }
}
