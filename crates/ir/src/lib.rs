//! # corm-ir — the MiniParty front end
//!
//! MiniParty is a small Java-like language with JavaParty's `remote class`
//! extension. It exists so the compiler optimizations of *Compiler Optimized
//! Remote Method Invocation* (Veldema & Philippsen, CLUSTER 2003) operate on
//! a real intermediate representation with allocation sites, virtual calls
//! and remote call sites — exactly the inputs the paper's heap analysis,
//! cycle-freedom analysis and escape analysis consume.
//!
//! The pipeline provided by this crate:
//!
//! ```text
//! source text ── lexer ──► tokens ── parser ──► AST
//!     ── resolve/typecheck ──► [`ClassTable`] + typed bodies
//!     ── lower ──► CFG register IR ([`Function`])
//!     ── ssa ──► SSA form ([`ssa::SsaFunction`]) used by corm-analysis
//! ```
//!
//! The virtual machine (corm-vm) interprets the non-SSA CFG IR directly;
//! the static analyses (corm-analysis) run on the SSA form, mirroring step 1
//! of the paper's heap-analysis algorithm ("convert all code to SSA form").

pub mod ast;
pub mod cfg;
pub mod classes;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod scalar;
pub mod ssa;
pub mod token;

pub use ast::*;
pub use cfg::*;
pub use classes::*;
pub use lower::lower_program;
pub use parser::parse_program;
pub use resolve::resolve_program;

/// A source position (1-based line and column) used in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A front-end error: lexing, parsing, resolution or type checking.
#[derive(Debug, Clone)]
pub struct CompileError {
    pub span: Span,
    pub message: String,
}

impl CompileError {
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        CompileError { span, message: message.into() }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Convenience: run the complete front end (parse, resolve, lower,
/// optimize) on a MiniParty source file, producing the lowered
/// [`classes::Module`].
pub fn compile_frontend(src: &str) -> Result<Module, CompileError> {
    let ast = parse_program(src)?;
    let resolved = resolve_program(&ast)?;
    let mut module = lower_program(&resolved)?;
    opt::optimize_module(&mut module);
    Ok(module)
}
