//! Token definitions for the MiniParty lexer.

use crate::Span;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// All token kinds produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals
    IntLit(i64),
    DoubleLit(f64),
    StrLit(String),
    Ident(String),

    // Keywords
    KwClass,
    KwRemote,
    KwExtends,
    KwStatic,
    KwVoid,
    KwBoolean,
    KwInt,
    KwLong,
    KwDouble,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwNew,
    KwNull,
    KwTrue,
    KwFalse,
    KwThis,
    KwSpawn,
    KwBreak,
    KwContinue,

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    At,

    // Operators
    Assign,      // =
    PlusAssign,  // +=
    MinusAssign, // -=
    StarAssign,  // *=
    SlashAssign, // /=
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,

    Eof,
}

/// Every token spelled one fixed way, keywords and punctuation, with its
/// spelling, once: the lexer reads a token by it (no punctuation is longer
/// than two bytes) and a parse error names a token by it.
macro_rules! fixed_tokens {
    ($($kind:ident $text:literal,)*) => {
        impl TokenKind {
            /// The fixed token spelled exactly `text`, if there is one.
            #[inline]
            pub fn fixed(text: &[u8]) -> Option<TokenKind> {
                Some(match text {
                    $($text => TokenKind::$kind,)*
                    _ => return None,
                })
            }

            fn spelling(&self) -> Option<&'static [u8]> {
                match self {
                    $(TokenKind::$kind => Some(&$text[..]),)*
                    _ => None,
                }
            }
        }
    };
}

fixed_tokens! {
    KwClass b"class",
    KwRemote b"remote",
    KwExtends b"extends",
    KwStatic b"static",
    KwVoid b"void",
    KwBoolean b"boolean",
    KwInt b"int",
    KwLong b"long",
    KwDouble b"double",
    KwIf b"if",
    KwElse b"else",
    KwWhile b"while",
    KwFor b"for",
    KwReturn b"return",
    KwNew b"new",
    KwNull b"null",
    KwTrue b"true",
    KwFalse b"false",
    KwThis b"this",
    KwSpawn b"spawn",
    KwBreak b"break",
    KwContinue b"continue",
    LParen b"(",
    RParen b")",
    LBrace b"{",
    RBrace b"}",
    LBracket b"[",
    RBracket b"]",
    Semi b";",
    Comma b",",
    Dot b".",
    At b"@",
    Assign b"=",
    PlusAssign b"+=",
    MinusAssign b"-=",
    StarAssign b"*=",
    SlashAssign b"/=",
    Plus b"+",
    Minus b"-",
    Star b"*",
    Slash b"/",
    Percent b"%",
    PlusPlus b"++",
    MinusMinus b"--",
    EqEq b"==",
    NotEq b"!=",
    Lt b"<",
    Gt b">",
    Le b"<=",
    Ge b">=",
    AndAnd b"&&",
    OrOr b"||",
    Not b"!",
    Amp b"&",
    Pipe b"|",
    Caret b"^",
    Shl b"<<",
    Shr b">>",
}

impl TokenKind {
    /// Short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::IntLit(v) => format!("integer literal {v}"),
            TokenKind::DoubleLit(v) => format!("double literal {v}"),
            TokenKind::StrLit(_) => "string literal".to_string(),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Eof => "end of input".to_string(),
            fixed => {
                let text = fixed.spelling().expect("a token of no text is fixed");
                format!("`{}`", String::from_utf8_lossy(text))
            }
        }
    }
}
