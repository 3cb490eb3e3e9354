//! Hand-written lexer for MiniParty.

use crate::token::{Token, TokenKind};
use crate::{CompileError, Span};

/// Tokenize a complete source file.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1, out: Vec::new() }
    }

    fn span(&self) -> Span {
        Span { line: self.line, col: self.col }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, span: Span) {
        self.out.push(Token { kind, span });
    }

    fn run(mut self) -> Result<Vec<Token>, CompileError> {
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let c = self.peek();
            if c == 0 {
                self.push(TokenKind::Eof, span);
                return Ok(self.out);
            }
            match c {
                b'0'..=b'9' => self.number(span)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(span),
                b'"' => self.string(span)?,
                _ => self.symbol(span)?,
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let span = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        if self.peek() == 0 {
                            return Err(CompileError::new(span, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self, span: Span) -> Result<(), CompileError> {
        let start = self.pos;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        let mut is_double = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_double = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            is_double = true;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_double {
            let v: f64 = text
                .parse()
                .map_err(|_| CompileError::new(span, format!("invalid double literal `{text}`")))?;
            self.push(TokenKind::DoubleLit(v), span);
        } else {
            let v: i64 = text.parse().map_err(|_| {
                CompileError::new(span, format!("invalid integer literal `{text}`"))
            })?;
            self.push(TokenKind::IntLit(v), span);
        }
        Ok(())
    }

    fn ident(&mut self, span: Span) {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        match TokenKind::fixed(text.as_bytes()) {
            Some(kw) => self.push(kw, span),
            None => self.push(TokenKind::Ident(text.to_string()), span),
        }
    }

    fn string(&mut self, span: Span) -> Result<(), CompileError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.peek() {
                0 | b'\n' => return Err(CompileError::new(span, "unterminated string literal")),
                b'"' => {
                    self.bump();
                    break;
                }
                b'\\' => {
                    self.bump();
                    let esc = self.bump();
                    s.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'\\' => '\\',
                        b'"' => '"',
                        b'0' => '\0',
                        other => {
                            return Err(CompileError::new(
                                span,
                                format!("unknown escape `\\{}`", other as char),
                            ))
                        }
                    });
                }
                c => {
                    self.bump();
                    s.push(c as char);
                }
            }
        }
        self.push(TokenKind::StrLit(s), span);
        Ok(())
    }

    fn symbol(&mut self, span: Span) -> Result<(), CompileError> {
        let rest = &self.src[self.pos..];
        let longest = |len: usize| Some((TokenKind::fixed(rest.get(..len)?)?, len));
        let Some((kind, len)) = longest(2).or_else(|| longest(1)) else {
            let c = self.bump();
            return Err(CompileError::new(span, format!("unexpected character `{}`", c as char)));
        };
        // A symbol is on one line.
        self.pos += len;
        self.col += len as u32;
        self.push(kind, span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("remote class Foo extends Bar"),
            vec![KwRemote, KwClass, Ident("Foo".into()), KwExtends, Ident("Bar".into()), Eof]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42"), vec![IntLit(42), Eof]);
        assert_eq!(kinds("3.5"), vec![DoubleLit(3.5), Eof]);
        assert_eq!(kinds("1e3"), vec![DoubleLit(1000.0), Eof]);
        assert_eq!(kinds("2.5e-1"), vec![DoubleLit(0.25), Eof]);
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a += b++ <= c << 2"),
            vec![
                Ident("a".into()),
                PlusAssign,
                Ident("b".into()),
                PlusPlus,
                Le,
                Ident("c".into()),
                Shl,
                IntLit(2),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(kinds(r#""a\nb""#), vec![StrLit("a\nb".into()), Eof]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(kinds("1 // x\n /* y \n z */ 2"), vec![IntLit(1), IntLit(2), Eof]);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn rejects_unknown_char() {
        assert!(lex("#").is_err());
    }

    #[test]
    fn array_dims_and_placement() {
        assert_eq!(
            kinds("new double[4][4] @ 1"),
            vec![
                KwNew,
                KwDouble,
                LBracket,
                IntLit(4),
                RBracket,
                LBracket,
                IntLit(4),
                RBracket,
                At,
                IntLit(1),
                Eof
            ]
        );
    }

    #[test]
    fn dot_after_int_is_member_access_when_no_digit() {
        // `a[0].length` style: the `.` must not glue onto the integer.
        assert_eq!(kinds("0 .f"), vec![IntLit(0), Dot, Ident("f".into()), Eof]);
    }
}
