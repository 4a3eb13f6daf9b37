//! Lexer for the C-style specification language.
//!
//! Ordinary `/* ... */` and `// ...` comments are skipped, with one
//! exception: block comments whose first non-whitespace token is `@autogen`
//! or `@string` are surfaced as [`TokenKind::Annotation`] tokens so the
//! parser can interpret them (the paper embeds all generator directives in
//! such comments, keeping the file a valid C header).

use crate::error::{SpecError, SpecResult};
use std::fmt;

/// A half-open source region identified by byte offset plus 1-based
/// line/column of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub(crate) col: usize,
}

/// Lexical token categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`typedef`, `struct`, type names, field names).
    Ident(String),
    /// Unsigned integer literal.
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `.`
    Dot,
    /// `<` — used by annotation comparators in `operators = {...}` sets.
    Lt,
    /// `>`
    Gt,
    /// `!`
    Bang,
    /// Annotation comment body (leading `@` kind tag included), e.g.
    /// `@autogen define parser P with ...`.
    Annotation(String),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "`{v}`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::Annotation(_) => write!(f, "annotation comment"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token paired with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// Streaming lexer over a source string.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub(crate) fn new(src: &'a str) -> Self {
        Self { src, bytes: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    /// Tokenize the whole input, ending with a single [`TokenKind::Eof`].
    pub(crate) fn tokenize(mut self) -> SpecResult<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                return Ok(out);
            }
        }
    }

    fn span(&self) -> Span {
        Span { offset: self.pos, line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Consume a `/* ... */` body, returning its text (without delimiters).
    fn block_comment_body(&mut self, start: Span) -> SpecResult<String> {
        // Caller consumed `/*`.
        let body_start = self.pos;
        loop {
            match (self.peek(), self.peek2()) {
                (Some(b'*'), Some(b'/')) => {
                    let body = self.src[body_start..self.pos].to_string();
                    self.bump();
                    self.bump();
                    return Ok(body);
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    return Err(SpecError::new("unterminated block comment", start, self.src));
                }
            }
        }
    }

    fn next_token(&mut self) -> SpecResult<Token> {
        loop {
            self.skip_whitespace();
            let span = self.span();
            let Some(b) = self.peek() else {
                return Ok(Token { kind: TokenKind::Eof, span });
            };
            match b {
                b'/' if self.peek2() == Some(b'/') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    let body = self.block_comment_body(span)?;
                    let trimmed = body.trim_start();
                    if trimmed.starts_with("@autogen") || trimmed.starts_with("@string") {
                        return Ok(Token {
                            kind: TokenKind::Annotation(trimmed.trim_end().to_string()),
                            span,
                        });
                    }
                    // Ordinary comment: skip and continue.
                }
                b'{' => return self.single(TokenKind::LBrace, span),
                b'}' => return self.single(TokenKind::RBrace, span),
                b'[' => return self.single(TokenKind::LBracket, span),
                b']' => return self.single(TokenKind::RBracket, span),
                b'(' => return self.single(TokenKind::LParen, span),
                b')' => return self.single(TokenKind::RParen, span),
                b';' => return self.single(TokenKind::Semi, span),
                b',' => return self.single(TokenKind::Comma, span),
                b'=' => return self.single(TokenKind::Eq, span),
                b'.' => return self.single(TokenKind::Dot, span),
                b'<' => return self.single(TokenKind::Lt, span),
                b'>' => return self.single(TokenKind::Gt, span),
                b'!' => return self.single(TokenKind::Bang, span),
                b'0'..=b'9' => return self.number(span),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => return self.ident(span),
                other => {
                    return Err(SpecError::new(
                        format!("unexpected character `{}`", other as char),
                        span,
                        self.src,
                    ));
                }
            }
        }
    }

    fn single(&mut self, kind: TokenKind, span: Span) -> SpecResult<Token> {
        self.bump();
        Ok(Token { kind, span })
    }

    fn number(&mut self, span: Span) -> SpecResult<Token> {
        let start = self.pos;
        // Hex literals are accepted for reference values in annotations.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.bump();
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')) {
                self.bump();
            }
            let text = &self.src[start + 2..self.pos];
            let value = u64::from_str_radix(text, 16).map_err(|_| {
                SpecError::new(format!("invalid hex literal `0x{text}`"), span, self.src)
            })?;
            return Ok(Token { kind: TokenKind::Int(value), span });
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        let value: u64 = text.parse().map_err(|_| {
            SpecError::new(format!("integer literal `{text}` out of range"), span, self.src)
        })?;
        Ok(Token { kind: TokenKind::Int(value), span })
    }

    fn ident(&mut self, span: Span) -> SpecResult<Token> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')) {
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        Ok(Token { kind: TokenKind::Ident(text), span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_typedef() {
        let toks = kinds("typedef struct { uint32_t x; } P;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("typedef".into()),
                TokenKind::Ident("struct".into()),
                TokenKind::LBrace,
                TokenKind::Ident("uint32_t".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Ident("P".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        let toks = kinds("// line\n/* block */ typedef");
        assert_eq!(toks, vec![TokenKind::Ident("typedef".into()), TokenKind::Eof]);
    }

    #[test]
    fn surfaces_autogen_annotation() {
        let toks = kinds("/* @autogen define parser P with input = A */");
        match &toks[0] {
            TokenKind::Annotation(body) => {
                assert!(body.starts_with("@autogen"));
                assert!(body.contains("input = A"));
            }
            other => panic!("expected annotation, got {other:?}"),
        }
    }

    #[test]
    fn surfaces_string_annotation() {
        let toks = kinds("/* @string(prefix = 4) */ uint8_t");
        assert!(matches!(&toks[0], TokenKind::Annotation(b) if b.starts_with("@string")));
        assert!(matches!(&toks[1], TokenKind::Ident(i) if i == "uint8_t"));
    }

    #[test]
    fn multiline_annotation_preserves_body() {
        let src = "/* @autogen define parser X with\n   chunksize = 32,\n   input = A */";
        let toks = kinds(src);
        match &toks[0] {
            TokenKind::Annotation(body) => assert!(body.contains("chunksize = 32")),
            other => panic!("expected annotation, got {other:?}"),
        }
    }

    #[test]
    fn lexes_numbers_decimal_and_hex() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("0xFF")[0], TokenKind::Int(255));
        assert_eq!(kinds("0x0")[0], TokenKind::Int(0));
    }

    #[test]
    fn rejects_unterminated_comment() {
        let err = Lexer::new("/* never closed").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn rejects_unknown_character() {
        let err = Lexer::new("typedef $").tokenize().unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.span.col, 9);
    }

    #[test]
    fn rejects_out_of_range_integer() {
        let err = Lexer::new("99999999999999999999999").tokenize().unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!(toks[0].span, Span { offset: 0, line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { offset: 4, line: 2, col: 3 });
    }

    #[test]
    fn punctuation_tokens() {
        let toks = kinds("{ } [ ] ( ) ; , = . < > !");
        assert_eq!(toks.len(), 14); // 13 punct + EOF
        assert_eq!(toks[12], TokenKind::Bang);
    }
}
