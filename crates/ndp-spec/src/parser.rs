//! Recursive-descent parser for the specification language.
//!
//! A specification file is a sequence of annotation comments and
//! `typedef struct { ... } Name;` definitions. `@string` annotations attach
//! to the *next* field declaration; `@autogen` annotations are free-standing
//! parser definitions (they conventionally precede the structs they
//! reference, as in the paper's Fig. 4, but any order is accepted —
//! resolution happens in `ndp-ir`).

use crate::ast::{
    FieldDecl, FieldPath, MappingEntry, ParserSpec, PrimTy, SpecModule, StructDef, TypeExpr,
};
use crate::error::{SpecError, SpecResult};
use crate::lexer::{Lexer, Span, Token, TokenKind};

/// Parse a complete specification source file into a [`SpecModule`].
pub(crate) fn parse_module(source: &str) -> SpecResult<SpecModule> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser { src: source, tokens, pos: 0 }.module()
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> SpecError {
        SpecError::new(msg, span, self.src)
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> SpecResult<Token> {
        let t = self.bump();
        if &t.kind == kind {
            Ok(t)
        } else {
            Err(self.err(format!("expected {what}, found {}", t.kind), t.span))
        }
    }

    fn expect_ident(&mut self, what: &str) -> SpecResult<(String, Span)> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(name) => Ok((name, t.span)),
            other => Err(self.err(format!("expected {what}, found {other}"), t.span)),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SpecResult<Span> {
        let (name, span) = self.expect_ident(&format!("keyword `{kw}`"))?;
        if name == kw {
            Ok(span)
        } else {
            Err(self.err(format!("expected keyword `{kw}`, found `{name}`"), span))
        }
    }

    fn expect_int(&mut self, what: &str) -> SpecResult<(u64, Span)> {
        let t = self.bump();
        match t.kind {
            TokenKind::Int(v) => Ok((v, t.span)),
            other => Err(self.err(format!("expected {what}, found {other}"), t.span)),
        }
    }

    fn module(&mut self) -> SpecResult<SpecModule> {
        let mut module = SpecModule::default();
        // A pending `@string` annotation that must attach to the next field;
        // at module level it can only legally appear inside a struct body,
        // so seeing one here is an error.
        loop {
            let t = self.peek().clone();
            match &t.kind {
                TokenKind::Eof => break,
                TokenKind::Annotation(body) => {
                    self.bump();
                    if body.starts_with("@autogen") {
                        module.parsers.push(self.parse_autogen(body, t.span)?);
                    } else {
                        return Err(self.err(
                            "@string annotation is only valid immediately before a struct field",
                            t.span,
                        ));
                    }
                }
                TokenKind::Ident(kw) if kw == "typedef" => {
                    module.structs.push(self.parse_typedef()?);
                }
                other => {
                    return Err(self
                        .err(format!("expected `typedef` or annotation, found {other}"), t.span));
                }
            }
        }
        self.check_duplicates(&module)?;
        Ok(module)
    }

    fn check_duplicates(&self, module: &SpecModule) -> SpecResult<()> {
        for (i, s) in module.structs.iter().enumerate() {
            if module.structs[..i].iter().any(|p| p.name == s.name) {
                return Err(self.err(format!("duplicate struct definition `{}`", s.name), s.span));
            }
        }
        for (i, p) in module.parsers.iter().enumerate() {
            if module.parsers[..i].iter().any(|q| q.name == p.name) {
                return Err(self.err(format!("duplicate parser definition `{}`", p.name), p.span));
            }
        }
        Ok(())
    }

    // ---- typedef struct { fields } Name ; ----

    fn parse_typedef(&mut self) -> SpecResult<StructDef> {
        let span = self.expect_keyword("typedef")?;
        self.expect_keyword("struct")?;
        self.expect_kind(&TokenKind::LBrace, "`{`")?;

        let mut fields = Vec::new();
        let mut pending_prefix: Option<(u32, Span)> = None;
        loop {
            let t = self.peek().clone();
            match &t.kind {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Annotation(body) if body.starts_with("@string") => {
                    self.bump();
                    if pending_prefix.is_some() {
                        return Err(
                            self.err("two @string annotations before the same field", t.span)
                        );
                    }
                    pending_prefix = Some((self.parse_string_annotation(body, t.span)?, t.span));
                }
                TokenKind::Annotation(_) => {
                    return Err(
                        self.err("@autogen annotations are not allowed inside a struct", t.span)
                    );
                }
                TokenKind::Ident(_) => {
                    let prefix = pending_prefix.take();
                    let mut decls = self.parse_field_line(prefix.map(|(n, _)| n))?;
                    if let Some((_, pspan)) = prefix {
                        // A prefix annotation must attach to exactly one
                        // byte-array declarator.
                        if decls.len() != 1 {
                            return Err(self.err(
                                "@string annotation must precede a single field declarator",
                                pspan,
                            ));
                        }
                    }
                    fields.append(&mut decls);
                }
                other => {
                    return Err(self.err(format!("expected field or `}}`, found {other}"), t.span));
                }
            }
        }
        if let Some((_, pspan)) = pending_prefix {
            return Err(self.err("@string annotation not followed by a field", pspan));
        }

        let (name, _) = self.expect_ident("struct name")?;
        self.expect_kind(&TokenKind::Semi, "`;`")?;

        if fields.is_empty() {
            return Err(self.err(format!("struct `{name}` has no fields"), span));
        }
        // Duplicate field names within one struct.
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(
                    self.err(format!("duplicate field `{}` in struct `{name}`", f.name), f.span)
                );
            }
        }
        Ok(StructDef { name, fields, span })
    }

    /// One `type a, b[4], c;` line, producing one [`FieldDecl`] per declarator.
    fn parse_field_line(&mut self, string_prefix: Option<u32>) -> SpecResult<Vec<FieldDecl>> {
        let (ty_name, ty_span) = self.expect_ident("type name")?;
        let ty = match PrimTy::from_c_name(&ty_name) {
            Some(p) => TypeExpr::Prim(p),
            None => TypeExpr::Named(ty_name.clone()),
        };
        let mut out = Vec::new();
        loop {
            let (name, span) = self.expect_ident("field name")?;
            let mut dims = Vec::new();
            while self.peek().kind == TokenKind::LBracket {
                self.bump();
                let (n, nspan) = self.expect_int("array length")?;
                if n == 0 {
                    return Err(self.err("array length must be positive", nspan));
                }
                dims.push(n as usize);
                self.expect_kind(&TokenKind::RBracket, "`]`")?;
            }
            if string_prefix.is_some() {
                // `@string` only makes sense on byte arrays (paper: byte
                // arrays flagged as string data).
                let is_byte_array = ty == TypeExpr::Prim(PrimTy::U8) && dims.len() == 1;
                if !is_byte_array {
                    return Err(self.err(
                        "@string annotation requires a one-dimensional uint8_t array",
                        ty_span,
                    ));
                }
            }
            out.push(FieldDecl { name, ty: ty.clone(), dims, string_prefix, span });
            match self.bump() {
                Token { kind: TokenKind::Comma, .. } => continue,
                Token { kind: TokenKind::Semi, .. } => break,
                Token { kind: other, span } => {
                    return Err(self.err(format!("expected `,` or `;`, found {other}"), span));
                }
            }
        }
        Ok(out)
    }

    // ---- annotations ----

    /// Parse `@string(prefix = N)`.
    fn parse_string_annotation(&self, body: &str, span: Span) -> SpecResult<u32> {
        // The annotation body was captured textually; strip the `@string`
        // tag and re-lex the argument list.
        let rest = body.trim_start().strip_prefix("@string").unwrap_or(body);
        let tokens = Lexer::new(rest)
            .tokenize()
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        let mut sub = Parser { src: rest, tokens, pos: 0 };
        sub.expect_kind(&TokenKind::LParen, "`(`")
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        sub.expect_keyword("prefix")
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        sub.expect_kind(&TokenKind::Eq, "`=`")
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        let (n, _) = sub
            .expect_int("prefix length")
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        sub.expect_kind(&TokenKind::RParen, "`)`")
            .map_err(|e| self.err(format!("in @string annotation: {}", e.message), span))?;
        if !matches!(n, 1 | 2 | 4 | 8) {
            return Err(self.err(
                format!("@string prefix must be 1, 2, 4 or 8 bytes (a hardware word), got {n}"),
                span,
            ));
        }
        Ok(n as u32)
    }

    /// Parse `@autogen define parser NAME with key = value, ...`.
    fn parse_autogen(&self, body: &str, span: Span) -> SpecResult<ParserSpec> {
        let rest = body.trim_start().strip_prefix("@autogen").unwrap_or(body);
        let tokens = Lexer::new(rest)
            .tokenize()
            .map_err(|e| self.err(format!("in @autogen annotation: {}", e.message), span))?;
        let mut sub = Parser { src: rest, tokens, pos: 0 };
        let spec = sub
            .autogen_body(span)
            .map_err(|e| self.err(format!("in @autogen annotation: {}", e.message), span))?;
        Ok(spec)
    }

    fn autogen_body(&mut self, span: Span) -> SpecResult<ParserSpec> {
        self.expect_keyword("define")?;
        self.expect_keyword("parser")?;
        let (name, _) = self.expect_ident("parser name")?;
        self.expect_keyword("with")?;

        let mut chunk_kib: Option<u32> = None;
        let mut input: Option<String> = None;
        let mut output: Option<String> = None;
        let mut mapping: Vec<MappingEntry> = Vec::new();
        let mut stages: Option<u32> = None;
        let mut operators: Option<Vec<String>> = None;
        let mut aggregates: Option<Vec<String>> = None;

        loop {
            let (key, kspan) = self.expect_ident("annotation key")?;
            self.expect_kind(&TokenKind::Eq, "`=`")?;
            match key.as_str() {
                "chunksize" => {
                    let (v, vspan) = self.expect_int("chunk size in KiB")?;
                    if v == 0 || v > 4096 {
                        return Err(self.err("chunksize must be in 1..=4096 KiB", vspan));
                    }
                    set_once(&mut chunk_kib, v as u32, "chunksize", kspan, self.src)?;
                }
                "input" => {
                    let (v, _) = self.expect_ident("input struct name")?;
                    set_once(&mut input, v, "input", kspan, self.src)?;
                }
                "output" => {
                    let (v, _) = self.expect_ident("output struct name")?;
                    set_once(&mut output, v, "output", kspan, self.src)?;
                }
                "stages" => {
                    let (v, vspan) = self.expect_int("stage count")?;
                    if v == 0 || v > 64 {
                        return Err(self.err("stages must be in 1..=64", vspan));
                    }
                    set_once(&mut stages, v as u32, "stages", kspan, self.src)?;
                }
                "mapping" => {
                    if !mapping.is_empty() {
                        return Err(self.err("duplicate key `mapping`", kspan));
                    }
                    mapping = self.parse_mapping_block()?;
                }
                "operators" => {
                    let ops = self.parse_operator_set()?;
                    set_once(&mut operators, ops, "operators", kspan, self.src)?;
                }
                "aggregate" => {
                    let aggs = self.parse_ident_set("aggregate")?;
                    set_once(&mut aggregates, aggs, "aggregate", kspan, self.src)?;
                }
                other => {
                    return Err(self.err(
                        format!(
                            "unknown annotation key `{other}` (expected chunksize, input, \
                             output, mapping, stages, operators or aggregate)"
                        ),
                        kspan,
                    ));
                }
            }
            match self.bump() {
                Token { kind: TokenKind::Comma, .. } => continue,
                Token { kind: TokenKind::Eof, .. } => break,
                Token { kind: other, span } => {
                    return Err(self.err(format!("expected `,` or end, found {other}"), span));
                }
            }
        }

        let input = input.ok_or_else(|| self.err("missing `input` key", span))?;
        let output = output.ok_or_else(|| self.err("missing `output` key", span))?;
        Ok(ParserSpec {
            name,
            chunk_kib: chunk_kib.unwrap_or(32),
            input,
            output,
            mapping,
            stages: stages.unwrap_or(1),
            operators,
            aggregates,
            span,
        })
    }

    /// Parse `{ output.x = input.y, ... }`.
    fn parse_mapping_block(&mut self) -> SpecResult<Vec<MappingEntry>> {
        self.expect_kind(&TokenKind::LBrace, "`{`")?;
        let mut entries = Vec::new();
        if self.peek().kind == TokenKind::RBrace {
            self.bump();
            return Ok(entries);
        }
        loop {
            let (out_path, espan) = self.parse_qualified_path("output")?;
            self.expect_kind(&TokenKind::Eq, "`=`")?;
            let (in_path, _) = self.parse_qualified_path("input")?;
            entries.push(MappingEntry { output: out_path, input: in_path, span: espan });
            match self.bump() {
                Token { kind: TokenKind::Comma, .. } => continue,
                Token { kind: TokenKind::RBrace, .. } => break,
                Token { kind: other, span } => {
                    return Err(self.err(format!("expected `,` or `}}`, found {other}"), span));
                }
            }
        }
        Ok(entries)
    }

    /// Parse `output.a.b` / `input.a.b`, checking and stripping the root.
    fn parse_qualified_path(&mut self, root: &str) -> SpecResult<(FieldPath, Span)> {
        let (head, span) = self.expect_ident(&format!("`{root}.<field>` path"))?;
        if head != root {
            return Err(
                self.err(format!("mapping paths must start with `{root}.`, found `{head}`"), span)
            );
        }
        let mut segs = Vec::new();
        while self.peek().kind == TokenKind::Dot {
            self.bump();
            let (seg, sspan) = self.expect_ident("path segment")?;
            // Array elements may be addressed as `coords[1]` in mappings;
            // scalarization renames them `coords_1`, so accept both forms.
            let mut seg = seg;
            while self.peek().kind == TokenKind::LBracket {
                self.bump();
                let (idx, _) = self.expect_int("array index")?;
                self.expect_kind(&TokenKind::RBracket, "`]`")?;
                seg = format!("{seg}_{idx}");
                let _ = sspan;
            }
            segs.push(seg);
        }
        if segs.is_empty() {
            return Err(self.err(format!("`{root}` path needs at least one field segment"), span));
        }
        Ok((FieldPath(segs), span))
    }

    /// Parse a `{ ident, ident, ... }` set (used by `aggregate`).
    fn parse_ident_set(&mut self, what: &str) -> SpecResult<Vec<String>> {
        self.expect_kind(&TokenKind::LBrace, "`{`")?;
        let mut out = Vec::new();
        loop {
            let (name, span) = self.expect_ident(&format!("{what} name"))?;
            if out.contains(&name) {
                return Err(self.err(format!("duplicate {what} `{name}`"), span));
            }
            out.push(name);
            match self.bump() {
                Token { kind: TokenKind::Comma, .. } => continue,
                Token { kind: TokenKind::RBrace, .. } => break,
                Token { kind: other, span } => {
                    return Err(self.err(format!("expected `,` or `}}`, found {other}"), span));
                }
            }
        }
        Ok(out)
    }

    /// Parse `{ ne, eq, gt, ... }` operator sets. Symbolic spellings
    /// (`!=`, `==`, `>`, `>=`, `<`, `<=`) are also accepted.
    fn parse_operator_set(&mut self) -> SpecResult<Vec<String>> {
        self.expect_kind(&TokenKind::LBrace, "`{`")?;
        let mut ops = Vec::new();
        loop {
            let t = self.bump();
            let op = match t.kind {
                TokenKind::Ident(name) => name,
                TokenKind::Bang => {
                    self.expect_kind(&TokenKind::Eq, "`=` after `!`")?;
                    "ne".to_string()
                }
                TokenKind::Eq => {
                    self.expect_kind(&TokenKind::Eq, "`=` after `=`")?;
                    "eq".to_string()
                }
                TokenKind::Gt => {
                    if self.peek().kind == TokenKind::Eq {
                        self.bump();
                        "ge".to_string()
                    } else {
                        "gt".to_string()
                    }
                }
                TokenKind::Lt => {
                    if self.peek().kind == TokenKind::Eq {
                        self.bump();
                        "le".to_string()
                    } else {
                        "lt".to_string()
                    }
                }
                other => {
                    return Err(self.err(format!("expected operator name, found {other}"), t.span));
                }
            };
            if ops.contains(&op) {
                return Err(self.err(format!("duplicate operator `{op}`"), t.span));
            }
            ops.push(op);
            match self.bump() {
                Token { kind: TokenKind::Comma, .. } => continue,
                Token { kind: TokenKind::RBrace, .. } => break,
                Token { kind: other, span } => {
                    return Err(self.err(format!("expected `,` or `}}`, found {other}"), span));
                }
            }
        }
        if ops.is_empty() {
            return Err(self.err("operator set must not be empty", Span::default()));
        }
        Ok(ops)
    }
}

fn set_once<T>(slot: &mut Option<T>, value: T, key: &str, span: Span, src: &str) -> SpecResult<()> {
    if slot.is_some() {
        return Err(SpecError::new(format!("duplicate key `{key}`"), span, src));
    }
    *slot = Some(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG4: &str = r#"
        /* @autogen define parser Point3DTo2D with
           chunksize = 32, input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z }
        */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    "#;

    #[test]
    fn parses_paper_fig4_example() {
        let m = parse_module(FIG4).unwrap();
        assert_eq!(m.structs.len(), 2);
        assert_eq!(m.parsers.len(), 1);
        let p = &m.parsers[0];
        assert_eq!(p.name, "Point3DTo2D");
        assert_eq!(p.chunk_kib, 32);
        assert_eq!(p.input, "Point3D");
        assert_eq!(p.output, "Point2D");
        assert_eq!(p.stages, 1);
        assert_eq!(p.mapping.len(), 2);
        assert_eq!(p.mapping[0].output.dotted(), "x");
        assert_eq!(p.mapping[0].input.dotted(), "y");
        assert_eq!(p.mapping[1].output.dotted(), "y");
        assert_eq!(p.mapping[1].input.dotted(), "z");
    }

    #[test]
    fn multi_declarator_fields_expand() {
        let m = parse_module("typedef struct { uint32_t x, y, z; } P;").unwrap();
        let s = &m.structs[0];
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[1].name, "y");
        assert!(s.fields.iter().all(|f| f.ty == TypeExpr::Prim(PrimTy::U32)));
    }

    #[test]
    fn arrays_and_nested_struct_references() {
        let src = "
            typedef struct { uint32_t v[3]; } Vec3;
            typedef struct { Vec3 pos; uint8_t tag[2][4]; } Node;
        ";
        let m = parse_module(src).unwrap();
        let node = m.find_struct("Node").unwrap();
        assert_eq!(node.fields[0].ty, TypeExpr::Named("Vec3".into()));
        assert_eq!(node.fields[1].dims, vec![2, 4]);
    }

    #[test]
    fn string_prefix_annotation_attaches_to_next_field() {
        let src = "typedef struct {
            uint64_t id;
            /* @string(prefix = 4) */ uint8_t title[32];
        } Paper;";
        let m = parse_module(src).unwrap();
        let f = &m.structs[0].fields[1];
        assert_eq!(f.string_prefix, Some(4));
        assert_eq!(f.dims, vec![32]);
        assert_eq!(m.structs[0].fields[0].string_prefix, None);
    }

    #[test]
    fn string_prefix_requires_byte_array() {
        let src = "typedef struct { /* @string(prefix = 4) */ uint32_t x; } P;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("uint8_t array"), "{}", err.message);
    }

    #[test]
    fn string_prefix_must_be_power_of_two_word() {
        let src = "typedef struct { /* @string(prefix = 3) */ uint8_t s[8]; } P;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("1, 2, 4 or 8"));
    }

    #[test]
    fn dangling_string_annotation_is_rejected() {
        let src = "typedef struct { uint32_t x; /* @string(prefix = 4) */ } P;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("not followed by a field"));
    }

    #[test]
    fn stages_and_operator_sets() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               stages = 3, operators = { eq, ne, gt, custom_popcnt } */
            typedef struct { uint32_t x; } A;
        ";
        let m = parse_module(src).unwrap();
        let p = &m.parsers[0];
        assert_eq!(p.stages, 3);
        assert_eq!(p.operators.as_deref().unwrap(), ["eq", "ne", "gt", "custom_popcnt"]);
    }

    #[test]
    fn symbolic_operator_spellings() {
        let src = "
            /* @autogen define parser F with input = A, output = A,
               operators = { !=, ==, >, >=, <, <= } */
            typedef struct { uint32_t x; } A;
        ";
        let m = parse_module(src).unwrap();
        assert_eq!(
            m.parsers[0].operators.as_deref().unwrap(),
            ["ne", "eq", "gt", "ge", "lt", "le"]
        );
    }

    #[test]
    fn mapping_array_index_form_is_scalarized() {
        let src = "
            /* @autogen define parser F with input = A, output = B,
               mapping = { output.x = input.coords[1] } */
            typedef struct { uint32_t coords[3]; } A;
            typedef struct { uint32_t x; } B;
        ";
        let m = parse_module(src).unwrap();
        assert_eq!(m.parsers[0].mapping[0].input.dotted(), "coords_1");
    }

    #[test]
    fn default_chunksize_is_32_kib() {
        let src = "
            /* @autogen define parser F with input = A, output = A */
            typedef struct { uint32_t x; } A;
        ";
        assert_eq!(parse_module(src).unwrap().parsers[0].chunk_kib, 32);
    }

    #[test]
    fn missing_input_key_is_an_error() {
        let src = "/* @autogen define parser F with output = A */
                   typedef struct { uint32_t x; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("missing `input`"));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let src = "/* @autogen define parser F with input = A, input = B, output = A */
                   typedef struct { uint32_t x; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate key `input`"));
    }

    #[test]
    fn unknown_key_rejected_with_hint() {
        let src = "/* @autogen define parser F with inptu = A, output = A */
                   typedef struct { uint32_t x; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("unknown annotation key `inptu`"));
    }

    #[test]
    fn duplicate_struct_rejected() {
        let src = "typedef struct { uint32_t x; } A; typedef struct { uint32_t y; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate struct"));
    }

    #[test]
    fn duplicate_field_rejected() {
        let src = "typedef struct { uint32_t x; uint64_t x; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate field `x`"));
    }

    #[test]
    fn empty_struct_rejected() {
        let err = parse_module("typedef struct { } A;").unwrap_err();
        assert!(err.message.contains("no fields"));
    }

    #[test]
    fn zero_length_array_rejected() {
        let err = parse_module("typedef struct { uint32_t x[0]; } A;").unwrap_err();
        assert!(err.message.contains("array length must be positive"));
    }

    #[test]
    fn mapping_paths_must_be_rooted() {
        let src = "/* @autogen define parser F with input = A, output = A,
                      mapping = { out.x = input.y } */
                   typedef struct { uint32_t x, y; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("must start with `output.`"));
    }

    #[test]
    fn empty_mapping_block_is_allowed() {
        let src = "/* @autogen define parser F with input = A, output = A, mapping = { } */
                   typedef struct { uint32_t x; } A;";
        assert!(parse_module(src).unwrap().parsers[0].mapping.is_empty());
    }

    #[test]
    fn duplicate_parser_rejected() {
        let src = "/* @autogen define parser F with input = A, output = A */
                   /* @autogen define parser F with input = A, output = A */
                   typedef struct { uint32_t x; } A;";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate parser"));
    }

    #[test]
    fn stages_bounds_enforced() {
        let src = "/* @autogen define parser F with input = A, output = A, stages = 0 */
                   typedef struct { uint32_t x; } A;";
        assert!(parse_module(src).is_err());
        let src = "/* @autogen define parser F with input = A, output = A, stages = 65 */
                   typedef struct { uint32_t x; } A;";
        assert!(parse_module(src).is_err());
    }

    #[test]
    fn error_reports_line_of_offense() {
        let src = "typedef struct { uint32_t x; } A;\ntypedef strct { uint32_t y; } B;";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.span.line, 2);
    }
}
