//! Diagnostics for the specification frontend.

use crate::lexer::Span;
use std::fmt;

/// Result alias used throughout the frontend.
pub(crate) type SpecResult<T> = Result<T, SpecError>;

/// A frontend error with source location and a rendered excerpt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of what went wrong.
    pub(crate) message: String,
    /// Location of the offending token (byte offset, line, column).
    pub span: Span,
    /// The source line containing the error, for rendering.
    pub(crate) source_line: String,
}

impl SpecError {
    /// Build an error at `span`, extracting the offending line from `source`.
    pub(crate) fn new(message: impl Into<String>, span: Span, source: &str) -> Self {
        let source_line = source.lines().nth(span.line.saturating_sub(1)).unwrap_or("").to_string();
        Self { message: message.into(), span, source_line }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error: {} (line {}, column {})", self.message, self.span.line, self.span.col)?;
        if !self.source_line.is_empty() {
            writeln!(f, "  | {}", self.source_line)?;
            // Column is 1-based; the caret sits under the offending token.
            writeln!(f, "  | {}^", " ".repeat(self.span.col.saturating_sub(1)))?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_caret_under_offending_column() {
        let src = "typedef strct { } X;";
        let span = Span { offset: 8, line: 1, col: 9 };
        let err = SpecError::new("unknown keyword `strct`", span, src);
        let rendered = err.to_string();
        assert!(rendered.contains("unknown keyword"));
        assert!(rendered.contains("typedef strct"));
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(
            caret_line.find('^').unwrap(),
            4 + 8,
            "caret under column 9 after the `  | ` gutter"
        );
    }

    #[test]
    fn missing_line_yields_empty_excerpt() {
        let err = SpecError::new("eof", Span { offset: 0, line: 99, col: 1 }, "one line");
        assert_eq!(err.source_line, "");
    }
}
