//! Pretty-printer: render a [`SpecModule`] back to specification source.
//!
//! Used by tooling that manipulates specifications programmatically
//! (e.g. schema-evolution scripts that add a field and regenerate), and
//! as a parser correctness check: `parse(print(parse(s)))` must equal
//! `parse(s)` for every valid source (round-trip tests below and in the
//! repository-level property suite).

use crate::ast::{ParserSpec, SpecModule, StructDef, TypeExpr};
use std::fmt::Write as _;

/// Render a whole module (parsers first, then typedefs — the paper's
/// Fig. 4 ordering).
pub fn print_module(m: &SpecModule) -> String {
    let mut out = String::new();
    for p in &m.parsers {
        out.push_str(&print_parser(p));
        out.push('\n');
    }
    for s in &m.structs {
        out.push_str(&print_struct(s));
        out.push('\n');
    }
    out
}

/// Render one `@autogen define parser` annotation.
pub(crate) fn print_parser(p: &ParserSpec) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "/* @autogen define parser {} with\n   chunksize = {}, input = {}, output = {}",
        p.name, p.chunk_kib, p.input, p.output
    );
    if p.stages != 1 {
        let _ = write!(out, ",\n   stages = {}", p.stages);
    }
    if !p.mapping.is_empty() {
        let entries: Vec<String> = p
            .mapping
            .iter()
            .map(|e| format!("output.{} = input.{}", e.output.dotted(), e.input.dotted()))
            .collect();
        let _ = write!(out, ",\n   mapping = {{ {} }}", entries.join(", "));
    }
    if let Some(ops) = &p.operators {
        let _ = write!(out, ",\n   operators = {{ {} }}", ops.join(", "));
    }
    if let Some(aggs) = &p.aggregates {
        let _ = write!(out, ",\n   aggregate = {{ {} }}", aggs.join(", "));
    }
    out.push_str("\n*/\n");
    out
}

/// Render one struct typedef.
pub(crate) fn print_struct(s: &StructDef) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "typedef struct {{");
    for f in &s.fields {
        let ty = match &f.ty {
            TypeExpr::Prim(p) => p.c_name().to_string(),
            TypeExpr::Named(n) => n.clone(),
        };
        let dims: String = f.dims.iter().map(|d| format!("[{d}]")).collect();
        match f.string_prefix {
            Some(n) => {
                let _ = writeln!(out, "    /* @string(prefix = {n}) */ {ty} {}{dims};", f.name);
            }
            None => {
                let _ = writeln!(out, "    {ty} {}{dims};", f.name);
            }
        }
    }
    let _ = writeln!(out, "}} {};", s.name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const FIG4: &str = "
        /* @autogen define parser Point3DTo2D with
           chunksize = 32, input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    fn round_trip(src: &str) {
        let m1 = parse(src).expect("source parses");
        let printed = print_module(&m1);
        let m2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source does not re-parse:\n{printed}\n{e}"));
        assert_eq!(normalize(&m1), normalize(&m2), "round trip changed semantics:\n{printed}");
    }

    /// Spans differ between original and printed sources; compare
    /// everything else.
    fn normalize(m: &crate::SpecModule) -> String {
        // The printer itself is a convenient span-free normal form.
        print_module(m)
    }

    #[test]
    fn fig4_round_trips() {
        round_trip(FIG4);
    }

    #[test]
    fn multi_declarators_are_split_but_equivalent() {
        let m = parse("typedef struct { uint32_t x, y; } P;").unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("uint32_t x;"));
        assert!(printed.contains("uint32_t y;"));
        round_trip("typedef struct { uint32_t x, y; } P;");
    }

    #[test]
    fn strings_arrays_and_nesting_round_trip() {
        round_trip(
            "
            typedef struct { uint32_t v[3]; } Vec3;
            typedef struct {
                Vec3 pos;
                int16_t temps[2][2];
                /* @string(prefix = 8) */ uint8_t title[56];
                double score;
            } Node;
            ",
        );
    }

    #[test]
    fn all_annotation_keys_round_trip() {
        round_trip(
            "
            /* @autogen define parser Full with chunksize = 64,
               input = A, output = B, stages = 3,
               mapping = { output.k = input.k },
               operators = { eq, ne, lt },
               aggregate = { count, sum } */
            typedef struct { uint64_t k; uint32_t v; } A;
            typedef struct { uint64_t k; } B;
            ",
        );
    }

    #[test]
    fn printed_defaults_are_stable() {
        // Default chunksize/stages print explicitly (chunksize) or not at
        // all (stages = 1), and re-parse to the same values.
        let m = parse(
            "/* @autogen define parser P with input = T, output = T */
             typedef struct { uint32_t x; } T;",
        )
        .unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("chunksize = 32"));
        assert!(!printed.contains("stages"));
        let m2 = parse(&printed).unwrap();
        assert_eq!(m2.parsers[0].chunk_kib, 32);
        assert_eq!(m2.parsers[0].stages, 1);
    }

    #[test]
    fn printer_is_idempotent() {
        let m = parse(FIG4).unwrap();
        let once = print_module(&m);
        let twice = print_module(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }
}
