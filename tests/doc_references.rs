//! The prose may not name code that is gone.
//!
//! Every backticked path in DESIGN.md, README.md and EXPERIMENTS.md
//! (`module::item`, `Type::member`, `file.rs::test_name`) must resolve
//! to a declaration somewhere under `crates/`, `tests/`, `examples/` or
//! `src/`. Rustdoc checks the links of module docs; this plain-text scan
//! does the same for the Markdown documents, with no parser and no
//! crate:
//!
//! * the final segment of `a::b` must be declared as a `fn`, `struct`,
//!   `enum`, `const`, `static`, `type`, `trait` or `mod`; when the
//!   segment before it is a type (`Type::x`), a field or an enum variant
//!   of that name also counts;
//! * `file.rs::…::name` must resolve in a file of that name;
//! * `a::{b, c}` checks `b` and `c`, `a::{b,c}_d` checks `b_d` and `c_d`,
//!   and a trailing `*` (`file.rs::prefix_*`) needs one declaration that
//!   starts with the prefix;
//! * paths rooted in the standard library, clippy or a primitive type
//!   are skipped, as are fenced code blocks.
//!
//! The prose may not quote a number the artifacts no longer print
//! either. A line that names a committed `repro` artifact
//! (`repro_output.txt`, `profile_smoke.txt`, `loadgen_smoke.txt`), and
//! every row of a table whose header names one, may only contain
//! decimal numbers (`5.510`, `98.9`) that the named artifact prints. A
//! fenced `text` block right after a fenced block that names an artifact
//! is an excerpt of it: each of its lines, but a `...`, is a line of
//! that artifact, verbatim.

use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];
const ARTIFACTS: [&str; 3] = ["repro_output.txt", "profile_smoke.txt", "loadgen_smoke.txt"];
const SOURCE_DIRS: [&str; 4] = ["crates", "tests", "examples", "src"];
const ITEM_KEYWORDS: [&str; 8] =
    ["fn", "struct", "enum", "const", "static", "type", "trait", "mod"];
const EXTERNAL_ROOTS: [&str; 21] = [
    "std", "core", "alloc", "clippy", "bool", "char", "str", "u8", "u16", "u32", "u64", "u128",
    "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32", "f64",
];

/// What one source file declares: items (by keyword) and members
/// (struct fields and enum variants, recognised by their line shape).
struct Declared {
    file: String,
    items: Vec<String>,
    members: Vec<String>,
}

/// One backticked path, reduced to what resolution needs.
struct Reference {
    text: String,
    root: String,
    file: Option<String>,
    parent: String,
    name: String,
    prefix: bool,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn declarations(path: &Path) -> Declared {
    let source = std::fs::read_to_string(path).expect("source file is readable");
    let file = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
    let mut d = Declared { file, items: Vec::new(), members: Vec::new() };
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or("");
        let tokens: Vec<&str> = code.split(|c| !is_ident(c)).filter(|t| !t.is_empty()).collect();
        for pair in tokens.windows(2) {
            if ITEM_KEYWORDS.contains(&pair[0]) {
                d.items.push(pair[1].to_string());
            }
        }
        let mut rest = code.trim_start();
        for vis in ["pub(crate) ", "pub(super) ", "pub "] {
            rest = rest.strip_prefix(vis).unwrap_or(rest);
        }
        let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        let after = rest[name.len()..].trim_start();
        let field = after.starts_with(':') && !after.starts_with("::");
        let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
            && (after.is_empty() || after.starts_with([',', '(', '{', '=']));
        if !name.is_empty() && (field || variant) {
            d.members.push(name);
        }
    }
    d
}

/// The inline code spans of a Markdown document, fenced blocks dropped.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// Every `a::b` path inside one code span. Identifiers are ASCII, so
/// every index the scan slices at is a char boundary.
fn references(span: &str) -> Vec<Reference> {
    let bytes = span.as_bytes();
    let ident_end = |i: usize| i + span[i..].chars().take_while(|&c| is_ident(c)).count();
    let mut refs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = char::from(bytes[i]);
        if !(c.is_ascii_alphabetic() || c == '_') || (i > 0 && is_ident(char::from(bytes[i - 1]))) {
            i += 1;
            continue;
        }
        let start = i;
        i = ident_end(i);
        let root = &span[start..i];
        let mut file = None;
        if span[i..].starts_with(".rs::") {
            file = Some(format!("{root}.rs"));
            i += 3;
        }
        let mut segments = vec![root];
        let mut names = Vec::new();
        while span[i..].starts_with("::") {
            i += 2;
            if span[i..].starts_with('{') {
                let Some(close) = span[i..].find('}').map(|p| i + p) else { break };
                let group = &span[i + 1..close];
                i = ident_end(close + 1);
                let suffix = &span[close + 1..i];
                names = group
                    .split(',')
                    .map(|g| format!("{}{suffix}", g.trim().rsplit("::").next().unwrap_or("")))
                    .collect();
                break;
            }
            let end = ident_end(i);
            if end == i {
                break;
            }
            segments.push(&span[i..end]);
            i = end;
        }
        if segments.len() == 1 && names.is_empty() {
            continue;
        }
        if names.is_empty() {
            names.push(segments.pop().unwrap_or_default().to_string());
        }
        let parent = segments.last().copied().unwrap_or_default();
        for name in names {
            refs.push(Reference {
                text: span[start..i].to_string(),
                root: root.to_string(),
                file: file.clone(),
                parent: parent.to_string(),
                name,
                prefix: span[i..].starts_with('*'),
            });
        }
    }
    refs
}

fn resolves(r: &Reference, declared: &[Declared]) -> bool {
    let is_type = r.parent.starts_with(|c: char| c.is_ascii_uppercase());
    let matches = |n: &String| if r.prefix { n.starts_with(&r.name) } else { *n == r.name };
    declared.iter().any(|d| {
        r.file.as_ref().is_none_or(|f| *f == d.file)
            && (d.items.iter().any(matches) || is_type && d.members.iter().any(matches))
    })
}

#[test]
fn every_backticked_path_in_the_docs_names_declared_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let declared: Vec<Declared> = files.iter().map(|p| declarations(p)).collect();

    let mut checked = 0;
    let mut dangling = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for r in code_spans(&text).iter().flat_map(|s| references(s)) {
            if EXTERNAL_ROOTS.contains(&r.root.as_str()) {
                continue;
            }
            checked += 1;
            if !resolves(&r, &declared) {
                dangling.push(format!("{doc}: `{}` ({} is declared nowhere)", r.text, r.name));
            }
        }
    }
    assert!(checked >= 100, "the scan found only {checked} references; is it still parsing?");
    assert!(dangling.is_empty(), "docs name code that does not exist:\n{}", dangling.join("\n"));
}

/// The decimal numbers written in `text`: digit runs around a `.`
/// (`5.510`, `98.9`), not part of a word (`SSE4.2`) or a path.
fn decimals(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let glued = i > 0 && (is_ident(char::from(bytes[i - 1])) || bytes[i - 1] == b'.');
        if !bytes[i].is_ascii_digit() || glued {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            i += 1;
        }
        let number = text[start..i].trim_end_matches('.');
        if number.contains('.') {
            out.push(number);
        }
    }
    out
}

/// Where `doc` quotes a number or a line that the artifacts it names do
/// not print. `artifacts` pairs each artifact's file name with its text.
fn misquotes(doc: &str, artifacts: &[(&str, String)]) -> Vec<String> {
    let named = |line: &str| -> Vec<usize> {
        (0..artifacts.len()).filter(|&a| line.contains(artifacts[a].0)).collect()
    };
    let mut found = Vec::new();
    // Artifacts named by the open fence so far, and the artifacts the
    // open fence is an excerpt of.
    let mut fence: Option<(Vec<usize>, Vec<usize>)> = None;
    let mut last_fence_named: Vec<usize> = Vec::new();
    let mut table_named: Option<Vec<usize>> = None;
    for (n, line) in doc.lines().enumerate() {
        let at = |what: String| format!("line {}: {what}", n + 1);
        let fence_line = line.trim_start().starts_with("```");
        if let Some((names, excerpt_of)) = fence.as_mut() {
            if fence_line {
                last_fence_named = std::mem::take(names);
                fence = None;
            } else if excerpt_of.is_empty() {
                names.extend(named(line));
            } else if line.trim() != "..." {
                let printed = |&a: &usize| artifacts[a].1.lines().any(|l| l == line);
                if !excerpt_of.iter().any(printed) {
                    found.push(at(format!("`{line}` is not a line of the artifact it excerpts")));
                }
            }
            continue;
        }
        if fence_line {
            let text = line.trim_start() == "```text";
            let excerpt_of = if text { std::mem::take(&mut last_fence_named) } else { Vec::new() };
            fence = Some((named(line), excerpt_of));
            continue;
        }
        if !line.trim().is_empty() {
            last_fence_named.clear();
        }
        let mut check = named(line);
        if line.trim_start().starts_with('|') {
            let header = table_named.get_or_insert_with(|| check.clone());
            check.extend(header.iter());
        } else {
            table_named = None;
        }
        for number in decimals(line) {
            let printed = |&a: &usize| decimals(&artifacts[a].1).contains(&number);
            if !check.is_empty() && !check.iter().any(printed) {
                let names: Vec<&str> = check.iter().map(|&a| artifacts[a].0).collect();
                found.push(at(format!("{number} is printed by none of {names:?}")));
            }
        }
    }
    found
}

fn committed_artifacts(root: &Path) -> Vec<(&'static str, String)> {
    let read = |name| std::fs::read_to_string(root.join(name)).expect("artifact is readable");
    ARTIFACTS.iter().map(|&name| (name, read(name))).collect()
}

#[test]
fn every_number_the_docs_quote_from_an_artifact_is_in_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let artifacts = committed_artifacts(root);
    let mut found = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        found.extend(misquotes(&text, &artifacts).into_iter().map(|m| format!("{doc}: {m}")));
    }
    assert!(found.is_empty(), "docs quote what no artifact prints:\n{}", found.join("\n"));
}

/// The check sees a re-bless: move one quoted number in the artifact,
/// or one character of a quoted line, and the docs no longer pass.
#[test]
fn a_mutated_artifact_line_fails_the_quote_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs: Vec<String> = DOCS
        .iter()
        .map(|doc| std::fs::read_to_string(root.join(doc)).expect("doc is readable"))
        .collect();
    let count = |artifacts: &[(&str, String)]| -> usize {
        docs.iter().map(|d| misquotes(d, artifacts).len()).sum()
    };
    let mutated = |name: &str, from: &str, to: &str| {
        let mut artifacts = committed_artifacts(root);
        let (_, text) = artifacts.iter_mut().find(|(n, _)| *n == name).expect("an artifact");
        assert!(text.contains(from), "{name} no longer prints `{from}`");
        *text = text.replacen(from, to, 1);
        artifacts
    };
    assert_eq!(count(&committed_artifacts(root)), 0);
    // Fig. 7(b)'s [1] HW row, quoted in README.md and EXPERIMENTS.md.
    assert!(count(&mutated("repro_output.txt", "( 5.510 s)", "( 5.511 s)")) >= 2);
    // The flash occupancy line of README.md's `repro profile` excerpt.
    assert!(count(&mutated("profile_smoke.txt", "occupancy 94.3%", "occupancy 94.4%")) >= 1);
}
