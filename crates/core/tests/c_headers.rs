//! The committed C headers compile and agree with the Rust layout.
//!
//! One C translation unit includes the generated headers of both
//! reference PEs (`ndp_workload::spec::PAPER_REF_SPEC`) and the
//! key-list descriptor, `tests/golden/{paperpe,refpe,key_list}.h`, and
//! `_Static_assert`s every struct size and field offset against
//! `ndp-ir`'s packed layout, and every register and operator macro
//! against the PE's `RegisterMap` and operator set. It must compile
//! with `cc -std=c99 -Wall -Wextra -Werror -fsyntax-only`; the same unit
//! with one assertion made wrong must not, which shows the check can
//! fail. The golden test ties these files to the generator. Without a
//! `cc` on the `PATH` the test prints a note and passes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The assertions tying one PE's header to its configuration.
fn pe_asserts(pe: &ndp_core::GeneratedPe, out: &mut String) {
    let cfg = &pe.config;
    let upper = cfg.name.to_uppercase();
    let _ = writeln!(out, "#include \"{}.h\"", pe.file_stem());
    // A PE whose output is its input type emits the struct once.
    let output = (cfg.output.name != cfg.input.name).then_some(&cfg.output);
    for layout in std::iter::once(&cfg.input).chain(output) {
        let ty = &layout.name;
        let size = layout.tuple_bytes();
        let _ = writeln!(out, "_Static_assert(sizeof({ty}) == {size}, \"sizeof {ty}\");");
        for f in &layout.fields {
            assert_eq!(f.offset_bits % 8, 0, "{ty}.{} is not byte-aligned", f.path);
            let (field, at) = (f.path.replace('.', "_"), f.offset_bits / 8);
            let _ =
                writeln!(out, "_Static_assert(offsetof({ty}, {field}) == {at}, \"{ty}.{field}\");");
        }
    }
    for r in &pe.register_map.regs {
        let _ = writeln!(out, "_Static_assert({upper}_{0} == {1}, \"{0}\");", r.name, r.offset);
    }
    for op in &cfg.operators {
        let name = op.name.to_uppercase();
        let _ = writeln!(out, "_Static_assert({upper}_OP_{name} == {}, \"OP_{name}\");", op.code);
    }
    let _ = writeln!(out, "_Static_assert({upper}_STAGES == {}, \"STAGES\");", cfg.stages);
    let stride = ndp_pe::regs::offsets::STAGE_STRIDE;
    let _ = writeln!(out, "_Static_assert({upper}_STAGE_STRIDE == {stride}, \"STAGE_STRIDE\");");
}

/// The assertions tying `key_list.h` to `cosmos_sim::KeyListDescriptor`:
/// the header is what a one-key descriptor's DMA carries besides its key,
/// and a full list fills the page exactly.
fn key_list_asserts(out: &mut String) {
    let one = cosmos_sim::KeyListDescriptor::new(&[1]).expect("one key");
    let header = one.dma_bytes() - 8;
    let max = cosmos_sim::KeyListDescriptor::MAX_KEYS;
    let page = header + 8 * max;
    let _ = write!(
        out,
        "#include \"key_list.h\"\n\
         _Static_assert(sizeof(struct nkl_key_list) == {header}, \"sizeof nkl_key_list\");\n\
         _Static_assert(offsetof(struct nkl_key_list, key) == {header}, \"key\");\n\
         _Static_assert(NKL_MAX_KEYS == {max}, \"NKL_MAX_KEYS\");\n\
         _Static_assert(NKL_PAGE_BYTES == {page}, \"NKL_PAGE_BYTES\");\n"
    );
    // The wire offsets `KeyListDescriptor`'s encoder writes.
    for (field, at) in [("magic", 0), ("n_keys", 4), ("flags", 6), ("reserved", 8)] {
        let _ = writeln!(
            out,
            "_Static_assert(offsetof(struct nkl_key_list, {field}) == {at}, \"{field}\");"
        );
    }
    let _ = writeln!(out, "_Static_assert(NKL_MAGIC == 0x4E4B4C31u, \"NKL_MAGIC\");");
}

/// Compile `source` as `dir/name` with the headers of `include`;
/// `Err` carries the compiler's diagnostics.
fn compile(dir: &Path, include: &Path, name: &str, source: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, source).expect("write translation unit");
    let out = Command::new("cc")
        .args(["-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-I"])
        .arg(include)
        .arg(&path)
        .output()
        .expect("run cc");
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).into_owned())
    }
}

#[test]
fn generated_headers_compile_and_match_the_rust_layout() {
    if Command::new("cc").arg("--version").output().is_err() {
        eprintln!("note: no `cc` on the PATH; the generated C headers were not compiled");
        return;
    }
    let arts = ndp_core::generate(ndp_workload::spec::PAPER_REF_SPEC).expect("reference spec");
    let mut unit = String::from("#include <stddef.h>\n#include <stdint.h>\n");
    for name in [ndp_workload::spec::PAPER_PE, ndp_workload::spec::REF_PE] {
        pe_asserts(arts.pe(name).expect("reference PE generated"), &mut unit);
    }
    key_list_asserts(&mut unit);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("c_headers");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    if let Err(diagnostics) = compile(&dir, &golden_dir(), "headers.c", &unit) {
        panic!("the generated headers disagree with the Rust layout:\n{diagnostics}");
    }

    // One assertion off by one: the unit must stop compiling, on it.
    let size = arts.pe(ndp_workload::spec::REF_PE).expect("RefPe").config.input.tuple_bytes();
    let right = format!("sizeof(Ref) == {size},");
    let wrong = unit.replacen(&right, &format!("sizeof(Ref) == {},", size + 1), 1);
    assert_ne!(wrong, unit, "the unit asserts `{right}`");
    match compile(&dir, &golden_dir(), "wrong.c", &wrong) {
        Ok(()) => panic!("a unit asserting a wrong sizeof(Ref) compiled"),
        Err(diagnostics) => assert!(diagnostics.contains("sizeof Ref"), "{diagnostics}"),
    }
}
