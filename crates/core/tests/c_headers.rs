//! The committed C headers compile and agree with the Rust side.
//!
//! One C translation unit includes the generated headers of both
//! reference PEs (`ndp_workload::spec::PAPER_REF_SPEC`) and the
//! key-list descriptor, `tests/golden/{paperpe,refpe,key_list}.h`, and
//! `_Static_assert`s every struct size and field offset against
//! `ndp-ir`'s packed layout, and every register and operator macro
//! against the PE's `RegisterMap` and operator set. It must compile
//! with `cc -std=c99 -Wall -Wextra -Werror -fsyntax-only`; the same unit
//! with one assertion made wrong must not, which shows the check can
//! fail. The golden test ties these files to the generator.
//!
//! A compiled harness then configures a job through the headers' own
//! functions on a plain array as the MMIO window and prints the register
//! image it leaves; that image must be what the Rust model holds after
//! `PeDriver` ran the same job. Without a `cc` on the `PATH` both tests
//! print a note and pass.

use ndp_ir::PeConfig;
use ndp_pe::oracle::FilterRule;
use ndp_pe::regs::{offsets, RegDef};
use ndp_pe::{Access, MemBus, Mmio, PeSim};
use ndp_swgen::{DriverProfile, FilterJob, PeDriver};
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
        let _ = writeln!(out, "_Static_assert({upper}_{0} == {1}, \"{0}\");", r.name(), r.offset);
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

/// Compile `source` as `dir/name` with the headers of `include` and the
/// extra `args`; `Err` carries the compiler's diagnostics.
fn compile(
    dir: &Path,
    include: &Path,
    name: &str,
    source: &str,
    args: &[&str],
) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, source).expect("write translation unit");
    let out = Command::new("cc")
        .args(["-std=c99", "-Wall", "-Wextra", "-Werror", "-I"])
        .arg(include)
        .arg("-I")
        .arg(dir)
        .args(args)
        .arg(&path)
        .output()
        .expect("run cc");
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).into_owned())
    }
}

/// A scratch directory under the test target's, or `None` (with a note)
/// when there is no `cc` to use it with.
fn cc_dir(name: &str) -> Option<PathBuf> {
    if Command::new("cc").arg("--version").output().is_err() {
        eprintln!("note: no `cc` on the PATH; the generated C headers were not compiled");
        return None;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Some(dir)
}

#[test]
fn generated_headers_compile_and_match_the_rust_layout() {
    let Some(dir) = cc_dir("c_headers") else { return };
    let arts = ndp_core::generate(ndp_workload::spec::PAPER_REF_SPEC).expect("reference spec");
    let mut unit = String::from("#include <stddef.h>\n#include <stdint.h>\n");
    for name in [ndp_workload::spec::PAPER_PE, ndp_workload::spec::REF_PE] {
        pe_asserts(arts.pe(name).expect("reference PE generated"), &mut unit);
    }
    key_list_asserts(&mut unit);

    let syntax = ["-fsyntax-only"];
    if let Err(diagnostics) = compile(&dir, &golden_dir(), "headers.c", &unit, &syntax) {
        panic!("the generated headers disagree with the Rust layout:\n{diagnostics}");
    }

    // One assertion off by one: the unit must stop compiling, on it.
    let size = arts.pe(ndp_workload::spec::REF_PE).expect("RefPe").config.input.tuple_bytes();
    let right = format!("sizeof(Ref) == {size},");
    let wrong = unit.replacen(&right, &format!("sizeof(Ref) == {},", size + 1), 1);
    assert_ne!(wrong, unit, "the unit asserts `{right}`");
    match compile(&dir, &golden_dir(), "wrong.c", &wrong, &syntax) {
        Ok(()) => panic!("a unit asserting a wrong sizeof(Ref) compiled"),
        Err(diagnostics) => assert!(diagnostics.contains("sizeof Ref"), "{diagnostics}"),
    }
}

/// A memory that reads zeros and drops writes: the harness compares
/// registers, not data.
struct Zeros;

impl MemBus for Zeros {
    fn read_bytes(&mut self, _: u64, buf: &mut [u8]) {
        buf.fill(0);
    }

    fn write_bytes(&mut self, _: u64, _: &[u8]) {}
}

/// A three-stage PE with an Aggregation Unit, beside the two references.
const AGG_SPEC: &str = "
    /* @autogen define parser Sensor with input = Reading, output = Reading,
       stages = 3, aggregate = { sum, max } */
    typedef struct { uint64_t ts; uint32_t temp; uint32_t hum; } Reading;
";

/// The job both sides configure on `cfg`'s PE: a rule on every stage but
/// the last of a multi-stage PE (which stays `nop`), with both halves of
/// every value and address set, and the PE's first reduction.
fn harness_job(cfg: &PeConfig) -> FilterJob {
    let ge = cfg.op_code("ge").expect("ge");
    let lanes = cfg.input.lanes;
    FilterJob {
        src: 0x1_2345_6780,
        len: 4000,
        dst: 0x2_0000_0040,
        capacity: 8192,
        rules: (0..cfg.stages.max(2) - 1)
            .map(|s| FilterRule {
                lane: s % lanes,
                op_code: ge,
                value: 0x0123_4567_89AB_CDEF + u64::from(s),
            })
            .collect(),
        aggregate: cfg.aggregates.first().map(|&op| (op, 1 % lanes)),
    }
}

/// The C program that runs `job` through `pe`'s header on a zeroed
/// window and prints every read-write row but `START` as `NAME=value`.
fn harness(pe: &ndp_core::GeneratedPe, job: &FilterJob) -> String {
    let (upper, lower) = (pe.config.name.to_uppercase(), pe.config.name.to_lowercase());
    let words = pe.register_map.regs.iter().map(|r| r.offset / 4 + 1).max().expect("registers");
    let mut c = format!(
        "#include \"{}.h\"\nint main(void) {{\n    uint32_t win[{words}] = {{0}};\n",
        pe.file_stem()
    );
    for (s, r) in job.rules.iter().enumerate() {
        let (lane, op, value) = (r.lane, r.op_code, r.value);
        let _ = writeln!(c, "    {lower}_set_filter(win, {s}, {lane}, {op}, {value:#x}ull);");
    }
    if let Some((op, lane)) = job.aggregate {
        let _ = writeln!(c, "    {lower}_set_aggregate(win, {lane}, {});", op.code());
    }
    let _ = writeln!(
        c,
        "    (void){lower}_filter_sync(win, {:#x}ull, {}, {:#x}ull, {});",
        job.src, job.len, job.dst, job.capacity
    );
    for name in read_write_rows(pe).map(RegDef::name) {
        let _ = writeln!(c, "    printf(\"{name}=%u\\n\", (unsigned)win[{upper}_{name} / 4]);");
    }
    c + "    return 0;\n}\n"
}

/// Every read-write row of `pe`'s map but the `START` strobe.
fn read_write_rows(pe: &ndp_core::GeneratedPe) -> impl Iterator<Item = &RegDef> {
    let rw = pe.register_map.regs.iter().filter(|r| r.access == Access::ReadWrite);
    rw.filter(|r| r.offset != offsets::START)
}

/// Compile `source` against the headers and run it; its stdout.
fn run_harness(dir: &Path, name: &str, source: &str) -> String {
    let exe = dir.join(name);
    let out = ["-o", exe.to_str().expect("utf-8 path")];
    if let Err(diagnostics) = compile(dir, &golden_dir(), &format!("{name}.c"), source, &out) {
        panic!("the harness `{name}` does not compile:\n{diagnostics}");
    }
    let run = Command::new(&exe).output().expect("run harness");
    assert!(run.status.success(), "harness `{name}` failed");
    String::from_utf8(run.stdout).expect("utf-8 output")
}

#[test]
fn a_compiled_c_harness_leaves_the_register_image_the_rust_model_holds() {
    let Some(dir) = cc_dir("c_harness") else { return };
    let refs = ndp_core::generate(ndp_workload::spec::PAPER_REF_SPEC).expect("reference spec");
    let agg = ndp_core::generate(AGG_SPEC).expect("aggregating spec");
    // The references' headers are the committed goldens; this one is
    // written next to the harness.
    let sensor = &agg.pes[0];
    std::fs::write(dir.join(format!("{}.h", sensor.file_stem())), &sensor.c_header)
        .expect("write header");
    let reference = |name| refs.pe(name).expect("reference PE generated");
    let (paper, r#ref) = (ndp_workload::spec::PAPER_PE, ndp_workload::spec::REF_PE);
    for pe in [reference(paper), reference(r#ref), sensor] {
        let job = harness_job(&pe.config);
        let mut drv = PeDriver::new(PeSim::new(pe.config.clone()), DriverProfile::Generated);
        drv.filter_sync(&mut Zeros, &job);
        let mut rust = String::new();
        for r in read_write_rows(pe) {
            let _ = writeln!(rust, "{}={}", r.name(), drv.device().mmio_read(r.offset));
        }
        let stem = pe.file_stem();
        assert_eq!(run_harness(&dir, &stem, &harness(pe, &job)), rust, "{stem}");

        // One rule value changed on the C side only: the images differ
        // in exactly that row.
        let mut wrong = job.clone();
        wrong.rules[0].value += 1;
        let got = run_harness(&dir, &format!("{stem}_wrong"), &harness(pe, &wrong));
        let differ: Vec<&str> =
            got.lines().zip(rust.lines()).filter(|(c, r)| c != r).map(|(c, _)| c).collect();
        assert_eq!(differ.len(), 1, "{stem}: {differ:?}");
        assert!(differ[0].starts_with("FILTER_VAL_LO_0="), "{stem}: {differ:?}");
    }
}
