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
//! A co-simulation then runs each header's own functions, compiled into
//! a firmware whose register accessors go through the header's override
//! hook to this process, against the PE model: the header is the
//! register protocol, and `PeDriver` must replay it access for access.
//! Without a `cc` on the `PATH` both tests print a note and pass.

use cosmos_sim::timing::{cfg_overhead_ns, PL_CLK_NS};
use ndp_ir::PeConfig;
use ndp_pe::oracle::{AggAccumulator, BlockProcessor, FilterRule, OpTable};
use ndp_pe::regs::offsets;
use ndp_pe::{Access, BlockResult, MemBus, Mmio, PeDevice, PeSim, VecMem};
use ndp_swgen::{job_io, DriverProfile, FilterJob, PeDriver, PeInvoke};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

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

/// A three-stage PE with an Aggregation Unit, beside the two references.
const AGG_SPEC: &str = "
    /* @autogen define parser Sensor with input = Reading, output = Reading,
       stages = 3, aggregate = { sum, max } */
    typedef struct { uint64_t ts; uint32_t temp; uint32_t hum; } Reading;
";

/// Where the co-simulated blocks live: above 4 GiB, so every address has
/// a high half. Block `k`'s source is at `BASE + 0x40 + 0x2000 × k`, its
/// result at `DST + 0x8000 × k`.
const BASE: u64 = 1 << 32;
const DST: u64 = BASE + 0x1_0000;
const MEM_BYTES: usize = (BASE + 0x2_0000) as usize;

/// Firmware lines past which the co-simulation stops the firmware.
const MAX_LINES: usize = 1 << 16;

/// The two blocks the firmware runs on `cfg`'s PE, cold then warm, with
/// their source bytes: a rule on every stage but the last of a
/// multi-stage PE (which stays `nop`), each `lane >= ` a tuple's value,
/// and the PE's first reduction.
fn cosim_jobs(cfg: &PeConfig) -> Vec<(FilterJob, Vec<u8>)> {
    let bp = BlockProcessor::new(cfg);
    let mut rng = ndp_workload::SplitMix64::new(42);
    let mut block = |len: usize| (0..len).map(|_| rng.next_u32() as u8).collect::<Vec<u8>>();
    let (cold, warm) = (block(4000), block(2500 + 3));
    let ts = bp.in_tuple_bytes();
    let ge = cfg.op_code("ge").expect("ge");
    let lanes = bp.lanes() as u32;
    let rules: Vec<FilterRule> = (0..cfg.stages.max(2) - 1)
        .map(|s| {
            let tuple = &cold[s as usize * ts..][..ts];
            let value = bp.lane_value(tuple, s % lanes).expect("lane");
            FilterRule { lane: s % lanes, op_code: ge, value }
        })
        .collect();
    let aggregate = cfg.aggregates.first().map(|&op| (op, 1 % lanes));
    [cold, warm]
        .into_iter()
        .enumerate()
        .map(|(k, bytes)| {
            let job = FilterJob {
                src: BASE + 0x40 + 0x2000 * k as u64,
                len: bytes.len() as u32,
                dst: DST + 0x8000 * k as u64,
                capacity: 0x8000,
                rules: rules.clone(),
                aggregate,
            };
            (job, bytes)
        })
        .collect()
}

/// The firmware: the header's accessors hooked to print `W off val` or
/// `R off` and read each read's reply on stdin; `jobs` run through the
/// header's own functions, each block's results printed as `E bytes
/// tuples_out aggregate`; then the perf counters as `P` and every count,
/// before and after `reset_perf_counters`.
fn firmware(pe: &ndp_core::GeneratedPe, jobs: &[(FilterJob, Vec<u8>)]) -> String {
    let (upper, lower) = (pe.config.name.to_uppercase(), pe.config.name.to_lowercase());
    let mut c = format!(
        "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n\
         #define {upper}_REG_ACCESSORS\n\
         static uint32_t {lower}_reg_read(volatile uint32_t *base, uint32_t off) {{\n\
         \x20   unsigned v;\n    (void)base;\n\
         \x20   printf(\"R %u\\n\", (unsigned)off);\n    fflush(stdout);\n\
         \x20   if (scanf(\"%u\", &v) != 1) exit(3);\n    return v;\n}}\n\
         static void {lower}_reg_write(volatile uint32_t *base, uint32_t off, uint32_t v) {{\n\
         \x20   (void)base;\n    printf(\"W %u %u\\n\", (unsigned)off, (unsigned)v);\n}}\n\
         #include \"{}.h\"\n\
         int main(void) {{\n    volatile uint32_t *pe = 0;\n    uint32_t bytes, out;\n",
        pe.file_stem()
    );
    let first = &jobs[0].0;
    for s in 0..pe.config.stages as usize {
        match first.rules.get(s) {
            Some(r) => {
                let (lane, op, value) = (r.lane, r.op_code, r.value);
                let _ =
                    writeln!(c, "    {lower}_set_filter(pe, {s}, {lane}, {op}, {value:#x}ull);");
            }
            None => {
                let _ = writeln!(c, "    {lower}_set_nop(pe, {s});");
            }
        }
    }
    if let Some((op, lane)) = first.aggregate {
        let _ = writeln!(c, "    {lower}_set_aggregate(pe, {lane}, {});", op.code());
    }
    let aggregate = match first.aggregate {
        Some(_) => format!("{lower}_read_aggregate(pe)"),
        None => "0".into(),
    };
    for (job, _) in jobs {
        let _ = writeln!(
            c,
            "    bytes = {lower}_filter_sync(pe, {:#x}ull, {}, {:#x}ull, {}, &out);\n\
             \x20   printf(\"E %u %u %llu\\n\", (unsigned)bytes, (unsigned)out,\n\
             \x20          (unsigned long long){aggregate});",
            job.src, job.len, job.dst, job.capacity
        );
    }
    let counters = PERF_FIELDS.iter().map(|f| format!("c.{f}"));
    let drops = (0..pe.config.stages).map(|s| format!("c.stage_drops[{s}]"));
    let fields: Vec<String> = counters.chain(drops).collect();
    let mut perf = format!("    {lower}_read_perf_counters(pe, &c);\n    printf(\"P");
    perf += &" %u".repeat(fields.len());
    perf += "\\n\"";
    for f in &fields {
        let _ = write!(perf, ", (unsigned){f}");
    }
    let reset = format!("    {lower}_reset_perf_counters(pe);\n");
    format!("{c}    {lower}_perf_counters_t c;\n{perf});\n{reset}{perf});\n    return 0;\n}}\n")
}

/// The header's perf-counter fields, in `PerfCounters` order.
const PERF_FIELDS: [&str; 8] = [
    "tuples_in",
    "tuples_out",
    "in_stall",
    "out_stall",
    "active",
    "idle",
    "load_beats",
    "store_beats",
];

/// `PeSim` as the firmware's bus sees it, on a virtual clock: each access
/// takes the time the platform prices it at, and a `START` runs the
/// block, which then takes its cycles at the PL clock. Until they have
/// passed, `STATUS` reads BUSY and every read-only row reads 0.
struct Server {
    pe: PeSim,
    mem: VecMem,
    status: u32,
    read_only: Vec<u32>,
    clock: u64,
    done_at: u64,
    /// Every block's result, in `START` order.
    blocks: Vec<BlockResult>,
}

impl Server {
    fn write(&mut self, off: u32, val: u32) {
        self.clock += cfg_overhead_ns(1, 0);
        self.pe.mmio_write(off, val);
        if off == offsets::START && val & 1 == 1 {
            let block = self.pe.execute(&mut self.mem);
            self.done_at = self.clock + block.cycles * PL_CLK_NS;
            self.blocks.push(block);
        }
    }

    fn read(&mut self, off: u32) -> u32 {
        self.clock += cfg_overhead_ns(0, 1);
        match off {
            _ if self.clock >= self.done_at => self.pe.mmio_read(off),
            _ if off == self.status => 1,
            _ if self.read_only.contains(&off) => 0,
            _ => self.pe.mmio_read(off),
        }
    }
}

/// A firmware process that is killed and waited for however the test
/// leaves it.
struct Firmware(Child);

impl Drop for Firmware {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run the firmware `exe` against `server`, serving each access; every
/// line the firmware printed.
fn serve(exe: &Path, server: &mut Server) -> Vec<String> {
    let spawned = Command::new(exe).stdin(Stdio::piped()).stdout(Stdio::piped()).spawn();
    let mut fw = Firmware(spawned.expect("start the firmware"));
    let mut stdin = fw.0.stdin.take().expect("firmware stdin");
    let stdout = BufReader::new(fw.0.stdout.take().expect("firmware stdout"));
    let mut lines = Vec::new();
    for line in stdout.lines() {
        let line = line.expect("firmware output");
        let num =
            |w: &str| w.parse::<u32>().unwrap_or_else(|_| panic!("firmware printed `{line}`"));
        match line.split(' ').collect::<Vec<_>>()[..] {
            ["W", off, val] => server.write(num(off), num(val)),
            ["R", off] => {
                let v = server.read(num(off));
                writeln!(stdin, "{v}").and_then(|()| stdin.flush()).expect("reply to firmware");
            }
            _ => {}
        }
        lines.push(line);
        assert!(lines.len() <= MAX_LINES, "the firmware made more than {MAX_LINES} accesses");
    }
    assert!(fw.0.wait().expect("wait for the firmware").success(), "the firmware failed");
    lines
}

/// `PeSim` behind a log of every access, in the firmware's line format.
struct Logged {
    pe: PeSim,
    log: Vec<String>,
}

impl Mmio for Logged {
    fn mmio_read(&mut self, off: u32) -> u32 {
        self.log.push(format!("R {off}"));
        self.pe.mmio_read(off)
    }

    fn mmio_write(&mut self, off: u32, val: u32) {
        self.log.push(format!("W {off} {val}"));
        self.pe.mmio_write(off, val);
    }
}

impl PeDevice for Logged {
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        self.pe.execute(mem)
    }

    fn stages(&self) -> u32 {
        self.pe.stages()
    }
}

/// What the oracle makes of one job: `(tuples out, output bytes,
/// aggregate)`.
fn oracle(cfg: &PeConfig, job: &FilterJob, bytes: &[u8]) -> (u32, Vec<u8>, u64) {
    let (bp, ops) = (BlockProcessor::new(cfg), OpTable::from_config(cfg));
    let mut out = Vec::new();
    let stats = bp.process_block(bytes, &job.rules, &ops, &mut out);
    let acc = job.aggregate.map_or(0, |(op, lane)| {
        let mut acc = AggAccumulator::new(&bp, op, lane).expect("aggregate lane");
        for t in bytes.chunks_exact(bp.in_tuple_bytes()) {
            if bp.tuple_passes(t, &job.rules, &ops) {
                acc.update(bp.lane_value(t, lane).expect("lane"));
            }
        }
        acc.value()
    });
    (stats.tuples_out, out, acc)
}

/// The bytes `[at, at + len)` of `mem`.
fn read(mem: &mut VecMem, at: u64, len: u32) -> Vec<u8> {
    let mut buf = vec![0; len as usize];
    mem.read_bytes(at, &mut buf);
    buf
}

/// Compile the firmware `name` and co-simulate it on `pe`: each block's
/// results against `PeSim` and the oracle, its accesses against the
/// twin's for the same job and `job_io`'s counts, the perf readback
/// against `PeSim::perf`.
fn cosimulate(dir: &Path, pe: &ndp_core::GeneratedPe) {
    let (cfg, stem) = (&pe.config, pe.file_stem());
    let jobs = cosim_jobs(cfg);
    let exe = dir.join(&stem);
    let args = ["-o", exe.to_str().expect("utf-8 path")];
    let source = firmware(pe, &jobs);
    if let Err(diagnostics) = compile(dir, &golden_dir(), &format!("{stem}.c"), &source, &args) {
        panic!("the firmware `{stem}` does not compile:\n{diagnostics}");
    }
    let regs = &pe.register_map.regs;
    let status = regs.iter().find(|r| r.name() == "STATUS").expect("STATUS").offset;
    let read_only = regs.iter().filter(|r| r.access == Access::ReadOnly).map(|r| r.offset);
    let mut server = Server {
        pe: PeSim::new(cfg.clone()),
        mem: VecMem::new(MEM_BYTES),
        status,
        read_only: read_only.collect(),
        clock: 0,
        done_at: 0,
        blocks: Vec::new(),
    };
    let twin_pe = Logged { pe: PeSim::new(cfg.clone()), log: Vec::new() };
    let mut twin = PeDriver::new(twin_pe, DriverProfile::Generated);
    let mut twin_mem = VecMem::new(MEM_BYTES);
    for (job, bytes) in &jobs {
        server.mem.write_bytes(job.src, bytes);
        twin_mem.write_bytes(job.src, bytes);
    }
    let lines = serve(&exe, &mut server);

    // The firmware's lines, cut after each block's `E` line.
    let mut blocks = lines.split_inclusive(|l| l.starts_with("E "));
    let poll = format!("R {status}");
    for (k, (job, bytes)) in jobs.iter().enumerate() {
        let block = blocks.next().unwrap_or_else(|| panic!("{stem}: block {k} missing"));
        let (end, accesses) = block.split_last().expect("an `E` line");
        let nums: Vec<u64> = end.split(' ').skip(1).map(|w| w.parse().expect("E")).collect();
        let polls = accesses.iter().filter(|&a| *a == poll).count();
        let accesses: Vec<&String> = accesses.iter().filter(|&a| *a != poll).collect();

        let res = twin.filter_sync(&mut twin_mem, job);
        let ran = server.blocks.get(k).unwrap_or_else(|| panic!("{stem}: block {k} never ran"));
        let (tuples_out, out, aggregate) = oracle(cfg, job, bytes);
        let printed = [res.result_bytes.into(), res.tuples_out.into(), res.aggregate.unwrap_or(0)];
        assert_eq!(nums, printed, "{stem}: block {k}: the firmware's results");
        assert_eq!((ran.result_bytes, ran.tuples_out), (out.len() as u32, tuples_out), "{stem}");
        assert_eq!((res.tuples_out, aggregate), (tuples_out, printed[2]), "{stem}: block {k}");
        assert!(0 < tuples_out && tuples_out < ran.tuples_in, "{stem}: block {k} filters");
        assert_eq!(read(&mut server.mem, job.dst, ran.result_bytes), out, "{stem}: block {k}");
        assert_eq!(read(&mut twin_mem, job.dst, res.result_bytes), out, "{stem}: block {k}");

        let log = std::mem::take(&mut twin.device().log);
        assert_eq!(accesses, log.iter().collect::<Vec<_>>(), "{stem}: block {k}'s accesses");
        let invoke = if k == 0 { PeInvoke::Cold } else { PeInvoke::Warm };
        let agg = job.aggregate.is_some();
        let io = job_io(DriverProfile::Generated, cfg.stages, job.rules.len(), invoke, agg);
        let writes = log.iter().filter(|a| a.starts_with('W')).count() as u64;
        assert_eq!((writes, log.len() as u64 - writes), (io.reg_writes, io.reg_reads), "{stem}");
        println!("{stem}: {invoke:?} block: {polls} STATUS polls over {} PE cycles", ran.cycles);
    }

    // The server's model is cleared by now; the twin's ran the same
    // blocks through the same accesses.
    let tail = blocks.next().expect("the perf readback after the blocks");
    let parse = |l: &String| l.split(' ').skip(1).map(|w| w.parse().expect("P")).collect();
    let got: Vec<Vec<u64>> = tail.iter().filter(|l| l.starts_with("P ")).map(parse).collect();
    let p = twin.device().pe.perf();
    let counters = [p.tuples_in, p.tuples_out, p.in_stall, p.out_stall, p.active, p.idle];
    let beats = [p.load_beats, p.store_beats];
    let want = counters.into_iter().chain(beats).chain(p.stage_drops.iter().copied());
    let want: Vec<u64> = want.map(|v| u64::from(v as u32)).collect();
    let cleared = vec![0; want.len()];
    assert_eq!(got, [want, cleared], "{stem}: read_perf_counters against PeSim::perf, then reset");
}

#[test]
fn the_compiled_header_cosimulated_against_pesim_is_the_twins_protocol() {
    let Some(dir) = cc_dir("c_cosim") else { return };
    let refs = ndp_core::generate(ndp_workload::spec::PAPER_REF_SPEC).expect("reference spec");
    let agg = ndp_core::generate(AGG_SPEC).expect("aggregating spec");
    // The references' headers are the committed goldens; this one is
    // written next to the firmware.
    let sensor = &agg.pes[0];
    std::fs::write(dir.join(format!("{}.h", sensor.file_stem())), &sensor.c_header)
        .expect("write header");
    let reference = |name| refs.pe(name).expect("reference PE generated");
    let (paper, r#ref) = (ndp_workload::spec::PAPER_PE, ndp_workload::spec::REF_PE);
    for pe in [reference(paper), reference(r#ref), sensor] {
        cosimulate(&dir, pe);
    }
}
