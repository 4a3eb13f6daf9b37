//! C header generation (the paper's Fig. 6 artifact).

use ndp_ir::PeConfig;
use ndp_pe::regs::{offsets, stage_text, RegisterMap, PERF, PERF_STAGE, STAGE};
use std::fmt::Write as _;

/// Render the header-only C library for `cfg`.
///
/// Mirrors the paper's bottom-up generation order: address macros →
/// register accessors → filtering functions → debug printers.
pub fn generate_header(cfg: &PeConfig) -> String {
    let map = RegisterMap::for_config(cfg);
    let pe = cfg.name.to_uppercase();
    let pe_lc = cfg.name.to_lowercase();
    let mut out = String::new();

    let w = &mut out;
    let _ = writeln!(
        w,
        "/* Auto-generated software interface for NDP PE `{}`.\n\
         \x20* Generated by the accelerator generation framework; do not edit.\n\
         \x20* Add this header to the device firmware project to use the PE.\n\
         \x20*/",
        cfg.name
    );
    let _ = writeln!(w, "#ifndef NDP_PE_{pe}_H");
    let _ = writeln!(w, "#define NDP_PE_{pe}_H\n");
    let _ = writeln!(w, "#include <stdint.h>\n#include <stdio.h>\n");

    // --- Register address macros.
    let _ = writeln!(w, "/** Control Register Addresses. */");
    for r in &map.regs {
        let _ = writeln!(
            w,
            "#define {pe}_{name} {off:#04x} /* {doc} */",
            name = r.name(),
            off = r.offset,
            doc = r.doc()
        );
    }
    let _ = writeln!(w, "#define {pe}_STAGES {}", cfg.stages);
    let _ = writeln!(w, "#define {pe}_STAGE_STRIDE {:#x}\n", offsets::STAGE_STRIDE);

    // --- Operator encodings.
    let _ = writeln!(w, "/** Comparator operator encodings. */");
    for op in &cfg.operators {
        let _ = writeln!(w, "#define {pe}_OP_{} {}", op.name.to_uppercase(), op.code);
    }
    let _ = writeln!(w);

    // --- Data types (packed, matching the on-flash layout).
    let _ = writeln!(w, "/** Generated datatypes (packed wire layout). */");
    emit_struct(w, cfg, true);
    emit_struct(w, cfg, false);

    // --- Register accessors, behind the usual HAL override hook: every
    // function below reaches the PE through these two alone.
    let _ = writeln!(
        w,
        "/** Register accessors (BASE is the PE's AXI-Lite window). Define\n\
         \x20* {pe}_REG_ACCESSORS and supply both before including this header\n\
         \x20* to route every access elsewhere (a bus model, a trace). */\n\
         #ifndef {pe}_REG_ACCESSORS\n\
         static inline uint32_t {pe_lc}_reg_read(volatile uint32_t *base, uint32_t off) {{\n\
         \x20   return base[off / 4];\n\
         }}\n\
         static inline void {pe_lc}_reg_write(volatile uint32_t *base, uint32_t off, uint32_t v) {{\n\
         \x20   base[off / 4] = v;\n\
         }}\n\
         #endif\n"
    );

    // --- Filtering functions: `set_filter` writes the stage group's rows.
    let _ = writeln!(
        w,
        "/** Configure one filtering stage. */\n\
         static inline void {pe_lc}_set_filter(volatile uint32_t *base, uint32_t stage,\n\
         \x20                                  uint32_t field, uint32_t op, uint64_t value) {{\n\
         \x20   uint32_t group = {pe}_{} + stage * {pe}_STAGE_STRIDE;",
        stage_text(STAGE[0].0, 0)
    );
    let args = ["field", "op", "(uint32_t)value", "(uint32_t)(value >> 32)"];
    for ((_, off, ..), arg) in STAGE.iter().zip(args) {
        let _ = writeln!(w, "    {pe_lc}_reg_write(base, group + {off:#X}, {arg});");
    }
    let _ = writeln!(
        w,
        "}}\n\
         /** Leave one filtering stage unused: the nop operator passes every tuple. */\n\
         static inline void {pe_lc}_set_nop(volatile uint32_t *base, uint32_t stage) {{\n\
         \x20   {pe_lc}_reg_write(base, {pe}_{} + stage * {pe}_STAGE_STRIDE, {pe}_OP_NOP);\n\
         }}\n",
        stage_text(STAGE[1].0, 0)
    );
    let _ = writeln!(
        w,
        "/** Launch the configured block without waiting (asynchronous). */\n\
         static inline void {pe_lc}_filter_async(volatile uint32_t *base,\n\
         \x20                                    uint64_t src, uint32_t len,\n\
         \x20                                    uint64_t dst, uint32_t capacity) {{\n\
         \x20   {pe_lc}_reg_write(base, {pe}_SRC_ADDR_LO, (uint32_t)src);\n\
         \x20   {pe_lc}_reg_write(base, {pe}_SRC_ADDR_HI, (uint32_t)(src >> 32));\n\
         \x20   {pe_lc}_reg_write(base, {pe}_SRC_LEN, len);\n\
         \x20   {pe_lc}_reg_write(base, {pe}_DST_ADDR_LO, (uint32_t)dst);\n\
         \x20   {pe_lc}_reg_write(base, {pe}_DST_ADDR_HI, (uint32_t)(dst >> 32));\n\
         \x20   {pe_lc}_reg_write(base, {pe}_DST_CAPACITY, capacity);\n\
         \x20   {pe_lc}_reg_write(base, {pe}_START, 1);\n\
         }}\n\
         /** Busy-wait until the PE deasserts BUSY. */\n\
         static inline void {pe_lc}_wait_until_done(volatile uint32_t *base) {{\n\
         \x20   while ({pe_lc}_reg_read(base, {pe}_STATUS) & 0x1) {{ /* spin */ }}\n\
         }}\n\
         /** Synchronous filtering: launch and wait; returns result bytes and\n\
         \x20* stores the count of tuples that passed in *TUPLES_OUT. */\n\
         static inline uint32_t {pe_lc}_filter_sync(volatile uint32_t *base,\n\
         \x20                                       uint64_t src, uint32_t len,\n\
         \x20                                       uint64_t dst, uint32_t capacity,\n\
         \x20                                       uint32_t *tuples_out) {{\n\
         \x20   {pe_lc}_filter_async(base, src, len, dst, capacity);\n\
         \x20   {pe_lc}_wait_until_done(base);\n\
         \x20   uint32_t bytes = {pe_lc}_reg_read(base, {pe}_RESULT_BYTES);\n\
         \x20   *tuples_out = {pe_lc}_reg_read(base, {pe}_TUPLES_OUT);\n\
         \x20   return bytes;\n\
         }}\n"
    );

    // --- Aggregation (extension; present only when requested).
    if !cfg.aggregates.is_empty() {
        let _ = writeln!(w, "/** Aggregation reductions. */");
        for a in &cfg.aggregates {
            let _ = writeln!(w, "#define {pe}_AGGOP_{} {}", a.name().to_uppercase(), a.code());
        }
        let _ = writeln!(
            w,
            "/** Configure the Aggregation Unit (op = 0 disables it). */\n\
             static inline void {pe_lc}_set_aggregate(volatile uint32_t *base,\n\
             \x20                                     uint32_t field, uint32_t op) {{\n\
             \x20   {pe_lc}_reg_write(base, {pe}_AGG_FIELD, field);\n\
             \x20   {pe_lc}_reg_write(base, {pe}_AGG_OP, op);\n\
             }}\n\
             /** Read the 64-bit aggregation accumulator. */\n\
             static inline uint64_t {pe_lc}_read_aggregate(volatile uint32_t *base) {{\n\
             \x20   uint64_t lo = {pe_lc}_reg_read(base, {pe}_AGG_RESULT_LO);\n\
             \x20   uint64_t hi = {pe_lc}_reg_read(base, {pe}_AGG_RESULT_HI);\n\
             \x20   return lo | (hi << 32);\n\
             }}\n"
        );
    }

    // --- Performance counters (always generated: the CNT_* window is
    // part of the register map; stripped bitstreams read it as zeros).
    // A field per counter row (`CNT_IDLE` -> `idle`), an array for the
    // per-stage row.
    let field = |name: &str| name["CNT_".len()..].trim_end_matches("_{s}").to_lowercase();
    let counters = PERF.iter().filter(|r| r.2 == ndp_pe::Access::ReadOnly);
    let (drops, drop_0) = (field(PERF_STAGE[0].0), stage_text(PERF_STAGE[0].0, 0));
    let _ = writeln!(w, "/** Hardware performance-counter snapshot ({pe}_CNT_* window). */");
    let _ = writeln!(w, "typedef struct {{");
    for (name, ..) in counters.clone() {
        let _ = writeln!(w, "    uint32_t {};", field(name));
    }
    let _ = writeln!(
        w,
        "    uint32_t {drops}s[{pe}_STAGES];\n\
         }} {pe_lc}_perf_counters_t;\n\
         /** Read all performance counters in one pass. */\n\
         static inline void {pe_lc}_read_perf_counters(volatile uint32_t *base,\n\
         \x20                                          {pe_lc}_perf_counters_t *c) {{"
    );
    for (name, ..) in counters {
        let _ = writeln!(w, "    c->{} = {pe_lc}_reg_read(base, {pe}_{name});", field(name));
    }
    let _ = writeln!(
        w,
        "    for (uint32_t s = 0; s < {pe}_STAGES; s++)\n\
         \x20       c->{drops}s[s] = {pe_lc}_reg_read(base, {pe}_{drop_0} + 4u * s);\n\
         }}\n\
         /** Clear all performance counters (write-1-to-clear). */\n\
         static inline void {pe_lc}_reset_perf_counters(volatile uint32_t *base) {{\n\
         \x20   {pe_lc}_reg_write(base, {pe}_{}, 1);\n\
         }}\n",
        PERF[0].0
    );

    // --- Debug helpers.
    let _ = writeln!(
        w,
        "/** Print the PE state (for debugging). */\n\
         static inline void {pe_lc}_print_state(volatile uint32_t *base) {{\n\
         \x20   printf(\"{} state: status=%u in=%u out=%u bytes=%u\\n\",\n\
         \x20          {pe_lc}_reg_read(base, {pe}_STATUS),\n\
         \x20          {pe_lc}_reg_read(base, {pe}_TUPLES_IN),\n\
         \x20          {pe_lc}_reg_read(base, {pe}_TUPLES_OUT),\n\
         \x20          {pe_lc}_reg_read(base, {pe}_RESULT_BYTES));\n\
         }}",
        cfg.name
    );
    emit_printer(w, cfg, true);
    emit_printer(w, cfg, false);

    let _ = writeln!(w, "\n#endif /* NDP_PE_{pe}_H */");
    out
}

fn c_struct_name(cfg: &PeConfig, input: bool) -> &str {
    if input {
        &cfg.input.name
    } else {
        &cfg.output.name
    }
}

fn emit_struct(out: &mut String, cfg: &PeConfig, input: bool) {
    let layout = if input { &cfg.input } else { &cfg.output };
    // Input and output may be the same struct; emit once.
    if !input && cfg.output.name == cfg.input.name {
        return;
    }
    let _ = writeln!(out, "typedef struct __attribute__((packed)) {{");
    for f in &layout.fields {
        let cname = f.path.replace('.', "_");
        match f.prim {
            Some(p) => {
                let _ = writeln!(out, "    {} {};", p.c_name(), cname);
            }
            None => {
                let _ = writeln!(out, "    uint8_t {}[{}];", cname, f.width_bits / 8);
            }
        }
    }
    let _ = writeln!(out, "}} {};\n", c_struct_name(cfg, input));
}

fn emit_printer(out: &mut String, cfg: &PeConfig, input: bool) {
    if !input && cfg.output.name == cfg.input.name {
        return;
    }
    let layout = if input { &cfg.input } else { &cfg.output };
    let name = c_struct_name(cfg, input);
    let lc = name.to_lowercase();
    let _ = writeln!(
        out,
        "/** Print one {name} record (for debugging). */\n\
         static inline void print_{lc}(const {name} *r) {{"
    );
    let mut fmt = String::new();
    let mut args = String::new();
    for f in &layout.fields {
        let cname = f.path.replace('.', "_");
        match f.prim {
            Some(p) if p.is_float() => {
                let _ = write!(fmt, " {cname}=%f");
                let _ = write!(args, ", (double)r->{cname}");
            }
            Some(p) if p.is_signed() => {
                let _ = write!(fmt, " {cname}=%lld");
                let _ = write!(args, ", (long long)r->{cname}");
            }
            Some(_) => {
                let _ = write!(fmt, " {cname}=%llu");
                let _ = write!(args, ", (unsigned long long)r->{cname}");
            }
            None => {
                let _ = write!(fmt, " {cname}=<{} bytes>", f.width_bits / 8);
            }
        }
    }
    let _ = writeln!(out, "    printf(\"{name}:{fmt}\\n\"{args});");
    let _ = writeln!(out, "}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::elaborate;
    use ndp_spec::parse;

    const FIG4: &str = "
        /* @autogen define parser Point3DTo2D with
           chunksize = 32, input = Point3D, output = Point2D,
           mapping = { output.x = input.y, output.y = input.z } */
        typedef struct { uint32_t x, y, z; } Point3D;
        typedef struct { uint32_t x, y; } Point2D;
    ";

    fn header(src: &str, name: &str) -> String {
        generate_header(&elaborate(&parse(src).unwrap(), name).unwrap())
    }

    #[test]
    fn header_contains_fig6_elements() {
        let h = header(FIG4, "Point3DTo2D");
        // Fig. 6: register address macros...
        assert!(h.contains("#define POINT3DTO2D_START 0x00"));
        assert!(h.contains("POINT3DTO2D_FILTER_OP_0"));
        assert!(h.contains("POINT3DTO2D_FILTER_COUNTER"));
        // ... generated functions ...
        assert!(h.contains("point3dto2d_filter_sync"));
        assert!(h.contains("point3dto2d_filter_async"));
        assert!(h.contains("point3dto2d_wait_until_done"));
        // ... and debug printers.
        assert!(h.contains("point3dto2d_print_state"));
        assert!(h.contains("print_point3d"));
        assert!(h.contains("print_point2d"));
    }

    #[test]
    fn header_is_include_guarded() {
        let h = header(FIG4, "Point3DTo2D");
        assert!(h.starts_with("/* Auto-generated"));
        assert!(h.contains("#ifndef NDP_PE_POINT3DTO2D_H"));
        assert!(h.trim_end().ends_with("#endif /* NDP_PE_POINT3DTO2D_H */"));
    }

    #[test]
    fn structs_are_packed_and_match_layout() {
        let h = header(FIG4, "Point3DTo2D");
        assert!(h.contains("typedef struct __attribute__((packed))"));
        assert!(h.contains("uint32_t x;"));
        assert!(h.contains("} Point3D;"));
        assert!(h.contains("} Point2D;"));
    }

    #[test]
    fn string_postfix_renders_as_byte_array() {
        let src = "
            /* @autogen define parser P with input = Rec, output = Rec */
            typedef struct {
                uint64_t id;
                /* @string(prefix = 4) */ uint8_t name[20];
            } Rec;
        ";
        let h = header(src, "P");
        assert!(h.contains("uint32_t name_prefix;"));
        assert!(h.contains("uint8_t name_postfix[16];"));
        // Identical input/output: struct emitted exactly once.
        assert_eq!(h.matches("} Rec;").count(), 1);
    }

    #[test]
    fn per_stage_macros_follow_stride() {
        let src = "
            /* @autogen define parser M with input = T, output = T, stages = 3 */
            typedef struct { uint32_t v; } T;
        ";
        let h = header(src, "M");
        assert!(h.contains("#define M_FILTER_FIELD_0 0x30"));
        assert!(h.contains("#define M_FILTER_FIELD_1 0x40"));
        assert!(h.contains("#define M_FILTER_VAL_HI_2 0x5c"));
        assert!(h.contains("#define M_STAGES 3"));
    }

    #[test]
    fn operator_macros_match_config_encodings() {
        let cfg = elaborate(&parse(FIG4).unwrap(), "Point3DTo2D").unwrap();
        let h = generate_header(&cfg);
        for op in &cfg.operators {
            assert!(h.contains(&format!(
                "#define POINT3DTO2D_OP_{} {}",
                op.name.to_uppercase(),
                op.code
            )));
        }
    }

    #[test]
    fn signed_and_float_printers_use_proper_formats() {
        let src = "
            /* @autogen define parser P with input = T, output = T */
            typedef struct { int32_t temp; float ratio; } T;
        ";
        let h = header(src, "P");
        assert!(h.contains("temp=%lld"));
        assert!(h.contains("ratio=%f"));
    }

    #[test]
    fn header_generation_is_deterministic() {
        assert_eq!(header(FIG4, "Point3DTo2D"), header(FIG4, "Point3DTo2D"));
    }

    #[test]
    fn perf_counter_section_matches_snapshot() {
        let src = "
            /* @autogen define parser Probe with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v; uint32_t w; } T;
        ";
        let h = header(src, "Probe");
        // The CNT_* macros come straight from the register map...
        let macros = "\
#define PROBE_CNT_CTRL 0x64 /* Write 1 to clear all performance counters */
#define PROBE_CNT_TUPLES_IN 0x68 /* Perf: tuples parsed since last clear */
#define PROBE_CNT_TUPLES_OUT 0x6c /* Perf: tuples that passed all stages */
#define PROBE_CNT_IN_STALL 0x70 /* Perf: cycles the Load Unit stalled on a full buffer */
#define PROBE_CNT_OUT_STALL 0x74 /* Perf: cycles a tuple waited on the output buffer */
#define PROBE_CNT_ACTIVE 0x78 /* Perf: cycles with pipeline progress */
#define PROBE_CNT_IDLE 0x7c /* Perf: cycles without pipeline progress */
#define PROBE_CNT_LOAD_BEATS 0x80 /* Perf: 64-bit beats loaded from DRAM */
#define PROBE_CNT_STORE_BEATS 0x84 /* Perf: 64-bit beats stored to DRAM */
#define PROBE_CNT_STAGE_DROP_0 0x88 /* Perf: tuples dropped by filtering stage 0 */
#define PROBE_CNT_STAGE_DROP_1 0x8c /* Perf: tuples dropped by filtering stage 1 */
";
        assert!(h.contains(macros), "CNT_* macro block drifted:\n{h}");
        // ... and the accessor section is a stable, self-contained API.
        let snapshot = "\
/** Hardware performance-counter snapshot (PROBE_CNT_* window). */
typedef struct {
    uint32_t tuples_in;
    uint32_t tuples_out;
    uint32_t in_stall;
    uint32_t out_stall;
    uint32_t active;
    uint32_t idle;
    uint32_t load_beats;
    uint32_t store_beats;
    uint32_t stage_drops[PROBE_STAGES];
} probe_perf_counters_t;
/** Read all performance counters in one pass. */
static inline void probe_read_perf_counters(volatile uint32_t *base,
                                           probe_perf_counters_t *c) {
    c->tuples_in = probe_reg_read(base, PROBE_CNT_TUPLES_IN);
    c->tuples_out = probe_reg_read(base, PROBE_CNT_TUPLES_OUT);
    c->in_stall = probe_reg_read(base, PROBE_CNT_IN_STALL);
    c->out_stall = probe_reg_read(base, PROBE_CNT_OUT_STALL);
    c->active = probe_reg_read(base, PROBE_CNT_ACTIVE);
    c->idle = probe_reg_read(base, PROBE_CNT_IDLE);
    c->load_beats = probe_reg_read(base, PROBE_CNT_LOAD_BEATS);
    c->store_beats = probe_reg_read(base, PROBE_CNT_STORE_BEATS);
    for (uint32_t s = 0; s < PROBE_STAGES; s++)
        c->stage_drops[s] = probe_reg_read(base, PROBE_CNT_STAGE_DROP_0 + 4u * s);
}
/** Clear all performance counters (write-1-to-clear). */
static inline void probe_reset_perf_counters(volatile uint32_t *base) {
    probe_reg_write(base, PROBE_CNT_CTRL, 1);
}
";
        assert!(h.contains(snapshot), "perf accessor section drifted:\n{h}");
    }
}
