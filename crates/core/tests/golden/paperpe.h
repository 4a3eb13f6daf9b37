/* Auto-generated software interface for NDP PE `PaperPe`.
 * Generated by the accelerator generation framework; do not edit.
 * Add this header to the device firmware project to use the PE.
 */
#ifndef NDP_PE_PAPERPE_H
#define NDP_PE_PAPERPE_H

#include <stdint.h>
#include <stdio.h>

/** Control Register Addresses. */
#define PAPERPE_START 0x00 /* Write 1 to start processing the configured block */
#define PAPERPE_STATUS 0x04 /* Bit 0: BUSY, bit 1: DONE */
#define PAPERPE_SRC_ADDR_LO 0x08 /* Source address in PS-DRAM, low 32 bit */
#define PAPERPE_SRC_ADDR_HI 0x0c /* Source address in PS-DRAM, high 32 bit */
#define PAPERPE_SRC_LEN 0x10 /* Bytes to load (partial blocks supported by this work) */
#define PAPERPE_DST_ADDR_LO 0x14 /* Destination address in PS-DRAM, low 32 bit */
#define PAPERPE_DST_ADDR_HI 0x18 /* Destination address in PS-DRAM, high 32 bit */
#define PAPERPE_DST_CAPACITY 0x1c /* Result buffer capacity in bytes */
#define PAPERPE_RESULT_BYTES 0x20 /* Bytes of result written back */
#define PAPERPE_TUPLES_IN 0x24 /* Tuples parsed from the input stream */
#define PAPERPE_TUPLES_OUT 0x28 /* Tuples that passed all filter stages */
#define PAPERPE_VERSION 0x2c /* Template generation version */
#define PAPERPE_FILTER_FIELD_0 0x30 /* Stage 0: comparator lane select */
#define PAPERPE_FILTER_OP_0 0x34 /* Stage 0: operator code (0 = nop) */
#define PAPERPE_FILTER_VAL_LO_0 0x38 /* Stage 0: reference value, low 32 bit */
#define PAPERPE_FILTER_VAL_HI_0 0x3c /* Stage 0: reference value, high 32 bit */
#define PAPERPE_FILTER_COUNTER 0x40 /* Tuples that passed the final filtering stage */
#define PAPERPE_CNT_CTRL 0x54 /* Write 1 to clear all performance counters */
#define PAPERPE_CNT_TUPLES_IN 0x58 /* Perf: tuples parsed since last clear */
#define PAPERPE_CNT_TUPLES_OUT 0x5c /* Perf: tuples that passed all stages */
#define PAPERPE_CNT_IN_STALL 0x60 /* Perf: cycles the Load Unit stalled on a full buffer */
#define PAPERPE_CNT_OUT_STALL 0x64 /* Perf: cycles a tuple waited on the output buffer */
#define PAPERPE_CNT_ACTIVE 0x68 /* Perf: cycles with pipeline progress */
#define PAPERPE_CNT_IDLE 0x6c /* Perf: cycles without pipeline progress */
#define PAPERPE_CNT_LOAD_BEATS 0x70 /* Perf: 64-bit beats loaded from DRAM */
#define PAPERPE_CNT_STORE_BEATS 0x74 /* Perf: 64-bit beats stored to DRAM */
#define PAPERPE_CNT_STAGE_DROP_0 0x78 /* Perf: tuples dropped by filtering stage 0 */
#define PAPERPE_STAGES 1
#define PAPERPE_STAGE_STRIDE 0x10

/** Comparator operator encodings. */
#define PAPERPE_OP_NOP 0
#define PAPERPE_OP_NE 1
#define PAPERPE_OP_EQ 2
#define PAPERPE_OP_GT 3
#define PAPERPE_OP_GE 4
#define PAPERPE_OP_LT 5
#define PAPERPE_OP_LE 6

/** Generated datatypes (packed wire layout). */
typedef struct __attribute__((packed)) {
    uint64_t id;
    uint32_t year;
    uint32_t venue;
    uint32_t n_cits;
    uint32_t n_refs;
    uint64_t title_prefix;
    uint8_t title_postfix[48];
} Paper;

/** Register accessors (BASE is the PE's AXI-Lite window). Define
 * PAPERPE_REG_ACCESSORS and supply both before including this header
 * to route every access elsewhere (a bus model, a trace). */
#ifndef PAPERPE_REG_ACCESSORS
static inline uint32_t paperpe_reg_read(volatile uint32_t *base, uint32_t off) {
    return base[off / 4];
}
static inline void paperpe_reg_write(volatile uint32_t *base, uint32_t off, uint32_t v) {
    base[off / 4] = v;
}
#endif

/** Configure one filtering stage. */
static inline void paperpe_set_filter(volatile uint32_t *base, uint32_t stage,
                                   uint32_t field, uint32_t op, uint64_t value) {
    uint32_t group = PAPERPE_FILTER_FIELD_0 + stage * PAPERPE_STAGE_STRIDE;
    paperpe_reg_write(base, group + 0x0, field);
    paperpe_reg_write(base, group + 0x4, op);
    paperpe_reg_write(base, group + 0x8, (uint32_t)value);
    paperpe_reg_write(base, group + 0xC, (uint32_t)(value >> 32));
}
/** Leave one filtering stage unused: the nop operator passes every tuple. */
static inline void paperpe_set_nop(volatile uint32_t *base, uint32_t stage) {
    paperpe_reg_write(base, PAPERPE_FILTER_OP_0 + stage * PAPERPE_STAGE_STRIDE, PAPERPE_OP_NOP);
}

/** Launch the configured block without waiting (asynchronous). */
static inline void paperpe_filter_async(volatile uint32_t *base,
                                     uint64_t src, uint32_t len,
                                     uint64_t dst, uint32_t capacity) {
    paperpe_reg_write(base, PAPERPE_SRC_ADDR_LO, (uint32_t)src);
    paperpe_reg_write(base, PAPERPE_SRC_ADDR_HI, (uint32_t)(src >> 32));
    paperpe_reg_write(base, PAPERPE_SRC_LEN, len);
    paperpe_reg_write(base, PAPERPE_DST_ADDR_LO, (uint32_t)dst);
    paperpe_reg_write(base, PAPERPE_DST_ADDR_HI, (uint32_t)(dst >> 32));
    paperpe_reg_write(base, PAPERPE_DST_CAPACITY, capacity);
    paperpe_reg_write(base, PAPERPE_START, 1);
}
/** Busy-wait until the PE deasserts BUSY. */
static inline void paperpe_wait_until_done(volatile uint32_t *base) {
    while (paperpe_reg_read(base, PAPERPE_STATUS) & 0x1) { /* spin */ }
}
/** Synchronous filtering: launch and wait; returns result bytes and
 * stores the count of tuples that passed in *TUPLES_OUT. */
static inline uint32_t paperpe_filter_sync(volatile uint32_t *base,
                                        uint64_t src, uint32_t len,
                                        uint64_t dst, uint32_t capacity,
                                        uint32_t *tuples_out) {
    paperpe_filter_async(base, src, len, dst, capacity);
    paperpe_wait_until_done(base);
    uint32_t bytes = paperpe_reg_read(base, PAPERPE_RESULT_BYTES);
    *tuples_out = paperpe_reg_read(base, PAPERPE_TUPLES_OUT);
    return bytes;
}

/** Hardware performance-counter snapshot (PAPERPE_CNT_* window). */
typedef struct {
    uint32_t tuples_in;
    uint32_t tuples_out;
    uint32_t in_stall;
    uint32_t out_stall;
    uint32_t active;
    uint32_t idle;
    uint32_t load_beats;
    uint32_t store_beats;
    uint32_t stage_drops[PAPERPE_STAGES];
} paperpe_perf_counters_t;
/** Read all performance counters in one pass. */
static inline void paperpe_read_perf_counters(volatile uint32_t *base,
                                           paperpe_perf_counters_t *c) {
    c->tuples_in = paperpe_reg_read(base, PAPERPE_CNT_TUPLES_IN);
    c->tuples_out = paperpe_reg_read(base, PAPERPE_CNT_TUPLES_OUT);
    c->in_stall = paperpe_reg_read(base, PAPERPE_CNT_IN_STALL);
    c->out_stall = paperpe_reg_read(base, PAPERPE_CNT_OUT_STALL);
    c->active = paperpe_reg_read(base, PAPERPE_CNT_ACTIVE);
    c->idle = paperpe_reg_read(base, PAPERPE_CNT_IDLE);
    c->load_beats = paperpe_reg_read(base, PAPERPE_CNT_LOAD_BEATS);
    c->store_beats = paperpe_reg_read(base, PAPERPE_CNT_STORE_BEATS);
    for (uint32_t s = 0; s < PAPERPE_STAGES; s++)
        c->stage_drops[s] = paperpe_reg_read(base, PAPERPE_CNT_STAGE_DROP_0 + 4u * s);
}
/** Clear all performance counters (write-1-to-clear). */
static inline void paperpe_reset_perf_counters(volatile uint32_t *base) {
    paperpe_reg_write(base, PAPERPE_CNT_CTRL, 1);
}

/** Print the PE state (for debugging). */
static inline void paperpe_print_state(volatile uint32_t *base) {
    printf("PaperPe state: status=%u in=%u out=%u bytes=%u\n",
           paperpe_reg_read(base, PAPERPE_STATUS),
           paperpe_reg_read(base, PAPERPE_TUPLES_IN),
           paperpe_reg_read(base, PAPERPE_TUPLES_OUT),
           paperpe_reg_read(base, PAPERPE_RESULT_BYTES));
}
/** Print one Paper record (for debugging). */
static inline void print_paper(const Paper *r) {
    printf("Paper: id=%llu year=%llu venue=%llu n_cits=%llu n_refs=%llu title_prefix=%llu title_postfix=<48 bytes>\n", (unsigned long long)r->id, (unsigned long long)r->year, (unsigned long long)r->venue, (unsigned long long)r->n_cits, (unsigned long long)r->n_refs, (unsigned long long)r->title_prefix);
}

#endif /* NDP_PE_PAPERPE_H */
