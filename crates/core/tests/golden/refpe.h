/* Auto-generated software interface for NDP PE `RefPe`.
 * Generated by the accelerator generation framework; do not edit.
 * Add this header to the device firmware project to use the PE.
 */
#ifndef NDP_PE_REFPE_H
#define NDP_PE_REFPE_H

#include <stdint.h>
#include <stdio.h>

/** Control Register Addresses. */
#define REFPE_START 0x00 /* Write 1 to start processing the configured block */
#define REFPE_STATUS 0x04 /* Bit 0: BUSY, bit 1: DONE */
#define REFPE_SRC_ADDR_LO 0x08 /* Source address in PS-DRAM, low 32 bit */
#define REFPE_SRC_ADDR_HI 0x0c /* Source address in PS-DRAM, high 32 bit */
#define REFPE_SRC_LEN 0x10 /* Bytes to load (partial blocks supported by this work) */
#define REFPE_DST_ADDR_LO 0x14 /* Destination address in PS-DRAM, low 32 bit */
#define REFPE_DST_ADDR_HI 0x18 /* Destination address in PS-DRAM, high 32 bit */
#define REFPE_DST_CAPACITY 0x1c /* Result buffer capacity in bytes */
#define REFPE_RESULT_BYTES 0x20 /* Bytes of result written back */
#define REFPE_TUPLES_IN 0x24 /* Tuples parsed from the input stream */
#define REFPE_TUPLES_OUT 0x28 /* Tuples that passed all filter stages */
#define REFPE_VERSION 0x2c /* Template generation version */
#define REFPE_FILTER_FIELD_0 0x30 /* Stage 0: comparator lane select */
#define REFPE_FILTER_OP_0 0x34 /* Stage 0: operator code (0 = nop) */
#define REFPE_FILTER_VAL_LO_0 0x38 /* Stage 0: reference value, low 32 bit */
#define REFPE_FILTER_VAL_HI_0 0x3c /* Stage 0: reference value, high 32 bit */
#define REFPE_FILTER_COUNTER 0x40 /* Tuples that passed the final filtering stage */
#define REFPE_CNT_CTRL 0x54 /* Write 1 to clear all performance counters */
#define REFPE_CNT_TUPLES_IN 0x58 /* Perf: tuples parsed since last clear */
#define REFPE_CNT_TUPLES_OUT 0x5c /* Perf: tuples that passed all stages */
#define REFPE_CNT_IN_STALL 0x60 /* Perf: cycles the Load Unit stalled on a full buffer */
#define REFPE_CNT_OUT_STALL 0x64 /* Perf: cycles a tuple waited on the output buffer */
#define REFPE_CNT_ACTIVE 0x68 /* Perf: cycles with pipeline progress */
#define REFPE_CNT_IDLE 0x6c /* Perf: cycles without pipeline progress */
#define REFPE_CNT_LOAD_BEATS 0x70 /* Perf: 64-bit beats loaded from DRAM */
#define REFPE_CNT_STORE_BEATS 0x74 /* Perf: 64-bit beats stored to DRAM */
#define REFPE_CNT_STAGE_DROP_0 0x78 /* Perf: tuples dropped by filtering stage 0 */
#define REFPE_STAGES 1
#define REFPE_STAGE_STRIDE 0x10

/** Comparator operator encodings. */
#define REFPE_OP_NOP 0
#define REFPE_OP_NE 1
#define REFPE_OP_EQ 2
#define REFPE_OP_GT 3
#define REFPE_OP_GE 4
#define REFPE_OP_LT 5
#define REFPE_OP_LE 6

/** Generated datatypes (packed wire layout). */
typedef struct __attribute__((packed)) {
    uint64_t src;
    uint64_t dst;
    uint32_t year;
} Ref;

/** Register accessors (BASE is the PE's AXI-Lite window). Define
 * REFPE_REG_ACCESSORS and supply both before including this header
 * to route every access elsewhere (a bus model, a trace). */
#ifndef REFPE_REG_ACCESSORS
static inline uint32_t refpe_reg_read(volatile uint32_t *base, uint32_t off) {
    return base[off / 4];
}
static inline void refpe_reg_write(volatile uint32_t *base, uint32_t off, uint32_t v) {
    base[off / 4] = v;
}
#endif

/** Configure one filtering stage. */
static inline void refpe_set_filter(volatile uint32_t *base, uint32_t stage,
                                   uint32_t field, uint32_t op, uint64_t value) {
    uint32_t group = REFPE_FILTER_FIELD_0 + stage * REFPE_STAGE_STRIDE;
    refpe_reg_write(base, group + 0x0, field);
    refpe_reg_write(base, group + 0x4, op);
    refpe_reg_write(base, group + 0x8, (uint32_t)value);
    refpe_reg_write(base, group + 0xC, (uint32_t)(value >> 32));
}
/** Leave one filtering stage unused: the nop operator passes every tuple. */
static inline void refpe_set_nop(volatile uint32_t *base, uint32_t stage) {
    refpe_reg_write(base, REFPE_FILTER_OP_0 + stage * REFPE_STAGE_STRIDE, REFPE_OP_NOP);
}

/** Launch the configured block without waiting (asynchronous). */
static inline void refpe_filter_async(volatile uint32_t *base,
                                     uint64_t src, uint32_t len,
                                     uint64_t dst, uint32_t capacity) {
    refpe_reg_write(base, REFPE_SRC_ADDR_LO, (uint32_t)src);
    refpe_reg_write(base, REFPE_SRC_ADDR_HI, (uint32_t)(src >> 32));
    refpe_reg_write(base, REFPE_SRC_LEN, len);
    refpe_reg_write(base, REFPE_DST_ADDR_LO, (uint32_t)dst);
    refpe_reg_write(base, REFPE_DST_ADDR_HI, (uint32_t)(dst >> 32));
    refpe_reg_write(base, REFPE_DST_CAPACITY, capacity);
    refpe_reg_write(base, REFPE_START, 1);
}
/** Busy-wait until the PE deasserts BUSY. */
static inline void refpe_wait_until_done(volatile uint32_t *base) {
    while (refpe_reg_read(base, REFPE_STATUS) & 0x1) { /* spin */ }
}
/** Synchronous filtering: launch and wait; returns result bytes and
 * stores the count of tuples that passed in *TUPLES_OUT. */
static inline uint32_t refpe_filter_sync(volatile uint32_t *base,
                                        uint64_t src, uint32_t len,
                                        uint64_t dst, uint32_t capacity,
                                        uint32_t *tuples_out) {
    refpe_filter_async(base, src, len, dst, capacity);
    refpe_wait_until_done(base);
    uint32_t bytes = refpe_reg_read(base, REFPE_RESULT_BYTES);
    *tuples_out = refpe_reg_read(base, REFPE_TUPLES_OUT);
    return bytes;
}

/** Hardware performance-counter snapshot (REFPE_CNT_* window). */
typedef struct {
    uint32_t tuples_in;
    uint32_t tuples_out;
    uint32_t in_stall;
    uint32_t out_stall;
    uint32_t active;
    uint32_t idle;
    uint32_t load_beats;
    uint32_t store_beats;
    uint32_t stage_drops[REFPE_STAGES];
} refpe_perf_counters_t;
/** Read all performance counters in one pass. */
static inline void refpe_read_perf_counters(volatile uint32_t *base,
                                           refpe_perf_counters_t *c) {
    c->tuples_in = refpe_reg_read(base, REFPE_CNT_TUPLES_IN);
    c->tuples_out = refpe_reg_read(base, REFPE_CNT_TUPLES_OUT);
    c->in_stall = refpe_reg_read(base, REFPE_CNT_IN_STALL);
    c->out_stall = refpe_reg_read(base, REFPE_CNT_OUT_STALL);
    c->active = refpe_reg_read(base, REFPE_CNT_ACTIVE);
    c->idle = refpe_reg_read(base, REFPE_CNT_IDLE);
    c->load_beats = refpe_reg_read(base, REFPE_CNT_LOAD_BEATS);
    c->store_beats = refpe_reg_read(base, REFPE_CNT_STORE_BEATS);
    for (uint32_t s = 0; s < REFPE_STAGES; s++)
        c->stage_drops[s] = refpe_reg_read(base, REFPE_CNT_STAGE_DROP_0 + 4u * s);
}
/** Clear all performance counters (write-1-to-clear). */
static inline void refpe_reset_perf_counters(volatile uint32_t *base) {
    refpe_reg_write(base, REFPE_CNT_CTRL, 1);
}

/** Print the PE state (for debugging). */
static inline void refpe_print_state(volatile uint32_t *base) {
    printf("RefPe state: status=%u in=%u out=%u bytes=%u\n",
           refpe_reg_read(base, REFPE_STATUS),
           refpe_reg_read(base, REFPE_TUPLES_IN),
           refpe_reg_read(base, REFPE_TUPLES_OUT),
           refpe_reg_read(base, REFPE_RESULT_BYTES));
}
/** Print one Ref record (for debugging). */
static inline void print_ref(const Ref *r) {
    printf("Ref: src=%llu dst=%llu year=%llu\n", (unsigned long long)r->src, (unsigned long long)r->dst, (unsigned long long)r->year);
}

#endif /* NDP_PE_REFPE_H */
