//! Component micro-benchmarks: the hot paths of the toolflow and the
//! substrates (frontend, oracle filtering, cycle-level PE, memtable,
//! bloom filter, CRC).

use bench::harness::{Criterion, Throughput};
use bench::{criterion_group, criterion_main};
use ndp_ir::elaborate;
use ndp_pe::oracle::{BlockProcessor, FilterRule, OpTable};
use ndp_workload::spec::{PAPER_REF_SPEC, REF_PE};
use ndp_workload::{PubGraphConfig, RefGen};
use std::hint::black_box;

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("spec_parse_and_elaborate", |b| {
        b.iter(|| {
            let m = ndp_spec::parse(black_box(PAPER_REF_SPEC)).unwrap();
            black_box(ndp_ir::elaborate_all(&m).unwrap())
        });
    });
}

fn bench_oracle(c: &mut Criterion) {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let cfg = elaborate(&m, REF_PE).unwrap();
    let bp = BlockProcessor::new(&cfg);
    let ops = OpTable::from_config(&cfg);
    let mut block = Vec::with_capacity(32 * 1024);
    for r in RefGen::new(PubGraphConfig { papers: 200, refs: 1638, seed: 1 }) {
        r.encode_into(&mut block);
    }
    let rules = [FilterRule { lane: 2, op_code: 4, value: 1990 }];
    let mut group = c.benchmark_group("oracle_block_filter");
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("ref_block_32k", |b| {
        let mut out = Vec::with_capacity(block.len());
        b.iter(|| {
            out.clear();
            black_box(bp.process_block(black_box(&block), &rules, &ops, &mut out))
        });
    });
    group.finish();
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable_insert_10k", |b| {
        b.iter(|| {
            let mut m = nkv::memtable::MemTable::new(7);
            for k in 0..10_000u64 {
                m.put(black_box(k * 2654435761 % 1_000_003), vec![0u8; 20]);
            }
            black_box(m.len())
        });
    });
}

fn bench_bloom(c: &mut Criterion) {
    let mut bloom = nkv::util::Bloom::new(100_000, 10);
    for k in 0..100_000u64 {
        bloom.insert(k * 3 + 1);
    }
    c.bench_function("bloom_lookup", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(982_451_653);
            black_box(bloom.may_contain(black_box(k)))
        });
    });
}

fn bench_crc(c: &mut Criterion) {
    // A manifest-sized input, a 4 KiB one, and one 32 KiB data block.
    let data = vec![0xA5u8; 32 * 1024];
    let mut group = c.benchmark_group("crc32c");
    for (name, len) in [("header_64", 64), ("page_4k", 4 * 1024), ("block_32k", 32 * 1024)] {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| {
            b.iter(|| black_box(nkv::util::crc32c(black_box(&data[..len]))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frontend, bench_oracle, bench_memtable, bench_bloom, bench_crc);
criterion_main!(benches);
