//! Per-layer micro-kernels: single public functions of one layer, timed
//! from outside on inputs shaped like the workloads'.
//!
//! Each kernel runs a fixed batch several times and reports the median
//! batch, so a number here is comparable between two commits. The same
//! costs feed `est_host_share.*`: kernel ns x the calls a chunk's
//! counters imply, over the chunk's measured host time.

use crate::adapter::{self, kernel};
use crate::span::Tracer;
use crate::stats;
use crate::workloads::generate::{random_block, random_rules};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// The measured kernels: catalogue metrics plus a per-call cost table.
pub struct KernelCosts {
    pub metrics: Vec<(&'static str, f64)>,
    /// `(kernel metric name, layer, host ns per call)`.
    costs: Vec<(&'static str, &'static str, f64)>,
}

impl KernelCosts {
    pub fn ns_per_call(&self, kernel: &str) -> Option<(&'static str, f64)> {
        self.costs.iter().find(|(k, _, _)| *k == kernel).map(|&(_, layer, ns)| (layer, ns))
    }

    fn add(&mut self, name: &'static str, layer: &'static str, ns_per_call: f64, scale: f64) {
        self.metrics.push((name, ns_per_call / scale));
        self.costs.push((name, layer, ns_per_call));
    }
}

/// Median nanoseconds per call of `batch(n)` over [`REPS`] repetitions.
fn time_per_call(n: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(n.div_ceil(8)); // warm caches and lazy state
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch(n);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&samples)
}

pub fn measure(seed: u64) -> KernelCosts {
    let mut k = KernelCosts { metrics: Vec::new(), costs: Vec::new() };

    // ---- generator stages, on the bundled evaluation spec (two PEs).
    let spec = adapter::evaluation_spec();
    let stages = [
        ("ndp-spec.parse", "spec.parse_us", "ndp-spec"),
        ("ndp-ir.elaborate_all", "ir.elaborate_us", "ndp-ir"),
        ("ndp-hdl.emit_design", "hdl.emit_us", "ndp-hdl"),
        ("ndp-hdl.resources", "hdl.resources_us", "ndp-hdl"),
        ("ndp-swgen.generate_header", "swgen.header_us", "ndp-swgen"),
    ];
    {
        // One traced pass per repetition gives every stage's time at once.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
        for _ in 0..REPS * 4 {
            let mut tr = Tracer::enabled(64);
            black_box(adapter::generate_staged(&mut tr, spec).is_ok());
            let totals = tr.totals();
            for (i, (span, _, _)) in stages.iter().enumerate() {
                samples[i].push(totals.get(span).map_or(0.0, |t| t.total_ns as f64));
            }
        }
        for ((_, name, layer), s) in stages.iter().zip(&samples) {
            k.add(name, layer, stats::median(s), 1e3);
        }
    }
    let facade = time_per_call(8, |n| {
        for _ in 0..n {
            black_box(adapter::generate_facade(spec).is_ok());
        }
    });
    k.add("core.generate_us", "core", facade, 1e3);

    // ---- ndp-pe: oracle and cycle-level model on one 32 KiB ref block.
    let (_, ref_pe) = adapter::evaluation_pes();
    let mut rng = adapter::SplitMix64::new(seed ^ 0x6b65_726e);
    let block = random_block(&mut rng, &ref_pe, adapter::BLOCK_BYTES as usize);
    let rules = random_rules(&mut rng, &ref_pe);
    let oracle = adapter::Oracle::new(&ref_pe);
    let mut out = Vec::with_capacity(block.len());
    let oracle_ns = time_per_call(64, |n| {
        for _ in 0..n {
            out.clear();
            black_box(oracle.process(black_box(&block), &rules, &mut out));
        }
    });
    k.add("pe.oracle_block_us", "ndp-pe", oracle_ns, 1e3);
    k.metrics.push(("pe.oracle_mb_per_s", block.len() as f64 / 1e6 / (oracle_ns / 1e9)));
    let mut pe = adapter::CyclePe::new(&ref_pe);
    let mut cycles = 0u64;
    let cycle_ns = time_per_call(8, |n| {
        for _ in 0..n {
            cycles = pe.process(black_box(&block), &rules).cycles;
        }
    });
    k.add("pe.cycle_block_us", "ndp-pe", cycle_ns, 1e3);
    k.metrics.push(("pe.cycles_per_host_s", cycles as f64 / (cycle_ns / 1e9)));

    // ---- cosmos-sim.
    k.add(
        "sim.server_schedule_ns",
        "cosmos-sim",
        time_per_call(200_000, kernel::server_schedule),
        1.0,
    );
    k.add(
        "sim.server_backfill_ns",
        "cosmos-sim",
        time_per_call(200_000, kernel::server_backfill),
        1.0,
    );
    let mut flash = kernel::FlashBed::new(4096);
    let read_ns = time_per_call(1, |_| {
        black_box(flash.read_all());
    }) / 4096.0;
    k.add("sim.flash_read_page_ns", "cosmos-sim", read_ns, 1.0);
    let program_ns = time_per_call(2048, |n| flash.program(n as u32));
    k.add("sim.flash_program_page_ns", "cosmos-sim", program_ns, 1.0);
    drop(flash);
    let mut cache = kernel::CacheBed::new();
    k.add("sim.cache_lookup_ns", "cosmos-sim", time_per_call(100_000, |n| cache.lookup(n)), 1.0);
    k.add("sim.cache_insert_ns", "cosmos-sim", time_per_call(2_000, |n| cache.insert(n)), 1.0);
    drop(cache);
    k.add("sim.trace_record_ns", "cosmos-sim", time_per_call(200_000, kernel::trace_record), 1.0);
    k.add("sim.queue_submit_ns", "cosmos-sim", time_per_call(50_000, kernel::queue_submit), 1.0);

    // ---- nkv.
    k.add("nkv.memtable_put_ns", "nkv", time_per_call(40_000, kernel::memtable_put), 1.0);
    let bloom = kernel::BloomBed::new();
    k.add("nkv.bloom_lookup_ns", "nkv", time_per_call(500_000, |n| bloom.lookup(n)), 1.0);
    let crc_ns = time_per_call(128, |n| {
        for _ in 0..n {
            black_box(kernel::crc32c(&block));
        }
    });
    // Costed per byte so callers can multiply by bytes checksummed.
    k.costs.push(("nkv.crc32c_mb_per_s", "nkv", crc_ns / block.len() as f64));
    k.metrics.push(("nkv.crc32c_mb_per_s", block.len() as f64 / 1e6 / (crc_ns / 1e9)));
    k.add("nkv.hist_record_ns", "nkv", time_per_call(500_000, kernel::hist_record), 1.0);
    match kernel::planner_device(seed) {
        Ok(dev) => {
            k.add(
                "nkv.plan_lower_ns",
                "nkv",
                time_per_call(50_000, |n| kernel::plan_lower(&dev, n)),
                1.0,
            );
            k.add(
                "nkv.cost_choose_ns",
                "nkv",
                time_per_call(20_000, |n| kernel::cost_choose(&dev, n)),
                1.0,
            );
        }
        Err(e) => eprintln!("kernel: planner device failed to build: {e}"),
    }

    // ---- ndp-workload.
    let cfg = adapter::dataset_config(1.0 / 64.0, seed);
    let gen_ns = time_per_call(50_000, |n| {
        black_box(kernel::gen_records(&cfg, n));
    });
    k.costs.push(("workload.gen_records_per_s", "ndp-workload", gen_ns));
    k.metrics.push(("workload.gen_records_per_s", 1e9 / gen_ns));
    k
}
