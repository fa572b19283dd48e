//! Hot-path microbenches: the `hotpath` section of `BENCH_perf.json`.
//!
//! Where the perf gate measures whole replays, this module measures the
//! byte-moving primitives the replays are built from, so a regression in
//! one layer is attributable without profiling:
//!
//! * the SIMD XOR kernel vs the scalar reference on a 64 KiB chunk,
//! * sink-side payload copies per host byte on the byte-faithful array,
//!   against the computed pre-zero-copy equivalent,
//! * the packed FTL index footprint against the legacy enum-per-entry
//!   layout,
//! * the suite-sweep jobs ladder at 1 / 2 / all cores.
//!
//! Everything here is seeded and allocation-disciplined; `quick` shrinks
//! iteration counts and workloads to CI-smoke size without changing what
//! is measured.

use crate::perf::{trace_of, Workload, QUICK, WORKLOADS};
use adapt_array::cpu_features;
use adapt_array::parity;
use adapt_array::ArraySink;
use adapt_lss::index::{BlockEntry, BlockIndex};
use adapt_lss::{GcSelection, Lss, LssConfig, LssMetrics, PlacementPolicy};
use adapt_sim::runner::run_suite;
use adapt_sim::scheme::{with_policy, PolicyVisitor};
use adapt_sim::{ReplayConfig, Scheme};
use adapt_trace::{SuiteKind, TraceRecord, WorkloadSuite};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The XOR kernel ladder on one 64 KiB chunk. Two references because
/// they answer different questions: the byte-serial rung is the
/// pre-vectorization baseline (the kernel-level speedup headline), while
/// the word-scalar rung autovectorizes in release builds and shows where
/// the memory bus, not the kernel, becomes the wall.
#[derive(Debug, Clone, Serialize)]
pub struct XorPoint {
    /// Dispatched kernel (CPU feature summary).
    pub kernel: String,
    /// Dispatched [`parity::xor_into`] throughput (GiB/s).
    pub simd_gib_s: f64,
    /// [`parity::xor_into_scalar`] (u64 words; autovectorized) (GiB/s).
    pub scalar_wide_gib_s: f64,
    /// [`parity::xor_into_bytewise`] (strict byte-serial) (GiB/s).
    pub scalar_byte_gib_s: f64,
    /// `simd / byte-serial` — the kernel-level speedup.
    pub speedup_vs_byte: f64,
    /// `simd / word-scalar` — ~1.0 once memory-bound, by design.
    pub speedup_vs_wide: f64,
}

/// Sink-side payload-copy traffic of a byte-faithful replay, against the
/// computed pre-zero-copy equivalent of the same flush sequence.
#[derive(Debug, Clone, Serialize)]
pub struct CopyTraffic {
    /// Workload replayed.
    pub workload: String,
    /// Host bytes written by the replay.
    pub host_write_bytes: u64,
    /// RAM-to-RAM payload copies the sink performed
    /// ([`adapt_array::ArrayStats::copy_bytes`]): with the streaming
    /// parity accumulator this is one seed copy per stripe.
    pub copy_bytes: u64,
    /// What the same flush sequence cost before the zero-copy paths: the
    /// measured copies plus one zero-filled chunk materialization per
    /// data/pad chunk write (the old accounting path allocated and
    /// memset a chunk-sized `Vec` per flush; parity seeding cost the
    /// same then as now).
    pub legacy_equiv_copy_bytes: u64,
    /// Copied bytes per host byte, measured.
    pub copy_per_host_byte: f64,
    /// Copied bytes per host byte, legacy equivalent.
    pub legacy_copy_per_host_byte: f64,
    /// `1 - copy_bytes / legacy_equiv_copy_bytes`, as a percentage.
    pub reduction_pct: f64,
}

/// Resident FTL index footprint of the packed tagged-word layout against
/// the legacy one-enum-per-entry table it replaced.
#[derive(Debug, Clone, Serialize)]
pub struct IndexFootprint {
    /// Blocks mapped by the measured index.
    pub blocks: u64,
    /// Measured [`BlockIndex::memory_bytes`] per mapped block (packed
    /// 8-byte words plus the shadow side table, amortized).
    pub packed_bytes_per_block: f64,
    /// What the same table cost per entry before packing: one
    /// [`BlockEntry`] enum per LBA (`size_of::<BlockEntry>()`), not
    /// counting the retired `FxHashMap` version map's overhead — so this
    /// baseline is conservative.
    pub legacy_bytes_per_block: f64,
    /// `1 - packed / legacy`, as a percentage.
    pub reduction_pct: f64,
}

/// One rung of the suite-sweep jobs ladder.
#[derive(Debug, Clone, Serialize)]
pub struct JobsPoint {
    /// Worker threads.
    pub jobs: usize,
    /// Sweep wall time (ms).
    pub wall_ms: f64,
    /// Speedup vs the `jobs = 1` rung.
    pub speedup_vs_1: f64,
}

/// The `hotpath` section of `BENCH_perf.json`.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathBench {
    /// CPU feature summary the kernels dispatched on (e.g.
    /// `avx2+sse42`, `scalar (forced)` under `ADAPT_NO_SIMD`).
    pub cpu: String,
    /// The XOR kernel ladder on one 64 KiB chunk.
    pub xor_64k: XorPoint,
    /// Sink payload-copy traffic vs the pre-zero-copy equivalent.
    pub copy: CopyTraffic,
    /// Packed-index footprint vs the legacy enum-per-entry layout.
    pub index: IndexFootprint,
    /// Suite-sweep scaling at 1 / 2 / all cores.
    pub jobs_ladder: Vec<JobsPoint>,
}

const CHUNK: usize = 64 * 1024;

/// Time `f` over `iters` iterations (after a quarter-length warmup) and
/// return seconds per iteration.
fn secs_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Deterministic byte pattern so the kernels never see all-zero input.
fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// The XOR kernel ladder over one chunk; GiB/s of source bytes
/// processed per rung.
pub fn bench_xor(quick: bool) -> XorPoint {
    let iters = if quick { 1_024 } else { 8_192 };
    let src = patterned(CHUNK, 7);
    let mut acc = patterned(CHUNK, 91);
    let simd_spi = secs_per_iter(iters, || {
        parity::xor_into(black_box(&mut acc), black_box(&src));
    });
    let wide_spi = secs_per_iter(iters, || {
        parity::xor_into_scalar(black_box(&mut acc), black_box(&src));
    });
    // The byte-serial rung is ~2 orders slower; fewer iterations keep
    // the ladder seconds-scale without losing signal.
    let byte_spi = secs_per_iter(iters / 16, || {
        parity::xor_into_bytewise(black_box(&mut acc), black_box(&src));
    });
    black_box(&acc);
    let gib = CHUNK as f64 / (1u64 << 30) as f64;
    XorPoint {
        kernel: cpu_features::get().summary(),
        simd_gib_s: gib / simd_spi,
        scalar_wide_gib_s: gib / wide_spi,
        scalar_byte_gib_s: gib / byte_spi,
        speedup_vs_byte: byte_spi / simd_spi,
        speedup_vs_wide: wide_spi / simd_spi,
    }
}

struct CopyRun<'a> {
    cfg: LssConfig,
    trace: &'a [TraceRecord],
}

impl PolicyVisitor<(LssMetrics, adapt_array::ArrayStats)> for CopyRun<'_> {
    fn visit<P: PlacementPolicy + Send + 'static>(
        self,
        policy: P,
    ) -> (LssMetrics, adapt_array::ArrayStats) {
        let mut engine =
            Lss::builder(policy, adapt_array::InMemoryArray::new(self.cfg.array_config()))
                .config(self.cfg)
                .gc_select(GcSelection::Greedy)
                .build();
        for rec in self.trace {
            engine.write_request(rec.ts_us, rec.lba, rec.num_blocks);
        }
        engine.flush_all();
        (engine.metrics().clone(), engine.sink().stats().clone())
    }
}

/// Replay a workload on the byte-faithful array and report the sink's
/// payload-copy traffic against the pre-zero-copy equivalent.
pub fn measure_copy(quick: bool) -> CopyTraffic {
    let w: &Workload = if quick { &QUICK } else { &WORKLOADS[0] };
    let cfg = ReplayConfig::for_volume(w.user_blocks, GcSelection::Greedy).lss;
    let trace = trace_of(w);
    let (metrics, stats) = with_policy(Scheme::Adapt, &cfg, CopyRun { cfg, trace: &trace });
    let chunk_bytes = cfg.chunk_bytes();
    let chunk_writes: u64 = stats.devices.iter().map(|d| d.chunk_writes).sum();
    // Every non-parity chunk write used to materialize a zero-filled
    // chunk-sized Vec; parity writes are generated, not zeroed.
    let data_chunk_writes = chunk_writes - stats.stripes_completed;
    let legacy = stats.copy_bytes + data_chunk_writes * chunk_bytes;
    let host = metrics.host_write_bytes;
    CopyTraffic {
        workload: w.name.to_string(),
        host_write_bytes: host,
        copy_bytes: stats.copy_bytes,
        legacy_equiv_copy_bytes: legacy,
        copy_per_host_byte: stats.copy_bytes as f64 / host.max(1) as f64,
        legacy_copy_per_host_byte: legacy as f64 / host.max(1) as f64,
        reduction_pct: 100.0 * (1.0 - stats.copy_bytes as f64 / legacy.max(1) as f64),
    }
}

/// Fill a [`BlockIndex`] densely and compare its measured bytes per
/// mapped block against the legacy enum-per-entry cost.
fn index_footprint() -> IndexFootprint {
    const BLOCKS: u64 = 1 << 16;
    let mut idx = BlockIndex::default();
    for lba in 0..BLOCKS {
        idx.set(lba, BlockEntry::Durable { seg: (lba / 512) as u32, off: (lba % 512) as u32 });
    }
    let packed = idx.memory_bytes() as f64 / idx.len().max(1) as f64;
    let legacy = std::mem::size_of::<BlockEntry>() as f64;
    IndexFootprint {
        blocks: BLOCKS,
        packed_bytes_per_block: packed,
        legacy_bytes_per_block: legacy,
        reduction_pct: 100.0 * (1.0 - packed / legacy),
    }
}

/// Suite-sweep wall time at `jobs = 1`, `2`, and all cores (deduplicated
/// when the machine has fewer), each rung bit-identical by the pool's
/// determinism contract (asserted by `perf::measure_sweep`).
pub fn measure_jobs_ladder(quick: bool) -> Vec<JobsPoint> {
    let (volumes, requests) = if quick { (3, 4_000) } else { (8, 20_000) };
    let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 0xADA7, volumes);
    let all = rayon::current_num_threads().max(2);
    let mut rungs = vec![1usize, 2, all];
    rungs.dedup();
    let mut wall1 = 0.0f64;
    rungs
        .into_iter()
        .map(|jobs| {
            let t0 = Instant::now();
            let r = rayon::with_jobs(jobs, || {
                run_suite(Scheme::Adapt, GcSelection::Greedy, &suite, Some(requests))
            });
            black_box(&r);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if jobs == 1 {
                wall1 = wall_ms;
            }
            JobsPoint { jobs, wall_ms, speedup_vs_1: wall1 / wall_ms }
        })
        .collect()
}

/// Run every hotpath microbench. `quick` is CI-smoke sizing.
pub fn run(quick: bool) -> HotpathBench {
    HotpathBench {
        cpu: cpu_features::get().summary(),
        xor_64k: bench_xor(quick),
        copy: measure_copy(quick),
        index: index_footprint(),
        jobs_ladder: measure_jobs_ladder(quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_ladder_orders_as_expected() {
        let p = bench_xor(true);
        assert!(p.simd_gib_s > 0.0 && p.scalar_wide_gib_s > 0.0 && p.scalar_byte_gib_s > 0.0);
        // Without a SIMD tier (`ADAPT_NO_SIMD=1`, or a CPU that has none)
        // the dispatched kernel *is* the word-scalar rung: nothing to
        // order. And a debug build measures wall-clock ratios of
        // unoptimized loops on a shared runner (1 failure in ~15 loaded
        // runs), so the ordering is asserted on optimized builds only;
        // the ≥4× headline is read off release gate runs.
        let f = cpu_features::get();
        if !(f.avx2 || f.sse2) || cfg!(debug_assertions) {
            return;
        }
        // The dispatched kernel must clearly beat the byte-serial
        // reference.
        assert!(p.speedup_vs_byte > 2.0, "simd {}x byte-serial", p.speedup_vs_byte);
        // And it must not lose to the autovectorized word-scalar by more
        // than noise (both ride the memory bus at chunk size).
        assert!(p.speedup_vs_wide > 0.6, "simd {}x word-scalar", p.speedup_vs_wide);
    }

    #[test]
    fn copy_traffic_is_reduced_vs_legacy() {
        let c = measure_copy(true);
        assert!(c.copy_bytes > 0, "parity seeding still copies");
        assert!(c.copy_bytes < c.legacy_equiv_copy_bytes);
        assert!(c.reduction_pct > 50.0, "reduction {}%", c.reduction_pct);
    }

    #[test]
    fn jobs_ladder_covers_one_two_all() {
        let l = measure_jobs_ladder(true);
        assert!(l.len() >= 2);
        assert_eq!(l[0].jobs, 1);
        assert_eq!(l[1].jobs, 2);
        assert!(l.iter().all(|p| p.wall_ms > 0.0 && p.speedup_vs_1 > 0.0));
    }

    #[test]
    fn packed_index_drops_at_least_40_percent() {
        let i = index_footprint();
        assert!(
            i.reduction_pct >= 40.0,
            "packed index must drop >=40% bytes/block (got {:.1}%: {:.2} vs {:.2})",
            i.reduction_pct,
            i.packed_bytes_per_block,
            i.legacy_bytes_per_block,
        );
    }
}
