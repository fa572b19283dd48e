//! Hot-path microbenches: the `hotpath` section of `BENCH_perf.json`.
//!
//! Where the perf gate measures whole replays, this module measures the
//! byte-moving primitives the replays are built from, so a regression in
//! one layer is attributable without profiling:
//!
//! * the SIMD XOR kernel vs the scalar reference on a 64 KiB chunk,
//! * stripe parity into a reused buffer vs the allocating variant,
//! * batched FTL remaps ([`BlockIndex::apply_batch`]) vs per-block `set`,
//! * sink-side payload copies per host byte on the byte-faithful array,
//!   against the computed pre-zero-copy equivalent,
//! * staged (overlapped) GC vs synchronous GC on the same replay, with
//!   per-op tail latencies and the `jobs = 1` bit-identical check,
//! * the batched op pipeline ([`Lss::apply_ops`] fusion) vs per-op
//!   submission, with per-stage cost attribution from the op-clocked
//!   profiler and the packed-index footprint against the legacy
//!   enum-per-entry layout,
//! * the suite-sweep jobs ladder at 1 / 2 / all cores.
//!
//! Everything here is seeded and allocation-disciplined; `quick` shrinks
//! iteration counts and workloads to CI-smoke size without changing what
//! is measured.

use crate::perf::{trace_of, Workload, QUICK, WORKLOADS};
use adapt_array::cpu_features;
use adapt_array::parity;
use adapt_array::{ArraySink, CountingArray};
use adapt_lss::index::{BlockEntry, BlockIndex};
use adapt_lss::{GcSelection, HostOp, Lss, LssConfig, LssMetrics, PlacementPolicy, StageCosts};
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

/// One fast-vs-reference kernel comparison. `unit` names what `fast` and
/// `slow` measure (higher is better for both).
#[derive(Debug, Clone, Serialize)]
pub struct KernelPoint {
    /// What was compared, e.g. `xor_into(64KiB) simd vs scalar`.
    pub name: String,
    /// Throughput of the optimized path.
    pub fast: f64,
    /// Throughput of the reference path.
    pub slow: f64,
    /// Unit of both throughputs (`GiB/s`, `Mops/s`).
    pub unit: String,
    /// `fast / slow`.
    pub speedup: f64,
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

/// Staged (overlapped) GC vs the synchronous path on the same replay.
///
/// The staged path slices victim migration across foreground writes, so
/// the signal is in the per-op tail, not the mean; write amplification
/// may differ between the modes (migration observes fresher liveness),
/// which is why the `jobs = 1` collapse to the exact synchronous path is
/// recorded as its own bit-identical check.
#[derive(Debug, Clone, Serialize)]
pub struct GcOverlapPoint {
    /// Workload replayed.
    pub workload: String,
    /// Job count the overlapped run was measured at.
    pub jobs: usize,
    /// Synchronous-GC wall time (ms).
    pub sync_wall_ms: f64,
    /// Overlapped-GC wall time (ms).
    pub overlap_wall_ms: f64,
    /// Synchronous per-op p99 / p99.9 / max latency (µs).
    pub sync_p99_us: f64,
    /// See `sync_p99_us`.
    pub sync_p999_us: f64,
    /// See `sync_p99_us`.
    pub sync_max_us: f64,
    /// Overlapped per-op p99 / p99.9 / max latency (µs).
    pub overlap_p99_us: f64,
    /// See `overlap_p99_us`.
    pub overlap_p999_us: f64,
    /// See `overlap_p99_us`.
    pub overlap_max_us: f64,
    /// Write amplification, synchronous mode.
    pub sync_wa: f64,
    /// Write amplification, overlapped mode (may legitimately differ).
    pub overlap_wa: f64,
    /// Whether the overlapped configuration at `jobs = 1` reproduced the
    /// synchronous run's metrics exactly (the determinism contract; must
    /// always be true).
    pub jobs1_bit_identical: bool,
}

/// Per-stage write-path cost of one profiled replay, in nanoseconds per
/// host op (each field is the matching [`StageCosts`] counter divided by
/// the ops attributed). The stage set mirrors the engine's apply loop:
/// clock advance → telemetry → GC pump → index retire → placement
/// snapshot → policy decision → sink/parity → WAL.
#[derive(Debug, Clone, Serialize)]
pub struct StageNsPerOp {
    /// Simulated-clock advance (SLA scan + expiries).
    pub clock: f64,
    /// Per-op telemetry (gauges, health, scrub pacing).
    pub telemetry: f64,
    /// Overlapped-GC migration slices.
    pub gc: f64,
    /// FTL index version retirement.
    pub index: f64,
    /// Policy-context snapshot refresh.
    pub placement: f64,
    /// Placement policy decision.
    pub policy: f64,
    /// Sink append/flush including parity.
    pub parity: f64,
    /// WAL group commit + checkpointing.
    pub wal: f64,
    /// Sum of all stages.
    pub total: f64,
}

impl StageNsPerOp {
    fn of(c: &StageCosts) -> Self {
        let ops = c.ops.max(1) as f64;
        StageNsPerOp {
            clock: c.clock_ns as f64 / ops,
            telemetry: c.telemetry_ns as f64 / ops,
            gc: c.gc_ns as f64 / ops,
            index: c.index_ns as f64 / ops,
            placement: c.placement_ns as f64 / ops,
            policy: c.policy_ns as f64 / ops,
            parity: c.parity_ns as f64 / ops,
            wal: c.wal_ns as f64 / ops,
            total: c.total_ns() as f64 / ops,
        }
    }
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

/// The batched op pipeline vs per-op submission on the same replay, with
/// per-stage cost attribution and the packed-index footprint.
///
/// Wall-time speedup here is informational on CI-class machines (the
/// replays are engine-bound, and unoptimized builds invert the batching
/// win); the load-bearing fields are the two bit-identical contracts and
/// the stage/footprint attributions, which hold in any build.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBench {
    /// Workload replayed.
    pub workload: String,
    /// Ops per [`Lss::apply_ops`] batch in the batched runs.
    pub batch: usize,
    /// Wall time submitting one op at a time (ms), unprofiled.
    pub per_op_wall_ms: f64,
    /// Wall time submitting `batch`-op slices (ms), unprofiled.
    pub batched_wall_ms: f64,
    /// `per_op_wall_ms / batched_wall_ms`.
    pub speedup: f64,
    /// Per-stage ns/op of the profiled one-op-at-a-time replay.
    pub per_op_stage_ns: StageNsPerOp,
    /// Per-stage ns/op of the profiled batched replay.
    pub batched_stage_ns: StageNsPerOp,
    /// Whether the batched replay reproduced the per-op replay's metrics
    /// and memory footprint exactly (the batching determinism contract;
    /// must always be true).
    pub batched_bit_identical: bool,
    /// Whether both profiled replays reproduced the unprofiled per-op
    /// metrics exactly (the profiler's zero-perturbation contract; must
    /// always be true).
    pub profiled_bit_identical: bool,
    /// Packed-index footprint vs the legacy enum-per-entry layout.
    pub index: IndexFootprint,
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
    /// Stripe parity into a reused buffer vs the allocating variant.
    pub parity_into: KernelPoint,
    /// Batched FTL remaps vs per-block `set` calls.
    pub index_batch: KernelPoint,
    /// Sink payload-copy traffic vs the pre-zero-copy equivalent.
    pub copy: CopyTraffic,
    /// Staged vs synchronous GC on the same replay.
    pub gc_overlap: GcOverlapPoint,
    /// Batched op pipeline vs per-op submission, with per-stage cost
    /// attribution and the packed-index footprint.
    pub pipeline: PipelineBench,
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

/// Parity of a 3-data-column stripe into a reused buffer vs the
/// allocating variant; GiB/s of stripe input processed.
pub fn bench_parity_into(quick: bool) -> KernelPoint {
    let iters = if quick { 512 } else { 4_096 };
    let cols: Vec<Vec<u8>> = (0..3u8).map(|c| patterned(CHUNK, c.wrapping_mul(53))).collect();
    let refs: Vec<&[u8]> = cols.iter().map(|c| c.as_slice()).collect();
    let mut out = Vec::with_capacity(CHUNK);
    let fast_spi = secs_per_iter(iters, || {
        parity::try_compute_parity_into(black_box(&mut out), black_box(&refs)).unwrap();
    });
    let slow_spi = secs_per_iter(iters, || {
        black_box(parity::compute_parity(black_box(&refs)));
    });
    black_box(&out);
    let gib = (3 * CHUNK) as f64 / (1u64 << 30) as f64;
    KernelPoint {
        name: "compute_parity 3x64KiB reused-out vs alloc".to_string(),
        fast: gib / fast_spi,
        slow: gib / slow_spi,
        unit: "GiB/s".to_string(),
        speedup: slow_spi / fast_spi,
    }
}

/// Batched remap application vs per-block `set` calls on a pre-grown
/// index, using flush-sized batches; Mops/s of remaps applied.
pub fn bench_index_batch(quick: bool) -> KernelPoint {
    const TABLE: u64 = 1 << 18;
    const BATCH: usize = 32;
    let rounds = if quick { 2_048 } else { 16_384 };
    // Deterministic LCG over the table, pre-materialized so the measured
    // loop is the index alone.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let batches: Vec<Vec<(u64, BlockEntry)>> = (0..rounds)
        .map(|r| {
            (0..BATCH)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let lba = x % TABLE;
                    (lba, BlockEntry::Durable { seg: r, off: i as u32 })
                })
                .collect()
        })
        .collect();
    let mut grown = BlockIndex::default();
    grown.set(TABLE - 1, BlockEntry::Absent);
    let mut idx = 0usize;
    let fast_spi = secs_per_iter(rounds, || {
        grown.apply_batch(black_box(&batches[idx % batches.len()]));
        idx += 1;
    });
    idx = 0;
    let slow_spi = secs_per_iter(rounds, || {
        for &(lba, e) in &batches[idx % batches.len()] {
            grown.set(black_box(lba), e);
        }
        idx += 1;
    });
    black_box(grown.len());
    let mops = BATCH as f64 / 1e6;
    KernelPoint {
        name: format!("BlockIndex {BATCH}-remap batch vs per-block set"),
        fast: mops / fast_spi,
        slow: mops / slow_spi,
        unit: "Mops/s".to_string(),
        speedup: slow_spi / fast_spi,
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

struct OverlapRun<'a> {
    cfg: LssConfig,
    trace: &'a [TraceRecord],
    overlap: bool,
    /// Record per-op latencies (skipped for the bit-identical re-run).
    record_latency: bool,
}

struct OverlapOut {
    wall_ms: f64,
    metrics: LssMetrics,
    /// Per-op latencies in nanoseconds, unsorted; empty unless recorded.
    lat_ns: Vec<u64>,
}

impl PolicyVisitor<OverlapOut> for OverlapRun<'_> {
    fn visit<P: PlacementPolicy + Send + 'static>(self, policy: P) -> OverlapOut {
        let mut engine = Lss::builder(policy, CountingArray::new(self.cfg.array_config()))
            .config(self.cfg)
            .gc_select(GcSelection::Greedy)
            .gc_overlap(self.overlap)
            .build();
        let mut lat_ns = Vec::with_capacity(if self.record_latency { self.trace.len() } else { 0 });
        let t0 = Instant::now();
        if self.record_latency {
            for rec in self.trace {
                let op0 = Instant::now();
                engine.write_request(rec.ts_us, rec.lba, rec.num_blocks);
                lat_ns.push(op0.elapsed().as_nanos() as u64);
            }
        } else {
            for rec in self.trace {
                engine.write_request(rec.ts_us, rec.lba, rec.num_blocks);
            }
        }
        engine.flush_all();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        OverlapOut { wall_ms, metrics: engine.metrics().clone(), lat_ns }
    }
}

/// `q`-quantile (0..=1) of unsorted per-op nanoseconds, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e3
}

/// Staged vs synchronous GC on one replay, plus the `jobs = 1`
/// bit-identical collapse check.
pub fn measure_gc_overlap(quick: bool) -> GcOverlapPoint {
    let w: &Workload = if quick { &QUICK } else { &WORKLOADS[0] };
    let cfg = ReplayConfig::for_volume(w.user_blocks, GcSelection::Greedy).lss;
    let trace = trace_of(w);
    let jobs = rayon::current_num_threads().max(2);
    let run = |overlap: bool, jobs: usize, record_latency: bool| {
        rayon::with_jobs(jobs, || {
            with_policy(
                Scheme::Adapt,
                &cfg,
                OverlapRun { cfg, trace: &trace, overlap, record_latency },
            )
        })
    };
    let sync = run(false, 1, true);
    let over = run(true, jobs, true);
    // Determinism contract: the overlapped configuration at jobs = 1
    // must reproduce the synchronous metrics bit for bit.
    let over_j1 = run(true, 1, false);
    let mut sync_ns = sync.lat_ns;
    let mut over_ns = over.lat_ns;
    sync_ns.sort_unstable();
    over_ns.sort_unstable();
    GcOverlapPoint {
        workload: w.name.to_string(),
        jobs,
        sync_wall_ms: sync.wall_ms,
        overlap_wall_ms: over.wall_ms,
        sync_p99_us: quantile_us(&sync_ns, 0.99),
        sync_p999_us: quantile_us(&sync_ns, 0.999),
        sync_max_us: sync_ns.last().map_or(0.0, |&n| n as f64 / 1e3),
        overlap_p99_us: quantile_us(&over_ns, 0.99),
        overlap_p999_us: quantile_us(&over_ns, 0.999),
        overlap_max_us: over_ns.last().map_or(0.0, |&n| n as f64 / 1e3),
        sync_wa: sync.metrics.wa(),
        overlap_wa: over.metrics.wa(),
        jobs1_bit_identical: over_j1.metrics == sync.metrics,
    }
}

struct PipelineRun<'a> {
    cfg: LssConfig,
    trace: &'a [TraceRecord],
    /// `Some(n)` replays through `n`-op [`Lss::apply_ops`] slices;
    /// `None` submits one op at a time via `write_request`.
    batch: Option<usize>,
    /// Enable the op-clocked per-stage cost profiler.
    profile: bool,
}

struct PipelineOut {
    wall_ms: f64,
    metrics: LssMetrics,
    memory_bytes: u64,
    stages: Option<StageCosts>,
}

impl PolicyVisitor<PipelineOut> for PipelineRun<'_> {
    fn visit<P: PlacementPolicy + Send + 'static>(self, policy: P) -> PipelineOut {
        let cfg = self.cfg.with_stage_costs(self.profile);
        let mut engine = Lss::builder(policy, CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .build();
        let t0 = Instant::now();
        match self.batch {
            None => {
                for rec in self.trace {
                    engine.write_request(rec.ts_us, rec.lba, rec.num_blocks);
                }
            }
            Some(n) => {
                let mut buf: Vec<HostOp> = Vec::with_capacity(n);
                for rec in self.trace {
                    buf.push(HostOp::write(rec.ts_us, rec.lba, rec.num_blocks));
                    if buf.len() == n {
                        engine.apply_ops(&buf);
                        buf.clear();
                    }
                }
                engine.apply_ops(&buf);
            }
        }
        engine.flush_all();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        PipelineOut {
            wall_ms,
            metrics: engine.metrics().clone(),
            memory_bytes: engine.memory_bytes() as u64,
            stages: engine.stage_costs().copied(),
        }
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

/// The batched pipeline point: four replays of one workload — per-op and
/// batched, each unprofiled (timed) and profiled (stage-attributed) —
/// plus the packed-index footprint.
pub fn measure_pipeline(quick: bool) -> PipelineBench {
    const BATCH: usize = 256;
    let w: &Workload = if quick { &QUICK } else { &WORKLOADS[0] };
    let cfg = ReplayConfig::for_volume(w.user_blocks, GcSelection::Greedy).lss;
    let trace = trace_of(w);
    let run = |batch: Option<usize>, profile: bool| {
        with_policy(Scheme::Adapt, &cfg, PipelineRun { cfg, trace: &trace, batch, profile })
    };
    let per_op = run(None, false);
    let batched = run(Some(BATCH), false);
    let per_op_prof = run(None, true);
    let batched_prof = run(Some(BATCH), true);
    let per_op_stages = per_op_prof.stages.as_ref().expect("profiled run records stage costs");
    let batched_stages = batched_prof.stages.as_ref().expect("profiled run records stage costs");
    PipelineBench {
        workload: w.name.to_string(),
        batch: BATCH,
        per_op_wall_ms: per_op.wall_ms,
        batched_wall_ms: batched.wall_ms,
        speedup: per_op.wall_ms / batched.wall_ms,
        per_op_stage_ns: StageNsPerOp::of(per_op_stages),
        batched_stage_ns: StageNsPerOp::of(batched_stages),
        batched_bit_identical: batched.metrics == per_op.metrics
            && batched.memory_bytes == per_op.memory_bytes,
        profiled_bit_identical: per_op_prof.metrics == per_op.metrics
            && batched_prof.metrics == per_op.metrics,
        index: index_footprint(),
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
        parity_into: bench_parity_into(quick),
        index_batch: bench_index_batch(quick),
        copy: measure_copy(quick),
        gc_overlap: measure_gc_overlap(quick),
        pipeline: measure_pipeline(quick),
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
        // the dispatched kernel *is* the word-scalar rung, and in a debug
        // build that rung need not beat byte-serial: nothing to order.
        let f = cpu_features::get();
        if !(f.avx2 || f.sse2) {
            return;
        }
        // The dispatched kernel must clearly beat the byte-serial
        // reference even in unoptimized/jittery CI builds; the ≥4×
        // headline is read off release gate runs.
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
    fn gc_overlap_point_holds_contract() {
        let g = measure_gc_overlap(true);
        assert!(g.jobs1_bit_identical, "jobs=1 must collapse to sync GC");
        assert!(g.sync_wall_ms > 0.0 && g.overlap_wall_ms > 0.0);
        assert!(g.sync_wa >= 1.0 && g.overlap_wa >= 1.0);
        assert!(g.sync_p999_us >= g.sync_p99_us);
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
    fn pipeline_point_holds_contract() {
        // No wall-clock ratio assertion: like the index-batch point, the
        // batching win is only meaningful on release gate runs; the
        // contracts below hold in any build.
        let p = measure_pipeline(true);
        assert!(p.batched_bit_identical, "apply_ops must reproduce the per-op replay exactly");
        assert!(p.profiled_bit_identical, "the stage profiler must not perturb results");
        assert!(p.per_op_stage_ns.total > 0.0 && p.batched_stage_ns.total > 0.0);
        assert!(p.per_op_wall_ms > 0.0 && p.batched_wall_ms > 0.0);
        assert!(
            p.index.reduction_pct >= 40.0,
            "packed index must drop >=40% bytes/block (got {:.1}%: {:.2} vs {:.2})",
            p.index.reduction_pct,
            p.index.packed_bytes_per_block,
            p.index.legacy_bytes_per_block,
        );
    }

    #[test]
    fn index_batch_point_is_sane() {
        // No ratio assertion: unoptimized test builds invert the two
        // paths' relative cost (the batch's max-scan pass is not inlined
        // away), so the ratio is only meaningful on release gate runs.
        let p = bench_index_batch(true);
        assert!(p.fast > 0.0 && p.slow > 0.0);
        assert!(p.speedup > 0.0);
    }
}
