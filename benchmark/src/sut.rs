//! The system under test. Every call into first-party code (`adapt-*`
//! crates) is in this file, so the API surface the benchmark depends on is
//! readable in one place (it is listed in `README.md`), and the workloads
//! only see plain data and the small traits defined here.
//!
//! Layers are measured from outside: by timing calls into public
//! functions, and by wrapping the three public trait boundaries
//! (`ArraySink`, `PlacementPolicy`, `ShardEngine`) in decorators that
//! forward every call unchanged and time it with a [`Probe`].
//!
//! Not used on purpose (ROADMAP item 2 plans to delete them):
//! `apply_ops` / `ADAPT_APPLY_BATCH`, `gc_overlap`,
//! `BlockIndex::apply_batch`, reused-out `compute_parity`, `StageCosts`,
//! the `sim` crash runners and `perf_baseline`. No `ADAPT_*` environment
//! variable is read here.

use crate::spans::{Collected, Ctx, Kind, Probe, Tally, NO_REQ};
use adapt_array::{
    crc32c, gf256, parity, ArrayConfig, ArrayError, ArrayHealth, ArraySink, ArrayStats, ChunkFlush,
    ChunkLocation, CountingArray, FileArraySink, FileSinkOptions, InMemoryArray, ReadMode,
    ReadOutcome, RecoveredFlush, ReedSolomon, ScrubStep, SinkReconcile,
};
use adapt_core::{Adapt, AdaptConfig};
use adapt_lss::{
    wal, DurabilityConfig, EngineError, FsyncPolicy, GroupId, GroupKind, Lba, Lss, LssConfig,
    LssMetrics, PlacementPolicy, PolicyCtx, PolicyEvent, ReclaimInfo, SegmentMeta, SlaAction,
    TelemetrySnapshot, VictimMeta, Wal, WalRecord,
};
use adapt_placement::{SepBit, SepGc};
use adapt_serve::shard::Probe as MetricsProbe;
use adapt_serve::{
    QosConfig, Request, ServerBuilder, ShardEngine, ShardRouter, SubmitError, TenantGovernor,
    VolumeSpec,
};
use adapt_trace::arrival::ArrivalModel;
use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};
use adapt_trace::OpType;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const BLOCK_BYTES: u64 = 4096;
pub const CHUNK_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Write,
    Read,
    Trim,
}

/// One host operation, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub ts_us: u64,
    pub lba: u64,
    pub blocks: u32,
    pub kind: OpKind,
}

#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    FixedGapUs(u64),
    PoissonPerSec(f64),
}

/// The `trace` layer: a YCSB-shaped stream — sequential fill of `blocks`
/// blocks, then `updates` single-block requests.
pub fn ycsb_ops(
    blocks: u64,
    updates: u64,
    zipf_alpha: Option<f64>,
    read_ratio: f64,
    arrival: Arrival,
    seed: u64,
) -> Vec<Op> {
    let cfg = YcsbConfig {
        num_blocks: blocks,
        num_updates: updates,
        zipf_alpha: zipf_alpha.unwrap_or(0.0),
        read_ratio,
        arrival: match arrival {
            Arrival::FixedGapUs(gap_us) => ArrivalModel::Fixed { gap_us },
            Arrival::PoissonPerSec(rate_per_sec) => ArrivalModel::Poisson { rate_per_sec },
        },
        blocks_per_request: 1,
        distribution: match zipf_alpha {
            Some(_) => AccessDistribution::Zipfian,
            None => AccessDistribution::Uniform,
        },
        seed,
    };
    cfg.generator()
        .map(|r| Op {
            ts_us: r.ts_us,
            lba: r.lba,
            blocks: r.num_blocks,
            kind: match r.op {
                OpType::Write => OpKind::Write,
                OpType::Read => OpKind::Read,
            },
        })
        .collect()
}

// ---------------------------------------------------------------------
// Exact counters
// ---------------------------------------------------------------------

/// Every deterministic counter the benchmark reads. The traced repetition
/// must reproduce the untraced one's value of this struct exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub user_blocks: u64,
    pub host_write_bytes: u64,
    pub host_read_bytes: u64,
    pub user_bytes: u64,
    pub gc_bytes: u64,
    pub shadow_bytes: u64,
    pub pad_bytes: u64,
    pub array_read_bytes: u64,
    pub chunks_flushed: u64,
    pub padded_chunks: u64,
    pub gc_passes: u64,
    pub segments_reclaimed: u64,
    pub blocks_migrated: u64,
    pub buffer_read_blocks: u64,
    pub trimmed_blocks: u64,
    pub shadow_append_events: u64,
    pub sink_data_bytes: u64,
    pub sink_pad_bytes: u64,
    pub sink_copy_bytes: u64,
    pub engine_mem_bytes: u64,
    pub policy_mem_bytes: u64,
}

impl Counters {
    fn new(
        user_blocks: u64,
        m: &LssMetrics,
        a: &ArrayStats,
        engine_mem_bytes: u64,
        policy_mem_bytes: u64,
    ) -> Self {
        Counters {
            user_blocks,
            host_write_bytes: m.host_write_bytes,
            host_read_bytes: m.host_read_bytes,
            user_bytes: m.user_bytes,
            gc_bytes: m.gc_bytes,
            shadow_bytes: m.shadow_bytes,
            pad_bytes: m.pad_bytes,
            array_read_bytes: m.array_read_bytes,
            chunks_flushed: m.chunks_flushed,
            padded_chunks: m.padded_chunks,
            gc_passes: m.gc_passes,
            segments_reclaimed: m.segments_reclaimed,
            blocks_migrated: m.blocks_migrated,
            buffer_read_blocks: m.buffer_read_blocks,
            trimmed_blocks: m.trimmed_blocks,
            shadow_append_events: m.shadow_append_events,
            sink_data_bytes: a.data_bytes(),
            sink_pad_bytes: a.pad_bytes(),
            sink_copy_bytes: a.copy_bytes,
            engine_mem_bytes,
            policy_mem_bytes,
        }
    }

    /// `LssMetrics::physical_bytes()`: what the engine says it wrote.
    pub fn physical_bytes(&self) -> u64 {
        self.user_bytes + self.gc_bytes + self.shadow_bytes + self.pad_bytes
    }

    /// `LssMetrics::wa()`: (user+GC+shadow+pad) / host bytes, parity excluded.
    pub fn wa(&self) -> f64 {
        self.physical_bytes() as f64 / self.host_write_bytes.max(1) as f64
    }

    pub fn pad_ratio(&self) -> f64 {
        self.pad_bytes as f64 / self.physical_bytes().max(1) as f64
    }

    pub fn read_amp(&self) -> f64 {
        self.array_read_bytes as f64 / self.host_read_bytes.max(1) as f64
    }

    pub fn mem_bytes_per_block(&self) -> f64 {
        self.engine_mem_bytes as f64 / self.user_blocks.max(1) as f64
    }

    /// The WA numerator must equal what the sink saw.
    pub fn sink_mismatch(&self) -> Option<String> {
        let sink = self.sink_data_bytes + self.sink_pad_bytes;
        (sink != self.physical_bytes()).then(|| {
            format!("engine physical bytes {} != sink data+pad bytes {sink}", self.physical_bytes())
        })
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// What the replay workloads drive: `adapt_lss::Lss` behind plain data.
pub trait Engine {
    fn apply(&mut self, op: &Op) -> Result<(), String>;
    fn flush_all(&mut self) -> Result<(), String>;
    fn counters(&self) -> Counters;
    /// `check_invariants()` + `try_check_recovery()` + sink reconciliation.
    fn verify(&self) -> Vec<String>;
    fn gc_select_ns(&self) -> u64;
    /// What the decorators recorded (empty for an untraced engine).
    fn take_trace(&mut self) -> Collected;
}

/// Implemented by policies and sinks so `Lss<P, S>` can hand back what
/// its decorators recorded; plain ones have nothing.
pub trait Traceable {
    fn take_trace(&mut self) -> Collected {
        Collected::default()
    }
}

impl Traceable for Adapt {}
impl Traceable for SepBit {}
impl Traceable for SepGc {}
impl Traceable for CountingArray {}
impl Traceable for FileArraySink {}

fn apply_to<P: PlacementPolicy, S: ArraySink>(
    e: &mut Lss<P, S>,
    op: &Op,
) -> Result<(), EngineError> {
    match op.kind {
        OpKind::Write => e.try_write_request(op.ts_us, op.lba, op.blocks),
        OpKind::Read => e.try_read_request(op.ts_us, op.lba, op.blocks),
        OpKind::Trim => e.try_trim(op.ts_us, op.lba, op.blocks),
    }
}

fn counters_of<P: PlacementPolicy, S: ArraySink>(e: &Lss<P, S>, user_blocks: u64) -> Counters {
    Counters::new(
        user_blocks,
        e.metrics(),
        e.sink().stats(),
        e.memory_bytes() as u64,
        e.policy().memory_bytes() as u64,
    )
}

fn verify_structure<P: PlacementPolicy, S: ArraySink>(e: &Lss<P, S>) -> Vec<String> {
    let mut bad = Vec::new();
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.check_invariants())).is_err() {
        bad.push("check_invariants() panicked".to_string());
    }
    if let Err(err) = e.try_check_recovery() {
        bad.push(format!("try_check_recovery(): {err}"));
    }
    bad
}

struct MemEngine<P: PlacementPolicy, S: ArraySink> {
    lss: Lss<P, S>,
    user_blocks: u64,
}

impl<P: PlacementPolicy + Traceable, S: ArraySink + Traceable> Engine for MemEngine<P, S> {
    fn apply(&mut self, op: &Op) -> Result<(), String> {
        apply_to(&mut self.lss, op).map_err(|e| e.to_string())
    }

    fn flush_all(&mut self) -> Result<(), String> {
        self.lss.try_flush_all().map_err(|e| e.to_string())
    }

    fn counters(&self) -> Counters {
        counters_of(&self.lss, self.user_blocks)
    }

    fn verify(&self) -> Vec<String> {
        let mut bad = verify_structure(&self.lss);
        bad.extend(self.counters().sink_mismatch());
        bad
    }

    fn gc_select_ns(&self) -> u64 {
        self.lss.gc_select_nanos()
    }

    fn take_trace(&mut self) -> Collected {
        let mut c = self.lss.policy_mut().take_trace();
        c.merge(self.lss.sink_mut().take_trace());
        c
    }
}

/// Engine geometry for a `user_blocks`-block volume: 25 % over-provisioning
/// (raised on tiny volumes so GC watermarks + open segments always fit),
/// watermarks 10/14 — the sizing the repo's own replay harness uses.
pub fn lss_config(user_blocks: u64) -> LssConfig {
    let lss = LssConfig::default()
        .with_user_blocks(user_blocks)
        .with_op_ratio(0.25)
        .with_gc_watermarks(10, 14);
    let min_spare = (lss.gc_high_water + 8 + 4) as f64;
    let min_op = min_spare * lss.segment_blocks() as f64 / user_blocks as f64;
    lss.with_op_ratio(lss.op_ratio.max(min_op * 1.05))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// ADAPT as shipped (`Adapt::new`).
    Adapt,
    /// ADAPT with proactive demotion off — see [`adapt`].
    AdaptNoDemotion,
    SepBit,
    SepGc,
}

/// The ADAPT policy for an engine configuration.
///
/// `demotion: false` is `AdaptConfig::without_demotion()`. Every workload
/// in which SLA windows expire runs that way, because full ADAPT has a
/// defect there that fails about 1 seed in 20 of these workloads
/// (`IndexCorruption: shadow source in unexpected state Durable`, then a
/// panic in `Segment::append_slot`): `Lss::shadow_append` lists the home
/// group's pending LBAs, `flush_chunk(target)` allocates an open segment,
/// that allocation runs GC, and GC migrations fill and flush the *home*
/// buffer when demotion has put user blocks into a GC group — the list is
/// stale. With demotion off, user blocks and GC output never share a
/// group. `replay-dense` has no SLA expiry and keeps full ADAPT, so
/// demotion stays measured. README.md has the reproducing seeds.
fn adapt(cfg: &LssConfig, demotion: bool) -> Adapt {
    if demotion {
        Adapt::new(cfg)
    } else {
        Adapt::with_config(cfg, AdaptConfig::for_engine(cfg).without_demotion())
    }
}

fn boxed<P>(policy: P, cfg: LssConfig, ctx: Option<&Arc<Ctx>>) -> Box<dyn Engine>
where
    P: PlacementPolicy + Traceable + 'static,
{
    // Greedy victim selection is the builder's default.
    let sink = CountingArray::new(cfg.array_config());
    let user_blocks = cfg.user_blocks;
    match ctx {
        None => {
            Box::new(MemEngine { lss: Lss::builder(policy, sink).config(cfg).build(), user_blocks })
        }
        Some(c) => Box::new(MemEngine {
            lss: Lss::builder(TracedPolicy::new(policy, c), TracedSink::new(sink, c))
                .config(cfg)
                .build(),
            user_blocks,
        }),
    }
}

/// `Lss` + `scheme` + Greedy over a `CountingArray`; with `ctx`, the
/// policy and the sink are wrapped in the timing decorators.
pub fn mem_engine(scheme: Scheme, user_blocks: u64, ctx: Option<&Arc<Ctx>>) -> Box<dyn Engine> {
    let cfg = lss_config(user_blocks);
    match scheme {
        Scheme::Adapt => boxed(adapt(&cfg, true), cfg, ctx),
        Scheme::AdaptNoDemotion => boxed(adapt(&cfg, false), cfg, ctx),
        Scheme::SepBit => boxed(SepBit::new(), cfg, ctx),
        Scheme::SepGc => boxed(SepGc::new(), cfg, ctx),
    }
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// `ArraySink` decorator: forwards every call, times writes, reads and
/// syncs (every call — a sink call covers a whole chunk).
pub struct TracedSink<S> {
    inner: S,
    probe: Probe,
}

impl<S> TracedSink<S> {
    pub fn new(inner: S, ctx: &Arc<Ctx>) -> Self {
        TracedSink { inner, probe: Probe::new(ctx) }
    }
}

impl<S> Traceable for TracedSink<S> {
    fn take_trace(&mut self) -> Collected {
        self.probe.take()
    }
}

impl<S: ArraySink> ArraySink for TracedSink<S> {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        self.probe.timed(Kind::SinkWrite, NO_REQ, || self.inner.write_chunk(flush))
    }

    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        self.probe.timed(Kind::SinkWrite, NO_REQ, || self.inner.write_chunk_payload(flush, payload))
    }

    fn config(&self) -> &ArrayConfig {
        self.inner.config()
    }

    fn stats(&self) -> &ArrayStats {
        self.inner.stats()
    }

    fn health(&self) -> ArrayHealth {
        self.inner.health()
    }

    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        self.probe.timed(Kind::SinkRead, NO_REQ, || self.inner.read_chunk_at(loc))
    }

    fn scrub_step(&mut self, max_stripes: usize) -> Option<ScrubStep> {
        self.inner.scrub_step(max_stripes)
    }

    fn sync_for_checkpoint(&mut self) -> Result<(), ArrayError> {
        self.probe.timed(Kind::SinkSync, NO_REQ, || self.inner.sync_for_checkpoint())
    }

    fn recover_reconcile(
        &mut self,
        next_chunk_seq: u64,
        tail: &[RecoveredFlush],
    ) -> Result<SinkReconcile, ArrayError> {
        self.inner.recover_reconcile(next_chunk_seq, tail)
    }
}

/// `PlacementPolicy` decorator: forwards every call, counts all of them,
/// reads the clock on 1-in-64 (and on every call inside a sampled op).
pub struct TracedPolicy<P> {
    inner: P,
    probe: Probe,
}

impl<P> TracedPolicy<P> {
    pub fn new(inner: P, ctx: &Arc<Ctx>) -> Self {
        TracedPolicy { inner, probe: Probe::new(ctx) }
    }
}

impl<P> Traceable for TracedPolicy<P> {
    fn take_trace(&mut self) -> Collected {
        self.probe.take()
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn groups(&self) -> &[GroupKind] {
        self.inner.groups()
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        self.probe.sampled(Kind::PolicyPlaceUser, || self.inner.place_user(ctx, lba))
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, victim: &VictimMeta) -> GroupId {
        self.probe.sampled(Kind::PolicyPlaceGc, || self.inner.place_gc(ctx, lba, victim))
    }

    fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        let action =
            self.probe.sampled(Kind::PolicySlaExpire, || self.inner.on_sla_expire(ctx, group));
        if matches!(action, SlaAction::ShadowAppend { .. }) {
            self.probe.count(Kind::PolicyShadowAppend);
        }
        action
    }

    fn on_gc_block_migrated(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        self.probe.sampled(Kind::PolicyLifecycle, || self.inner.on_gc_block_migrated(lba, from, to))
    }

    fn on_segment_sealed(&mut self, ctx: &PolicyCtx, meta: &SegmentMeta) {
        self.probe.sampled(Kind::PolicyLifecycle, || self.inner.on_segment_sealed(ctx, meta))
    }

    fn on_segment_reclaimed(&mut self, ctx: &PolicyCtx, info: &ReclaimInfo) {
        self.probe.sampled(Kind::PolicyLifecycle, || self.inner.on_segment_reclaimed(ctx, info))
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn drain_events(&mut self, out: &mut Vec<PolicyEvent>) {
        self.inner.drain_events(out)
    }
}

/// What a traced shard hands back when its thread ends.
#[derive(Debug, Default)]
pub struct ShardTrace {
    pub collected: Collected,
    pub gc_select_ns: u64,
    /// `(records_appended, bytes_appended, syncs, checkpoints)` from `wal_stats()`.
    pub wal: Option<(u64, u64, u64, u64)>,
}

type ShardTraceCell = Arc<Mutex<Option<ShardTrace>>>;

/// `ShardEngine` decorator around a traced `Lss`: forwards every call the
/// shard thread makes and times it. The n-th apply is the n-th submitted
/// request (one client, one shard), so its span carries that request
/// number — the shard-side half of a request chain — and is the parent of
/// the policy and sink spans recorded inside it.
/// `apply_ops` is deliberately not overridden: the trait's default is the
/// per-op loop over the methods below.
struct TracedShard<P: PlacementPolicy, S: ArraySink> {
    lss: Lss<TracedPolicy<P>, TracedSink<S>>,
    probe: Probe,
    applied: u64,
    /// `probe()` takes `&self`; its (calls, ns) live in a cell.
    metric_probes: Cell<(u64, u64)>,
    out: ShardTraceCell,
}

impl<P: PlacementPolicy, S: ArraySink> TracedShard<P, S> {
    #[inline]
    fn apply(
        &mut self,
        kind: Kind,
        f: impl FnOnce(&mut Lss<TracedPolicy<P>, TracedSink<S>>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let n = self.applied;
        self.applied += 1;
        let lss = &mut self.lss;
        self.probe.scope(kind, n as u32, || f(lss))
    }
}

impl<P: PlacementPolicy + Send, S: ArraySink + Send> ShardEngine for TracedShard<P, S> {
    fn apply_write(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply(Kind::EngineWrite, |e| ShardEngine::apply_write(e, ts_us, lba, blocks))
    }

    fn apply_read(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply(Kind::EngineRead, |e| ShardEngine::apply_read(e, ts_us, lba, blocks))
    }

    fn apply_trim(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply(Kind::EngineTrim, |e| ShardEngine::apply_trim(e, ts_us, lba, blocks))
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        self.probe.timed(Kind::ShardSync, NO_REQ, || ShardEngine::sync(&mut self.lss))
    }

    fn flush_all(&mut self) -> Result<(), EngineError> {
        self.probe.timed(Kind::ShardFlushAll, NO_REQ, || ShardEngine::flush_all(&mut self.lss))
    }

    fn gc_needed(&self) -> bool {
        ShardEngine::gc_needed(&self.lss)
    }

    fn gc_step(&mut self) -> Result<bool, EngineError> {
        self.probe.timed(Kind::ShardGcStep, NO_REQ, || ShardEngine::gc_step(&mut self.lss))
    }

    fn probe(&self) -> MetricsProbe {
        let t0 = Instant::now();
        let p = ShardEngine::probe(&self.lss);
        let (calls, ns) = self.metric_probes.get();
        self.metric_probes.set((calls + 1, ns + t0.elapsed().as_nanos() as u64));
        p
    }

    fn telemetry(&mut self) -> TelemetrySnapshot {
        ShardEngine::telemetry(&mut self.lss)
    }

    fn policy_memory_bytes(&self) -> u64 {
        ShardEngine::policy_memory_bytes(&self.lss)
    }

    fn engine_memory_bytes(&self) -> u64 {
        ShardEngine::engine_memory_bytes(&self.lss)
    }
}

impl<P: PlacementPolicy, S: ArraySink> Drop for TracedShard<P, S> {
    fn drop(&mut self) {
        let mut collected = self.probe.take();
        let (calls, ns) = self.metric_probes.get();
        collected.tallies.0[Kind::ShardProbe as usize] = Tally { calls, timed: calls, ns };
        collected.merge(self.lss.policy_mut().take_trace());
        collected.merge(self.lss.sink_mut().take_trace());
        let trace = ShardTrace {
            collected,
            gc_select_ns: self.lss.gc_select_nanos(),
            wal: self
                .lss
                .wal_stats()
                .map(|w| (w.records_appended, w.bytes_appended, w.syncs, w.checkpoints)),
        };
        // A poisoned cell means the collecting side already panicked.
        if let Ok(mut cell) = self.out.lock() {
            *cell = Some(trace);
        }
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// One shard, one volume. Everything else is the `ServerBuilder` default
/// (queue depth 256, group-commit window 32, 4096-block ranges, 1 µs op
/// clock).
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub blocks: u64,
    /// Ordered replay (deterministic, no idle GC) vs FIFO serving.
    pub ordered: bool,
    /// Sequentially write every block before the server starts.
    pub prefill: bool,
    /// `FileArraySink` + WAL under this directory instead of in-memory.
    pub durable_dir: Option<PathBuf>,
}

/// Flush policy of the durable workloads, stated in the result JSON.
pub const FLUSH_POLICY: &str =
    "wal: FsyncPolicy::GroupCommit(8), fsync_data=false, rotate 1 MiB, checkpoint every 256 flushes; \
     file sink: fsync=false, 256 stripes/file";

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::GroupCommit(8),
        rotate_bytes: 1 << 20,
        checkpoint_every_flushes: 256,
        fsync_data: false,
        budget: None,
    }
}

fn sink_options() -> FileSinkOptions {
    FileSinkOptions { fsync: false, stripes_per_file: 256, budget: None }
}

fn server_builder(spec: &ServeSpec) -> ServerBuilder {
    ServerBuilder::new()
        .shards(1)
        .volume(0, spec.blocks)
        .ordered_replay(spec.ordered)
        .durable(spec.durable_dir.is_some())
}

/// The engine a shard runs: configured, durable when the spec says so,
/// prefilled when it says so.
fn shard_lss<P: PlacementPolicy, S: ArraySink>(
    policy: P,
    sink: S,
    cfg: LssConfig,
    spec: &ServeSpec,
) -> Lss<P, S> {
    let mut b = Lss::builder(policy, sink).config(cfg);
    if let Some(dir) = &spec.durable_dir {
        b = b.durability(dir.join("wal"), durability_config());
    }
    let mut lss = b.build();
    if spec.prefill {
        // Timestamp 0 throughout: no SLA window ever expires, chunks fill.
        for lba in 0..spec.blocks {
            lss.try_write(0, lba).expect("prefill write");
        }
    }
    lss
}

fn shard_engine<S: ArraySink + Send + 'static>(
    cfg: LssConfig,
    sink: S,
    spec: &ServeSpec,
    trace: Option<(&Arc<Ctx>, &ShardTraceCell)>,
) -> Box<dyn ShardEngine> {
    let policy = adapt(&cfg, false);
    let Some((ctx, cell)) = trace else {
        return Box::new(shard_lss(policy, sink, cfg, spec));
    };
    let mut lss = shard_lss(TracedPolicy::new(policy, ctx), TracedSink::new(sink, ctx), cfg, spec);
    // The prefill is state building, not part of the trace.
    lss.policy_mut().take_trace();
    lss.sink_mut().take_trace();
    Box::new(TracedShard {
        lss,
        probe: Probe::new(ctx),
        applied: 0,
        metric_probes: Cell::default(),
        out: Arc::clone(cell),
    })
}

pub struct Serving {
    server: adapt_serve::Server,
    client: adapt_serve::Client,
    blocks: u64,
    trace: ShardTraceCell,
}

pub enum Submitted {
    Accepted(Ticket),
    /// Retryable backpressure (`SubmitError::Busy`).
    Busy,
    Rejected(String),
}

pub struct Ticket(adapt_serve::Ticket);

#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub ok: bool,
    pub lba: u64,
    pub version: u64,
    pub durable: bool,
}

fn done(c: adapt_serve::Completion) -> Done {
    Done { ok: c.result.is_ok(), lba: c.request.lba, version: c.version, durable: c.durable }
}

impl Ticket {
    pub fn poll(&self) -> Option<Done> {
        self.0.poll().map(done)
    }
}

/// Everything known when a server has shut down.
#[derive(Debug)]
pub struct Served {
    pub counters: Counters,
    /// FNV-1a of the serialized merged `TelemetrySnapshot`.
    pub telemetry_fnv: u64,
    pub balanced: bool,
    pub any_failed: bool,
    pub completed: u64,
    pub failed_ops: u64,
    pub syncs: u64,
    pub gc_steps: u64,
    pub applied_ops: u64,
    pub busy_ns: u64,
    pub trace: Option<ShardTrace>,
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

impl Serving {
    /// Start one shard thread over a fresh engine (ADAPT + Greedy).
    pub fn start(spec: &ServeSpec, ctx: Option<&Arc<Ctx>>) -> Result<Serving, String> {
        let builder = server_builder(spec);
        // One shard, so its file sink can be created (and fail) up front.
        let array = builder.shard_plans()[0].lss.array_config();
        let mut file_sink = match &spec.durable_dir {
            Some(dir) => Some(
                FileArraySink::create(array, dir.join("array"), sink_options())
                    .map_err(|e| format!("file sink create: {e}"))?,
            ),
            None => None,
        };
        let cell: ShardTraceCell = Arc::default();
        let trace = ctx.map(|c| (c, &cell));
        let server = builder.start(|plan| match file_sink.take() {
            Some(sink) => shard_engine(plan.lss, sink, spec, trace),
            None => shard_engine(plan.lss, CountingArray::new(array), spec, trace),
        });
        Ok(Serving { client: server.client(), server, blocks: spec.blocks, trace: cell })
    }

    /// `Client::submit`; `seq` is the ordered-replay sequence number.
    #[inline]
    pub fn submit(&self, op: &Op, seq: Option<u64>) -> Submitted {
        let mut r = match op.kind {
            OpKind::Write => Request::write(0, 0, op.lba, op.blocks),
            OpKind::Read => Request::read(0, 0, op.lba, op.blocks),
            OpKind::Trim => Request::trim(0, 0, op.lba, op.blocks),
        };
        if let Some(s) = seq {
            r = r.with_seq(s);
        }
        match self.client.submit(r) {
            Ok(t) => Submitted::Accepted(Ticket(t)),
            Err(SubmitError::Busy { .. }) => Submitted::Busy,
            Err(e) => Submitted::Rejected(e.to_string()),
        }
    }

    /// `Client::wait`: block until the request completes.
    pub fn wait(&self, t: Ticket) -> Done {
        done(self.client.wait(t.0))
    }

    /// `Server::shutdown`: drain, flush, join the shard thread.
    pub fn finish(self) -> Served {
        let Serving { server, client, blocks, trace } = self;
        drop(client);
        let report = server.shutdown();
        let t = report.merged_telemetry();
        let s = &report.shards[0];
        let telemetry_json = serde_json::to_string(&t).expect("telemetry serializes");
        let trace = trace.lock().expect("shard thread joined").take();
        Served {
            counters: Counters::new(
                blocks,
                &t.lss,
                &t.array,
                s.engine_memory_bytes,
                s.policy_memory_bytes,
            ),
            telemetry_fnv: fnv1a(telemetry_json.as_bytes()),
            balanced: report.balanced(),
            any_failed: report.any_failed(),
            completed: s.stats.completed,
            failed_ops: s.stats.failed_ops,
            syncs: s.stats.syncs,
            gc_steps: s.stats.gc_steps,
            applied_ops: s.applied_ops,
            busy_ns: s.busy_ns,
            trace,
        }
    }
}

/// A durable shard engine re-opened from its directory.
pub struct Recovered {
    lss: Lss<Adapt, FileArraySink>,
    pub records_applied: u64,
    pub flushes_replayed: u64,
}

impl Recovered {
    pub fn durable_version(&self, lba: u64) -> Option<u64> {
        self.lss.durable_version(lba)
    }

    /// Structure only: sink counters restart at recovery.
    pub fn verify(&self) -> Vec<String> {
        verify_structure(&self.lss)
    }

    /// One direct `Lss::checkpoint()` (sync WAL and sink, rotate, snapshot,
    /// prune), in ms — what the engine does every 256 flushes.
    pub fn checkpoint_ms(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        self.lss.checkpoint().map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    }
}

/// Cold recovery of the shard `spec` ran: `FileArraySink::open_recovery`
/// + `EngineBuilder::recover`, with the plan the server derives.
pub fn recover(spec: &ServeSpec) -> Result<Recovered, String> {
    let dir = spec.durable_dir.as_ref().ok_or("recover needs a durable spec")?;
    let cfg = server_builder(spec).shard_plans()[0].lss;
    let sink = FileArraySink::open_recovery(cfg.array_config(), dir.join("array"), sink_options())
        .map_err(|e| format!("open_recovery: {e}"))?;
    let (lss, report) = Lss::builder(adapt(&cfg, false), sink)
        .config(cfg)
        .durability(dir.join("wal"), durability_config())
        .recover()
        .map_err(|e| format!("recover: {e}"))?;
    Ok(Recovered {
        lss,
        records_applied: report.records_applied,
        flushes_replayed: report.flushes_replayed,
    })
}

// ---------------------------------------------------------------------
// Direct calls: serve control plane, WAL, kernels, the byte-level array
// ---------------------------------------------------------------------

fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// `ShardRouter::locate` on a one-shard, one-volume table.
pub fn router_locate_ns(blocks: u64) -> f64 {
    let router = ShardRouter::new(1, 4096, &[VolumeSpec { id: 0, blocks }]);
    ns_per_iter(1 << 20, |i| {
        let lba = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % blocks;
        std::hint::black_box(router.locate(0, std::hint::black_box(lba), 1)).expect("in range");
    })
}

/// `TenantGovernor::admit` with admission control on (default config, one
/// tenant) — the serve workloads run with it off, where admit is a branch.
pub fn qos_admit_ns() -> f64 {
    let gov = TenantGovernor::new(QosConfig::default(), [(0, 1.0)]);
    ns_per_iter(1 << 20, |_| {
        let _ = std::hint::black_box(gov.admit(std::hint::black_box(0)));
    })
}

/// Direct `Wal::append` + `Wal::commit` of `records` buffer-append
/// records under the benchmark's flush policy, then `wal::replay_dir`.
/// Returns `(append+commit ns/record, replayed records/s)`.
pub fn wal_direct(dir: &Path, records: u64) -> Result<(f64, f64), String> {
    let mut w = Wal::create(dir, durability_config()).map_err(|e| e.to_string())?;
    let mut failed = None;
    let append_ns = ns_per_iter(records, |i| {
        w.append(&WalRecord::BufferAppend {
            lba: i % 65_536,
            version: i + 1,
            group: 0,
            gc: false,
            needs_sla: true,
        });
        if let Err(e) = w.commit() {
            failed.get_or_insert(e.to_string());
        }
    });
    w.sync().map_err(|e| e.to_string())?;
    if let Some(e) = failed {
        return Err(e);
    }
    drop(w);
    let t0 = Instant::now();
    let replay = wal::replay_dir(dir, 0).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    if replay.records.len() as u64 != records || replay.torn.is_some() {
        return Err(format!("wal replay found {} of {records} records", replay.records.len()));
    }
    Ok((append_ns, records as f64 / secs))
}

fn gibs(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / secs
}

/// `[xor, gf_mul, crc32c, rs_encode(4+2), rs_recover(2 erasures)]` in
/// GiB/s of input, each over 64 KiB buffers for `iters` rounds.
pub fn kernel_gibs(payload: &[u8], iters: u64) -> Result<[f64; 5], String> {
    let chunk = |i: usize| &payload[i * CHUNK_BYTES..(i + 1) * CHUNK_BYTES];
    let mut acc = chunk(0).to_vec();
    let bytes = iters * CHUNK_BYTES as u64;

    let t = Instant::now();
    for i in 0..iters {
        parity::xor_into(&mut acc, chunk(1 + (i % 3) as usize));
    }
    let xor = gibs(bytes, t.elapsed().as_secs_f64());

    let t = Instant::now();
    for i in 0..iters {
        gf256::gf_mul_into(&mut acc, chunk(1 + (i % 3) as usize), 2 + (i % 250) as u8);
    }
    let gf = gibs(bytes, t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut sum = 0u32;
    for i in 0..iters {
        sum ^= crc32c(chunk((i % 4) as usize));
    }
    std::hint::black_box((sum, &acc));
    let crc = gibs(bytes, t.elapsed().as_secs_f64());

    let rs = ReedSolomon::new(4, 2);
    let data: Vec<&[u8]> = (0..4).map(chunk).collect();
    let mut par = vec![vec![0u8; CHUNK_BYTES]; 2];
    let t = Instant::now();
    for _ in 0..iters / 4 {
        rs.encode_into(std::hint::black_box(&data), &mut par).expect("equal-length shards");
    }
    let enc = gibs(iters / 4 * 4 * CHUNK_BYTES as u64, t.elapsed().as_secs_f64());

    // Shards 0 and 1 erased: recover each from data 2, 3 and both parities.
    let survivors: Vec<(usize, &[u8])> =
        vec![(2, data[2]), (3, data[3]), (4, par[0].as_slice()), (5, par[1].as_slice())];
    let mut out = vec![0u8; CHUNK_BYTES];
    let t = Instant::now();
    for i in 0..iters / 4 {
        rs.recover_into(std::hint::black_box(&survivors), (i % 2) as usize, &mut out)
            .expect("k survivors");
    }
    let rec = gibs(iters / 4 * 4 * CHUNK_BYTES as u64, t.elapsed().as_secs_f64());
    for (target, want) in data.iter().enumerate().take(2) {
        rs.recover_into(&survivors, target, &mut out).expect("k survivors");
        if out.as_slice() != *want {
            return Err(format!("rs_recover of shard {target} returned different bytes"));
        }
    }
    Ok([xor, gf, crc, enc, rec])
}

/// `InMemoryArray` in 4+2 geometry behind plain data.
pub struct Store {
    inner: InMemoryArray,
    written: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Loc(ChunkLocation);

#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    pub data_bytes: u64,
    pub parity_bytes: u64,
    pub copy_bytes: u64,
    pub degraded_reads: u64,
    pub rebuilt_chunks: u64,
    pub chunks_scrubbed: u64,
    pub corruptions_detected: u64,
}

impl Store {
    pub const DEVICES: usize = 6;

    pub fn new() -> Store {
        let cfg = ArrayConfig::with_parity(Self::DEVICES, 2, CHUNK_BYTES as u64);
        Store { inner: InMemoryArray::new(cfg), written: 0 }
    }

    /// `ArraySink::write_chunk_payload` of one full user chunk.
    pub fn write(&mut self, payload: &[u8]) -> Loc {
        let flush = ChunkFlush {
            user_bytes: CHUNK_BYTES as u64,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group: 0,
            seg: (self.written / 8) as u32,
            chunk_in_seg: (self.written % 8) as u32,
        };
        self.written += 1;
        Loc(self.inner.write_chunk_payload(flush, payload))
    }

    /// `try_read_chunk` (verify-on-read); `Ok(degraded)` when the bytes
    /// equal `expect`.
    pub fn read_expect(&mut self, loc: Loc, expect: &[u8]) -> Result<bool, String> {
        match self.inner.try_read_chunk(loc.0) {
            Ok((bytes, mode)) if &*bytes == expect => Ok(mode == ReadMode::Reconstructed),
            Ok(_) => Err(format!("chunk at {:?} read back different bytes", loc.0)),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn fail_device(&mut self, device: usize) {
        self.inner.fail_device(device);
    }

    /// `start_rebuild`; returns the stripes the sweep will visit.
    pub fn start_rebuild(&mut self, device: usize) -> Result<u64, String> {
        self.inner.start_rebuild(device).map(|p| p.stripes_total).map_err(|e| e.to_string())
    }

    /// `rebuild_step`; `Ok(true)` when the sweep is complete.
    pub fn rebuild_step(&mut self, max_stripes: usize) -> Result<bool, String> {
        self.inner.rebuild_step(max_stripes).map(|p| p.complete).map_err(|e| e.to_string())
    }

    /// `scrub_step`; returns `(stripes scrubbed, pass complete)`.
    pub fn scrub_step(&mut self, max_stripes: usize) -> (u64, bool) {
        let s = InMemoryArray::scrub_step(&mut self.inner, max_stripes);
        (s.stripes_scrubbed, s.pass_complete)
    }

    pub fn healthy(&self) -> bool {
        self.inner.health_view() == ArrayHealth::Healthy
    }

    pub fn stats(&self) -> StoreStats {
        let s = self.inner.stats();
        StoreStats {
            data_bytes: s.data_bytes(),
            parity_bytes: s.parity_bytes(),
            copy_bytes: s.copy_bytes,
            degraded_reads: s.degraded_reads,
            rebuilt_chunks: s.rebuilt_chunks,
            chunks_scrubbed: s.chunks_scrubbed,
            corruptions_detected: s.corruptions_detected,
        }
    }
}

/// `cpu_features::get().summary()`, for the provenance stamp.
pub fn cpu_features() -> String {
    adapt_array::cpu_features::get().summary()
}
