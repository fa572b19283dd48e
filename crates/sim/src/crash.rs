//! Seedable power-loss simulator.
//!
//! Proves the durability contract end to end: a run on the durable
//! backend ([`FileArraySink`] + WAL) is killed at an exact byte offset of
//! its media write stream — mid-WAL-record, mid-segment-write, or
//! mid-rename, wherever the offset lands — then recovered, and every
//! write acknowledged before the cut must still be readable at (or
//! above) its acknowledged version.
//!
//! One runner, two [`Topology`]s. `Engine` drives a single engine
//! directly with a seeded write + TRIM stream and proves the WAL's
//! contract. `Server` proves the *serving pipeline* preserves it: an ack
//! that travels queue → apply → group-commit barrier → completion slot
//! must still imply durability when power dies at an arbitrary byte of
//! the combined media stream of an N-shard server. Every shard's segment
//! files and WAL draw from one shared [`PowerBudget`] — power is a
//! machine-wide event, so a single cut tears whichever shard happened to
//! be writing — and the doomed run goes through a real client (bounded
//! in-flight window, backpressure retries), keeping exactly the
//! completions that came back `durable && ok`. Recovery rebuilds each
//! shard from the same pure `ServerBuilder::shard_plans` and checks
//! every ack through the router that placed it.
//!
//! The sweep is two-phase. A *golden* run with a metered
//! [`PowerBudget`] records the total bytes the workload writes and the
//! journal of every grant (with its [`WriteTag`]). Crash offsets are then
//! chosen from a seed: uniformly over the whole byte stream, plus
//! targeted samples inside rename, superblock and checkpoint-delta grants
//! (the rarest, most atomicity-sensitive units, which a uniform draw
//! would mostly miss) — including the one-unit grant that separates a
//! checkpoint base's rename from the delta-log truncation after it. Each
//! point reruns the same seeded workload under
//! `PowerBudget::limited(offset)`, recovers with fresh (unlimited)
//! power, and verifies.
//!
//! Under the `Engine` topology every phase is deterministic in
//! (scenario, seed), and the points are independent, so the sweep fans
//! out on the work-stealing pool and the report is bit-identical at any
//! `--jobs` count. A server's byte stream depends on thread interleaving
//! (group-commit barriers fire on queue-empty moments), so its report is
//! not — there the *contract* is checked per run: acks collected in a run
//! are verified against that run's own media state.

use crate::scheme::{Scheme, SchemePolicy};
use adapt_array::{
    ArrayError, FileArraySink, FileSinkError, FileSinkOptions, MediaError, PowerBudget,
    StorageFailure, WriteTag,
};
use adapt_lss::{
    DurabilityConfig, EngineError, FsyncPolicy, Lba, Lss, LssConfig, TelemetrySnapshot, WalError,
};
use adapt_serve::{
    Completion, Request, ServerBuilder, ShardEngine, ShardRouter, VolumeId, VolumeSpec,
};
use adapt_trace::rng::mix64;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the doomed run drives.
#[derive(Debug, Clone)]
pub enum Topology {
    /// One engine, driven directly with seeded writes and TRIMs.
    Engine,
    /// A durable FIFO server, driven write-only through a real client.
    Server(ServerTopology),
}

/// Shape of the server under [`Topology::Server`]. Each shard's engine
/// is sized from [`CrashScenario::lss`] by the server builder.
#[derive(Debug, Clone)]
pub struct ServerTopology {
    /// Shard count (the acceptance gate runs 2).
    pub shards: u32,
    /// Volume sizes in blocks; ids are `0..volumes.len()`.
    pub volumes: Vec<u64>,
    /// Routing-range size in blocks.
    pub range_blocks: u64,
    /// Per-shard queue depth.
    pub queue_depth: u32,
    /// Group-commit window.
    pub window: u32,
}

impl ServerTopology {
    fn specs(&self) -> Vec<VolumeSpec> {
        let spec = |(id, &blocks)| VolumeSpec { id: id as VolumeId, blocks };
        self.volumes.iter().enumerate().map(spec).collect()
    }

    /// The durable server over `base`-shaped engines. Its plans are pure,
    /// so recovery rebuilds the identical shard configurations.
    fn builder(&self, base: LssConfig) -> ServerBuilder {
        let b = ServerBuilder::new()
            .shards(self.shards)
            .queue_depth(self.queue_depth)
            .group_commit_window(self.window)
            .range_blocks(self.range_blocks)
            .engine_config(base)
            .durable(true);
        self.specs().iter().fold(b, |b, v| b.volume(v.id, v.blocks))
    }

    /// The routing function, exactly as the server builds it.
    fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shards, self.range_blocks, &self.specs())
    }

    /// Seeded write-only workload op `i`: uniform single-block writes
    /// over the whole volume set (uniform overwrites maximize GC churn).
    fn op_at(&self, seed: u64, i: u64) -> (VolumeId, u64) {
        let total: u64 = self.volumes.iter().sum();
        let mut g = mix64(seed ^ mix64(i ^ 0x5E17)) % total;
        for (id, blocks) in self.volumes.iter().enumerate() {
            if g < *blocks {
                return (id as VolumeId, g);
            }
            g -= blocks;
        }
        unreachable!("op beyond volume space");
    }
}

/// One seeded crash-sweep scenario.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// Engine configuration (also fixes the array geometry).
    pub lss: LssConfig,
    /// Placement scheme under test.
    pub scheme: Scheme,
    /// What the doomed run drives.
    pub topology: Topology,
    /// Host operations in the seeded workload.
    pub requests: u64,
    /// Master seed: workload, crash offsets, and resume writes all derive
    /// from it.
    pub seed: u64,
    /// Crash offsets drawn uniformly over the golden byte stream.
    pub uniform_points: u32,
    /// Extra offsets sampled inside every rename/superblock grant class.
    pub targeted_per_tag: u32,
    /// WAL sync cadence.
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence in chunk flushes (0 = never — WAL-only).
    pub checkpoint_every_flushes: u64,
    /// WAL rotation threshold in bytes.
    pub rotate_bytes: u64,
    /// Segment-file stripes per device file.
    pub stripes_per_file: u64,
}

impl CrashScenario {
    /// Small, CI-sized scenario: a few thousand operations on a small
    /// volume, enough churn for GC, checkpoints, rotations, and file
    /// rolls to all happen.
    pub fn quick(seed: u64) -> Self {
        Self {
            lss: LssConfig {
                user_blocks: 4096,
                op_ratio: 0.5,
                gc_low_water: 5,
                gc_high_water: 7,
                ..Default::default()
            },
            scheme: Scheme::SepGc,
            topology: Topology::Engine,
            requests: 6_000,
            seed,
            uniform_points: 24,
            targeted_per_tag: 3,
            fsync: FsyncPolicy::GroupCommit(4),
            checkpoint_every_flushes: 64,
            rotate_bytes: 64 * 1024,
            stripes_per_file: 16,
        }
    }

    /// Acceptance-sized scenario: several hundred crash points.
    pub fn standard(seed: u64) -> Self {
        Self { uniform_points: 280, targeted_per_tag: 12, ..Self::quick(seed) }
    }

    /// CI-sized server scenario: two shards, a few thousand writes,
    /// enough churn for GC, checkpoints, and WAL rotation on each shard.
    pub fn quick_server(seed: u64) -> Self {
        Self {
            topology: Topology::Server(ServerTopology {
                shards: 2,
                volumes: vec![6144, 2048],
                range_blocks: 512,
                queue_depth: 64,
                window: 8,
            }),
            requests: 4_000,
            uniform_points: 8,
            targeted_per_tag: 2,
            ..Self::quick(seed)
        }
    }

    fn durability_config(&self, budget: Option<Arc<PowerBudget>>) -> DurabilityConfig {
        DurabilityConfig {
            fsync: self.fsync,
            rotate_bytes: self.rotate_bytes,
            checkpoint_every_flushes: self.checkpoint_every_flushes,
            fsync_data: false,
            budget,
        }
    }

    fn sink_options(&self, budget: Option<Arc<PowerBudget>>) -> FileSinkOptions {
        FileSinkOptions { fsync: false, stripes_per_file: self.stripes_per_file, budget }
    }

    /// Every shard's engine configuration and directory under a point's
    /// `dir`, in shard order (a directly driven engine is shard 0).
    fn shards(&self, dir: &Path) -> Vec<(LssConfig, PathBuf)> {
        match &self.topology {
            Topology::Engine => vec![(self.lss, dir.to_path_buf())],
            Topology::Server(t) => {
                let plans = t.builder(self.lss).shard_plans();
                plans.iter().map(|p| (p.lss, shard_dir(dir, p.shard))).collect()
            }
        }
    }
}

fn shard_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}"))
}

/// Whether an engine error is the simulated power failure itself (the
/// expected way a doomed run ends) rather than a genuine bug. Power loss
/// surfaces through the WAL on commits/checkpoints and through the array
/// on GC-migration reads.
fn is_power_loss(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Wal(WalError::PowerLoss)
            | EngineError::Array(ArrayError::Storage { failure: StorageFailure::PowerLoss })
    )
}

/// One operation of the directly driven workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { lba: u64 },
    Trim { lba: u64, blocks: u32 },
}

/// Deterministic op stream: mostly uniform-random single-block writes
/// (uniform overwrites maximize GC churn on a small volume), with an
/// occasional small TRIM. Timestamp gaps straddle the 100 µs SLA so both
/// full and padded chunk flushes occur.
fn op_at(seed: u64, i: u64, user_blocks: u64) -> (Op, u64) {
    let r = mix64(seed ^ mix64(i));
    let gap_us = r % 40; // dense stream; stragglers pad via trims' gaps
    let op = if r.is_multiple_of(97) {
        let lba = mix64(r) % user_blocks.saturating_sub(8).max(1);
        Op::Trim { lba, blocks: 1 + (mix64(r ^ 1) % 8) as u32 }
    } else {
        Op::Write { lba: mix64(r) % user_blocks }
    };
    (op, gap_us)
}

/// What the doomed run left behind.
#[derive(Debug, Default)]
struct RunOutcome {
    /// Per shard, the `(shard-local lba, version)` pairs acknowledged
    /// durable before the cut.
    acked: Vec<Vec<(u64, u64)>>,
    /// Timestamp of the last TRIM issued over each LBA. Includes the op
    /// that broke the run: its trim record may have reached the WAL
    /// before power died, in which case recovery replayed it.
    trims: HashMap<u64, u64>,
    /// Operations that completed before power failed.
    ops_done: u64,
    /// A failure that is not the power loss itself (always a bug).
    run_error: Option<String>,
}

/// Bring up a fresh durable engine of `lss` shape under `dir` (segment
/// files in `array/`, log in `wal/`), every media write drawing on
/// `budget`. `Ok(None)`: power died while the backend was coming up.
fn durable_engine(
    scn: &CrashScenario,
    lss: LssConfig,
    dir: &Path,
    budget: &Arc<PowerBudget>,
) -> Result<Option<Lss<SchemePolicy, FileArraySink>>, String> {
    let options = scn.sink_options(Some(budget.clone()));
    let sink = match FileArraySink::create(lss.array_config(), dir.join("array"), options) {
        Ok(s) => s,
        Err(FileSinkError::Media(MediaError::PowerLoss)) => return Ok(None),
        Err(e) => return Err(format!("sink create: {e}")),
    };
    if budget.is_tripped() {
        return Ok(None);
    }
    let durability = scn.durability_config(Some(budget.clone()));
    let policy = scn.scheme.policy(&lss);
    Ok(Some(Lss::builder(policy, sink).config(lss).durability(dir.join("wal"), durability).build()))
}

/// The doomed run of [`Topology::Engine`].
fn engine_run(scn: &CrashScenario, dir: &Path, budget: &Arc<PowerBudget>) -> RunOutcome {
    let mut out = RunOutcome { acked: vec![Vec::new()], ..Default::default() };
    let mut engine = match durable_engine(scn, scn.lss, dir, budget) {
        Ok(Some(engine)) => engine,
        Ok(None) => return out,
        Err(e) => {
            out.run_error = Some(e);
            return out;
        }
    };
    let mut ts = 0u64;
    for i in 0..scn.requests {
        let (op, gap) = op_at(scn.seed, i, scn.lss.user_blocks);
        ts += gap;
        let res = match op {
            Op::Write { lba } => engine.try_write(ts, lba),
            Op::Trim { lba, blocks } => {
                out.trims.extend((lba..lba + blocks as u64).map(|l| (l, ts)));
                engine.try_trim(ts, lba, blocks)
            }
        };
        engine.drain_durable_acks(&mut out.acked[0]);
        match res {
            Ok(()) => out.ops_done += 1,
            Err(e) if is_power_loss(&e) => break,
            Err(e) => {
                out.run_error = Some(format!("op {i}: {e}"));
                break;
            }
        }
        if budget.is_tripped() {
            break;
        }
    }
    if !budget.is_tripped() {
        // Park the tail so the byte total covers a final sync +
        // checkpoint too. A limited budget may trip right here —
        // that's still just the crash, not a failure.
        match engine.try_flush_all().and_then(|()| engine.sync_wal()) {
            Ok(()) => {}
            Err(e) if is_power_loss(&e) => {}
            Err(e) => out.run_error = Some(format!("final sync: {e}")),
        }
        engine.drain_durable_acks(&mut out.acked[0]);
    }
    out
}

/// Placeholder engine for a shard whose backend never finished coming up
/// (power died during sink/WAL creation). Every operation fails with the
/// power-loss error, so the shard fail-stops on first contact and
/// clients get completions instead of hangs.
struct DeadEngine;

impl ShardEngine for DeadEngine {
    fn apply_write(&mut self, _ts: u64, _lba: Lba, _blocks: u32) -> Result<(), EngineError> {
        Err(EngineError::Wal(WalError::PowerLoss))
    }
    fn apply_read(&mut self, _ts: u64, _lba: Lba, _blocks: u32) -> Result<(), EngineError> {
        Err(EngineError::Wal(WalError::PowerLoss))
    }
    fn apply_trim(&mut self, _ts: u64, _lba: Lba, _blocks: u32) -> Result<(), EngineError> {
        Err(EngineError::Wal(WalError::PowerLoss))
    }
    fn sync(&mut self) -> Result<(), EngineError> {
        Err(EngineError::Wal(WalError::PowerLoss))
    }
    fn flush_all(&mut self) -> Result<(), EngineError> {
        Err(EngineError::Wal(WalError::PowerLoss))
    }
    fn gc_needed(&self) -> bool {
        false
    }
    fn gc_step(&mut self) -> Result<bool, EngineError> {
        Ok(false)
    }
    fn probe(&self) -> adapt_serve::shard::Probe {
        adapt_serve::shard::Probe::default()
    }
    fn telemetry(&mut self) -> TelemetrySnapshot {
        TelemetrySnapshot::merge(&[])
    }
}

/// The doomed run of [`Topology::Server`]: the seeded workload through a
/// real client, harvesting every completion.
fn server_run(
    scn: &CrashScenario,
    topo: &ServerTopology,
    dir: &Path,
    budget: &Arc<PowerBudget>,
) -> RunOutcome {
    const IN_FLIGHT: usize = 64;
    // Durable file-backed shard engines, all drawing on one power budget.
    let server = topo.builder(scn.lss).start(|plan| {
        match durable_engine(scn, plan.lss, &shard_dir(dir, plan.shard), budget) {
            Ok(Some(engine)) => Box::new(engine),
            Ok(None) => Box::new(DeadEngine),
            Err(e) => panic!("shard {}: {e}", plan.shard),
        }
    });
    let client = server.client();
    let router = topo.router();
    let mut out =
        RunOutcome { acked: vec![Vec::new(); topo.shards as usize], ..Default::default() };
    let mut harvest = |c: Completion| match c.result {
        Ok(()) => {
            out.ops_done += 1;
            if c.durable {
                let at =
                    router.locate(c.request.volume, c.request.lba, 1).expect("acked op must route");
                out.acked[at.shard as usize].push((at.local_lba, c.version));
            }
        }
        // An error completion is the crash itself only once power is gone.
        Err(e) => {
            if !budget.is_tripped() {
                out.run_error = Some(format!("completion failed with power on: {e}"));
            }
        }
    };
    let mut tickets = VecDeque::with_capacity(IN_FLIGHT);
    for i in 0..scn.requests {
        let (volume, lba) = topo.op_at(scn.seed, i);
        let ticket = client
            .submit_backoff(Request::write(0, volume, lba, 1))
            .unwrap_or_else(|e| panic!("doomed-run submission failed: {e}"));
        tickets.push_back(ticket);
        if tickets.len() >= IN_FLIGHT {
            harvest(client.wait(tickets.pop_front().expect("window is full")));
        }
    }
    for t in tickets {
        harvest(client.wait(t));
    }
    if !server.shutdown().balanced() {
        out.run_error = Some("queue accounting lost a completion".to_string());
    }
    out
}

/// Run the scenario's seeded workload under `dir` until it ends or
/// `budget` trips.
fn doomed_run(scn: &CrashScenario, dir: &Path, budget: &Arc<PowerBudget>) -> RunOutcome {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create crash-run dir");
    match &scn.topology {
        Topology::Engine => engine_run(scn, dir, budget),
        Topology::Server(topo) => server_run(scn, topo, dir, budget),
    }
}

/// Verdict for one crash point. Recovery fields aggregate over shards.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CrashPointResult {
    /// Byte offset at which power failed.
    pub offset: u64,
    /// Offset class: "uniform", or the targeted media unit
    /// ("wal_record", "rename", "delta_frame", ...).
    pub class: String,
    /// The media unit the budget tripped inside, if it tripped.
    pub trip_tag: Option<String>,
    /// Operations the doomed run completed.
    pub ops_done: u64,
    /// Writes acknowledged before the cut.
    pub acked: u64,
    /// Acknowledged writes missing (or stale) after recovery, plus every
    /// ack of a shard that failed to recover. Must be 0.
    pub lost_acks: u64,
    /// Whether recovery loaded a checkpoint.
    pub checkpoint_loaded: bool,
    /// Checkpoint delta frames recovery applied on top of the base.
    pub deltas_applied: u64,
    /// The delta log ended in a torn frame (power died inside a delta
    /// append); recovery fell back to the frame before it.
    pub torn_delta: bool,
    /// The delta log held an older generation's frames (power died
    /// between a base rename and the log truncation); they were skipped.
    pub stale_deltas: bool,
    /// Whether the WAL tail was torn (and repaired).
    pub torn_tail: bool,
    /// WAL records replayed.
    pub records_applied: u64,
    /// The first error of the doomed run, recovery, or the post-recovery
    /// checks. A recovery error is benign only for a shard that acked
    /// nothing (power died before its backend finished coming up).
    pub recovery_error: Option<String>,
    /// A recovered engine failed an invariant or recovery self-check, or
    /// panicked. Must be false.
    pub corrupt: bool,
    /// The doomed run hit a non-power-loss error, a completion failed
    /// with power still on, or queue accounting lost one. Must be false.
    pub run_failed: bool,
}

impl CrashPointResult {
    /// Whether this point upholds the durability contract.
    pub fn ok(&self) -> bool {
        !self.run_failed && !self.corrupt && self.lost_acks == 0
    }
}

/// Recover shard `shard` (shaped `lss`, under `dir`) with fresh
/// (unlimited) power and verify its acks.
fn recover_shard(
    scn: &CrashScenario,
    shard: usize,
    lss: LssConfig,
    dir: &Path,
    run: &RunOutcome,
    result: &mut CrashPointResult,
) {
    let acked = &run.acked[shard];
    let recovered =
        FileArraySink::open_recovery(lss.array_config(), dir.join("array"), scn.sink_options(None))
            .map_err(|e| format!("sink: {e}"))
            .and_then(|sink| {
                Lss::builder(scn.scheme.policy(&lss), sink)
                    .config(lss)
                    .durability(dir.join("wal"), scn.durability_config(None))
                    .recover()
                    .map_err(|e| e.to_string())
            });
    let (mut engine, report) = match recovered {
        Ok(pair) => pair,
        Err(e) => {
            result.recovery_error.get_or_insert(format!("shard {shard}: {e}"));
            result.lost_acks += acked.len() as u64;
            return;
        }
    };
    result.checkpoint_loaded |= report.checkpoint_loaded;
    result.deltas_applied += report.deltas_applied;
    result.torn_delta |= report.torn_delta;
    result.stale_deltas |= report.stale_deltas;
    result.torn_tail |= report.torn_tail.is_some();
    result.records_applied += report.records_applied;
    // Ground truth: every acknowledged write survived at (or above)
    // its acknowledged version. GC/overwrites may have bumped the
    // version — monotone per LBA — but it can never go backwards, and
    // an LBA may only vanish via a logged TRIM (which recovery
    // replayed; its version entry is gone, so `durable_version`
    // returning `None` for a *still-acked* pair is loss).
    let mut newest: HashMap<u64, u64> = HashMap::new();
    for &(lba, version) in acked {
        let e = newest.entry(lba).or_insert(version);
        *e = (*e).max(version);
    }
    for (&lba, &version) in &newest {
        let ok = match engine.durable_version(lba) {
            Some(v) => v >= version,
            // A trim at-or-after the acked write legitimately erased
            // it; anything else is loss. (A trim *before* the write
            // can't land here: the write would still be mapped.)
            None => run.trims.get(&lba).is_some_and(|&t| t >= version),
        };
        if !ok {
            result.lost_acks += 1;
        }
    }
    // Structural self-checks, then prove the engine is usable by
    // running fresh traffic through it.
    let verify = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.check_invariants();
        engine.try_check_recovery()?;
        let mut ts = engine.now_us();
        for i in 0..4 * lss.chunk_blocks as u64 {
            let lba = mix64(scn.seed ^ 0xD15C ^ i) % lss.user_blocks;
            ts += 1;
            engine.try_write(ts, lba)?;
        }
        engine.try_flush_all()?;
        engine.sync_wal()?;
        engine.check_invariants();
        Ok::<(), EngineError>(())
    }));
    let failed = match verify {
        Ok(Ok(())) => return,
        Ok(Err(e)) => format!("shard {shard} post-recovery: {e}"),
        Err(_) => format!("shard {shard} panicked in post-recovery checks"),
    };
    result.corrupt = true;
    result.recovery_error.get_or_insert(failed);
}

/// Run one crash point: doomed run under `PowerBudget::limited(offset)`,
/// then recover every shard with unlimited power and verify. The point
/// directory is removed afterwards unless the point failed (the debris
/// is the best debugging artifact there is).
pub fn crash_point(scn: &CrashScenario, dir: &Path, offset: u64, class: &str) -> CrashPointResult {
    let budget = PowerBudget::limited(offset);
    let run = doomed_run(scn, dir, &budget);
    let mut result = CrashPointResult {
        offset,
        class: class.to_string(),
        trip_tag: budget.trip_tag().map(|t| format!("{t:?}")),
        ops_done: run.ops_done,
        acked: run.acked.iter().map(|a| a.len() as u64).sum(),
        run_failed: run.run_error.is_some(),
        ..Default::default()
    };
    if let Some(e) = &run.run_error {
        result.recovery_error = Some(format!("doomed run: {e}"));
        return result;
    }
    for (shard, (lss, dir)) in scn.shards(dir).into_iter().enumerate() {
        recover_shard(scn, shard, lss, &dir, &run, &mut result);
    }
    if result.ok() {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

/// Aggregated sweep report.
#[derive(Debug, Clone, Serialize)]
pub struct CrashSweepReport {
    /// Scheme swept.
    pub scheme: String,
    /// Array geometry label (`"k+m"`, e.g. `"3+1"` or `"6+2"`).
    pub geometry: String,
    /// Master seed.
    pub seed: u64,
    /// Sync policy label.
    pub fsync: String,
    /// Total bytes the golden (uncut) run wrote.
    pub golden_bytes: u64,
    /// Writes the golden run acknowledged.
    pub golden_acked: u64,
    /// Crash points executed.
    pub points: u64,
    /// Points upholding the contract.
    pub clean: u64,
    /// Acknowledged-write losses across all points. Must be 0.
    pub lost_acks_total: u64,
    /// Points whose recovered engine failed a self-check. Must be 0.
    pub corrupt_points: u64,
    /// Points that recovered from a checkpoint.
    pub with_checkpoint: u64,
    /// Points that recovered through a base plus at least one delta.
    pub with_deltas: u64,
    /// Points that fell back past a torn delta frame.
    pub with_torn_delta: u64,
    /// Points that skipped an older generation's delta frames.
    pub with_stale_deltas: u64,
    /// Points with a torn WAL tail.
    pub with_torn_tail: u64,
    /// Coverage: points per tripped media unit (`WriteTag`).
    pub trip_tags: Vec<(String, u64)>,
    /// Every failing point, offset-sorted (empty on a clean sweep).
    pub failures: Vec<CrashPointResult>,
}

impl CrashSweepReport {
    /// Whether the whole sweep upholds the durability contract.
    pub fn clean_sweep(&self) -> bool {
        self.points > 0 && self.clean == self.points
    }
}

/// Pick the sweep's crash offsets from the golden run's byte total and
/// grant journal: `uniform_points` seeded-uniform offsets, plus up to
/// `targeted_per_tag` offsets landing inside each media-unit class
/// (sampled mid-grant, where torn-write atomicity is on the line).
/// Targeting guarantees the sweep cuts mid-WAL-record, mid-segment-write,
/// mid-rename, mid-superblock, mid-checkpoint-delta and between a base
/// rename and the delta-log truncation even though sink data dominates
/// the byte stream.
fn pick_offsets(
    seed: u64,
    uniform_points: u32,
    targeted_per_tag: u32,
    total: u64,
    journal: &[(WriteTag, u64)],
) -> Vec<(String, u64)> {
    let mut offsets = Vec::new();
    for k in 0..uniform_points as u64 {
        let off = 1 + mix64(seed ^ 0xC4A5 ^ k) % total.max(1);
        offsets.push(("uniform".to_string(), off));
    }
    // A delta-log grant is a frame append, or — one unit — the truncation
    // that follows a new base's rename.
    type Class = (&'static str, WriteTag, fn(u64) -> bool);
    let classes: [Class; 6] = [
        ("wal_record", WriteTag::WalRecord, |_| true),
        ("sink_record", WriteTag::SinkRecord, |_| true),
        ("rename", WriteTag::Rename, |_| true),
        ("superblock", WriteTag::Superblock, |_| true),
        ("delta_frame", WriteTag::CheckpointDelta, |bytes| bytes > 1),
        ("delta_reset", WriteTag::CheckpointDelta, |bytes| bytes == 1),
    ];
    for (class, tag, wanted) in classes {
        let mut grants = Vec::new();
        let mut cum = 0u64;
        for &(t, bytes) in journal {
            if t == tag && bytes > 0 && wanted(bytes) {
                grants.push((cum, bytes));
            }
            cum += bytes;
        }
        if grants.is_empty() {
            continue;
        }
        for k in 0..targeted_per_tag as u64 {
            let (start, len) = grants[(mix64(seed ^ 0x7A9 ^ k) % grants.len() as u64) as usize];
            // A budget of `b` trips at this grant iff start <= b < start
            // + len: the unit is mid-write (or, for 1-byte rename units,
            // about to be dropped) when power dies.
            offsets.push((class.to_string(), start + mix64(seed ^ k) % len));
        }
    }
    offsets.sort();
    offsets.dedup();
    offsets
}

/// One directory per crash point. [`pick_offsets`] dedups on `(class,
/// offset)`, so two classes can draw the same offset: the class is part
/// of the name, or two pool tasks would wipe and fill one directory at
/// the same time.
fn point_dirs(base_dir: &Path, offsets: Vec<(String, u64)>) -> Vec<(String, u64, PathBuf)> {
    offsets
        .into_iter()
        .map(|(class, off)| {
            let dir = base_dir.join(format!("pt_{class}_{off}"));
            (class, off, dir)
        })
        .collect()
}

/// Run the full sweep under `base_dir` (one subdirectory per point,
/// removed as points pass). Points fan out on the work-stealing pool;
/// under [`Topology::Engine`] the report is deterministic in (scenario,
/// seed) at any job count.
pub fn run_crash_sweep(scn: &CrashScenario, base_dir: &Path) -> CrashSweepReport {
    // Phase 1: golden metered run — byte total + grant journal.
    let golden_dir = base_dir.join("golden");
    let budget = PowerBudget::metered();
    let golden = doomed_run(scn, &golden_dir, &budget);
    assert!(golden.run_error.is_none(), "golden run failed: {:?}", golden.run_error);
    let total = budget.consumed();
    let journal = budget.journal();
    let _ = std::fs::remove_dir_all(&golden_dir);

    // Phase 2: the seeded points, in parallel.
    let offsets = pick_offsets(scn.seed, scn.uniform_points, scn.targeted_per_tag, total, &journal);
    let dirs = point_dirs(base_dir, offsets);
    let mut points: Vec<CrashPointResult> =
        dirs.par_iter().map(|(class, off, dir)| crash_point(scn, dir, *off, class)).collect();
    points.sort_by_key(|p| p.offset);

    let mut tags: BTreeMap<String, u64> = BTreeMap::new();
    for p in &points {
        if let Some(t) = &p.trip_tag {
            *tags.entry(t.clone()).or_insert(0) += 1;
        }
    }
    CrashSweepReport {
        scheme: scn.scheme.name().to_string(),
        geometry: scn.lss.array_config().geometry().label(),
        seed: scn.seed,
        fsync: scn.fsync.label(),
        golden_bytes: total,
        golden_acked: golden.acked.iter().map(|a| a.len() as u64).sum(),
        points: points.len() as u64,
        clean: points.iter().filter(|p| p.ok()).count() as u64,
        lost_acks_total: points.iter().map(|p| p.lost_acks).sum(),
        corrupt_points: points.iter().filter(|p| p.corrupt).count() as u64,
        with_checkpoint: points.iter().filter(|p| p.checkpoint_loaded).count() as u64,
        with_deltas: points.iter().filter(|p| p.deltas_applied > 0).count() as u64,
        with_torn_delta: points.iter().filter(|p| p.torn_delta).count() as u64,
        with_stale_deltas: points.iter().filter(|p| p.stale_deltas).count() as u64,
        with_torn_tail: points.iter().filter(|p| p.torn_tail).count() as u64,
        trip_tags: tags.into_iter().collect(),
        failures: points.into_iter().filter(|p| !p.ok()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adapt_crash_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn quick_sweep_is_clean_and_covers_tags() {
        let scn = CrashScenario::quick(0xC0FFEE);
        let dir = tdir("quick");
        let report = run_crash_sweep(&scn, &dir);
        assert!(
            report.clean_sweep(),
            "crash sweep lost data: {} failures, first: {:?}",
            report.failures.len(),
            report.failures.first()
        );
        assert_eq!(report.lost_acks_total, 0);
        assert_eq!(report.corrupt_points, 0);
        assert!(report.golden_acked > 0);
        assert!(report.with_torn_tail > 0, "no point cut the WAL mid-record: {report:?}");
        assert!(report.with_deltas > 0, "no point recovered through base + delta: {report:?}");
        assert!(report.with_torn_delta > 0, "no point cut a delta frame: {report:?}");
        assert!(report.with_stale_deltas > 0, "no point cut rename → truncation: {report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cadence_8_sweep_crosses_folds_cleanly() {
        // A checkpoint every 8 flushes: dozens of deltas and several
        // folds in the golden stream, so uniform cuts land after folds
        // and targeted ones inside them.
        let scn = CrashScenario {
            checkpoint_every_flushes: 8,
            uniform_points: 12,
            ..CrashScenario::quick(0xF01D)
        };
        let dir = tdir("cadence8");
        let report = run_crash_sweep(&scn, &dir);
        assert!(report.clean_sweep(), "first failure: {:?}", report.failures.first());
        assert!(report.with_deltas > 0 && report.with_torn_delta > 0, "{report:?}");
        assert!(report.with_stale_deltas > 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raid6_sweep_survives_power_loss_too() {
        // Same durability contract under a 6-device, double-parity
        // geometry: the WAL/segment-file formats and recovery are
        // geometry-agnostic, so a seeded cut sweep must stay clean.
        let mut scn =
            CrashScenario { uniform_points: 8, targeted_per_tag: 2, ..CrashScenario::quick(0xEC) };
        scn.lss = scn.lss.with_geometry(6, 2);
        let dir = tdir("raid6");
        let report = run_crash_sweep(&scn, &dir);
        assert_eq!(report.geometry, "4+2");
        assert!(
            report.clean_sweep(),
            "raid6 crash sweep lost data: {} failures, first: {:?}",
            report.failures.len(),
            report.failures.first()
        );
        assert!(report.golden_acked > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let scn =
            CrashScenario { uniform_points: 6, targeted_per_tag: 2, ..CrashScenario::quick(7) };
        let d1 = tdir("det1");
        let d2 = tdir("det2");
        let r1 = rayon::with_jobs(1, || run_crash_sweep(&scn, &d1));
        let r2 = rayon::with_jobs(4, || run_crash_sweep(&scn, &d2));
        assert_eq!(crate::report::to_json(&r1), crate::report::to_json(&r2));
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    #[test]
    fn single_point_mid_stream_reports_faithfully() {
        let scn = CrashScenario::quick(42);
        let dir = tdir("single");
        let p = crash_point(&scn, &dir.join("pt"), 200_000, "uniform");
        assert!(p.ok(), "{p:?}");
        assert!(p.acked > 0, "mid-stream cut must land after some acks: {p:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_offsets_get_distinct_point_dirs() {
        use std::collections::HashSet;
        // A 12-byte stream and 40 uniform draws: classes must share
        // offsets, and every point still needs a directory of its own.
        let journal = [(WriteTag::WalRecord, 4), (WriteTag::SinkRecord, 4), (WriteTag::Rename, 4)];
        let offsets = pick_offsets(9, 40, 8, 12, &journal);
        let drawn: HashSet<u64> = offsets.iter().map(|&(_, off)| off).collect();
        assert!(drawn.len() < offsets.len(), "no two classes drew one offset: {offsets:?}");
        let dirs = point_dirs(Path::new("sweep"), offsets);
        let names: HashSet<&PathBuf> = dirs.iter().map(|(.., dir)| dir).collect();
        assert_eq!(names.len(), dirs.len(), "two points share a directory: {dirs:?}");
    }

    #[test]
    fn two_shard_sweep_has_zero_acked_write_loss() {
        let scn = CrashScenario::quick_server(0x5EAC);
        let dir = tdir("serve_quick");
        let report = run_crash_sweep(&scn, &dir);
        assert!(
            report.clean_sweep(),
            "serve crash sweep failed: lost={} corrupt={} failures={:#?}",
            report.lost_acks_total,
            report.corrupt_points,
            report.failures
        );
        assert!(report.golden_acked > 0, "golden run must ack writes");
        // Thread interleaving moves the byte stream between runs, so a
        // targeted offset need not land in the same grant twice; some
        // shard recovering through or past a delta is the robust claim.
        assert!(
            report.with_deltas + report.with_torn_delta + report.with_stale_deltas > 0,
            "no shard recovered through a checkpoint delta: {:?}",
            report.trip_tags
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_engine_fails_without_hanging() {
        // Offset 1: power is gone before either shard's backend exists.
        // Every submission must still complete (with errors), queues must
        // balance, and nothing may be acked.
        let scn = CrashScenario::quick_server(0xDEAD);
        let dir = tdir("serve_dead");
        let r = crash_point(&scn, &dir, 1, "uniform");
        assert_eq!(r.acked, 0);
        assert!(!r.run_failed, "completions must balance even with dead shards: {r:?}");
        assert_eq!(r.lost_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
