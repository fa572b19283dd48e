//! Power-loss sweep against a sharded durable server.
//!
//! The engine-level sweep ([`crate::crash`]) proves the WAL's durability
//! contract; this one proves the *serving pipeline* preserves it: an ack
//! that travels queue → apply → group-commit barrier → completion slot
//! must still imply durability when power dies at an arbitrary byte of
//! the combined media stream of a multi-shard server.
//!
//! Both shards' segment files and WALs draw from one shared
//! [`PowerBudget`] — power is a machine-wide event, so a single cut
//! tears whichever shard happened to be writing. The doomed run drives a
//! seeded write-only workload through a real [`Client`] (bounded
//! in-flight window, backpressure retries) and records exactly the
//! completions that came back `durable && ok`. Recovery then rebuilds
//! each shard from the *same pure* [`ServerBuilder::shard_plans`], opens
//! its sink and WAL with fresh power, and checks every acked `(volume,
//! lba, version)` against `durable_version` through the same router that
//! placed it. Zero acknowledged-write loss, at every crash point.
//!
//! Unlike the engine-level sweep, the byte stream depends on thread
//! interleaving (group-commit barriers fire on queue-empty moments), so
//! the report is not bit-identical across runs — the *contract* is
//! checked per run: acks collected in a run are verified against that
//! run's own media state.

use crate::crash::pick_offsets;
use crate::scheme::{with_policy, PolicyVisitor, Scheme};
use adapt_array::{FileArraySink, FileSinkError, FileSinkOptions, MediaError, PowerBudget};
use adapt_lss::{
    DurabilityConfig, EngineError, FsyncPolicy, Lba, Lss, LssConfig, PlacementPolicy,
    TelemetrySnapshot, WalError,
};
use adapt_serve::{Request, Server, ServerBuilder, ShardEngine, ShardPlan, VolumeId};
use adapt_trace::rng::mix64;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One seeded serve-level crash sweep.
#[derive(Debug, Clone)]
pub struct ServeCrashScenario {
    /// Engine template (per-shard `user_blocks` derived by the builder).
    pub base: LssConfig,
    /// Placement scheme every shard runs.
    pub scheme: Scheme,
    /// Shard count (the acceptance gate runs 2).
    pub shards: u32,
    /// Volume sizes in blocks; ids are `0..volumes.len()`.
    pub volumes: Vec<u64>,
    /// Routing-range size in blocks.
    pub range_blocks: u64,
    /// Write requests the doomed workload submits.
    pub requests: u64,
    /// Master seed.
    pub seed: u64,
    /// Uniform crash offsets over the golden byte stream.
    pub uniform_points: u32,
    /// Extra offsets targeted inside each media-unit class.
    pub targeted_per_tag: u32,
    /// WAL sync cadence.
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence in chunk flushes.
    pub checkpoint_every_flushes: u64,
    /// WAL rotation threshold in bytes.
    pub rotate_bytes: u64,
    /// Segment-file stripes per device file.
    pub stripes_per_file: u64,
    /// Per-shard queue depth.
    pub queue_depth: u32,
    /// Group-commit window.
    pub window: u32,
}

impl ServeCrashScenario {
    /// CI-sized scenario: a 2-shard server, a few thousand writes,
    /// enough churn for GC, checkpoints, and WAL rotation on each shard.
    pub fn quick(seed: u64) -> Self {
        Self {
            base: LssConfig {
                op_ratio: 0.5,
                gc_low_water: 5,
                gc_high_water: 7,
                ..Default::default()
            },
            scheme: Scheme::SepGc,
            shards: 2,
            volumes: vec![6144, 2048],
            range_blocks: 512,
            requests: 4_000,
            seed,
            uniform_points: 8,
            targeted_per_tag: 2,
            fsync: FsyncPolicy::GroupCommit(4),
            checkpoint_every_flushes: 64,
            rotate_bytes: 64 * 1024,
            stripes_per_file: 16,
            queue_depth: 64,
            window: 8,
        }
    }

    /// Acceptance-sized scenario.
    pub fn standard(seed: u64) -> Self {
        Self { uniform_points: 48, targeted_per_tag: 6, ..Self::quick(seed) }
    }

    /// The durable FIFO server this scenario runs (plans are pure, so
    /// recovery rebuilds the identical shard configurations).
    pub fn server_builder(&self) -> ServerBuilder {
        let mut b = ServerBuilder::new()
            .shards(self.shards)
            .queue_depth(self.queue_depth)
            .group_commit_window(self.window)
            .range_blocks(self.range_blocks)
            .engine_config(self.base)
            .durable(true);
        for (id, blocks) in self.volumes.iter().enumerate() {
            b = b.volume(id as VolumeId, *blocks);
        }
        b
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

    /// Seeded write-only workload op `i`: uniform single-block writes
    /// over the whole volume set (uniform overwrites maximize GC churn).
    fn op_at(&self, i: u64) -> (VolumeId, u64) {
        let total: u64 = self.volumes.iter().sum();
        let mut g = mix64(self.seed ^ mix64(i ^ 0x5E17)) % total;
        for (id, blocks) in self.volumes.iter().enumerate() {
            if g < *blocks {
                return (id as VolumeId, g);
            }
            g -= blocks;
        }
        unreachable!("op beyond volume space");
    }
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

fn shard_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}"))
}

/// Start the scenario's server over durable file-backed shards, all
/// drawing from one shared power budget.
fn start_durable(scn: &ServeCrashScenario, dir: &Path, budget: Option<Arc<PowerBudget>>) -> Server {
    let scheme = scn.scheme;
    let scn = scn.clone();
    let dir = dir.to_path_buf();
    scn.clone().server_builder().start(move |plan| {
        let d = shard_dir(&dir, plan.shard);
        let sink = match FileArraySink::create(
            plan.lss.array_config(),
            d.join("array"),
            scn.sink_options(budget.clone()),
        ) {
            Ok(s) => s,
            Err(FileSinkError::Media(MediaError::PowerLoss)) => return Box::new(DeadEngine),
            Err(e) => panic!("shard {} sink create: {e}", plan.shard),
        };
        if budget.as_deref().is_some_and(PowerBudget::is_tripped) {
            return Box::new(DeadEngine);
        }
        struct Build<'a> {
            sink: FileArraySink,
            plan: &'a ShardPlan,
            dur: DurabilityConfig,
            wal_dir: PathBuf,
        }
        impl PolicyVisitor<Box<dyn ShardEngine>> for Build<'_> {
            fn visit<P: PlacementPolicy + Send + 'static>(self, policy: P) -> Box<dyn ShardEngine> {
                Box::new(
                    Lss::builder(policy, self.sink)
                        .config(self.plan.lss)
                        .durability(self.wal_dir, self.dur)
                        .build(),
                )
            }
        }
        with_policy(
            scheme,
            &plan.lss,
            Build {
                sink,
                plan,
                dur: scn.durability_config(budget.clone()),
                wal_dir: d.join("wal"),
            },
        )
    })
}

/// What the doomed run left behind.
#[derive(Debug, Default)]
struct RunOutcome {
    /// `(volume, lba, version)` triples acked `durable && ok`.
    acked: Vec<(VolumeId, u64, u64)>,
    /// Completions that came back with an error.
    errored: u64,
    /// Queue accounting balanced on every shard (must always hold).
    balanced: bool,
    /// An error completion arrived while power was still on (a bug).
    premature_error: bool,
}

/// Drive the seeded workload through a real client against `server`,
/// harvesting every completion.
fn doomed_run(
    scn: &ServeCrashScenario,
    server: Server,
    budget: Option<Arc<PowerBudget>>,
) -> RunOutcome {
    const IN_FLIGHT: usize = 64;
    let client = server.client();
    let mut out = RunOutcome::default();
    let mut tickets = VecDeque::with_capacity(IN_FLIGHT);
    let harvest = |c: adapt_serve::Completion, out: &mut RunOutcome| match c.result {
        Ok(()) => {
            if c.durable {
                out.acked.push((c.request.volume, c.request.lba, c.version));
            }
        }
        Err(_) => {
            out.errored += 1;
            if budget.as_deref().is_none_or(|b| !b.is_tripped()) {
                out.premature_error = true;
            }
        }
    };
    for i in 0..scn.requests {
        let (volume, lba) = scn.op_at(i);
        match client.submit_backoff(Request::write(0, volume, lba, 1)) {
            Ok(t) => tickets.push_back(t),
            Err(e) => panic!("doomed-run submission failed: {e}"),
        }
        if tickets.len() >= IN_FLIGHT {
            let t = tickets.pop_front().unwrap();
            harvest(client.wait(t), &mut out);
        }
    }
    for t in tickets {
        harvest(client.wait(t), &mut out);
    }
    let report = server.shutdown();
    out.balanced = report.balanced();
    out
}

/// Verdict for one serve-level crash point.
#[derive(Debug, Clone, Serialize)]
pub struct ServeCrashPointResult {
    /// Byte offset at which power failed.
    pub offset: u64,
    /// Offset class ("uniform", "wal_record", ...).
    pub class: String,
    /// The media unit the budget tripped inside, if it tripped.
    pub trip_tag: Option<String>,
    /// Writes acked `durable && ok` before the cut.
    pub acked: u64,
    /// Acked writes missing or stale after recovery. Must be 0.
    pub lost_acks: u64,
    /// Shards that recovered cleanly.
    pub shards_recovered: u32,
    /// Shards that recovered through a checkpoint base plus deltas.
    pub shards_through_deltas: u32,
    /// Shards that fell back past a torn delta frame or skipped an older
    /// generation's frames (power died inside a checkpoint).
    pub shards_past_cut_checkpoint: u32,
    /// Queue accounting stayed balanced through the crash. Must be true.
    pub balanced: bool,
    /// A completion errored while power was still on. Must be false.
    pub premature_error: bool,
    /// A recovered shard failed an invariant / self-check. Must be false.
    pub corrupt: bool,
    /// Recovery errors (benign only for shards that acked nothing).
    pub recovery_errors: Vec<String>,
}

impl ServeCrashPointResult {
    /// Whether this point upholds the serving durability contract.
    pub fn ok(&self) -> bool {
        self.lost_acks == 0
            && self.balanced
            && !self.premature_error
            && !self.corrupt
            && (self.recovery_errors.is_empty() || self.acked == 0)
    }
}

/// Recover one shard with fresh power and verify the acks routed to it.
struct RecoverShard<'a> {
    scn: &'a ServeCrashScenario,
    plan: &'a ShardPlan,
    dir: &'a Path,
    /// `(local_lba, version)` pairs this shard acked.
    acked: &'a [(u64, u64)],
    result: &'a mut ServeCrashPointResult,
}

impl PolicyVisitor<()> for RecoverShard<'_> {
    fn visit<P: PlacementPolicy + Send + 'static>(self, policy: P) {
        let RecoverShard { scn, plan, dir, acked, result } = self;
        let d = shard_dir(dir, plan.shard);
        let sink = match FileArraySink::open_recovery(
            plan.lss.array_config(),
            d.join("array"),
            scn.sink_options(None),
        ) {
            Ok(s) => s,
            Err(e) => {
                result.recovery_errors.push(format!("shard {} sink: {e}", plan.shard));
                result.lost_acks += acked.len() as u64;
                return;
            }
        };
        let recovered = Lss::builder(policy, sink)
            .config(plan.lss)
            .durability(d.join("wal"), scn.durability_config(None))
            .recover();
        let (mut engine, report) = match recovered {
            Ok(pair) => pair,
            Err(e) => {
                result.recovery_errors.push(format!("shard {}: {e}", plan.shard));
                result.lost_acks += acked.len() as u64;
                return;
            }
        };
        result.shards_through_deltas += u32::from(report.deltas_applied > 0);
        result.shards_past_cut_checkpoint += u32::from(report.torn_delta || report.stale_deltas);
        for &(local, version) in acked {
            // Write-only workload: an acked write may only move forward
            // (overwrites bump the version); it may never vanish.
            if engine.durable_version(local).is_none_or(|v| v < version) {
                result.lost_acks += 1;
            }
        }
        // Structural self-checks + fresh traffic, as the engine sweep.
        let verify = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.check_invariants();
            engine.try_check_recovery()?;
            let mut ts = engine.now_us();
            for i in 0..2 * plan.lss.chunk_blocks as u64 {
                let lba = mix64(scn.seed ^ 0xD15C ^ i) % plan.lss.user_blocks;
                ts += 1;
                engine.try_write(ts, lba)?;
            }
            engine.try_flush_all()?;
            engine.sync_wal()?;
            engine.check_invariants();
            Ok::<(), EngineError>(())
        }));
        match verify {
            Ok(Ok(())) => result.shards_recovered += 1,
            Ok(Err(e)) => {
                result.corrupt = true;
                result.recovery_errors.push(format!("shard {} post-recovery: {e}", plan.shard));
            }
            Err(_) => {
                result.corrupt = true;
                result
                    .recovery_errors
                    .push(format!("shard {} panicked in post-recovery checks", plan.shard));
            }
        }
    }
}

/// Run one serve-level crash point: doomed run under
/// `PowerBudget::limited(offset)` shared by both shards, then per-shard
/// recovery with fresh power and ack verification.
pub fn serve_crash_point(
    scn: &ServeCrashScenario,
    dir: &Path,
    offset: u64,
    class: &str,
) -> ServeCrashPointResult {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create crash-point dir");
    let budget = PowerBudget::limited(offset);
    let server = start_durable(scn, dir, Some(budget.clone()));
    let run = doomed_run(scn, server, Some(budget.clone()));

    let mut result = ServeCrashPointResult {
        offset,
        class: class.to_string(),
        trip_tag: budget.trip_tag().map(|t| format!("{t:?}")),
        acked: run.acked.len() as u64,
        lost_acks: 0,
        shards_recovered: 0,
        shards_through_deltas: 0,
        shards_past_cut_checkpoint: 0,
        balanced: run.balanced,
        premature_error: run.premature_error,
        corrupt: false,
        recovery_errors: Vec::new(),
    };

    // Route each acked (volume, lba) back to (shard, local_lba) with the
    // same pure plans + router the server used.
    let builder = scn.server_builder();
    let plans = builder.shard_plans();
    let probe = scenario_router(scn);
    let mut per_shard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); scn.shards as usize];
    for &(volume, lba, version) in &run.acked {
        let routed = probe.locate(volume, lba, 1).expect("acked op must route");
        per_shard[routed.shard as usize].push((routed.local_lba, version));
    }
    for plan in &plans {
        with_policy(
            scn.scheme,
            &plan.lss,
            RecoverShard {
                scn,
                plan,
                dir,
                acked: &per_shard[plan.shard as usize],
                result: &mut result,
            },
        );
    }
    if result.ok() {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

/// The routing function, reconstructed exactly as the server builds it.
fn scenario_router(scn: &ServeCrashScenario) -> adapt_serve::ShardRouter {
    let specs: Vec<adapt_serve::VolumeSpec> = scn
        .volumes
        .iter()
        .enumerate()
        .map(|(id, blocks)| adapt_serve::VolumeSpec { id: id as VolumeId, blocks: *blocks })
        .collect();
    adapt_serve::ShardRouter::new(scn.shards, scn.range_blocks, &specs)
}

/// Aggregated serve-level sweep report.
#[derive(Debug, Clone, Serialize)]
pub struct ServeCrashReport {
    /// Scheme swept.
    pub scheme: String,
    /// Shards per server.
    pub shards: u32,
    /// Master seed.
    pub seed: u64,
    /// Total bytes the golden (uncut) run wrote across both shards.
    pub golden_bytes: u64,
    /// Writes the golden run acked.
    pub golden_acked: u64,
    /// Crash points executed.
    pub points: u64,
    /// Points upholding the contract.
    pub clean: u64,
    /// Acked-write losses across all points. Must be 0.
    pub lost_acks_total: u64,
    /// Points with a queue-accounting imbalance. Must be 0.
    pub unbalanced_points: u64,
    /// Points whose recovered shard failed a self-check. Must be 0.
    pub corrupt_points: u64,
    /// Coverage: points where a shard recovered through base + deltas.
    pub with_deltas: u64,
    /// Coverage: points where a shard recovered past a checkpoint the cut
    /// interrupted (torn delta frame, or stale frames after a base).
    pub with_cut_checkpoint: u64,
    /// Coverage: points per tripped media unit.
    pub trip_tags: Vec<(String, u64)>,
    /// Every failing point (empty on a clean sweep).
    pub failures: Vec<ServeCrashPointResult>,
}

impl ServeCrashReport {
    /// Whether the whole sweep upholds the serving durability contract.
    pub fn clean_sweep(&self) -> bool {
        self.points > 0 && self.clean == self.points
    }
}

/// Run the full serve-level sweep under `base_dir`: golden metered run
/// to size the byte stream, then seeded crash points in parallel.
pub fn run_serve_crash_sweep(scn: &ServeCrashScenario, base_dir: &Path) -> ServeCrashReport {
    std::fs::create_dir_all(base_dir).expect("create sweep dir");
    let golden_dir = base_dir.join("golden");
    let _ = std::fs::remove_dir_all(&golden_dir);
    std::fs::create_dir_all(&golden_dir).expect("create golden dir");
    let budget = PowerBudget::metered();
    let server = start_durable(scn, &golden_dir, Some(budget.clone()));
    let golden = doomed_run(scn, server, Some(budget.clone()));
    assert!(
        !golden.premature_error && golden.errored == 0,
        "golden serve run hit errors with power on"
    );
    assert!(golden.balanced, "golden serve run lost completions");
    let total = budget.consumed();
    let journal = budget.journal();
    let _ = std::fs::remove_dir_all(&golden_dir);

    let offsets = pick_offsets(scn.seed, scn.uniform_points, scn.targeted_per_tag, total, &journal);
    let dirs: Vec<(String, u64, PathBuf)> = offsets
        .into_iter()
        .map(|(class, off)| {
            let dir = base_dir.join(format!("pt_{off}"));
            (class, off, dir)
        })
        .collect();
    let mut points: Vec<ServeCrashPointResult> =
        dirs.par_iter().map(|(class, off, dir)| serve_crash_point(scn, dir, *off, class)).collect();
    points.sort_by_key(|p| p.offset);

    let mut tags: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for p in &points {
        if let Some(t) = &p.trip_tag {
            *tags.entry(t.clone()).or_insert(0) += 1;
        }
    }
    ServeCrashReport {
        scheme: scn.scheme.name().to_string(),
        shards: scn.shards,
        seed: scn.seed,
        golden_bytes: total,
        golden_acked: golden.acked.len() as u64,
        points: points.len() as u64,
        clean: points.iter().filter(|p| p.ok()).count() as u64,
        lost_acks_total: points.iter().map(|p| p.lost_acks).sum(),
        unbalanced_points: points.iter().filter(|p| !p.balanced).count() as u64,
        corrupt_points: points.iter().filter(|p| p.corrupt).count() as u64,
        with_deltas: points.iter().filter(|p| p.shards_through_deltas > 0).count() as u64,
        with_cut_checkpoint: points.iter().filter(|p| p.shards_past_cut_checkpoint > 0).count()
            as u64,
        trip_tags: tags.into_iter().collect(),
        failures: points.into_iter().filter(|p| !p.ok()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("adapt_serve_crash_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn two_shard_sweep_has_zero_acked_write_loss() {
        let scn = ServeCrashScenario::quick(0x5EAC);
        let dir = tdir("quick");
        let report = run_serve_crash_sweep(&scn, &dir);
        assert!(
            report.clean_sweep(),
            "serve crash sweep failed: lost={} unbalanced={} corrupt={} failures={:#?}",
            report.lost_acks_total,
            report.unbalanced_points,
            report.corrupt_points,
            report.failures
        );
        assert!(report.golden_acked > 0, "golden run must ack writes");
        // Thread interleaving moves the byte stream between runs, so a
        // targeted offset need not land in the same grant twice; some
        // shard recovering through or past a delta is the robust claim.
        assert!(
            report.with_deltas + report.with_cut_checkpoint > 0,
            "no shard recovered through a checkpoint delta: {:?}",
            report.trip_tags
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_engine_fails_without_hanging() {
        // Offset 0: power is gone before either shard's backend exists.
        // Every submission must still complete (with errors), queues must
        // balance, and nothing may be acked.
        let scn = ServeCrashScenario::quick(0xDEAD);
        let dir = tdir("dead");
        let r = serve_crash_point(&scn, &dir, 1, "uniform");
        assert_eq!(r.acked, 0);
        assert!(r.balanced, "completions must balance even with dead shards");
        assert_eq!(r.lost_acks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
