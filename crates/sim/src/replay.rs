//! Replaying one volume's trace through the engine.

use crate::scheme::{Scheme, SchemePolicy};
use adapt_array::{ArraySink, CountingArray};
use adapt_lss::{
    EngineError, EventConfig, GcSelection, GroupTraffic, Lss, LssConfig, LssMetrics,
    PlacementPolicy, TelemetrySnapshot, VictimPolicy,
};
use adapt_trace::TraceRecord;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// When to reset metrics so that the measurement window excludes warm-up
/// (the paper measures WA after filling, over the update phase).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Warmup {
    /// Measure everything.
    None,
    /// Reset once cumulative host writes reach one logical capacity.
    CapacityOnce,
    /// Reset after this many write *blocks*.
    Blocks(u64),
}

/// Replay configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Engine configuration.
    pub lss: LssConfig,
    /// GC victim-selection policy.
    pub gc: GcSelection,
    /// Warm-up handling.
    pub warmup: Warmup,
    /// Structured-event capture (disabled by default; when enabled the
    /// replay result carries a full [`TelemetrySnapshot`]).
    #[serde(default)]
    pub events: EventConfig,
}

impl ReplayConfig {
    /// Engine configuration sized for a volume of `unique_blocks`, using
    /// the paper's defaults (4 KiB blocks, 64 KiB chunks, 100 µs SLA).
    /// Over-provisioning is 25% but floored so that small volumes keep
    /// enough spare segments for the GC watermarks plus one open segment
    /// per group (MiDA's 8 groups are the worst case).
    pub fn for_volume(unique_blocks: u64, gc: GcSelection) -> Self {
        let lss = LssConfig {
            user_blocks: unique_blocks,
            op_ratio: 0.25,
            gc_low_water: 10, // MiDA has 8 groups; ≥ groups + 2
            gc_high_water: 14,
            ..Default::default()
        };
        let min_spare = (lss.gc_high_water + 8 + 4) as u64; // watermark + groups + margin
        let min_op = min_spare as f64 * lss.segment_blocks() as f64 / unique_blocks as f64;
        let lss = lss.with_op_ratio(lss.op_ratio.max(min_op * 1.05));
        Self { lss, gc, warmup: Warmup::CapacityOnce, events: EventConfig::default() }
    }

    /// Same configuration with structured-event capture turned on.
    pub fn with_events(mut self, events: EventConfig) -> Self {
        self.events = events;
        self
    }

    /// An engine running `policy` over `sink` with this configuration's
    /// engine settings, GC policy and event capture.
    pub fn engine<S: ArraySink>(&self, policy: SchemePolicy, sink: S) -> Lss<SchemePolicy, S> {
        Lss::builder(policy, sink).config(self.lss).gc_select(self.gc).events(self.events).build()
    }
}

/// Result of replaying one volume under one scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VolumeResult {
    /// Scheme used.
    pub scheme: Scheme,
    /// GC policy used.
    pub gc: GcSelection,
    /// Volume identifier (suite index or 0).
    pub volume_id: u32,
    /// Engine metrics over the measurement window.
    pub metrics: LssMetrics,
    /// Final per-group traffic (lifetime, including warm-up).
    pub groups: Vec<GroupTraffic>,
    /// Policy + index resident memory at the end (bytes).
    pub memory_bytes: u64,
    /// Full telemetry snapshot, populated when the replay ran with
    /// structured events enabled (`None` otherwise, keeping the default
    /// result payload small).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl VolumeResult {
    /// Write amplification including padding.
    pub fn wa(&self) -> f64 {
        self.metrics.wa()
    }

    /// Padding share of physical writes.
    pub fn padding_ratio(&self) -> f64 {
        self.metrics.padding_ratio()
    }
}

/// The one replay loop every experiment shares: apply each record of
/// `trace` to an already-built engine, reset the metrics once the host
/// byte clock crosses `cfg`'s warm-up edge, call `hook` with the record's
/// index and outcome, and flush the open chunks when the trace (or the
/// hook) ends the run.
///
/// Writes panic on an engine error; a read hands its `Result` to the
/// hook — it drives the clock and the read-amplification accounting but
/// never enters the placement path, and only a fault script expects one
/// to fail. The hook runs after the warm-up reset, so a scenario that
/// windows the metrics itself sees the same edge a plain replay does.
pub fn drive_with<P: PlacementPolicy, S: ArraySink>(
    engine: &mut Lss<P, S>,
    cfg: &ReplayConfig,
    trace: impl IntoIterator<Item = TraceRecord>,
    mut hook: impl FnMut(&mut Lss<P, S>, u64, Result<(), EngineError>) -> ControlFlow<()>,
) {
    let warmup_bytes = match cfg.warmup {
        Warmup::None => 0,
        Warmup::CapacityOnce => cfg.lss.user_blocks * cfg.lss.block_bytes,
        Warmup::Blocks(b) => b * cfg.lss.block_bytes,
    };
    let mut warmed = warmup_bytes == 0;
    for (i, rec) in (0u64..).zip(trace) {
        let outcome = if rec.is_write() {
            engine
                .try_write_request(rec.ts_us, rec.lba, rec.num_blocks)
                .unwrap_or_else(|e| panic!("{e}"));
            Ok(())
        } else {
            engine.try_read_request(rec.ts_us, rec.lba, rec.num_blocks)
        };
        if !warmed && engine.user_bytes_clock() >= warmup_bytes {
            engine.reset_metrics();
            warmed = true;
        }
        if hook(engine, i, outcome).is_break() {
            break;
        }
    }
    engine.try_flush_all().unwrap_or_else(|e| panic!("{e}"));
}

/// [`drive_with`] without a scenario: every read must succeed.
pub fn drive<P: PlacementPolicy, S: ArraySink>(
    engine: &mut Lss<P, S>,
    cfg: &ReplayConfig,
    trace: impl IntoIterator<Item = TraceRecord>,
) {
    drive_with(engine, cfg, trace, |_, _, read| {
        read.unwrap_or_else(|e| panic!("{e}"));
        ControlFlow::Continue(())
    });
}

/// Replay a trace through one scheme.
pub fn replay_volume<I>(scheme: Scheme, cfg: ReplayConfig, volume_id: u32, trace: I) -> VolumeResult
where
    I: Iterator<Item = TraceRecord>,
{
    replay_with(scheme, cfg, VictimPolicy::Base(cfg.gc), volume_id, trace)
}

/// [`replay_volume`] under any member of the extended victim-policy
/// family (`cfg.gc` only labels the result).
pub(crate) fn replay_with<I>(
    scheme: Scheme,
    cfg: ReplayConfig,
    victim: VictimPolicy,
    volume_id: u32,
    trace: I,
) -> VolumeResult
where
    I: Iterator<Item = TraceRecord>,
{
    let sink = CountingArray::new(cfg.lss.array_config());
    let mut engine = Lss::builder(scheme.policy(&cfg.lss), sink)
        .config(cfg.lss)
        .victim_policy(victim)
        .events(cfg.events)
        .build();
    drive(&mut engine, &cfg, trace);
    let telemetry = cfg.events.enabled.then(|| engine.telemetry());
    VolumeResult {
        scheme,
        gc: cfg.gc,
        volume_id,
        metrics: engine.metrics().clone(),
        groups: engine.group_traffic(),
        memory_bytes: engine.memory_bytes() as u64,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_trace::arrival::ArrivalModel;
    use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};

    fn ycsb(gap_us: u64, updates: u64) -> impl Iterator<Item = TraceRecord> {
        YcsbConfig {
            num_blocks: 8192,
            num_updates: updates,
            zipf_alpha: 0.9,
            read_ratio: 0.0,
            arrival: ArrivalModel::Fixed { gap_us },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 7,
        }
        .generator()
    }

    fn cfg(gc: GcSelection) -> ReplayConfig {
        ReplayConfig::for_volume(8192, gc)
    }

    #[test]
    fn replay_produces_sane_metrics_for_every_scheme() {
        for scheme in Scheme::PAPER {
            let r = replay_volume(scheme, cfg(GcSelection::Greedy), 0, ycsb(5, 40_000));
            assert!(r.metrics.host_write_bytes > 0, "{:?}", scheme);
            let wa = r.wa();
            assert!((1.0..20.0).contains(&wa), "{:?}: wa {wa}", scheme.name());
            assert_eq!(r.groups.len(), scheme.policy(&cfg(GcSelection::Greedy).lss).groups().len());
            assert!(r.memory_bytes > 0);
        }
    }

    #[test]
    fn warmup_excludes_fill_phase() {
        let all = ReplayConfig { warmup: Warmup::None, ..cfg(GcSelection::Greedy) };
        let windowed = cfg(GcSelection::Greedy);
        let r_all = replay_volume(Scheme::SepGc, all, 0, ycsb(5, 40_000));
        let r_win = replay_volume(Scheme::SepGc, windowed, 0, ycsb(5, 40_000));
        assert!(r_win.metrics.host_write_bytes < r_all.metrics.host_write_bytes);
        // Window covers the updates only: 40k blocks.
        assert_eq!(r_win.metrics.host_write_bytes, 40_000 * 4096);
    }

    #[test]
    fn sparse_traffic_pads_dense_does_not() {
        let r_sparse = replay_volume(Scheme::SepGc, cfg(GcSelection::Greedy), 0, ycsb(300, 20_000));
        let r_dense = replay_volume(Scheme::SepGc, cfg(GcSelection::Greedy), 0, ycsb(2, 20_000));
        assert!(r_sparse.padding_ratio() > 0.3, "sparse {}", r_sparse.padding_ratio());
        assert!(r_dense.padding_ratio() < 0.01, "dense {}", r_dense.padding_ratio());
    }

    #[test]
    fn ablation_tags_preserved() {
        let r =
            replay_volume(Scheme::AdaptNoAggregation, cfg(GcSelection::Greedy), 3, ycsb(5, 10_000));
        assert_eq!(r.scheme, Scheme::AdaptNoAggregation);
        assert_eq!(r.volume_id, 3);
    }

    #[test]
    fn cost_benefit_runs() {
        let r = replay_volume(Scheme::SepBit, cfg(GcSelection::CostBenefit), 0, ycsb(5, 30_000));
        assert!(r.wa() >= 1.0);
        assert_eq!(r.gc, GcSelection::CostBenefit);
    }
}
