//! The log-structured engine: write path, chunk coalescing with SLA
//! padding, shadow/lazy append mechanics, and the GC driver.
//!
//! # Write path
//!
//! Each host block write (1) retires the block's previous version —
//! decrementing a segment's valid count, or dropping a still-buffered
//! pending copy — then (2) asks the placement policy for a destination
//! group and (3) appends the block to that group's open-chunk buffer. A
//! buffer flushes to the array when it reaches chunk size, or when its SLA
//! deadline passes, in which case the policy chooses between zero padding
//! (baselines) and cross-group shadow append (ADAPT §3.3).
//!
//! # Shadow / lazy append
//!
//! `ShadowAppend { target }` persists the home group's still-unpersisted
//! pending blocks as *substitute* slots inside the target group's next
//! chunk, flushing that chunk immediately (padded only if the combination
//! still falls short). The home blocks stay buffered — their index entries
//! point at the shadow slots for durability — and when the home chunk
//! finally fills, the normal flush *(lazy append)* supersedes the shadows,
//! which become garbage in the target's segment.
//!
//! # GC
//!
//! When the free-segment pool drops to the low watermark, the engine
//! repeatedly selects a sealed victim ([`GcSelection`](crate::GcSelection)), migrates its live
//! blocks through `PlacementPolicy::place_gc` (these appends carry no SLA
//! timer — bulk traffic, per the paper's Observation 2), reclaims the
//! victim, and stops at the high watermark. Victim reclaim is atomic in
//! simulated time.

use crate::checkpoint::{self, CheckpointStore, ViewMut};
use crate::config::LssConfig;
use crate::error::EngineError;
use crate::events::{EventKind, EventRecorder, GaugeSample};
use crate::gc_buckets::SegmentBuckets;
use crate::gc_variants::VictimPolicy;
use crate::group::{Group, PendingBlock};
use crate::index::{BlockEntry, BlockIndex, DenseMap};
use crate::metrics::{GroupTraffic, LssMetrics};
use crate::placement::{
    PlacementPolicy, PolicyCtx, ReclaimInfo, SegmentMeta, SlaAction, VictimMeta,
};
use crate::recovery::{Clocks, GeometrySnap, RecoveryError, RecoveryReport, View};
use crate::segment::{Segment, SegmentState};
use crate::telemetry::TelemetrySnapshot;
use crate::types::{GroupId, Lba, SegmentId, Slot};
use crate::wal::{
    self, DurabilityConfig, Wal, WalError, WalRecord, WalSlot, WalSlotKind, WalStats,
};
use adapt_array::{
    ArrayHealth, ArraySink, ChunkFlush, ReadMode, RecoveredFlush, ScrubStep, StripeLayout, Traffic,
};
use std::path::Path;

/// The policy's view of the engine for one callback: both clocks, the
/// chunk size and the live groups. A macro rather than a `&self` method,
/// so each field is borrowed on its own while `self.policy` is borrowed
/// mutably by the same call.
macro_rules! policy_ctx {
    ($lss:ident) => {
        PolicyCtx {
            now_us: $lss.now_us,
            user_bytes: $lss.user_bytes_clock,
            chunk_blocks: $lss.cfg.chunk_blocks,
            events_enabled: $lss.events.enabled(),
            groups: &$lss.groups,
        }
    };
}

/// Durability machinery attached to an engine: the WAL, the checkpoint
/// files with their dirty sets, and the per-LBA durable-version map the
/// power-loss sweep verifies against. Boxed behind an `Option` so engines
/// without a durable backend pay one pointer of state and one branch per
/// hook.
pub(crate) struct Durability {
    wal: Wal,
    store: CheckpointStore,
    /// Chunk flushes since the last checkpoint (drives the cadence).
    flushes_since_checkpoint: u64,
    /// Version (arrival µs) of the newest WAL-appended user write per
    /// LBA; `u64::MAX` marks none. Snapshot-serialized and replay-rebuilt,
    /// so after recovery it reflects exactly the durable prefix.
    versions: DenseMap<u64>,
}

/// Map a sink fault hit during checkpointing onto the WAL error space
/// (a checkpoint is a durability operation; its callers think in
/// [`WalError`] terms).
fn array_to_wal(e: adapt_array::ArrayError) -> WalError {
    match e {
        adapt_array::ArrayError::Storage { failure: adapt_array::StorageFailure::PowerLoss } => {
            WalError::PowerLoss
        }
        other => WalError::Io(other.to_string()),
    }
}

/// The log-structured storage engine. Generic over the placement policy
/// (static dispatch: the policy decision sits on the per-block hot path)
/// and the array sink beneath it.
pub struct Lss<P: PlacementPolicy, S: ArraySink> {
    cfg: LssConfig,
    gc_select: VictimPolicy,
    policy: P,
    sink: S,
    segments: Vec<Segment>,
    free: Vec<SegmentId>,
    groups: Vec<Group>,
    index: BlockIndex,
    metrics: LssMetrics,
    /// Simulated wall clock (µs).
    now_us: u64,
    /// Monotonic byte clock: total host bytes ever written (never reset).
    user_bytes_clock: u64,
    /// Re-entrancy guard: segment allocation during GC must not start a
    /// nested GC pass.
    in_gc: bool,
    /// Monotonic counter stamped onto segments at open time (recovery
    /// ordering).
    next_open_seq: u64,
    /// Monotonic counter stamped onto every flushed chunk (the recovery
    /// journal's ordering key).
    next_flush_seq: u64,
    /// Scratch for shadow-append LBA lists. Kept, unlike the engine's
    /// other per-call lists, because it saves one allocation per SLA
    /// expiry, and sparse workloads expire about once per two host writes.
    shadow_scratch: Vec<Lba>,
    /// Scratch for per-read chunk gathering. Kept because it saves one
    /// allocation per host read, the commonest op of mixed workloads.
    read_scratch: Vec<(SegmentId, u32)>,
    /// Host block operations processed (writes, reads, trims) — the op
    /// clock that time-to-rebuild is measured on.
    ops_seen: u64,
    /// Op-clock value when the current rebuild was first observed; `Some`
    /// exactly while a rebuild is in progress.
    rebuild_start_op: Option<u64>,
    /// Real (host) nanoseconds spent inside GC victim selection — the
    /// perf harness's "selection time share" probe. Not part of
    /// [`LssMetrics`]: wall-clock is non-deterministic and metrics are
    /// compared bit-for-bit across runs.
    gc_select_ns: u64,
    /// Utilization-bucketed index over sealed segments, maintained
    /// incrementally on every invalidate/seal/reclaim. Serves Greedy and
    /// Cost-Benefit victim selection (and the utilization statistics)
    /// without scanning the segment table.
    buckets: SegmentBuckets,
    /// Structured event stream. Disabled by default; every
    /// instrumentation site is behind one branch on
    /// [`EventRecorder::enabled`], so the disabled hot path is unchanged.
    events: EventRecorder,
    /// Durable backend (WAL + checkpoints); `None` for in-memory engines.
    dur: Option<Box<Durability>>,
}

impl<P: PlacementPolicy, S: ArraySink> Lss<P, S> {
    /// Start a fluent [`EngineBuilder`](crate::EngineBuilder) from the two
    /// required parts: the placement policy and the array sink. Everything
    /// else (config, GC selection, event capture) has named setters with
    /// sensible defaults.
    pub fn builder(policy: P, sink: S) -> crate::EngineBuilder<P, S> {
        crate::EngineBuilder::new(policy, sink)
    }

    /// Build an engine around a pre-configured event recorder (the
    /// builder's terminal step).
    pub(crate) fn with_recorder(
        cfg: LssConfig,
        gc_select: VictimPolicy,
        policy: P,
        sink: S,
        events: EventRecorder,
    ) -> Self {
        let num_groups = policy.groups().len();
        cfg.validate(num_groups);
        assert!(num_groups > 0 && num_groups <= u8::MAX as usize);
        assert_eq!(
            sink.config().chunk_bytes,
            cfg.chunk_bytes(),
            "array chunk size must match engine chunk size"
        );
        let total = cfg.total_segments();
        let segments: Vec<Segment> =
            (0..total).map(|id| Segment::new(id, cfg.segment_blocks())).collect();
        // Pop order: highest id first; ids are arbitrary.
        let free: Vec<SegmentId> = (0..total).rev().collect();
        let groups: Vec<Group> = policy
            .groups()
            .iter()
            .enumerate()
            .map(|(i, &kind)| Group::new(i as GroupId, kind))
            .collect();
        let index = BlockIndex::with_capacity(cfg.user_blocks);
        // Open segments are allocated lazily at each group's first flush:
        // idle groups (e.g. GC classes a workload never populates) must not
        // pin capacity.
        Self {
            cfg,
            gc_select,
            policy,
            sink,
            segments,
            free,
            groups,
            index,
            metrics: LssMetrics::default(),
            now_us: 0,
            user_bytes_clock: 0,
            in_gc: false,
            next_open_seq: 0,
            next_flush_seq: 0,
            shadow_scratch: Vec::new(),
            read_scratch: Vec::new(),
            ops_seen: 0,
            rebuild_start_op: None,
            gc_select_ns: 0,
            buckets: SegmentBuckets::new(cfg.segment_blocks(), total as usize),
            events,
            dur: None,
        }
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Process one host block write at time `ts_us`. Index corruption,
    /// free-pool exhaustion and an LBA past the volume surface as typed
    /// errors.
    pub fn try_write(&mut self, ts_us: u64, lba: Lba) -> Result<(), EngineError> {
        self.check_range(lba, 1)?;
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        self.metrics.host_write_bytes += self.cfg.block_bytes;
        self.user_bytes_clock += self.cfg.block_bytes;

        // Skip the transient `Absent` store: `append_pending` below
        // unconditionally overwrites the entry, and nothing reads the
        // index in between (`place_user` reads the clocks and the groups,
        // never the index).
        self.retire_entry(lba, false)?;

        let g = self.policy.place_user(&policy_ctx!(self), lba);
        debug_assert!((g as usize) < self.groups.len(), "policy returned bad group");
        self.groups[g as usize].note_arrival(self.now_us);
        self.append_pending(
            g,
            PendingBlock { lba, traffic: Traffic::User, arrival_us: self.now_us, needs_sla: true },
        )?;
        self.wal_commit()
    }

    /// Process a multi-block host write request: one
    /// [`try_write`](Lss::try_write) per block, stopping at the first error.
    /// A request crossing the end of the volume writes nothing.
    pub fn try_write_request(
        &mut self,
        ts_us: u64,
        lba: Lba,
        num_blocks: u32,
    ) -> Result<(), EngineError> {
        self.check_range(lba, num_blocks)?;
        for i in 0..num_blocks as u64 {
            self.try_write(ts_us, lba + i)?;
        }
        Ok(())
    }

    /// Process a host read. The array serves whole chunks (§2.2), so the
    /// fetch cost is the number of *distinct chunks* the live copies span;
    /// blocks still pending in an open-chunk buffer are served from RAM.
    /// Unwritten blocks read as zeroes (no array traffic). Each chunk
    /// fetch is routed through the sink's fault model: reads of chunks on
    /// a failed device are served via parity reconstruction (accounted in
    /// [`LssMetrics::degraded_reads`]), transient errors are retried up to
    /// three times with exponential backoff from 50 µs, and persistent
    /// faults (double fault, unreconstructable stripe) surface as
    /// [`EngineError::Array`].
    pub fn try_read_request(
        &mut self,
        ts_us: u64,
        lba: Lba,
        num_blocks: u32,
    ) -> Result<(), EngineError> {
        self.check_range(lba, num_blocks)?;
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        self.metrics.host_read_bytes += num_blocks as u64 * self.cfg.block_bytes;
        // Distinct (segment, chunk-index) pairs touched by this request.
        let mut chunks = std::mem::take(&mut self.read_scratch);
        chunks.clear();
        for i in 0..num_blocks as u64 {
            match self.index.get(lba + i) {
                // A pending block's durable copy is its shadow.
                BlockEntry::Durable { seg, off }
                | BlockEntry::Pending { shadow: Some((seg, off)), .. } => {
                    chunks.push((seg, off / self.cfg.chunk_blocks));
                }
                BlockEntry::Pending { shadow: None, .. } => {
                    self.metrics.buffer_read_blocks += 1;
                }
                BlockEntry::Absent => {}
            }
        }
        chunks.sort_unstable();
        chunks.dedup();
        for i in 0..chunks.len() {
            let (seg, ci) = chunks[i];
            if let Err(e) = self.fetch_chunk(seg, ci) {
                self.read_scratch = chunks;
                return Err(e);
            }
        }
        self.metrics.array_read_bytes += chunks.len() as u64 * self.cfg.chunk_bytes();
        self.read_scratch = chunks;
        self.wal_commit()
    }

    /// How many times a chunk read hitting a *transient* array error
    /// (media retry, link hiccup) is retried before the error surfaces.
    /// Persistent faults (failed device, double fault) never retry.
    const READ_RETRY_LIMIT: u32 = 3;

    /// Simulated backoff before the first read retry, in microseconds;
    /// doubles on each subsequent attempt. Accounted in
    /// [`LssMetrics::retry_backoff_us`] rather than advancing the engine
    /// clock (retries must not perturb SLA deadlines).
    const RETRY_BACKOFF_US: u64 = 50;

    /// Fetch one chunk through the sink's fault model, retrying transient
    /// errors with exponential backoff (simulated — accounted in metrics,
    /// not the engine clock, so SLA deadlines are unperturbed).
    fn fetch_chunk(&mut self, seg: SegmentId, chunk_idx: u32) -> Result<(), EngineError> {
        // Chunks flushed before location tracking (or by exotic sinks) have
        // no recorded location; they are accounted without a fault check.
        let Some(&loc) = self.segments[seg as usize].chunk_locs.get(chunk_idx as usize) else {
            return Ok(());
        };
        let mut attempt = 0u32;
        loop {
            match self.sink.read_chunk_at(loc) {
                Ok(outcome) => {
                    match outcome.mode {
                        ReadMode::Normal => {}
                        ReadMode::Reconstructed => {
                            self.metrics.degraded_reads += 1;
                            self.metrics.reconstructed_bytes += outcome.device_bytes_read;
                        }
                        ReadMode::Healed => {
                            // The array caught a checksum mismatch on this
                            // chunk and repaired it in place before
                            // returning — the data served is verified.
                            self.metrics.healed_reads += 1;
                            if self.events.enabled() {
                                self.events.record(
                                    self.now_us,
                                    self.ops_seen,
                                    EventKind::ChecksumHeal { seg, chunk_in_seg: chunk_idx },
                                );
                            }
                        }
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < Self::READ_RETRY_LIMIT => {
                    self.metrics.retried_reads += 1;
                    self.metrics.retry_backoff_us += Self::RETRY_BACKOFF_US << attempt.min(16);
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// TRIM/discard: invalidate `num_blocks` starting at `lba`. The freed
    /// slots become garbage immediately, cheapening future GC.
    pub fn try_trim(&mut self, ts_us: u64, lba: Lba, num_blocks: u32) -> Result<(), EngineError> {
        self.check_range(lba, num_blocks)?;
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        for i in 0..num_blocks as u64 {
            if !matches!(self.index.get(lba + i), BlockEntry::Absent) {
                self.retire_entry(lba + i, true)?;
                self.metrics.trimmed_blocks += 1;
            }
        }
        if self.dur.is_some() && num_blocks > 0 {
            self.wal_append(WalRecord::Trim { lba, blocks: num_blocks });
        }
        self.wal_commit()
    }

    /// Refuse a request for `blocks` blocks at `lba` unless all of them
    /// lie inside the volume (and their LBAs do not overflow).
    fn check_range(&self, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        let user_blocks = self.cfg.user_blocks;
        match lba.checked_add(blocks as u64) {
            Some(end) if end <= user_blocks => Ok(()),
            _ => Err(EngineError::OutOfRange { lba, blocks, user_blocks }),
        }
    }

    /// Advance simulated time, handling any SLA expiries strictly before
    /// `ts_us`. Reads (which bypass the write path) should call this so
    /// that coalescing deadlines fire at faithful instants.
    pub fn try_advance_time(&mut self, ts_us: u64) -> Result<(), EngineError> {
        while let Some((deadline, gid)) = self.earliest_deadline().filter(|&(d, _)| d <= ts_us) {
            self.now_us = self.now_us.max(deadline);
            self.handle_sla_expiry(gid)?;
        }
        self.now_us = self.now_us.max(ts_us);
        self.wal_commit()
    }

    /// The earliest SLA deadline across all groups, `(deadline, gid)`: on
    /// a tie the lower group id fires first.
    fn earliest_deadline(&self) -> Option<(u64, GroupId)> {
        let sla_us = self.cfg.sla_us;
        self.groups.iter().filter_map(|g| g.sla_deadline(sla_us).map(|d| (d, g.id))).min()
    }

    /// Flush every group's partial chunk (padding as needed). Call at the
    /// end of a trace so all buffered blocks reach the array.
    pub fn try_flush_all(&mut self) -> Result<(), EngineError> {
        for gid in 0..self.groups.len() as GroupId {
            if !self.groups[gid as usize].pending.is_empty() {
                self.flush_chunk(gid, &[])?;
            }
        }
        self.wal_commit()
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &LssMetrics {
        &self.metrics
    }

    /// Reset metrics (start of a measurement window). Engine state —
    /// segments, index, policy — is untouched.
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Per-group traffic snapshot (Fig. 3 data).
    pub fn group_traffic(&self) -> Vec<GroupTraffic> {
        self.groups
            .iter()
            .map(|g| GroupTraffic {
                user_blocks: g.user_blocks,
                gc_blocks: g.gc_blocks,
                shadow_blocks: g.shadow_blocks,
                pad_blocks: g.pad_blocks,
                segments: g.segment_count(),
            })
            .collect()
    }

    /// The placement policy (for inspection).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the placement policy.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The array sink beneath the engine.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the array sink — the fault-scenario driver uses
    /// this to fail devices and to pump rebuild steps.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Current simulated time (µs).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Monotonic host-byte clock.
    pub fn user_bytes_clock(&self) -> u64 {
        self.user_bytes_clock
    }

    /// The structured event stream (ring contents, gauge series, totals).
    pub fn events(&self) -> &EventRecorder {
        &self.events
    }

    /// One unified, serializable snapshot of everything the stack
    /// measures: engine metrics and derived rates, per-group traffic,
    /// array counters and health, utilization statistics, latency
    /// percentiles, and — when events are enabled — event totals and the
    /// gauge time series. Takes `&mut self` so buffered policy events are
    /// drained first.
    pub fn telemetry(&mut self) -> TelemetrySnapshot {
        if self.events.enabled() {
            self.drain_policy_events();
        }
        TelemetrySnapshot {
            host_ops: self.ops_seen,
            now_us: self.now_us,
            user_bytes_clock: self.user_bytes_clock,
            wa: self.metrics.wa(),
            wa_gc_only: self.metrics.wa_gc_only(),
            padding_ratio: self.metrics.padding_ratio(),
            read_amplification: self.metrics.read_amplification(),
            groups: self.group_traffic(),
            array: self.sink.stats().clone(),
            health: self.sink.health(),
            free_segments: self.free.len() as u32,
            total_segments: self.segments.len() as u32,
            utilization_histogram: self.buckets.histogram10(),
            mean_sealed_utilization: self.buckets.mean_utilization(),
            memory_bytes: self.memory_bytes() as u64,
            durability_latency: self.metrics.durability_latency.summary(),
            events: self.events.stats(),
            gauges: self.events.gauges().to_vec(),
            lss: self.metrics.clone(),
        }
    }

    /// Whether the free pool is at or below the GC trigger watermark.
    pub fn needs_gc(&self) -> bool {
        self.free.len() <= self.cfg.gc_low_water as usize
    }

    /// Collect at most one victim segment (background-GC driver API).
    /// Returns `true` if a segment was reclaimed. No-op when nothing is
    /// reclaimable, or when GC is paused because the array is rebuilding
    /// (rebuild I/O has priority; GC still runs if the pool is nearly dry).
    pub fn try_gc_step(&mut self) -> Result<bool, EngineError> {
        if self.in_gc {
            return Ok(false);
        }
        if self.gc_paused_for_rebuild() {
            self.metrics.gc_throttled += 1;
            return Ok(false);
        }
        let Some(victim) = self.select_victim() else {
            return Ok(false);
        };
        self.in_gc = true;
        self.metrics.gc_passes += 1;
        let result = self.collect_segment(victim);
        self.in_gc = false;
        result?;
        self.wal_commit()?;
        Ok(true)
    }

    /// Timed GC victim selection (the per-pass hot spot the perf harness
    /// attributes separately). The paper's two policies are served from
    /// the incremental bucket index in O(buckets); the literature variants
    /// (d-choices, windowed greedy, random) keep their legacy scan — they
    /// are ablation-only and sample rather than rank.
    fn select_victim(&mut self) -> Option<SegmentId> {
        let start = std::time::Instant::now();
        let victim = match &mut self.gc_select {
            VictimPolicy::Base(sel) => self.buckets.select(*sel, self.user_bytes_clock),
            other => other.select(&self.segments, self.user_bytes_clock),
        };
        self.gc_select_ns += start.elapsed().as_nanos() as u64;
        victim
    }

    /// Real nanoseconds spent in GC victim selection so far (perf probe;
    /// independent of the deterministic [`LssMetrics`]).
    pub fn gc_select_nanos(&self) -> u64 {
        self.gc_select_ns
    }

    /// Graceful-degradation policy: while the array rebuilds a failed
    /// device onto a spare, non-emergency GC yields the bandwidth. GC
    /// resumes unconditionally when the free pool nears exhaustion (an
    /// engine stall would be worse than a slower rebuild).
    fn gc_paused_for_rebuild(&self) -> bool {
        matches!(self.sink.health(), ArrayHealth::Rebuilding { .. })
            && self.free.len() > self.emergency_free_level()
    }

    /// Free-pool level below which GC must run no matter what.
    fn emergency_free_level(&self) -> usize {
        (self.groups.len() + 1).max(3)
    }

    /// Approximate resident memory: block index plus policy state
    /// (Fig. 12b).
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.policy.memory_bytes()
    }

    /// Validate internal invariants (test/debug aid): per-segment valid
    /// counts match the index, pending buffers are within chunk size, and
    /// segment ownership is consistent. Panics on violation.
    pub fn check_invariants(&self) {
        let mut valid_per_seg = vec![0u32; self.segments.len()];
        for lba in 0..self.index.len() as Lba {
            match self.index.get(lba) {
                BlockEntry::Durable { seg, off } => {
                    let s = &self.segments[seg as usize];
                    assert!(off < s.filled, "durable entry beyond filled region");
                    assert_eq!(s.slot(off), Slot::Block(lba), "index/slot mismatch for {lba}");
                    valid_per_seg[seg as usize] += 1;
                }
                BlockEntry::Pending { group, shadow } => {
                    let g = &self.groups[group as usize];
                    assert!(g.find_pending(lba).is_some(), "pending entry missing in buffer");
                    if let Some((seg, off)) = shadow {
                        let s = &self.segments[seg as usize];
                        assert_eq!(s.slot(off), Slot::Shadow(lba), "shadow slot mismatch");
                        valid_per_seg[seg as usize] += 1;
                    }
                }
                BlockEntry::Absent => {}
            }
        }
        for s in &self.segments {
            assert_eq!(
                s.valid_blocks, valid_per_seg[s.id as usize],
                "segment {} valid count drift",
                s.id
            );
        }
        for g in &self.groups {
            assert!(g.pending.len() < self.cfg.chunk_blocks as usize + 1);
        }
        // The bucket index must mirror the groups' sealed lists exactly. A
        // victim whose collection hit a terminal error is in neither: it
        // stays sealed but detached until recovery re-attaches it.
        self.buckets.check_against(&self.segments);
        for g in &self.groups {
            for (pos, &seg) in g.sealed.iter().enumerate() {
                let s = &self.segments[seg as usize];
                assert_eq!(
                    (s.state, s.group, s.group_pos as usize),
                    (SegmentState::Sealed, g.id, pos),
                    "group {} lists segment {seg} inconsistently",
                    g.id
                );
                assert!(
                    self.buckets.tracked_valid(seg).is_some(),
                    "listed sealed segment {seg} missing from the bucket index"
                );
            }
        }
        let listed: usize = self.groups.iter().map(|g| g.sealed.len()).sum();
        assert_eq!(listed, self.buckets.len(), "sealed lists and bucket index disagree");
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Count one host op and watch for sink health transitions: the op
    /// clock bounds time-to-rebuild, and a Rebuilding→Healthy edge
    /// snapshots the rebuild traffic the array reported. When scrubbing
    /// is enabled, each host op also pumps one paced scrub step — the
    /// same piggyback pattern the rebuild driver uses, so background
    /// verification scales with foreground traffic.
    fn note_host_op(&mut self) {
        self.ops_seen += 1;
        if self.cfg.scrub_stripes_per_op > 0 {
            if let Some(step) = self.sink.scrub_step(self.cfg.scrub_stripes_per_op as usize) {
                self.fold_scrub_step(&step);
            }
        }
        if self.events.enabled() {
            self.pump_events();
        }
        match self.sink.health() {
            ArrayHealth::Rebuilding { device } => {
                if self.rebuild_start_op.is_none() {
                    self.rebuild_start_op = Some(self.ops_seen);
                    if self.events.enabled() {
                        self.events.record(
                            self.now_us,
                            self.ops_seen,
                            EventKind::RebuildStart { device: device as u32 },
                        );
                    }
                }
            }
            ArrayHealth::Healthy => {
                if let Some(start) = self.rebuild_start_op.take() {
                    let ops = self.ops_seen.saturating_sub(start);
                    self.metrics.rebuild_ops += ops;
                    self.metrics.rebuild_bytes = self.sink.stats().rebuild_bytes();
                    if self.events.enabled() {
                        self.events.record(
                            self.now_us,
                            self.ops_seen,
                            EventKind::RebuildComplete { ops, bytes: self.metrics.rebuild_bytes },
                        );
                    }
                }
            }
            ArrayHealth::Degraded { .. } => {}
        }
    }

    /// Events-on bookkeeping for one host op: drain policy-side events and
    /// sample the gauge time series on its op cadence. Out of line so the
    /// events-off hot path pays only the guard branch.
    #[cold]
    fn pump_events(&mut self) {
        self.drain_policy_events();
        let interval = self.events.config().gauge_interval_ops;
        if interval > 0 && self.ops_seen.is_multiple_of(interval) {
            let sample = self.gauge_sample();
            self.events.record_gauge(sample);
        }
    }

    /// Move events the policy buffered during its callbacks into the
    /// engine's recorder, stamped with the current clocks.
    fn drain_policy_events(&mut self) {
        let mut buf = Vec::new();
        self.policy.drain_events(&mut buf);
        for ev in buf {
            self.events.record(self.now_us, self.ops_seen, EventKind::Policy(ev));
        }
    }

    /// One gauge sample of the engine's key load indicators.
    fn gauge_sample(&self) -> GaugeSample {
        GaugeSample {
            op: self.ops_seen,
            now_us: self.now_us,
            wa_so_far: self.metrics.wa(),
            free_segments: self.free.len() as u32,
            gc_backlog_segments: (self.cfg.gc_high_water as usize).saturating_sub(self.free.len())
                as u32,
            mean_utilization: self.buckets.mean_utilization(),
            group_pending_blocks: self.groups.iter().map(|g| g.pending.len() as u32).collect(),
            group_segments: self.groups.iter().map(|g| g.segment_count()).collect(),
        }
    }

    /// Fold one scrub step's deltas into the engine metrics.
    fn fold_scrub_step(&mut self, step: &ScrubStep) {
        let m = &mut self.metrics;
        m.chunks_scrubbed += step.chunks_scrubbed;
        m.scrub_read_bytes += step.read_bytes;
        m.corruptions_detected += step.detected;
        m.corruptions_healed += step.healed;
        m.corruptions_unrecoverable += step.unrecoverable;
        m.heal_write_bytes += step.heal_write_bytes;
        m.detection_latency_ops += step.detection_latency_ops;
        m.scrub_latent_repaired += step.latent_repaired;
        if step.paused_for_rebuild {
            m.scrub_paused += 1;
        }
        if step.pass_complete {
            m.scrub_passes += 1;
        }
        if self.events.enabled() {
            if step.healed > 0 || step.latent_repaired > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::ScrubHeal {
                        healed: step.healed,
                        latent_repaired: step.latent_repaired,
                    },
                );
            }
            if step.pass_complete {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::ScrubPass { chunks_scrubbed: self.metrics.chunks_scrubbed },
                );
            }
        }
    }

    /// Decrement a segment's valid count, keeping the bucket index in
    /// lockstep when the segment is sealed. (The segment being collected
    /// is detached from the index first; `note_invalidate` ignores it.)
    fn invalidate_block(&mut self, seg_id: SegmentId) {
        let s = &mut self.segments[seg_id as usize];
        s.valid_blocks -= 1;
        if s.state == SegmentState::Sealed {
            self.buckets.note_invalidate(seg_id);
        }
    }

    /// Invalidate whatever copy of `lba` currently exists, clearing its
    /// index entry when `clear_index`: the write hot path passes `false`
    /// because `append_pending` immediately overwrites the entry anyway
    /// (and nothing can fail or read the index before that store lands),
    /// which saves one packed-word write per host block.
    fn retire_entry(&mut self, lba: Lba, clear_index: bool) -> Result<(), EngineError> {
        match self.index.get(lba) {
            BlockEntry::Absent => {}
            BlockEntry::Durable { seg, off } => {
                debug_assert_eq!(self.segments[seg as usize].slot(off), Slot::Block(lba));
                self.invalidate_block(seg);
            }
            BlockEntry::Pending { group, shadow } => {
                let g = &mut self.groups[group as usize];
                let pos = g.find_pending(lba).ok_or_else(|| EngineError::IndexCorruption {
                    lba,
                    detail: "index says pending but buffer lacks the block".into(),
                })?;
                g.pending.swap_remove(pos);
                g.recompute_pending_since();
                self.metrics.buffer_absorbed_blocks += 1;
                if let Some((seg, off)) = shadow {
                    debug_assert_eq!(self.segments[seg as usize].slot(off), Slot::Shadow(lba));
                    self.kill_shadow(seg, off);
                }
            }
        }
        if clear_index {
            self.index.set(lba, BlockEntry::Absent);
        }
        Ok(())
    }

    /// Append a block to a group's buffer; flush when the chunk fills.
    fn append_pending(&mut self, gid: GroupId, block: PendingBlock) -> Result<(), EngineError> {
        if self.dur.is_some() {
            // Logged for every append — host writes AND GC migrations. The
            // sync covering a host write's record is its acknowledgement,
            // and migration records preceding a victim's `Reclaim` in log
            // order are what make replaying a reclaim safe.
            self.wal_append(WalRecord::BufferAppend {
                lba: block.lba,
                version: block.arrival_us,
                group: gid,
                gc: block.traffic == Traffic::Gc,
                needs_sla: block.needs_sla,
            });
        }
        self.buffer_block(gid, block);
        if self.groups[gid as usize].pending.len() >= self.cfg.chunk_blocks as usize {
            self.flush_chunk(gid, &[])?;
        }
        Ok(())
    }

    /// SLA deadline fired for `gid`: ask the policy, then pad or
    /// shadow-append.
    fn handle_sla_expiry(&mut self, gid: GroupId) -> Result<(), EngineError> {
        debug_assert!(self.groups[gid as usize].pending_since_us.is_some());
        match self.policy.on_sla_expire(&policy_ctx!(self), gid) {
            SlaAction::Pad => self.flush_chunk(gid, &[]),
            SlaAction::ShadowAppend { target } => self.shadow_append(gid, target),
        }
    }

    /// Persist `home`'s unpersisted pending blocks as shadow slots inside
    /// `target`'s next chunk, flushing it immediately. Falls back to
    /// padding the home chunk when the move is impossible.
    fn shadow_append(&mut self, home: GroupId, target: GroupId) -> Result<(), EngineError> {
        if home == target || target as usize >= self.groups.len() {
            return self.flush_chunk(home, &[]);
        }
        let mut shadows = std::mem::take(&mut self.shadow_scratch);
        let list = |groups: &[Group], shadows: &mut Vec<Lba>| {
            shadows.clear();
            shadows.extend(
                groups[home as usize].pending.iter().filter(|p| p.needs_sla).map(|p| p.lba),
            );
        };
        list(&self.groups, &mut shadows);
        let space = (self.cfg.chunk_blocks as usize)
            .saturating_sub(self.groups[target as usize].pending.len());
        if shadows.is_empty() || shadows.len() > space {
            // Target cannot absorb every unpersisted block; SLA forces the
            // home chunk out with padding instead.
            self.shadow_scratch = shadows;
            return self.flush_chunk(home, &[]);
        }
        if self.groups[target as usize].open_segment == SegmentId::MAX {
            // Give the target its segment *before* committing to the list:
            // the allocation can run inline GC, and when demotion has put
            // user blocks into a GC group its migrations fill — and flush —
            // the home buffer, persisting blocks listed above.
            let allocated = self.alloc_open_segment(target);
            list(&self.groups, &mut shadows);
            if allocated.is_err() || shadows.is_empty() {
                // Nothing SLA-bearing left: that flush already stopped the
                // home group's timer.
                self.shadow_scratch = shadows;
                return allocated;
            }
        }
        self.metrics.shadow_append_events += 1;
        if self.events.enabled() {
            self.events.record(
                self.now_us,
                self.ops_seen,
                EventKind::ShadowAppend { home, target, blocks: shadows.len() as u32 },
            );
        }
        let flushed = self.flush_chunk(target, &shadows);
        self.shadow_scratch = shadows;
        flushed?;
        self.shadows_persisted(home);
        Ok(())
    }

    /// Flush `gid`'s pending buffer as one chunk, appending `shadows`
    /// (substitute copies of blocks still pending in another group) and
    /// zero padding to reach chunk alignment.
    fn flush_chunk(&mut self, gid: GroupId, shadows: &[Lba]) -> Result<(), EngineError> {
        let chunk_blocks = self.cfg.chunk_blocks;
        let lazy_before = self.metrics.lazy_appends;
        // The open segment is allocated lazily: sealing happens eagerly but
        // replacement waits until the group actually needs space again (so
        // GC triggered by a seal can route blocks into this group safely).
        if self.groups[gid as usize].open_segment == SegmentId::MAX {
            // May run GC, which can append *more* blocks into this very
            // group's buffer — hence the bounded drain below rather than a
            // wholesale take. An out-of-space failure here leaves the
            // pending blocks buffered and the engine consistent.
            self.alloc_open_segment(gid)?;
        }
        let seg_id = self.groups[gid as usize].open_segment;

        // Place at most one chunk's worth of pending blocks (oldest first)
        // where they sit: neither loop below touches this group's buffer,
        // so they are drained once, after both.
        let max_payload = (chunk_blocks as usize).saturating_sub(shadows.len());
        let take_n = self.groups[gid as usize].pending.len().min(max_payload);

        // With a durable backend, collect this chunk's slots for the WAL
        // Flush record (blocks first, then shadows — the slot-offset order
        // replay must reproduce).
        let mut wal_slots = self.dur.is_some().then(|| Vec::with_capacity(chunk_blocks as usize));

        let mut user = 0u64;
        let mut gc = 0u64;
        for i in 0..take_n {
            let p = self.groups[gid as usize].pending[i];
            if let Some(ws) = wal_slots.as_mut() {
                let kind = match p.traffic {
                    Traffic::Gc => WalSlotKind::Gc,
                    _ => WalSlotKind::User,
                };
                ws.push(WalSlot { kind, lba: p.lba, version: p.arrival_us });
            }
            if self.place_block(gid, seg_id, p.lba)? {
                self.metrics.lazy_appends += 1;
            }
            match p.traffic {
                Traffic::Gc => gc += 1,
                _ => {
                    user += 1;
                    // Durability latency: only blocks not already persisted
                    // via a shadow copy reach durability at this flush.
                    if p.needs_sla {
                        self.metrics
                            .durability_latency
                            .record(self.now_us.saturating_sub(p.arrival_us));
                    }
                }
            }
        }
        // Shadow substitutes for another group's pending blocks — this is
        // the moment those blocks become durable.
        for &lba in shadows {
            let home = self.place_shadow(seg_id, lba)?;
            let home = &self.groups[home as usize];
            let arrival = home.find_pending(lba).map(|pos| home.pending[pos].arrival_us);
            if let Some(arrival) = arrival {
                self.metrics.durability_latency.record(self.now_us.saturating_sub(arrival));
            }
            if let Some(ws) = wal_slots.as_mut() {
                let version = arrival.unwrap_or(self.now_us);
                ws.push(WalSlot { kind: WalSlotKind::Shadow, lba, version });
            }
        }
        self.groups[gid as usize].pending.drain(..take_n);
        let payload = take_n + shadows.len();
        let pad = chunk_blocks as usize - payload;

        // Account and hand the chunk to the array.
        let (flush_seq, flush) =
            self.close_chunk(gid, seg_id, [user, gc, shadows.len() as u64, pad as u64]);
        self.metrics.user_bytes += flush.user_bytes;
        self.metrics.gc_bytes += flush.gc_bytes;
        self.metrics.shadow_bytes += flush.shadow_bytes;
        self.metrics.pad_bytes += flush.pad_bytes;
        self.metrics.chunks_flushed += 1;
        if pad > 0 {
            self.metrics.padded_chunks += 1;
        }
        if self.events.enabled() {
            let lazy = (self.metrics.lazy_appends - lazy_before) as u32;
            if lazy > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::LazyAppend { group: gid, blocks: lazy },
                );
            }
            if pad > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::PaddedFlush {
                        group: gid,
                        payload_blocks: payload as u32,
                        pad_blocks: pad as u32,
                    },
                );
            }
        }
        let loc = self.sink.write_chunk(flush);
        self.segments[seg_id as usize].chunk_locs.push(loc);
        if let Some(slots) = wal_slots.take() {
            self.wal_append(WalRecord::Flush {
                flush_seq,
                seg: seg_id,
                chunk_in_seg: flush.chunk_in_seg,
                group: gid,
                now_us: self.now_us,
                user_bytes_clock: self.user_bytes_clock,
                pad_blocks: pad as u32,
                slots,
            });
        }

        // Seal and replace the open segment if it just filled.
        if self.segments[seg_id as usize].is_full() {
            self.seal_segment(gid, seg_id)?;
        }

        // GC during the allocation above may have left more than a full
        // chunk of pending blocks behind; flush the surplus too.
        if self.groups[gid as usize].pending.len() >= chunk_blocks as usize {
            self.flush_chunk(gid, &[])?;
        }
        Ok(())
    }

    /// Seal `seg_id`, notify the policy, and kick GC if the pool is low.
    /// The replacement open segment is allocated lazily at the next flush,
    /// so GC migrations triggered here can still route into this group.
    fn seal_segment(&mut self, gid: GroupId, seg_id: SegmentId) -> Result<(), EngineError> {
        self.seal_open(gid, seg_id);
        let seg = &self.segments[seg_id as usize];
        let meta = SegmentMeta {
            seg: seg_id,
            group: gid,
            created_user_bytes: seg.created_user_bytes,
            created_ts_us: seg.created_ts_us,
        };
        self.policy.on_segment_sealed(&policy_ctx!(self), &meta);
        if !self.in_gc && self.should_inline_gc() {
            self.run_gc()?;
        }
        Ok(())
    }

    /// Inline GC policy: whenever the free pool is at the low watermark.
    /// While the array rebuilds, only emergency GC runs — the throttle
    /// that keeps GC traffic from competing with reconstruction I/O.
    fn should_inline_gc(&mut self) -> bool {
        let low = self.free.len() <= self.cfg.gc_low_water as usize;
        if low && self.gc_paused_for_rebuild() {
            self.metrics.gc_throttled += 1;
            return false;
        }
        low
    }

    /// Take a segment from the free pool for `gid`, running GC first when
    /// the pool is low.
    fn alloc_open_segment(&mut self, gid: GroupId) -> Result<(), EngineError> {
        if !self.in_gc && self.should_inline_gc() {
            self.run_gc()?;
            // GC migrations flush through this very group; a nested flush
            // may already have allocated its open segment. Allocating again
            // would orphan that segment (open forever, invisible to GC).
            if self.groups[gid as usize].open_segment != SegmentId::MAX {
                return Ok(());
            }
        }
        let Some(free_pos) = self.free.len().checked_sub(1) else {
            let sealed = self.segments.iter().filter(|s| s.state == SegmentState::Sealed).count();
            let sealed_garbage = self
                .segments
                .iter()
                .filter(|s| s.state == SegmentState::Sealed && s.garbage_blocks() > 0)
                .count();
            let open = self.segments.iter().filter(|s| s.state == SegmentState::Open).count();
            let valid: u64 = self.segments.iter().map(|s| s.valid_blocks as u64).sum();
            return Err(EngineError::OutOfSpace {
                total_segments: self.segments.len(),
                sealed,
                sealed_with_garbage: sealed_garbage,
                open,
                valid_blocks: valid,
                in_gc: self.in_gc,
            });
        };
        let open_seq = self.next_open_seq;
        let seg_id = self.open_segment(gid, free_pos, open_seq, self.user_bytes_clock, self.now_us);
        if self.dur.is_some() {
            self.wal_append(WalRecord::Open {
                seg: seg_id,
                group: gid,
                open_seq,
                created_user_bytes: self.user_bytes_clock,
                created_ts_us: self.now_us,
            });
        }
        Ok(())
    }

    /// One GC pass: reclaim victims until the free pool recovers.
    fn run_gc(&mut self) -> Result<(), EngineError> {
        self.in_gc = true;
        self.metrics.gc_passes += 1;
        let result = self.run_gc_inner();
        self.in_gc = false;
        result
    }

    fn run_gc_inner(&mut self) -> Result<(), EngineError> {
        while self.free.len() < self.cfg.gc_high_water as usize {
            let Some(victim_id) = self.select_victim() else {
                break; // nothing reclaimable
            };
            self.collect_segment(victim_id)?;
        }
        Ok(())
    }

    /// Migrate a victim's live blocks and reclaim it.
    fn collect_segment(&mut self, victim_id: SegmentId) -> Result<(), EngineError> {
        let (victim_group, created_user_bytes, valid_at_start) = {
            let v = &self.segments[victim_id as usize];
            debug_assert_eq!(v.state, SegmentState::Sealed);
            (v.group, v.created_user_bytes, v.valid_blocks)
        };
        let vm = VictimMeta {
            seg: victim_id,
            group: victim_group,
            created_user_bytes,
            valid_blocks: valid_at_start,
            segment_blocks: self.cfg.segment_blocks(),
        };

        // Detach from the bucket index and the owner group's sealed list.
        // A crash before the matching `Reclaim` is covered by recovery: a
        // `GcBegin` without one re-attaches the victim as an ordinary
        // sealed segment.
        if self.dur.is_some() {
            self.wal_append(WalRecord::GcBegin { seg: victim_id });
        }
        let detached = self.detach_victim(victim_id);
        debug_assert!(detached, "victim {victim_id} missing from its owner's sealed list");

        // Snapshot the slots: migration flushes through other segments and
        // can tombstone this one's shadow slots, which the per-slot
        // liveness check below absorbs.
        let slots: Vec<(u32, Slot)> = self.segments[victim_id as usize].written_slots().collect();
        // Every block is placed against the live groups; the byte clock
        // and `now_us` stay put during migration (GC traffic does not tick
        // them), so all of one victim's blocks see the same clocks.
        let mut migrated = 0u32;
        let mut result = Ok(());
        for &(off, slot) in &slots {
            let (Slot::Block(lba) | Slot::Shadow(lba)) = slot else { continue };
            if !self.index.is_live(lba, victim_id, off) {
                continue;
            }
            if let Slot::Shadow(_) = slot {
                // A live substitute: its home copy is still buffered.
                // Migrate the durable copy like a normal valid block and
                // drop the home pending entry — the block's data already
                // moved, rewriting it later would only add traffic.
                if let BlockEntry::Pending { group: home, .. } = self.index.get(lba) {
                    let hg = &mut self.groups[home as usize];
                    if let Some(pos) = hg.find_pending(lba) {
                        hg.pending.swap_remove(pos);
                        hg.recompute_pending_since();
                    }
                }
            }
            let dest = self.policy.place_gc(&policy_ctx!(self), lba, &vm);
            debug_assert!((dest as usize) < self.groups.len());
            self.policy.on_gc_block_migrated(lba, victim_group, dest);
            self.segments[victim_id as usize].valid_blocks -= 1;
            result = self.append_pending(
                dest,
                PendingBlock {
                    lba,
                    traffic: Traffic::Gc,
                    arrival_us: self.now_us,
                    needs_sla: false,
                },
            );
            if result.is_err() {
                break;
            }
            migrated += 1;
        }
        self.metrics.blocks_migrated += migrated as u64;
        // Terminal (out of space / WAL fault): the victim stays detached —
        // sealed, but in neither the bucket index nor its owner's list.
        result?;

        let reclaimed = self.reclaim_segment(victim_id);
        debug_assert!(reclaimed, "live blocks left behind in victim");
        self.metrics.segments_reclaimed += 1;
        if self.dur.is_some() {
            // Every live block was re-logged as a `BufferAppend` above, so
            // any WAL prefix containing this record also contains them.
            self.wal_append(WalRecord::Reclaim { seg: victim_id });
        }
        if self.events.enabled() {
            self.events.record(
                self.now_us,
                self.ops_seen,
                EventKind::GcCollect {
                    victim: victim_id,
                    group: victim_group,
                    valid_blocks: valid_at_start,
                    segment_blocks: self.cfg.segment_blocks(),
                    migrated,
                },
            );
        }
        let info = ReclaimInfo {
            seg: victim_id,
            group: victim_group,
            created_user_bytes,
            reclaimed_user_bytes: self.user_bytes_clock,
            migrated_blocks: migrated,
        };
        self.policy.on_segment_reclaimed(&policy_ctx!(self), &info);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durable transitions: one definition each, for live ops and replay
    // ------------------------------------------------------------------

    /// Open free-pool entry `free_pos` for `gid`; returns the segment.
    fn open_segment(
        &mut self,
        gid: GroupId,
        free_pos: usize,
        open_seq: u64,
        created_user_bytes: u64,
        created_ts_us: u64,
    ) -> SegmentId {
        let seg_id = self.free.swap_remove(free_pos);
        let s = &mut self.segments[seg_id as usize];
        s.open(gid, created_user_bytes, created_ts_us);
        s.open_seq = open_seq;
        self.groups[gid as usize].open_segment = seg_id;
        self.next_open_seq = self.next_open_seq.max(open_seq.saturating_add(1));
        seg_id
    }

    /// Put `block` into `gid`'s open-chunk buffer, arming the SLA timer.
    fn buffer_block(&mut self, gid: GroupId, block: PendingBlock) {
        let g = &mut self.groups[gid as usize];
        g.pending.push(block);
        if block.needs_sla && g.pending_since_us.is_none() {
            g.pending_since_us = Some(block.arrival_us);
        }
        self.index.set(block.lba, BlockEntry::Pending { group: gid, shadow: None });
    }

    /// Write `gid`'s pending block `lba` into `seg_id`'s next slot. Its
    /// live shadow copy elsewhere dies now (lazy append); returns whether
    /// there was one.
    fn place_block(
        &mut self,
        gid: GroupId,
        seg_id: SegmentId,
        lba: Lba,
    ) -> Result<bool, EngineError> {
        let corrupt = |detail| Err(EngineError::IndexCorruption { lba, detail });
        let shadow = match self.index.get(lba) {
            BlockEntry::Pending { group, shadow } if group == gid => shadow,
            other => return corrupt(format!("block of group {gid} in state {other:?}")),
        };
        if let Some((sseg, soff)) = shadow {
            if !self.segments.get(sseg as usize).is_some_and(|s| s.slot(soff) == Slot::Shadow(lba))
            {
                return corrupt(format!("stale shadow at (seg {sseg}, off {soff})"));
            }
            self.kill_shadow(sseg, soff);
        }
        let seg = &mut self.segments[seg_id as usize];
        let off = seg.append_slot(Slot::Block(lba));
        seg.valid_blocks += 1;
        self.index.set(lba, BlockEntry::Durable { seg: seg_id, off });
        Ok(shadow.is_some())
    }

    /// Write a shadow copy of `lba` — pending in its home group, without
    /// one yet — into `seg_id`'s next slot; returns the home group.
    fn place_shadow(&mut self, seg_id: SegmentId, lba: Lba) -> Result<GroupId, EngineError> {
        let BlockEntry::Pending { group: home, shadow: None } = self.index.get(lba) else {
            let detail = format!("shadow source in state {:?}", self.index.get(lba));
            return Err(EngineError::IndexCorruption { lba, detail });
        };
        let seg = &mut self.segments[seg_id as usize];
        let off = seg.append_slot(Slot::Shadow(lba));
        seg.valid_blocks += 1;
        self.index.set(lba, BlockEntry::Pending { group: home, shadow: Some((seg_id, off)) });
        Ok(home)
    }

    /// `home`'s unpersisted blocks are durable as shadows: stop its timer.
    fn shadows_persisted(&mut self, home: GroupId) {
        let g = &mut self.groups[home as usize];
        for p in &mut g.pending {
            p.needs_sla = false;
        }
        g.pending_since_us = None;
    }

    /// Close the chunk just placed into `gid`'s open segment `seg_id`:
    /// pad it, stamp the next flush sequence, account the
    /// `[user, gc, shadow, pad]` block counts and re-arm the SLA timer.
    /// Returns the sequence and the chunk as the sink sees it.
    fn close_chunk(
        &mut self,
        gid: GroupId,
        seg_id: SegmentId,
        [user, gc, shadow, pad]: [u64; 4],
    ) -> (u64, ChunkFlush) {
        let chunk_blocks = self.cfg.chunk_blocks;
        let seg = &mut self.segments[seg_id as usize];
        for _ in 0..pad {
            seg.append_slot(Slot::Pad);
        }
        // The chunk just closed starts at slot `filled - chunk_blocks`.
        let chunk_in_seg = (seg.filled - chunk_blocks) / chunk_blocks;
        debug_assert_eq!(seg.chunk_seqs.len() as u32, chunk_in_seg);
        let flush_seq = self.next_flush_seq;
        seg.chunk_seqs.push(flush_seq);
        self.next_flush_seq += 1;
        let g = &mut self.groups[gid as usize];
        g.account_chunk(user, gc, shadow, pad);
        g.recompute_pending_since();
        let b = self.cfg.block_bytes;
        let flush = ChunkFlush {
            user_bytes: user * b,
            gc_bytes: gc * b,
            shadow_bytes: shadow * b,
            pad_bytes: pad * b,
            group: gid,
            seg: seg_id,
            chunk_in_seg,
        };
        (flush_seq, flush)
    }

    /// Seal `gid`'s full open segment `seg_id` and attach it.
    fn seal_open(&mut self, gid: GroupId, seg_id: SegmentId) {
        self.segments[seg_id as usize].seal();
        self.attach_sealed(seg_id);
        let g = &mut self.groups[gid as usize];
        g.roll_window();
        g.open_segment = SegmentId::MAX;
    }

    /// Attach sealed `seg_id` to its owner's sealed list and the bucket
    /// index, making it a GC candidate.
    fn attach_sealed(&mut self, seg_id: SegmentId) {
        let s = &mut self.segments[seg_id as usize];
        let g = &mut self.groups[s.group as usize];
        s.group_pos = g.sealed.len() as u32;
        g.sealed.push(seg_id);
        self.buckets.insert(seg_id, s.valid_blocks, s.created_user_bytes);
    }

    /// Detach GC victim `seg_id` from its owner's sealed list and the bucket
    /// index; `false`, changing nothing, if the list lacks it.
    fn detach_victim(&mut self, seg_id: SegmentId) -> bool {
        let s = &self.segments[seg_id as usize];
        let (pos, g) = (s.group_pos as usize, &mut self.groups[s.group as usize]);
        if g.sealed.get(pos) != Some(&seg_id) {
            return false;
        }
        g.sealed.swap_remove(pos);
        if let Some(&moved) = g.sealed.get(pos) {
            self.segments[moved as usize].group_pos = pos as u32;
        }
        self.buckets.remove(seg_id);
        true
    }

    /// Return drained segment `seg_id` to the free pool; `false`, changing
    /// nothing, while it still holds live blocks.
    fn reclaim_segment(&mut self, seg_id: SegmentId) -> bool {
        let s = &mut self.segments[seg_id as usize];
        if s.valid_blocks != 0 {
            return false;
        }
        s.reset();
        self.free.push(seg_id);
        true
    }

    /// Rebuild the durable part of the block index by scanning segment
    /// contents, exactly as crash recovery would: every written slot is
    /// visited, and for each LBA the copy in the most recently opened
    /// segment (highest open-sequence, then highest offset) wins. Returns
    /// the recovered index. Copies are ordered by (chunk flush sequence,
    /// slot offset) — the flush sequence is globally monotone and a block's
    /// durable copies are always flushed in version order, so the maximum
    /// identifies the newest version even across concurrently open
    /// segments.
    ///
    /// Blocks that only exist in open-chunk buffers (pending, no shadow)
    /// are *lost* by a crash and absent from the recovered index — the
    /// SLA exists precisely to bound that window.
    fn recover_index(&self) -> BlockIndex {
        let chunk_blocks = self.cfg.chunk_blocks;
        // LBAs are dense, so the best-copy scan keeps one slot per block
        // instead of hashing every written slot; flush sequences never
        // reach u64::MAX, so that triple is a safe vacancy sentinel.
        const EMPTY: (u64, u32, SegmentId) = (u64::MAX, u32::MAX, SegmentId::MAX);
        let mut best = DenseMap::with_capacity(EMPTY, self.index.len());
        for seg in &self.segments {
            if seg.state == SegmentState::Free {
                continue;
            }
            for (off, slot) in seg.written_slots() {
                let lba = match slot {
                    Slot::Block(l) | Slot::Shadow(l) => l,
                    _ => continue,
                };
                let flush_seq = seg.chunk_seqs[(off / chunk_blocks) as usize];
                match best.get(lba) {
                    Some((s, o, _)) if (s, o) >= (flush_seq, off) => {}
                    _ => {
                        best.insert(lba, (flush_seq, off, seg.id));
                    }
                }
            }
        }
        let mut index = BlockIndex::with_capacity(best.len() as u64);
        for (lba, (_, off, seg)) in best.iter() {
            index.set(lba, BlockEntry::Durable { seg, off });
        }
        index
    }

    /// Verify that crash recovery reproduces the live index's durable
    /// view: every `Durable` entry and every pending block's shadow copy
    /// must be found by the scan at the same location. Drift surfaces as
    /// [`EngineError::IndexCorruption`] naming the first drifting LBA, so
    /// scenario runners can report it as a failure mode rather than crash
    /// mid-replay.
    pub fn try_check_recovery(&self) -> Result<(), EngineError> {
        let recovered = self.recover_index();
        for lba in 0..self.index.len() as Lba {
            let expect = match self.index.get(lba) {
                BlockEntry::Durable { seg, off } => Some((seg, off)),
                BlockEntry::Pending { shadow: Some((seg, off)), .. } => Some((seg, off)),
                _ => None,
            };
            if let Some((seg, off)) = expect {
                let got = recovered.get(lba);
                if got != (BlockEntry::Durable { seg, off }) {
                    return Err(EngineError::IndexCorruption {
                        lba,
                        detail: format!(
                            "recovery drift: live index has (seg {seg}, off {off}), scan found {got:?}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability: WAL hooks, checkpoints, recovery
    // ------------------------------------------------------------------

    /// Append one WAL record, maintaining the durable-version map and
    /// noting what the record touches for the next checkpoint delta. No-op
    /// without a durable backend.
    fn wal_append(&mut self, rec: WalRecord) {
        let Some(d) = self.dur.as_mut() else { return };
        match &rec {
            WalRecord::BufferAppend { lba, version, gc, .. } => {
                if !gc {
                    d.versions.insert(*lba, *version);
                }
                d.store.note_lba(*lba);
            }
            WalRecord::Trim { lba, blocks } => {
                // LBAs past the index table were never written: nothing to
                // forget, nothing to checkpoint.
                let end = lba.saturating_add(*blocks as u64).min(self.index.len() as Lba);
                for lba in *lba..end {
                    d.versions.remove(lba);
                    d.store.note_lba(lba);
                }
            }
            WalRecord::Flush { seg, chunk_in_seg, slots, .. } => {
                d.flushes_since_checkpoint += 1;
                d.store.note_segment(*seg, chunk_in_seg * self.cfg.chunk_blocks);
                for slot in slots {
                    d.store.note_lba(slot.lba);
                }
            }
            WalRecord::Open { seg, .. } | WalRecord::Reclaim { seg } => {
                d.store.note_segment(*seg, 0);
            }
            // Detaches the victim from its group's sealed list; group
            // lists are checkpointed whole.
            WalRecord::GcBegin { .. } => {}
        }
        d.wal.append(&rec);
    }

    /// Tombstone the dead shadow copy at `(seg, off)`, noting the slot for
    /// the next checkpoint delta (no WAL record names it).
    fn kill_shadow(&mut self, seg: SegmentId, off: u32) {
        self.segments[seg as usize].clear_slot(off);
        self.invalidate_block(seg);
        if let Some(d) = self.dur.as_mut() {
            d.store.note_slot(seg, off);
        }
    }

    /// One WAL commit point (end of a host-level operation); runs the
    /// checkpoint cadence. No-op without a durable backend.
    fn wal_commit(&mut self) -> Result<(), EngineError> {
        let Some(d) = self.dur.as_mut() else { return Ok(()) };
        d.wal.commit().map_err(EngineError::Wal)?;
        let cadence = d.wal.config().checkpoint_every_flushes;
        if cadence > 0 && d.flushes_since_checkpoint >= cadence && !self.in_gc {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a checkpoint: sync the WAL and the sink, rotate the log,
    /// persist what changed since the previous checkpoint (one delta
    /// frame — or, when the delta log has outgrown it, a fresh base; see
    /// [`crate::recovery`]), and prune covered WAL files. Crash-safe at
    /// every step — until the new checkpoint is synced, the previous one
    /// and every WAL file since it are intact. No-op without a durable
    /// backend.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        if self.dur.is_none() {
            return Ok(());
        }
        // Out of `self` for the duration, so the rest of the engine can be
        // borrowed whole next to it. Nothing below appends to the WAL.
        let Some(mut d) = self.dur.take() else { return Ok(()) };
        let result = self.write_checkpoint(&mut d);
        self.dur = Some(d);
        result.map_err(EngineError::Wal)
    }

    fn write_checkpoint(&mut self, d: &mut Durability) -> Result<(), WalError> {
        d.wal.sync()?;
        self.sink.sync_for_checkpoint().map_err(array_to_wal)?;
        let start_idx = d.wal.rotate_for_checkpoint()?;
        let written = d.store.write(&self.view(&d.versions), start_idx)?;
        d.wal.prune_below(start_idx)?;
        d.wal.note_checkpoint(written.bytes, written.base);
        d.flushes_since_checkpoint = 0;
        Ok(())
    }

    fn geometry(&self) -> GeometrySnap {
        GeometrySnap {
            block_bytes: self.cfg.block_bytes,
            chunk_blocks: self.cfg.chunk_blocks,
            segment_chunks: self.cfg.segment_chunks,
            user_blocks: self.cfg.user_blocks,
            num_groups: self.groups.len() as u32,
            total_segments: self.segments.len() as u32,
        }
    }

    /// The logical state a checkpoint serializes, borrowed in place.
    pub(crate) fn view<'a>(&'a self, versions: &'a DenseMap<u64>) -> View<'a> {
        View {
            geometry: self.geometry(),
            clocks: Clocks {
                now_us: self.now_us,
                user_bytes_clock: self.user_bytes_clock,
                ops_seen: self.ops_seen,
                next_open_seq: self.next_open_seq,
                next_flush_seq: self.next_flush_seq,
            },
            segments: &self.segments,
            groups: &self.groups,
            index: &self.index,
            versions,
        }
    }

    /// Attach a fresh durable backend in `dir` (wiping any WAL files and
    /// checkpoint files a previous incarnation left there — this is a new
    /// engine, not a recovery).
    pub(crate) fn enable_durability(
        &mut self,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> Result<(), WalError> {
        let wal = Wal::create(dir, cfg)?;
        let store = CheckpointStore::create(dir, wal.config())?;
        self.dur = Some(Box::new(Durability {
            wal,
            store,
            flushes_since_checkpoint: 0,
            versions: DenseMap::new(u64::MAX),
        }));
        Ok(())
    }

    /// Move host writes acknowledged by completed WAL syncs into `out` as
    /// `(lba, version)` pairs. A write is acknowledged exactly when the
    /// sync covering its `BufferAppend` record completes.
    pub fn drain_durable_acks(&mut self, out: &mut Vec<(Lba, u64)>) {
        if let Some(d) = self.dur.as_mut() {
            d.wal.drain_ready_acks(out);
        }
    }

    /// WAL activity counters, if a durable backend is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.dur.as_ref().map(|d| *d.wal.stats())
    }

    /// Force a WAL sync (acknowledging everything appended so far).
    pub fn sync_wal(&mut self) -> Result<(), EngineError> {
        match self.dur.as_mut() {
            Some(d) => d.wal.sync().map_err(EngineError::Wal),
            None => Ok(()),
        }
    }

    /// Version (arrival µs) of the newest WAL-logged write of `lba`, per
    /// the durable backend. On a freshly recovered engine this reflects
    /// exactly the durable prefix — the crash sweep's ground truth.
    pub fn durable_version(&self, lba: Lba) -> Option<u64> {
        self.dur.as_ref().and_then(|d| d.versions.get(lba))
    }

    /// Re-apply one replayed WAL record through the same transition the
    /// live engine ran when it logged it. Every id is bounds-checked and
    /// every structural premise validated first: a log inconsistent with
    /// the reconstructed state yields [`RecoveryError::Replay`], never a
    /// panic. Each replayed flush is pushed onto `tail` for the sink.
    fn replay_record(
        &mut self,
        rec: &WalRecord,
        versions: &mut DenseMap<u64>,
        detached: &mut Vec<SegmentId>,
        tail: &mut Vec<RecoveredFlush>,
        report: &mut RecoveryReport,
    ) -> Result<(), RecoveryError> {
        let bad = |detail: String| RecoveryError::Replay { detail };
        match rec {
            WalRecord::Open { seg, group, open_seq, created_user_bytes, created_ts_us } => {
                let gid = *group as usize;
                if gid >= self.groups.len() || *seg as usize >= self.segments.len() {
                    return Err(bad(format!("open: bad ids (seg {seg}, group {group})")));
                }
                if self.groups[gid].open_segment != SegmentId::MAX {
                    return Err(bad(format!("open: group {group} already has an open segment")));
                }
                let Some(pos) = self.free.iter().position(|&f| f == *seg) else {
                    return Err(bad(format!("open: segment {seg} is not free")));
                };
                self.open_segment(*group, pos, *open_seq, *created_user_bytes, *created_ts_us);
            }
            WalRecord::BufferAppend { lba, version, group, gc, needs_sla } => {
                let gid = *group as usize;
                if gid >= self.groups.len() {
                    return Err(bad(format!("append: bad group {group}")));
                }
                let user_blocks = self.cfg.user_blocks;
                if *lba >= user_blocks {
                    return Err(bad(format!(
                        "append: lba {lba} past the {user_blocks}-block volume"
                    )));
                }
                self.retire_entry(*lba, true).map_err(|e| bad(format!("append lba {lba}: {e}")))?;
                if self.groups[gid].pending.len() >= self.cfg.chunk_blocks as usize {
                    return Err(bad(format!("append: group {group} buffer over chunk size")));
                }
                let traffic = if *gc { Traffic::Gc } else { Traffic::User };
                let block = PendingBlock {
                    lba: *lba,
                    traffic,
                    arrival_us: *version,
                    needs_sla: *needs_sla,
                };
                self.buffer_block(*group, block);
                if !*gc {
                    versions.insert(*lba, *version);
                }
                self.now_us = self.now_us.max(*version);
                report.buffered_blocks_redone += 1;
            }
            WalRecord::Flush {
                flush_seq,
                seg,
                chunk_in_seg,
                group,
                now_us,
                user_bytes_clock,
                pad_blocks,
                slots,
            } => {
                let gid = *group as usize;
                let chunk_blocks = self.cfg.chunk_blocks;
                if gid >= self.groups.len() || *seg as usize >= self.segments.len() {
                    return Err(bad(format!("flush: bad ids (seg {seg}, group {group})")));
                }
                if self.groups[gid].open_segment != *seg {
                    return Err(bad(format!("flush: segment {seg} not open for group {group}")));
                }
                if *flush_seq != self.next_flush_seq {
                    return Err(bad(format!(
                        "flush: sequence {flush_seq} but engine expects {}",
                        self.next_flush_seq
                    )));
                }
                {
                    let s = &self.segments[*seg as usize];
                    if s.filled / chunk_blocks != *chunk_in_seg
                        || s.filled + chunk_blocks > s.capacity()
                        || slots.len() as u32 + pad_blocks != chunk_blocks
                    {
                        return Err(bad(format!("flush: shape mismatch on segment {seg}")));
                    }
                }
                let [mut user, mut gc, mut shadow] = [0u64; 3];
                for slot in slots {
                    let placed = match slot.kind {
                        WalSlotKind::User | WalSlotKind::Gc => {
                            let Some(pos) = self.groups[gid].find_pending(slot.lba) else {
                                return Err(bad(format!(
                                    "flush: block {} not in group {group}'s buffer",
                                    slot.lba
                                )));
                            };
                            // `remove`, not `swap_remove`: keep the engine's
                            // oldest-first residue order.
                            self.groups[gid].pending.remove(pos);
                            *if slot.kind == WalSlotKind::Gc { &mut gc } else { &mut user } += 1;
                            self.place_block(*group, *seg, slot.lba).map(drop)
                        }
                        WalSlotKind::Shadow => {
                            shadow += 1;
                            self.place_shadow(*seg, slot.lba).map(|h| self.shadows_persisted(h))
                        }
                    };
                    placed.map_err(|e| bad(format!("flush: {e}")))?;
                }
                let (_, flush) =
                    self.close_chunk(*group, *seg, [user, gc, shadow, *pad_blocks as u64]);
                tail.push(RecoveredFlush { chunk_seq: *flush_seq, flush });
                self.now_us = self.now_us.max(*now_us);
                self.user_bytes_clock = self.user_bytes_clock.max(*user_bytes_clock);
                if self.segments[*seg as usize].is_full() {
                    // No policy callback and no GC here: policy state is
                    // soft (reset by recovery), and any GC the live engine
                    // ran is in the log as its own records.
                    self.seal_open(*group, *seg);
                }
                report.flushes_replayed += 1;
            }
            WalRecord::GcBegin { seg } => {
                let Some(s) = self.segments.get(*seg as usize) else {
                    return Err(bad(format!("gc begin: bad segment {seg}")));
                };
                if s.state != SegmentState::Sealed || detached.contains(seg) {
                    return Err(bad(format!("gc begin: segment {seg} not a sealed candidate")));
                }
                if !self.detach_victim(*seg) {
                    return Err(bad(format!("gc begin: segment {seg} not in owner's sealed list")));
                }
                detached.push(*seg);
            }
            WalRecord::Reclaim { seg } => {
                let Some(dpos) = detached.iter().position(|d| d == seg) else {
                    return Err(bad(format!("reclaim: segment {seg} without a gc begin")));
                };
                // The migrations that drained it precede this record in log
                // order, so a prefix can never reclaim live data.
                if !self.reclaim_segment(*seg) {
                    let valid = self.segments[*seg as usize].valid_blocks;
                    return Err(bad(format!("reclaim: segment {seg} still has {valid} live")));
                }
                detached.swap_remove(dpos);
            }
            WalRecord::Trim { lba, blocks } => {
                let Some(end) = lba.checked_add(*blocks as u64) else {
                    return Err(bad(format!("trim: {blocks} blocks at lba {lba} overflow")));
                };
                // As in `wal_append`: LBAs past the index table were never
                // written, so there is nothing to retire or forget. Logs
                // from engines that did not range-check trims may name
                // blocks past the volume; those replay as no-ops.
                for lba in *lba..end.min(self.index.len() as Lba) {
                    if !matches!(self.index.get(lba), BlockEntry::Absent) {
                        self.retire_entry(lba, true)
                            .map_err(|e| bad(format!("trim lba {lba}: {e}")))?;
                    }
                    versions.remove(lba);
                }
            }
        }
        Ok(())
    }

    /// Recover this freshly built engine from the durable state in `dir`:
    /// load the checkpoint (if any), replay the WAL's durable prefix,
    /// repair its torn tail, reconcile the sink, and resume logging.
    pub(crate) fn recover_in_place(
        &mut self,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::default();
        let mut versions = DenseMap::new(u64::MAX);
        let loaded = checkpoint::load(
            dir,
            &mut ViewMut {
                geometry: self.geometry(),
                segments: &mut self.segments,
                free: &mut self.free,
                groups: &mut self.groups,
                index: &mut self.index,
                versions: &mut versions,
                buckets: &mut self.buckets,
            },
        )?;
        let (start_idx, generation) = match loaded {
            Some(l) => {
                let c = l.header.clocks;
                self.now_us = c.now_us;
                self.user_bytes_clock = c.user_bytes_clock;
                self.ops_seen = c.ops_seen;
                self.next_open_seq = c.next_open_seq;
                self.next_flush_seq = c.next_flush_seq;
                report.checkpoint_loaded = true;
                report.deltas_applied = l.header.seq;
                report.torn_delta = l.torn_delta;
                report.stale_deltas = l.stale_deltas;
                (l.header.wal_start_idx, l.header.generation)
            }
            None => (0, 0),
        };
        let replay = wal::replay_dir(dir, start_idx)?;
        report.wal_files_scanned = replay.files_scanned;
        let mut detached = Vec::new();
        // The replayed flushes, for the sink: those a checkpoint-time sink
        // sync does not already cover.
        let mut tail = Vec::new();
        for rec in &replay.records {
            self.replay_record(rec, &mut versions, &mut detached, &mut tail, &mut report)?;
            report.records_applied += 1;
        }
        // A prefix cut between a victim's `GcBegin` and its `Reclaim`
        // leaves it detached mid-collection. Re-attach it as an ordinary
        // sealed segment: its migrated blocks already retired their old
        // copies, so what remains is simply a sealed segment with some
        // garbage — a future GC pass will pick it up again.
        for seg in detached {
            self.attach_sealed(seg);
        }
        if let Some(torn) = replay.torn {
            report.torn_tail = Some((torn.file_idx, torn.offset));
        }
        wal::repair_tail(dir, &replay)?;
        // Recompute array locations from flush sequences — the engine and
        // the sink advance in lockstep, so chunk N of the log is chunk N
        // of the array, always.
        let layout = StripeLayout::new(*self.sink.config());
        for seg in &mut self.segments {
            if seg.state == SegmentState::Free {
                continue;
            }
            seg.chunk_locs = seg.chunk_seqs.iter().map(|&q| layout.locate(q)).collect();
        }
        for grp in &mut self.groups {
            grp.recompute_pending_since();
        }
        // Hand the sink the replayed tail so it can verify, restore, or
        // truncate its own records.
        report.sink = self.sink.recover_reconcile(self.next_flush_seq, &tail)?;
        let wal = Wal::resume(dir, cfg, replay.next_idx)?;
        let store = CheckpointStore::resume(dir, wal.config(), generation)?;
        self.dur = Some(Box::new(Durability { wal, store, flushes_since_checkpoint: 0, versions }));
        Ok(report)
    }
}

#[cfg(test)]
impl<P: PlacementPolicy, S: ArraySink> Lss<P, S> {
    /// [`Lss::view`] of a durable engine, for state comparisons in tests.
    pub(crate) fn durable_view(&self) -> Option<View<'_>> {
        self.dur.as_ref().map(|d| self.view(&d.versions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::dur_dir;
    use crate::placement::GroupKind;
    use adapt_array::CountingArray;

    /// Two-group test policy: user writes to group 0, GC rewrites to
    /// group 1 (SepGC-shaped), with a switch to exercise shadow append
    /// and one to spread user writes over two groups by LBA parity.
    struct TestPolicy {
        groups: Vec<GroupKind>,
        shadow_to: Option<GroupId>,
        split_user: bool,
        reclaims: u32,
        seals: u32,
    }

    impl TestPolicy {
        fn sepgc() -> Self {
            Self {
                groups: vec![GroupKind::User, GroupKind::Gc],
                shadow_to: None,
                split_user: false,
                reclaims: 0,
                seals: 0,
            }
        }

        fn with_shadow() -> Self {
            Self {
                groups: vec![GroupKind::User, GroupKind::User, GroupKind::Gc],
                shadow_to: Some(1),
                split_user: false,
                reclaims: 0,
                seals: 0,
            }
        }

        /// Even LBAs to group 0, odd ones to group 1, GC to group 2.
        fn two_user_groups() -> Self {
            Self { shadow_to: None, split_user: true, ..Self::with_shadow() }
        }
    }

    impl PlacementPolicy for TestPolicy {
        fn name(&self) -> &'static str {
            "test"
        }
        fn groups(&self) -> &[GroupKind] {
            &self.groups
        }
        fn place_user(&mut self, _ctx: &PolicyCtx, lba: Lba) -> GroupId {
            if self.split_user {
                (lba % 2) as GroupId
            } else {
                0
            }
        }
        fn place_gc(&mut self, _ctx: &PolicyCtx, _lba: Lba, _v: &VictimMeta) -> GroupId {
            self.groups.len() as GroupId - 1
        }
        fn on_sla_expire(&mut self, _ctx: &PolicyCtx, group: GroupId) -> SlaAction {
            match self.shadow_to {
                Some(t) if group == 0 => SlaAction::ShadowAppend { target: t },
                _ => SlaAction::Pad,
            }
        }
        fn on_segment_sealed(&mut self, _ctx: &PolicyCtx, _m: &SegmentMeta) {
            self.seals += 1;
        }
        fn on_segment_reclaimed(&mut self, _ctx: &PolicyCtx, _i: &ReclaimInfo) {
            self.reclaims += 1;
        }
    }

    fn small_cfg() -> LssConfig {
        LssConfig {
            user_blocks: 4096, // 32 segments of 128 blocks
            op_ratio: 0.5,     // 16 spare segments (watermarks hold ~7 back)
            gc_low_water: 5,
            gc_high_water: 7,
            ..Default::default()
        }
    }

    fn engine(policy: TestPolicy) -> Lss<TestPolicy, CountingArray> {
        let cfg = small_cfg();
        Lss::builder(policy, CountingArray::new(cfg.array_config())).config(cfg).build()
    }

    #[test]
    fn dense_writes_fill_chunks_without_padding() {
        let mut e = engine(TestPolicy::sepgc());
        // 64 blocks back-to-back (1 µs apart, well under the SLA in sum
        // because each chunk of 16 fills within 16 µs).
        for i in 0..64u64 {
            e.try_write(i, i).unwrap();
        }
        assert_eq!(e.metrics().chunks_flushed, 4);
        assert_eq!(e.metrics().pad_bytes, 0);
        assert_eq!(e.metrics().user_bytes, 64 * 4096);
        e.check_invariants();
    }

    #[test]
    fn sparse_writes_trigger_sla_padding() {
        let mut e = engine(TestPolicy::sepgc());
        // 4 writes spaced 1 ms apart: each times out alone in its chunk.
        for i in 0..4u64 {
            e.try_write(i * 1000, i).unwrap();
        }
        e.try_advance_time(10_000).unwrap();
        assert_eq!(e.metrics().chunks_flushed, 4);
        assert_eq!(e.metrics().padded_chunks, 4);
        // Each chunk: 1 block payload + 15 pad.
        assert_eq!(e.metrics().pad_bytes, 4 * 15 * 4096);
        e.check_invariants();
    }

    #[test]
    fn sla_fires_exactly_at_window_edge() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write(0, 1).unwrap();
        // Just before the deadline: nothing flushed.
        e.try_advance_time(99).unwrap();
        assert_eq!(e.metrics().chunks_flushed, 0);
        // At the deadline: padded flush.
        e.try_advance_time(100).unwrap();
        assert_eq!(e.metrics().chunks_flushed, 1);
        assert_eq!(e.metrics().padded_chunks, 1);
    }

    #[test]
    fn coinciding_sla_deadlines_flush_the_lower_group_first() {
        let mut e = engine(TestPolicy::two_user_groups());
        // Group 1's block arrives first, so arrival order cannot decide.
        e.try_write(0, 1).unwrap();
        e.try_write(0, 2).unwrap();
        e.try_advance_time(1_000).unwrap();
        assert_eq!(e.metrics().chunks_flushed, 2);
        let flush_seq = |lba| match e.index.get(lba) {
            BlockEntry::Durable { seg, off } => {
                e.segments[seg as usize].chunk_seqs[(off / e.cfg.chunk_blocks) as usize]
            }
            other => panic!("lba {lba} not flushed: {other:?}"),
        };
        assert_eq!((flush_seq(2), flush_seq(1)), (0, 1), "group 0 must flush first");
        e.check_invariants();
    }

    #[test]
    fn requests_past_the_volume_are_refused_before_any_change() {
        let mut e = engine(TestPolicy::sepgc());
        let ub = e.cfg.user_blocks;
        e.try_write(0, 5).unwrap();
        let (metrics, now, table) = (e.metrics().clone(), e.now_us(), e.index.len());
        // Each call would otherwise also fire the SLA expiry due at 100.
        let out = |lba, blocks| Err(EngineError::OutOfRange { lba, blocks, user_blocks: ub });
        assert_eq!(e.try_write(1_000, ub), out(ub, 1));
        assert_eq!(e.try_write_request(1_000, ub - 2, 4), out(ub - 2, 4));
        assert_eq!(e.try_read_request(1_000, ub - 1, 2), out(ub - 1, 2));
        assert_eq!(e.try_trim(1_000, ub - 3, 8), out(ub - 3, 8));
        let lba = u64::MAX - 1;
        assert_eq!(e.try_write(1_000, lba), out(lba, 1));
        assert_eq!(e.try_write_request(1_000, lba, 4), out(lba, 4));
        assert_eq!(e.try_read_request(1_000, lba, 4), out(lba, 4));
        assert_eq!(e.try_trim(1_000, lba, 4), out(lba, 4));
        assert_eq!((e.metrics(), e.now_us(), e.index.len()), (&metrics, now, table));
        e.check_invariants();
        // The last block and an empty request at the end are in range.
        e.try_write_request(1_000, ub - 1, 1).unwrap();
        e.try_read_request(1_000, ub, 0).unwrap();
    }

    #[test]
    fn overwrite_in_buffer_is_absorbed() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write(0, 7).unwrap();
        e.try_write(1, 7).unwrap(); // overwrites the still-buffered copy
        e.try_advance_time(1_000).unwrap();
        assert_eq!(e.metrics().buffer_absorbed_blocks, 1);
        // Only one copy ever flushed.
        assert_eq!(e.metrics().user_bytes, 4096);
        e.check_invariants();
    }

    /// Deterministic scattered LBA sequence (sequential overwrites would
    /// invalidate whole segments at once and give GC nothing to migrate).
    fn scattered_lba(i: u64, space: u64) -> u64 {
        adapt_trace::rng::mix64(i) % space
    }

    #[test]
    fn overwrites_eventually_trigger_gc() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        // Fill the volume, then overwrite randomly, densely.
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        assert!(e.metrics().gc_passes > 0, "GC never ran");
        assert!(e.metrics().segments_reclaimed > 0);
        assert!(e.metrics().gc_bytes > 0, "GC migrated nothing");
        assert!(e.telemetry().free_segments > 0);
        e.check_invariants();
        // WA must be sane for uniform-random overwrites at ~80% effective
        // utilization: above 1 (migration happened), below pathological.
        let wa = e.metrics().wa();
        assert!(wa > 1.1 && wa < 4.5, "wa {wa}");
    }

    #[test]
    fn gc_writes_do_not_start_sla_timers() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        // Let the final user blocks' own SLA window resolve first...
        e.try_advance_time(ts + 200).unwrap();
        let padded_before = e.metrics().padded_chunks;
        // ...then jump far ahead: pending GC blocks must NOT pad out.
        e.try_advance_time(ts + 1_000_000).unwrap();
        assert_eq!(e.metrics().padded_chunks, padded_before);
    }

    #[test]
    fn shadow_append_persists_without_padding_home_group() {
        let mut e = engine(TestPolicy::with_shadow());
        // One sparse block: SLA expiry → shadow append into group 1.
        e.try_write(0, 42).unwrap();
        e.try_advance_time(1_000).unwrap();
        assert_eq!(e.metrics().shadow_append_events, 1);
        assert_eq!(e.metrics().shadow_bytes, 4096);
        // The donated chunk was padded (nothing else pending in group 1).
        assert_eq!(e.metrics().padded_chunks, 1);
        e.check_invariants();
        // The block is durable (via shadow) yet still pending in group 0.
        // Now fill group 0's chunk: lazy append completes, shadow dies.
        for i in 0..16u64 {
            e.try_write(2_000 + i, 100 + i).unwrap();
        }
        assert!(e.metrics().lazy_appends >= 1);
        e.check_invariants();
    }

    #[test]
    fn shadow_then_overwrite_kills_shadow_copy() {
        let mut e = engine(TestPolicy::with_shadow());
        e.try_write(0, 42).unwrap();
        e.try_advance_time(1_000).unwrap(); // shadow append happened
        e.try_write(2_000, 42).unwrap(); // overwrite: pending + shadow both die
                                         // The rewritten block is sparse again, so it gets shadow-appended a
                                         // second time at its own SLA deadline.
        e.try_advance_time(100_000).unwrap();
        e.try_flush_all().unwrap();
        e.check_invariants();
        let m = e.metrics();
        assert_eq!(m.shadow_append_events, 2);
        assert_eq!(m.shadow_bytes, 2 * 4096);
        // Exactly one copy of lba 42 was ever host-written twice.
        assert_eq!(m.host_write_bytes, 2 * 4096);
    }

    #[test]
    fn flush_all_drains_every_buffer() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write(0, 1).unwrap();
        e.try_write(0, 2).unwrap();
        e.try_flush_all().unwrap();
        assert_eq!(e.metrics().chunks_flushed, 1);
        assert_eq!(e.metrics().user_bytes, 2 * 4096);
        e.check_invariants();
    }

    #[test]
    fn policy_lifecycle_callbacks_fire() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..5 * 4096u64 {
            e.try_write(i, scattered_lba(i, 4096)).unwrap();
        }
        assert!(e.policy().seals > 0);
        assert!(e.policy().reclaims > 0);
    }

    #[test]
    fn metrics_reset_starts_clean_window() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..4096u64 {
            e.try_write(i, i).unwrap();
        }
        e.reset_metrics();
        assert_eq!(e.metrics().host_write_bytes, 0);
        for i in 0..16u64 {
            e.try_write(100_000 + i, i).unwrap();
        }
        assert_eq!(e.metrics().host_write_bytes, 16 * 4096);
        e.check_invariants();
    }

    #[test]
    fn group_traffic_accounts_all_flushed_blocks() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0;
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        e.try_flush_all().unwrap();
        let gt = e.group_traffic();
        // Group 0 got user traffic; group 1 only GC traffic.
        assert!(gt[0].user_blocks > 0);
        assert_eq!(gt[0].gc_blocks, 0);
        assert_eq!(gt[1].user_blocks, 0);
        assert!(gt[1].gc_blocks > 0);
        let m = e.metrics();
        let total_blocks: u64 = gt.iter().map(|g| g.total_blocks()).sum();
        assert_eq!(total_blocks * 4096, m.physical_bytes());
    }

    #[test]
    fn bytes_clock_monotonic_and_counts_hosts_writes() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write_request(0, 0, 4).unwrap();
        assert_eq!(e.user_bytes_clock(), 4 * 4096);
        assert_eq!(e.metrics().host_write_bytes, 4 * 4096);
    }

    #[test]
    fn reads_fetch_whole_chunks() {
        let mut e = engine(TestPolicy::sepgc());
        // 32 dense writes: two full chunks flushed.
        for i in 0..32u64 {
            e.try_write(i, i).unwrap();
        }
        // Read 4 blocks that live in the same chunk: one chunk fetched.
        e.try_read_request(100, 0, 4).unwrap();
        assert_eq!(e.metrics().host_read_bytes, 4 * 4096);
        assert_eq!(e.metrics().array_read_bytes, 64 * 1024);
        // A read spanning both chunks fetches two.
        e.try_read_request(101, 12, 8).unwrap();
        assert_eq!(e.metrics().array_read_bytes, 3 * 64 * 1024);
        assert!(e.metrics().read_amplification() > 1.0);
    }

    #[test]
    fn buffered_blocks_read_from_ram() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write(0, 7).unwrap(); // still pending
        e.try_read_request(1, 7, 1).unwrap();
        assert_eq!(e.metrics().buffer_read_blocks, 1);
        assert_eq!(e.metrics().array_read_bytes, 0);
    }

    #[test]
    fn unwritten_blocks_read_as_zeroes() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_read_request(0, 100, 4).unwrap();
        assert_eq!(e.metrics().array_read_bytes, 0);
        assert_eq!(e.metrics().host_read_bytes, 4 * 4096);
    }

    #[test]
    fn trim_invalidates_blocks() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..16u64 {
            e.try_write(i, i).unwrap(); // one full chunk, durable
        }
        e.try_trim(100, 0, 8).unwrap();
        assert_eq!(e.metrics().trimmed_blocks, 8);
        e.check_invariants();
        // Trimming unwritten space is a no-op.
        e.try_trim(101, 1000, 4).unwrap();
        assert_eq!(e.metrics().trimmed_blocks, 8);
        // Trimmed blocks no longer cost GC migration: reading them back is
        // zero-fill (no array bytes).
        let before = e.metrics().array_read_bytes;
        e.try_read_request(102, 0, 8).unwrap();
        assert_eq!(e.metrics().array_read_bytes, before);
    }

    #[test]
    fn idle_gc_steps_keep_pool_healthy() {
        let cfg = small_cfg();
        let mut e = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .build();
        let mut steps = 0u64;
        for i in 0..6 * 4096u64 {
            e.try_write(i, scattered_lba(i, 4096)).unwrap();
            // `serve`'s idle GC: a step off the write path whenever the
            // queue runs dry, here every 64 writes, between inline passes.
            if i % 64 == 63 && e.try_gc_step().unwrap() {
                steps += 1;
            }
        }
        assert!(steps > 0, "idle steps never reclaimed a segment");
        assert!(e.telemetry().free_segments > 0);
        e.check_invariants();
        e.try_check_recovery().unwrap();
    }

    /// Synchronous GC logs a victim's `GcBegin`, its migrations and its
    /// `Reclaim` inside one host op. Power lost between the two leaves the
    /// victim partly drained: recovery must re-attach it as an ordinary
    /// sealed segment and keep every write acknowledged before the cut.
    #[test]
    fn power_cut_between_gc_begin_and_reclaim_reattaches_victim() {
        let dir = dur_dir("gc_cut");
        let builder = |budget| {
            let cfg = small_cfg();
            let dcfg = DurabilityConfig {
                fsync: wal::FsyncPolicy::EveryCommit,
                rotate_bytes: u64::MAX,
                checkpoint_every_flushes: 0,
                budget,
                ..Default::default()
            };
            Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
                .config(cfg)
                .durability(&dir, dcfg)
        };
        // Write until the first victim is reclaimed or the power fails.
        let run = |e: &mut Lss<TestPolicy, CountingArray>| {
            let mut acked = Vec::new();
            for i in 0u64.. {
                let r = e.try_write(i, scattered_lba(i, 4096));
                e.drain_durable_acks(&mut acked);
                if r.is_err() || e.metrics().segments_reclaimed > 0 {
                    return (acked, r);
                }
            }
            unreachable!()
        };

        // Golden run: find the first victim's records in the log.
        let mut golden = builder(None).build();
        run(&mut golden).1.unwrap();
        drop(golden);
        let log = std::fs::read(dir.join(wal::wal_file_name(0))).unwrap();
        let mut frames = Vec::new();
        let mut off = 0;
        while let Some((rec, next)) = wal::decode_frame(&log, off) {
            frames.push((rec, next));
            off = next;
        }
        let begin = frames.iter().position(|(r, _)| matches!(r, WalRecord::GcBegin { .. }));
        let reclaim = frames.iter().position(|(r, _)| matches!(r, WalRecord::Reclaim { .. }));
        let (begin, reclaim) = (begin.unwrap(), reclaim.unwrap());
        let WalRecord::GcBegin { seg: victim } = frames[begin].0 else { unreachable!() };
        assert!(reclaim > begin + 2, "the victim must have live blocks to migrate");
        // Power fails halfway through the victim's migration.
        let cut = frames[(begin + reclaim) / 2].1 as u64;

        let mut crashed = builder(Some(adapt_array::PowerBudget::limited(cut))).build();
        let (acked, r) = run(&mut crashed);
        assert!(matches!(r, Err(EngineError::Wal(WalError::PowerLoss))), "{r:?}");
        drop(crashed);

        let (r, _report) = builder(None).recover().unwrap();
        r.check_invariants();
        r.try_check_recovery().unwrap();
        let s = &r.segments[victim as usize];
        assert_eq!(s.state, SegmentState::Sealed);
        assert!(s.valid_blocks > 0, "the cut must land before the victim drained");
        assert_eq!(r.groups[s.group as usize].sealed.get(s.group_pos as usize), Some(&victim));
        assert_eq!(r.buckets.tracked_valid(victim), Some(s.valid_blocks));
        assert!(!acked.is_empty());
        for (lba, version) in acked {
            assert!(r.durable_version(lba) >= Some(version), "acked write of lba {lba} lost");
        }
    }

    #[test]
    fn recovery_rebuilds_durable_index_after_churn() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        e.try_check_recovery().unwrap();
        e.try_flush_all().unwrap();
        e.try_check_recovery().unwrap();
    }

    #[test]
    fn recovery_handles_shadow_and_lazy_append() {
        let mut e = engine(TestPolicy::with_shadow());
        e.try_write(0, 42).unwrap();
        e.try_advance_time(1_000).unwrap(); // shadow append: durable copy is the shadow
        e.try_check_recovery().unwrap();
        for i in 0..16u64 {
            e.try_write(2_000 + i, 100 + i).unwrap(); // lazy append supersedes the shadow
        }
        e.try_check_recovery().unwrap();
        e.try_write(50_000, 42).unwrap(); // overwrite again
        e.try_advance_time(200_000).unwrap();
        e.try_flush_all().unwrap();
        e.try_check_recovery().unwrap();
    }

    #[test]
    fn utilization_histogram_reflects_separation() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        let t = e.telemetry();
        assert!(t.utilization_histogram.iter().sum::<u64>() > 0, "no sealed segments");
        let mean = t.mean_sealed_utilization;
        assert!(mean > 0.0 && mean <= 1.0, "mean {mean}");
    }

    #[test]
    fn empty_engine_utilization_is_trivial() {
        let t = engine(TestPolicy::sepgc()).telemetry();
        assert_eq!(t.utilization_histogram, [0u64; 10]);
        assert_eq!(t.mean_sealed_utilization, 1.0);
    }

    #[test]
    fn durability_latency_tracks_sla_and_fills() {
        let mut e = engine(TestPolicy::sepgc());
        // A lone sparse block becomes durable at the SLA deadline.
        e.try_write(0, 1).unwrap();
        e.try_advance_time(10_000).unwrap();
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 1);
        assert!(h.max_us() >= 100, "latency {}", h.max_us());
        // Dense writes fill the chunk quickly: low latencies.
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..16u64 {
            e.try_write(i, i).unwrap();
        }
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 16);
        assert!(h.max_us() <= 16);
        assert!(h.fraction_within(64) > 0.99);
    }

    #[test]
    fn shadow_append_grants_durability_at_expiry() {
        let mut e = engine(TestPolicy::with_shadow());
        e.try_write(0, 42).unwrap();
        e.try_advance_time(1_000).unwrap(); // shadow append at t=100
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 1, "shadowed block counted once");
        // Completing the home chunk later must NOT double-count it: the
        // chunk flushes with the shadowed block (skipped) + 15 new blocks
        // (recorded); the 16th new block stays pending.
        for i in 0..16u64 {
            e.try_write(2_000 + i, 100 + i).unwrap();
        }
        assert!(e.metrics().lazy_appends >= 1);
        assert_eq!(e.metrics().durability_latency.count(), 16);
    }

    #[test]
    fn degraded_reads_served_via_reconstruction() {
        use adapt_array::{FaultPlan, InMemoryArray};
        let cfg = small_cfg();
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            InMemoryArray::modelled(cfg.array_config(), FaultPlan::new(7)),
        )
        .config(cfg)
        .build();
        // Three dense chunks complete RAID-5 stripe 0 (3 data columns).
        for i in 0..48u64 {
            e.try_write(i, i).unwrap();
        }
        // Chunk 0 (stripe 0, column 0) sits on device 0 under the
        // left-symmetric layout. Fail it; reads must reconstruct.
        e.sink_mut().fail_device(0);
        e.try_read_request(100, 0, 16).expect("degraded read must succeed");
        let m = e.metrics();
        assert_eq!(m.degraded_reads, 1);
        // Reconstruction fetched the 3 surviving chunks of the stripe.
        assert_eq!(m.reconstructed_bytes, 3 * 64 * 1024);
        assert_eq!(m.array_read_bytes, 64 * 1024);
        // A chunk on a healthy device still reads directly.
        e.try_read_request(101, 16, 16).expect("healthy read");
        assert_eq!(e.metrics().degraded_reads, 1);
    }

    #[test]
    fn transient_read_errors_retry_then_surface() {
        use adapt_array::{ArrayError, FaultPlan, InMemoryArray};
        let cfg = small_cfg();
        let plan = FaultPlan::new(3).with_transient_read_prob(1.0);
        let mut e =
            Lss::builder(TestPolicy::sepgc(), InMemoryArray::modelled(cfg.array_config(), plan))
                .config(cfg)
                .build();
        for i in 0..16u64 {
            e.try_write(i, i).unwrap();
        }
        // Every attempt draws a transient error: the engine retries
        // READ_RETRY_LIMIT times, then surfaces the fault.
        let err = e.try_read_request(100, 0, 4).unwrap_err();
        assert!(matches!(err, EngineError::Array(ArrayError::TransientRead { .. })));
        assert!(err.is_transient());
        let m = e.metrics();
        assert_eq!(m.retried_reads, 3);
        // Exponential backoff: 50 + 100 + 200 simulated µs.
        assert_eq!(m.retry_backoff_us, 50 + 100 + 200);
        // The failed fetch was not charged as array traffic served.
        assert_eq!(m.degraded_reads, 0);
    }

    #[test]
    fn gc_pauses_during_rebuild_and_resumes_after() {
        use adapt_array::{ArrayHealth, FaultPlan, InMemoryArray};
        let cfg = small_cfg();
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            InMemoryArray::modelled(cfg.array_config(), FaultPlan::new(1)),
        )
        .config(cfg)
        .build();
        // Churn: plenty of sealed segments with garbage for GC to eat.
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        for i in 0..2 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        // Enter rebuild: idle GC steps must decline.
        e.sink_mut().fail_device(1);
        e.sink_mut().start_rebuild_all().unwrap();
        assert!(matches!(e.sink().health(), ArrayHealth::Rebuilding { .. }));
        assert!(!e.try_gc_step().unwrap(), "GC must pause while rebuilding");
        assert!(e.metrics().gc_throttled > 0);
        let reclaimed_during = e.metrics().segments_reclaimed;
        // Finish the rebuild; GC resumes.
        e.sink_mut().rebuild_step(usize::MAX).unwrap();
        assert_eq!(e.sink().health(), ArrayHealth::Healthy);
        assert!(e.try_gc_step().unwrap(), "GC must resume once healthy");
        assert!(e.metrics().segments_reclaimed > reclaimed_during);
        e.check_invariants();
    }

    #[test]
    fn rebuild_metrics_capture_ops_and_bytes() {
        use adapt_array::{FaultPlan, InMemoryArray};
        let cfg = small_cfg();
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            InMemoryArray::modelled(cfg.array_config(), FaultPlan::new(2)),
        )
        .config(cfg)
        .build();
        let mut ts = 0u64;
        for lba in 0..1024u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        e.sink_mut().fail_device(0);
        e.sink_mut().start_rebuild_all().unwrap();
        // Ops observed while rebuilding count toward time-to-rebuild.
        for lba in 0..64u64 {
            e.try_write(ts, lba).unwrap();
            ts += 1;
        }
        e.sink_mut().rebuild_step(usize::MAX).unwrap();
        // The healthy transition is noticed at the next host op.
        e.try_write(ts, 0).unwrap();
        let m = e.metrics();
        assert!(m.rebuild_ops >= 64, "rebuild_ops {}", m.rebuild_ops);
        assert!(m.rebuild_bytes > 0);
        assert_eq!(m.rebuild_bytes, e.sink().stats().rebuild_bytes());
    }

    #[test]
    fn out_of_space_surfaces_as_typed_error() {
        // `validate()` rejects every config whose watermarks cannot
        // sustain the workload, so starve the collector by hand: keep
        // emptying the free pool until a migration needs a fresh segment.
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..5 * 4096u64 {
            e.try_write(i, scattered_lba(i, 4096)).unwrap();
        }
        let err = loop {
            e.free.clear();
            match e.try_gc_step() {
                Ok(reclaimed) => assert!(reclaimed, "churn left nothing to collect"),
                Err(err) => break err,
            }
        };
        assert!(matches!(err, EngineError::OutOfSpace { in_gc: true, .. }), "{err}");
        assert!(err.to_string().contains("raise op_ratio"));
        // Terminal-error contract: the victim stays detached (sealed, yet
        // in neither the bucket index nor its owner's list) and the engine
        // stays consistent around it.
        let detached = e
            .segments
            .iter()
            .filter(|s| s.state == SegmentState::Sealed && e.buckets.tracked_valid(s.id).is_none())
            .count();
        assert_eq!(detached, 1);
        e.check_invariants();
    }

    #[test]
    fn event_stream_reconciles_and_keeps_metrics_bit_identical() {
        use crate::events::EventConfig;
        let run = |on: bool| {
            let cfg = small_cfg();
            let mut e =
                Lss::builder(TestPolicy::with_shadow(), CountingArray::new(cfg.array_config()))
                    .config(cfg)
                    .events(EventConfig {
                        enabled: on,
                        ring_capacity: 128,
                        gauge_interval_ops: 1000,
                    })
                    .build();
            let mut ts = 0u64;
            for lba in 0..4096u64 {
                e.try_write(ts, lba).unwrap();
                ts += 1;
            }
            for i in 0..4 * 4096u64 {
                e.try_write(ts, scattered_lba(i, 4096)).unwrap();
                ts += 1;
            }
            // A lone straggler exercises the shadow-append path.
            e.try_write(ts + 10_000, 4095).unwrap();
            e.try_advance_time(ts + 200_000).unwrap();
            e.try_flush_all().unwrap();
            e
        };
        let mut off = run(false);
        let mut on = run(true);
        assert_eq!(off.metrics(), on.metrics(), "events must not perturb the replay");
        assert_eq!(off.telemetry().events.emitted, 0);
        let snap = on.telemetry();
        let m = &snap.lss;
        // Event totals survive ring wraparound, so they reconcile exactly
        // with the engine's own counters.
        assert_eq!(snap.events.kind_total("gc_collect"), m.segments_reclaimed);
        assert_eq!(snap.events.kind_total("padded_flush"), m.padded_chunks);
        assert_eq!(snap.events.kind_total("shadow_append"), m.shadow_append_events);
        assert!(snap.events.distinct_kinds() >= 3, "{:?}", snap.events.kinds);
        assert!(!snap.gauges.is_empty(), "gauge series sampled");
    }

    #[test]
    fn trim_of_pending_block_drops_buffer_entry() {
        let mut e = engine(TestPolicy::sepgc());
        e.try_write(0, 5).unwrap();
        e.try_trim(1, 5, 1).unwrap();
        assert_eq!(e.metrics().trimmed_blocks, 1);
        e.try_advance_time(10_000).unwrap();
        // Nothing left to pad out: buffer was emptied by the trim.
        assert_eq!(e.metrics().chunks_flushed, 0);
        e.check_invariants();
    }
}
