//! Structured engine events: the observability layer's typed record
//! stream.
//!
//! The end-of-run aggregates in [`crate::LssMetrics`] say *that* WA
//! spiked; this module records *when and why*: every GC collection
//! (victim, utilization, migrated blocks), every SLA-forced padded flush,
//! every shadow/lazy append, rebuild and scrub progress, checksum heals,
//! and — via [`PlacementPolicy::drain_events`] — the policy-side decisions
//! (threshold adoptions, ghost-regime switches, proactive demotions).
//!
//! # Cost model
//!
//! Recording is off by default. Every instrumentation site in the engine
//! is guarded by a single branch on [`EventRecorder::enabled`]; event
//! payloads are plain-`Copy` enums built only inside the guard, and the
//! disabled path performs no allocation and touches no ring state, so the
//! PR-2 perf harness sees a bit-identical replay. When enabled, events
//! land in a bounded ring buffer (oldest dropped first) while per-kind
//! totals persist across wraparound, so event-derived rates stay exact
//! even for long runs.
//!
//! [`PlacementPolicy::drain_events`]: crate::PlacementPolicy::drain_events

use crate::types::{GroupId, Lba, SegmentId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Policy-side observability records, buffered by a [`PlacementPolicy`]
/// while [`PolicyCtx::events_enabled`] is set and drained by the engine
/// once per host op.
///
/// [`PlacementPolicy`]: crate::PlacementPolicy
/// [`PolicyCtx::events_enabled`]: crate::PolicyCtx::events_enabled
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyEvent {
    /// The ghost-set machinery adopted a new hot/cold threshold.
    ThresholdAdopted {
        /// Adopted threshold on the byte clock.
        threshold_bytes: u64,
        /// Whether the candidate ladder is in its linear refinement phase.
        linear: bool,
        /// Number of ghost candidates simulated at adoption time.
        candidates: u32,
    },
    /// The ghost simulation's governing regime changed: the adapted
    /// threshold takes over when padding is a live cost and yields to the
    /// lifespan estimate when chunks fill on their own.
    GhostOutcome {
        /// Whether the ghost-adapted threshold now governs placement.
        adapted_governs: bool,
        /// The hot/cold threshold in force after the switch (bytes;
        /// `u64::MAX` encodes "infinite — everything is hot").
        effective_threshold_bytes: u64,
    },
    /// The RA identifier demoted a user write straight into a GC group.
    Demotion {
        /// Demoted block.
        lba: Lba,
        /// Destination GC group.
        group: GroupId,
    },
}

/// One structured engine event. `Copy` on purpose: recording an event is
/// a bounded-size store, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// GC collected one victim segment.
    GcCollect {
        /// Victim segment id.
        victim: SegmentId,
        /// Group the victim belonged to.
        group: GroupId,
        /// Valid blocks at selection time (utilization numerator).
        valid_blocks: u32,
        /// Segment capacity in blocks (utilization denominator).
        segment_blocks: u32,
        /// Blocks actually migrated out.
        migrated: u32,
    },
    /// A chunk flushed with zero padding (SLA-forced or end-of-trace).
    PaddedFlush {
        /// Group whose chunk padded out.
        group: GroupId,
        /// Payload blocks the chunk carried.
        payload_blocks: u32,
        /// Zero-pad blocks appended.
        pad_blocks: u32,
    },
    /// ADAPT §3.3: a home group's pending blocks were persisted as shadow
    /// copies inside another group's chunk.
    ShadowAppend {
        /// Group whose SLA expired.
        home: GroupId,
        /// Group that donated chunk space.
        target: GroupId,
        /// Substitute blocks written.
        blocks: u32,
    },
    /// A home chunk filled after a shadow append: the normal flush
    /// superseded the shadow copies (which became garbage).
    LazyAppend {
        /// Home group completing its chunk.
        group: GroupId,
        /// Shadow copies superseded by this flush.
        blocks: u32,
    },
    /// The array entered rebuild (spare reconstruction started).
    RebuildStart {
        /// Device being rebuilt.
        device: u32,
    },
    /// The array returned to healthy after a rebuild.
    RebuildComplete {
        /// Host ops observed between rebuild start and completion.
        ops: u64,
        /// Array bytes moved by the rebuild sweep.
        bytes: u64,
    },
    /// The background scrub finished one full pass over the array.
    ScrubPass {
        /// Chunks verified so far (cumulative).
        chunks_scrubbed: u64,
    },
    /// A scrub step repaired corruption (checksum mismatch or latent
    /// sector error) in place from stripe survivors.
    ScrubHeal {
        /// Mismatched chunks healed in this step.
        healed: u64,
        /// Latent sector errors rewritten in this step.
        latent_repaired: u64,
    },
    /// The read path caught a checksum mismatch and healed the chunk in
    /// place before serving it.
    ChecksumHeal {
        /// Segment whose chunk was healed.
        seg: SegmentId,
        /// Chunk index within the segment.
        chunk_in_seg: u32,
    },
    /// A policy-side decision (threshold adaptation, ghost outcome,
    /// proactive demotion).
    Policy(PolicyEvent),
}

/// Number of distinct event kinds (for the per-kind total table).
pub const EVENT_KINDS: usize = 12;

impl EventKind {
    /// Stable index of this kind in per-kind total arrays.
    pub fn index(&self) -> usize {
        match self {
            EventKind::GcCollect { .. } => 0,
            EventKind::PaddedFlush { .. } => 1,
            EventKind::ShadowAppend { .. } => 2,
            EventKind::LazyAppend { .. } => 3,
            EventKind::RebuildStart { .. } => 4,
            EventKind::RebuildComplete { .. } => 5,
            EventKind::ScrubPass { .. } => 6,
            EventKind::ScrubHeal { .. } => 7,
            EventKind::ChecksumHeal { .. } => 8,
            EventKind::Policy(PolicyEvent::ThresholdAdopted { .. }) => 9,
            EventKind::Policy(PolicyEvent::GhostOutcome { .. }) => 10,
            EventKind::Policy(PolicyEvent::Demotion { .. }) => 11,
        }
    }

    /// Stable label of this kind (run-report and taxonomy-table key).
    pub fn label(&self) -> &'static str {
        KIND_LABELS[self.index()]
    }
}

/// Labels by [`EventKind::index`].
pub const KIND_LABELS: [&str; EVENT_KINDS] = [
    "gc_collect",
    "padded_flush",
    "shadow_append",
    "lazy_append",
    "rebuild_start",
    "rebuild_complete",
    "scrub_pass",
    "scrub_heal",
    "checksum_heal",
    "threshold_adopted",
    "ghost_outcome",
    "demotion",
];

/// One recorded event with its ordering and clock context.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineEvent {
    /// Monotonic sequence number (gap-free across ring wraparound).
    pub seq: u64,
    /// Simulated time (µs) at emission.
    pub now_us: u64,
    /// Host-op clock at emission.
    pub op: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Event-stream configuration. `Copy` + serde so replay configs can embed
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventConfig {
    /// Master switch. Off = zero-cost: one predictable branch per site.
    pub enabled: bool,
    /// Ring-buffer capacity in events (oldest dropped beyond this).
    pub ring_capacity: u32,
    /// Sample the gauge time series every this many host ops (0 = off).
    pub gauge_interval_ops: u64,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self { enabled: false, ring_capacity: 4096, gauge_interval_ops: 1024 }
    }
}

impl EventConfig {
    /// An enabled configuration with the default ring and gauge cadence.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// One sample of the gauge time series: the engine's key load indicators
/// at a fixed op cadence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Host-op clock at the sample.
    pub op: u64,
    /// Simulated time (µs) at the sample.
    pub now_us: u64,
    /// Write amplification accumulated so far in the measurement window.
    pub wa_so_far: f64,
    /// Free segments remaining (GC backlog inverse).
    pub free_segments: u32,
    /// Segments below the GC high watermark — how far the collector is
    /// behind its target (0 = no backlog).
    pub gc_backlog_segments: u32,
    /// Mean valid fraction across sealed segments.
    pub mean_utilization: f64,
    /// Per-group open-chunk occupancy (pending blocks).
    pub group_pending_blocks: Vec<u32>,
    /// Per-group owned segments (sealed + open).
    pub group_segments: Vec<u32>,
}

/// Serializable summary of the event stream: per-kind totals survive ring
/// wraparound, so these reconcile with [`crate::LssMetrics`] counters
/// regardless of ring capacity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventStats {
    /// Events emitted over the run (recorded + dropped).
    pub emitted: u64,
    /// Events evicted from the ring by wraparound.
    pub dropped: u64,
    /// `(kind label, total)` for every kind with at least one event.
    pub kinds: Vec<(String, u64)>,
}

impl EventStats {
    /// Total for one kind label (0 if absent).
    pub fn kind_total(&self, label: &str) -> u64 {
        self.kinds.iter().find(|(k, _)| k == label).map(|&(_, n)| n).unwrap_or(0)
    }

    /// Number of distinct kinds observed.
    pub fn distinct_kinds(&self) -> usize {
        self.kinds.len()
    }
}

/// The engine's event recorder: bounded ring + persistent per-kind totals
/// + gauge series.
#[derive(Debug, Default)]
pub struct EventRecorder {
    cfg: EventConfig,
    ring: VecDeque<EngineEvent>,
    next_seq: u64,
    dropped: u64,
    per_kind: [u64; EVENT_KINDS],
    gauges: Vec<GaugeSample>,
}

impl EventRecorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: EventConfig) -> Self {
        Self {
            cfg,
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            per_kind: [0; EVENT_KINDS],
            gauges: Vec::new(),
        }
    }

    /// A disabled recorder (the engine default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether recording is on — the engine's per-site guard.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration in force.
    pub fn config(&self) -> EventConfig {
        self.cfg
    }

    /// Record one event. Caller guards with [`EventRecorder::enabled`];
    /// recording while disabled is a silent no-op so un-guarded cold
    /// paths stay correct.
    pub fn record(&mut self, now_us: u64, op: u64, kind: EventKind) {
        if !self.cfg.enabled {
            return;
        }
        let event = EngineEvent { seq: self.next_seq, now_us, op, kind };
        self.next_seq += 1;
        self.per_kind[kind.index()] += 1;
        if self.ring.len() >= self.cfg.ring_capacity as usize {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Record one gauge sample (the engine samples on the op cadence).
    pub fn record_gauge(&mut self, sample: GaugeSample) {
        if self.cfg.enabled {
            self.gauges.push(sample);
        }
    }

    /// Events currently retained in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EngineEvent> {
        self.ring.iter()
    }

    /// Number of events retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events emitted over the run, including those dropped by wrap.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring by wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Lifetime total for one kind (survives ring wraparound).
    pub fn kind_total(&self, kind_index: usize) -> u64 {
        self.per_kind[kind_index]
    }

    /// The gauge time series sampled so far.
    pub fn gauges(&self) -> &[GaugeSample] {
        &self.gauges
    }

    /// Serializable summary (what [`TelemetrySnapshot`] embeds).
    ///
    /// [`TelemetrySnapshot`]: crate::TelemetrySnapshot
    pub fn stats(&self) -> EventStats {
        EventStats {
            emitted: self.next_seq,
            dropped: self.dropped,
            kinds: KIND_LABELS
                .iter()
                .zip(self.per_kind)
                .filter(|&(_, n)| n > 0)
                .map(|(&k, n)| (k.to_string(), n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cap: u32) -> EventRecorder {
        EventRecorder::new(EventConfig { enabled: true, ring_capacity: cap, ..Default::default() })
    }

    fn pad(group: GroupId) -> EventKind {
        EventKind::PaddedFlush { group, payload_blocks: 3, pad_blocks: 13 }
    }

    #[test]
    fn disabled_recorder_stays_inert() {
        let mut r = EventRecorder::disabled();
        assert!(!r.enabled());
        r.record(1, 1, pad(0));
        r.record_gauge(GaugeSample {
            op: 1,
            now_us: 1,
            wa_so_far: 1.0,
            free_segments: 0,
            gc_backlog_segments: 0,
            mean_utilization: 1.0,
            group_pending_blocks: vec![],
            group_segments: vec![],
        });
        assert_eq!(r.emitted(), 0);
        assert!(r.is_empty());
        assert!(r.gauges().is_empty());
        assert_eq!(r.stats(), EventStats::default());
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops() {
        let mut r = rec(4);
        for i in 0..10u64 {
            r.record(i, i, pad((i % 3) as GroupId));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.emitted(), 10);
        assert_eq!(r.dropped(), 6);
        // The ring retains the newest events, in order.
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Per-kind totals count every emission, not just the retained.
        let stats = r.stats();
        assert_eq!(stats.kind_total("padded_flush"), 10);
        assert_eq!(stats.emitted, stats.dropped + r.len() as u64);
    }

    #[test]
    fn event_ordering_is_gap_free_and_monotone() {
        let mut r = rec(128);
        for i in 0..50u64 {
            r.record(i * 3, i, pad(0));
        }
        let events: Vec<&EngineEvent> = r.events().collect();
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert!(events.windows(2).all(|w| w[1].now_us >= w[0].now_us));
        assert_eq!(events.first().unwrap().seq, 0);
    }

    #[test]
    fn kind_indices_are_a_bijection_onto_labels() {
        let kinds = [
            EventKind::GcCollect {
                victim: 0,
                group: 0,
                valid_blocks: 0,
                segment_blocks: 128,
                migrated: 0,
            },
            pad(0),
            EventKind::ShadowAppend { home: 0, target: 1, blocks: 2 },
            EventKind::LazyAppend { group: 0, blocks: 2 },
            EventKind::RebuildStart { device: 0 },
            EventKind::RebuildComplete { ops: 1, bytes: 2 },
            EventKind::ScrubPass { chunks_scrubbed: 1 },
            EventKind::ScrubHeal { healed: 1, latent_repaired: 0 },
            EventKind::ChecksumHeal { seg: 0, chunk_in_seg: 0 },
            EventKind::Policy(PolicyEvent::ThresholdAdopted {
                threshold_bytes: 1,
                linear: false,
                candidates: 8,
            }),
            EventKind::Policy(PolicyEvent::GhostOutcome {
                adapted_governs: true,
                effective_threshold_bytes: 1,
            }),
            EventKind::Policy(PolicyEvent::Demotion { lba: 1, group: 4 }),
        ];
        let mut seen = [false; EVENT_KINDS];
        for k in kinds {
            assert_eq!(k.label(), KIND_LABELS[k.index()]);
            assert!(!seen[k.index()], "duplicate index {}", k.index());
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every kind index covered");
    }

    #[test]
    fn stats_skip_zero_kinds() {
        let mut r = rec(8);
        r.record(0, 0, EventKind::ShadowAppend { home: 0, target: 1, blocks: 4 });
        let stats = r.stats();
        assert_eq!(stats.distinct_kinds(), 1);
        assert_eq!(stats.kind_total("shadow_append"), 1);
        assert_eq!(stats.kind_total("gc_collect"), 0);
    }
}
