//! Log-structured storage (LSS) engine for the ADAPT reproduction.
//!
//! This crate implements the storage substrate of the paper's Fig. 1: a
//! log-structured layer that appends 4 KiB blocks into fixed-size
//! *segments*, organizes segments into *groups* (streams), coalesces blocks
//! into array *chunks* under a latency SLA (zero-padding partial chunks
//! when the 100 µs window expires), and reclaims space with a
//! garbage-collection driver using Greedy or Cost-Benefit victim selection.
//!
//! Data placement is pluggable through [`PlacementPolicy`]: the engine asks
//! the policy which group every user write and every GC rewrite should go
//! to, and notifies it of segment lifecycle events. The baselines
//! (`adapt-placement`) and ADAPT itself (`adapt-core`) are implementations
//! of that trait; the engine is policy-agnostic.
//!
//! The engine also implements the *mechanics* of ADAPT's cross-group
//! dynamic aggregation (§3.3) — shadow append and lazy append — because
//! they require bookkeeping inside the block index; policies opt in by
//! returning [`SlaAction::ShadowAppend`] from their SLA-expiry hook.
//! Policies that never do (all baselines) simply pad.
//!
//! # Model notes
//!
//! * The engine is a *simulator*: block payloads are not stored; the array
//!   below receives accounting-level chunk flushes (see `adapt-array`).
//! * GC is instantaneous in simulated time (as in the SepBIT/MiDAS public
//!   simulators); migrated blocks enter their destination group's open
//!   chunk without an SLA timer, matching the paper's Observation 2 that
//!   bulk GC traffic needs no padding.
//! * Time is driven by the caller's trace timestamps; SLA expiries between
//!   two requests are processed at their exact expiry instants.
//!
//! # Example
//!
//! ```
//! use adapt_lss::{GcSelection, Lss, LssConfig};
//! use adapt_array::CountingArray;
//! # use adapt_lss::{GroupId, GroupKind, Lba, PlacementPolicy, PolicyCtx, VictimMeta};
//! # struct Simple(Vec<GroupKind>);
//! # impl PlacementPolicy for Simple {
//! #     fn name(&self) -> &'static str { "simple" }
//! #     fn groups(&self) -> &[GroupKind] { &self.0 }
//! #     fn place_user(&mut self, _c: &PolicyCtx, _l: Lba) -> GroupId { 0 }
//! #     fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId { 1 }
//! # }
//!
//! let cfg = LssConfig { user_blocks: 8 * 1024, op_ratio: 0.5, ..Default::default() };
//! let policy = Simple(vec![GroupKind::User, GroupKind::Gc]);
//! let mut engine = Lss::builder(policy, CountingArray::new(cfg.array_config()))
//!     .config(cfg)
//!     .gc_select(GcSelection::Greedy)
//!     .build();
//!
//! // Sixteen back-to-back 4 KiB writes fill exactly one 64 KiB chunk.
//! for lba in 0..16 {
//!     engine.try_write(lba, lba)?;
//! }
//! assert_eq!(engine.metrics().chunks_flushed, 1);
//! assert_eq!(engine.metrics().pad_bytes, 0);
//!
//! // A lone write pads out at the 100 µs SLA deadline.
//! engine.try_write(1_000_000, 42)?;
//! engine.try_advance_time(2_000_000)?;
//! assert_eq!(engine.metrics().padded_chunks, 1);
//! # Ok::<(), adapt_lss::EngineError>(())
//! ```

pub mod builder;
pub(crate) mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod events;
pub mod fxhash;
pub mod gc;
pub mod gc_buckets;
pub mod gc_variants;
pub mod group;
pub mod index;
pub mod latency;
pub mod metrics;
pub mod placement;
pub mod recovery;
pub mod segment;
pub mod telemetry;
pub mod types;
pub mod wal;

pub use adapt_array::Retryable;
pub use builder::EngineBuilder;
pub use config::LssConfig;
pub use engine::Lss;
pub use error::EngineError;
pub use events::{
    EngineEvent, EventConfig, EventKind, EventRecorder, EventStats, GaugeSample, PolicyEvent,
    EVENT_KINDS, KIND_LABELS,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use gc::GcSelection;
pub use gc_buckets::SegmentBuckets;
pub use gc_variants::VictimPolicy;
pub use index::{BlockEntry, BlockIndex, DenseMap, VersionIndex};
pub use latency::{LatencyHistogram, LatencySummary};
pub use metrics::{GroupTraffic, LssMetrics};
pub use placement::{
    GroupKind, PlacementPolicy, PolicyCtx, ReclaimInfo, SegmentMeta, SlaAction, VictimMeta,
};
pub use recovery::{RecoveryError, RecoveryReport};
pub use telemetry::TelemetrySnapshot;
pub use types::{GroupId, Lba, SegmentId};
pub use wal::{
    DurabilityConfig, FsyncPolicy, TornTail, Wal, WalError, WalRecord, WalSlot, WalSlotKind,
    WalStats,
};
