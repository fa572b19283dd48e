//! The placement-policy interface.
//!
//! A placement policy owns the paper's central decision: *which group does
//! each block go to?* The engine consults the policy on every user write
//! and every GC rewrite, lets it react to SLA expiries (this is where
//! ADAPT's cross-group aggregation plugs in), and feeds it segment
//! lifecycle events so lifespan-based policies (SepBIT, ADAPT) can learn
//! segment lifespans.

use crate::events::PolicyEvent;
use crate::group::Group;
use crate::types::{GroupId, Lba, SegmentId};
use serde::{Deserialize, Serialize};

/// What kind of traffic a group accepts. Used for reporting (Fig. 3b splits
/// groups by whether they are limited to user/GC writes) and for sanity
/// checks; the engine itself routes wherever the policy says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupKind {
    /// Receives user writes only.
    User,
    /// Receives GC rewrites only.
    Gc,
    /// Receives both (DAC, MiDA style).
    Mixed,
}

/// Reaction to a chunk-coalescing SLA expiry on a group with pending
/// blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaAction {
    /// Zero-pad the partial chunk and flush it (the default behaviour and
    /// what every baseline does).
    Pad,
    /// ADAPT §3.3: persist the pending blocks as *shadow* copies inside
    /// `target`'s open chunk, keep them pending in their home group (lazy
    /// append), and reset the home group's aggregation timer.
    ShadowAppend {
        /// The (colder) group whose unfilled chunk absorbs the substitutes.
        target: GroupId,
    },
}

/// The engine's state as a policy callback sees it. The groups are
/// borrowed from the engine for the length of the call, never copied.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyCtx<'a> {
    /// Current simulated time (µs).
    pub now_us: u64,
    /// Logical user bytes written so far — the "byte clock" lifespan-based
    /// policies measure ages and lifespans against (SepBIT, ADAPT).
    pub user_bytes: u64,
    /// Capacity of a chunk in blocks.
    pub chunk_blocks: u32,
    /// Whether the engine's structured event stream is recording. Policies
    /// buffer [`PolicyEvent`]s for [`PlacementPolicy::drain_events`] only
    /// when set, keeping the disabled path allocation-free.
    pub events_enabled: bool,
    /// The engine's groups, indexed by `GroupId`.
    pub groups: &'a [Group],
}

/// Metadata of a sealed segment (lifecycle notifications).
#[derive(Debug, Clone, Copy)]
pub struct SegmentMeta {
    /// Segment id.
    pub seg: SegmentId,
    /// Owning group at seal time.
    pub group: GroupId,
    /// Byte-clock value when the segment was opened.
    pub created_user_bytes: u64,
    /// Wall-clock (µs) when the segment was opened.
    pub created_ts_us: u64,
}

/// Metadata of the victim segment during a GC pass, passed to
/// [`PlacementPolicy::place_gc`] for every migrated block.
#[derive(Debug, Clone, Copy)]
pub struct VictimMeta {
    /// Victim segment id.
    pub seg: SegmentId,
    /// Group the victim belonged to.
    pub group: GroupId,
    /// Byte-clock value when the victim segment was opened.
    pub created_user_bytes: u64,
    /// Valid blocks in the victim at selection time.
    pub valid_blocks: u32,
    /// Total block slots per segment.
    pub segment_blocks: u32,
}

/// Notification that a victim segment was fully reclaimed.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimInfo {
    /// Victim segment id.
    pub seg: SegmentId,
    /// Group the victim belonged to.
    pub group: GroupId,
    /// Byte-clock value when the segment was opened.
    pub created_user_bytes: u64,
    /// Byte-clock value at reclaim — lifespan = this − created.
    pub reclaimed_user_bytes: u64,
    /// Valid blocks that had to be migrated.
    pub migrated_blocks: u32,
}

impl ReclaimInfo {
    /// Segment lifespan measured on the user-byte clock (the paper's §3.2
    /// definition: unique user-written bytes between creation and reclaim —
    /// we use total user bytes, the standard SepBIT approximation).
    pub fn lifespan_bytes(&self) -> u64 {
        self.reclaimed_user_bytes.saturating_sub(self.created_user_bytes)
    }
}

/// A data placement strategy. See the crate docs for the call protocol.
pub trait PlacementPolicy {
    /// Display name used in reports ("SepGC", "ADAPT", …).
    fn name(&self) -> &'static str;

    /// The fixed group topology. Index = `GroupId`.
    fn groups(&self) -> &[GroupKind];

    /// Choose the destination group for a user-written block.
    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId;

    /// Choose the destination group for a GC-rewritten (still valid) block
    /// being migrated out of `victim`.
    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, victim: &VictimMeta) -> GroupId;

    /// The coalescing SLA expired on `group` with a partial chunk pending.
    /// Default: pad (all baselines).
    fn on_sla_expire(&mut self, _ctx: &PolicyCtx, _group: GroupId) -> SlaAction {
        SlaAction::Pad
    }

    /// A valid block was migrated from `from`'s victim segment into `to`.
    /// ADAPT builds its re-access identifier here (§3.4).
    fn on_gc_block_migrated(&mut self, _lba: Lba, _from: GroupId, _to: GroupId) {}

    /// A segment filled up and was sealed.
    fn on_segment_sealed(&mut self, _ctx: &PolicyCtx, _meta: &SegmentMeta) {}

    /// A victim segment was reclaimed. Lifespan-based policies update their
    /// thresholds here.
    fn on_segment_reclaimed(&mut self, _ctx: &PolicyCtx, _info: &ReclaimInfo) {}

    /// Approximate resident memory of policy state in bytes (Fig. 12b).
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Move any buffered observability events into `out`. The engine calls
    /// this once per host op while its event stream is recording (see
    /// [`PolicyCtx::events_enabled`]); policies without instrumentation
    /// keep the default no-op.
    fn drain_events(&mut self, _out: &mut Vec<PolicyEvent>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaim_lifespan() {
        let r = ReclaimInfo {
            seg: 0,
            group: 0,
            created_user_bytes: 1000,
            reclaimed_user_bytes: 5000,
            migrated_blocks: 3,
        };
        assert_eq!(r.lifespan_bytes(), 4000);
    }
}
