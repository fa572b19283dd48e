//! Group (stream) state: the open-chunk coalescing buffer and per-group
//! traffic accounting.

use crate::placement::GroupKind;
use crate::types::{GroupId, Lba, SegmentId};
use adapt_array::Traffic;
use std::collections::VecDeque;

/// A block waiting in a group's open-chunk buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingBlock {
    /// The block.
    pub lba: Lba,
    /// User write or GC rewrite.
    pub traffic: Traffic,
    /// When the block entered the buffer (µs).
    pub arrival_us: u64,
    /// Whether this block still needs the SLA timer: true for user blocks
    /// without a durable shadow copy; false for GC rewrites (bulk traffic,
    /// no latency SLA) and for user blocks already persisted via shadow
    /// append.
    pub needs_sla: bool,
}

/// Per-segment padding record for the sliding window behind the paper's
/// Eq. 1 (`P_i` over the last `k` segments).
#[derive(Debug, Clone, Copy, Default)]
struct SegmentWindowEntry {
    pad_chunks: u64,
    pad_blocks: u64,
}

/// Number of sealed segments the Eq. 1 window spans (`k`).
pub const PAD_WINDOW_SEGMENTS: usize = 4;

/// EWMA smoothing factor for the per-group inter-arrival estimate.
const EWMA_ALPHA: f64 = 0.2;

/// One group: an open segment, a pending chunk buffer, sealed segments,
/// and traffic statistics.
#[derive(Debug)]
pub struct Group {
    /// Group id.
    pub id: GroupId,
    /// Declared traffic kind (reporting only).
    pub kind: GroupKind,
    /// The open segment receiving chunk flushes.
    pub open_segment: SegmentId,
    /// Blocks buffered for the next chunk (len < chunk_blocks).
    pub pending: Vec<PendingBlock>,
    /// Arrival time of the oldest *unpersisted* pending block; drives the
    /// SLA timer. `None` when the buffer is empty or every pending block
    /// has a durable shadow copy.
    pub pending_since_us: Option<u64>,
    /// Sealed segments owned by this group.
    pub sealed: Vec<SegmentId>,
    /// Lifetime counters (blocks).
    pub user_blocks: u64,
    /// Lifetime GC blocks.
    pub gc_blocks: u64,
    /// Lifetime shadow-copy blocks written into this group.
    pub shadow_blocks: u64,
    /// Lifetime padding blocks.
    pub pad_blocks: u64,
    /// Lifetime chunks flushed.
    pub chunks: u64,
    /// Lifetime chunks that carried padding.
    pub pad_chunks: u64,
    /// Eq. 1 sliding window over recent segments.
    window: VecDeque<SegmentWindowEntry>,
    /// Running sum over `window` (exact u64 adds/subtracts on roll), so
    /// [`Group::window_padding`] — called on every placement decision — is
    /// O(1) instead of walking the deque.
    window_sums: SegmentWindowEntry,
    /// Counters for the segment currently accumulating.
    current_entry: SegmentWindowEntry,
    /// EWMA of user-block inter-arrival gap (µs).
    ewma_gap_us: f64,
    /// Timestamp of the last user-block arrival.
    last_arrival_us: Option<u64>,
}

impl Group {
    /// Create a group (open segment assigned by the engine right after).
    pub fn new(id: GroupId, kind: GroupKind) -> Self {
        Self {
            id,
            kind,
            open_segment: SegmentId::MAX,
            pending: Vec::new(),
            pending_since_us: None,
            sealed: Vec::new(),
            user_blocks: 0,
            gc_blocks: 0,
            shadow_blocks: 0,
            pad_blocks: 0,
            chunks: 0,
            pad_chunks: 0,
            window: VecDeque::with_capacity(PAD_WINDOW_SEGMENTS + 1),
            window_sums: SegmentWindowEntry::default(),
            current_entry: SegmentWindowEntry::default(),
            ewma_gap_us: f64::NAN,
            last_arrival_us: None,
        }
    }

    /// Record a user-block arrival for the rate estimator.
    pub fn note_arrival(&mut self, ts_us: u64) {
        if let Some(last) = self.last_arrival_us {
            let gap = ts_us.saturating_sub(last) as f64;
            self.ewma_gap_us = if self.ewma_gap_us.is_nan() {
                gap
            } else {
                EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * self.ewma_gap_us
            };
        }
        self.last_arrival_us = Some(ts_us);
    }

    /// EWMA inter-arrival gap in µs; `u64::MAX` until measurable.
    pub fn ewma_gap_us(&self) -> u64 {
        if self.ewma_gap_us.is_nan() {
            u64::MAX
        } else {
            self.ewma_gap_us as u64
        }
    }

    /// Account one flushed chunk.
    pub fn account_chunk(&mut self, user: u64, gc: u64, shadow: u64, pad: u64) {
        self.user_blocks += user;
        self.gc_blocks += gc;
        self.shadow_blocks += shadow;
        self.pad_blocks += pad;
        self.chunks += 1;
        if pad > 0 {
            self.pad_chunks += 1;
            self.current_entry.pad_chunks += 1;
            self.current_entry.pad_blocks += pad;
        }
    }

    /// Roll the Eq. 1 window at segment seal.
    pub fn roll_window(&mut self) {
        let entry = std::mem::take(&mut self.current_entry);
        self.window_sums.pad_chunks += entry.pad_chunks;
        self.window_sums.pad_blocks += entry.pad_blocks;
        self.window.push_back(entry);
        while self.window.len() > PAD_WINDOW_SEGMENTS {
            let Some(old) = self.window.pop_front() else { break };
            self.window_sums.pad_chunks -= old.pad_chunks;
            self.window_sums.pad_blocks -= old.pad_blocks;
        }
    }

    /// Windowed padding `(P_i padded chunks, pad blocks)` including the
    /// in-progress segment.
    pub fn window_padding(&self) -> (u64, u64) {
        (
            self.window_sums.pad_chunks + self.current_entry.pad_chunks,
            self.window_sums.pad_blocks + self.current_entry.pad_blocks,
        )
    }

    /// The paper's Eq. 1 over the window: average padding per padded
    /// chunk, in blocks. `None` when the window holds no padded chunk.
    pub fn avg_pad_blocks(&self) -> Option<f64> {
        let (pad_chunks, pad_blocks) = self.window_padding();
        (pad_chunks > 0).then(|| pad_blocks as f64 / pad_chunks as f64)
    }

    /// Segments currently owned (sealed + the open one).
    pub fn segment_count(&self) -> u32 {
        self.sealed.len() as u32 + if self.open_segment != SegmentId::MAX { 1 } else { 0 }
    }

    /// Find a pending entry's position by LBA.
    pub fn find_pending(&self, lba: Lba) -> Option<usize> {
        self.pending.iter().position(|p| p.lba == lba)
    }

    /// Recompute the SLA timer origin from the buffer contents.
    pub fn recompute_pending_since(&mut self) {
        self.pending_since_us =
            self.pending.iter().filter(|p| p.needs_sla).map(|p| p.arrival_us).min();
    }

    /// Deadline (µs) at which this group's partial chunk must be handled,
    /// given the SLA window.
    pub fn sla_deadline(&self, sla_us: u64) -> Option<u64> {
        self.pending_since_us.map(|t| t + sla_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_ewma_converges() {
        let mut g = Group::new(0, GroupKind::User);
        assert_eq!(g.ewma_gap_us(), u64::MAX);
        let mut ts = 0;
        for _ in 0..100 {
            g.note_arrival(ts);
            ts += 50;
        }
        let gap = g.ewma_gap_us();
        assert!((45..=55).contains(&gap), "gap {gap}");
    }

    #[test]
    fn chunk_accounting() {
        let mut g = Group::new(0, GroupKind::User);
        g.account_chunk(10, 0, 2, 4);
        g.account_chunk(16, 0, 0, 0);
        assert_eq!(g.user_blocks, 26);
        assert_eq!(g.shadow_blocks, 2);
        assert_eq!(g.pad_blocks, 4);
        assert_eq!(g.chunks, 2);
        assert_eq!(g.pad_chunks, 1);
    }

    #[test]
    fn window_rolls_and_caps() {
        let mut g = Group::new(0, GroupKind::User);
        // Segments 0..7, every odd one with one padded chunk of 1 block.
        for i in 0..(PAD_WINDOW_SEGMENTS + 3) {
            g.account_chunk(10, 0, 0, (i % 2) as u64);
            g.roll_window();
        }
        // Only the last PAD_WINDOW_SEGMENTS sealed segments (3..7) count:
        // segments 3 and 5 padded, segment 1 has rolled out.
        assert_eq!(g.window_padding(), (2, 2));
    }

    #[test]
    fn window_includes_current_segment() {
        let mut g = Group::new(0, GroupKind::User);
        g.account_chunk(5, 0, 0, 3);
        assert_eq!(g.window_padding(), (1, 3));
    }

    #[test]
    fn avg_pad_blocks_is_eq1_mean_padding() {
        // Window: 2 padded chunks with 6 pad blocks total over 16-block
        // chunks, beside one full chunk → average pad 3.
        let mut g = Group::new(0, GroupKind::User);
        g.account_chunk(13, 0, 0, 3);
        g.account_chunk(16, 0, 0, 0);
        g.roll_window();
        g.account_chunk(10, 0, 3, 3);
        assert_eq!(g.avg_pad_blocks(), Some(3.0));
    }

    #[test]
    fn avg_pad_blocks_none_without_padding() {
        let mut g = Group::new(0, GroupKind::User);
        assert_eq!(g.avg_pad_blocks(), None);
        g.account_chunk(16, 0, 0, 0);
        assert_eq!(g.avg_pad_blocks(), None);
    }

    fn pb(lba: Lba, traffic: Traffic, arrival_us: u64, needs_sla: bool) -> PendingBlock {
        PendingBlock { lba, traffic, arrival_us, needs_sla }
    }

    #[test]
    fn find_pending_locates() {
        let mut g = Group::new(0, GroupKind::User);
        g.pending.push(pb(4, Traffic::User, 0, true));
        g.pending.push(pb(9, Traffic::Gc, 0, false));
        assert_eq!(g.find_pending(9), Some(1));
        assert_eq!(g.find_pending(5), None);
    }

    #[test]
    fn pending_since_ignores_non_sla_blocks() {
        let mut g = Group::new(0, GroupKind::User);
        g.pending.push(pb(1, Traffic::Gc, 10, false));
        g.recompute_pending_since();
        assert_eq!(g.pending_since_us, None);
        g.pending.push(pb(2, Traffic::User, 30, true));
        g.pending.push(pb(3, Traffic::User, 20, true));
        g.recompute_pending_since();
        assert_eq!(g.pending_since_us, Some(20));
        assert_eq!(g.sla_deadline(100), Some(120));
    }

    #[test]
    fn segment_count_includes_open() {
        let mut g = Group::new(0, GroupKind::User);
        assert_eq!(g.segment_count(), 0);
        g.open_segment = 7;
        g.sealed.push(1);
        g.sealed.push(2);
        assert_eq!(g.segment_count(), 3);
    }
}
