//! Segment state.
//!
//! A segment is a fixed array of block slots. Slots are written
//! chunk-by-chunk as the coalescing buffer flushes; once every slot is
//! written the segment seals and becomes a GC candidate.

use crate::types::{GroupId, SegmentId, Slot};
use adapt_array::ChunkLocation;

/// Lifecycle state of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// In the free pool.
    Free,
    /// Currently receiving chunk flushes from its group.
    Open,
    /// Full; immutable; GC candidate.
    Sealed,
}

/// One segment of the log.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Stable id (index into the engine's segment table).
    pub id: SegmentId,
    /// Owning group while open/sealed.
    pub group: GroupId,
    /// Lifecycle state.
    pub state: SegmentState,
    /// Block slots, encoded (see [`Slot`]); length = segment_blocks.
    slots: Vec<u64>,
    /// Number of slots flushed so far (multiple of chunk_blocks while open).
    pub filled: u32,
    /// Live blocks that would need migration if collected now.
    pub valid_blocks: u32,
    /// Monotonic open-sequence number (diagnostics).
    pub open_seq: u64,
    /// Index of this segment in its owner group's `sealed` list while
    /// sealed (engine-maintained; makes victim detach O(1)).
    pub group_pos: u32,
    /// Global flush-sequence number of each written chunk, in chunk order —
    /// the recovery journal: copies are ordered by (chunk seq, offset).
    pub chunk_seqs: Vec<u64>,
    /// Array location of each written chunk, parallel to `chunk_seqs` —
    /// lets the read path ask the sink for the exact stripe/device, so
    /// degraded-mode reconstruction is accounted faithfully.
    pub chunk_locs: Vec<ChunkLocation>,
    /// Byte-clock value when opened.
    pub created_user_bytes: u64,
    /// Wall clock (µs) when opened.
    pub created_ts_us: u64,
}

impl Segment {
    /// Create a free segment with capacity for `segment_blocks` slots.
    pub fn new(id: SegmentId, segment_blocks: u32) -> Self {
        Self {
            id,
            group: 0,
            state: SegmentState::Free,
            slots: vec![Slot::Free.encode(); segment_blocks as usize],
            filled: 0,
            valid_blocks: 0,
            open_seq: 0,
            group_pos: 0,
            chunk_seqs: Vec::new(),
            chunk_locs: Vec::new(),
            created_user_bytes: 0,
            created_ts_us: 0,
        }
    }

    /// Reset to the free state (after reclaim).
    pub fn reset(&mut self) {
        self.state = SegmentState::Free;
        self.group = 0;
        self.filled = 0;
        self.valid_blocks = 0;
        self.chunk_seqs.clear();
        self.chunk_locs.clear();
        for s in &mut self.slots {
            *s = Slot::Free.encode();
        }
    }

    /// Open for a group at the given clocks.
    pub fn open(&mut self, group: GroupId, user_bytes: u64, ts_us: u64) {
        debug_assert_eq!(self.state, SegmentState::Free);
        self.state = SegmentState::Open;
        self.group = group;
        self.created_user_bytes = user_bytes;
        self.created_ts_us = ts_us;
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Whether every slot has been flushed.
    pub fn is_full(&self) -> bool {
        self.filled == self.capacity()
    }

    /// Garbage slots (written but no longer valid, including padding).
    pub fn garbage_blocks(&self) -> u32 {
        self.filled - self.valid_blocks
    }

    /// Write the next slot; returns its offset. Caller maintains validity
    /// counts. Panics if the segment is full or not open.
    pub fn append_slot(&mut self, slot: Slot) -> u32 {
        debug_assert_eq!(self.state, SegmentState::Open);
        let off = self.filled;
        assert!(off < self.capacity(), "append into a full segment");
        self.slots[off as usize] = slot.encode();
        self.filled += 1;
        off
    }

    /// Read a slot.
    pub fn slot(&self, off: u32) -> Slot {
        Slot::decode(self.slots[off as usize])
    }

    /// Overwrite a slot in place. Only used to tombstone shadow copies that
    /// died before their segment was collected (keeps GC scans cheap).
    pub fn clear_slot(&mut self, off: u32) {
        self.slots[off as usize] = Slot::Pad.encode();
    }

    /// Seal after the last chunk flush.
    pub fn seal(&mut self) {
        debug_assert_eq!(self.state, SegmentState::Open);
        debug_assert!(self.is_full());
        self.state = SegmentState::Sealed;
    }

    /// Raw encoded slot words, for checkpoint snapshots.
    pub(crate) fn raw_slots(&self) -> &[u64] {
        &self.slots
    }

    /// Overwrite one raw slot word (checkpoint load). `false` when `off`
    /// is outside the segment. The caller is responsible for restoring
    /// the companion fields (`state`, `filled`, `valid_blocks`, ...) to a
    /// consistent view.
    pub(crate) fn restore_raw_slot(&mut self, off: u32, word: u64) -> bool {
        self.slots.get_mut(off as usize).map(|slot| *slot = word).is_some()
    }

    /// Iterator over `(offset, slot)` pairs of written slots.
    pub fn written_slots(&self) -> impl Iterator<Item = (u32, Slot)> + '_ {
        self.slots[..self.filled as usize]
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u32, Slot::decode(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segment {
        let mut s = Segment::new(3, 8);
        s.open(1, 100, 200);
        s
    }

    #[test]
    fn open_sets_clocks() {
        let s = seg();
        assert_eq!(s.state, SegmentState::Open);
        assert_eq!(s.group, 1);
        assert_eq!(s.created_user_bytes, 100);
        assert_eq!(s.created_ts_us, 200);
    }

    #[test]
    fn append_and_read_back() {
        let mut s = seg();
        let o1 = s.append_slot(Slot::Block(11));
        let o2 = s.append_slot(Slot::Shadow(22));
        let o3 = s.append_slot(Slot::Pad);
        assert_eq!((o1, o2, o3), (0, 1, 2));
        assert_eq!(s.slot(0), Slot::Block(11));
        assert_eq!(s.slot(1), Slot::Shadow(22));
        assert_eq!(s.slot(2), Slot::Pad);
        assert_eq!(s.filled, 3);
    }

    #[test]
    fn seal_when_full() {
        let mut s = seg();
        for i in 0..8 {
            s.append_slot(Slot::Block(i));
        }
        assert!(s.is_full());
        s.seal();
        assert_eq!(s.state, SegmentState::Sealed);
    }

    #[test]
    #[should_panic]
    fn append_past_capacity_panics() {
        let mut s = seg();
        for i in 0..9 {
            s.append_slot(Slot::Block(i));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = seg();
        s.append_slot(Slot::Block(5));
        s.valid_blocks = 1;
        s.reset();
        assert_eq!(s.state, SegmentState::Free);
        assert_eq!(s.filled, 0);
        assert_eq!(s.valid_blocks, 0);
        assert_eq!(s.slot(0), Slot::Free);
    }

    #[test]
    fn garbage_accounting() {
        let mut s = seg();
        s.append_slot(Slot::Block(1));
        s.append_slot(Slot::Block(2));
        s.append_slot(Slot::Pad);
        s.valid_blocks = 2;
        assert_eq!(s.garbage_blocks(), 1);
    }

    #[test]
    fn written_slots_iterates_prefix_only() {
        let mut s = seg();
        s.append_slot(Slot::Block(1));
        s.append_slot(Slot::Pad);
        let v: Vec<(u32, Slot)> = s.written_slots().collect();
        assert_eq!(v, vec![(0, Slot::Block(1)), (1, Slot::Pad)]);
    }

    #[test]
    fn clear_slot_tombstones() {
        let mut s = seg();
        s.append_slot(Slot::Shadow(9));
        s.clear_slot(0);
        assert_eq!(s.slot(0), Slot::Pad);
    }
}
