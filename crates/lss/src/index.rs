//! The block index: LBA → current location.
//!
//! Grows on demand (dense LBA spaces are the norm for block volumes); each
//! entry records whether the newest version of a block is durable in a
//! segment slot, or still pending in a group's open-chunk buffer —
//! optionally with a durable *shadow* copy somewhere else (ADAPT's lazy
//! append state, §3.3).
//!
//! # Packed representation
//!
//! [`BlockEntry`] is the *value* type callers see; the table itself stores
//! one tagged 64-bit word per LBA (half the 16 bytes the enum needs),
//! because the index is the hottest randomly-accessed structure on the
//! write path and its cache footprint is what shows up in replay time:
//!
//! ```text
//!   bits 63..62  tag: 00 Absent · 01 Durable · 10 Pending · 11 Pending+shadow
//!   Durable:     bits 61..32 slot offset (30 bits) · bits 31..0 segment id
//!   Pending:     bits 7..0 home group
//! ```
//!
//! `Absent` is the all-zero word, so growth is a plain zero fill. The rare
//! `Pending { shadow: Some(..) }` state (ADAPT's lazy append; bounded by
//! the pending-buffer size, not the address space) spills its durable
//! shadow slot to a small side map keyed by LBA.

use crate::fxhash::FxHashMap;
use crate::types::{GroupId, Lba, SegmentId};

/// Where the current version of a block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockEntry {
    /// Never written.
    #[default]
    Absent,
    /// Durable in a segment slot.
    Durable {
        /// Segment holding the block.
        seg: SegmentId,
        /// Slot offset within the segment.
        off: u32,
    },
    /// Pending in `group`'s open-chunk buffer; if `shadow` is set, a
    /// durable substitute copy exists at that slot (so the block is
    /// persistent even though its home append hasn't happened yet).
    Pending {
        /// Home group whose buffer holds the block.
        group: GroupId,
        /// Durable shadow copy, if any.
        shadow: Option<(SegmentId, u32)>,
    },
}

const TAG_SHIFT: u32 = 62;
const TAG_ABSENT: u64 = 0;
const TAG_DURABLE: u64 = 1;
const TAG_PENDING: u64 = 2;
const TAG_PENDING_SHADOW: u64 = 3;
/// Slot offsets must fit the 30 bits between the segment id and the tag.
const MAX_OFF: u32 = (1 << 30) - 1;

#[inline]
fn encode(entry: BlockEntry) -> (u64, Option<(SegmentId, u32)>) {
    match entry {
        BlockEntry::Absent => (TAG_ABSENT << TAG_SHIFT, None),
        BlockEntry::Durable { seg, off } => {
            debug_assert!(off <= MAX_OFF, "slot offset {off} exceeds 30 bits");
            ((TAG_DURABLE << TAG_SHIFT) | ((off as u64) << 32) | seg as u64, None)
        }
        BlockEntry::Pending { group, shadow: None } => {
            ((TAG_PENDING << TAG_SHIFT) | group as u64, None)
        }
        BlockEntry::Pending { group, shadow: Some(slot) } => {
            ((TAG_PENDING_SHADOW << TAG_SHIFT) | group as u64, Some(slot))
        }
    }
}

/// The `(segment, slot offset)` a `Durable`-tagged word carries.
#[inline]
fn durable_slot(word: u64) -> (SegmentId, u32) {
    ((word & u32::MAX as u64) as SegmentId, ((word >> 32) & MAX_OFF as u64) as u32)
}

/// Dense, growable LBA index over packed 8-byte words.
#[derive(Debug, Default)]
pub struct BlockIndex {
    words: Vec<u64>,
    /// Durable shadow slots for the `Pending + shadow` entries (rare:
    /// bounded by in-flight lazy appends, not by the address space).
    shadows: FxHashMap<Lba, (SegmentId, u32)>,
}

impl BlockIndex {
    /// Create with capacity hint.
    pub fn with_capacity(blocks: u64) -> Self {
        Self { words: Vec::with_capacity(blocks as usize), shadows: FxHashMap::default() }
    }

    #[inline]
    fn decode(&self, lba: Lba, word: u64) -> BlockEntry {
        match word >> TAG_SHIFT {
            TAG_ABSENT => BlockEntry::Absent,
            TAG_DURABLE => {
                let (seg, off) = durable_slot(word);
                BlockEntry::Durable { seg, off }
            }
            TAG_PENDING => BlockEntry::Pending { group: (word & 0xFF) as GroupId, shadow: None },
            _ => BlockEntry::Pending {
                group: (word & 0xFF) as GroupId,
                shadow: Some(
                    *self.shadows.get(&lba).expect("shadow-tagged word without side entry"),
                ),
            },
        }
    }

    /// Current entry for `lba` ([`BlockEntry::Absent`] if out of range).
    #[inline]
    pub fn get(&self, lba: Lba) -> BlockEntry {
        match self.words.get(lba as usize) {
            Some(&w) => self.decode(lba, w),
            None => BlockEntry::Absent,
        }
    }

    /// Set the entry for `lba`, growing the table as needed and keeping
    /// the shadow side map in sync (an entry leaving the `Pending + shadow`
    /// state drops its side slot, so the map never leaks).
    #[inline]
    pub fn set(&mut self, lba: Lba, entry: BlockEntry) {
        let idx = lba as usize;
        if idx >= self.words.len() {
            self.words.resize(idx + 1, 0);
        }
        let (word, shadow) = encode(entry);
        let old = std::mem::replace(&mut self.words[idx], word);
        match shadow {
            Some(slot) => {
                self.shadows.insert(lba, slot);
            }
            None => {
                if old >> TAG_SHIFT == TAG_PENDING_SHADOW {
                    self.shadows.remove(&lba);
                }
            }
        }
    }

    /// Whether the durable slot `(seg, off)` is the live copy of `lba`.
    /// Shadow copies count as live while referenced by a pending entry.
    #[inline]
    pub fn is_live(&self, lba: Lba, seg: SegmentId, off: u32) -> bool {
        let Some(&word) = self.words.get(lba as usize) else {
            return false;
        };
        match word >> TAG_SHIFT {
            TAG_DURABLE => durable_slot(word) == (seg, off),
            TAG_PENDING_SHADOW => self.shadows.get(&lba) == Some(&(seg, off)),
            _ => false,
        }
    }

    /// Number of tracked LBAs (table size, not live count).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no LBA has ever been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Entries currently in the `Pending + shadow` state (side-map size).
    pub fn shadow_entries(&self) -> usize {
        self.shadows.len()
    }

    /// The packed table itself, one word per tracked LBA — what a
    /// checkpoint base stores in bulk.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `Pending + shadow` side entries as `(lba, segment, offset)`,
    /// sorted by LBA (the map's own order depends on its history).
    pub(crate) fn shadow_slots(&self) -> Vec<(Lba, SegmentId, u32)> {
        let mut out: Vec<_> = self.shadows.iter().map(|(&l, &(s, o))| (l, s, o)).collect();
        out.sort_unstable();
        out
    }

    /// `lba`'s packed word and, for a shadow-tagged word, its side entry.
    pub(crate) fn raw(&self, lba: Lba) -> (u64, Option<(SegmentId, u32)>) {
        let word = self.words.get(lba as usize).copied().unwrap_or(0);
        let shadow = if word >> TAG_SHIFT == TAG_PENDING_SHADOW {
            self.shadows.get(&lba).copied()
        } else {
            None
        };
        (word, shadow)
    }

    /// The entry a packed word (plus side entry) stands for; `None` for a
    /// word no [`BlockIndex`] would have produced — stray bits, or a
    /// shadow tag and a side entry that do not come as a pair.
    pub(crate) fn unpack(word: u64, shadow: Option<(SegmentId, u32)>) -> Option<BlockEntry> {
        let payload = word & ((1 << TAG_SHIFT) - 1);
        let entry = match (word >> TAG_SHIFT, shadow) {
            (TAG_ABSENT, None) if payload == 0 => BlockEntry::Absent,
            (TAG_DURABLE, None) => {
                let (seg, off) = durable_slot(word);
                BlockEntry::Durable { seg, off }
            }
            (TAG_PENDING, None) | (TAG_PENDING_SHADOW, Some(_)) if payload <= 0xFF => {
                BlockEntry::Pending { group: payload as GroupId, shadow }
            }
            _ => return None,
        };
        Some(entry)
    }

    /// Rebuild an index from a packed table and its side entries, as read
    /// back from a checkpoint base. `None` unless every word unpacks and
    /// the side entries pair up one-to-one with the shadow-tagged words.
    pub(crate) fn from_raw(words: Vec<u64>, side: &[(Lba, SegmentId, u32)]) -> Option<Self> {
        let shadows: FxHashMap<Lba, (SegmentId, u32)> =
            side.iter().map(|&(l, s, o)| (l, (s, o))).collect();
        let mut tagged = 0usize;
        for (lba, &word) in words.iter().enumerate() {
            let shadow = if word >> TAG_SHIFT == TAG_PENDING_SHADOW {
                tagged += 1;
                Some(*shadows.get(&(lba as Lba))?)
            } else {
                None
            };
            Self::unpack(word, shadow)?;
        }
        (tagged == side.len() && tagged == shadows.len()).then_some(Self { words, shadows })
    }

    /// Approximate resident bytes of the index: one packed word per LBA
    /// plus the (small) shadow side map.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.shadows.capacity()
                * (std::mem::size_of::<Lba>() + std::mem::size_of::<(SegmentId, u32)>())
    }
}

/// Dense, growable `Lba → T` map sharing [`BlockIndex`]'s grow discipline:
/// a flat `Vec` indexed by LBA with a caller-chosen `empty` sentinel, so
/// lookups are one bounds check + one load instead of a hash probe, and
/// iteration is naturally LBA-ordered.
#[derive(Debug, Clone)]
pub struct DenseMap<T> {
    slots: Vec<T>,
    empty: T,
    live: usize,
}

impl<T: Copy + PartialEq> DenseMap<T> {
    /// Empty map; `empty` is the sentinel no inserted value may equal.
    pub fn new(empty: T) -> Self {
        Self { slots: Vec::new(), empty, live: 0 }
    }

    /// Empty map with a capacity hint.
    pub fn with_capacity(empty: T, blocks: usize) -> Self {
        Self { slots: Vec::with_capacity(blocks), empty, live: 0 }
    }

    /// Value for `lba`, `None` when unset or out of range.
    #[inline]
    pub fn get(&self, lba: Lba) -> Option<T> {
        match self.slots.get(lba as usize) {
            Some(&v) if v != self.empty => Some(v),
            _ => None,
        }
    }

    /// Insert or overwrite; grows the table as needed.
    #[inline]
    pub fn insert(&mut self, lba: Lba, value: T) {
        debug_assert!(value != self.empty, "sentinel value inserted into DenseMap");
        let idx = lba as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, self.empty);
        }
        if self.slots[idx] == self.empty {
            self.live += 1;
        }
        self.slots[idx] = value;
    }

    /// Remove `lba`'s value, returning it if present.
    #[inline]
    pub fn remove(&mut self, lba: Lba) -> Option<T> {
        let slot = self.slots.get_mut(lba as usize)?;
        if *slot == self.empty {
            return None;
        }
        self.live -= 1;
        Some(std::mem::replace(slot, self.empty))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is set.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Live `(lba, value)` pairs in ascending LBA order.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, T)> + '_ {
        let empty = self.empty;
        self.slots
            .iter()
            .enumerate()
            .filter(move |&(_, &v)| v != empty)
            .map(|(lba, &v)| (lba as Lba, v))
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<T>()
    }

    /// The dense table itself, `empty` marking unset LBAs — what a
    /// checkpoint base stores in bulk.
    pub(crate) fn words(&self) -> &[T] {
        &self.slots
    }

    /// Rebuild from a dense table read back from a checkpoint base.
    pub(crate) fn from_words(empty: T, slots: Vec<T>) -> Self {
        let live = slots.iter().filter(|&&v| v != empty).count();
        Self { slots, empty, live }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_by_default() {
        let idx = BlockIndex::default();
        assert_eq!(idx.get(42), BlockEntry::Absent);
        assert!(idx.is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut idx = BlockIndex::default();
        idx.set(5, BlockEntry::Durable { seg: 2, off: 7 });
        assert_eq!(idx.get(5), BlockEntry::Durable { seg: 2, off: 7 });
        assert_eq!(idx.get(4), BlockEntry::Absent);
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn packed_roundtrip_all_variants() {
        let entries = [
            BlockEntry::Absent,
            BlockEntry::Durable { seg: 0, off: 0 },
            BlockEntry::Durable { seg: SegmentId::MAX - 1, off: MAX_OFF },
            BlockEntry::Pending { group: 0, shadow: None },
            BlockEntry::Pending { group: 255, shadow: None },
            BlockEntry::Pending { group: 7, shadow: Some((12, 3)) },
            BlockEntry::Pending { group: 255, shadow: Some((SegmentId::MAX - 1, MAX_OFF)) },
        ];
        let mut idx = BlockIndex::default();
        for (lba, &e) in entries.iter().enumerate() {
            idx.set(lba as Lba, e);
        }
        for (lba, &e) in entries.iter().enumerate() {
            assert_eq!(idx.get(lba as Lba), e, "lba {lba}");
        }
    }

    #[test]
    fn raw_words_roundtrip_and_reject_inconsistent_tables() {
        let mut idx = BlockIndex::default();
        idx.set(0, BlockEntry::Durable { seg: 4, off: 9 });
        idx.set(2, BlockEntry::Pending { group: 3, shadow: None });
        idx.set(5, BlockEntry::Pending { group: 1, shadow: Some((7, 2)) });
        let back = BlockIndex::from_raw(idx.words().to_vec(), &idx.shadow_slots()).unwrap();
        for lba in 0..6 {
            assert_eq!(back.get(lba), idx.get(lba), "lba {lba}");
            let (word, shadow) = idx.raw(lba);
            assert_eq!(BlockIndex::unpack(word, shadow), Some(idx.get(lba)));
        }
        // A shadow tag without its side entry, a side entry without its
        // tag, and stray payload bits are all refused.
        assert!(BlockIndex::from_raw(idx.words().to_vec(), &[]).is_none());
        assert!(BlockIndex::from_raw(vec![0; 6], &idx.shadow_slots()).is_none());
        assert!(BlockIndex::from_raw(vec![1], &[]).is_none());
        assert!(BlockIndex::unpack((TAG_PENDING << TAG_SHIFT) | 0x100, None).is_none());
        assert!(BlockIndex::unpack(idx.raw(5).0, None).is_none());

        let mut v = DenseMap::new(u64::MAX);
        v.insert(1, 10);
        v.insert(4, 40);
        v.remove(1);
        let back = DenseMap::from_words(u64::MAX, v.words().to_vec());
        assert_eq!(back.iter().collect::<Vec<_>>(), vec![(4, 40)]);
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn shadow_side_map_does_not_leak() {
        let mut idx = BlockIndex::default();
        idx.set(3, BlockEntry::Pending { group: 1, shadow: Some((9, 4)) });
        assert_eq!(idx.shadow_entries(), 1);
        assert!(idx.is_live(3, 9, 4));
        // Leaving the shadow state drops the side entry.
        idx.set(3, BlockEntry::Durable { seg: 2, off: 0 });
        assert_eq!(idx.shadow_entries(), 0);
        assert!(!idx.is_live(3, 9, 4));
        // Re-entering replaces it; overwriting with a new shadow keeps one.
        idx.set(3, BlockEntry::Pending { group: 1, shadow: Some((9, 5)) });
        idx.set(3, BlockEntry::Pending { group: 1, shadow: Some((9, 6)) });
        assert_eq!(idx.shadow_entries(), 1);
        assert!(idx.is_live(3, 9, 6));
        idx.set(3, BlockEntry::Absent);
        assert_eq!(idx.shadow_entries(), 0);
    }

    #[test]
    fn packed_entry_is_eight_bytes_per_block() {
        let mut idx = BlockIndex::with_capacity(1024);
        for lba in 0..1024 {
            idx.set(lba, BlockEntry::Durable { seg: 1, off: (lba % 64) as u32 });
        }
        assert_eq!(idx.memory_bytes(), 1024 * 8);
        // The legacy enum layout was 16 bytes per entry.
        assert!(std::mem::size_of::<BlockEntry>() >= 16);
    }

    #[test]
    fn liveness_durable() {
        let mut idx = BlockIndex::default();
        idx.set(1, BlockEntry::Durable { seg: 3, off: 0 });
        assert!(idx.is_live(1, 3, 0));
        assert!(!idx.is_live(1, 3, 1));
        assert!(!idx.is_live(1, 4, 0));
    }

    #[test]
    fn liveness_shadow() {
        let mut idx = BlockIndex::default();
        idx.set(9, BlockEntry::Pending { group: 1, shadow: Some((5, 2)) });
        assert!(idx.is_live(9, 5, 2));
        assert!(!idx.is_live(9, 5, 3));
        idx.set(9, BlockEntry::Pending { group: 1, shadow: None });
        assert!(!idx.is_live(9, 5, 2));
    }

    #[test]
    fn growth_preserves_existing() {
        let mut idx = BlockIndex::default();
        idx.set(0, BlockEntry::Durable { seg: 1, off: 1 });
        idx.set(1000, BlockEntry::Durable { seg: 2, off: 2 });
        assert_eq!(idx.get(0), BlockEntry::Durable { seg: 1, off: 1 });
        assert_eq!(idx.get(500), BlockEntry::Absent);
    }

    #[test]
    fn dense_map_insert_get_remove() {
        let mut m: DenseMap<u64> = DenseMap::new(u64::MAX);
        assert!(m.is_empty());
        m.insert(10, 7);
        m.insert(2, 3);
        m.insert(10, 8);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(10), Some(8));
        assert_eq!(m.get(2), Some(3));
        assert_eq!(m.get(5), None);
        assert_eq!(m.get(999), None);
        assert_eq!(m.remove(10), Some(8));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_map_iterates_in_lba_order() {
        let mut m: DenseMap<u64> = DenseMap::new(u64::MAX);
        for &(lba, v) in &[(9u64, 1u64), (0, 2), (4, 3)] {
            m.insert(lba, v);
        }
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 2), (4, 3), (9, 1)]);
    }

    #[test]
    fn version_index_roundtrip() {
        let mut v = DenseMap::new(u64::MAX);
        v.insert(100, 5_000);
        v.insert(3, 1_000);
        v.insert(100, 6_000);
        assert_eq!(v.get(100), Some(6_000));
        assert_eq!(v.get(3), Some(1_000));
        assert_eq!(v.get(4), None);
        assert_eq!(v.len(), 2);
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(3, 1_000), (100, 6_000)]);
        v.remove(3);
        assert_eq!(v.get(3), None);
        assert_eq!(v.len(), 1);
        v.clear();
        assert!(v.is_empty());
    }
}
