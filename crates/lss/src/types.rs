//! Fundamental identifiers and slot encoding.

/// Logical block address (4 KiB block units).
pub type Lba = u64;

/// Group (stream) identifier. Policies define at most 255 groups.
pub type GroupId = u8;

/// Segment identifier (index into the engine's segment table; stable for
/// the lifetime of the engine, reused after reclaim).
pub type SegmentId = u32;

/// Contents of one block slot inside a sealed/open segment.
///
/// Encoded in a single `u64` for density: the segment table holds one word
/// per block of capacity. LBAs are limited to 2^62 − 3, far beyond any
/// realistic volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Not yet written (open segment tail).
    Free,
    /// Zero padding.
    Pad,
    /// A block holding `lba`'s data.
    Block(Lba),
    /// A shadow-append substitute copy of `lba` (ADAPT §3.3).
    Shadow(Lba),
}

const SLOT_FREE: u64 = u64::MAX;
const SLOT_PAD: u64 = u64::MAX - 1;
const SHADOW_BIT: u64 = 1 << 62;
const LBA_MASK: u64 = SHADOW_BIT - 1;

impl Slot {
    /// Pack into the one-word representation.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            Slot::Free => SLOT_FREE,
            Slot::Pad => SLOT_PAD,
            Slot::Block(lba) => {
                debug_assert!(lba < SHADOW_BIT);
                lba
            }
            Slot::Shadow(lba) => {
                debug_assert!(lba < SHADOW_BIT);
                lba | SHADOW_BIT
            }
        }
    }

    /// Unpack from the one-word representation.
    #[inline]
    pub fn decode(word: u64) -> Self {
        match word {
            SLOT_FREE => Slot::Free,
            SLOT_PAD => Slot::Pad,
            w if w & SHADOW_BIT != 0 => Slot::Shadow(w & LBA_MASK),
            w => Slot::Block(w),
        }
    }

    /// The LBA this slot refers to, if any.
    #[inline]
    pub fn lba(self) -> Option<Lba> {
        match self {
            Slot::Block(l) | Slot::Shadow(l) => Some(l),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        for s in [
            Slot::Free,
            Slot::Pad,
            Slot::Block(0),
            Slot::Block(12345),
            Slot::Shadow(0),
            Slot::Shadow(987654321),
        ] {
            assert_eq!(Slot::decode(s.encode()), s);
        }
    }

    #[test]
    fn lba_accessor() {
        assert_eq!(Slot::Block(7).lba(), Some(7));
        assert_eq!(Slot::Shadow(9).lba(), Some(9));
        assert_eq!(Slot::Pad.lba(), None);
        assert_eq!(Slot::Free.lba(), None);
    }

    #[test]
    fn encodings_distinct() {
        let words: Vec<u64> = [Slot::Free, Slot::Pad, Slot::Block(1), Slot::Shadow(1)]
            .iter()
            .map(|s| s.encode())
            .collect();
        let mut dedup = words.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(words.len(), dedup.len());
    }

    #[test]
    fn large_lba_roundtrip() {
        let lba = (1u64 << 62) - 3;
        assert_eq!(Slot::decode(Slot::Block(lba).encode()), Slot::Block(lba));
        assert_eq!(Slot::decode(Slot::Shadow(lba).encode()), Slot::Shadow(lba));
    }
}
