//! MiDA: migration-count-based lifetime classification
//! (Park, Lee, Kim & Noh, APSys 2021).
//!
//! MiDA observes that a block's *migration count* — how many times GC has
//! had to carry it forward — is a cheap, robust proxy for its remaining
//! lifetime: data that keeps surviving collections is long-lived. Blocks
//! are therefore assigned to stream `min(migrations, m−1)`.
//!
//! Following the ADAPT paper's characterization of MiDA (Observation 2:
//! "all groups can handle user requests"), a *user* rewrite of a block is
//! placed according to the age its migration count had accumulated —
//! grouping it with data of similar longevity — and the count then resets,
//! since the new version starts a fresh life. GC migrations increment the
//! count. The paper configures eight mixed groups.

use crate::lba_table::LbaTable;
use adapt_lss::{GroupId, GroupKind, Lba, PlacementPolicy, PolicyCtx, VictimMeta};

/// Number of streams in the paper's MiDA configuration.
pub const MIDA_GROUPS: usize = 8;

/// Migration-count placement policy.
#[derive(Debug, Clone)]
pub struct Mida {
    groups: Vec<GroupKind>,
    /// Migration count of the current version of each block.
    migrations: LbaTable<u8>,
}

impl Default for Mida {
    fn default() -> Self {
        Self::new()
    }
}

impl Mida {
    /// Create with the paper's eight streams.
    pub fn new() -> Self {
        Self::with_groups(MIDA_GROUPS)
    }

    /// Create with a custom stream count (≥ 2).
    pub fn with_groups(m: usize) -> Self {
        assert!((2..=255).contains(&m));
        Self { groups: vec![GroupKind::Mixed; m], migrations: LbaTable::default() }
    }

    fn cap(&self, count: u8) -> GroupId {
        count.min((self.groups.len() - 1) as u8)
    }
}

impl PlacementPolicy for Mida {
    fn name(&self) -> &'static str {
        "MiDA"
    }

    fn groups(&self) -> &[GroupKind] {
        &self.groups
    }

    fn place_user(&mut self, _ctx: &PolicyCtx, lba: Lba) -> GroupId {
        // Place by the longevity the previous version demonstrated, then
        // start the new version's life at zero migrations.
        let g = self.cap(self.migrations.get(lba));
        self.migrations.set(lba, 0);
        g
    }

    fn place_gc(&mut self, _ctx: &PolicyCtx, lba: Lba, _victim: &VictimMeta) -> GroupId {
        let count = self.migrations.get(lba).saturating_add(1);
        self.migrations.set(lba, count);
        self.cap(count)
    }

    fn memory_bytes(&self) -> usize {
        self.migrations.memory_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim() -> VictimMeta {
        VictimMeta { seg: 0, group: 0, created_user_bytes: 0, valid_blocks: 0, segment_blocks: 128 }
    }

    #[test]
    fn fresh_block_goes_to_stream_zero() {
        let mut p = Mida::new();
        assert_eq!(p.place_user(&PolicyCtx::default(), 1), 0);
    }

    #[test]
    fn migrations_deepen_the_stream() {
        let mut p = Mida::new();
        let ctx = PolicyCtx::default();
        p.place_user(&ctx, 1);
        for expect in 1..=7u8 {
            assert_eq!(p.place_gc(&ctx, 1, &victim()), expect);
        }
        // Saturates at the deepest stream.
        assert_eq!(p.place_gc(&ctx, 1, &victim()), 7);
    }

    #[test]
    fn user_rewrite_uses_then_resets_age() {
        let mut p = Mida::new();
        let ctx = PolicyCtx::default();
        p.place_user(&ctx, 1);
        p.place_gc(&ctx, 1, &victim());
        p.place_gc(&ctx, 1, &victim());
        // The rewrite lands in the stream its age earned (2)…
        assert_eq!(p.place_user(&ctx, 1), 2);
        // …and the next rewrite starts fresh.
        assert_eq!(p.place_user(&ctx, 1), 0);
    }

    #[test]
    fn count_saturates_without_overflow() {
        let mut p = Mida::with_groups(4);
        let ctx = PolicyCtx::default();
        p.place_user(&ctx, 1);
        for _ in 0..300 {
            let g = p.place_gc(&ctx, 1, &victim());
            assert!(g <= 3);
        }
    }

    #[test]
    fn eight_mixed_groups() {
        let p = Mida::new();
        assert_eq!(p.groups().len(), 8);
        assert!(p.groups().iter().all(|&k| k == GroupKind::Mixed));
    }
}
