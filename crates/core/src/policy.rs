//! The ADAPT placement policy (§3).
//!
//! Six groups: hot and cold user-written groups (0, 1) plus four
//! GC-rewritten groups (2–5) classed by residual lifespan, exactly the
//! topology of Fig. 4. The three mechanisms compose as follows on the
//! write path:
//!
//! ```text
//! user write ──► RA identifier score ≥ θ ? ──yes──► demote into GC group
//!                        │ no
//!                        ▼
//!          access interval < threshold T ? ──yes──► hot group (0)
//!                        │ no                          │ SLA expiry:
//!                        ▼                             ▼
//!                   cold group (1) ◄─── shadow append ─┘
//! ```
//!
//! `T` comes from the ghost-set machinery ([`crate::threshold`]) once it
//! has adopted; before that (and whenever adaptation is not built) ADAPT
//! is SepBIT: the threshold is the EWMA lifespan of reclaimed hot-group
//! segments, initially infinite. The lifespan separator — last-write
//! table, age on the byte clock, residual ladder, EWMA — is
//! [`adapt_placement::SepBit`] itself, held once; each mechanism is an
//! `Option`, `None` when an ablation turns it off.

use crate::aggregation::AggregationCtl;
use crate::config::AdaptConfig;
use crate::demotion::RaIdentifier;
use crate::threshold::ThresholdAdapter;
use adapt_lss::{
    GroupId, GroupKind, Lba, LssConfig, PlacementPolicy, PolicyCtx, PolicyEvent, ReclaimInfo,
    SegmentMeta, SlaAction, VictimMeta,
};
use adapt_placement::SepBit;

/// The ADAPT policy.
#[derive(Debug, Clone)]
pub struct Adapt {
    /// SepBIT's lifespan separator: the 2 + 4 topology, the per-LBA
    /// last-write table and the cold-start threshold (its own ℓ).
    sepbit: SepBit,
    /// EWMA lifespan of reclaimed user-group segments (bytes): the base ℓ
    /// of the GC residual-lifespan ladder, and the one place ADAPT's
    /// separator differs from SepBIT's, which ladders over its hot/cold
    /// threshold. ADAPT's threshold may legitimately adapt to 0 ("no
    /// separation") while GC classing still needs a lifespan scale.
    gc_ladder_base: f64,
    /// Ghost-set threshold adaptation (§3.2).
    adapter: Option<ThresholdAdapter>,
    /// Cross-group aggregation decisions (§3.3).
    aggregation: Option<AggregationCtl>,
    /// Proactive demotion identifier (§3.4).
    ra: Option<RaIdentifier>,
    /// Whether the user groups showed padding in their recent window —
    /// the regime where the ghost-adapted threshold (which uniquely models
    /// the padding/density tradeoff) overrides the lifespan estimate.
    padding_present: bool,
    /// User writes demoted straight into GC groups.
    demotions: u64,
    /// Threshold adoptions performed.
    adoptions: u64,
    /// Observability events buffered for the engine's event stream
    /// (populated only while [`PolicyCtx::events_enabled`] is set).
    pending_events: Vec<PolicyEvent>,
}

impl Adapt {
    /// Hot user group.
    pub const HOT: GroupId = SepBit::CLASS1;
    /// Cold user group.
    pub const COLD: GroupId = SepBit::CLASS2;
    /// GC groups eligible for proactive demotion: only the *cold* classes.
    /// The paper's motivation (§3.4) is blocks that trickle through
    /// progressively colder groups before settling — demoting into the
    /// short-residual classes would only re-mix churn-prone data.
    pub const DEMOTION_GROUPS: [GroupId; 2] = [4, 5];

    /// Create full ADAPT for an engine configuration.
    pub fn new(lss: &LssConfig) -> Self {
        Self::with_config(lss, AdaptConfig::for_engine(lss))
    }

    /// Create ADAPT with only the mechanisms `cfg` enables (ablations).
    pub fn with_config(lss: &LssConfig, cfg: AdaptConfig) -> Self {
        Self {
            sepbit: SepBit::new(),
            gc_ladder_base: f64::INFINITY,
            adapter: cfg.enable_adaptation.then(|| ThresholdAdapter::new(lss)),
            aggregation: cfg
                .enable_aggregation
                .then(|| AggregationCtl::new(Self::COLD, lss.sla_us)),
            ra: cfg.enable_demotion.then(|| RaIdentifier::new(&Self::DEMOTION_GROUPS, lss)),
            padding_present: true,
            demotions: 0,
            adoptions: 0,
            pending_events: Vec::new(),
        }
    }

    /// The hot/cold threshold currently in force (bytes).
    ///
    /// The ghost-adapted value governs while the workload's density makes
    /// padding a live cost (that tradeoff is what the ghosts simulate);
    /// when chunks fill on their own, ADAPT falls back to the SepBIT-style
    /// lifespan estimate, which is the better pure-GC separator.
    pub fn effective_threshold(&self) -> f64 {
        let adopted = match &self.adapter {
            Some(adapter) if self.padding_present => adapter.threshold(),
            _ => None,
        };
        adopted.map_or(self.sepbit.threshold(), |t| t as f64)
    }

    /// User writes demoted by the RA identifier so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Threshold adoptions performed so far.
    pub fn adoptions(&self) -> u64 {
        self.adoptions
    }

    /// Re-read from the group windows whether padding is a live cost, and
    /// record the regime flip: the ghost-adapted threshold takes over when
    /// it is, and yields to the lifespan estimate when chunks fill on
    /// their own.
    fn observe_padding(&mut self, ctx: &PolicyCtx) {
        let padded =
            |g: GroupId| ctx.groups.get(g as usize).is_none_or(|g| g.window_padding().0 > 0);
        let was_present = self.padding_present;
        self.padding_present = padded(Self::HOT) || padded(Self::COLD);
        if ctx.events_enabled && was_present != self.padding_present {
            let t = self.effective_threshold();
            self.pending_events.push(PolicyEvent::GhostOutcome {
                adapted_governs: self.adapter.is_some() && self.padding_present,
                // `u64::MAX` encodes an infinite threshold.
                effective_threshold_bytes: if t.is_finite() { t as u64 } else { u64::MAX },
            });
        }
    }
}

impl PlacementPolicy for Adapt {
    fn name(&self) -> &'static str {
        "ADAPT"
    }

    fn groups(&self) -> &[GroupKind] {
        self.sepbit.groups()
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        // Track: feed the density/popularity pipeline (§3.2) the block's age
        // on the user-byte clock, read before `class_user` stamps the write.
        if let Some(adapter) = &mut self.adapter {
            let age_bytes = self.sepbit.age_bytes(lba, ctx.user_bytes);
            if adapter.on_user_write(lba, age_bytes, ctx.now_us) {
                self.adoptions += 1;
                if ctx.events_enabled {
                    self.pending_events.push(PolicyEvent::ThresholdAdopted {
                        threshold_bytes: adapter.threshold().unwrap_or(0),
                        linear: adapter.is_linear(),
                        candidates: adapter.candidate_count() as u32,
                    });
                }
            }
        }
        self.observe_padding(ctx);

        // Demote? A block that repeatedly migrated back into the same GC
        // group belongs there from the start (§3.4). Only when that
        // group's open chunk already carries payload — joining a partially
        // filled bulk chunk costs nothing, whereas opening a fresh chunk
        // with one sparse user block would force a padded flush at the SLA
        // deadline and waste more than the saved migrations.
        // With no demotion target carrying payload, skip the check.
        let carries =
            |g: GroupId| ctx.groups.get(g as usize).is_some_and(|g| !g.pending.is_empty());
        let demote = self.ra.as_ref().filter(|_| Self::DEMOTION_GROUPS.into_iter().any(carries));
        if let Some(gc_group) = demote.and_then(|ra| ra.check(lba)).filter(|&g| carries(g)) {
            self.demotions += 1;
            if ctx.events_enabled {
                self.pending_events.push(PolicyEvent::Demotion { lba, group: gc_group });
            }
            self.sepbit.record_write(lba, ctx.user_bytes);
            return gc_group;
        }

        // Hot/cold: inferred lifespan against the threshold in force.
        self.sepbit.class_user(lba, ctx.user_bytes, self.effective_threshold())
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, _victim: &VictimMeta) -> GroupId {
        self.sepbit.gc_class(lba, ctx.user_bytes, self.gc_ladder_base)
    }

    fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        match &mut self.aggregation {
            Some(aggregation) => aggregation.on_sla_expire(ctx, group),
            None => SlaAction::Pad,
        }
    }

    fn on_gc_block_migrated(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        if let Some(ra) = &mut self.ra {
            ra.observe_migration(lba, from, to);
        }
    }

    fn on_segment_sealed(&mut self, _ctx: &PolicyCtx, meta: &SegmentMeta) {
        if let Some(aggregation) = &mut self.aggregation {
            aggregation.on_segment_sealed(meta.group);
        }
    }

    fn on_segment_reclaimed(&mut self, ctx: &PolicyCtx, info: &ReclaimInfo) {
        // Cold-start threshold: lifespan of hot-group segments (§3.2,
        // "Updating threshold configuration") — SepBIT's own rule.
        self.sepbit.on_segment_reclaimed(ctx, info);
        // GC-ladder scale: lifespan of *any* user-written segment.
        if info.group == Self::HOT || info.group == Self::COLD {
            self.gc_ladder_base =
                SepBit::ewma_lifespan(self.gc_ladder_base, info.lifespan_bytes() as f64);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.sepbit.memory_bytes()
            + self.adapter.as_ref().map_or(0, |a| a.memory_bytes())
            + self.ra.as_ref().map_or(0, |ra| ra.memory_bytes())
            + std::mem::size_of::<Self>()
    }

    fn drain_events(&mut self, out: &mut Vec<PolicyEvent>) {
        out.append(&mut self.pending_events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_array::Traffic;
    use adapt_lss::group::{Group, PendingBlock};
    use std::sync::OnceLock;

    fn lss() -> LssConfig {
        LssConfig { user_blocks: 16 * 1024, ..Default::default() }
    }

    /// ADAPT's six groups as the engine starts them: nothing buffered, no
    /// arrivals, no padding in any window.
    fn fresh_groups() -> Vec<Group> {
        let kind = |g| if g < 2 { GroupKind::User } else { GroupKind::Gc };
        (0..6).map(|g| Group::new(g, kind(g))).collect()
    }

    /// A context at byte clock `user_bytes` over fresh groups and 16-block
    /// chunks.
    fn ctx(user_bytes: u64) -> PolicyCtx<'static> {
        static FRESH: OnceLock<Vec<Group>> = OnceLock::new();
        let groups = FRESH.get_or_init(fresh_groups);
        PolicyCtx { user_bytes, chunk_blocks: 16, groups, ..Default::default() }
    }

    /// Buffer `n` user blocks in `g`'s open chunk.
    fn buffer(g: &mut Group, n: u64) {
        for lba in 0..n {
            let block =
                PendingBlock { lba, traffic: Traffic::User, arrival_us: 0, needs_sla: true };
            g.pending.push(block);
        }
    }

    /// Give `g` an inter-arrival gap of exactly `gap_us`.
    fn arrivals(g: &mut Group, gap_us: u64) {
        g.note_arrival(0);
        g.note_arrival(gap_us);
    }

    fn victim() -> VictimMeta {
        VictimMeta { seg: 0, group: 2, created_user_bytes: 0, valid_blocks: 0, segment_blocks: 128 }
    }

    fn reclaim(group: GroupId, created: u64, now: u64) -> ReclaimInfo {
        ReclaimInfo {
            seg: 0,
            group,
            created_user_bytes: created,
            reclaimed_user_bytes: now,
            migrated_blocks: 0,
        }
    }

    #[test]
    fn topology_matches_figure_4() {
        let p = Adapt::new(&lss());
        assert_eq!(p.groups().len(), 6);
        assert_eq!(&p.groups()[..2], &[GroupKind::User, GroupKind::User]);
        assert!(p.groups()[2..].iter().all(|&k| k == GroupKind::Gc));
    }

    #[test]
    fn first_write_cold_rewrite_hot_during_bootstrap() {
        let mut p = Adapt::new(&lss());
        assert_eq!(p.place_user(&ctx(0), 5), Adapt::COLD);
        // ℓ = ∞ during bootstrap: any finite interval is hot.
        assert_eq!(p.place_user(&ctx(1_000_000), 5), Adapt::HOT);
    }

    #[test]
    fn hot_cold_follow_learned_threshold() {
        let mut p = Adapt::new(&lss());
        // Learn a 1 MB cold-start threshold from a hot-group reclaim.
        p.on_segment_reclaimed(&ctx(0), &reclaim(Adapt::HOT, 0, 1_000_000));
        p.place_user(&ctx(0), 7);
        assert_eq!(p.place_user(&ctx(100_000), 7), Adapt::HOT);
        p.place_user(&ctx(100_000), 8);
        assert_eq!(p.place_user(&ctx(90_000_000), 8), Adapt::COLD);
    }

    #[test]
    fn gc_ladder_spreads_by_age() {
        let mut p = Adapt::new(&lss());
        p.on_segment_reclaimed(&ctx(0), &reclaim(Adapt::HOT, 0, 1_000_000));
        p.place_user(&ctx(0), 1);
        assert_eq!(p.place_gc(&ctx(500_000), 1, &victim()), 2);
        assert_eq!(p.place_gc(&ctx(2_000_000), 1, &victim()), 3);
        assert_eq!(p.place_gc(&ctx(10_000_000), 1, &victim()), 4);
        assert_eq!(p.place_gc(&ctx(50_000_000), 1, &victim()), 5);
    }

    /// ADAPT with every mechanism off is SepBIT, except that its GC ladder
    /// scales over the lifespan of *any* user segment (`gc_ladder_base`)
    /// where SepBIT's scales over ℓ: the two are fed one random callback
    /// stream and must agree on every user placement, and on every GC
    /// class until a cold-group reclaim moves `gc_ladder_base` alone.
    #[test]
    fn mechanisms_off_is_sepbit_up_to_the_gc_ladder_base() {
        use adapt_trace::rng::Xoshiro256StarStar;
        let off = AdaptConfig::for_engine(&lss())
            .without_adaptation()
            .without_aggregation()
            .without_demotion();
        let mut adapt = Adapt::with_config(&lss(), off);
        let mut sepbit = SepBit::new();
        let mut rng = Xoshiro256StarStar::new(21);
        let mut now = 0u64;
        let mut gc_disagreements = 0;
        for step in 0..40_000u64 {
            let hot_reclaims_only = step < 20_000;
            now += 4096 * (1 + rng.next_bounded(8));
            let c = ctx(now);
            let lba = rng.next_bounded(512);
            match rng.next_bounded(8) {
                0 => {
                    let reclaimed = if hot_reclaims_only { Adapt::HOT } else { Adapt::COLD };
                    let info =
                        reclaim(reclaimed, now - now.min(4096 * rng.next_bounded(4096)), now);
                    adapt.on_segment_reclaimed(&c, &info);
                    sepbit.on_segment_reclaimed(&c, &info);
                }
                1 | 2 => {
                    let (a, s) =
                        (adapt.place_gc(&c, lba, &victim()), sepbit.place_gc(&c, lba, &victim()));
                    assert!(a == s || !hot_reclaims_only, "step {step}: GC class {a} vs {s}");
                    gc_disagreements += u32::from(a != s);
                }
                _ => {
                    assert_eq!(adapt.place_user(&c, lba), sepbit.place_user(&c, lba), "step {step}")
                }
            }
            assert_eq!(adapt.effective_threshold().to_bits(), sepbit.threshold().to_bits());
        }
        assert!(gc_disagreements > 0, "cold reclaims never moved the GC ladder apart");
    }

    #[test]
    fn demotion_overrides_hot_cold() {
        let mut p = Adapt::new(&lss());
        // Train the RA identifier: lba 9 migrates back into group 4 across
        // several filter generations.
        for filler in 0..20_000u64 {
            p.on_gc_block_migrated(9, 4, 4);
            p.on_gc_block_migrated(100_000 + filler, 4, 4);
        }
        // Demotion requires the target GC group's chunk to carry payload.
        let mut gs = fresh_groups();
        buffer(&mut gs[4], 3);
        let g = p.place_user(&PolicyCtx { groups: &gs, ..ctx(0) }, 9);
        assert_eq!(g, 4, "expected demotion into group 4");
        assert!(p.demotions() > 0);
        // With an empty target chunk the block falls back to hot/cold.
        let g2 = p.place_user(&ctx(4096), 9);
        assert!(g2 == Adapt::HOT || g2 == Adapt::COLD);
    }

    #[test]
    fn demotion_disabled_by_ablation() {
        let cfg = AdaptConfig::for_engine(&lss()).without_demotion();
        let mut p = Adapt::with_config(&lss(), cfg);
        for filler in 0..20_000u64 {
            p.on_gc_block_migrated(9, 4, 4);
            p.on_gc_block_migrated(100_000 + filler, 4, 4);
        }
        assert_eq!(p.place_user(&ctx(0), 9), Adapt::COLD);
        assert_eq!(p.demotions(), 0);
    }

    #[test]
    fn cross_group_migration_does_not_train_ra() {
        let mut p = Adapt::new(&lss());
        for filler in 0..20_000u64 {
            p.on_gc_block_migrated(9, 2, 4);
            let _ = filler;
        }
        assert_eq!(p.place_user(&ctx(0), 9), Adapt::COLD);
    }

    #[test]
    fn sla_expiry_delegates_to_aggregation() {
        let mut p = Adapt::new(&lss());
        let mut gs = fresh_groups();
        buffer(&mut gs[0], 4);
        arrivals(&mut gs[0], 10_000);
        buffer(&mut gs[1], 2);
        let c = PolicyCtx { groups: &gs, ..ctx(0) };
        assert_eq!(
            p.on_sla_expire(&c, Adapt::HOT),
            SlaAction::ShadowAppend { target: Adapt::COLD }
        );
        assert_eq!(p.on_sla_expire(&c, Adapt::COLD), SlaAction::Pad);
    }

    #[test]
    fn aggregation_disabled_by_ablation() {
        let cfg = AdaptConfig::for_engine(&lss()).without_aggregation();
        let mut p = Adapt::with_config(&lss(), cfg);
        let mut gs = fresh_groups();
        buffer(&mut gs[0], 4);
        arrivals(&mut gs[0], 10_000);
        let c = PolicyCtx { groups: &gs, ..ctx(0) };
        assert_eq!(p.on_sla_expire(&c, Adapt::HOT), SlaAction::Pad);
    }

    #[test]
    fn memory_accounts_only_built_components() {
        let mem = |cfg: AdaptConfig| {
            let mut p = Adapt::with_config(&lss(), cfg);
            for i in 0..10_000u64 {
                p.place_user(&ctx(i * 4096), i % 2000);
            }
            p.memory_bytes()
        };
        let full = AdaptConfig::for_engine(&lss());
        // Table + sampler machinery + RA identifier all contribute.
        assert!(mem(full) > 16_000, "mem {}", mem(full));
        // A mechanism that is off is not built, so it is not paid for.
        assert!(mem(full.without_adaptation()) < mem(full));
        assert!(mem(full.without_demotion()) < mem(full));
    }

    #[test]
    fn adaptation_disabled_keeps_cold_start_threshold() {
        let cfg = AdaptConfig::for_engine(&lss()).without_adaptation();
        let mut p = Adapt::with_config(&lss(), cfg);
        for i in 0..200_000u64 {
            p.place_user(&ctx(i * 4096), i % 100);
        }
        assert_eq!(p.adoptions(), 0);
        assert!(p.effective_threshold().is_infinite());
    }

    #[test]
    fn events_buffer_only_when_enabled_and_drain_clears() {
        let cfg = lss();
        // Disabled: the padding-regime flip happens but nothing buffers.
        let mut p = Adapt::new(&cfg);
        p.place_user(&ctx(0), 1);
        let mut out = Vec::new();
        p.drain_events(&mut out);
        assert!(out.is_empty());

        // Enabled: a fresh policy records the flip (padding_present starts
        // true; the default ctx has no window padding, so it turns false).
        let mut p = Adapt::new(&cfg);
        let mut c = ctx(0);
        c.events_enabled = true;
        p.place_user(&c, 1);
        p.drain_events(&mut out);
        assert!(
            matches!(out.as_slice(), [PolicyEvent::GhostOutcome { adapted_governs: false, .. }]),
            "{out:?}"
        );
        out.clear();
        p.drain_events(&mut out);
        assert!(out.is_empty(), "drain must clear the buffer");
    }
}
