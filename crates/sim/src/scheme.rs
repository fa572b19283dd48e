//! Placement-scheme selection.
//!
//! The engine is generic over the policy for hot-path speed; experiments
//! need a runtime choice. [`Scheme`] names every policy (including
//! ADAPT's ablated variants), and [`Scheme::policy`] turns the name into
//! a [`SchemePolicy`] value — the one policy type every runner's engine
//! is built over.

use adapt_core::{Adapt, AdaptConfig};
use adapt_lss::{
    GroupId, GroupKind, Lba, LssConfig, PlacementPolicy, PolicyCtx, PolicyEvent, ReclaimInfo,
    SegmentMeta, SlaAction, VictimMeta,
};
use adapt_placement::{Dac, Mida, SepBit, SepGc, Warcip};
use serde::{Deserialize, Serialize};

/// Every placement scheme the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// User/GC separation only.
    SepGc,
    /// Dynamic data clustering (access counts).
    Dac,
    /// Rewrite-interval clustering.
    Warcip,
    /// Migration-count streams.
    Mida,
    /// Block-invalidation-time inference.
    SepBit,
    /// The paper's policy, all mechanisms on.
    Adapt,
    /// Ablation: ADAPT without density-aware threshold adaptation.
    AdaptNoAdaptation,
    /// Ablation: ADAPT without cross-group aggregation.
    AdaptNoAggregation,
    /// Ablation: ADAPT without proactive demotion.
    AdaptNoDemotion,
}

impl Scheme {
    /// The six schemes of the paper's main comparison, in figure order.
    pub const PAPER: [Scheme; 6] =
        [Scheme::SepGc, Scheme::Mida, Scheme::Dac, Scheme::Warcip, Scheme::SepBit, Scheme::Adapt];

    /// The five baselines (everything but ADAPT variants).
    pub const BASELINES: [Scheme; 5] =
        [Scheme::SepGc, Scheme::Mida, Scheme::Dac, Scheme::Warcip, Scheme::SepBit];

    /// ADAPT plus its three ablations.
    pub const ABLATIONS: [Scheme; 4] = [
        Scheme::Adapt,
        Scheme::AdaptNoAdaptation,
        Scheme::AdaptNoAggregation,
        Scheme::AdaptNoDemotion,
    ];

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::SepGc => "SepGC",
            Scheme::Dac => "DAC",
            Scheme::Warcip => "WARCIP",
            Scheme::Mida => "MiDA",
            Scheme::SepBit => "SepBIT",
            Scheme::Adapt => "ADAPT",
            Scheme::AdaptNoAdaptation => "ADAPT-noThresh",
            Scheme::AdaptNoAggregation => "ADAPT-noAggr",
            Scheme::AdaptNoDemotion => "ADAPT-noDemo",
        }
    }

    /// The policy value that runs this scheme on an engine configured as
    /// `lss` — the one construction table, ablations included.
    pub fn policy(self, lss: &LssConfig) -> SchemePolicy {
        let adapt = |mechanisms: fn(AdaptConfig) -> AdaptConfig| {
            let cfg = mechanisms(AdaptConfig::for_engine(lss));
            SchemePolicy::Adapt(Box::new(Adapt::with_config(lss, cfg)))
        };
        match self {
            Scheme::SepGc => SchemePolicy::SepGc(SepGc::new()),
            Scheme::Dac => SchemePolicy::Dac(Dac::new()),
            Scheme::Warcip => SchemePolicy::Warcip(Warcip::new()),
            Scheme::Mida => SchemePolicy::Mida(Mida::new()),
            Scheme::SepBit => SchemePolicy::SepBit(SepBit::new()),
            Scheme::Adapt => adapt(std::convert::identity),
            Scheme::AdaptNoAdaptation => adapt(AdaptConfig::without_adaptation),
            Scheme::AdaptNoAggregation => adapt(AdaptConfig::without_aggregation),
            Scheme::AdaptNoDemotion => adapt(AdaptConfig::without_demotion),
        }
    }
}

/// One of the six placement policies, chosen at run time.
///
/// Each arm calls its concrete policy statically: the per-block cost of
/// the choice is one predictable branch (and, for ADAPT, the box's
/// pointer), not a virtual call. Every
/// [`PlacementPolicy`] method is forwarded explicitly — a method left to
/// its trait default would silently change decisions (without
/// `on_sla_expire`, ADAPT would always pad).
pub enum SchemePolicy {
    /// User/GC separation only.
    SepGc(SepGc),
    /// Dynamic data clustering.
    Dac(Dac),
    /// Rewrite-interval clustering.
    Warcip(Warcip),
    /// Migration-count streams.
    Mida(Mida),
    /// Block-invalidation-time inference.
    SepBit(SepBit),
    /// ADAPT or one of its ablations (boxed: it outweighs the others).
    Adapt(Box<Adapt>),
}

/// Evaluate `$body` with `$p` bound to the concrete policy of `$policy`.
macro_rules! forward {
    ($policy:expr, $p:ident => $body:expr) => {
        match $policy {
            SchemePolicy::SepGc($p) => $body,
            SchemePolicy::Dac($p) => $body,
            SchemePolicy::Warcip($p) => $body,
            SchemePolicy::Mida($p) => $body,
            SchemePolicy::SepBit($p) => $body,
            SchemePolicy::Adapt($p) => $body,
        }
    };
}

impl PlacementPolicy for SchemePolicy {
    fn name(&self) -> &'static str {
        forward!(self, p => p.name())
    }

    fn groups(&self) -> &[GroupKind] {
        forward!(self, p => p.groups())
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        forward!(self, p => p.place_user(ctx, lba))
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, victim: &VictimMeta) -> GroupId {
        forward!(self, p => p.place_gc(ctx, lba, victim))
    }

    fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        forward!(self, p => p.on_sla_expire(ctx, group))
    }

    fn on_gc_block_migrated(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        forward!(self, p => p.on_gc_block_migrated(lba, from, to))
    }

    fn on_segment_sealed(&mut self, ctx: &PolicyCtx, meta: &SegmentMeta) {
        forward!(self, p => p.on_segment_sealed(ctx, meta))
    }

    fn on_segment_reclaimed(&mut self, ctx: &PolicyCtx, info: &ReclaimInfo) {
        forward!(self, p => p.on_segment_reclaimed(ctx, info))
    }

    fn memory_bytes(&self) -> usize {
        forward!(self, p => p.memory_bytes())
    }

    fn drain_events(&mut self, out: &mut Vec<PolicyEvent>) {
        forward!(self, p => p.drain_events(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_array::CountingArray;
    use adapt_lss::{EventConfig, EventStats, Lss};
    use adapt_trace::arrival::ArrivalModel;
    use adapt_trace::rng::mix64;
    use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};
    use adapt_trace::OpType;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Scheme::PAPER.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    /// What one sparse run reached of each ADAPT mechanism.
    #[derive(Debug)]
    struct Reached {
        adoptions: u64,
        demotions: u64,
        shadow_appends: u64,
        events: EventStats,
    }

    /// `adapt-core`'s decision-fingerprint sparse stream: 16k blocks,
    /// YCSB-A at 16 667 req/s with reads and a 16-block trim every 256
    /// ops — the stream that reaches threshold adoption, demotion and
    /// shadow appends alike.
    fn sparse_run(scheme: Scheme, events: EventConfig) -> Reached {
        const BLOCKS: u64 = 16 * 1024;
        let cfg = LssConfig::default()
            .with_user_blocks(BLOCKS)
            .with_op_ratio(0.25)
            .with_gc_watermarks(10, 14);
        let mut e = Lss::builder(scheme.policy(&cfg), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .events(events)
            .build();
        let ycsb = YcsbConfig {
            num_blocks: BLOCKS,
            num_updates: 8 * BLOCKS,
            zipf_alpha: 0.99,
            read_ratio: 0.5,
            arrival: ArrivalModel::Poisson { rate_per_sec: 16_667.0 },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 21,
        };
        for (i, rec) in ycsb.generator().enumerate() {
            match rec.op {
                OpType::Write => e.try_write_request(rec.ts_us, rec.lba, rec.num_blocks),
                OpType::Read => e.try_read_request(rec.ts_us, rec.lba, rec.num_blocks),
            }
            .unwrap();
            if i as u64 >= BLOCKS && (i as u64 + 1).is_multiple_of(256) {
                e.try_trim(rec.ts_us, mix64(21 ^ i as u64) % (BLOCKS - 16), 16).unwrap();
            }
        }
        e.try_flush_all().unwrap();
        let SchemePolicy::Adapt(a) = e.policy() else { panic!("{} is not ADAPT", scheme.name()) };
        Reached {
            adoptions: a.adoptions(),
            demotions: a.demotions(),
            shadow_appends: e.metrics().shadow_append_events,
            events: e.events().stats(),
        }
    }

    #[test]
    fn each_ablation_switches_off_its_own_mechanism() {
        let full = sparse_run(Scheme::Adapt, EventConfig::enabled());
        assert!(full.adoptions > 0 && full.demotions > 0 && full.shadow_appends > 0, "{full:?}");
        // The engine only sees the policy's events through `drain_events`.
        assert!(full.events.kind_total("threshold_adopted") > 0, "{:?}", full.events);
        assert!(full.events.kind_total("demotion") > 0, "{:?}", full.events);

        let r = sparse_run(Scheme::AdaptNoAdaptation, EventConfig::default());
        assert!(r.adoptions == 0 && r.demotions > 0 && r.shadow_appends > 0, "{r:?}");
        let r = sparse_run(Scheme::AdaptNoDemotion, EventConfig::default());
        assert!(r.adoptions > 0 && r.demotions == 0 && r.shadow_appends > 0, "{r:?}");
        let r = sparse_run(Scheme::AdaptNoAggregation, EventConfig::default());
        assert!(r.adoptions > 0 && r.demotions > 0 && r.shadow_appends == 0, "{r:?}");
    }
}
