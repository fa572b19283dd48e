//! The batched-pipeline determinism contract: [`Lss::try_apply_ops`] over
//! *any* partitioning of an op stream is bit-identical to the one-op-at-a-
//! time loop, and enabling per-stage cost attribution never changes the
//! deterministic metrics. These are the guarantees the serve drain loop
//! and its `ServerBuilder::apply_batch` cap rely on.

use adapt_array::CountingArray;
use adapt_lss::{
    GcSelection, GroupId, GroupKind, HostOp, Lba, Lss, LssConfig, PlacementPolicy, PolicyCtx,
    SlaAction, VictimMeta,
};
use proptest::prelude::*;

/// Three-group policy that stripes user writes by LBA parity and shadow-
/// appends across groups at SLA expiry — enough cross-group traffic to
/// exercise coalescing, shadow/lazy append, GC, and the deadline cache.
struct Striped;

impl PlacementPolicy for Striped {
    fn name(&self) -> &'static str {
        "striped"
    }
    fn groups(&self) -> &[GroupKind] {
        &[GroupKind::User, GroupKind::User, GroupKind::Gc]
    }
    fn place_user(&mut self, _c: &PolicyCtx, lba: Lba) -> GroupId {
        (lba % 2) as GroupId
    }
    fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId {
        2
    }
    fn on_sla_expire(&mut self, _c: &PolicyCtx, gid: GroupId) -> SlaAction {
        // Donate group 0's stragglers to group 1; everyone else pads.
        if gid == 0 {
            SlaAction::ShadowAppend { target: 1 }
        } else {
            SlaAction::Pad
        }
    }
}

fn small_cfg() -> LssConfig {
    LssConfig {
        user_blocks: 4096,
        op_ratio: 0.5,
        gc_low_water: 6,
        gc_high_water: 9,
        ..Default::default()
    }
}

fn engine(cfg: LssConfig) -> Lss<Striped, CountingArray> {
    Lss::builder(Striped, CountingArray::new(cfg.array_config()))
        .config(cfg)
        .gc_select(GcSelection::Greedy)
        .build()
}

/// Decode a raw op tuple stream into `HostOp`s with monotone timestamps.
/// Mostly writes (the hot path under test), salted with reads, trims and
/// idle gaps long enough to fire SLA expiries between ops.
fn ops_of(raw: &[(u8, u16, u8, u8)], user_blocks: u64) -> Vec<HostOp> {
    let mut ts = 0u64;
    raw.iter()
        .map(|&(kind, lba_seed, blocks, dt)| {
            ts += dt as u64; // 0..=255 µs steps straddle the 100 µs SLA
            let lba = lba_seed as u64 % user_blocks;
            let blocks = (blocks % 4) as u32 + 1;
            let blocks = blocks.min((user_blocks - lba) as u32);
            match kind % 8 {
                0 => HostOp::read(ts, lba, blocks),
                1 => HostOp::trim(ts, lba, blocks),
                _ => HostOp::write(ts, lba, blocks),
            }
        })
        .collect()
}

/// Apply every op through the one-shot entry points (the reference).
fn run_unbatched(ops: &[HostOp]) -> Lss<Striped, CountingArray> {
    let mut e = engine(small_cfg());
    for op in ops {
        match op.kind {
            adapt_lss::HostOpKind::Write => e.write_request(op.ts_us, op.lba, op.blocks),
            adapt_lss::HostOpKind::Read => e.read_request(op.ts_us, op.lba, op.blocks),
            adapt_lss::HostOpKind::Trim => e.trim(op.ts_us, op.lba, op.blocks),
        }
    }
    e
}

/// Apply the same stream through `apply_ops` in chunks drawn from `cuts`.
fn run_batched(ops: &[HostOp], cuts: &[u8]) -> Lss<Striped, CountingArray> {
    let mut e = engine(small_cfg());
    let mut rest = ops;
    let mut i = 0;
    while !rest.is_empty() {
        let take = (cuts.get(i).copied().unwrap_or(7) as usize % 9 + 1).min(rest.len());
        i += 1;
        let (batch, tail) = rest.split_at(take);
        e.apply_ops(batch);
        rest = tail;
    }
    e
}

proptest! {
    /// Any batch partitioning of any op stream leaves the engine in a
    /// bit-identical state: metrics, per-group traffic, and the op clock
    /// all match the op-at-a-time reference.
    #[test]
    fn apply_ops_matches_op_at_a_time(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()), 1..400),
        cuts in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let ops = ops_of(&raw, small_cfg().user_blocks);
        let a = run_unbatched(&ops);
        let b = run_batched(&ops, &cuts);
        prop_assert_eq!(a.metrics(), b.metrics());
        prop_assert_eq!(a.group_traffic(), b.group_traffic());
        a.check_invariants();
        b.check_invariants();
        a.check_recovery();
        b.check_recovery();
    }

    /// Turning stage attribution on changes nothing observable except the
    /// attribution itself: the deterministic metrics are bit-identical,
    /// and the profiler actually counted every host write.
    #[test]
    fn stage_costs_do_not_perturb_metrics(
        raw in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()), 1..200),
    ) {
        let ops = ops_of(&raw, small_cfg().user_blocks);
        let plain = run_unbatched(&ops);

        let mut profiled = Lss::builder(
            Striped,
            CountingArray::new(small_cfg().array_config()),
        )
        .config(small_cfg().with_stage_costs(true))
        .gc_select(GcSelection::Greedy)
        .build();
        profiled.apply_ops(&ops);

        prop_assert_eq!(plain.metrics(), profiled.metrics());
        prop_assert_eq!(plain.group_traffic(), profiled.group_traffic());
        let writes: u64 = ops
            .iter()
            .filter(|o| o.kind == adapt_lss::HostOpKind::Write)
            .map(|o| o.blocks as u64)
            .sum();
        let costs = profiled.stage_costs().expect("attribution enabled");
        prop_assert_eq!(costs.ops, writes);
    }
}

#[test]
fn stage_costs_absent_when_disabled() {
    let e = engine(small_cfg());
    assert!(e.stage_costs().is_none());
}

#[test]
fn stage_costs_reset_zeroes_window() {
    let mut e = Lss::builder(Striped, CountingArray::new(small_cfg().array_config()))
        .config(small_cfg().with_stage_costs(true))
        .gc_select(GcSelection::Greedy)
        .build();
    for lba in 0..64 {
        e.write(lba, lba);
    }
    assert_eq!(e.stage_costs().unwrap().ops, 64);
    e.reset_stage_costs();
    assert_eq!(e.stage_costs().unwrap(), &adapt_lss::StageCosts::default());
    e.write(0, 1000);
    assert_eq!(e.stage_costs().unwrap().ops, 1);
}

#[test]
fn stage_costs_merge_and_total() {
    let a = adapt_lss::StageCosts { ops: 2, index_ns: 10, parity_ns: 5, ..Default::default() };
    let mut b = adapt_lss::StageCosts { ops: 1, policy_ns: 7, ..Default::default() };
    b.merge_from(&a);
    assert_eq!(b.ops, 3);
    assert_eq!(b.total_ns(), 22);
}
