//! Cross-group dynamic aggregation decision logic (§3.3).
//!
//! The engine owns the shadow/lazy-append *mechanics*; this module owns
//! the *decision*: when the hot user group's SLA expires with a partial
//! chunk, should its pending blocks be shadow-appended into the cold
//! group's unfilled chunk instead of padding?
//!
//! The paper's two-step condition:
//!
//! 1. **Predict** that the chunk would stay unfilled: access density is
//!    continuous, so if the group's recent inter-arrival gap projects the
//!    chunk to take longer than another SLA window to fill, padding is
//!    imminent again — aggregate.
//! 2. **Stop** when the substitutes already donated into the target's
//!    current segment exceed the home group's average padding size
//!    (Eq. 1's `C_i` complement): beyond that point shadow copies cost
//!    more than the padding they save.
//!
//! The shadow target is always the *colder* user group: its chunks
//! accumulate slowly (stable unused space) and its segments live long, so
//! donated substitutes do not drag early GC into the hot group's lifespan
//! class (§3.3, "Group selection for shadow append").

use adapt_lss::{GroupId, PolicyCtx, SlaAction};

/// Donated substitutes per cold segment, in units of the home group's
/// average padding per padded chunk, beyond which aggregation stops. The
/// paper's rule (Eq. 1) stops at 1×; 4× is ours.
const DONATION_STOP_FACTOR: f64 = 4.0;

/// Decision state for cross-group aggregation into one cold user group.
#[derive(Debug, Clone)]
pub struct AggregationCtl {
    /// Cold user group (shadow target).
    cold: GroupId,
    /// The engine's chunk-coalescing SLA (µs): the prediction horizon.
    sla_us: u64,
    /// Shadow blocks donated into the cold group's current open segment.
    donated_in_segment: u64,
}

impl AggregationCtl {
    /// Create the controller for shadow target `cold` under the engine's
    /// `sla_us`.
    pub fn new(cold: GroupId, sla_us: u64) -> Self {
        Self { cold, sla_us, donated_in_segment: 0 }
    }

    /// Decide the SLA action for `group`'s expiring partial chunk.
    ///
    /// Fires for the hot user group, and also for GC groups holding
    /// *demoted* user blocks whose SLA ran out — both donate their
    /// unpersisted blocks into the cold group's unfilled chunk. (The cold
    /// group itself pads; pure-GC chunks never start a timer.)
    pub fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        if group == self.cold || group as usize >= ctx.groups.len() {
            return SlaAction::Pad;
        }
        let hot = &ctx.groups[group as usize];
        let hot_pending = hot.pending.len() as u32;
        let cold_pending = ctx.groups[self.cold as usize].pending.len() as u32;

        // Mechanical feasibility: every unpersisted pending block must fit
        // in the cold group's open chunk (the engine enforces this too and
        // pads on violation; checking here keeps the accounting honest).
        if hot_pending == 0 || hot_pending + cold_pending > ctx.chunk_blocks {
            return SlaAction::Pad;
        }

        // Aggregation only pays when the two streams actually merge: the
        // cold chunk must hold payload of its own, so one combined padded
        // chunk replaces two separately padded ones. Donating substitutes
        // into an *empty* cold chunk merely relocates the padding and adds
        // shadow garbage.
        if cold_pending == 0 {
            return SlaAction::Pad;
        }

        // Step 1 — predict the chunk stays unfilled: project fill time from
        // the recent inter-arrival gap. A gap estimate of u64::MAX (no
        // second arrival yet) trivially predicts "unfilled".
        let missing = (ctx.chunk_blocks - hot_pending) as u64;
        let projected_fill_us = hot.ewma_gap_us().saturating_mul(missing);
        if projected_fill_us <= self.sla_us {
            // Dense traffic: the next chunk would fill on its own within
            // one more SLA window; padding once now is cheaper than
            // donating shadow copies.
            return SlaAction::Pad;
        }

        // Step 2 — cost balance: stop once this segment already absorbed
        // more substitutes than the hot group's average padding size.
        if let Some(avg_pad) = hot.avg_pad_blocks() {
            if self.donated_in_segment as f64 >= avg_pad.max(1.0) * DONATION_STOP_FACTOR {
                return SlaAction::Pad;
            }
        }

        self.donated_in_segment += hot_pending as u64;
        SlaAction::ShadowAppend { target: self.cold }
    }

    /// The cold group sealed a segment: its open segment is fresh, so the
    /// donation budget resets.
    pub fn on_segment_sealed(&mut self, group: GroupId) {
        if group == self.cold {
            self.donated_in_segment = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_array::Traffic;
    use adapt_lss::group::{Group, PendingBlock};
    use adapt_lss::GroupKind;

    /// Hot (0) and cold (1) user groups, each with `pending` blocks
    /// buffered, an inter-arrival gap of exactly `gap_us`, and `pad_chunks`
    /// padded chunks of 8 pad blocks each in its Eq. 1 window.
    fn groups(hot_pending: u32, cold_pending: u32, gap_us: u64, pad_chunks: u64) -> Vec<Group> {
        let mk = |id: GroupId, pending: u32| {
            let mut g = Group::new(id, GroupKind::User);
            for lba in 0..pending as u64 {
                g.pending.push(PendingBlock {
                    lba,
                    traffic: Traffic::User,
                    arrival_us: 0,
                    needs_sla: true,
                });
            }
            g.note_arrival(0);
            g.note_arrival(gap_us);
            for _ in 0..pad_chunks {
                g.account_chunk(8, 0, 0, 8);
            }
            g
        };
        vec![mk(0, hot_pending), mk(1, cold_pending)]
    }

    /// The engine's view of `groups` with 16-block chunks.
    fn ctx(groups: &[Group]) -> PolicyCtx<'_> {
        PolicyCtx { chunk_blocks: 16, groups, ..Default::default() }
    }

    #[test]
    fn sparse_hot_group_aggregates() {
        let mut a = AggregationCtl::new(1, 100);
        // 4 pending, gap 1000 µs: 12 missing blocks → 12 ms ≫ SLA.
        let action = a.on_sla_expire(&ctx(&groups(4, 2, 1000, 0)), 0);
        assert_eq!(action, SlaAction::ShadowAppend { target: 1 });
        assert_eq!(a.donated_in_segment, 4);
    }

    #[test]
    fn dense_traffic_pads_instead() {
        let mut a = AggregationCtl::new(1, 100);
        // gap 2 µs × 12 missing = 24 µs < SLA: the next chunk will fill.
        assert_eq!(a.on_sla_expire(&ctx(&groups(4, 2, 2, 0)), 0), SlaAction::Pad);
    }

    #[test]
    fn cold_group_expiry_always_pads() {
        let mut a = AggregationCtl::new(1, 100);
        assert_eq!(a.on_sla_expire(&ctx(&groups(4, 2, 1000, 0)), 1), SlaAction::Pad);
    }

    #[test]
    fn prediction_horizon_is_the_engines_sla() {
        // gap 50 µs × 12 missing = 600 µs: past a 100 µs SLA (the literal
        // this used to compare against), inside a 1 ms one.
        let gs = groups(4, 2, 50, 0);
        let c = ctx(&gs);
        assert_eq!(
            AggregationCtl::new(1, 100).on_sla_expire(&c, 0),
            SlaAction::ShadowAppend { target: 1 }
        );
        assert_eq!(AggregationCtl::new(1, 1000).on_sla_expire(&c, 0), SlaAction::Pad);
    }

    #[test]
    fn no_room_in_cold_chunk_pads() {
        let mut a = AggregationCtl::new(1, 100);
        // 10 hot + 10 cold > 16-block chunk.
        assert_eq!(a.on_sla_expire(&ctx(&groups(10, 10, 1000, 0)), 0), SlaAction::Pad);
    }

    #[test]
    fn empty_cold_chunk_pads() {
        let mut a = AggregationCtl::new(1, 100);
        assert_eq!(a.on_sla_expire(&ctx(&groups(4, 0, 1000, 0)), 0), SlaAction::Pad);
    }

    #[test]
    fn donation_budget_stops_aggregation() {
        let mut a = AggregationCtl::new(1, 100);
        // avg pad = 8 blocks → budget 32 donated blocks per cold segment.
        let gs = groups(8, 2, 1000, 2);
        let c = ctx(&gs);
        for _ in 0..4 {
            assert_eq!(a.on_sla_expire(&c, 0), SlaAction::ShadowAppend { target: 1 });
        }
        assert_eq!(a.on_sla_expire(&c, 0), SlaAction::Pad);
        // A fresh cold segment resets the budget.
        a.on_segment_sealed(1);
        assert_eq!(a.on_sla_expire(&c, 0), SlaAction::ShadowAppend { target: 1 });
    }

    #[test]
    fn hot_segment_seal_does_not_reset_budget() {
        let mut a = AggregationCtl::new(1, 100);
        let gs = groups(8, 2, 1000, 2);
        let c = ctx(&gs);
        a.on_sla_expire(&c, 0);
        a.on_segment_sealed(0);
        assert_eq!(a.donated_in_segment, 8);
    }

    #[test]
    fn empty_pending_pads() {
        let mut a = AggregationCtl::new(1, 100);
        assert_eq!(a.on_sla_expire(&ctx(&groups(0, 0, 1000, 0)), 0), SlaAction::Pad);
    }
}
