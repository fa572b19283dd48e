//! Every ADAPT placement decision, fingerprinted.
//!
//! A recording [`PlacementPolicy`] wrapper around [`Adapt`] sits inside a
//! real `Lss` over a `CountingArray` and folds every `place_user` /
//! `place_gc` / `on_sla_expire` return into an FNV-1a hash; the policy's
//! final `adoptions`, `demotions`, `effective_threshold` and the engine's
//! write-path `LssMetrics` counters go in last. Two streams — dense zipf
//! overwrites (GC, ghost-set adoption, demotion; the only SLA expiries are
//! demoted blocks waiting in a GC group's chunk) and a sparse timed YCSB-A
//! shape (SLA expiries, shadow appends, trims) — run under full ADAPT and
//! each of its three ablations.
//!
//! The constants were recorded at the commit *before* PR 21 restructured
//! `crates/core`; a refactor of the policy layer must reproduce them. A
//! change that moves a decision on purpose re-records them and says which
//! rule moved.
//!
//! Re-recorded once since, for the one-clock rule: ghost sets class a
//! sampled write by its SepBIT age on the user-byte clock, no longer by its
//! distinct-block reuse distance. The three sparse runs that adapt the
//! threshold moved; the dense runs, where no user chunk pads and
//! `padding_present` hands the split back to SepBIT's ℓ, and the
//! adaptation-off sparse run did not.

use adapt_array::CountingArray;
use adapt_core::{Adapt, AdaptConfig};
use adapt_lss::{
    GroupId, GroupKind, Lba, Lss, LssConfig, PlacementPolicy, PolicyCtx, PolicyEvent, ReclaimInfo,
    SegmentMeta, SlaAction, VictimMeta,
};
use adapt_trace::arrival::ArrivalModel;
use adapt_trace::rng::{mix64, Xoshiro256StarStar};
use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};
use adapt_trace::zipf::ZipfGenerator;
use adapt_trace::OpType;

const BLOCKS: u64 = 16 * 1024;

/// FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// [`Adapt`] with every decision it returns folded into a hash.
struct Recording {
    inner: Adapt,
    fnv: Fnv,
    sla_expiries: u64,
}

impl PlacementPolicy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn groups(&self) -> &[GroupKind] {
        self.inner.groups()
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        let g = self.inner.place_user(ctx, lba);
        self.fnv.word(0x100 | g as u64);
        g
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, victim: &VictimMeta) -> GroupId {
        let g = self.inner.place_gc(ctx, lba, victim);
        self.fnv.word(0x200 | g as u64);
        g
    }

    fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        let a = self.inner.on_sla_expire(ctx, group);
        self.sla_expiries += 1;
        self.fnv.word(match a {
            SlaAction::Pad => 0x300,
            SlaAction::ShadowAppend { target } => 0x400 | target as u64,
        });
        a
    }

    fn on_gc_block_migrated(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        self.inner.on_gc_block_migrated(lba, from, to);
    }

    fn on_segment_sealed(&mut self, ctx: &PolicyCtx, meta: &SegmentMeta) {
        self.inner.on_segment_sealed(ctx, meta);
    }

    fn on_segment_reclaimed(&mut self, ctx: &PolicyCtx, info: &ReclaimInfo) {
        self.inner.on_segment_reclaimed(ctx, info);
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn drain_events(&mut self, out: &mut Vec<PolicyEvent>) {
        self.inner.drain_events(out);
    }
}

type Engine = Lss<Recording, CountingArray>;

fn lss_config() -> LssConfig {
    LssConfig::default().with_user_blocks(BLOCKS).with_op_ratio(0.25).with_gc_watermarks(10, 14)
}

fn engine(variant: fn(AdaptConfig) -> AdaptConfig) -> Engine {
    let cfg = lss_config();
    let policy = Recording {
        inner: Adapt::with_config(&cfg, variant(AdaptConfig::for_engine(&cfg))),
        fnv: Fnv::new(),
        sla_expiries: 0,
    };
    Lss::builder(policy, CountingArray::new(cfg.array_config())).config(cfg).build()
}

/// Back-to-back zipf overwrites, 1 µs apart: user chunks fill long before
/// the SLA, so the stream exercises GC classing, adoption and demotion.
fn dense(e: &mut Engine) {
    let zipf = ZipfGenerator::new(BLOCKS, 0.99);
    let mut rng = Xoshiro256StarStar::new(21);
    for lba in 0..BLOCKS {
        e.try_write(lba, lba).unwrap();
    }
    for i in 0..24 * BLOCKS {
        // Scatter ranks over the LBA space so hot blocks are not adjacent.
        let lba = mix64(zipf.sample(&mut rng)) % BLOCKS;
        e.try_write(BLOCKS + i, lba).unwrap();
    }
    e.try_flush_all().unwrap();
}

/// The benchmark's `replay-sparse` shape at 1/16 size: YCSB-A at 16 667
/// req/s with reads and a 16-block trim every 256 ops.
fn sparse(e: &mut Engine) {
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
            OpType::Write => e.try_write_request(rec.ts_us, rec.lba, rec.num_blocks).unwrap(),
            OpType::Read => e.try_read_request(rec.ts_us, rec.lba, rec.num_blocks).unwrap(),
        }
        if i as u64 >= BLOCKS && (i as u64 + 1).is_multiple_of(256) {
            e.try_trim(rec.ts_us, mix64(21 ^ i as u64) % (BLOCKS - 16), 16).unwrap();
        }
    }
    e.try_flush_all().unwrap();
}

/// What one run came to: the decision hash plus the counters that show the
/// stream reached the mechanism it is there for.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    fingerprint: u64,
    adoptions: u64,
    demotions: u64,
    sla_expiries: u64,
    shadow_appends: u64,
}

fn run(stream: fn(&mut Engine), variant: fn(AdaptConfig) -> AdaptConfig) -> Outcome {
    let mut e = engine(variant);
    stream(&mut e);
    e.check_invariants();
    let m = e.metrics().clone();
    let p = e.policy();
    let mut fnv = p.fnv;
    for w in [
        p.inner.adoptions(),
        p.inner.demotions(),
        p.inner.effective_threshold().to_bits(),
        m.host_write_bytes,
        m.user_bytes,
        m.gc_bytes,
        m.shadow_bytes,
        m.pad_bytes,
        m.chunks_flushed,
        m.padded_chunks,
        m.gc_passes,
        m.segments_reclaimed,
        m.blocks_migrated,
        m.buffer_absorbed_blocks,
        m.lazy_appends,
        m.shadow_append_events,
        m.trimmed_blocks,
    ] {
        fnv.word(w);
    }
    Outcome {
        fingerprint: fnv.0,
        adoptions: p.inner.adoptions(),
        demotions: p.inner.demotions(),
        sla_expiries: p.sla_expiries,
        shadow_appends: m.shadow_append_events,
    }
}

#[test]
fn dense_stream_decisions_are_pinned() {
    let got = [
        run(dense, std::convert::identity),
        run(dense, AdaptConfig::without_adaptation),
        run(dense, AdaptConfig::without_aggregation),
        run(dense, AdaptConfig::without_demotion),
    ];
    let want = [
        Outcome {
            fingerprint: 0x586f_cd9d_e8e0_b5a1,
            adoptions: 6,
            demotions: 4118,
            sla_expiries: 513,
            shadow_appends: 163,
        },
        Outcome {
            fingerprint: 0x0537_fe3e_06ba_f009,
            adoptions: 0,
            demotions: 3019,
            sla_expiries: 665,
            shadow_appends: 231,
        },
        Outcome {
            fingerprint: 0x4e5f_e461_a803_d17e,
            adoptions: 6,
            demotions: 2529,
            sla_expiries: 554,
            shadow_appends: 0,
        },
        Outcome {
            fingerprint: 0xa263_633f_6663_8109,
            adoptions: 6,
            demotions: 0,
            sla_expiries: 0,
            shadow_appends: 0,
        },
    ];
    assert_eq!(got, want);
}

#[test]
fn sparse_stream_decisions_are_pinned() {
    let got = [
        run(sparse, std::convert::identity),
        run(sparse, AdaptConfig::without_adaptation),
        run(sparse, AdaptConfig::without_aggregation),
        run(sparse, AdaptConfig::without_demotion),
    ];
    let want = [
        Outcome {
            fingerprint: 0x3812_8193_4287_b96b,
            adoptions: 2,
            demotions: 103,
            sla_expiries: 39733,
            shadow_appends: 6098,
        },
        Outcome {
            fingerprint: 0xf49c_ff4c_ca97_2c8b,
            adoptions: 0,
            demotions: 102,
            sla_expiries: 39751,
            shadow_appends: 5709,
        },
        Outcome {
            fingerprint: 0x830a_58f6_fd71_c2cf,
            adoptions: 2,
            demotions: 81,
            sla_expiries: 44917,
            shadow_appends: 0,
        },
        Outcome {
            fingerprint: 0x57a7_2e73_d607_ea90,
            adoptions: 2,
            demotions: 0,
            sla_expiries: 39693,
            shadow_appends: 6107,
        },
    ];
    assert_eq!(got, want);
}
