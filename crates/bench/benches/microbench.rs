//! Criterion micro-benchmarks over the hot paths:
//!
//! * per-policy placement decision (the per-block critical path),
//! * the RA identifier lookup (the paper's "overhead of nanoseconds"
//!   claim in §3.4),
//! * reuse-distance tree updates and ghost-set steps (§3.2 machinery),
//! * GC victim selection: the bucketed index vs the naive full scan,
//! * FxHash vs SipHash map lookups on LBA keys,
//! * RAID-5 parity over a full stripe,
//! * CRC32C over a 64 KiB chunk: SSE4.2 hardware vs slicing-by-8 software,
//! * the work-stealing pool at jobs=1 vs all cores on a synthetic sweep,
//! * an end-to-end engine block write.

use adapt_array::{parity, CountingArray};
use adapt_core::demotion::RaIdentifier;
use adapt_core::distance::DistanceTree;
use adapt_core::ghost::GhostSet;
use adapt_core::Adapt;
use adapt_lss::segment::Segment;
use adapt_lss::types::Slot;
use adapt_lss::{
    FxHashMap, GcSelection, Lss, LssConfig, PlacementPolicy, PolicyCtx, SegmentBuckets,
};
use adapt_placement::{Dac, Mida, SepBit, SepGc, Warcip};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn cfg() -> LssConfig {
    LssConfig { user_blocks: 16 * 1024, op_ratio: 0.4, ..Default::default() }
}

fn ctx() -> PolicyCtx {
    PolicyCtx {
        user_bytes: 1 << 30,
        now_us: 1_000_000,
        groups: vec![Default::default(); 8],
        segment_blocks: 128,
        block_bytes: 4096,
        events_enabled: false,
    }
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("place_user");
    let context = ctx();
    macro_rules! bench_policy {
        ($name:literal, $policy:expr) => {
            group.bench_function($name, |b| {
                let mut p = $policy;
                // Warm the per-LBA state.
                for lba in 0..16_384u64 {
                    p.place_user(&context, lba);
                }
                let mut lba = 0u64;
                b.iter(|| {
                    lba = (lba + 7919) % 16_384;
                    black_box(p.place_user(&context, black_box(lba)))
                });
            });
        };
    }
    bench_policy!("SepGC", SepGc::new());
    bench_policy!("DAC", Dac::new());
    bench_policy!("WARCIP", Warcip::new());
    bench_policy!("MiDA", Mida::new());
    bench_policy!("SepBIT", SepBit::new());
    bench_policy!("ADAPT", Adapt::new(&cfg()));
    group.finish();
}

fn bench_ra_identifier(c: &mut Criterion) {
    let mut ra = RaIdentifier::with_filter_capacity(&[4, 5], 4096);
    for lba in 0..20_000u64 {
        ra.observe_migration(lba % 4096, 4, 4);
    }
    c.bench_function("ra_identifier_lookup", |b| {
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 97) % 8192;
            black_box(ra.check(black_box(lba)))
        });
    });
}

fn bench_distance_tree(c: &mut Criterion) {
    c.bench_function("distance_tree_access", |b| {
        let mut tree = DistanceTree::with_capacity(1 << 20);
        for lba in 0..4096u64 {
            tree.access(lba);
        }
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 613) % 4096;
            black_box(tree.access(black_box(lba)))
        });
    });
}

fn bench_ghost_set(c: &mut Criterion) {
    c.bench_function("ghost_set_write", |b| {
        let mut ghost = GhostSet::new(1 << 21, 8, 4, 800, 64);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            ghost.write(black_box(i % 512), Some((i * 4096) % (1 << 22)), i * 100);
        });
    });
}

/// A sealed-segment table with a spread of utilizations, as GC would see.
fn sealed_table(n: u32, cap: u32) -> Vec<Segment> {
    (0..n)
        .map(|id| {
            let mut s = Segment::new(id, cap);
            s.open(0, id as u64 * 17, 0);
            for i in 0..cap {
                s.append_slot(Slot::Block(i as u64));
            }
            s.seal();
            s.valid_blocks = (id * 31 + 7) % (cap + 1);
            s
        })
        .collect()
}

fn bench_gc_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_select");
    let segments = sealed_table(4096, 128);
    for policy in [GcSelection::Greedy, GcSelection::CostBenefit] {
        group.bench_function(&format!("naive_scan_4096/{}", policy.name()), |b| {
            b.iter(|| black_box(policy.select(black_box(&segments), 1 << 30)));
        });
        group.bench_function(&format!("bucketed_4096/{}", policy.name()), |b| {
            let mut buckets = SegmentBuckets::new(128, segments.len());
            for s in &segments {
                buckets.insert(s.id, s.valid_blocks, s.created_user_bytes);
            }
            b.iter(|| black_box(buckets.select(black_box(policy), 1 << 30)));
        });
    }
    // The maintenance side of the bargain: one invalidate + membership churn.
    group.bench_function("bucketed_churn_4096", |b| {
        let mut buckets = SegmentBuckets::new(128, segments.len());
        for s in &segments {
            buckets.insert(s.id, s.valid_blocks, s.created_user_bytes);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 4096;
            if buckets.tracked_valid(i).unwrap_or(0) > 0 {
                buckets.note_invalidate(i);
            } else {
                buckets.remove(i);
                buckets.insert(i, (i * 31 + 7) % 129, i as u64 * 17);
            }
        });
    });
    group.finish();
}

fn bench_fxhash(c: &mut Criterion) {
    let mut group = c.benchmark_group("lba_map_lookup");
    let mut sip: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut fx: FxHashMap<u64, u32> = FxHashMap::default();
    for lba in 0..65_536u64 {
        sip.insert(lba * 7, lba as u32);
        fx.insert(lba * 7, lba as u32);
    }
    group.bench_function("siphash", |b| {
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 7919) % 65_536;
            black_box(sip.get(&(lba * 7)))
        });
    });
    group.bench_function("fxhash", |b| {
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 7919) % 65_536;
            black_box(fx.get(&(lba * 7)))
        });
    });
    group.finish();
}

fn bench_parity(c: &mut Criterion) {
    let chunks: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 64 * 1024]).collect();
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    c.bench_function("raid5_parity_64k_stripe", |b| {
        b.iter(|| black_box(parity::compute_parity(black_box(&refs))));
    });
}

fn bench_crc32c(c: &mut Criterion) {
    use adapt_array::crc;
    let mut group = c.benchmark_group("crc32c_64k_chunk");
    let data = {
        let mut v = vec![0u8; 64 * 1024];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (i * 31 + 7) as u8;
        }
        v
    };
    // Every routine checksums the same 64 KiB, in pieces of the sizes the
    // stack actually feeds the kernel: a `ChunkRecord` header (60 B, the
    // word loop only), a WAL-frame-sized 4 KiB (one interleaved round plus
    // a tail) and a whole chunk — so ns/iter compares across sizes.
    let hw = if crc::hw_available() { "hardware_sse42" } else { "hardware_unavailable" };
    for (size, tag) in [(60usize, "_60b"), (4096, "_4k"), (64 * 1024, "")] {
        group.bench_function(&format!("{hw}{tag}"), |b| {
            b.iter(|| data.chunks_exact(size).fold(0, |x, p| x ^ crc::crc32c(black_box(p))))
        });
        group.bench_function(&format!("software_slicing8{tag}"), |b| {
            b.iter(|| data.chunks_exact(size).fold(0, |x, p| x ^ crc::crc32c_soft(black_box(p))))
        });
    }
    group.finish();
}

fn bench_par_sweep(c: &mut Criterion) {
    // Scaling of the pool itself on an embarrassingly parallel kernel:
    // 64 seeded pseudo-replay cells at jobs=1 vs all cores.
    use rayon::prelude::*;
    let kernel = |seed: u64| {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    };
    let mut group = c.benchmark_group("par_sweep_64_cells");
    group.bench_function("jobs_1", |b| {
        b.iter(|| rayon::with_jobs(1, || (0u64..64).into_par_iter().map(kernel).sum::<u64>()))
    });
    group.bench_function("jobs_all", |b| {
        b.iter(|| (0u64..64).into_par_iter().map(kernel).sum::<u64>())
    });
    group.finish();
}

fn bench_engine_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_block_write");
    group.bench_function("adapt_dense", |b| {
        b.iter_batched(
            || {
                let cfg = cfg();
                let mut e = Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
                    .config(cfg)
                    .gc_select(GcSelection::Greedy)
                    .build();
                for lba in 0..16_384u64 {
                    e.write(lba, lba);
                }
                e
            },
            |mut e| {
                let mut ts = 20_000u64;
                for i in 0..4096u64 {
                    ts += 2;
                    e.write(ts, (i * 7919) % 16_384);
                }
                e
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_placement,
    bench_ra_identifier,
    bench_distance_tree,
    bench_ghost_set,
    bench_gc_select,
    bench_fxhash,
    bench_parity,
    bench_crc32c,
    bench_par_sweep,
    bench_engine_write
);
criterion_main!(benches);
