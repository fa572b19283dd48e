//! Property-based tests over the core data structures and the engine's
//! invariants, using proptest.

use adapt_repro::adapt::Adapt;
use adapt_repro::array::{parity, ArraySink, CountingArray};
use adapt_repro::lss::{EventConfig, GcSelection, Lss, LssConfig};
use adapt_repro::placement::SepBit;
use adapt_repro::trace::stats::{BoxStats, Ecdf};
use adapt_repro::trace::ZipfGenerator;
use proptest::prelude::*;

proptest! {
    /// XOR parity always reconstructs any single missing chunk.
    #[test]
    fn parity_reconstructs_any_chunk(
        chunks in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 64..=64),
            2..=5,
        ),
        missing_idx in 0usize..5,
    ) {
        let missing = missing_idx % chunks.len();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let p = parity::compute_parity(&refs);
        let mut survivors: Vec<&[u8]> = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            if i != missing {
                survivors.push(c);
            }
        }
        survivors.push(&p);
        prop_assert_eq!(parity::reconstruct(&survivors), chunks[missing].clone());
    }

    /// ECDF is monotone and bounded on arbitrary sample sets.
    #[test]
    fn ecdf_monotone_and_bounded(
        mut samples in prop::collection::vec(-1e6f64..1e6, 1..200),
        probes in prop::collection::vec(-1e6f64..1e6, 1..50),
    ) {
        samples.retain(|x| x.is_finite());
        prop_assume!(!samples.is_empty());
        let e = Ecdf::new(samples);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in sorted {
            let c = e.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev);
            prev = c;
        }
    }

    /// Box statistics order: whisker_lo ≤ q1 ≤ median ≤ q3 ≤ whisker_hi.
    #[test]
    fn box_stats_ordered(samples in prop::collection::vec(0.0f64..1e4, 2..300)) {
        let b = BoxStats::from_samples(&samples);
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.whisker_hi + 1e-9);
        // Outliers lie strictly outside the whiskers.
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
    }

    /// Zipf samples always fall in range and the generator is exchangeable
    /// with respect to its RNG stream position.
    #[test]
    fn zipf_in_range(n in 1u64..5000, alpha in 0.0f64..1.3, seed in any::<u64>()) {
        let g = ZipfGenerator::new(n, alpha);
        let mut rng = adapt_repro::trace::rng::Xoshiro256StarStar::new(seed);
        for _ in 0..200 {
            prop_assert!(g.sample(&mut rng) < n);
        }
    }

    /// The engine's internal invariants hold after an arbitrary write
    /// sequence with arbitrary (monotone) timing, under ADAPT — the policy
    /// with the most engine interaction (shadow append, demotion).
    #[test]
    fn engine_invariants_random_ops_adapt(
        ops in prop::collection::vec((0u64..2048, 0u64..400), 50..400),
        seed in any::<u64>(),
    ) {
        let cfg = LssConfig {
            user_blocks: 2048,
            op_ratio: 1.5, // generous: tiny volume, keep GC sane
            gc_low_water: 8,
            gc_high_water: 10,
            ..Default::default()
        };
        let _ = seed;
        let mut e = Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .build();
        let mut ts = 0u64;
        for (lba, gap) in ops {
            ts += gap;
            e.try_write(ts, lba).unwrap();
        }
        e.check_invariants();
        e.try_flush_all().unwrap();
        e.check_invariants();
        // Crash recovery reproduces the durable view at any point.
        e.try_check_recovery().unwrap();
        // Accounting identity: everything the engine flushed reached the
        // array.
        let m = e.metrics();
        let s = e.sink().stats();
        prop_assert_eq!(m.physical_bytes(), s.data_bytes() + s.pad_bytes());
    }

    /// Same property under SepBIT with Cost-Benefit selection (different
    /// GC path through the engine).
    #[test]
    fn engine_invariants_random_ops_sepbit_cb(
        ops in prop::collection::vec((0u64..2048, 0u64..150), 50..300),
    ) {
        let cfg = LssConfig {
            user_blocks: 2048,
            op_ratio: 1.5,
            gc_low_water: 8,
            gc_high_water: 10,
            ..Default::default()
        };
        let mut e = Lss::builder(SepBit::new(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::CostBenefit)
            .build();
        let mut ts = 0u64;
        for (lba, gap) in ops {
            ts += gap;
            e.try_write(ts, lba).unwrap();
        }
        e.check_invariants();
        e.try_flush_all().unwrap();
        e.check_invariants();
    }

    /// The telemetry snapshot always reconciles with the metrics it
    /// summarizes: after an arbitrary write sequence with events on from
    /// the start, the embedded metrics are bit-identical to
    /// `Engine::metrics()` and the per-kind event totals match the
    /// counters they narrate (per-kind totals survive ring wraparound).
    #[test]
    fn telemetry_snapshot_reconciles_with_metrics(
        ops in prop::collection::vec((0u64..2048, 0u64..400), 50..400),
        ring_idx in 0usize..3,
    ) {
        let ring = [8u32, 64, 4096][ring_idx];
        let cfg = LssConfig {
            user_blocks: 2048,
            op_ratio: 1.5,
            gc_low_water: 8,
            gc_high_water: 10,
            ..Default::default()
        };
        let events = EventConfig { enabled: true, ring_capacity: ring, gauge_interval_ops: 256 };
        let mut e = Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .events(events)
            .build();
        let mut ts = 0u64;
        for (lba, gap) in ops {
            ts += gap;
            e.try_write(ts, lba).unwrap();
        }
        e.try_flush_all().unwrap();
        let snap = e.telemetry();
        let m = e.metrics();
        prop_assert_eq!(&snap.lss, m);
        prop_assert!((snap.wa - m.wa()).abs() < 1e-12);
        prop_assert_eq!(snap.events.kind_total("gc_collect"), m.segments_reclaimed);
        prop_assert_eq!(snap.events.kind_total("padded_flush"), m.padded_chunks);
        prop_assert_eq!(snap.events.kind_total("shadow_append"), m.shadow_append_events);
        // The ring never holds more than its capacity, while the totals
        // keep counting past it.
        let retained: u64 = snap.events.emitted - snap.events.dropped;
        prop_assert!(retained <= ring as u64);
        prop_assert!(snap.gauges.iter().all(|g| g.op <= snap.host_ops));
    }

    /// WA is always ≥ the no-GC lower bound after a full flush **when no
    /// buffered overwrites occurred** — here enforced by writing unique
    /// LBAs only.
    #[test]
    fn unique_writes_have_wa_at_least_one(
        count in 100u64..1500,
    ) {
        let cfg = LssConfig {
            user_blocks: 2048,
            op_ratio: 1.5,
            gc_low_water: 8,
            gc_high_water: 10,
            ..Default::default()
        };
        let mut e = Lss::builder(SepBit::new(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .build();
        for lba in 0..count.min(2048) {
            e.try_write(lba, lba).unwrap();
        }
        e.try_flush_all().unwrap();
        prop_assert!(e.metrics().wa() >= 1.0 - 1e-9);
    }
}

proptest! {
    /// Integrity invariant: corrupting any single chunk of a healthy,
    /// closed stripe — data or parity — is always detected by the stored
    /// CRC32C and healed bit-identical to the pre-corruption bytes,
    /// whether the repair is triggered by verify-on-read or by a scrub
    /// pass.
    #[test]
    fn single_corruption_is_detected_and_healed_bit_identical(
        stripes in 1usize..5,
        target_pick in any::<u64>(),
        payload_seed in any::<u64>(),
        via_scrub in any::<bool>(),
    ) {
        use adapt_repro::array::fault::ReadMode;
        use adapt_repro::array::{ArrayConfig, ChunkFlush, ChunkLocation, InMemoryArray};
        use bytes::Bytes;

        let chunk = 256u64;
        let cfg = ArrayConfig::new(4, chunk);
        let mut a = InMemoryArray::new(cfg);
        let flush = ChunkFlush {
            user_bytes: chunk,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group: 0,
            seg: 0,
            chunk_in_seg: 0,
        };
        // Fill `stripes` full stripes with pseudorandom payloads.
        let mut state = payload_seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for _ in 0..stripes * 3 {
            let data: Vec<u8> = (0..chunk).map(|_| next()).collect();
            a.write_chunk_bytes(Bytes::from(data), flush);
        }
        // Snapshot the pristine bytes of every chunk, parity included.
        let locs: Vec<ChunkLocation> = (0..stripes as u64)
            .flat_map(|stripe| {
                (0..4).map(move |device| ChunkLocation { stripe, device, column: 0 })
            })
            .collect();
        let pristine: Vec<Bytes> =
            locs.iter().map(|&loc| a.read_chunk(loc).expect("chunk written")).collect();

        let target = (target_pick % locs.len() as u64) as usize;
        let loc = locs[target];
        prop_assert!(a.inject_corruption(loc.device, loc.stripe));
        prop_assert_ne!(a.read_chunk(loc).unwrap(), pristine[target].clone());

        if via_scrub {
            // One full pass visits every stripe and repairs the chunk.
            let step = a.scrub_step(usize::MAX);
            prop_assert_eq!(step.detected, 1);
            prop_assert_eq!(step.healed, 1);
            prop_assert_eq!(step.unrecoverable, 0);
        } else {
            // Verify-on-read path. XOR repair is symmetric, so this works
            // for parity chunks exactly as for data chunks.
            match a.try_read_chunk(loc) {
                Ok((bytes, mode)) => {
                    prop_assert_eq!(mode, ReadMode::Healed);
                    prop_assert_eq!(bytes, pristine[target].clone());
                }
                Err(e) => prop_assert!(false, "single fault must heal, got {e}"),
            }
        }
        // Healed in place and bit-identical — for every chunk.
        prop_assert_eq!(a.outstanding_corruptions(), 0);
        for (i, &l) in locs.iter().enumerate() {
            prop_assert_eq!(a.read_chunk(l).unwrap(), pristine[i].clone(), "chunk {:?}", l);
        }
        prop_assert_eq!(a.stats().corruptions_detected, 1);
        prop_assert_eq!(a.stats().corruptions_healed, 1);
        prop_assert_eq!(a.stats().corruptions_unrecoverable, 0);
    }
}

/// Build a sealed segment with `valid` of `cap` blocks valid, created at
/// byte-clock `created` (mirrors the engine: sealed segments are always
/// fully written; validity decays afterwards).
fn sealed_segment(
    id: u32,
    cap: u32,
    valid: u32,
    created: u64,
) -> adapt_repro::lss::segment::Segment {
    use adapt_repro::lss::types::Slot;
    let mut s = adapt_repro::lss::segment::Segment::new(id, cap);
    s.open(0, created, 0);
    for i in 0..cap {
        s.append_slot(Slot::Block(i as u64));
    }
    s.seal();
    s.valid_blocks = valid;
    s
}

proptest! {
    /// The bucketed GC victim index must agree with the naive O(n) scan —
    /// same victim *and* same score — for both policies, over randomized
    /// segment states and after incremental invalidations and removals.
    #[test]
    fn bucketed_select_matches_naive_scan(
        cap in 2u32..24,
        specs in prop::collection::vec((0u32..24, 0u64..5000), 1..40),
        invalidations in prop::collection::vec((0usize..40, 1u32..4), 0..60),
        removals in prop::collection::vec(0usize..40, 0..8),
        now_extra in 0u64..10_000,
    ) {
        use adapt_repro::lss::gc::cost_benefit_score;
        use adapt_repro::lss::SegmentBuckets;

        let now = 5000 + now_extra;
        let mut segments: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(id, &(valid, created))| {
                sealed_segment(id as u32, cap, valid.min(cap), created)
            })
            .collect();
        let mut buckets = SegmentBuckets::new(cap, segments.len());
        for s in &segments {
            buckets.insert(s.id, s.valid_blocks, s.created_user_bytes);
        }

        let check = |segments: &[adapt_repro::lss::segment::Segment],
                     buckets: &mut SegmentBuckets,
                     now: u64|
         -> Result<(), TestCaseError> {
            for policy in [GcSelection::Greedy, GcSelection::CostBenefit] {
                let naive = policy.select(segments, now);
                let fast = buckets.select(policy, now);
                prop_assert_eq!(naive, fast, "policy {:?}", policy);
                // Same victim implies same score, but assert the score
                // explicitly so a tie-break bug cannot hide behind id
                // equality in a future refactor.
                if let Some(v) = fast {
                    let s = &segments[v as usize];
                    let score = cost_benefit_score(
                        s.valid_blocks,
                        s.capacity(),
                        now.saturating_sub(s.created_user_bytes),
                    );
                    let best = segments
                        .iter()
                        .filter(|s| s.garbage_blocks() > 0)
                        .map(|s| {
                            cost_benefit_score(
                                s.valid_blocks,
                                s.capacity(),
                                now.saturating_sub(s.created_user_bytes),
                            )
                        })
                        .fold(f64::NEG_INFINITY, f64::max);
                    if policy == GcSelection::CostBenefit {
                        prop_assert_eq!(score, best);
                    }
                }
            }
            Ok(())
        };

        check(&segments, &mut buckets, now)?;

        // Incremental invalidations must keep the index in sync.
        for &(idx, dec) in &invalidations {
            let idx = idx % segments.len();
            if buckets.tracked_valid(idx as u32).is_none() {
                continue;
            }
            for _ in 0..dec.min(segments[idx].valid_blocks) {
                segments[idx].valid_blocks -= 1;
                buckets.note_invalidate(idx as u32);
            }
            check(&segments, &mut buckets, now)?;
        }

        // Removal (victim collection) must detach cleanly.
        for &idx in &removals {
            let idx = idx % segments.len();
            if buckets.tracked_valid(idx as u32).is_none() {
                continue;
            }
            buckets.remove(idx as u32);
            // The naive scan sees state; model collection by freeing it.
            segments[idx].reset();
            check(&segments, &mut buckets, now)?;
        }
    }
}

/// Deterministic pseudo-random byte fill for the erasure-coding
/// properties (proptest shrinks the *parameters*; the payload just needs
/// to be arbitrary-looking and reproducible).
fn prng_fill(mut state: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

proptest! {
    /// Reed-Solomon round-trips every workload: for arbitrary geometry,
    /// chunk length, payload, and any erasure pattern of ≤ m shards
    /// (data, parity, or mixed), decode restores the erased shards
    /// byte-exactly.
    #[test]
    fn reed_solomon_roundtrips_any_erasure_pattern(
        k in 2usize..=6,
        m in 1usize..=3,
        len in 1usize..=160,
        seed in any::<u64>(),
    ) {
        use adapt_repro::array::ReedSolomon;
        let rs = ReedSolomon::new(k, m);
        let data: Vec<Vec<u8>> =
            (0..k).map(|i| prng_fill(seed ^ (i as u64).wrapping_mul(0x51ed), len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let shards: Vec<&[u8]> =
            refs.iter().copied().chain(parity.iter().map(|p| p.as_slice())).collect();
        // Derive an erasure pattern of 1..=m distinct shards from the seed.
        let r = 1 + (seed % m as u64) as usize;
        let mut erased: Vec<usize> = Vec::new();
        let mut cursor = seed ^ 0xe4a5;
        while erased.len() < r {
            cursor = cursor.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (cursor >> 33) as usize % (k + m);
            if !erased.contains(&pick) {
                erased.push(pick);
            }
        }
        erased.sort_unstable();
        let survivors: Vec<(usize, &[u8])> =
            (0..k + m).filter(|i| !erased.contains(i)).map(|i| (i, shards[i])).collect();
        let recovered = rs.recover_many(&survivors, &erased, len).unwrap();
        for (t, got) in erased.iter().zip(recovered.iter()) {
            prop_assert_eq!(got, shards[*t], "k={} m={} erased={:?} shard {}", k, m, erased, t);
        }
    }

    /// The runtime-dispatched GF(256) multiply-accumulate kernel is
    /// byte-identical to the strict scalar reference at every length,
    /// alignment offset, and constant — including the c = 0 and c = 1
    /// fast paths.
    #[test]
    fn gf_multiply_accumulate_matches_scalar_reference(
        len in 0usize..256,
        off in 0usize..32,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        use adapt_repro::array::gf256::{gf_mul_into, gf_mul_into_scalar};
        let off = off.min(len);
        let src = prng_fill(seed, len);
        let base = prng_fill(seed ^ 0xacc, len);
        let mut fast = base.clone();
        let mut slow = base;
        gf_mul_into(&mut fast[off..], &src[off..], c);
        gf_mul_into_scalar(&mut slow[off..], &src[off..], c);
        prop_assert_eq!(fast, slow, "len={} off={} c={}", len, off, c);
    }

    /// The fused decode-and-checksum kernel is the composition of the
    /// scalar dot product and the software CRC32C: the same output, the
    /// same CRC of every source and of the output, for any coefficients
    /// (zero ones are CRC-only), widths across the four-source group,
    /// lengths around the 64-byte step and alignment offsets.
    #[test]
    fn gf_dot_crc_matches_scalar_composition(
        len in 0usize..300,
        off in 0usize..32,
        coeffs in prop::collection::vec(any::<u8>(), 1..=9),
        seed in any::<u64>(),
    ) {
        use adapt_repro::array::crc::crc32c_soft;
        use adapt_repro::array::gf256::{gf_dot_crc_into, gf_dot_into_scalar};
        let off = off.min(len);
        let srcs: Vec<Vec<u8>> =
            (0..coeffs.len() as u64).map(|j| prng_fill(seed ^ j, len)).collect();
        let terms: Vec<(u8, &[u8])> =
            coeffs.iter().zip(&srcs).map(|(&c, s)| (c, &s[off..])).collect();
        let stale = prng_fill(seed ^ 0xacc, len);
        let (mut fast, mut slow) = (stale.clone(), stale);
        let mut crcs = vec![0u32; terms.len()];
        let out_crc = gf_dot_crc_into(&mut fast[off..], &terms, &mut crcs);
        gf_dot_into_scalar(&mut slow[off..], &terms);
        let want: Vec<u32> = terms.iter().map(|&(_, s)| crc32c_soft(s)).collect();
        prop_assert_eq!(&fast, &slow, "len={} off={} coeffs={:?}", len, off, &coeffs);
        prop_assert_eq!(crcs, want);
        prop_assert_eq!(out_crc, crc32c_soft(&slow[off..]));
    }

    /// A single-parity (m = 1) Reed-Solomon code degenerates exactly to
    /// the XOR parity the original RAID-5 path computes, for any stripe
    /// width and payload.
    #[test]
    fn single_parity_reed_solomon_is_xor(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 48..=48), 2..=8),
    ) {
        use adapt_repro::array::ReedSolomon;
        let rs = ReedSolomon::new(chunks.len(), 1);
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let p = rs.encode(&refs).unwrap();
        prop_assert_eq!(&p[0], &parity::compute_parity(&refs));
    }
}
