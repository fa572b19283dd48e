//! Differential test: the modelled store (one byte kept per chunk — what
//! the fault and scrub scenarios and so `results/{faults,scrub}.json` run
//! on) against the full-body store (what `array-rebuild` measures).
//!
//! One seeded random stream of writes, reads, device failures,
//! corruptions, latent sectors, rebuild sweeps (one device and all failed
//! devices) and scrub steps goes to both. After every step they must agree
//! on every counter except `copy_bytes` (real memcpy traffic, which does
//! depend on how much of a chunk is kept), on how each read was served or
//! why it failed, on the array's health and failed devices, and on every
//! progress struct. The full-body store gets random 64 KiB payloads,
//! so nothing here holds because the bytes happen to be zero.

use adapt_array::{
    ArrayConfig, ArrayError, ArraySink, ArrayStats, ChunkFlush, ChunkLocation, FaultPlan,
    InMemoryArray, ReadMode,
};

const CHUNK: usize = 65536;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn payload(&mut self) -> Vec<u8> {
        (0..CHUNK / 8).flat_map(|_| self.next().to_le_bytes()).collect()
    }
}

fn flush(written: usize) -> ChunkFlush {
    // Some chunks padded, so both counters of the pair move.
    let pad_bytes = if written.is_multiple_of(5) { 4096 } else { 0 };
    ChunkFlush {
        user_bytes: CHUNK as u64 - pad_bytes,
        gc_bytes: 0,
        shadow_bytes: 0,
        pad_bytes,
        group: 0,
        seg: (written / 8) as u32,
        chunk_in_seg: (written % 8) as u32,
    }
}

fn stats_but_copies(a: &InMemoryArray) -> ArrayStats {
    ArrayStats { copy_bytes: 0, ..a.stats().clone() }
}

fn served(read: Result<(bytes::Bytes, ReadMode), ArrayError>) -> Result<ReadMode, ArrayError> {
    read.map(|(_, mode)| mode)
}

/// Write `prefill` chunks to both stores, then apply `steps` random
/// operations, comparing as it goes. Returns what the stream exercised:
/// reads served per [`ReadMode`], chunks rebuilt, chunks scrubbed.
fn run(seed: u64, cfg: ArrayConfig, prefill: usize, steps: usize) -> [u64; 5] {
    let mut rng = Rng(seed);
    let plan = FaultPlan::new(seed).with_transient_read_prob(0.02);
    let mut full = InMemoryArray::with_fault_plan(cfg, plan.clone());
    let mut model = InMemoryArray::modelled(cfg, plan);
    let mut locs: Vec<ChunkLocation> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut reads_served = [0u64; 3];
    for written in 0..prefill {
        let (payload, flush) = (rng.payload(), flush(written));
        let loc = full.write_chunk_payload(flush, &payload);
        assert_eq!(model.write_chunk_payload(flush, &payload), loc, "seed {seed} chunk {written}");
        locs.push(loc);
        payloads.push(payload);
        assert_eq!(
            stats_but_copies(&model),
            stats_but_copies(&full),
            "seed {seed} chunk {written}"
        );
    }
    assert!(prefill == 0 || full.stats().stripes_completed >= 100, "prefill too short");
    let devices = cfg.num_devices;
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        // A location that was written — half the time a recent one, so
        // that faults and reads meet — or (1 in 8) one off its edge.
        let pick = |rng: &mut Rng| {
            let window = if rng.below(2) == 0 { locs.len().min(24) } else { locs.len() };
            let mut loc = locs[locs.len() - 1 - rng.below(window)];
            match rng.below(16) {
                0 => loc.device = devices,
                1 => loc.stripe += 1000,
                _ => {}
            }
            loc
        };
        match rng.below(94) {
            0..=39 => {
                let (payload, flush) = (rng.payload(), flush(locs.len()));
                let loc = full.write_chunk_payload(flush, &payload);
                assert_eq!(model.write_chunk_payload(flush, &payload), loc, "{at}");
                locs.push(loc);
                payloads.push(payload);
            }
            _ if locs.is_empty() => {}
            40..=64 => {
                let loc = pick(&mut rng);
                let read = full.try_read_chunk(loc);
                if let (Ok((bytes, _)), Some(i)) = (&read, locs.iter().position(|l| *l == loc)) {
                    assert_eq!(bytes.as_ref(), payloads[i].as_slice(), "{at}: wrong bytes served");
                }
                let read = served(read);
                assert_eq!(served(model.try_read_chunk(loc)), read, "{at}: read of {loc:?}");
                if let Ok(mode) = read {
                    reads_served[mode as usize] += 1;
                }
            }
            65..=68 => {
                // Stay within the code's budget: past it, everything is lost.
                if full.failed_devices().len() < cfg.parity_devices {
                    let device = rng.below(devices);
                    full.fail_device(device);
                    model.fail_device(device);
                }
            }
            69..=74 => {
                let loc = pick(&mut rng);
                let injected = full.inject_corruption(loc.device, loc.stripe);
                assert_eq!(model.inject_corruption(loc.device, loc.stripe), injected, "{at}");
            }
            75..=78 => {
                let loc = pick(&mut rng);
                full.plan_mut().add_latent_sector(loc.device, loc.stripe);
                model.plan_mut().add_latent_sector(loc.device, loc.stripe);
            }
            79 => {
                let device = rng.below(devices);
                assert_eq!(model.start_rebuild(device), full.start_rebuild(device), "{at}");
            }
            80..=81 => assert_eq!(model.start_rebuild_all(), full.start_rebuild_all(), "{at}"),
            82..=89 => {
                let n = 1 + rng.below(16);
                assert_eq!(model.rebuild_step(n), full.rebuild_step(n), "{at}");
            }
            _ => {
                let n = 1 + rng.below(8);
                assert_eq!(model.scrub_step(n), full.scrub_step(n), "{at}");
            }
        }
        assert_eq!(stats_but_copies(&model), stats_but_copies(&full), "{at}");
        assert_eq!(model.health_view(), full.health_view(), "{at}");
        assert_eq!(model.failed_devices(), full.failed_devices(), "{at}");
        assert_eq!(model.rebuild_progress(), full.rebuild_progress(), "{at}");
        assert_eq!(model.scrub_progress(), full.scrub_progress(), "{at}");
        assert_eq!(model.outstanding_corruptions(), full.outstanding_corruptions(), "{at}");
        assert_eq!(model.plan().latent_count(), full.plan().latent_count(), "{at}");
    }
    let [normal, reconstructed, healed] = reads_served;
    let s = full.stats();
    [normal, reconstructed, healed, s.rebuilt_chunks, s.chunks_scrubbed]
}

/// Run `seeds` and check that, between them, the streams were worth
/// comparing: every way to serve a read and every sweep happened.
fn run_seeds(seeds: std::ops::Range<u64>, cfg: ArrayConfig, prefill: usize) {
    let mut exercised = [0u64; 5];
    for seed in seeds {
        for (total, n) in exercised.iter_mut().zip(run(seed, cfg, prefill, 500)) {
            *total += n;
        }
    }
    assert!(exercised.iter().all(|&n| n > 0), "{exercised:?}");
}

#[test]
fn modelled_store_agrees_with_the_bytes_on_raid5() {
    run_seeds(0..6, ArrayConfig::default(), 0);
}

#[test]
fn modelled_store_agrees_with_the_bytes_on_4_plus_2() {
    run_seeds(100..106, ArrayConfig::with_parity(6, 2, CHUNK as u64), 0);
}

/// The stores keep each device's chunks in slabs of 32 stripe slots. A
/// 360-chunk prefill on 3 data columns closes 120 stripes, so slots,
/// faults and sweeps all cross slab boundaries.
#[test]
fn modelled_store_agrees_with_the_bytes_across_slab_boundaries() {
    run_seeds(200..203, ArrayConfig::default(), 360);
}
