//! Differential test: the modelled store (one byte kept per chunk — what
//! the fault and scrub scenarios and so `results/{faults,scrub}.json` run
//! on) against the full-body store (what `array-rebuild` measures).
//!
//! One seeded random stream of writes, reads, device failures,
//! corruptions, latent sectors, rebuild sweeps (one device and all failed
//! devices), scrub steps, drains and added devices goes to both. After
//! every step they must agree on every counter except `copy_bytes` (real
//! memcpy traffic, which does depend on how much of a chunk is kept), on
//! how each read was served or why it failed, on the device states and on
//! every progress struct. The full-body store gets random 64 KiB payloads,
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

/// Apply `steps` random operations to both stores, comparing as it goes.
/// Returns what the stream exercised: reads served per [`ReadMode`], chunks
/// rebuilt, chunks scrubbed, chunks drained.
fn run(seed: u64, cfg: ArrayConfig, steps: usize) -> [u64; 6] {
    let mut rng = Rng(seed);
    let plan = FaultPlan::new(seed).with_transient_read_prob(0.02);
    let mut full = InMemoryArray::with_fault_plan(cfg, plan.clone());
    let mut model = InMemoryArray::modelled(cfg, plan);
    let mut locs: Vec<ChunkLocation> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut reads_served = [0u64; 3];
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        let devices = full.config().num_devices;
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
        match rng.below(100) {
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
            90..=93 => {
                let n = 1 + rng.below(8);
                assert_eq!(model.scrub_step(n), full.scrub_step(n), "{at}");
            }
            94..=95 => {
                let device = rng.below(devices);
                if full.drain_progress().complete && !full.failed_devices().contains(&device) {
                    assert_eq!(model.start_drain(device), full.start_drain(device), "{at}");
                }
            }
            96..=98 => {
                let n = 1 + rng.below(4);
                assert_eq!(model.drain_step(n), full.drain_step(n), "{at}");
            }
            _ => {
                if devices < cfg.num_devices + 2 {
                    assert_eq!(model.add_device(), full.add_device(), "{at}");
                }
            }
        }
        assert_eq!(stats_but_copies(&model), stats_but_copies(&full), "{at}");
        assert_eq!(model.disk_states(), full.disk_states(), "{at}");
        assert_eq!(model.rebuild_progress(), full.rebuild_progress(), "{at}");
        assert_eq!(model.drain_progress(), full.drain_progress(), "{at}");
        assert_eq!(model.scrub_progress(), full.scrub_progress(), "{at}");
        assert_eq!(model.outstanding_corruptions(), full.outstanding_corruptions(), "{at}");
        assert_eq!(model.plan().latent_count(), full.plan().latent_count(), "{at}");
    }
    let [normal, reconstructed, healed] = reads_served;
    let s = full.stats();
    [normal, reconstructed, healed, s.rebuilt_chunks, s.chunks_scrubbed, s.drained_chunks]
}

/// Run `seeds` and check that, between them, the streams were worth
/// comparing: every way to serve a read and every sweep happened.
fn run_seeds(seeds: std::ops::Range<u64>, cfg: ArrayConfig) {
    let mut exercised = [0u64; 6];
    for seed in seeds {
        for (total, n) in exercised.iter_mut().zip(run(seed, cfg, 500)) {
            *total += n;
        }
    }
    assert!(exercised.iter().all(|&n| n > 0), "{exercised:?}");
}

#[test]
fn modelled_store_agrees_with_the_bytes_on_raid5() {
    run_seeds(0..6, ArrayConfig::default());
}

#[test]
fn modelled_store_agrees_with_the_bytes_on_4_plus_2() {
    run_seeds(100..106, ArrayConfig::with_parity(6, 2, CHUNK as u64));
}
