//! End-to-end fault recovery: replay a real volume trace with a scripted
//! device failure at 50% completion, then verify that (a) no live LBA is
//! lost — everything is served directly, by parity reconstruction, or from
//! the open-stripe buffer — and (b) the rebuild accounting balances
//! exactly against the array geometry.

use adapt_repro::array::{ArrayError, ArraySink, FaultPlan, InMemoryArray};
use adapt_repro::lss::{EngineError, GcSelection, Lss, LssConfig};
use adapt_repro::placement::SepBit;
use adapt_repro::sim::{run_fault_scenario, FaultReport, FaultScenario, ReplayConfig, Scheme};
use adapt_repro::trace::{SuiteKind, VolumeModel, WorkloadSuite};

fn volume() -> VolumeModel {
    WorkloadSuite::evaluation_selection(SuiteKind::Ali, 7, 1, 20.0).volumes.remove(0)
}

fn run(scheme: Scheme, vol: &VolumeModel) -> FaultReport {
    let replay = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
    let scenario = FaultScenario::midpoint_failure(replay, 1);
    run_fault_scenario(scheme, scenario, vol.trace(40_000))
}

/// The satellite's headline assertion: a mid-trace device failure loses no
/// live data, and the post-mortem sweep accounts for every user LBA.
#[test]
fn no_data_loss_with_device_failure_at_half_trace() {
    let vol = volume();
    for scheme in [Scheme::SepGc, Scheme::Adapt] {
        let r = run(scheme, &vol);
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["healthy", "degraded", "rebuilding", "restored"], "{scheme:?} phases");
        assert_eq!(r.verify.lost, 0, "{scheme:?} lost data: {:?}", r.verify);
        // The sweep classifies every user LBA exactly once.
        assert_eq!(
            r.verify.readable + r.verify.buffered_tail + r.verify.lost,
            vol.unique_blocks,
            "{scheme:?} sweep does not cover the LBA space: {:?}",
            r.verify
        );
        // Degraded service actually happened, and only while degraded.
        assert!(r.verify.reconstructed > 0, "{scheme:?} nothing reconstructed");
        assert!(r.verify.reconstructed <= r.verify.readable);
        assert_eq!(r.phase("healthy").unwrap().metrics.degraded_reads, 0);
        let degraded = r.phase("degraded").unwrap();
        assert!(degraded.metrics.degraded_reads > 0, "{scheme:?} degraded phase served none");
    }
}

/// Rebuild counters balance: each rebuilt chunk reads one chunk from every
/// survivor and writes exactly one chunk to the spare.
#[test]
fn rebuild_counters_balance() {
    let vol = volume();
    let r = run(Scheme::Adapt, &vol);
    let cfg = r.scenario.replay.lss.array_config();
    let survivors = (cfg.num_devices - 1) as u64;
    assert!(r.array.rebuilt_chunks > 0, "rebuild never ran");
    assert_eq!(
        r.array.rebuild_read_bytes,
        r.array.rebuilt_chunks * survivors * cfg.chunk_bytes,
        "survivor reads don't balance"
    );
    assert_eq!(
        r.array.rebuild_write_bytes,
        r.array.rebuilt_chunks * cfg.chunk_bytes,
        "spare writes don't balance"
    );
    assert_eq!(r.rebuild_bytes, r.array.rebuild_read_bytes + r.array.rebuild_write_bytes);
    // The engine observed the rebuild finish and stamped its own metrics.
    assert!(r.rebuild_ops > 0, "time-to-rebuild not measured");
    let engine_seen = r.phases.iter().map(|p| p.metrics.rebuild_bytes).max().unwrap_or(0);
    assert_eq!(engine_seen, r.rebuild_bytes, "engine metric disagrees with array stats");
}

/// The double-fault headline: under RAID-6 (two parity chunks per
/// stripe), two devices failing at the same instant lose nothing — every
/// live LBA is still served, the two spares rebuild in one sweep, and the
/// accounting balances against the wider geometry.
#[test]
fn raid6_survives_two_simultaneous_device_failures() {
    let vol = volume();
    let mut replay = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
    replay.lss = replay.lss.with_geometry(6, 2);
    let scenario = FaultScenario::double_fault(replay, 1, 4);
    for scheme in [Scheme::SepGc, Scheme::Adapt] {
        let r = run_fault_scenario(scheme, scenario, vol.trace(40_000));
        assert_eq!(r.geometry, "4+2");
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["healthy", "degraded", "rebuilding", "restored"], "{scheme:?} phases");
        assert_eq!(r.verify.lost, 0, "{scheme:?} lost data: {:?}", r.verify);
        assert_eq!(
            r.verify.readable + r.verify.buffered_tail + r.verify.lost,
            vol.unique_blocks,
            "{scheme:?} sweep does not cover the LBA space: {:?}",
            r.verify
        );
        assert!(r.verify.reconstructed > 0, "{scheme:?} nothing reconstructed");
        // Two rebuild targets: each swept stripe reads the four survivors
        // once and writes one chunk to each spare.
        let cfg = r.scenario.replay.lss.array_config();
        let targets = 2u64;
        let survivors = cfg.num_devices as u64 - targets;
        assert!(r.array.rebuilt_chunks > 0, "{scheme:?} rebuild never ran");
        let stripes_swept = r.array.rebuilt_chunks / targets;
        assert_eq!(r.array.rebuilt_chunks % targets, 0);
        assert_eq!(r.array.rebuild_read_bytes, stripes_swept * survivors * cfg.chunk_bytes);
        assert_eq!(r.array.rebuild_write_bytes, r.array.rebuilt_chunks * cfg.chunk_bytes);
    }
}

/// Build a small engine on a fault-modeling sink, write every LBA once,
/// and flush, so the array holds closed stripes for every block.
fn small_engine(scrub_stripes_per_op: u64) -> Lss<SepBit, InMemoryArray> {
    small_engine_with_geometry(scrub_stripes_per_op, 0, 0)
}

/// [`small_engine`] on an explicit `n` devices / `m` parity geometry
/// (`0, 0` = historical 4-disk RAID-5).
fn small_engine_with_geometry(
    scrub_stripes_per_op: u64,
    devices: usize,
    parity: usize,
) -> Lss<SepBit, InMemoryArray> {
    let cfg = LssConfig {
        user_blocks: 2048,
        op_ratio: 1.5,
        gc_low_water: 8,
        gc_high_water: 10,
        scrub_stripes_per_op,
        array_devices: devices,
        array_parity: parity,
        ..Default::default()
    };
    let sink = InMemoryArray::modelled(cfg.array_config(), FaultPlan::new(7));
    let mut e =
        Lss::builder(SepBit::new(), sink).config(cfg).gc_select(GcSelection::Greedy).build();
    for lba in 0..2048 {
        e.try_write(lba, lba).unwrap();
    }
    e.try_flush_all().unwrap();
    assert!(e.sink().stats().stripes_completed > 0);
    e
}

/// Latent sector errors plus a device failure on *another* device are a
/// double fault: the stripe is missing two members, and the engine must
/// surface a typed, persistent error through its read path — not panic,
/// and not return garbage.
#[test]
fn latent_plus_device_failure_surfaces_typed_double_fault() {
    let mut e = small_engine(0); // scrub disabled: latents stay latent
    let stripes = e.sink().stats().stripes_completed;
    for stripe in 0..stripes {
        e.sink_mut().plan_mut().add_latent_sector(0, stripe);
    }
    e.sink_mut().fail_device(1);

    let mut double_faults = 0u64;
    let mut served = 0u64;
    for lba in 0..2048 {
        match e.try_read_request(0, lba, 1) {
            Ok(()) => served += 1,
            Err(err @ EngineError::Array(ArrayError::DoubleFault { .. })) => {
                assert!(!err.is_transient(), "double faults must not be retried");
                double_faults += 1;
            }
            Err(other) => panic!("expected DoubleFault, got {other}"),
        }
    }
    assert!(double_faults > 0, "no read hit the latent+failed double fault");
    assert!(served > 0, "unaffected stripes must still be served");
}

/// The same latent-plus-failure sequence that is a double fault under
/// RAID-5 stays within a RAID-6 budget: two erased members, two parity
/// chunks, so every read reconstructs and nothing surfaces as an error.
#[test]
fn raid6_absorbs_latent_plus_device_failure() {
    let mut e = small_engine_with_geometry(0, 6, 2);
    let stripes = e.sink().stats().stripes_completed;
    for stripe in 0..stripes {
        e.sink_mut().plan_mut().add_latent_sector(0, stripe);
    }
    e.sink_mut().fail_device(1);
    for lba in 0..2048 {
        e.try_read_request(0, lba, 1)
            .unwrap_or_else(|err| panic!("lba {lba} unreadable within m=2 budget: {err}"));
    }
    assert!(e.metrics().degraded_reads > 0, "nothing was reconstructed");
}

/// The same fault sequence, but the paced background scrub completes a
/// pass (repairing every latent sector) before the device fails: what was
/// a double fault becomes an ordinary single-fault degraded read, and no
/// LBA is lost.
#[test]
fn completed_scrub_prevents_the_double_fault() {
    let mut e = small_engine(4); // scrub runs 4 stripes per host op
    let stripes = e.sink().stats().stripes_completed;
    for stripe in 0..stripes {
        e.sink_mut().plan_mut().add_latent_sector(0, stripe);
    }
    // Drive host ops until the scrub has swept a full pass over the
    // latent sectors (reads of healthy chunks pump the scrub too). Two
    // more completed passes guarantee one pass started after injection.
    let passes_at_injection = e.metrics().scrub_passes;
    let mut ts = 0;
    while e.metrics().scrub_passes < passes_at_injection + 2 {
        e.try_read_request(ts, ts % 2048, 1).expect("latent-only reads reconstruct");
        ts += 1;
        assert!(ts < 100_000, "scrub never completed a pass");
    }
    assert!(e.metrics().scrub_latent_repaired > 0, "scrub repaired nothing");
    assert_eq!(e.sink().plan().latent_count(), 0, "latent sectors survived the scrub");

    e.sink_mut().fail_device(1);
    for lba in 0..2048 {
        e.try_read_request(ts, lba, 1)
            .unwrap_or_else(|err| panic!("lba {lba} lost after scrub: {err}"));
    }
}
