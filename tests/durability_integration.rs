//! End-to-end durability: the on-disk backend is metrically invisible,
//! and power loss at hundreds of seeded byte offsets never loses an
//! acknowledged write.
//!
//! Two halves:
//!
//! 1. The same trace replayed on the in-memory `CountingArray` and on a
//!    real `FileArraySink` with the write-ahead log enabled must produce
//!    bit-identical engine metrics — durability is a backend property,
//!    not a behavioral one (`WalStats` lives outside `LssMetrics` for
//!    exactly this reason).
//! 2. A standard-size crash sweep (> 300 seeded points, spanning
//!    mid-WAL-record, mid-segment-write, mid-rename, and mid-superblock
//!    cuts) recovers every point with zero acknowledged-write loss and
//!    zero undetected corruption.

use adapt_repro::array::{ArraySink, CountingArray, FileArraySink, FileSinkOptions};
use adapt_repro::lss::{
    DurabilityConfig, FsyncPolicy, GcSelection, Lss, LssConfig, LssMetrics, PlacementPolicy,
};
use adapt_repro::sim::{report, CrashScenario, Scheme};
use adapt_repro::trace::arrival::ArrivalModel;
use adapt_repro::trace::ycsb::{AccessDistribution, YcsbConfig};
use adapt_repro::trace::TraceRecord;
use std::path::{Path, PathBuf};

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adapt_durint_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn medium_cfg() -> LssConfig {
    LssConfig {
        user_blocks: 8 * 1024,
        op_ratio: 0.5,
        gc_low_water: 10,
        gc_high_water: 14,
        ..Default::default()
    }
}

fn medium_trace() -> impl Iterator<Item = TraceRecord> {
    YcsbConfig {
        num_blocks: 8 * 1024,
        num_updates: 40_000,
        zipf_alpha: 0.9,
        read_ratio: 0.1,
        arrival: ArrivalModel::Fixed { gap_us: 5 },
        blocks_per_request: 1,
        distribution: AccessDistribution::Zipfian,
        seed: 11,
    }
    .generator()
}

fn drive<P: PlacementPolicy, S: ArraySink>(mut engine: Lss<P, S>) -> LssMetrics {
    for rec in medium_trace() {
        if rec.is_write() {
            engine.try_write_request(rec.ts_us, rec.lba, rec.num_blocks).unwrap();
        } else {
            engine.try_read_request(rec.ts_us, rec.lba, rec.num_blocks).unwrap();
        }
    }
    engine.try_flush_all().unwrap();
    engine.metrics().clone()
}

fn in_memory(scheme: Scheme, cfg: LssConfig) -> LssMetrics {
    let sink = CountingArray::new(cfg.array_config());
    drive(
        Lss::builder(scheme.policy(&cfg), sink).config(cfg).gc_select(GcSelection::Greedy).build(),
    )
}

fn durable(scheme: Scheme, cfg: LssConfig, dir: &Path) -> LssMetrics {
    let sink = FileArraySink::create(
        cfg.array_config(),
        dir.join("array"),
        FileSinkOptions { fsync: false, stripes_per_file: 64, budget: None },
    )
    .expect("create file sink");
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::GroupCommit(8),
        rotate_bytes: 256 * 1024,
        checkpoint_every_flushes: 128,
        fsync_data: false,
        budget: None,
    };
    drive(
        Lss::builder(scheme.policy(&cfg), sink)
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .durability(dir.join("wal"), dcfg)
            .build(),
    )
}

/// The durable backend must not perturb the engine: same trace, same
/// placement, bit-identical metrics (and therefore identical WA) whether
/// the chunks land in memory or in segment files behind a WAL.
#[test]
fn file_backend_with_wal_is_metrically_identical_to_in_memory() {
    let cfg = medium_cfg();
    for scheme in [Scheme::SepGc, Scheme::Adapt] {
        let dir = tdir(&format!("metrics_{}", scheme.name()));
        let mem = in_memory(scheme, cfg);
        let dur = durable(scheme, cfg, &dir);
        assert!(mem.host_write_bytes > 0);
        assert!(mem.wa() > 1.0, "medium trace must trigger GC: wa {}", mem.wa());
        // Serialize-compare: every metric field, bit for bit.
        assert_eq!(
            report::to_json(&mem),
            report::to_json(&dur),
            "{}: durable backend changed engine metrics",
            scheme.name()
        );
        assert_eq!(mem.wa().to_bits(), dur.wa().to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance sweep: hundreds of seeded power-loss points, each
/// recovered and verified. Zero acknowledged-write loss, zero undetected
/// corruption, and coverage of every media-unit class.
#[test]
fn power_loss_sweep_loses_nothing_acknowledged() {
    let scn = CrashScenario::standard(0xADAF7);
    let dir = tdir("sweep");
    let r = adapt_repro::sim::run_crash_sweep(&scn, &dir);
    assert!(r.points >= 300, "acceptance requires >= 300 seeded crash points, got {}", r.points);
    assert!(
        r.clean_sweep(),
        "{} of {} points violated the durability contract; first: {:?}",
        r.points - r.clean,
        r.points,
        r.failures.first()
    );
    assert_eq!(r.lost_acks_total, 0);
    assert_eq!(r.corrupt_points, 0);
    // The sweep must actually exercise each hazard class.
    for tag in ["WalRecord", "SinkRecord", "Rename", "CheckpointDelta"] {
        assert!(
            r.trip_tags.iter().any(|(t, n)| t == tag && *n > 0),
            "no crash point cut inside a {tag} write: {:?}",
            r.trip_tags
        );
    }
    assert!(r.with_torn_tail > 0, "no point left a torn WAL tail");
    assert!(r.with_checkpoint > 0, "no point recovered through a checkpoint");
    assert!(r.with_deltas > 0, "no point recovered through a checkpoint base plus deltas");
    assert!(r.with_torn_delta > 0, "no point fell back past a torn delta frame");
    assert!(r.with_stale_deltas > 0, "no point cut between a base rename and the log reset");
    let _ = std::fs::remove_dir_all(&dir);
}
