//! `crash_sweep` — seeded power-loss acceptance sweep.
//!
//! Runs the crash simulator end to end: a golden metered run records the
//! scenario's full byte stream, then every seeded crash offset is
//! replayed under a hard power budget, recovered, and verified against
//! the golden run's acknowledged writes. The report lands in
//! `results/crash_sweep.json` (or `--out <dir>`), and the bin exits
//! nonzero unless the sweep is clean — making it usable as a CI gate.
//!
//! `--quick` runs the ~40-point smoke sweep; the default is the
//! ≥300-point acceptance configuration, the same shape
//! `tests/durability_integration.rs` asserts. `--cadence <n>` checkpoints
//! every `n` chunk flushes instead of the scenario's 64: at 8 the golden
//! stream holds dozens of checkpoint deltas and several folds.

use adapt_bench::Cli;
use adapt_sim::crash::CrashScenario;
use adapt_sim::run_crash_sweep;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cadence = args.iter().position(|a| a == "--cadence").map(|i| {
        args.remove(i);
        let n = (i < args.len()).then(|| args.remove(i)).and_then(|s| s.parse::<u64>().ok());
        n.expect("--cadence needs a number of flushes")
    });
    let cli = &Cli::parse_from(args);
    let mut scn =
        if cli.quick { CrashScenario::quick(0xADAF7) } else { CrashScenario::standard(0xADAF7) };
    scn.lss = cli.apply_geometry(scn.lss);
    if let Some(n) = cadence {
        scn.checkpoint_every_flushes = n;
    }
    let dir = std::env::temp_dir().join(format!("adapt_crash_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_crash_sweep(&scn, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "crash_sweep {scheme}/{fsync} [{geometry}] cadence {cadence} seed {seed:#x}: \
             {clean}/{points} clean, {acked} golden acks, {bytes} golden bytes",
        cadence = scn.checkpoint_every_flushes,
        scheme = report.scheme,
        fsync = report.fsync,
        geometry = report.geometry,
        seed = report.seed,
        clean = report.clean,
        points = report.points,
        acked = report.golden_acked,
        bytes = report.golden_bytes,
    );
    println!(
        "crash_sweep losses {lost}  corrupt {corrupt}  torn-tail {torn}  checkpointed {ckpt}  \
             base+delta {deltas}  torn-delta {torn_delta}  stale-deltas {stale}",
        lost = report.lost_acks_total,
        corrupt = report.corrupt_points,
        torn = report.with_torn_tail,
        ckpt = report.with_checkpoint,
        deltas = report.with_deltas,
        torn_delta = report.with_torn_delta,
        stale = report.with_stale_deltas,
    );
    for (tag, n) in &report.trip_tags {
        println!("crash_sweep   cut inside {tag:<12} x{n}");
    }
    for f in report.failures.iter().take(5) {
        println!("crash_sweep FAILURE {f:?}");
    }
    adapt_bench::harness::write_report(cli, "crash_sweep", &report);
    assert!(
        report.clean_sweep(),
        "{} of {} crash points violated the durability contract",
        report.points - report.clean,
        report.points
    );
    assert_eq!(report.lost_acks_total, 0, "acknowledged writes were lost");
    assert_eq!(report.corrupt_points, 0, "recovered state failed self-checks");
    assert!(
        report.with_deltas > 0 && report.with_torn_delta > 0,
        "no point recovered through base + delta, or none through a torn delta"
    );
}
