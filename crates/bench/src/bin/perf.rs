//! `perf` — the scheme × GC-policy replay matrix.
//!
//! Replays fixed seeded workloads (small/medium) through ADAPT + two
//! baselines, prints ops/s and GC-selection time share, and writes
//! `BENCH_perf.json` at the repo root (or `--out <dir>`). `--quick` runs
//! a tiny smoke replay for CI.
//!
//! `--events` re-runs the same workloads with the structured event
//! stream enabled and writes the result as `BENCH_perf_events.json`
//! instead, so the observability overhead has its own trajectory file.
//!
//! Disabled-path runs additionally record a `sweep` section: a seeded
//! multi-volume suite sweep timed at `jobs = 1` vs `jobs = N` on the
//! work-stealing pool, asserting the two results are bit-identical.
//!
//! Kernel, sink, WAL, recovery and serving numbers are not recorded
//! here: they are rows of the repo benchmark's ledger (`benchmark/`).

use adapt_bench::perf::{self, QUICK, WORKLOADS};

fn main() {
    adapt_bench::harness::figure_main(|cli| {
        let workloads: &[perf::Workload] = if cli.quick { &[QUICK] } else { &WORKLOADS };
        let mut report = perf::run_with_events(workloads, cli.event_config(), cli.geometry);
        if !report.events_enabled {
            // Parallel-scaling record: the same seeded suite sweep at
            // jobs=1 vs jobs=N, with a bit-identical result check.
            let sweep = perf::measure_sweep(cli.quick);
            println!(
                "perf sweep {suite}x{vols:<2} jobs=1 {seq:>9.1} ms  jobs={jobs} {par:>9.1} ms  \
                 speedup {speedup:.2}x  bit-identical {ident}",
                suite = sweep.suite,
                vols = sweep.volumes,
                seq = sweep.wall_ms_jobs1,
                jobs = sweep.jobs,
                par = sweep.wall_ms_jobs_n,
                speedup = sweep.speedup,
                ident = sweep.bit_identical,
            );
            assert!(sweep.bit_identical, "parallel sweep must be schedule-independent");
            report.sweep = Some(sweep);
        }
        // The trajectory file lives at the repo root by default (BENCH_* is
        // the per-PR perf record); --out redirects for scratch runs.
        let dir = if cli.out_dir == "results" { ".".to_string() } else { cli.out_dir.clone() };
        let name = if report.events_enabled { "BENCH_perf_events" } else { "BENCH_perf" };
        let path = adapt_sim::report::write_json(&dir, name, &report)
            .unwrap_or_else(|e| panic!("write {name}.json: {e}"));
        println!("wrote {path}");
    });
}
