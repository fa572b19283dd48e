//! `perf` — hot-path regression harness.
//!
//! Replays fixed seeded workloads (small/medium) through ADAPT + two
//! baselines, prints ops/s and GC-selection time share, and writes
//! `BENCH_perf.json` at the repo root (or `--out <dir>`). `--quick` (or
//! `ADAPT_BENCH_QUICK=1`) runs a tiny smoke replay for CI.
//!
//! `--events` (or `ADAPT_BENCH_EVENTS=1`) re-runs the same workloads with
//! the structured event stream enabled and writes the result as
//! `BENCH_perf_events.json` instead, so the observability overhead has
//! its own trajectory file and the disabled-path regression gate stays
//! untouched.
//!
//! Gate runs additionally record a `sweep` section: a seeded multi-volume
//! suite sweep timed at `jobs = 1` vs `jobs = N` on the work-stealing
//! pool, asserting the two results are bit-identical. They also record a
//! `durability` section: the fsync-policy throughput ladder on the
//! file-backed sink + WAL vs the in-memory reference, plus cold recovery
//! timing. A `hotpath` section: SIMD-vs-scalar parity kernels,
//! zero-copy traffic, the packed-index footprint, and the jobs ladder
//! (see `adapt_bench::hotpath`). And a `serving` section:
//! the shard-scaling saturation sweep of the serving layer, gated on
//! critical-path throughput and cross-client determinism (see
//! `adapt_bench::saturation`).

use adapt_bench::perf::{self, QUICK, WORKLOADS};

fn main() {
    adapt_bench::harness::figure_main(|cli| {
        let workloads: &[perf::Workload] = if cli.quick { &[QUICK] } else { &WORKLOADS };
        let mut report = perf::run_with_events(
            workloads,
            adapt_bench::perf_baseline::BASELINE,
            cli.event_config(),
            cli.geometry,
        );
        for (key, s) in &report.speedup {
            println!("perf {key:<28} speedup vs pre-change baseline: {s:.2}x");
        }
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

            // Durable-backend cost record: fsync ladder on the file sink +
            // WAL vs the in-memory reference, plus cold recovery timing.
            let dur = adapt_bench::durability::run(cli.quick);
            for p in &dur.policies {
                println!(
                    "perf durability {fsync:<16} {wall:>9.1} ms  {kops:>8.1} kops/s  \
                     {ovh:.2}x memory  wal {ratio:.2} B/B  syncs {syncs}",
                    fsync = p.fsync,
                    wall = p.wall_ms,
                    kops = p.kops_per_sec,
                    ovh = p.overhead_vs_memory,
                    ratio = p.wal_bytes_per_host_byte,
                    syncs = p.wal_syncs,
                );
            }
            println!(
                "perf durability recovery {wall:>9.1} ms  checkpoint {ckpt}  \
                 records {recs}  flushes {flushes}",
                wall = dur.recovery.wall_ms,
                ckpt = dur.recovery.checkpoint_loaded,
                recs = dur.recovery.records_applied,
                flushes = dur.recovery.flushes_replayed,
            );
            report.durability = Some(dur);

            // Hot-path microbenches: the primitives the replays above are
            // built from, each attributed to its own layer.
            let hp = adapt_bench::hotpath::run(cli.quick);
            println!(
                "perf hotpath xor_into(64KiB) [{kernel}] {simd:>8.2} GiB/s  \
                 byte-serial {byte:>6.2} GiB/s ({vb:.1}x)  word-scalar {wide:>8.2} GiB/s ({vw:.2}x)",
                kernel = hp.xor_64k.kernel,
                simd = hp.xor_64k.simd_gib_s,
                byte = hp.xor_64k.scalar_byte_gib_s,
                vb = hp.xor_64k.speedup_vs_byte,
                wide = hp.xor_64k.scalar_wide_gib_s,
                vw = hp.xor_64k.speedup_vs_wide,
            );
            println!(
                "perf hotpath copy [{w}] {copy} B copied vs {legacy} B legacy  \
                 ({red:.1}% less, {per:.3} B/host-B)",
                w = hp.copy.workload,
                copy = hp.copy.copy_bytes,
                legacy = hp.copy.legacy_equiv_copy_bytes,
                red = hp.copy.reduction_pct,
                per = hp.copy.copy_per_host_byte,
            );
            println!(
                "perf hotpath index {packed:.2} B/block packed vs {legacy:.0} B legacy  \
                 ({red:.1}% less)",
                packed = hp.index.packed_bytes_per_block,
                legacy = hp.index.legacy_bytes_per_block,
                red = hp.index.reduction_pct,
            );
            assert!(
                hp.index.reduction_pct >= 40.0,
                "packed index must drop >=40% bytes/block (got {:.1}%)",
                hp.index.reduction_pct
            );
            for rung in &hp.jobs_ladder {
                println!(
                    "perf hotpath jobs={j:<2} {wall:>9.1} ms  speedup {s:.2}x",
                    j = rung.jobs,
                    wall = rung.wall_ms,
                    s = rung.speedup_vs_1,
                );
            }
            report.hotpath = Some(hp);

            // Serving-layer saturation sweep: shard scaling on the
            // sharded async submission path, with the cross-client
            // determinism check (see `adapt_bench::saturation`).
            let serving = adapt_bench::saturation::run(cli.quick);
            for p in &serving.points {
                println!(
                    "perf serving shards={s} clients={c}  {wk:>8.1} kops/s wall  \
                     {ck:>8.1} kops/s critical-path  retries {retries}",
                    s = p.shards,
                    c = p.clients,
                    wk = p.wall_kops,
                    ck = p.critical_path_kops,
                    retries = p.busy_retries,
                );
            }
            println!(
                "perf serving scaling 1->{top} shards: critical-path {cp:.2}x  wall {wall:.2}x",
                top = serving.shard_counts.last().unwrap(),
                cp = serving.scaling_critical_path,
                wall = serving.scaling_wall,
            );
            assert!(
                serving.bit_identical_across_clients,
                "serve replays must be bit-identical across client-thread counts"
            );
            report.serving = Some(serving);
        }
        // The trajectory file lives at the repo root by default (BENCH_* is
        // the per-PR perf record); --out redirects for scratch runs.
        let dir = if cli.out_dir == "results" { ".".to_string() } else { cli.out_dir.clone() };
        let name = if report.events_enabled { "BENCH_perf_events" } else { "BENCH_perf" };
        let path = adapt_sim::report::write_json(&dir, name, &report)
            .unwrap_or_else(|e| panic!("write {name}.json: {e}"));
        println!("wrote {path}");
        // Host-dependent (`busy_ns` is wall time on a preemptible thread),
        // so it is checked only once the report is on disk.
        if !cli.quick {
            if let Some(serving) = &report.serving {
                assert!(
                    serving.scaling_critical_path >= 3.0,
                    "critical-path throughput must scale >= 3x from 1 to 4 shards (got {:.2}x)",
                    serving.scaling_critical_path
                );
            }
        }
    });
}
