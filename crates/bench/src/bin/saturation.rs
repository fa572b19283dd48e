//! `saturation` — shard-scaling sweep of the sharded serving layer.
//!
//! Sweeps the seeded medium multi-volume replay through servers at
//! shards {1, 2, 4} × client threads {1, 8} (`--quick`: {1, 2} × {1, 4}
//! on the smoke replay), printing wall-clock and critical-path
//! throughput per point and writing `saturation.json` under `--out`.
//!
//! Gates (a panic or nonzero exit is the verdict, so CI can run this bin
//! directly):
//!
//! * every submitted op completes successfully — no lost completions;
//! * per-shard queue accounting balances and no shard fail-stops;
//! * for each shard count, replays are byte-identical across
//!   client-thread counts (the serving determinism contract);
//! * on the gate configuration (no `--quick`), critical-path throughput
//!   scales ≥ 3x from 1 shard to 4 at 8 client threads.

fn main() {
    adapt_bench::harness::figure_main(|cli| {
        let b = adapt_bench::saturation::run(cli.quick);
        for p in &b.points {
            println!(
                "saturation shards={s} clients={c}  wall {wall:>9.1} ms  \
                 {wk:>8.1} kops/s wall  {ck:>8.1} kops/s critical-path  \
                 busy-max {busy:>9.1} ms  retries {retries}",
                s = p.shards,
                c = p.clients,
                wall = p.wall_ms,
                wk = p.wall_kops,
                ck = p.critical_path_kops,
                busy = p.max_shard_busy_ms,
                retries = p.busy_retries,
            );
        }
        println!(
            "saturation [{w}] scaling 1->{top} shards @ {c} clients: \
             critical-path {cp:.2}x  wall {wall:.2}x  bit-identical {ident}",
            w = b.workload,
            top = b.shard_counts.last().unwrap(),
            c = b.client_counts.last().unwrap(),
            cp = b.scaling_critical_path,
            wall = b.scaling_wall,
            ident = b.bit_identical_across_clients,
        );
        adapt_bench::harness::gate(
            b.bit_identical_across_clients,
            "serve replays bit-identical across client-thread counts",
        );
        // The scaling gate is host-dependent (`busy_ns` is wall time on a
        // preemptible thread): write the report first so a failed gate
        // still leaves the numbers that failed it.
        adapt_bench::harness::write_report(cli, "saturation", &b);
        if !cli.quick {
            adapt_bench::harness::gate(
                b.scaling_critical_path >= 3.0,
                "critical-path throughput scales >= 3x from 1 to 4 shards",
            );
        }
    });
}
