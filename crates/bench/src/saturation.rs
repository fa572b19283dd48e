//! The `saturation` bench: shard-scaling sweep of the serving layer.
//!
//! Drives the seeded medium multi-volume replay (256 Ki blocks, 1 Mi
//! ops, zipf 0.9 — the serving twin of the perf harness's `medium`
//! workload) through sharded servers at every (shard count × client
//! threads) point and records two throughput numbers per point:
//!
//! * **wall kops/s** — ops over wall-clock time. On a multi-core host
//!   this is the number a deployment sees; on a core-starved CI box it
//!   measures the scheduler, not the engine.
//! * **critical-path kops/s** — ops over the *maximum* per-shard busy
//!   time (the wall time each shard thread spends applying, committing,
//!   and collecting, excluding blocking waits). This is the array's
//!   throughput with one core per shard, independent of how many cores
//!   the measuring host actually has, so the shard-scaling gate compares
//!   it rather than wall clock.
//!
//! The sweep also re-checks the serving determinism contract at bench
//! scale: for each shard count, replays submitted by different
//! client-thread counts must produce byte-identical telemetry (see
//! `adapt_sim::serve`). A lost completion, an unbalanced queue, or a
//! fail-stopped shard aborts the run — the process result is the gate.

use adapt_sim::{run_serve_replay, Scheme, ServeReplayConfig, ServeReplayResult};
use serde::Serialize;

/// One measured (shards × client threads) sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct SaturationPoint {
    /// Shard count of the server.
    pub shards: u32,
    /// Client submission threads.
    pub clients: usize,
    /// Ops submitted (all completed — losses abort the run).
    pub ops: u64,
    /// Wall-clock time of the replay (ms).
    pub wall_ms: f64,
    /// Wall-clock throughput (kops/s).
    pub wall_kops: f64,
    /// Critical-path throughput (kops/s): ops over max shard busy time.
    pub critical_path_kops: f64,
    /// Busy time of the busiest shard (ms).
    pub max_shard_busy_ms: f64,
    /// Busy rejections the submitters retried (backpressure pressure).
    pub busy_retries: u64,
    /// Queue accounting balanced on every shard (always true in a
    /// recorded report — imbalance aborts).
    pub balanced: bool,
    /// FNV-1a hash of the deterministic result slice (telemetry,
    /// per-volume metrics, applied-op counts), hex. Equal across client
    /// counts at the same shard count.
    pub determinism_fnv: String,
}

/// The payload of `results/saturation.json`: the full sweep plus the two
/// derived scaling ratios the acceptance gate reads.
#[derive(Debug, Clone, Serialize)]
pub struct SaturationBench {
    /// Workload replayed ("medium" or the `--quick` smoke size).
    pub workload: String,
    /// Placement scheme every shard ran.
    pub scheme: String,
    /// Shard counts swept.
    pub shard_counts: Vec<u32>,
    /// Client-thread counts swept.
    pub client_counts: Vec<usize>,
    /// Every sweep point, in (shards, clients) order.
    pub points: Vec<SaturationPoint>,
    /// Whether, for every shard count, all client-thread counts produced
    /// byte-identical deterministic results. Must always be true.
    pub bit_identical_across_clients: bool,
    /// Critical-path throughput ratio, max shards vs 1 shard, at the
    /// highest client count (the machine-independent scaling number).
    pub scaling_critical_path: f64,
    /// Wall-clock throughput ratio over the same pair (host-dependent;
    /// collapses toward 1 on a single-core runner).
    pub scaling_wall: f64,
}

/// FNV-1a over the deterministic result slice, rendered as hex. The full
/// serialized key is megabytes at medium scale; the report stores the
/// fingerprint, the equality check runs on the fingerprints.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn point_of(r: &ServeReplayResult) -> SaturationPoint {
    let max_busy = r.shard_busy_ns.iter().copied().max().unwrap_or(0);
    SaturationPoint {
        shards: r.shards,
        clients: r.clients,
        ops: r.ops,
        wall_ms: r.elapsed_secs * 1e3,
        wall_kops: r.wall_kops(),
        critical_path_kops: r.critical_path_kops(),
        max_shard_busy_ms: max_busy as f64 / 1e6,
        busy_retries: r.busy_retries,
        balanced: r.balanced,
        determinism_fnv: fnv1a(r.determinism_key().as_bytes()),
    }
}

/// Run the sweep. `quick` shrinks it to the CI smoke size (shards
/// {1, 2} × clients {1, 4} on the small replay); the gate configuration
/// sweeps shards {1, 2, 4} × clients {1, 8} on the medium replay.
///
/// Panics on any lost completion, completion error, queue-accounting
/// imbalance, fail-stopped shard, or determinism divergence — CI runs
/// the bin directly, so a panic *is* the gate tripping.
pub fn run(quick: bool) -> SaturationBench {
    let (shard_counts, client_counts): (Vec<u32>, Vec<usize>) =
        if quick { (vec![1, 2], vec![1, 4]) } else { (vec![1, 2, 4], vec![1, 8]) };
    let scheme = Scheme::Adapt;
    let max_clients = *client_counts.last().expect("client counts");
    let max_shards = *shard_counts.last().expect("shard counts");

    let mut points = Vec::new();
    let mut bit_identical = true;
    for &shards in &shard_counts {
        let mut group_fnv: Option<String> = None;
        for &clients in &client_counts {
            let cfg = if quick {
                ServeReplayConfig::quick(scheme, shards, clients)
            } else {
                ServeReplayConfig::medium(scheme, shards, clients)
            };
            let r = run_serve_replay(&cfg);
            assert_eq!(
                r.completed_ok, cfg.ops,
                "saturation {shards}x{clients}: lost or errored completions \
                 (ok {}, err {})",
                r.completed_ok, r.completed_err
            );
            assert!(r.balanced, "saturation {shards}x{clients}: queue accounting imbalance");
            assert!(!r.any_failed, "saturation {shards}x{clients}: a shard fail-stopped");
            let p = point_of(&r);
            match &group_fnv {
                None => group_fnv = Some(p.determinism_fnv.clone()),
                Some(expect) => {
                    if *expect != p.determinism_fnv {
                        bit_identical = false;
                    }
                }
            }
            points.push(p);
        }
    }
    assert!(
        bit_identical,
        "saturation: replays diverged across client-thread counts at a fixed shard count"
    );

    let cp_at = |shards: u32| {
        points.iter().find(|p| p.shards == shards && p.clients == max_clients).expect("sweep point")
    };
    let (base, top) = (cp_at(1), cp_at(max_shards));
    let scaling_critical_path = top.critical_path_kops / base.critical_path_kops;
    let scaling_wall = top.wall_kops / base.wall_kops;
    SaturationBench {
        workload: if quick { "quick".into() } else { "medium".into() },
        scheme: scheme.name().to_string(),
        shard_counts,
        client_counts,
        points,
        bit_identical_across_clients: bit_identical,
        scaling_critical_path,
        scaling_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_hex() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a").len(), 16);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn quick_sweep_is_deterministic_and_positive() {
        let b = run(true);
        assert_eq!(b.points.len(), b.shard_counts.len() * b.client_counts.len());
        assert!(b.bit_identical_across_clients);
        assert!(b.points.iter().all(|p| p.critical_path_kops > 0.0 && p.wall_kops > 0.0));
        assert!(b.scaling_critical_path > 0.0);
        // The ≥3x shard-scaling gate applies to the medium release run
        // (the `saturation` bin without --quick); the smoke sweep only
        // proves the accounting and determinism contracts.
    }
}
