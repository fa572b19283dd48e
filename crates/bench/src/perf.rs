//! The replay matrix (`perf` bin).
//!
//! Replays fixed, seeded single-volume workloads through ADAPT and two
//! baselines and records wall time, throughput, the share of wall time
//! spent in GC victim selection, and peak resident structure sizes. The
//! result lands in `BENCH_perf.json` at the repo root.
//!
//! Two sizes: `small` (a quick sanity point) and `medium` (large enough
//! that per-op engine cost dominates wall time, like the paper's §4
//! multi-capacity replays). Traces are fully materialized before the
//! clock starts, so the measurement covers the engine only, not trace
//! synthesis.
//!
//! This is what is left of the pre-`benchmark/` instrument: the scheme ×
//! GC-policy matrix and the `--jobs` sweep check are the two records the
//! repo benchmark cannot yet produce. Everything else it used to carry —
//! kernel rungs, copy traffic, the index footprint, the fsync ladder,
//! recovery timing, the serving sweep — is a row of `benchmark/`'s
//! ledger, and a speed claim is made there, against a same-run parent.

use adapt_array::CountingArray;
use adapt_lss::{EventConfig, GcSelection, LssConfig};
use adapt_sim::runner::run_suite;
use adapt_sim::{drive, ReplayConfig, Scheme, Warmup};
use adapt_trace::arrival::ArrivalModel;
use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};
use adapt_trace::{SuiteKind, TraceRecord, WorkloadSuite};
use serde::Serialize;
use std::time::Instant;

/// One seeded replay workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name ("small", "medium", "quick").
    pub name: &'static str,
    /// Logical volume size in 4 KiB blocks.
    pub user_blocks: u64,
    /// Overwrite blocks replayed on top of the initial full-volume fill
    /// (the generator prepends `user_blocks` fill writes).
    pub write_blocks: u64,
    /// Zipf skew of the update stream.
    pub zipf_alpha: f64,
    /// Trace seed.
    pub seed: u64,
}

/// The standard ladder: `small` for a fast signal, `medium` for the
/// record (≈4× capacity of overwrite traffic, enough segments that
/// victim selection cost is visible).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "small",
        user_blocks: 32 * 1024,
        write_blocks: 3 * 32 * 1024,
        zipf_alpha: 0.9,
        seed: 0xADA7,
    },
    Workload {
        name: "medium",
        user_blocks: 256 * 1024,
        write_blocks: 4 * 256 * 1024,
        zipf_alpha: 0.9,
        seed: 0xADA7,
    },
];

/// The CI smoke workload (`--quick`): seconds even on a cold cache.
pub const QUICK: Workload = Workload {
    name: "quick",
    user_blocks: 8 * 1024,
    write_blocks: 2 * 8 * 1024,
    zipf_alpha: 0.9,
    seed: 0xADA7,
};

/// The schemes the harness tracks: ADAPT plus two baselines, and ADAPT
/// again under Cost-Benefit so both victim-selection paths stay measured.
pub const SCHEMES: [(Scheme, GcSelection); 4] = [
    (Scheme::Adapt, GcSelection::Greedy),
    (Scheme::Adapt, GcSelection::CostBenefit),
    (Scheme::SepBit, GcSelection::Greedy),
    (Scheme::SepGc, GcSelection::Greedy),
];

/// One measured replay.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// `workload/scheme/gc` key, e.g. `medium/ADAPT/Greedy`.
    pub key: String,
    /// Host write blocks replayed.
    pub blocks: u64,
    /// Wall time of the replay (ms).
    pub wall_ms: f64,
    /// Throughput in thousand block-writes per second.
    pub kops_per_sec: f64,
    /// Wall time inside GC victim selection (ms).
    pub gc_select_ms: f64,
    /// GC-selection share of wall time (0..1).
    pub gc_select_share: f64,
    /// GC passes run.
    pub gc_passes: u64,
    /// Write amplification over the whole replay.
    pub wa: f64,
    /// Resident index + policy structures at the end (bytes).
    pub memory_bytes: u64,
    /// Structured events emitted (0 when capture is disabled).
    pub events_emitted: u64,
}

/// Key for a scheme/gc pair under a workload.
pub fn key_of(w: &Workload, scheme: Scheme, gc: GcSelection) -> String {
    format!("{}/{}/{}", w.name, scheme.name(), gc.name())
}

/// Materialize a workload's trace (writes only, dense arrivals so the SLA
/// path stays realistic without dominating).
pub fn trace_of(w: &Workload) -> Vec<TraceRecord> {
    YcsbConfig {
        num_blocks: w.user_blocks,
        num_updates: w.write_blocks,
        zipf_alpha: w.zipf_alpha,
        read_ratio: 0.0,
        arrival: ArrivalModel::Fixed { gap_us: 2 },
        blocks_per_request: 1,
        distribution: AccessDistribution::Zipfian,
        seed: w.seed,
    }
    .generator()
    .collect()
}

/// Replay one workload under one scheme/GC pair and measure it, with
/// event capture disabled.
pub fn measure(w: &Workload, scheme: Scheme, gc: GcSelection) -> Measurement {
    measure_with_events(w, scheme, gc, EventConfig::default(), None)
}

/// Replay one workload under one scheme/GC pair with an explicit event
/// configuration, so the observability overhead itself can be measured.
/// `geometry` overrides the array layout as `(devices, parity)`; `None`
/// keeps the historical 4-disk RAID-5.
pub fn measure_with_events(
    w: &Workload,
    scheme: Scheme,
    gc: GcSelection,
    events: EventConfig,
    geometry: Option<(usize, usize)>,
) -> Measurement {
    // The whole replay is the window: the fill is part of what is timed.
    let mut cfg =
        ReplayConfig { warmup: Warmup::None, ..ReplayConfig::for_volume(w.user_blocks, gc) }
            .with_events(events);
    if let Some((n, m)) = geometry {
        cfg.lss = cfg.lss.with_geometry(n, m);
    }
    let trace = trace_of(w);
    let sink = CountingArray::new(cfg.lss.array_config());
    let mut engine = cfg.engine(scheme.policy(&cfg.lss), sink);
    let start = Instant::now();
    drive(&mut engine, &cfg, trace.iter().copied());
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let gc_select_ms = engine.gc_select_nanos() as f64 / 1e6;
    let blocks: u64 = trace.iter().map(|r| r.num_blocks as u64).sum();
    Measurement {
        key: key_of(w, scheme, gc),
        blocks,
        wall_ms,
        kops_per_sec: blocks as f64 / wall.as_secs_f64() / 1e3,
        gc_select_ms,
        gc_select_share: (gc_select_ms / wall_ms).min(1.0),
        gc_passes: engine.metrics().gc_passes,
        wa: engine.metrics().wa(),
        memory_bytes: engine.memory_bytes() as u64,
        events_emitted: engine.events().emitted(),
    }
}

/// Parallel-scaling measurement of a suite sweep: the same seeded
/// multi-volume sweep timed at `jobs = 1` (the exact sequential path) and
/// at `jobs = N`, with the speedup and a bit-identical check of the two
/// result payloads. This is the record for the work-stealing pool itself
/// — the single-point entries above it are unaffected.
#[derive(Debug, Clone, Serialize)]
pub struct SweepScaling {
    /// Suite swept ("AliCloud").
    pub suite: String,
    /// Volumes in the sweep.
    pub volumes: usize,
    /// Trace length per volume.
    pub requests_per_volume: u64,
    /// Parallel job count measured (the machine's effective job count,
    /// floored at 2 so the pool path is exercised even on one core).
    pub jobs: usize,
    /// Wall time of the sweep at `jobs = 1` (ms).
    pub wall_ms_jobs1: f64,
    /// Wall time of the same sweep at `jobs = N` (ms).
    pub wall_ms_jobs_n: f64,
    /// `wall_ms_jobs1 / wall_ms_jobs_n`.
    pub speedup: f64,
    /// Whether the two sweeps serialized to byte-identical JSON (the
    /// pool's determinism contract; must always be true).
    pub bit_identical: bool,
}

/// Time the suite sweep at `jobs = 1` vs `jobs = N` and verify the
/// results are bit-identical. `quick` shrinks the sweep to CI-smoke size.
pub fn measure_sweep(quick: bool) -> SweepScaling {
    let (volumes, requests_per_volume) = if quick { (3, 4_000) } else { (12, 30_000) };
    let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 0xADA7, volumes);
    let jobs = rayon::current_num_threads().max(2);
    let timed = |jobs| {
        rayon::with_jobs(jobs, || {
            let t0 = Instant::now();
            let r =
                run_suite(Scheme::Adapt, GcSelection::Greedy, &suite, Some(requests_per_volume));
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            (wall_ms, serde_json::to_string(&r).expect("serialize sweep"))
        })
    };
    let (wall_ms_jobs1, seq) = timed(1);
    let (wall_ms_jobs_n, par) = timed(jobs);
    SweepScaling {
        suite: suite.kind.name().to_string(),
        volumes,
        requests_per_volume,
        jobs,
        wall_ms_jobs1,
        wall_ms_jobs_n,
        speedup: wall_ms_jobs1 / wall_ms_jobs_n,
        bit_identical: seq == par,
    }
}

/// Provenance stamp: what produced this report. Wall-clock numbers are
/// only comparable across runs that agree here — a trajectory diff
/// between an AVX2 machine and a scalar one, or across job counts,
/// measures the hardware, not the PR.
#[derive(Debug, Clone, Serialize)]
pub struct Capability {
    /// `git rev-parse --short=12 HEAD` of the measured tree (`unknown`
    /// outside a work tree).
    pub git_commit: String,
    /// CPU feature summary the SIMD kernels dispatched on, including the
    /// `ADAPT_NO_SIMD` override when forced.
    pub simd: String,
    /// Effective worker-thread count of the work-stealing pool.
    pub jobs: usize,
    /// Array geometry the replays ran on (`k+m` label, e.g. `3+1`).
    /// Trajectory diffs across geometries measure the code rate, not the
    /// PR.
    pub geometry: String,
}

/// Capture the provenance stamp for this process. `geometry` is the
/// `(devices, parity)` override the replays ran with (`None` = default).
pub fn capability(geometry: Option<(usize, usize)>) -> Capability {
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let label = match geometry {
        Some((n, m)) => LssConfig::default().with_geometry(n, m),
        None => LssConfig::default(),
    }
    .array_config()
    .geometry()
    .label();
    Capability {
        git_commit,
        simd: adapt_array::cpu_features::get().summary(),
        jobs: rayon::current_num_threads(),
        geometry: label,
    }
}

/// The JSON payload written to `BENCH_perf.json`.
///
/// Schema history: 1 — baseline/current/speedup plus the sweep and
/// durability sections; 2 — adds the `capability` provenance stamp and
/// the `hotpath` microbench section; 3 — the replays honor the
/// `--geometry` override and `capability` stamps the `k+m` geometry
/// label they ran on; 4 — adds the `serving` section; 5 — added a
/// `hotpath.pipeline` point and an optional per-measurement stage-cost
/// block; 6 — drops both, together with the `hotpath` points whose
/// measured code is gone; 7 — drops `baseline`/`speedup` (ratios against
/// numbers frozen at PR 2) and the `durability`, `hotpath` and `serving`
/// sections, each of which `benchmark/`'s ledger now records by name
/// (see EXPERIMENTS.md).
#[derive(Debug, Serialize)]
pub struct PerfReport {
    /// Schema version of this file.
    pub schema: u32,
    /// Provenance of this run (git commit, SIMD features, job count).
    pub capability: Capability,
    /// Measurements from this run.
    pub current: Vec<Measurement>,
    /// Whether the structured event stream was captured during this run
    /// (enabled-path reports exist to bound the observability overhead).
    pub events_enabled: bool,
    /// Parallel-scaling record for the sweep engine (`jobs = 1` vs
    /// `jobs = N` over a medium suite sweep). Populated by the `perf` bin
    /// on disabled-path runs; `None` for events-enabled overhead runs.
    pub sweep: Option<SweepScaling>,
}

/// Run the matrix over `workloads` with an explicit event configuration
/// and an optional `(devices, parity)` array-geometry override.
pub fn run_with_events(
    workloads: &[Workload],
    events: EventConfig,
    geometry: Option<(usize, usize)>,
) -> PerfReport {
    let mut current = Vec::new();
    for w in workloads {
        for &(scheme, gc) in &SCHEMES {
            let m = measure_with_events(w, scheme, gc, events, geometry);
            println!(
                "perf {key:<28} {wall:>9.1} ms  {kops:>8.1} kops/s  gc-select {share:>5.1}%  wa {wa:.2}",
                key = m.key,
                wall = m.wall_ms,
                kops = m.kops_per_sec,
                share = m.gc_select_share * 100.0,
                wa = m.wa,
            );
            current.push(m);
        }
    }
    PerfReport {
        schema: 7,
        capability: capability(geometry),
        current,
        events_enabled: events.enabled,
        sweep: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_stamps_the_geometry_label() {
        assert_eq!(capability(None).geometry, "3+1");
        assert_eq!(capability(Some((6, 2))).geometry, "4+2");
    }

    #[test]
    fn quick_measurement_is_sane() {
        let m = measure(&QUICK, Scheme::SepGc, GcSelection::Greedy);
        // The generator prepends a full-volume fill before the updates.
        assert_eq!(m.blocks, QUICK.user_blocks + QUICK.write_blocks);
        assert!(m.wall_ms > 0.0);
        assert!(m.kops_per_sec > 0.0);
        assert!(m.wa >= 1.0);
        assert!(m.gc_select_share >= 0.0 && m.gc_select_share <= 1.0);
        assert!(m.memory_bytes > 0);
    }

    #[test]
    fn event_capture_leaves_workload_metrics_untouched() {
        let off = measure(&QUICK, Scheme::SepGc, GcSelection::Greedy);
        let on = measure_with_events(
            &QUICK,
            Scheme::SepGc,
            GcSelection::Greedy,
            EventConfig::enabled(),
            None,
        );
        assert_eq!(off.events_emitted, 0);
        assert!(on.events_emitted > 0);
        // Wall time may shift; the workload-derived numbers must not.
        assert_eq!(off.wa, on.wa);
        assert_eq!(off.gc_passes, on.gc_passes);
        assert_eq!(off.blocks, on.blocks);
    }

    #[test]
    fn keys_are_unique_per_scheme() {
        let keys: Vec<String> = SCHEMES.iter().map(|&(s, g)| key_of(&QUICK, s, g)).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(keys.len(), dedup.len());
    }

    #[test]
    fn sweep_scaling_is_bit_identical_and_positive() {
        let s = measure_sweep(true);
        assert!(s.bit_identical, "jobs=1 and jobs={} sweeps must match exactly", s.jobs);
        assert!(s.wall_ms_jobs1 > 0.0 && s.wall_ms_jobs_n > 0.0);
        assert!(s.jobs >= 2);
        assert!(s.speedup > 0.0);
    }

    #[test]
    fn traces_are_deterministic() {
        let a = trace_of(&QUICK);
        let b = trace_of(&QUICK);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }
}
