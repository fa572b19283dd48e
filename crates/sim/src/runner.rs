//! Parallel suite sweeps: a real fan-out of per-volume replays across the
//! vendored work-stealing pool (see `vendor/rayon`).
//!
//! # Determinism contract
//!
//! Every replay point seeds its own RNG from the volume model
//! (`VolumeModel::seed`), and the pool writes each volume's result into
//! its input-order slot. Together that makes a sweep's output
//! **bit-identical at any job count or schedule** — `--jobs 1`,
//! `--jobs 64`, and any interleaving in between produce byte-for-byte the
//! same `SuiteResult` JSON. Tests assert this (`tests/parallel_sweep.rs`).

use crate::replay::{replay_volume, ReplayConfig, VolumeResult};
use crate::scheme::Scheme;
use adapt_lss::GcSelection;
use adapt_trace::stats::BoxStats;
use adapt_trace::{SuiteKind, WorkloadSuite};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How many write-blocks worth of traffic to replay per volume, expressed
/// as a multiple of the volume's logical capacity. The warm-up window is
/// one capacity; steady-state GC needs a few more on top.
pub const DEFAULT_CAPACITY_MULTIPLE: f64 = 4.0;

/// Aggregated results of one `(scheme, gc, suite)` sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Scheme swept.
    pub scheme: Scheme,
    /// GC policy swept.
    pub gc: GcSelection,
    /// Suite name ("AliCloud", …).
    pub suite: String,
    /// Per-volume results.
    pub volumes: Vec<VolumeResult>,
}

impl SuiteResult {
    /// Overall WA: aggregate bytes across volumes (the paper's "overall
    /// WA" bar charts), not the mean of ratios.
    pub fn overall_wa(&self) -> f64 {
        let host: u64 = self.volumes.iter().map(|v| v.metrics.host_write_bytes).sum();
        let phys: u64 = self.volumes.iter().map(|v| v.metrics.physical_bytes()).sum();
        if host == 0 {
            return 1.0;
        }
        phys as f64 / host as f64
    }

    /// Overall padding-traffic ratio across volumes.
    pub fn overall_padding_ratio(&self) -> f64 {
        let pad: u64 = self.volumes.iter().map(|v| v.metrics.pad_bytes).sum();
        let phys: u64 = self.volumes.iter().map(|v| v.metrics.physical_bytes()).sum();
        if phys == 0 {
            return 0.0;
        }
        pad as f64 / phys as f64
    }

    /// Per-volume WA samples (box-plot rows of Fig. 8).
    pub fn wa_samples(&self) -> Vec<f64> {
        self.volumes.iter().map(|v| v.wa()).collect()
    }

    /// Per-volume padding-ratio samples (Fig. 9 CDFs).
    pub fn padding_samples(&self) -> Vec<f64> {
        self.volumes.iter().map(|v| v.padding_ratio()).collect()
    }

    /// Box-plot statistics of per-volume WA.
    pub fn wa_box(&self) -> BoxStats {
        BoxStats::from_samples(&self.wa_samples())
    }
}

/// Replay every volume of a suite under one scheme/GC policy, in parallel.
///
/// `requests_cap` bounds the trace length per volume (None = derived from
/// `DEFAULT_CAPACITY_MULTIPLE`).
///
/// Each volume is an independent replay with its own per-volume seed, and
/// the pool preserves input ordering, so the result is schedule-independent
/// (see the module docs' determinism contract).
pub fn run_suite(
    scheme: Scheme,
    gc: GcSelection,
    suite: &WorkloadSuite,
    requests_cap: Option<u64>,
) -> SuiteResult {
    let volumes: Vec<VolumeResult> = suite
        .volumes
        .par_iter()
        .map(|vol| {
            let cfg = ReplayConfig::for_volume(vol.unique_blocks, gc);
            let requests = requests_cap.unwrap_or_else(|| requests_for(vol));
            replay_volume(scheme, cfg, vol.id, vol.trace(requests))
        })
        .collect();
    SuiteResult { scheme, gc, suite: suite.kind.name().to_string(), volumes }
}

/// Number of requests needed for a volume to write
/// `DEFAULT_CAPACITY_MULTIPLE`× its capacity in blocks.
pub fn requests_for(vol: &adapt_trace::VolumeModel) -> u64 {
    let write_frac = (1.0 - vol.read_ratio).max(0.05);
    let mean_blocks = vol.sizes.mean_blocks().max(1.0);
    let target_blocks = vol.unique_blocks as f64 * DEFAULT_CAPACITY_MULTIPLE;
    (target_blocks / (write_frac * mean_blocks)).ceil() as u64
}

/// Generate all three suites at the standard seed used across figures.
pub fn standard_suites(seed: u64, volumes_per_suite: usize) -> Vec<WorkloadSuite> {
    SuiteKind::ALL.iter().map(|&k| WorkloadSuite::generate_n(k, seed, volumes_per_suite)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_runs_and_aggregates() {
        let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 42, 4);
        let r = run_suite(Scheme::SepGc, GcSelection::Greedy, &suite, Some(6_000));
        assert_eq!(r.volumes.len(), 4);
        assert!(r.overall_wa() >= 1.0);
        assert!(r.overall_padding_ratio() >= 0.0);
        let b = r.wa_box();
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }

    #[test]
    fn requests_for_scales_with_capacity() {
        let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 1, 2);
        let v = &suite.volumes[0];
        let n = requests_for(v);
        // Enough requests to overwrite the volume several times.
        let approx_blocks = n as f64 * (1.0 - v.read_ratio) * v.sizes.mean_blocks();
        assert!(approx_blocks >= 3.0 * v.unique_blocks as f64);
    }

    #[test]
    fn standard_suites_cover_all_kinds() {
        let suites = standard_suites(9, 3);
        assert_eq!(suites.len(), 3);
        let names: Vec<&str> = suites.iter().map(|s| s.kind.name()).collect();
        assert_eq!(names, vec!["AliCloud", "TencentCloud", "MSRC"]);
    }

    #[test]
    fn results_deterministic_across_runs() {
        let suite = WorkloadSuite::generate_n(SuiteKind::Tencent, 5, 2);
        let a = run_suite(Scheme::SepBit, GcSelection::Greedy, &suite, Some(4_000));
        let b = run_suite(Scheme::SepBit, GcSelection::Greedy, &suite, Some(4_000));
        assert_eq!(a.overall_wa(), b.overall_wa());
        for (va, vb) in a.volumes.iter().zip(&b.volumes) {
            assert_eq!(va.metrics, vb.metrics);
        }
    }
}
