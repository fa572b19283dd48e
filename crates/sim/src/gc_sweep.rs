//! Victim-selection sweep: WA of each placement scheme under the extended
//! GC-policy family (Greedy, Cost-Benefit, d-choices, Windowed-Greedy,
//! Random). Backs the paper's §4.2 observation that ADAPT "demonstrates
//! better universality" across selection strategies.

use crate::replay::{replay_with, ReplayConfig};
use crate::scheme::Scheme;
use adapt_lss::{GcSelection, LssMetrics, VictimPolicy};
use adapt_trace::{TraceRecord, VolumeModel};
use rayon::prelude::*;
use serde::Serialize;

/// Construct every member of the victim-policy family with deterministic
/// seeds.
pub fn victim_family(seed: u64) -> Vec<VictimPolicy> {
    vec![
        VictimPolicy::Base(GcSelection::Greedy),
        VictimPolicy::Base(GcSelection::CostBenefit),
        VictimPolicy::d_choices(seed),
        VictimPolicy::windowed_greedy(),
        VictimPolicy::random(seed ^ 0x5eed),
    ]
}

/// One cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct GcSweepCell {
    /// Placement scheme.
    pub scheme: Scheme,
    /// Array geometry label (`"k+m"`, e.g. `"3+1"` or `"6+2"`).
    pub geometry: String,
    /// Victim policy name.
    pub victim: String,
    /// Metrics over the measurement window.
    pub metrics: LssMetrics,
}

/// Replay one trace under one (scheme, victim policy) combination.
pub fn replay_with_victim<I>(
    scheme: Scheme,
    cfg: ReplayConfig,
    victim: VictimPolicy,
    trace: I,
) -> GcSweepCell
where
    I: Iterator<Item = TraceRecord>,
{
    let name = victim.name().to_string();
    let geometry = cfg.lss.array_config().geometry().label();
    let metrics = replay_with(scheme, cfg, victim, 0, trace).metrics;
    GcSweepCell { scheme, geometry, victim: name, metrics }
}

/// Replay a full `(victim policy × scheme × volume)` grid in parallel on
/// the work-stealing pool.
///
/// Cells come back flattened in deterministic victim-major order
/// (`victims[0]` × `schemes[0]` × `volumes[0..]`, then the next scheme,
/// …), independent of schedule: each cell's replay is seeded by its
/// volume model and the pool preserves input ordering, so the grid is
/// bit-identical at any job count. `requests` maps a volume to its trace
/// length (e.g. [`crate::runner::requests_for`]).
pub fn sweep_grid(
    schemes: &[Scheme],
    victims: &[VictimPolicy],
    volumes: &[VolumeModel],
    requests: impl Fn(&VolumeModel) -> u64 + Sync,
) -> Vec<GcSweepCell> {
    sweep_grid_geometries(schemes, victims, volumes, &[(0, 0)], requests)
}

/// [`sweep_grid`] with an extra outermost array-geometry axis: each
/// `(devices, parity)` pair replays the whole victim × scheme × volume
/// grid on that geometry, flattened geometry-major. `(0, 0)` is the
/// historical default (4-disk RAID-5); see
/// [`adapt_lss::LssConfig::with_geometry`].
pub fn sweep_grid_geometries(
    schemes: &[Scheme],
    victims: &[VictimPolicy],
    volumes: &[VolumeModel],
    geometries: &[(usize, usize)],
    requests: impl Fn(&VolumeModel) -> u64 + Sync,
) -> Vec<GcSweepCell> {
    let cells: Vec<(usize, usize, &VictimPolicy, Scheme, &VolumeModel)> = geometries
        .iter()
        .flat_map(|&(n, m)| {
            victims.iter().flat_map(move |v| {
                schemes.iter().flat_map(move |&s| volumes.iter().map(move |vol| (n, m, v, s, vol)))
            })
        })
        .collect();
    cells
        .into_par_iter()
        .map(|(n, m, victim, scheme, vol)| {
            let mut cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
            cfg.lss = cfg.lss.with_geometry(n, m);
            replay_with_victim(scheme, cfg, victim.clone(), vol.trace(requests(vol)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_trace::arrival::ArrivalModel;
    use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};

    fn trace() -> impl Iterator<Item = TraceRecord> {
        YcsbConfig {
            num_blocks: 4096,
            num_updates: 25_000,
            zipf_alpha: 0.9,
            read_ratio: 0.0,
            arrival: ArrivalModel::Fixed { gap_us: 3 },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 4,
        }
        .generator()
    }

    #[test]
    fn family_has_five_members_with_unique_names() {
        let fam = victim_family(1);
        let mut names: Vec<&str> = fam.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 5);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn every_victim_policy_completes_a_replay() {
        for victim in victim_family(9) {
            let cfg = ReplayConfig::for_volume(4096, GcSelection::Greedy);
            let cell = replay_with_victim(Scheme::Adapt, cfg, victim, trace());
            assert!(cell.metrics.gc_passes > 0, "{}", cell.victim);
            assert!(cell.metrics.wa() >= 1.0, "{}", cell.victim);
        }
    }

    #[test]
    fn greedy_beats_random_selection() {
        let cfg = ReplayConfig::for_volume(4096, GcSelection::Greedy);
        let greedy = replay_with_victim(
            Scheme::SepGc,
            cfg,
            VictimPolicy::Base(GcSelection::Greedy),
            trace(),
        );
        let random = replay_with_victim(Scheme::SepGc, cfg, VictimPolicy::random(3), trace());
        assert!(
            greedy.metrics.wa() < random.metrics.wa(),
            "greedy {} vs random {}",
            greedy.metrics.wa(),
            random.metrics.wa()
        );
    }

    #[test]
    fn sweep_grid_order_and_results_match_sequential() {
        use adapt_trace::{SuiteKind, WorkloadSuite};
        let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 11, 2);
        let schemes = [Scheme::SepGc, Scheme::Adapt];
        let victims = victim_family(11);
        let requests = |_: &VolumeModel| 3_000u64;
        let grid = sweep_grid(&schemes, &victims, &suite.volumes, requests);
        assert_eq!(grid.len(), victims.len() * schemes.len() * suite.volumes.len());
        // Spot-check one cell against a direct sequential replay, and the
        // victim-major ordering of the flattened grid: victim 1, scheme 1,
        // volume 1.
        let idx = schemes.len() * suite.volumes.len() + suite.volumes.len() + 1;
        let cell = &grid[idx];
        assert_eq!(cell.victim, victims[1].name());
        assert_eq!(cell.scheme, Scheme::Adapt);
        let vol = &suite.volumes[1];
        let cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
        let direct = replay_with_victim(Scheme::Adapt, cfg, victims[1].clone(), vol.trace(3_000));
        assert_eq!(cell.metrics, direct.metrics);
    }

    #[test]
    fn geometry_axis_is_outermost_and_tagged() {
        use adapt_trace::{SuiteKind, WorkloadSuite};
        let suite = WorkloadSuite::generate_n(SuiteKind::Ali, 13, 1);
        let schemes = [Scheme::SepGc];
        let victims = vec![VictimPolicy::Base(GcSelection::Greedy)];
        let requests = |_: &VolumeModel| 2_000u64;
        let grid =
            sweep_grid_geometries(&schemes, &victims, &suite.volumes, &[(0, 0), (6, 2)], requests);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].geometry, "3+1");
        assert_eq!(grid[1].geometry, "4+2");
        // The default-geometry slice is exactly what sweep_grid returns.
        let plain = sweep_grid(&schemes, &victims, &suite.volumes, requests);
        assert_eq!(plain[0].metrics, grid[0].metrics);
        assert_eq!(plain[0].geometry, grid[0].geometry);
    }

    #[test]
    fn d_choices_close_to_greedy() {
        let cfg = ReplayConfig::for_volume(4096, GcSelection::Greedy);
        let greedy = replay_with_victim(
            Scheme::SepGc,
            cfg,
            VictimPolicy::Base(GcSelection::Greedy),
            trace(),
        );
        let dch = replay_with_victim(Scheme::SepGc, cfg, VictimPolicy::d_choices(3), trace());
        let ratio = dch.metrics.wa() / greedy.metrics.wa();
        assert!(ratio < 1.25, "d-choices/greedy WA ratio {ratio}");
    }
}
