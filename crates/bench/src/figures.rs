//! One module per figure of the paper's evaluation. Every `run` prints the
//! figure's series as text tables and writes a JSON report.

use crate::harness::write_report;
use crate::sweep::FullSweep;
use crate::{eval_suite, Cli, FIGURE_SEED};
use adapt_lss::GcSelection;
use adapt_sim::compare::{
    compare_volumes, overall_padding_reduction_pct, overall_wa_reduction_pct, reduction_correlation,
};
use adapt_sim::report::{cdf_points, render_table, wa_table};
use adapt_sim::runner::run_suite;
use adapt_sim::{ReplayConfig, Scheme};
use adapt_trace::stats::{Ecdf, TraceSummary};
use adapt_trace::ycsb::{AccessDistribution, TrafficIntensity, YcsbConfig};
use adapt_trace::{SuiteKind, WorkloadSuite};
use serde::Serialize;

/// Fig. 2 — workload characterization: per-volume request-rate CDF (a) and
/// write-size distribution (b) over the *full population* of each suite.
pub mod fig2 {
    use super::*;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// Per-suite rate CDF points `(req/s, F)`.
        pub rate_cdfs: Vec<(String, Vec<(f64, f64)>)>,
        /// Per-suite `(frac ≤ 8 KiB, frac > 32 KiB)` write-size marginals.
        pub size_marginals: Vec<(String, f64, f64)>,
        /// Per-suite share of volumes below 10 req/s and above 100 req/s.
        pub rate_marginals: Vec<(String, f64, f64)>,
    }

    /// Regenerate Fig. 2.
    pub fn run(cli: &Cli) -> Report {
        // The population view needs many volumes for stable quantiles.
        let population = (400.0 * cli.scale).max(100.0) as usize;
        let mut rate_cdfs = Vec::new();
        let mut size_marginals = Vec::new();
        let mut rate_marginals = Vec::new();
        let mut rows = Vec::new();
        for kind in SuiteKind::ALL {
            let suite = WorkloadSuite::generate_n(kind, FIGURE_SEED, population);
            let rates: Vec<f64> = suite.volumes.iter().map(|v| v.mean_rate_per_sec()).collect();
            let ecdf = Ecdf::new(rates.clone());
            let below10 = ecdf.cdf(10.0);
            let above100 = 1.0 - ecdf.cdf(100.0);
            // Sample one volume's trace for the write-size marginals (the
            // size mixture is shared per suite).
            let summary = TraceSummary::from_trace(suite.volumes[0].trace(20_000));
            rate_cdfs.push((kind.name().to_string(), cdf_points(&rates, 40)));
            size_marginals.push((
                kind.name().to_string(),
                summary.frac_writes_le_8k(),
                summary.frac_writes_gt_32k(),
            ));
            rate_marginals.push((kind.name().to_string(), below10, above100));
            rows.push(vec![
                kind.name().to_string(),
                format!("{below10:.1}", below10 = below10 * 100.0),
                format!("{:.1}", above100 * 100.0),
                format!("{:.1}", summary.frac_writes_le_8k() * 100.0),
                format!("{:.1}", summary.frac_writes_gt_32k() * 100.0),
            ]);
        }
        println!("Figure 2 — workload characterization ({population} volumes/suite)");
        println!(
            "{}",
            render_table(
                &["suite", "%vol<10req/s", "%vol>100req/s", "%wr≤8KiB", "%wr>32KiB"],
                &rows
            )
        );
        let report = Report { rate_cdfs, size_marginals, rate_marginals };
        write_report(cli, "figure2", &report);
        report
    }
}

/// Fig. 3 — per-group write-volume split and group sizes for the five
/// baseline strategies replaying the Ali suite.
pub mod fig3 {
    use super::*;

    /// JSON payload: per scheme, per group: (user, gc, shadow, pad) blocks
    /// and segment counts.
    #[derive(Serialize)]
    pub struct Report {
        /// Rows of `(scheme, group, user, gc, shadow, pad, segments)`.
        pub groups: Vec<(String, u8, u64, u64, u64, u64, u32)>,
    }

    /// Regenerate Fig. 3.
    pub fn run(cli: &Cli) -> Report {
        let suite = eval_suite(SuiteKind::Ali, cli.volumes());
        let mut rows = Vec::new();
        let mut table = Vec::new();
        println!("Figure 3 — group traffic split, Ali suite, Greedy GC");
        for scheme in Scheme::PAPER {
            let r = run_suite(scheme, GcSelection::Greedy, &suite, None);
            // Sum group traffic across volumes (groups align by id).
            let n_groups = r.volumes.iter().map(|v| v.groups.len()).max().unwrap_or(0);
            let mut agg = vec![[0u64; 4]; n_groups];
            let mut segs = vec![0u32; n_groups];
            for v in &r.volumes {
                for (g, t) in v.groups.iter().enumerate() {
                    agg[g][0] += t.user_blocks;
                    agg[g][1] += t.gc_blocks;
                    agg[g][2] += t.shadow_blocks;
                    agg[g][3] += t.pad_blocks;
                    segs[g] += t.segments;
                }
            }
            for (g, (a, s)) in agg.iter().zip(&segs).enumerate() {
                rows.push((scheme.name().to_string(), g as u8, a[0], a[1], a[2], a[3], *s));
                let total: u64 = a.iter().sum();
                if total == 0 {
                    continue;
                }
                table.push(vec![
                    scheme.name().to_string(),
                    format!("G{g}"),
                    format!("{:.1}", a[0] as f64 / total as f64 * 100.0),
                    format!("{:.1}", a[1] as f64 / total as f64 * 100.0),
                    format!("{:.1}", a[2] as f64 / total as f64 * 100.0),
                    format!("{:.1}", a[3] as f64 / total as f64 * 100.0),
                    s.to_string(),
                ]);
            }
        }
        println!(
            "{}",
            render_table(
                &["scheme", "group", "%user", "%gc", "%shadow", "%pad", "segments"],
                &table
            )
        );
        let report = Report { groups: rows };
        write_report(cli, "figure3", &report);
        report
    }
}

/// Fig. 8 — overall WA per scheme × GC policy × suite, plus per-volume
/// box statistics.
pub mod fig8 {
    use super::*;
    use adapt_trace::stats::BoxStats;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(suite, gc, scheme, overall WA, box stats)`.
        pub cells: Vec<(String, String, String, f64, BoxStats)>,
        /// ADAPT's overall WA reduction vs each baseline, per (suite, gc).
        pub adapt_reductions: Vec<(String, String, String, f64)>,
    }

    /// Summarize an existing sweep into Fig. 8.
    pub fn from_sweep(cli: &Cli, sweep: &FullSweep) -> Report {
        println!("Figure 8 — GC efficiency (overall WA and per-volume quartiles)");
        println!("{}", wa_table(&sweep.results));
        let mut cells = Vec::new();
        let mut adapt_reductions = Vec::new();
        for r in &sweep.results {
            cells.push((
                r.suite.clone(),
                r.gc.name().to_string(),
                r.scheme.name().to_string(),
                r.overall_wa(),
                r.wa_box(),
            ));
        }
        let mut rows = Vec::new();
        for kind in SuiteKind::ALL {
            for gc in [GcSelection::Greedy, GcSelection::CostBenefit] {
                let adapt = sweep.get(Scheme::Adapt, gc, kind.name()).unwrap();
                for &b in &Scheme::BASELINES {
                    let base = sweep.get(b, gc, kind.name()).unwrap();
                    let red = overall_wa_reduction_pct(adapt, base);
                    adapt_reductions.push((
                        kind.name().to_string(),
                        gc.name().to_string(),
                        b.name().to_string(),
                        red,
                    ));
                    rows.push(vec![
                        kind.name().to_string(),
                        gc.name().to_string(),
                        b.name().to_string(),
                        crate::pct(red),
                    ]);
                }
            }
        }
        println!("ADAPT overall-WA reduction vs baselines:");
        println!("{}", render_table(&["suite", "gc", "baseline", "WA reduction"], &rows));
        let report = Report { cells, adapt_reductions };
        write_report(cli, "figure8", &report);
        report
    }

    /// Regenerate Fig. 8 (runs the sweep).
    pub fn run(cli: &Cli) -> Report {
        let sweep = FullSweep::run(cli);
        from_sweep(cli, &sweep)
    }
}

/// Fig. 9 — CDFs of per-volume padding-traffic ratio.
pub mod fig9 {
    use super::*;

    /// One CDF series: `(suite, gc, scheme, points over padding ratio %)`.
    pub type CdfSeries = (String, String, String, Vec<(f64, f64)>);

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// CDF series per (suite, gc, scheme).
        pub cdfs: Vec<CdfSeries>,
        /// ADAPT padding reduction vs each baseline per (suite, gc).
        pub adapt_padding_reductions: Vec<(String, String, String, f64)>,
    }

    /// Summarize an existing sweep into Fig. 9.
    pub fn from_sweep(cli: &Cli, sweep: &FullSweep) -> Report {
        println!("Figure 9 — padding-traffic ratio CDFs");
        let mut cdfs = Vec::new();
        let mut reductions = Vec::new();
        let mut rows = Vec::new();
        for r in &sweep.results {
            let samples: Vec<f64> = r.padding_samples().iter().map(|p| p * 100.0).collect();
            let ecdf = Ecdf::new(samples.clone());
            rows.push(vec![
                r.suite.clone(),
                r.gc.name().to_string(),
                r.scheme.name().to_string(),
                format!("{:.1}", ecdf.quantile(0.5)),
                format!("{:.1}", ecdf.cdf(25.0) * 100.0),
            ]);
            cdfs.push((
                r.suite.clone(),
                r.gc.name().to_string(),
                r.scheme.name().to_string(),
                cdf_points(&samples, 40),
            ));
        }
        println!(
            "{}",
            render_table(&["suite", "gc", "scheme", "median pad%", "%vol with pad<25%"], &rows)
        );
        for kind in SuiteKind::ALL {
            for gc in [GcSelection::Greedy, GcSelection::CostBenefit] {
                let adapt = sweep.get(Scheme::Adapt, gc, kind.name()).unwrap();
                for &b in &Scheme::BASELINES {
                    let base = sweep.get(b, gc, kind.name()).unwrap();
                    reductions.push((
                        kind.name().to_string(),
                        gc.name().to_string(),
                        b.name().to_string(),
                        overall_padding_reduction_pct(adapt, base),
                    ));
                }
            }
        }
        let report = Report { cdfs, adapt_padding_reductions: reductions };
        write_report(cli, "figure9", &report);
        report
    }

    /// Regenerate Fig. 9 (runs the sweep).
    pub fn run(cli: &Cli) -> Report {
        let sweep = FullSweep::run(cli);
        from_sweep(cli, &sweep)
    }
}

/// Fig. 10 — per-volume correlation between padding reduction and WA
/// reduction (ADAPT vs MiDA, ADAPT vs SepBIT; Ali suite, Greedy).
pub mod fig10 {
    use super::*;

    /// One scatter series: `(baseline, [(pad reduction %, wa reduction %)], r)`.
    pub type ScatterSeries = (String, Vec<(f64, f64)>, f64);

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// Scatter series per baseline.
        pub scatter: Vec<ScatterSeries>,
    }

    /// Summarize an existing sweep into Fig. 10.
    pub fn from_sweep(cli: &Cli, sweep: &FullSweep) -> Report {
        println!("Figure 10 — padding reduction vs WA reduction (Ali, Greedy)");
        let adapt = sweep.get(Scheme::Adapt, GcSelection::Greedy, "AliCloud").unwrap();
        let mut scatter = Vec::new();
        let mut rows = Vec::new();
        for baseline in [Scheme::Mida, Scheme::SepBit] {
            let base = sweep.get(baseline, GcSelection::Greedy, "AliCloud").unwrap();
            let comps = compare_volumes(adapt, base);
            let r = reduction_correlation(&comps);
            let points: Vec<(f64, f64)> =
                comps.iter().map(|c| (c.padding_reduction_pct, c.wa_reduction_pct)).collect();
            rows.push(vec![
                baseline.name().to_string(),
                format!("{r:.3}"),
                format!("{:.1}", points.iter().map(|p| p.0).sum::<f64>() / points.len() as f64),
                format!("{:.1}", points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64),
            ]);
            scatter.push((baseline.name().to_string(), points, r));
        }
        println!(
            "{}",
            render_table(&["baseline", "corr(pad,WA)", "mean padΔ%", "mean WAΔ%"], &rows)
        );
        let report = Report { scatter };
        write_report(cli, "figure10", &report);
        report
    }

    /// Regenerate Fig. 10 (runs the sweep).
    pub fn run(cli: &Cli) -> Report {
        let sweep = FullSweep::run(cli);
        from_sweep(cli, &sweep)
    }
}

/// Fig. 11 — sensitivity to access density (left) and Zipfian skew
/// (right), YCSB-A with Greedy GC.
pub mod fig11 {
    use super::*;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(intensity, scheme, WA)`.
        pub density: Vec<(String, String, f64)>,
        /// `(alpha, scheme, WA)`.
        pub skew: Vec<(f64, String, f64)>,
    }

    fn ycsb_run(cli: &Cli, run: &str, scheme: Scheme, cfg: &YcsbConfig) -> f64 {
        let replay = ReplayConfig::for_volume(cfg.num_blocks, GcSelection::Greedy);
        let r = crate::harness::replay_observed(cli, run, scheme, replay, 0, cfg.generator());
        r.wa()
    }

    /// Regenerate Fig. 11.
    pub fn run(cli: &Cli) -> Report {
        // Paper: 1 M blocks filled, WA measured over 10 M writes. Scaled.
        let blocks = ((1_000_000.0 * cli.scale) as u64).max(32 * 1024);
        let updates = ((10_000_000.0 * cli.scale) as u64).max(320 * 1024);
        println!("Figure 11 — sensitivity (YCSB-A, {blocks} blocks, {updates} updates)");
        let mut density = Vec::new();
        let mut rows = Vec::new();
        for intensity in
            [TrafficIntensity::Light, TrafficIntensity::Medium, TrafficIntensity::Heavy]
        {
            for scheme in Scheme::PAPER {
                let cfg = YcsbConfig {
                    num_blocks: blocks,
                    num_updates: updates,
                    zipf_alpha: 0.99,
                    read_ratio: 0.0,
                    arrival: intensity.arrival(),
                    blocks_per_request: 1,
                    distribution: AccessDistribution::Zipfian,
                    seed: FIGURE_SEED,
                };
                let run = format!("figure11-{}-{}", intensity.name(), scheme.name());
                let wa = ycsb_run(cli, &run, scheme, &cfg);
                density.push((intensity.name().to_string(), scheme.name().to_string(), wa));
                rows.push(vec![
                    intensity.name().to_string(),
                    scheme.name().to_string(),
                    format!("{wa:.3}"),
                ]);
            }
        }
        println!("{}", render_table(&["intensity", "scheme", "WA"], &rows));

        let mut skew = Vec::new();
        let mut rows = Vec::new();
        for alpha in [0.0, 0.3, 0.6, 0.9, 0.99] {
            for scheme in Scheme::PAPER {
                let cfg = YcsbConfig {
                    num_blocks: blocks,
                    num_updates: updates,
                    zipf_alpha: alpha,
                    read_ratio: 0.0,
                    arrival: TrafficIntensity::Medium.arrival(),
                    blocks_per_request: 1,
                    distribution: AccessDistribution::Zipfian,
                    seed: FIGURE_SEED,
                };
                let run = format!("figure11-a{alpha:.2}-{}", scheme.name());
                let wa = ycsb_run(cli, &run, scheme, &cfg);
                skew.push((alpha, scheme.name().to_string(), wa));
                rows.push(vec![
                    format!("{alpha:.2}"),
                    scheme.name().to_string(),
                    format!("{wa:.3}"),
                ]);
            }
        }
        println!("{}", render_table(&["alpha", "scheme", "WA"], &rows));
        let report = Report { density, skew };
        write_report(cli, "figure11", &report);
        report
    }
}

/// Fig. 12 — shared-array throughput (a) and memory overhead (b), from
/// the bandwidth model of [`adapt_sim::throughput`].
pub mod fig12 {
    use super::*;
    use adapt_sim::throughput::{replay_throughput, CLIENT_SERVICE_US, DEVICE_BYTES_PER_SEC};

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(clients, scheme, ops/s, WA, busiest-device bytes)`.
        pub throughput: Vec<(u64, String, f64, f64, u64)>,
        /// `(scheme, policy bytes, engine bytes)`.
        pub memory: Vec<(String, u64, u64)>,
    }

    /// Regenerate Fig. 12.
    pub fn run(cli: &Cli) -> Report {
        // A power of two: YCSB scatters Zipf ranks with an odd multiplier
        // modulo the volume, which reaches every block only when the two
        // are coprime (the YCSB-A preset's shares 375 with 48 000 blocks,
        // and the stream would touch 128 of them).
        let blocks = ((192_000.0 * cli.scale) as u64).max(24 * 1024).next_power_of_two();
        let ops = ((48_000.0 * cli.scale) as u64).max(6_000);
        println!(
            "Figure 12 — shared-array throughput & memory ({blocks} blocks, {ops} ops/client, \
             {CLIENT_SERVICE_US} µs/op/client, {:.0} MB/s/device)",
            DEVICE_BYTES_PER_SEC / 1e6
        );
        let mut throughput = Vec::new();
        let mut rows = Vec::new();
        // Fig. 12b reads the 4-client runs: ADAPT vs SepBIT (same group
        // count and lifespan machinery, per the paper).
        let mut memory = Vec::new();
        let mut events = Vec::new();
        for clients in [1, 4, 8] {
            for scheme in Scheme::PAPER {
                let r = replay_throughput(scheme, blocks, clients, ops, cli.event_config());
                let ops_per_sec = r.ops_per_sec(DEVICE_BYTES_PER_SEC);
                rows.push(vec![
                    clients.to_string(),
                    scheme.name().to_string(),
                    format!("{ops_per_sec:.0}"),
                    format!("{:.3}", r.wa),
                    format!("{:.1}", r.busiest_device_bytes as f64 / (1 << 20) as f64),
                ]);
                throughput.push((
                    clients,
                    scheme.name().to_string(),
                    ops_per_sec,
                    r.wa,
                    r.busiest_device_bytes,
                ));
                if cli.events {
                    let kinds = r.events.kinds.iter().map(|(k, n)| format!("{k} {n}"));
                    events.push(vec![
                        clients.to_string(),
                        scheme.name().to_string(),
                        kinds.collect::<Vec<_>>().join(", "),
                    ]);
                }
                if clients == 4 && matches!(scheme, Scheme::SepBit | Scheme::Adapt) {
                    memory.push((
                        scheme.name().to_string(),
                        r.policy_memory_bytes,
                        r.engine_memory_bytes,
                    ));
                }
            }
        }
        println!("{}", render_table(&["clients", "scheme", "ops/s", "WA", "busiest MiB"], &rows));
        if cli.events {
            println!("{}", render_table(&["clients", "scheme", "events (kind total)"], &events));
        }

        let mut rows = Vec::new();
        for (scheme, policy, engine) in &memory {
            rows.push(vec![
                scheme.clone(),
                format!("{:.1}", *policy as f64 / 1024.0),
                format!("{:.1}", *engine as f64 / 1024.0),
            ]);
        }
        println!("{}", render_table(&["scheme", "policy KiB", "engine KiB"], &rows));
        if let [(_, sepbit, _), (_, adapt, _)] = memory[..] {
            let overhead = (adapt as f64 / sepbit as f64 - 1.0) * 100.0;
            println!("ADAPT policy-memory overhead vs SepBIT: {overhead:+.1}%");
        }
        let report = Report { throughput, memory };
        write_report(cli, "figure12", &report);
        report
    }
}

/// GC victim-selection sweep: every scheme × the extended victim-policy
/// family (supports the §4.2 "universality" discussion).
pub mod gc_selection {
    use super::*;
    use adapt_sim::gc_sweep::{sweep_grid_geometries, victim_family};
    use adapt_sim::runner::requests_for;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(geometry, victim policy, scheme, overall WA)`.
        pub cells: Vec<(String, String, String, f64)>,
    }

    /// Run the sweep over a few Ali volumes on two array geometries: the
    /// invocation's (default 3+1) and a double-parity one. The whole
    /// `(geometry × victim × scheme × volume)` grid fans out on the pool
    /// at once.
    pub fn run(cli: &Cli) -> Report {
        let volumes = (cli.volumes() / 2).max(3);
        let suite = eval_suite(SuiteKind::Ali, volumes);
        println!("GC-selection sweep — Ali suite, {volumes} volumes");
        let schemes = [Scheme::SepGc, Scheme::SepBit, Scheme::Adapt];
        let victims = victim_family(FIGURE_SEED);
        let mut geometries = vec![cli.geometry.unwrap_or((0, 0))];
        if geometries[0] != (6, 2) {
            geometries.push((6, 2));
        }
        let grid =
            sweep_grid_geometries(&schemes, &victims, &suite.volumes, &geometries, requests_for);
        // Aggregate the flattened geometry-major grid back into
        // per-(geometry, victim, scheme) overall-WA cells, volumes
        // innermost.
        let mut cells = Vec::new();
        let mut rows = Vec::new();
        for (i, chunk) in grid.chunks(suite.volumes.len()).enumerate() {
            let per_geometry = victims.len() * schemes.len();
            let victim = victims[(i % per_geometry) / schemes.len()].name();
            let scheme = schemes[i % schemes.len()].name();
            let geometry = chunk[0].geometry.clone();
            let host: u64 = chunk.iter().map(|c| c.metrics.host_write_bytes).sum();
            let phys: u64 = chunk.iter().map(|c| c.metrics.physical_bytes()).sum();
            let wa = phys as f64 / host.max(1) as f64;
            rows.push(vec![
                geometry.clone(),
                victim.to_string(),
                scheme.to_string(),
                format!("{wa:.3}"),
            ]);
            cells.push((geometry, victim.to_string(), scheme.to_string(), wa));
        }
        println!("{}", render_table(&["geometry", "victim policy", "scheme", "overall WA"], &rows));
        let report = Report { cells };
        write_report(cli, "gc_selection", &report);
        report
    }
}

/// Multi-stream experiment: in-device WA with groups mapped to SSD
/// streams vs a single stream (§3.1's claim).
pub mod multistream {
    use super::*;
    use adapt_sim::multistream::replay_multistream;
    use adapt_sim::runner::requests_for;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(scheme, multi_stream, array WA, in-device WA)`.
        pub cells: Vec<(String, bool, f64, f64)>,
    }

    /// Run the experiment over a few Ali volumes.
    pub fn run(cli: &Cli) -> Report {
        let volumes = (cli.volumes() / 3).max(2);
        let suite = eval_suite(SuiteKind::Ali, volumes);
        println!("Multi-stream sweep — Ali suite, {volumes} volumes, FTL-modeled SSDs");
        let mut cells = Vec::new();
        let mut rows = Vec::new();
        for scheme in [Scheme::SepGc, Scheme::SepBit, Scheme::Adapt] {
            for multi in [false, true] {
                let mut host = 0.0;
                let mut dev = 0.0;
                let mut arr = 0.0;
                for vol in &suite.volumes {
                    let cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
                    let r = replay_multistream(scheme, cfg, multi, vol.trace(requests_for(vol)));
                    host += 1.0;
                    dev += r.in_device_wa;
                    arr += r.array_wa;
                }
                let dev_wa = dev / host;
                let arr_wa = arr / host;
                cells.push((scheme.name().to_string(), multi, arr_wa, dev_wa));
                rows.push(vec![
                    scheme.name().to_string(),
                    if multi { "per-group".into() } else { "single".to_string() },
                    format!("{arr_wa:.3}"),
                    format!("{dev_wa:.3}"),
                ]);
            }
        }
        println!("{}", render_table(&["scheme", "streams", "array WA", "in-device WA"], &rows));
        let report = Report { cells };
        write_report(cli, "multistream", &report);
        report
    }
}

/// Durability-latency experiment: time-to-persistence distribution per
/// scheme (the SLA-compliance view of the coalescing design).
pub mod latency {
    use super::*;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(scheme, mean µs, p99-upper µs, fraction within 128 µs)`.
        pub cells: Vec<(String, f64, u64, f64)>,
    }

    /// Run over the Ali evaluation selection.
    pub fn run(cli: &Cli) -> Report {
        let suite = eval_suite(SuiteKind::Ali, cli.volumes());
        println!("Durability latency — Ali suite, Greedy GC");
        let mut cells = Vec::new();
        let mut rows = Vec::new();
        for scheme in Scheme::PAPER {
            let r = run_suite(scheme, GcSelection::Greedy, &suite, None);
            let mut merged = adapt_lss::LatencyHistogram::default();
            for v in &r.volumes {
                merged.merge(&v.metrics.durability_latency);
            }
            let within = merged.fraction_within(128);
            cells.push((
                scheme.name().to_string(),
                merged.mean_us(),
                merged.quantile_upper_us(0.99),
                within,
            ));
            rows.push(vec![
                scheme.name().to_string(),
                format!("{:.1}", merged.mean_us()),
                format!("{}", merged.quantile_upper_us(0.99)),
                format!("{:.1}%", within * 100.0),
            ]);
        }
        println!("{}", render_table(&["scheme", "mean µs", "p99≤ µs", "within 128 µs"], &rows));
        let report = Report { cells };
        write_report(cli, "latency", &report);
        report
    }
}

/// Ablation study: ADAPT with each mechanism disabled, Ali suite.
pub mod ablation {
    use super::*;

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// `(variant, overall WA, padding ratio)`.
        pub variants: Vec<(String, f64, f64)>,
    }

    /// Run the ablation sweep.
    pub fn run(cli: &Cli) -> Report {
        let suite = eval_suite(SuiteKind::Ali, cli.volumes());
        println!("Ablation — ADAPT mechanisms, Ali suite, Greedy GC");
        let mut variants = Vec::new();
        let mut rows = Vec::new();
        for scheme in Scheme::ABLATIONS {
            let r = run_suite(scheme, GcSelection::Greedy, &suite, None);
            variants.push((scheme.name().to_string(), r.overall_wa(), r.overall_padding_ratio()));
            rows.push(vec![
                scheme.name().to_string(),
                format!("{:.3}", r.overall_wa()),
                format!("{:.1}%", r.overall_padding_ratio() * 100.0),
            ]);
        }
        println!("{}", render_table(&["variant", "overall WA", "pad ratio"], &rows));
        let report = Report { variants };
        write_report(cli, "ablation", &report);
        report
    }
}

/// Fault scenario — mid-trace device failure, degraded service via parity
/// reconstruction, incremental rebuild onto a spare. Reports WA, padding,
/// and durability-latency deltas between the healthy, degraded,
/// rebuilding, and restored phases.
pub mod faults {
    use super::*;
    use crate::harness::gate;
    use adapt_sim::faults::{run_fault_scenario, FaultScenario};
    use adapt_sim::runner::requests_for;

    /// Per-phase metrics for one scheme × fault leg.
    #[derive(Serialize)]
    pub struct PhaseRow {
        /// Scheme name.
        pub scheme: String,
        /// Array geometry the leg ran on (`k+m`).
        pub geometry: String,
        /// Fault leg: `single` or `double`.
        pub leg: String,
        /// Phase name (healthy/degraded/rebuilding/restored).
        pub phase: String,
        /// Records replayed in the phase.
        pub records: u64,
        /// Write amplification over the phase.
        pub wa: f64,
        /// Padding ratio over the phase.
        pub padding_ratio: f64,
        /// Mean request latency (µs).
        pub mean_latency_us: f64,
        /// Reads served by parity/RS reconstruction.
        pub degraded_reads: u64,
        /// Bytes materialized through decode paths.
        pub reconstructed_bytes: u64,
    }

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// Per-phase metrics for each scheme × fault leg.
        pub phases: Vec<PhaseRow>,
        /// `(scheme, geometry, leg, readable, reconstructed, buffered
        /// tail, lost)` from the degraded-phase live-LBA sweep.
        pub verify: Vec<(String, String, String, u64, u64, u64, u64)>,
        /// `(scheme, geometry, leg, rebuild bytes, rebuild host ops)`.
        pub rebuild: Vec<(String, String, String, u64, u64)>,
    }

    /// Run both fault legs for SepGC and ADAPT on one Ali volume:
    /// a single device failure on the invocation's geometry, and a
    /// correlated double failure on a double-parity geometry (the
    /// `--geometry` override when it carries `m >= 2`, else 4+2).
    /// Each leg is gated: any lost live LBA or a rebuild that never
    /// restores the array exits nonzero.
    pub fn run(cli: &Cli) -> Report {
        let suite = eval_suite(SuiteKind::Ali, cli.volumes());
        let vol = &suite.volumes[0];
        let requests = requests_for(vol);
        let double_geometry = match cli.geometry {
            Some((n, m)) if m >= 2 => (n, m),
            _ => (6, 2),
        };
        println!(
            "Fault scenarios — volume {} ({} blocks, {} requests), failures at 50%",
            vol.id, vol.unique_blocks, requests
        );
        let mut phases = Vec::new();
        let mut verify = Vec::new();
        let mut rebuild = Vec::new();
        let mut rows = Vec::new();
        for scheme in [Scheme::SepGc, Scheme::Adapt] {
            let single = {
                let mut cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
                cfg.lss = cli.apply_geometry(cfg.lss);
                FaultScenario::midpoint_failure(cfg, 0)
            };
            let double = {
                let mut cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
                cfg.lss = cfg.lss.with_geometry(double_geometry.0, double_geometry.1);
                FaultScenario::double_fault(cfg, 0, 2)
            };
            for (leg, scenario) in [("single", single), ("double", double)] {
                let r = run_fault_scenario(scheme, scenario, vol.trace(requests));
                for p in &r.phases {
                    phases.push(PhaseRow {
                        scheme: scheme.name().to_string(),
                        geometry: r.geometry.clone(),
                        leg: leg.to_string(),
                        phase: p.phase.clone(),
                        records: p.records,
                        wa: p.wa(),
                        padding_ratio: p.padding_ratio(),
                        mean_latency_us: p.mean_latency_us(),
                        degraded_reads: p.metrics.degraded_reads,
                        reconstructed_bytes: p.metrics.reconstructed_bytes,
                    });
                    rows.push(vec![
                        scheme.name().to_string(),
                        r.geometry.clone(),
                        leg.to_string(),
                        p.phase.clone(),
                        format!("{}", p.records),
                        format!("{:.3}", p.wa()),
                        format!("{:.1}%", p.padding_ratio() * 100.0),
                        format!("{:.1}", p.mean_latency_us()),
                        format!("{}", p.metrics.degraded_reads),
                        format!("{:.1}", p.metrics.reconstructed_bytes as f64 / (1 << 20) as f64),
                    ]);
                }
                verify.push((
                    scheme.name().to_string(),
                    r.geometry.clone(),
                    leg.to_string(),
                    r.verify.readable,
                    r.verify.reconstructed,
                    r.verify.buffered_tail,
                    r.verify.lost,
                ));
                rebuild.push((
                    scheme.name().to_string(),
                    r.geometry.clone(),
                    leg.to_string(),
                    r.rebuild_bytes,
                    r.rebuild_ops,
                ));
                let tag = format!("{}/{}/{}", scheme.name(), r.geometry, leg);
                gate(
                    r.verify.lost == 0,
                    &format!("{tag}: no acknowledged live LBA lost ({:?})", r.verify),
                );
                gate(
                    r.phase("restored").is_some(),
                    &format!("{tag}: rebuild completed and the array was restored"),
                );
                gate(
                    r.verify.reconstructed > 0,
                    &format!("{tag}: degraded reads were actually served via decode"),
                );
            }
        }
        println!(
            "{}",
            render_table(
                &[
                    "scheme",
                    "geometry",
                    "leg",
                    "phase",
                    "records",
                    "WA",
                    "pad",
                    "lat µs",
                    "degr rd",
                    "recon MiB"
                ],
                &rows
            )
        );
        let mut vrows = Vec::new();
        for (s, g, leg, readable, recon, tail, lost) in &verify {
            vrows.push(vec![
                s.clone(),
                g.clone(),
                leg.clone(),
                format!("{readable}"),
                format!("{recon}"),
                format!("{tail}"),
                format!("{lost}"),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "scheme",
                    "geometry",
                    "leg",
                    "readable",
                    "reconstructed",
                    "buffered tail",
                    "lost"
                ],
                &vrows
            )
        );
        let report = Report { phases, verify, rebuild };
        write_report(cli, "faults", &report);
        report
    }
}

/// Scrub scenario — silent-corruption bursts injected mid-trace, caught by
/// verify-on-read and the paced background scrub, healed in place from
/// stripe survivors. Reports detection coverage (must be 100%), heal
/// counts, detection latency, and the post-mortem live-LBA sweep.
pub mod scrub {
    use super::*;
    use crate::harness::gate;
    use adapt_sim::runner::requests_for;
    use adapt_sim::scrub::{run_scrub_scenario, ScrubScenario};

    /// One scheme's scrub outcome.
    #[derive(Serialize)]
    pub struct SchemeRow {
        /// Scheme name.
        pub scheme: String,
        /// Array geometry the run used (`k+m`).
        pub geometry: String,
        /// Corruptions injected.
        pub injected: u64,
        /// Corruptions detected (must equal `injected`).
        pub detected: u64,
        /// Corruptions healed in place.
        pub healed: u64,
        /// Corruptions beyond repair (second fault in stripe).
        pub unrecoverable: u64,
        /// Corruptions never noticed (must be zero).
        pub undetected: u64,
        /// Mean array ops from injection to detection.
        pub mean_detection_latency_ops: f64,
        /// Chunks the paced scrub verified during the replay.
        pub chunks_scrubbed: u64,
        /// Live LBAs the post-mortem sweep could not serve (must be zero).
        pub live_lost: u64,
    }

    /// JSON payload.
    #[derive(Serialize)]
    pub struct Report {
        /// Per-scheme scrub outcomes.
        pub schemes: Vec<SchemeRow>,
    }

    /// Run the scrub scenario for SepGC and ADAPT on one Ali volume,
    /// on the invocation's geometry and again on a double-parity one
    /// (the `--geometry` override when it carries `m >= 2`, else 4+2).
    /// Detection coverage and in-place healing are gated: an undetected
    /// or unhealed corruption exits nonzero.
    pub fn run(cli: &Cli) -> Report {
        let suite = eval_suite(SuiteKind::Ali, cli.volumes());
        let vol = &suite.volumes[0];
        let requests = requests_for(vol);
        let double_geometry = match cli.geometry {
            Some((n, m)) if m >= 2 => (n, m),
            _ => (6, 2),
        };
        println!(
            "Scrub scenario — volume {} ({} blocks, {} requests), corruption bursts + paced scrub",
            vol.id, vol.unique_blocks, requests
        );
        let mut schemes = Vec::new();
        let mut rows = Vec::new();
        for scheme in [Scheme::SepGc, Scheme::Adapt] {
            for double_parity in [false, true] {
                let mut cfg = ReplayConfig::for_volume(vol.unique_blocks, GcSelection::Greedy);
                cfg.lss = if double_parity {
                    cfg.lss.with_geometry(double_geometry.0, double_geometry.1)
                } else {
                    cli.apply_geometry(cfg.lss)
                };
                let scenario = ScrubScenario::bursts_with_scrub(cfg);
                let r = run_scrub_scenario(scheme, scenario, vol.trace(requests));
                let tag = format!("{}/{}", scheme.name(), r.geometry);
                gate(r.injected > 0, &format!("{tag}: scenario injected corruption"));
                gate(
                    r.is_clean(),
                    &format!(
                        "{tag}: every corruption detected and healed, no live LBA lost \
                         (detected {}/{} healed {} unrecoverable {} undetected {} lost {} \
                         drift {:?})",
                        r.detected,
                        r.injected,
                        r.healed,
                        r.unrecoverable,
                        r.undetected,
                        r.live_lost,
                        r.recovery_drift
                    ),
                );
                rows.push(vec![
                    scheme.name().to_string(),
                    r.geometry.clone(),
                    format!("{}", r.injected),
                    format!("{}", r.detected),
                    format!("{}", r.healed),
                    format!("{}", r.unrecoverable),
                    format!("{}", r.undetected),
                    format!("{:.0}", r.mean_detection_latency_ops),
                    format!("{}", r.metrics.chunks_scrubbed),
                    format!("{}", r.live_lost),
                ]);
                schemes.push(SchemeRow {
                    scheme: scheme.name().to_string(),
                    geometry: r.geometry.clone(),
                    injected: r.injected,
                    detected: r.detected,
                    healed: r.healed,
                    unrecoverable: r.unrecoverable,
                    undetected: r.undetected,
                    mean_detection_latency_ops: r.mean_detection_latency_ops,
                    chunks_scrubbed: r.metrics.chunks_scrubbed,
                    live_lost: r.live_lost,
                });
            }
        }
        println!(
            "{}",
            render_table(
                &[
                    "scheme",
                    "geometry",
                    "injected",
                    "detected",
                    "healed",
                    "unrecov",
                    "undetected",
                    "latency ops",
                    "scrubbed",
                    "lost"
                ],
                &rows
            )
        );
        let report = Report { schemes };
        write_report(cli, "scrub", &report);
        report
    }
}
