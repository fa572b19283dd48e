//! Shared plumbing for the figure regenerators.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index). They share a common
//! command-line convention:
//!
//! * `--scale <f>` — scale workload sizes (volume count, request counts)
//!   by `f`; default 0.25 for minutes-scale runs, `--scale 1` reproduces
//!   the paper-sized configuration.
//! * `--out <dir>` — where JSON reports land (default `results/`).
//! * `--jobs <n>` — worker threads for the parallel sweep engine (also
//!   the `ADAPT_JOBS` environment variable; default: all cores). Results
//!   are bit-identical at any job count — the knob only changes
//!   wall-clock.
//!
//! Figures print their series as aligned text tables *and* write JSON so
//! EXPERIMENTS.md can be assembled mechanically.

#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;
pub mod perf;
pub mod saturation;
pub mod sweep;

use adapt_lss::EventConfig;
use adapt_sim::Scheme;
use adapt_trace::{SuiteKind, WorkloadSuite};

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale factor (1.0 = paper-sized).
    pub scale: f64,
    /// Output directory for JSON reports.
    pub out_dir: String,
    /// CI smoke mode (`--quick`): shrink workloads to seconds-scale.
    pub quick: bool,
    /// Capture the structured event stream and write per-run telemetry
    /// reports next to the figure JSON (`--events`).
    pub events: bool,
    /// Explicit worker-thread count for the parallel sweep engine
    /// (`--jobs N`; `None` = `ADAPT_JOBS` or all cores). Already installed
    /// into the pool by [`Cli::parse`]; kept here for display.
    pub jobs: Option<usize>,
    /// Array-geometry override as `(devices, parity)`, from `--geometry
    /// k+m` (`k+m` matches the report labels, e.g. `4+2` = 6 devices with
    /// double parity). `None` keeps each experiment's default (the
    /// historical 4-disk RAID-5).
    pub geometry: Option<(usize, usize)>,
}

impl Cli {
    /// Parse `--scale`, `--out`, `--quick`, `--events`, `--jobs` and
    /// `--geometry` from `std::env::args` (`ADAPT_JOBS` is resolved inside
    /// the pool itself).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// [`Cli::parse`] over an explicit argument list (the program name
    /// already dropped), for bins that first take out a flag of their own.
    pub fn parse_from(args: Vec<String>) -> Self {
        let mut scale = 0.25;
        let mut out_dir = "results".to_string();
        let mut quick = false;
        let mut events = false;
        let mut jobs = None;
        let mut geometry = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale =
                        args.get(i).and_then(|s| s.parse().ok()).expect("--scale needs a number");
                }
                "--out" => {
                    i += 1;
                    out_dir = args.get(i).expect("--out needs a path").clone();
                }
                "--jobs" => {
                    i += 1;
                    let n: usize = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--jobs needs a positive integer");
                    jobs = Some(n);
                }
                "--quick" => quick = true,
                "--events" => events = true,
                "--geometry" => {
                    i += 1;
                    let s = args.get(i).expect("--geometry needs k+m (e.g. 4+2)");
                    geometry = Some(parse_geometry(s));
                }
                other => {
                    panic!(
                        "unknown argument {other} \
                         (expected --scale/--out/--quick/--events/--jobs/--geometry)"
                    )
                }
            }
            i += 1;
        }
        assert!(scale > 0.0, "--scale must be positive");
        if quick {
            // One shared interpretation for every figure bin: the smallest
            // scale the volume clamp admits. Bins with bespoke workloads
            // (e.g. `perf`) additionally consult `quick` directly.
            scale = f64::min(scale, 0.02);
        }
        if let Some(n) = jobs {
            rayon::set_jobs(n);
        }
        Self { scale, out_dir, quick, events, jobs, geometry }
    }

    /// Apply the geometry override (if any) to an engine config.
    pub fn apply_geometry(&self, cfg: adapt_lss::LssConfig) -> adapt_lss::LssConfig {
        match self.geometry {
            Some((n, m)) => cfg.with_geometry(n, m),
            None => cfg,
        }
    }

    /// Label of the geometry this invocation runs experiments on
    /// (`"k+m"`; the default geometry when no override is set).
    pub fn geometry_label(&self) -> String {
        self.apply_geometry(adapt_lss::LssConfig::default()).array_config().geometry().label()
    }

    /// Volumes per suite at this scale (paper: 50).
    pub fn volumes(&self) -> usize {
        ((50.0 * self.scale).round() as usize).clamp(4, 50)
    }

    /// The engine event configuration this invocation selects.
    pub fn event_config(&self) -> EventConfig {
        if self.events {
            EventConfig::enabled()
        } else {
            EventConfig::default()
        }
    }
}

/// Parse a `k+m` geometry label (data columns + parity chunks) into the
/// `(devices, parity)` pair [`adapt_lss::LssConfig::with_geometry`]
/// takes. Panics on malformed or out-of-range input — a bad geometry
/// should stop a bench run, not silently fall back.
pub fn parse_geometry(s: &str) -> (usize, usize) {
    let (k, m) = s
        .split_once('+')
        .and_then(|(k, m)| Some((k.trim().parse::<usize>().ok()?, m.trim().parse::<usize>().ok()?)))
        .unwrap_or_else(|| panic!("geometry must be k+m (e.g. 4+2), got {s:?}"));
    assert!(k >= 2, "geometry {s}: need at least two data columns");
    assert!(m >= 1, "geometry {s}: need at least one parity chunk");
    assert!(k + m <= 255, "geometry {s}: GF(256) supports at most 255 devices");
    (k + m, m)
}

/// Seed shared by every figure so suites are consistent across binaries.
pub const FIGURE_SEED: u64 = 0x20_26;

/// Minimum mean request rate (req/s) for the evaluation selection used by
/// the WA experiments (see `WorkloadSuite::evaluation_selection`).
pub const EVAL_MIN_RATE: f64 = 20.0;

/// The evaluation selection of a suite at the given scale.
pub fn eval_suite(kind: SuiteKind, volumes: usize) -> WorkloadSuite {
    WorkloadSuite::evaluation_selection(kind, FIGURE_SEED, volumes, EVAL_MIN_RATE)
}

/// Pretty percent formatting for reduction tables.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// The scheme order used in every figure.
pub fn paper_schemes() -> [Scheme; 6] {
    Scheme::PAPER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volumes_scale_and_clamp() {
        let mk = |scale| Cli {
            scale,
            out_dir: String::new(),
            quick: false,
            events: false,
            jobs: None,
            geometry: None,
        };
        assert_eq!(mk(1.0).volumes(), 50);
        assert_eq!(mk(0.25).volumes(), 13);
        assert_eq!(mk(0.01).volumes(), 4);
        assert_eq!(mk(5.0).volumes(), 50);
    }

    #[test]
    fn eval_suite_respects_rate_floor() {
        let s = eval_suite(SuiteKind::Ali, 5);
        assert_eq!(s.volumes.len(), 5);
        assert!(s.volumes.iter().all(|v| v.mean_rate_per_sec() >= EVAL_MIN_RATE));
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(12.34), "+12.3%");
        assert_eq!(pct(-3.0), "-3.0%");
    }

    #[test]
    fn geometry_parses_and_labels() {
        assert_eq!(parse_geometry("4+2"), (6, 2));
        assert_eq!(parse_geometry("3+1"), (4, 1));
        assert_eq!(parse_geometry(" 10 + 4 "), (14, 4));
        let cli = Cli {
            scale: 1.0,
            out_dir: String::new(),
            quick: false,
            events: false,
            jobs: None,
            geometry: Some((6, 2)),
        };
        assert_eq!(cli.geometry_label(), "4+2");
        assert_eq!(cli.apply_geometry(adapt_lss::LssConfig::default()).array_parity, 2);
        let plain = Cli { geometry: None, ..cli };
        assert_eq!(plain.geometry_label(), "3+1");
    }

    #[test]
    #[should_panic]
    fn malformed_geometry_is_rejected() {
        parse_geometry("42");
    }
}
