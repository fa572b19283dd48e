//! Fault-scenario replay: a trace with a scripted mid-run device failure.
//!
//! Replays a volume through the engine on a modelled [`InMemoryArray`]
//! sink (one byte kept per chunk, every counter charged in full), fails
//! one device partway through, lets the array run degraded, then drives
//! an incremental rebuild onto a spare while the trace continues. The
//! run is split into four measurement phases — healthy, degraded,
//! rebuilding, restored — each with its own [`LssMetrics`] window, so
//! WA, padding, degraded-read, and durability-latency deltas between
//! phases fall straight out of the report.
//!
//! A verification sweep at the end of the degraded window reads every
//! live LBA: blocks on the failed device must be served via parity
//! reconstruction. Blocks whose chunk sits in the still-open tail stripe
//! (parity not yet committed) are classified separately — deployed
//! log-structured arrays hold the open stripe in controller NVRAM until
//! its parity lands, so those blocks are buffer-served, not lost.

use crate::replay::{drive_with, ReplayConfig};
use crate::scheme::{Scheme, SchemePolicy};
use adapt_array::{ArrayError, ArraySink, ArrayStats, FaultPlan, InMemoryArray};
use adapt_lss::{EngineError, Lss, LssMetrics};
use adapt_trace::TraceRecord;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// Scripted fault scenario.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Engine/GC/warm-up configuration (shared with healthy replays).
    pub replay: ReplayConfig,
    /// Device to fail.
    pub fail_device: usize,
    /// A second device failed at the same instant as `fail_device` —
    /// a correlated double fault (shared shelf, power domain, or firmware
    /// batch). `None` is the classic single-fault scenario. Arrays need
    /// `m >= 2` parity chunks to ride this out.
    pub second_fail_device: Option<usize>,
    /// Fraction of the trace after which the device fails (0.0–1.0).
    pub fail_at_frac: f64,
    /// Trace records to replay degraded before the rebuild starts
    /// (models failure-detection plus spare-attach delay).
    pub degraded_records: u64,
    /// Stripes rebuilt per trace record once rebuild runs (the rebuild
    /// bandwidth knob: higher = faster rebuild, more competing I/O).
    pub rebuild_stripes_per_record: u64,
    /// Per-read transient-error probability during the whole run.
    pub transient_read_prob: f64,
    /// Fault-plan RNG seed.
    pub seed: u64,
}

impl FaultScenario {
    /// A scenario with the paper-style defaults: fail at 50% of the
    /// trace, detect after 256 records, rebuild 4 stripes per record.
    pub fn midpoint_failure(replay: ReplayConfig, fail_device: usize) -> Self {
        Self {
            replay,
            fail_device,
            second_fail_device: None,
            fail_at_frac: 0.5,
            degraded_records: 256,
            rebuild_stripes_per_record: 4,
            transient_read_prob: 0.0,
            seed: 0x5eed,
        }
    }

    /// A correlated double fault at the midpoint: both devices drop at
    /// the same instant. Within the fault budget of an `m >= 2` code this
    /// runs the same four phases as the single-fault scenario (both
    /// spares rebuild in one sweep); past the budget the run stops at a
    /// terminal `"data-loss"` phase with the loss quantified in
    /// [`FaultReport::verify`].
    pub fn double_fault(replay: ReplayConfig, first: usize, second: usize) -> Self {
        assert_ne!(first, second, "a double fault needs two distinct devices");
        Self { second_fail_device: Some(second), ..Self::midpoint_failure(replay, first) }
    }
}

/// Metrics for one phase of the scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase label: "healthy", "degraded", "rebuilding", "restored".
    pub phase: String,
    /// Trace records replayed in this phase.
    pub records: u64,
    /// Engine metrics over the phase window.
    pub metrics: LssMetrics,
}

impl PhaseReport {
    /// Write amplification (with padding) over this phase.
    pub fn wa(&self) -> f64 {
        self.metrics.wa()
    }

    /// Padding share of physical bytes over this phase.
    pub fn padding_ratio(&self) -> f64 {
        self.metrics.padding_ratio()
    }

    /// Mean durability latency (µs) over this phase.
    pub fn mean_latency_us(&self) -> f64 {
        self.metrics.durability_latency.mean_us()
    }
}

/// Outcome of the degraded-phase verification sweep.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct VerifySweep {
    /// Live LBAs whose chunk read succeeded (direct or reconstructed).
    pub readable: u64,
    /// Live LBAs served via parity reconstruction.
    pub reconstructed: u64,
    /// Live LBAs in the open tail stripe (parity not committed yet) —
    /// served from the controller's stripe buffer, not lost.
    pub buffered_tail: u64,
    /// Live LBAs that could not be served at all. Must be zero for any
    /// scenario whose simultaneous failures stay within the code's parity
    /// budget `m`.
    pub lost: u64,
}

/// Full scenario report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultReport {
    /// Scheme used.
    pub scheme: Scheme,
    /// Array geometry label (`"k+m"`, e.g. `"3+1"` or `"6+2"`).
    pub geometry: String,
    /// The scenario that ran.
    pub scenario: FaultScenario,
    /// Per-phase metric windows, in run order.
    pub phases: Vec<PhaseReport>,
    /// Degraded-phase verification sweep over every live LBA.
    pub verify: VerifySweep,
    /// Trace records whose reads failed mid-replay (tail-stripe chunks on
    /// the failed device; see module docs).
    pub failed_reads: u64,
    /// Bytes moved by the rebuild (survivor reads + spare writes).
    pub rebuild_bytes: u64,
    /// Host block ops between rebuild start and completion.
    pub rebuild_ops: u64,
    /// Array counters at the end of the run.
    pub array: ArrayStats,
}

impl FaultReport {
    /// Find a phase window by label.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.phase == name)
    }
}

/// Where the scripted fault stands; advanced by the per-record hook.
enum Stage {
    Healthy,
    Degraded { remaining: u64 },
    Rebuilding,
    Restored,
    Lost,
}

/// Read every live LBA once, classifying how each was served — the one
/// verification sweep the fault and scrub scenarios share.
pub(crate) fn verify_live_lbas(
    engine: &mut Lss<SchemePolicy, InMemoryArray>,
    user_blocks: u64,
) -> VerifySweep {
    let mut sweep = VerifySweep::default();
    let now = engine.now_us();
    for lba in 0..user_blocks {
        let before = engine.metrics().degraded_reads;
        match engine.try_read_request(now, lba, 1) {
            Ok(()) => {
                sweep.readable += 1;
                if engine.metrics().degraded_reads > before {
                    sweep.reconstructed += 1;
                }
            }
            Err(EngineError::Array(ArrayError::Unreconstructable { loc })) => {
                if loc.stripe >= engine.sink().stats().stripes_completed {
                    sweep.buffered_tail += 1;
                } else {
                    sweep.lost += 1;
                }
            }
            Err(_) => sweep.lost += 1,
        }
    }
    sweep
}

/// Run a fault scenario for one scheme over a trace.
pub fn run_fault_scenario<I>(scheme: Scheme, scenario: FaultScenario, trace: I) -> FaultReport
where
    I: Iterator<Item = TraceRecord>,
{
    let trace: Vec<TraceRecord> = trace.collect();
    let cfg = scenario.replay;
    let plan = FaultPlan::new(scenario.seed).with_transient_read_prob(scenario.transient_read_prob);
    let sink = InMemoryArray::modelled(cfg.lss.array_config(), plan);
    let mut engine = cfg.engine(scheme.policy(&cfg.lss), sink);

    let fail_at = (trace.len() as f64 * scenario.fail_at_frac.clamp(0.0, 1.0)) as u64;
    let mut failed_reads = 0u64;
    let mut phases: Vec<PhaseReport> = Vec::with_capacity(4);
    let mut phase_records = 0u64;
    let mut verify = VerifySweep::default();
    let mut rebuild_ops_window = 0u64;
    let mut stage = Stage::Healthy;

    let snapshot = |engine: &mut Lss<SchemePolicy, InMemoryArray>,
                    phases: &mut Vec<PhaseReport>,
                    records: &mut u64,
                    name: &str| {
        phases.push(PhaseReport {
            phase: name.to_string(),
            records: *records,
            metrics: engine.metrics().clone(),
        });
        engine.reset_metrics();
        *records = 0;
    };

    drive_with(&mut engine, &cfg, trace, |engine, i, read| {
        match read {
            Ok(()) => {}
            // Open tail stripe on the failed device: buffer-served in
            // deployment (stripe not yet acknowledged to the log).
            Err(EngineError::Array(ArrayError::Unreconstructable { .. })) => failed_reads += 1,
            Err(e) => panic!("unexpected engine fault during scenario: {e}"),
        }
        phase_records += 1;
        match stage {
            Stage::Healthy if i + 1 >= fail_at => {
                snapshot(engine, &mut phases, &mut phase_records, "healthy");
                engine.sink_mut().fail_device(scenario.fail_device);
                if let Some(second) = scenario.second_fail_device {
                    engine.sink_mut().fail_device(second);
                }
                let budget = engine.sink().config().parity_devices;
                if engine.sink().failed_devices().len() > budget {
                    // Past the code's fault budget: no rebuild can run
                    // and continuing the replay would only churn an
                    // array that has already lost data. Quantify the
                    // damage with the verify sweep and stop at a
                    // terminal phase.
                    verify = verify_live_lbas(engine, cfg.lss.user_blocks);
                    snapshot(engine, &mut phases, &mut phase_records, "data-loss");
                    stage = Stage::Lost;
                    return ControlFlow::Break(());
                }
                stage = Stage::Degraded { remaining: scenario.degraded_records };
            }
            Stage::Degraded { ref mut remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                } else {
                    // Verify every live LBA is still serviceable before
                    // the rebuild begins repairing the array.
                    verify = verify_live_lbas(engine, cfg.lss.user_blocks);
                    snapshot(engine, &mut phases, &mut phase_records, "degraded");
                    engine
                        .sink_mut()
                        .start_rebuild_all()
                        .expect("within-budget fault must start its rebuild");
                    stage = Stage::Rebuilding;
                }
            }
            Stage::Rebuilding => {
                rebuild_ops_window += 1;
                let progress = engine
                    .sink_mut()
                    .rebuild_step(scenario.rebuild_stripes_per_record as usize)
                    .expect("rebuild step");
                if progress.complete {
                    snapshot(engine, &mut phases, &mut phase_records, "rebuilding");
                    stage = Stage::Restored;
                }
            }
            _ => {}
        }
        ControlFlow::Continue(())
    });
    // A short trace can end before a stage boundary fires; close out
    // whatever window is open under its stage name. A data-loss run
    // already snapshotted its terminal phase before breaking out.
    let open = match stage {
        Stage::Lost => None,
        Stage::Healthy => Some("healthy"),
        Stage::Degraded { .. } => Some("degraded"),
        Stage::Rebuilding => Some("rebuilding"),
        Stage::Restored => Some("restored"),
    };
    if let Some(name) = open {
        snapshot(&mut engine, &mut phases, &mut phase_records, name);
    }

    // Engine-side rebuild metrics live in whichever window saw the
    // healthy transition; take the op-count fallback from the driver.
    let rebuild_ops = phases
        .iter()
        .map(|p| p.metrics.rebuild_ops)
        .max()
        .filter(|&v| v > 0)
        .unwrap_or(rebuild_ops_window);
    FaultReport {
        scheme,
        geometry: engine.sink().config().geometry().label(),
        scenario,
        phases,
        verify,
        failed_reads,
        rebuild_bytes: engine.sink().stats().rebuild_bytes(),
        rebuild_ops,
        array: engine.sink().stats().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_lss::GcSelection;
    use adapt_trace::arrival::ArrivalModel;
    use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};

    fn trace(updates: u64, read_ratio: f64) -> impl Iterator<Item = TraceRecord> {
        YcsbConfig {
            num_blocks: 8192,
            num_updates: updates,
            zipf_alpha: 0.9,
            read_ratio,
            arrival: ArrivalModel::Fixed { gap_us: 5 },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 11,
        }
        .generator()
    }

    fn scenario() -> FaultScenario {
        FaultScenario::midpoint_failure(ReplayConfig::for_volume(8192, GcSelection::Greedy), 0)
    }

    fn raid6_scenario(first: usize, second: usize) -> FaultScenario {
        let mut replay = ReplayConfig::for_volume(8192, GcSelection::Greedy);
        replay.lss = replay.lss.with_geometry(6, 2);
        FaultScenario::double_fault(replay, first, second)
    }

    #[test]
    fn scenario_runs_through_all_phases() {
        let r = run_fault_scenario(Scheme::SepGc, scenario(), trace(60_000, 0.3));
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["healthy", "degraded", "rebuilding", "restored"]);
        assert_eq!(r.geometry, "3+1");
        // Degraded phase actually served reconstructed reads.
        let degraded = r.phase("degraded").unwrap();
        assert!(degraded.metrics.degraded_reads > 0, "no degraded reads: {:?}", degraded.metrics);
        assert!(degraded.metrics.reconstructed_bytes > 0);
        // Healthy phase saw none.
        assert_eq!(r.phase("healthy").unwrap().metrics.degraded_reads, 0);
        // Rebuild moved bytes and completed.
        assert!(r.rebuild_bytes > 0);
        assert!(r.rebuild_ops > 0);
        assert!(r.array.rebuilt_chunks > 0);
    }

    #[test]
    fn no_live_lba_is_lost_under_single_fault() {
        let r = run_fault_scenario(Scheme::SepGc, scenario(), trace(60_000, 0.2));
        assert_eq!(r.verify.lost, 0, "verify {:?}", r.verify);
        assert!(r.verify.readable > 0);
        assert!(r.verify.reconstructed > 0, "nothing reconstructed");
    }

    #[test]
    fn adapt_scheme_survives_failure_too() {
        let r = run_fault_scenario(Scheme::Adapt, scenario(), trace(50_000, 0.25));
        assert_eq!(r.verify.lost, 0);
        assert_eq!(
            r.phases.iter().map(|p| p.phase.as_str()).collect::<Vec<_>>(),
            ["healthy", "degraded", "rebuilding", "restored"]
        );
    }

    #[test]
    fn write_only_trace_still_rebuilds() {
        let r = run_fault_scenario(Scheme::SepGc, scenario(), trace(60_000, 0.0));
        assert_eq!(r.verify.lost, 0);
        assert!(r.rebuild_bytes > 0);
        assert!(r.phase("restored").is_some());
    }

    #[test]
    fn raid6_survives_correlated_double_fault() {
        let r = run_fault_scenario(Scheme::SepGc, raid6_scenario(0, 3), trace(60_000, 0.3));
        assert_eq!(r.geometry, "4+2");
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["healthy", "degraded", "rebuilding", "restored"]);
        assert_eq!(r.verify.lost, 0, "verify {:?}", r.verify);
        assert!(r.verify.reconstructed > 0, "nothing reconstructed: {:?}", r.verify);
        // Both spares rebuild in the one sweep.
        assert!(r.array.rebuilt_chunks > 0);
        assert!(r.rebuild_bytes > 0);
    }

    #[test]
    fn adapt_raid6_survives_double_fault_too() {
        let r = run_fault_scenario(Scheme::Adapt, raid6_scenario(1, 4), trace(50_000, 0.25));
        assert_eq!(r.verify.lost, 0, "verify {:?}", r.verify);
        assert!(r.phase("restored").is_some());
    }

    #[test]
    fn raid5_double_fault_is_reported_as_data_loss() {
        // Two simultaneous failures under m = 1 are past the budget: the
        // run stops at a terminal data-loss phase with the damage counted,
        // instead of pretending a rebuild is possible.
        let replay = ReplayConfig::for_volume(8192, GcSelection::Greedy);
        let s = FaultScenario::double_fault(replay, 0, 1);
        let r = run_fault_scenario(Scheme::SepGc, s, trace(60_000, 0.2));
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["healthy", "data-loss"]);
        assert!(r.verify.lost > 0, "loss must be visible: {:?}", r.verify);
        assert!(r.verify.readable > 0, "surviving devices still serve direct reads");
        assert_eq!(r.array.rebuilt_chunks, 0);
    }
}
