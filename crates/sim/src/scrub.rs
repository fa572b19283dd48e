//! Scrub-scenario replay: a trace with seeded silent-corruption bursts.
//!
//! Replays a volume through the engine on a modelled [`InMemoryArray`]
//! sink (one byte kept per chunk) with the background scrub enabled,
//! injecting bursts of silent corruptions into closed stripes at
//! scheduled points in the trace. Corruptions are
//! caught two ways — verify-on-read when the host or GC happens to read
//! the chunk, and the paced scrub pass for chunks nothing reads (the cold
//! data ADAPT deliberately parks). After the replay a final full scrub
//! pass sweeps any stripes the paced scrub had not reached yet, then a
//! post-mortem sweep reads every live LBA and the recovery check runs.
//!
//! A clean run detects 100% of injected corruptions, heals every
//! single-fault corruption in place, serves every live LBA, and shows no
//! recovery drift.

use crate::faults::verify_live_lbas;
use crate::replay::{drive_with, ReplayConfig};
use crate::scheme::{Scheme, SchemePolicy};
use adapt_array::{ArraySink, ArrayStats, FaultPlan, InMemoryArray};
use adapt_lss::{Lss, LssMetrics};
use adapt_trace::TraceRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Scripted corruption-and-scrub scenario.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScrubScenario {
    /// Engine/GC/warm-up configuration (shared with healthy replays).
    pub replay: ReplayConfig,
    /// Number of corruption bursts, evenly spaced through the trace.
    pub bursts: u32,
    /// Silent corruptions injected per burst, each into a distinct
    /// closed stripe (one fault per stripe — RAID-5 can heal those).
    pub corruptions_per_burst: u32,
    /// Stripes the background scrub verifies per host op (0 disables the
    /// scrub, leaving detection to verify-on-read plus the final pass).
    pub scrub_stripes_per_op: u64,
    /// Latent sector errors injected alongside each burst (the scrub
    /// repairs these before they can pair into double faults).
    pub latent_per_burst: u32,
    /// RNG seed for target selection.
    pub seed: u64,
}

impl ScrubScenario {
    /// Paper-style defaults: 4 bursts of 8 corruptions plus 2 latent
    /// sectors each, 2 stripes scrubbed per host op.
    pub fn bursts_with_scrub(replay: ReplayConfig) -> Self {
        Self {
            replay,
            bursts: 4,
            corruptions_per_burst: 8,
            scrub_stripes_per_op: 2,
            latent_per_burst: 2,
            seed: 0x5c12_b5ee,
        }
    }
}

/// Full scrub-scenario report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Scheme used.
    pub scheme: Scheme,
    /// Array geometry label (`"k+m"`, e.g. `"3+1"` or `"6+2"`).
    pub geometry: String,
    /// The scenario that ran.
    pub scenario: ScrubScenario,
    /// Engine metrics over the whole run (scrub counters included).
    pub metrics: LssMetrics,
    /// Corruptions injected.
    pub injected: u64,
    /// Corruptions detected (verify-on-read + paced scrub + final pass).
    pub detected: u64,
    /// Corruptions healed in place from stripe survivors.
    pub healed: u64,
    /// Corruptions that could not be repaired (second fault in stripe).
    pub unrecoverable: u64,
    /// Injected corruptions never detected. Must be zero: the final full
    /// scrub pass visits every closed stripe.
    pub undetected: u64,
    /// Latent sector errors injected.
    pub latent_injected: u64,
    /// Latent sector errors the scrub repaired.
    pub latent_repaired: u64,
    /// Mean array ops between corruption injection and detection.
    pub mean_detection_latency_ops: f64,
    /// Live LBAs the post-mortem sweep served successfully.
    pub live_readable: u64,
    /// Live LBAs the post-mortem sweep could not serve. Must be zero.
    pub live_lost: u64,
    /// Recovery drift found by `try_check_recovery` (None = clean).
    pub recovery_drift: Option<String>,
    /// Array counters at the end of the run.
    pub array: ArrayStats,
}

impl ScrubReport {
    /// The acceptance gate: every corruption detected, every single-fault
    /// corruption healed, every live LBA served, recovery clean.
    pub fn is_clean(&self) -> bool {
        self.undetected == 0
            && self.detected == self.injected
            && self.unrecoverable == 0
            && self.healed == self.detected
            && self.live_lost == 0
            && self.recovery_drift.is_none()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Inject one burst: `corruptions` silent corruptions plus `latent`
/// latent sector errors, each targeting a distinct closed stripe no
/// previous burst touched. One fault per stripe keeps every corruption
/// honestly repairable — the property the scenario verifies.
fn inject_burst(
    engine: &mut Lss<SchemePolicy, InMemoryArray>,
    rng: &mut u64,
    corruptions: u32,
    latent: u32,
    touched: &mut BTreeSet<u64>,
) -> (u64, u64) {
    let num_devices = engine.sink().config().num_devices as u64;
    let stripes = engine.sink().stats().stripes_completed;
    if stripes == 0 {
        return (0, 0);
    }
    let pick_stripe = |rng: &mut u64, touched: &mut BTreeSet<u64>| {
        for _ in 0..64 {
            let stripe = splitmix(rng) % stripes;
            if touched.insert(stripe) {
                return Some(stripe);
            }
        }
        None // stripe pool exhausted (tiny trace): skip the rest
    };
    let mut injected = 0u64;
    for _ in 0..corruptions {
        let Some(stripe) = pick_stripe(rng, touched) else { break };
        let device = (splitmix(rng) % num_devices) as usize;
        if engine.sink_mut().inject_corruption(device, stripe) {
            injected += 1;
        } else {
            touched.remove(&stripe);
        }
    }
    let mut latent_injected = 0u64;
    for _ in 0..latent {
        let Some(stripe) = pick_stripe(rng, touched) else { break };
        let device = (splitmix(rng) % num_devices) as usize;
        engine.sink_mut().plan_mut().add_latent_sector(device, stripe);
        latent_injected += 1;
    }
    (injected, latent_injected)
}

/// Run a scrub scenario for one scheme over a trace.
pub fn run_scrub_scenario<I>(scheme: Scheme, scenario: ScrubScenario, trace: I) -> ScrubReport
where
    I: Iterator<Item = TraceRecord>,
{
    let trace: Vec<TraceRecord> = trace.collect();
    let mut cfg = scenario.replay;
    cfg.lss = cfg.lss.with_scrub_stripes_per_op(scenario.scrub_stripes_per_op);
    let sink = InMemoryArray::modelled(cfg.lss.array_config(), FaultPlan::new(scenario.seed));
    let mut engine = cfg.engine(scheme.policy(&cfg.lss), sink);

    let total = trace.len() as u64;
    let bursts = scenario.bursts.max(1) as u64;
    let mut rng = scenario.seed ^ 0x00c0_ffee;
    let mut touched = BTreeSet::new();
    let mut injected = 0u64;
    let mut latent_injected = 0u64;
    let mut next_burst = 1u64;

    drive_with(&mut engine, &cfg, trace, |engine, i, read| {
        // Every injected fault is single-fault-repairable, so reads
        // must heal, never fail.
        read.unwrap_or_else(|e| panic!("unexpected engine fault during scrub scenario: {e}"));
        // Burst k fires at trace fraction k/(bursts+1), k = 1..=bursts.
        if next_burst <= bursts && (i + 1) * (bursts + 1) >= next_burst * total {
            let (c, l) = inject_burst(
                engine,
                &mut rng,
                scenario.corruptions_per_burst,
                scenario.latent_per_burst,
                &mut touched,
            );
            injected += c;
            latent_injected += l;
            next_burst += 1;
        }
        ControlFlow::Continue(())
    });

    // Final full scrub: finish the in-flight pass, then one fresh pass
    // over every closed stripe so cold corruption nothing ever read is
    // still found.
    for _ in 0..2 {
        InMemoryArray::scrub_step(engine.sink_mut(), usize::MAX);
    }

    // Post-mortem: every live LBA must be serviceable (nothing is
    // failed, so a read the open tail stripe cannot serve is lost too).
    let sweep = verify_live_lbas(&mut engine, cfg.lss.user_blocks);
    let recovery_drift = engine.try_check_recovery().err().map(|e| e.to_string());

    let undetected = engine.sink().outstanding_corruptions() as u64;
    let array = engine.sink().stats().clone();
    ScrubReport {
        scheme,
        geometry: engine.sink().config().geometry().label(),
        scenario,
        metrics: engine.metrics().clone(),
        injected,
        detected: array.corruptions_detected,
        healed: array.corruptions_healed,
        unrecoverable: array.corruptions_unrecoverable,
        undetected,
        latent_injected,
        latent_repaired: array.scrub_latent_repaired,
        mean_detection_latency_ops: array.mean_detection_latency_ops(),
        live_readable: sweep.readable,
        live_lost: sweep.lost + sweep.buffered_tail,
        recovery_drift,
        array,
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
            seed: 23,
        }
        .generator()
    }

    fn scenario() -> ScrubScenario {
        ScrubScenario::bursts_with_scrub(ReplayConfig::for_volume(8192, GcSelection::Greedy))
    }

    #[test]
    fn all_corruptions_detected_and_healed() {
        let r = run_scrub_scenario(Scheme::SepGc, scenario(), trace(60_000, 0.3));
        assert!(r.injected > 0, "bursts must land");
        assert!(
            r.is_clean(),
            "detected {}/{} healed {} unrecoverable {} undetected {} lost {} drift {:?}",
            r.detected,
            r.injected,
            r.healed,
            r.unrecoverable,
            r.undetected,
            r.live_lost,
            r.recovery_drift
        );
        assert!(r.latent_injected > 0);
        assert!(r.latent_repaired > 0, "scrub must clear latent sectors");
        assert!(r.metrics.chunks_scrubbed > 0, "paced scrub must run during replay");
        assert!(r.mean_detection_latency_ops > 0.0);
    }

    #[test]
    fn adapt_scheme_is_clean_too() {
        let r = run_scrub_scenario(Scheme::Adapt, scenario(), trace(50_000, 0.25));
        assert!(r.injected > 0);
        assert!(r.is_clean(), "undetected {} lost {}", r.undetected, r.live_lost);
    }

    #[test]
    fn scrub_disabled_still_detects_via_final_pass() {
        let mut s = scenario();
        s.scrub_stripes_per_op = 0;
        let r = run_scrub_scenario(Scheme::SepGc, s, trace(40_000, 0.2));
        assert!(r.injected > 0);
        assert_eq!(r.undetected, 0, "final pass must catch cold corruption");
        assert_eq!(r.metrics.chunks_scrubbed, 0, "paced scrub was off during replay");
        assert_eq!(r.live_lost, 0);
    }

    #[test]
    fn raid6_scrub_run_is_clean_and_tagged() {
        let mut replay = ReplayConfig::for_volume(8192, GcSelection::Greedy);
        replay.lss = replay.lss.with_geometry(6, 2);
        let s = ScrubScenario::bursts_with_scrub(replay);
        let r = run_scrub_scenario(Scheme::SepGc, s, trace(50_000, 0.25));
        assert_eq!(r.geometry, "4+2");
        assert!(r.injected > 0);
        assert!(
            r.is_clean(),
            "detected {}/{} undetected {} lost {} drift {:?}",
            r.detected,
            r.injected,
            r.undetected,
            r.live_lost,
            r.recovery_drift
        );
    }

    #[test]
    fn paced_scrub_shortens_detection_latency() {
        let fast = run_scrub_scenario(Scheme::SepGc, scenario(), trace(50_000, 0.1));
        let mut slow_scenario = scenario();
        slow_scenario.scrub_stripes_per_op = 0;
        let slow = run_scrub_scenario(Scheme::SepGc, slow_scenario, trace(50_000, 0.1));
        assert!(
            fast.mean_detection_latency_ops < slow.mean_detection_latency_ops,
            "scrubbed {} vs unscrubbed {}",
            fast.mean_detection_latency_ops,
            slow.mean_detection_latency_ops
        );
    }
}
