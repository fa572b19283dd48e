//! Small-scale assertions of the paper's headline result *shapes* — the
//! cheap versions of the claims EXPERIMENTS.md documents at full scale.
//! These use few volumes and short traces so `cargo test` stays fast; the
//! tolerances are correspondingly loose.

use adapt_repro::lss::GcSelection;
use adapt_repro::sim::runner::run_suite;
use adapt_repro::sim::throughput::{replay_throughput, DEVICE_BYTES_PER_SEC};
use adapt_repro::sim::{replay_volume, ReplayConfig, Scheme};
use adapt_repro::trace::ycsb::{AccessDistribution, TrafficIntensity, YcsbConfig};
use adapt_repro::trace::{SuiteKind, WorkloadSuite};

fn mini_suite(kind: SuiteKind) -> WorkloadSuite {
    WorkloadSuite::evaluation_selection(kind, 2026, 6, 20.0)
}

/// Fig. 8 shape: ADAPT's overall WA beats every temperature-based baseline
/// on the Ali-like suite (SepGC — the degenerate single-group baseline —
/// is allowed to tie within noise; see EXPERIMENTS.md).
#[test]
fn adapt_beats_temperature_baselines_on_ali() {
    let suite = mini_suite(SuiteKind::Ali);
    let adapt = run_suite(Scheme::Adapt, GcSelection::Greedy, &suite, None).overall_wa();
    for baseline in [Scheme::Mida, Scheme::Dac, Scheme::Warcip, Scheme::SepBit] {
        let wa = run_suite(baseline, GcSelection::Greedy, &suite, None).overall_wa();
        assert!(adapt < wa, "{}: ADAPT {adapt:.3} should beat {wa:.3}", baseline.name());
    }
    let sepgc = run_suite(Scheme::SepGc, GcSelection::Greedy, &suite, None).overall_wa();
    assert!(adapt < sepgc * 1.03, "ADAPT {adapt:.3} vs SepGC {sepgc:.3}");
}

/// Fig. 9 shape: ADAPT's aggregate padding ratio is at most SepBIT's and
/// well below the multi-user-group schemes.
#[test]
fn adapt_padding_below_sepbit_and_multigroup() {
    let suite = mini_suite(SuiteKind::Tencent);
    let pad = |s| run_suite(s, GcSelection::Greedy, &suite, None).overall_padding_ratio();
    let adapt = pad(Scheme::Adapt);
    assert!(adapt <= pad(Scheme::SepBit) + 0.01);
    assert!(adapt < pad(Scheme::Warcip));
    assert!(adapt < pad(Scheme::Dac));
}

/// Observation 3 shape: schemes with many user-written groups pad more
/// than SepGC under the sparse production suites.
#[test]
fn multigroup_schemes_pad_more_than_sepgc() {
    let suite = mini_suite(SuiteKind::Ali);
    let pad = |s| run_suite(s, GcSelection::Greedy, &suite, None).overall_padding_ratio();
    let sepgc = pad(Scheme::SepGc);
    assert!(pad(Scheme::Warcip) > sepgc);
    assert!(pad(Scheme::Dac) > sepgc);
}

/// Observation 4 shape: GC-rewritten groups hold far more capacity than
/// user-written groups (SepGC on the Ali suite; paper: 83.9–91.6%).
#[test]
fn gc_groups_dominate_capacity() {
    let suite = mini_suite(SuiteKind::Ali);
    let r = run_suite(Scheme::SepGc, GcSelection::Greedy, &suite, None);
    let mut user_segs = 0u64;
    let mut gc_segs = 0u64;
    for v in &r.volumes {
        user_segs += v.groups[0].segments as u64;
        gc_segs += v.groups[1].segments as u64;
    }
    let share = gc_segs as f64 / (user_segs + gc_segs) as f64;
    assert!(share > 0.7, "GC share {share:.2} should dominate");
}

/// Fig. 11 (left) shape: WA falls as access density rises, for every
/// scheme; and ADAPT is best at light density with SepGC second.
#[test]
fn wa_falls_with_density_and_adapt_leads_at_light() {
    let run = |scheme, intensity: TrafficIntensity| {
        let cfg = YcsbConfig {
            num_blocks: 8 * 1024,
            num_updates: 60_000,
            zipf_alpha: 0.99,
            read_ratio: 0.0,
            arrival: intensity.arrival(),
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 0x2026,
        };
        let rc = ReplayConfig::for_volume(8 * 1024, GcSelection::Greedy);
        replay_volume(scheme, rc, 0, cfg.generator()).wa()
    };
    for scheme in [Scheme::SepGc, Scheme::SepBit, Scheme::Adapt] {
        let light = run(scheme, TrafficIntensity::Light);
        let heavy = run(scheme, TrafficIntensity::Heavy);
        assert!(
            light > heavy,
            "{}: light {light:.2} should exceed heavy {heavy:.2}",
            scheme.name()
        );
    }
    let adapt = run(Scheme::Adapt, TrafficIntensity::Light);
    let sepbit = run(Scheme::SepBit, TrafficIntensity::Light);
    assert!(adapt < sepbit, "light: ADAPT {adapt:.2} vs SepBIT {sepbit:.2}");
}

/// Fig. 11 (right) shape: at high skew ADAPT's WA is no worse than
/// SepBIT's.
#[test]
fn adapt_handles_high_skew() {
    let run = |scheme| {
        let cfg = YcsbConfig {
            num_blocks: 8 * 1024,
            num_updates: 60_000,
            zipf_alpha: 0.99,
            read_ratio: 0.0,
            arrival: TrafficIntensity::Medium.arrival(),
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 0x2026,
        };
        let rc = ReplayConfig::for_volume(8 * 1024, GcSelection::Greedy);
        replay_volume(scheme, rc, 0, cfg.generator()).wa()
    };
    assert!(run(Scheme::Adapt) <= run(Scheme::SepBit) * 1.02);
}

/// Fig. 12a shape: throughput is the clients' ops over the longer of
/// their pacing window and the busiest device's busy time, so it is set
/// by pacing alone until the array saturates, and by bytes written after.
#[test]
fn shared_array_throughput_follows_the_bandwidth_model() {
    let run =
        |scheme, clients| replay_throughput(scheme, 8 * 1024, clients, 2_000, Default::default());
    // One client: the pacing window binds, so every scheme serves the
    // same ops/s, bit for bit.
    let one: Vec<f64> =
        Scheme::PAPER.iter().map(|&s| run(s, 1).ops_per_sec(DEVICE_BYTES_PER_SEC)).collect();
    assert!(one.iter().all(|x| x.to_bits() == one[0].to_bits()), "1 client: {one:?}");
    // A bandwidth that never binds: 4 clients serve exactly 4 × 1.
    let unbound = |clients| run(Scheme::SepGc, clients).ops_per_sec(f64::INFINITY);
    assert_eq!(unbound(4), 4.0 * unbound(1));
    // Eight clients saturate the array: ops/s falls as the busiest
    // device's bytes rise.
    let mut saturated: Vec<_> = Scheme::PAPER.iter().map(|&s| run(s, 8)).collect();
    for r in &saturated {
        let (bound, free) = (r.ops_per_sec(DEVICE_BYTES_PER_SEC), r.ops_per_sec(f64::INFINITY));
        assert!(bound < free, "{}: 8 clients {bound:.0} ops/s, unsaturated", r.scheme.name());
    }
    saturated.sort_by_key(|r| r.busiest_device_bytes);
    for pair in saturated.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let (fa, fb) = (a.ops_per_sec(DEVICE_BYTES_PER_SEC), b.ops_per_sec(DEVICE_BYTES_PER_SEC));
        assert!(
            fa > fb || (fa == fb && a.busiest_device_bytes == b.busiest_device_bytes),
            "{} {} B {fa:.0} ops/s vs {} {} B {fb:.0} ops/s",
            a.scheme.name(),
            a.busiest_device_bytes,
            b.scheme.name(),
            b.busiest_device_bytes
        );
    }
    // One replay, no clock: a second run is equal in every field.
    for r in &saturated {
        assert_eq!(*r, run(r.scheme, 8));
    }
}

/// Cost-Benefit vs Greedy: both policies must produce sane, comparable
/// results, and the relative scheme ordering must be broadly preserved.
#[test]
fn cost_benefit_preserves_adapt_advantage() {
    let suite = mini_suite(SuiteKind::Tencent);
    let adapt = run_suite(Scheme::Adapt, GcSelection::CostBenefit, &suite, None);
    let sepbit = run_suite(Scheme::SepBit, GcSelection::CostBenefit, &suite, None);
    let mida = run_suite(Scheme::Mida, GcSelection::CostBenefit, &suite, None);
    assert!(adapt.overall_wa() < sepbit.overall_wa());
    assert!(adapt.overall_wa() < mida.overall_wa());
}
