//! The extended victim-selection family driven through the full engine.

use adapt_repro::adapt::Adapt;
use adapt_repro::array::CountingArray;
use adapt_repro::lss::{GcSelection, Lss, LssConfig, VictimPolicy};
use adapt_repro::placement::SepGc;
use adapt_repro::sim::gc_sweep::{replay_with_victim, victim_family};
use adapt_repro::sim::{ReplayConfig, Scheme};
use adapt_repro::trace::arrival::ArrivalModel;
use adapt_repro::trace::rng::mix64;
use adapt_repro::trace::ycsb::{AccessDistribution, YcsbConfig};

fn cfg() -> LssConfig {
    LssConfig {
        user_blocks: 4096,
        op_ratio: 0.9,
        gc_low_water: 8,
        gc_high_water: 10,
        ..Default::default()
    }
}

fn workload(e: &mut Lss<impl adapt_repro::lss::PlacementPolicy, CountingArray>) {
    let mut ts = 0u64;
    for lba in 0..4096u64 {
        e.try_write(ts, lba).unwrap();
        ts += 1;
    }
    for i in 0..5 * 4096u64 {
        e.try_write(ts, mix64(i) % 4096).unwrap();
        ts += 1;
    }
}

#[test]
fn every_victim_policy_satisfies_engine_invariants() {
    for victim in victim_family(42) {
        let cfg = cfg();
        let mut e = Lss::builder(SepGc::new(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .victim_policy(victim.clone())
            .build();
        workload(&mut e);
        e.check_invariants();
        e.try_flush_all().unwrap();
        e.check_invariants();
        assert!(e.metrics().segments_reclaimed > 0, "{}", victim.name());
    }
}

#[test]
fn victim_policy_ordering_matches_theory() {
    // Greedy ≤ d-choices ≤ Random on WA for a uniform-overwrite workload.
    let wa_of = |victim: VictimPolicy| {
        let cfg = cfg();
        let mut e = Lss::builder(SepGc::new(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .victim_policy(victim)
            .build();
        workload(&mut e);
        e.try_flush_all().unwrap();
        e.metrics().wa()
    };
    let greedy = wa_of(VictimPolicy::Base(GcSelection::Greedy));
    let dchoices = wa_of(VictimPolicy::d_choices(1));
    let random = wa_of(VictimPolicy::random(1));
    assert!(greedy <= dchoices * 1.05, "greedy {greedy} vs d-choices {dchoices}");
    assert!(dchoices < random, "d-choices {dchoices} vs random {random}");
}

#[test]
fn adapt_runs_under_every_victim_policy_via_sweep_api() {
    let trace = || {
        YcsbConfig {
            num_blocks: 4096,
            num_updates: 20_000,
            zipf_alpha: 0.9,
            read_ratio: 0.0,
            arrival: ArrivalModel::Fixed { gap_us: 3 },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 5,
        }
        .generator()
    };
    let mut was = Vec::new();
    for victim in victim_family(7) {
        let rc = ReplayConfig::for_volume(4096, GcSelection::Greedy);
        let cell = replay_with_victim(Scheme::Adapt, rc, victim, trace());
        was.push((cell.victim.clone(), cell.metrics.wa()));
    }
    // All finite and sane; Random is never the best.
    assert!(was.iter().all(|(_, wa)| *wa >= 1.0 && *wa < 30.0), "{was:?}");
    let best = was.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
    assert_ne!(best.0, "Random", "{was:?}");
}

#[test]
fn adapt_with_windowed_greedy_stays_consistent() {
    let cfg = cfg();
    let mut e = Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config()))
        .config(cfg)
        .victim_policy(VictimPolicy::windowed_greedy())
        .build();
    workload(&mut e);
    e.check_invariants();
}
