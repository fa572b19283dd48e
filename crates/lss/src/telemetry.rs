//! Unified telemetry: one serializable snapshot of everything the stack
//! measures.
//!
//! Before this module, callers stitched together `Engine::metrics()`,
//! array counter getters, utilization histograms, and scrub/rebuild state
//! by hand — every scenario runner slightly differently. A
//! [`TelemetrySnapshot`] merges all of it: engine [`LssMetrics`], array
//! [`ArrayStats`] (per-device counters), array health, latency percentile
//! summaries, event-stream totals, and the gauge time series, plus the
//! derived rates every report wants (WA, padding ratio, read
//! amplification). [`Lss::telemetry`](crate::Lss::telemetry) builds one;
//! `sim`'s run-report pipeline serializes it under `results/`.

use crate::events::{EventStats, GaugeSample};
use crate::latency::LatencySummary;
use crate::metrics::{GroupTraffic, LssMetrics};
use adapt_array::{ArrayHealth, ArrayStats};
use serde::{Deserialize, Serialize};

/// One unified, serializable view of the whole stack's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Host-op clock at snapshot time.
    pub host_ops: u64,
    /// Simulated time (µs) at snapshot time.
    pub now_us: u64,
    /// Monotonic host-byte clock (never reset).
    pub user_bytes_clock: u64,
    /// Engine metrics over the current measurement window.
    pub lss: LssMetrics,
    /// Derived: write amplification including padding.
    pub wa: f64,
    /// Derived: GC-only write amplification (padding excluded).
    pub wa_gc_only: f64,
    /// Derived: padding share of physical writes.
    pub padding_ratio: f64,
    /// Derived: array bytes fetched per host byte read.
    pub read_amplification: f64,
    /// Per-group lifetime traffic split.
    pub groups: Vec<GroupTraffic>,
    /// Array-layer counters (per-device byte/chunk accounting, rebuild
    /// and scrub totals).
    pub array: ArrayStats,
    /// Array health at snapshot time.
    pub health: ArrayHealth,
    /// Free segments remaining in the pool.
    pub free_segments: u32,
    /// Total segments the engine manages.
    pub total_segments: u32,
    /// Sealed-segment utilization histogram (ten 10%-wide buckets). GC
    /// victim selection feeds on its shape: bimodal (hot segments near 0,
    /// cold near 1) means separation is working; a hump in the middle
    /// means mixed segments and expensive collections ahead.
    pub utilization_histogram: [u64; 10],
    /// Mean valid fraction across sealed segments (1.0 when none sealed).
    pub mean_sealed_utilization: f64,
    /// Resident index + policy memory (bytes).
    pub memory_bytes: u64,
    /// Durability-latency percentile summary (p50/p95/p99/p999).
    pub durability_latency: LatencySummary,
    /// Event-stream totals (empty when events are disabled).
    pub events: EventStats,
    /// Gauge time series (empty when events are disabled).
    pub gauges: Vec<GaugeSample>,
}

impl TelemetrySnapshot {
    /// Merge per-shard snapshots into one array-wide rollup.
    ///
    /// Counters sum, per-shard device lists concatenate (each shard owns a
    /// disjoint physical array), derived rates (WA, padding ratio, read
    /// amplification) are recomputed from the merged counters rather than
    /// averaged, the durability-latency summary is rebuilt from the merged
    /// histogram, group traffic folds element-wise by group index, health
    /// is the worst across shards, and `now_us` is the max (shards run
    /// independent op clocks). Gauge series concatenate in shard order —
    /// they stay per-shard sequences, not an interleaved timeline.
    ///
    /// Returns the default (empty) snapshot for an empty slice.
    pub fn merge(shards: &[TelemetrySnapshot]) -> TelemetrySnapshot {
        let Some(first) = shards.first() else {
            return TelemetrySnapshot {
                host_ops: 0,
                now_us: 0,
                user_bytes_clock: 0,
                lss: LssMetrics::default(),
                wa: 1.0,
                wa_gc_only: 1.0,
                padding_ratio: 0.0,
                read_amplification: 1.0,
                groups: vec![],
                array: ArrayStats::default(),
                health: ArrayHealth::Healthy,
                free_segments: 0,
                total_segments: 0,
                utilization_histogram: [0; 10],
                mean_sealed_utilization: 0.0,
                memory_bytes: 0,
                durability_latency: LatencySummary::default(),
                events: EventStats::default(),
                gauges: vec![],
            };
        };
        let mut merged = first.clone();
        // Weighted mean of sealed utilization: weigh each shard by its
        // sealed-segment count (the histogram's total population).
        let sealed = |s: &TelemetrySnapshot| s.utilization_histogram.iter().sum::<u64>();
        let mut util_weight = sealed(first) as f64;
        let mut util_sum = first.mean_sealed_utilization * util_weight;
        let mut latency = first.lss.durability_latency.clone();
        for s in &shards[1..] {
            merged.host_ops += s.host_ops;
            merged.now_us = merged.now_us.max(s.now_us);
            merged.user_bytes_clock += s.user_bytes_clock;
            merged.lss.merge_from(&s.lss);
            latency.merge(&s.lss.durability_latency);
            if merged.groups.len() < s.groups.len() {
                merged.groups.resize(s.groups.len(), GroupTraffic::default());
            }
            for (into, from) in merged.groups.iter_mut().zip(&s.groups) {
                into.user_blocks += from.user_blocks;
                into.gc_blocks += from.gc_blocks;
                into.shadow_blocks += from.shadow_blocks;
                into.pad_blocks += from.pad_blocks;
                into.segments += from.segments;
            }
            merged.array.merge_from(&s.array);
            if merged.health == ArrayHealth::Healthy {
                merged.health = s.health;
            }
            merged.free_segments += s.free_segments;
            merged.total_segments += s.total_segments;
            for (into, from) in
                merged.utilization_histogram.iter_mut().zip(&s.utilization_histogram)
            {
                *into += from;
            }
            let w = sealed(s) as f64;
            util_sum += s.mean_sealed_utilization * w;
            util_weight += w;
            merged.memory_bytes += s.memory_bytes;
            merged.events.emitted += s.events.emitted;
            merged.events.dropped += s.events.dropped;
            for (kind, n) in &s.events.kinds {
                match merged.events.kinds.iter_mut().find(|(k, _)| k == kind) {
                    Some((_, total)) => *total += n,
                    None => merged.events.kinds.push((kind.clone(), *n)),
                }
            }
            merged.gauges.extend(s.gauges.iter().cloned());
        }
        merged.wa = merged.lss.wa();
        merged.wa_gc_only = merged.lss.wa_gc_only();
        merged.padding_ratio = merged.lss.padding_ratio();
        merged.read_amplification = merged.lss.read_amplification();
        merged.mean_sealed_utilization =
            if util_weight > 0.0 { util_sum / util_weight } else { 0.0 };
        merged.durability_latency = latency.summary();
        merged
    }

    /// Events emitted per million host ops — the event-derived rate view
    /// (0 when events were disabled or no ops ran).
    pub fn events_per_mop(&self) -> f64 {
        if self.host_ops == 0 {
            return 0.0;
        }
        self.events.emitted as f64 * 1e6 / self.host_ops as f64
    }

    /// Physical device imbalance: max/mean of per-device total bytes
    /// (1.0 = perfectly balanced).
    pub fn device_imbalance(&self) -> f64 {
        let totals: Vec<u64> = self.array.devices.iter().map(|d| d.total_bytes()).collect();
        let max = totals.iter().copied().max().unwrap_or(0);
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * totals.len() as f64 / sum as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            host_ops: 1000,
            now_us: 5000,
            user_bytes_clock: 4096,
            lss: LssMetrics::default(),
            wa: 1.0,
            wa_gc_only: 1.0,
            padding_ratio: 0.0,
            read_amplification: 1.0,
            groups: vec![],
            array: ArrayStats::new(4),
            health: ArrayHealth::Healthy,
            free_segments: 10,
            total_segments: 40,
            utilization_histogram: [0; 10],
            mean_sealed_utilization: 1.0,
            memory_bytes: 0,
            durability_latency: LatencySummary::default(),
            events: EventStats { emitted: 500, dropped: 0, kinds: vec![] },
            gauges: vec![],
        }
    }

    #[test]
    fn event_rate_scales_by_ops() {
        let s = snapshot();
        assert!((s.events_per_mop() - 500_000.0).abs() < 1e-6);
        let empty = TelemetrySnapshot { host_ops: 0, ..snapshot() };
        assert_eq!(empty.events_per_mop(), 0.0);
    }

    #[test]
    fn imbalance_of_idle_array_is_one() {
        assert_eq!(snapshot().device_imbalance(), 1.0);
    }

    #[test]
    fn merge_sums_and_rederives_rates() {
        let mut a = snapshot();
        a.lss.host_write_bytes = 1000;
        a.lss.user_bytes = 1000;
        a.utilization_histogram[9] = 10;
        a.mean_sealed_utilization = 0.9;
        let mut b = snapshot();
        b.host_ops = 500;
        b.now_us = 9000;
        b.lss.host_write_bytes = 1000;
        b.lss.user_bytes = 1000;
        b.lss.gc_bytes = 2000;
        b.health = ArrayHealth::Degraded { device: 2 };
        b.utilization_histogram[4] = 30;
        b.mean_sealed_utilization = 0.5;
        b.events.kinds = vec![("flush".into(), 3)];
        let m = TelemetrySnapshot::merge(&[a, b]);
        assert_eq!(m.host_ops, 1500);
        assert_eq!(m.now_us, 9000, "shard clocks are independent: take the max");
        assert_eq!(m.lss.host_write_bytes, 2000);
        assert!((m.wa - 2.0).abs() < 1e-12, "rates recomputed, not averaged: {}", m.wa);
        assert_eq!(m.health, ArrayHealth::Degraded { device: 2 }, "worst health wins");
        assert_eq!(m.array.devices.len(), 8, "device lists concatenate");
        assert_eq!(m.utilization_histogram[9], 10);
        assert_eq!(m.utilization_histogram[4], 30);
        let want = (0.9 * 10.0 + 0.5 * 30.0) / 40.0;
        assert!((m.mean_sealed_utilization - want).abs() < 1e-12);
        assert_eq!(m.events.kinds, vec![("flush".to_string(), 3)]);
        assert_eq!(m.free_segments, 20);
        assert_eq!(m.total_segments, 80);
    }

    #[test]
    fn merge_of_empty_slice_is_empty() {
        let m = TelemetrySnapshot::merge(&[]);
        assert_eq!(m.host_ops, 0);
        assert_eq!(m.wa, 1.0);
        assert_eq!(m.array.devices.len(), 0);
    }

    #[test]
    fn snapshot_serializes_round() {
        let s = snapshot();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"wa\""));
        assert!(json.contains("\"health\""));
    }
}
