//! Fluent construction of the engine.
//!
//! The old `Lss::new`'s four positional arguments (config, GC selection,
//! policy, sink) grew organically, and every new knob — victim-policy
//! variants, event capture, a write-ahead log — would have widened them
//! further; that constructor is gone. The builder names each piece,
//! defaults everything but the two genuinely required parts (the
//! placement policy and the array sink), and funnels all construction
//! through one validating `build()`:
//!
//! ```
//! use adapt_lss::{EventConfig, GcSelection, Lss, LssConfig};
//! use adapt_array::CountingArray;
//! # use adapt_lss::{GroupId, GroupKind, Lba, PlacementPolicy, PolicyCtx, VictimMeta};
//! # struct Simple(Vec<GroupKind>);
//! # impl PlacementPolicy for Simple {
//! #     fn name(&self) -> &'static str { "simple" }
//! #     fn groups(&self) -> &[GroupKind] { &self.0 }
//! #     fn place_user(&mut self, _c: &PolicyCtx, _l: Lba) -> GroupId { 0 }
//! #     fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId { 1 }
//! # }
//! let cfg = LssConfig { user_blocks: 8 * 1024, op_ratio: 0.5, ..Default::default() };
//! let policy = Simple(vec![GroupKind::User, GroupKind::Gc]);
//! let engine = Lss::builder(policy, CountingArray::new(cfg.array_config()))
//!     .config(cfg)
//!     .gc_select(GcSelection::CostBenefit)
//!     .events(EventConfig::enabled())
//!     .build();
//! assert!(engine.events().enabled());
//! ```

use crate::config::LssConfig;
use crate::engine::Lss;
use crate::events::{EventConfig, EventRecorder};
use crate::gc::GcSelection;
use crate::gc_variants::VictimPolicy;
use crate::placement::PlacementPolicy;
use crate::recovery::{RecoveryError, RecoveryReport};
use crate::wal::DurabilityConfig;
use adapt_array::ArraySink;
use std::path::PathBuf;

/// Builder for [`Lss`]. Create via [`Lss::builder`].
#[must_use = "builders do nothing until build() is called"]
pub struct EngineBuilder<P: PlacementPolicy, S: ArraySink> {
    cfg: LssConfig,
    victim: VictimPolicy,
    policy: P,
    sink: S,
    events: EventConfig,
    durability: Option<(PathBuf, DurabilityConfig)>,
}

impl<P: PlacementPolicy, S: ArraySink> EngineBuilder<P, S> {
    /// Start a builder from the two required parts. Defaults: the stock
    /// [`LssConfig`], Greedy GC, events disabled.
    pub fn new(policy: P, sink: S) -> Self {
        Self {
            cfg: LssConfig::default(),
            victim: VictimPolicy::Base(GcSelection::Greedy),
            policy,
            sink,
            events: EventConfig::default(),
            durability: None,
        }
    }

    /// Set the engine configuration.
    pub fn config(mut self, cfg: LssConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Select one of the paper's two GC victim policies.
    pub fn gc_select(mut self, gc: GcSelection) -> Self {
        self.victim = VictimPolicy::Base(gc);
        self
    }

    /// Select any victim policy from the extended family (ablations).
    pub fn victim_policy(mut self, victim: VictimPolicy) -> Self {
        self.victim = victim;
        self
    }

    /// Configure the structured event stream (disabled by default).
    pub fn events(mut self, events: EventConfig) -> Self {
        self.events = events;
        self
    }

    /// Attach a durable backend: a write-ahead log plus periodic
    /// checkpoints in `dir`. `build()` starts fresh (wiping stale WAL
    /// files there); use [`EngineBuilder::recover`] instead to restart
    /// from what a previous incarnation left behind.
    pub fn durability(mut self, dir: impl Into<PathBuf>, cfg: DurabilityConfig) -> Self {
        self.durability = Some((dir.into(), cfg));
        self
    }

    /// Validate the configuration against the policy's group topology and
    /// build the engine.
    ///
    /// # Panics
    ///
    /// On invalid configuration (see [`LssConfig::validate`]), on an
    /// engine/array chunk-size mismatch, or if the WAL cannot be created.
    pub fn build(self) -> Lss<P, S> {
        let recorder = EventRecorder::new(self.events);
        let durability = self.durability;
        let mut engine =
            Lss::with_recorder(self.cfg, self.victim, self.policy, self.sink, recorder);
        if let Some((dir, cfg)) = durability {
            engine
                .enable_durability(&dir, cfg)
                .unwrap_or_else(|e| panic!("write-ahead log in {}: {e}", dir.display()));
        }
        engine
    }

    /// Build the engine and recover it from the durable state a previous
    /// incarnation left in the directory given to
    /// [`EngineBuilder::durability`]: load the checkpoint, replay the
    /// WAL's durable prefix, truncate its torn tail, and reconcile the
    /// sink. Returns the recovered engine and a report of what was found.
    ///
    /// Fails with [`RecoveryError::NotConfigured`] when no durability
    /// directory was set. Never panics on damaged durable state — any
    /// corruption the CRCs or structural validation catches surfaces as a
    /// typed error.
    pub fn recover(self) -> Result<(Lss<P, S>, RecoveryReport), RecoveryError> {
        let Some((dir, dcfg)) = self.durability else {
            return Err(RecoveryError::NotConfigured);
        };
        let recorder = EventRecorder::new(self.events);
        let mut engine =
            Lss::with_recorder(self.cfg, self.victim, self.policy, self.sink, recorder);
        let report = engine.recover_in_place(&dir, dcfg)?;
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{GroupKind, PolicyCtx, VictimMeta};
    use crate::types::{GroupId, Lba};
    use adapt_array::CountingArray;

    struct OneGroup;
    impl PlacementPolicy for OneGroup {
        fn name(&self) -> &'static str {
            "one"
        }
        fn groups(&self) -> &[GroupKind] {
            &[GroupKind::Mixed]
        }
        fn place_user(&mut self, _c: &PolicyCtx, _l: Lba) -> GroupId {
            0
        }
        fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId {
            0
        }
    }

    fn cfg() -> LssConfig {
        LssConfig {
            user_blocks: 4096,
            op_ratio: 0.5,
            gc_low_water: 5,
            gc_high_water: 7,
            ..Default::default()
        }
    }

    #[test]
    fn defaults_build_a_quiet_engine() {
        let cfg = cfg();
        let e = Lss::builder(OneGroup, CountingArray::new(cfg.array_config())).config(cfg).build();
        assert!(!e.events().enabled());
        assert_eq!(e.metrics().host_write_bytes, 0);
    }

    #[test]
    fn events_setter_threads_through() {
        let cfg = cfg();
        let e = Lss::builder(OneGroup, CountingArray::new(cfg.array_config()))
            .config(cfg)
            .events(EventConfig { enabled: true, ring_capacity: 7, gauge_interval_ops: 3 })
            .build();
        assert!(e.events().enabled());
        assert_eq!(e.events().config().ring_capacity, 7);
    }

    #[test]
    #[should_panic(expected = "capacity too small")]
    fn build_validates_config() {
        let bad = LssConfig { user_blocks: 0, ..Default::default() };
        Lss::builder(OneGroup, CountingArray::new(bad.array_config())).config(bad).build();
    }
}
