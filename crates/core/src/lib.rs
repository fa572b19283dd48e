//! ADAPT: the paper's access-density-aware data placement policy.
//!
//! ADAPT (§3) separates user-written from GC-rewritten blocks across six
//! groups — hot/cold user groups plus four residual-lifespan GC groups —
//! and improves on lifespan-only schemes (SepBIT) with three mechanisms:
//!
//! 1. **Density-aware threshold adaptation** ([`threshold`]): sampled
//!    requests feed miniature *ghost set* simulations ([`ghost`]), one per
//!    candidate hot/cold threshold; the live threshold follows whichever
//!    ghost set shows the least write amplification. Sampling is
//!    SHARDS-style spatial hashing ([`sampler`]); a sampled write's access
//!    interval is its age on SepBIT's user-byte clock, the same quantity
//!    the live hot/cold split compares against the threshold.
//! 2. **Cross-group dynamic aggregation** ([`aggregation`]): when sparse
//!    traffic would force zero padding in the hot group, its pending
//!    blocks are persisted as substitutes inside the cold group's unfilled
//!    chunk (shadow append; the engine provides the mechanics).
//! 3. **Proactive demotion** ([`demotion`]): bit-sliced cascading Bloom
//!    filters per GC group recognize blocks that keep migrating back into
//!    the same group; such long-lived blocks are placed straight into that
//!    GC group at *user-write* time, skipping the cascade of GC migrations.
//!
//! The composite policy lives in [`policy::Adapt`]: SepBIT's lifespan
//! separator ([`adapt_placement::SepBit`]) plus the three mechanisms, each
//! an optional component that [`AdaptConfig`] leaves unbuilt for ablation
//! studies. DESIGN.md, "The ADAPT policy", has the constants and the rules
//! that are ours rather than the paper's.
//!
//! # Example
//!
//! ```
//! use adapt_core::{Adapt, AdaptConfig};
//! use adapt_lss::{GcSelection, Lss, LssConfig};
//! use adapt_array::CountingArray;
//!
//! let cfg = LssConfig { user_blocks: 8 * 1024, op_ratio: 0.5, ..Default::default() };
//! let policy = Adapt::new(&cfg); // or Adapt::with_config for ablations
//! let mut engine = Lss::builder(policy, CountingArray::new(cfg.array_config()))
//!     .config(cfg)
//!     .gc_select(GcSelection::Greedy)
//!     .build();
//! // Skewed overwrites: every LBA below 512 is written twice.
//! (0..1024u64).try_for_each(|lba| engine.try_write(lba, lba % 512))?;
//! engine.try_flush_all()?;
//! assert!(engine.metrics().wa() >= 0.5);
//! assert!(engine.policy().effective_threshold() > 0.0);
//! # Ok::<(), adapt_lss::EngineError>(())
//! ```

pub mod aggregation;
pub mod config;
pub mod demotion;
pub mod ghost;
pub mod policy;
pub mod sampler;
pub mod threshold;

pub use config::AdaptConfig;
pub use policy::Adapt;
