//! ADAPT configuration: which of the three mechanisms are built.
//!
//! Everything else the policy once exposed as a tunable has a single value
//! in every run and is a named constant next to the code that reads it
//! ([`crate::threshold`], [`crate::demotion`]), or is derived from the
//! engine configuration by the component that needs it.

use adapt_lss::LssConfig;

/// The ablation switches of the ADAPT policy (§4.3): a mechanism that is
/// off is not constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Density-aware threshold adaptation (§3.2).
    pub enable_adaptation: bool,
    /// Cross-group dynamic aggregation (§3.3).
    pub enable_aggregation: bool,
    /// Proactive demotion placement (§3.4).
    pub enable_demotion: bool,
}

impl AdaptConfig {
    /// Full ADAPT. The engine configuration is taken for source
    /// compatibility; the components derive their geometry from the one
    /// handed to [`crate::Adapt::with_config`].
    pub fn for_engine(_cfg: &LssConfig) -> Self {
        Self { enable_adaptation: true, enable_aggregation: true, enable_demotion: true }
    }

    /// Disable density-aware threshold adaptation.
    pub fn without_adaptation(mut self) -> Self {
        self.enable_adaptation = false;
        self
    }

    /// Disable cross-group aggregation.
    pub fn without_aggregation(mut self) -> Self {
        self.enable_aggregation = false;
        self
    }

    /// Disable proactive demotion.
    pub fn without_demotion(mut self) -> Self {
        self.enable_demotion = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_toggles() {
        let lss = LssConfig::default();
        let full = AdaptConfig::for_engine(&lss);
        assert!(full.enable_adaptation && full.enable_aggregation && full.enable_demotion);
        let c = full.without_adaptation().without_aggregation().without_demotion();
        assert!(!c.enable_adaptation && !c.enable_aggregation && !c.enable_demotion);
    }
}
