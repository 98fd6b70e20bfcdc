//! Pluggable protection policies: the persist decisions, tree-update
//! strategy, recovery hook and loss accounting of one metadata-protection
//! scheme, bundled behind a single trait.
//!
//! The controller itself stays scheme-agnostic — it consults the
//! [`TreeUpdate`] strategy carried by its config — and a scheme is just a
//! small object that picks the knobs: which cloning policy runs
//! (Baseline / SRC / SAC, Table 2), how tree updates propagate
//! (lazy / eager / Triad-NVM tiers / Phoenix / coalesced), which recovery
//! path a crash image goes through (Anubis shadow replay or the
//! exhaustive Osiris scan), and what the Monte Carlo loss model may
//! credit that recovery with reconstructing ([`LossProfile`]).
//!
//! [`standard_schemes`] is the registry the `soteria compare` campaign
//! sweeps; its first entries re-express the schemes the repo already
//! shipped (and the golden fixtures prove they behave byte-identically
//! through this trait).

use crate::analysis::{LeafRecovery, LossProfile};
use crate::clone::CloningPolicy;
use crate::config::{SecureMemoryConfig, TreeUpdate};
use crate::controller::SecureMemoryController;
use crate::error::ConfigError;
use crate::recovery::{recover, recover_exhaustive, CrashImage, RecoveryReport};
use crate::shadow::ShadowMode;

/// Which recovery routine a scheme's crash images go through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Anubis shadow-table replay (§2.6): walk the shadow region and
    /// restore every tracked block that went stale.
    #[default]
    AnubisShadow,
    /// Exhaustive Osiris-style scan: re-derive counters from data MACs by
    /// bounded forward trials over the whole device (no shadow table
    /// needed; slower, and unshadowed tree nodes stay unverified).
    OsirisScan,
}

/// One metadata-protection scheme, as the compare campaign and the
/// trait-based harness see it.
pub trait ProtectionPolicy: Sync {
    /// Stable artifact/CLI identifier (`baseline`, `src`, `triad1`, …).
    fn name(&self) -> &'static str;

    /// One-line description for listings and reports.
    fn summary(&self) -> &'static str;

    /// The metadata cloning policy (persist-redundancy decision).
    fn cloning(&self) -> CloningPolicy;

    /// The tree-update strategy the controller runs.
    fn tree_update(&self) -> TreeUpdate {
        TreeUpdate::Lazy
    }

    /// Shadow-entry format (only meaningful where the strategy keeps a
    /// shadow table at all).
    fn shadow_mode(&self) -> ShadowMode {
        ShadowMode::Duplicated
    }

    /// The recovery hook for crash images of this scheme.
    fn recovery(&self) -> RecoveryStrategy {
        RecoveryStrategy::AnubisShadow
    }

    /// What the loss model may credit this scheme's recovery with
    /// reconstructing.
    fn loss_profile(&self) -> LossProfile {
        LossProfile::default()
    }

    /// Builds a controller configuration for this scheme over the given
    /// harness geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for invalid shapes, exactly as the
    /// underlying builder does.
    fn build_config(
        &self,
        capacity_bytes: u64,
        cache_bytes: u64,
        cache_ways: usize,
        wpq_entries: usize,
    ) -> Result<SecureMemoryConfig, ConfigError> {
        let mut builder = SecureMemoryConfig::builder();
        builder
            .capacity_bytes(capacity_bytes)
            .metadata_cache(cache_bytes, cache_ways)
            .wpq_entries(wpq_entries)
            .cloning(self.cloning())
            .tree_update(self.tree_update())
            .shadow_mode(self.shadow_mode());
        builder.build()
    }

    /// Runs this scheme's recovery hook over a crash image.
    fn recover(&self, image: CrashImage) -> (SecureMemoryController, RecoveryReport) {
        match self.recovery() {
            RecoveryStrategy::AnubisShadow => recover(image),
            RecoveryStrategy::OsirisScan => recover_exhaustive(image),
        }
    }
}

/// Baseline: no metadata clones, lazy tree, Anubis recovery (Fig. 3's
/// exposure case).
#[derive(Clone, Copy, Debug, Default)]
pub struct Baseline;

impl ProtectionPolicy for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn summary(&self) -> &'static str {
        "no clones, lazy ToC, Anubis shadow recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::None
    }
}

/// SRC: single relaxed clone of every metadata block (Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct Src;

impl ProtectionPolicy for Src {
    fn name(&self) -> &'static str {
        "src"
    }
    fn summary(&self) -> &'static str {
        "one clone per metadata block, lazy ToC, Anubis recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::Relaxed
    }
}

/// SAC: progressively more clones toward the root (Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sac;

impl ProtectionPolicy for Sac {
    fn name(&self) -> &'static str {
        "sac"
    }
    fn summary(&self) -> &'static str {
        "level-scaled clones, lazy ToC, Anubis recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::Aggressive
    }
}

/// Osiris [Ye et al.]: no clones and no shadow replay at recovery — a
/// crash is survived by exhaustive bounded forward MAC trials, which also
/// lets the loss model re-derive a destroyed leaf whose covered data
/// survived.
#[derive(Clone, Copy, Debug, Default)]
pub struct Osiris;

impl ProtectionPolicy for Osiris {
    fn name(&self) -> &'static str {
        "osiris"
    }
    fn summary(&self) -> &'static str {
        "lazy ToC, exhaustive forward-trial recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::None
    }
    fn recovery(&self) -> RecoveryStrategy {
        RecoveryStrategy::OsirisScan
    }
    fn loss_profile(&self) -> LossProfile {
        LossProfile {
            rebuild_floor: u8::MAX,
            leaf: LeafRecovery::Trials,
        }
    }
}

/// Triad-NVM [Awad et al., arXiv 1810.09438] selective-persistence tier:
/// persist the tree strictly up to `tier` levels, rebuild the rest at
/// recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct Triad {
    /// Levels (from the leaves) written through on every commit (0–2 in
    /// the standard roster).
    pub tier: u8,
}

impl ProtectionPolicy for Triad {
    fn name(&self) -> &'static str {
        match self.tier {
            0 => "triad0",
            1 => "triad1",
            2 => "triad2",
            _ => "triad",
        }
    }
    fn summary(&self) -> &'static str {
        match self.tier {
            0 => "Triad-NVM tier 0: nothing persisted strictly, tree rebuilt at recovery",
            1 => "Triad-NVM tier 1: counters write-through, tree rebuilt at recovery",
            _ => "Triad-NVM tier 2+: counters and low tree write-through",
        }
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::None
    }
    fn tree_update(&self) -> TreeUpdate {
        TreeUpdate::Triad {
            persist_levels: self.tier,
        }
    }
    fn loss_profile(&self) -> LossProfile {
        LossProfile {
            rebuild_floor: 2,
            leaf: if self.tier >= 1 {
                // Write-through leaves are fresh in NVM: a destroyed
                // block re-derives by bounded trials over survivors.
                LeafRecovery::Trials
            } else {
                LeafRecovery::Fatal
            },
        }
    }
}

/// Phoenix [Alwadi et al., arXiv 1911.01922]: persistent NVM-friendly
/// ToC — leaves write through, the upper tree refolds from them at
/// recovery, and no Anubis shadow table is kept at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phoenix;

impl ProtectionPolicy for Phoenix {
    fn name(&self) -> &'static str {
        "phoenix"
    }
    fn summary(&self) -> &'static str {
        "persistent ToC: write-through counters, shadow-free rebuild recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::None
    }
    fn tree_update(&self) -> TreeUpdate {
        TreeUpdate::Phoenix
    }
    fn recovery(&self) -> RecoveryStrategy {
        RecoveryStrategy::OsirisScan
    }
    fn loss_profile(&self) -> LossProfile {
        LossProfile {
            rebuild_floor: 2,
            leaf: LeafRecovery::Trials,
        }
    }
}

/// Coalesced lazy tree updates ["Streamlining Integrity Tree Updates",
/// arXiv 2003.04693]: lazy between flush points, with the dirty ancestor
/// paths flushed in one batch every `period` commit groups.
#[derive(Clone, Copy, Debug)]
pub struct Coalesced {
    /// Commit groups per batched flush.
    pub period: u16,
}

impl Default for Coalesced {
    fn default() -> Self {
        Self { period: 4 }
    }
}

impl ProtectionPolicy for Coalesced {
    fn name(&self) -> &'static str {
        "coalesced"
    }
    fn summary(&self) -> &'static str {
        "lazy ToC with periodic batched tree flushes, Anubis recovery"
    }
    fn cloning(&self) -> CloningPolicy {
        CloningPolicy::None
    }
    fn tree_update(&self) -> TreeUpdate {
        TreeUpdate::Coalesced {
            period: self.period,
        }
    }
}

/// The registered scheme roster, in report order. The first three
/// re-express the repo's pre-existing Baseline/SRC/SAC campaign schemes
/// (same cloning policies, same lazy tree, same Anubis recovery), and
/// `osiris` re-expresses the pre-existing exhaustive-recovery path.
pub fn standard_schemes() -> &'static [&'static dyn ProtectionPolicy] {
    const SCHEMES: &[&'static dyn ProtectionPolicy] = &[
        &Baseline,
        &Src,
        &Sac,
        &Osiris,
        &Triad { tier: 0 },
        &Triad { tier: 1 },
        &Triad { tier: 2 },
        &Phoenix,
        &Coalesced { period: 4 },
    ];
    SCHEMES
}

/// Looks a registered scheme up by its stable name.
pub fn scheme_by_name(name: &str) -> Option<&'static dyn ProtectionPolicy> {
    standard_schemes()
        .iter()
        .copied()
        .find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_large_unique_and_buildable() {
        let schemes = standard_schemes();
        assert!(schemes.len() >= 6, "compare needs at least six schemes");
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scheme name");
        for s in schemes {
            let config = s
                .build_config(1 << 20, 16 * 1024, 8, 8)
                .unwrap_or_else(|e| panic!("{} must build: {e:?}", s.name()));
            assert_eq!(config.cloning(), &s.cloning());
            assert_eq!(config.tree_update(), s.tree_update());
            assert!(!s.summary().is_empty());
        }
    }

    #[test]
    fn first_three_schemes_are_the_campaign_policies() {
        let schemes = standard_schemes();
        assert_eq!(schemes[0].cloning(), CloningPolicy::None);
        assert_eq!(schemes[1].cloning(), CloningPolicy::Relaxed);
        assert_eq!(schemes[2].cloning(), CloningPolicy::Aggressive);
        for s in &schemes[..3] {
            assert_eq!(s.tree_update(), TreeUpdate::Lazy);
            assert_eq!(s.recovery(), RecoveryStrategy::AnubisShadow);
            assert_eq!(s.loss_profile(), LossProfile::default());
        }
    }

    #[test]
    fn lookup_finds_every_registered_name() {
        for s in standard_schemes() {
            let found = scheme_by_name(s.name()).expect("lookup");
            assert_eq!(found.name(), s.name());
        }
        assert!(scheme_by_name("nope").is_none());
    }

    #[test]
    fn tier_profiles_order_by_recoverability() {
        // tier0 loses leaves fatally, tier1+ re-derives them; all tiers
        // rebuild the upper tree. This is what drives the paper-figure
        // ordering triad2 <= triad1 <= triad0 in UDR.
        assert_eq!(Triad { tier: 0 }.loss_profile().leaf, LeafRecovery::Fatal);
        assert_eq!(Triad { tier: 1 }.loss_profile().leaf, LeafRecovery::Trials);
        assert_eq!(Triad { tier: 2 }.loss_profile().leaf, LeafRecovery::Trials);
        assert_eq!(Triad { tier: 0 }.loss_profile().rebuild_floor, 2);
    }
}
