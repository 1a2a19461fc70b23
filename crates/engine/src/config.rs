//! Front-end configurations under evaluation (§5.3) and cross-invocation
//! state policies (§3.2, §5.3).

use ignite_core::IgniteConfig;
use ignite_uarch::bimodal::BimInitPolicy;

/// Which microarchitectural state survives between two invocations of the
/// same function.
///
/// The lukewarm protocol (§5.3) flushes everything and randomizes the BIM;
/// the warm-state studies (Figs. 4, 5) selectively preserve structures; a
/// back-to-back run preserves everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePolicy {
    /// Preserve the L1-I/L2/LLC and ITLB contents and the back-end data
    /// working set (no cold data misses).
    pub warm_caches: bool,
    /// Preserve the BTB.
    pub warm_btb: bool,
    /// Preserve the bimodal tables (otherwise they are randomized).
    pub warm_bim: bool,
    /// Preserve the TAGE tables (otherwise they are cleared).
    pub warm_tage: bool,
}

impl StatePolicy {
    /// The lukewarm interleaving protocol: flush everything, randomize BIM.
    pub const fn lukewarm() -> Self {
        StatePolicy { warm_caches: false, warm_btb: false, warm_bim: false, warm_tage: false }
    }

    /// Back-to-back invocations: everything stays warm.
    pub const fn back_to_back() -> Self {
        StatePolicy { warm_caches: true, warm_btb: true, warm_bim: true, warm_tage: true }
    }

    /// Lukewarm but with a preserved BTB (Fig. 4, second bar).
    pub const fn lukewarm_warm_btb() -> Self {
        StatePolicy { warm_btb: true, ..StatePolicy::lukewarm() }
    }

    /// Lukewarm but with preserved BTB and full CBP (Fig. 4, third bar).
    pub const fn lukewarm_warm_bpu() -> Self {
        StatePolicy { warm_btb: true, warm_bim: true, warm_tage: true, ..StatePolicy::lukewarm() }
    }

    /// Lukewarm with warm BTB and warm BIM only (Fig. 5, middle).
    pub const fn lukewarm_warm_btb_bim() -> Self {
        StatePolicy { warm_btb: true, warm_bim: true, ..StatePolicy::lukewarm() }
    }
}

/// Which prefetching/restoration mechanisms are active.
///
/// The aggressive next-line prefetcher is always on (§5.3: "Used in all
/// configurations below").
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEndSelect {
    /// Decoupled front-end (FDP): FTQ run-ahead with L1-I prefetching.
    pub fdp: bool,
    /// Boomerang BTB prefilling (implies FDP).
    pub boomerang: bool,
    /// Jukebox L2 record/replay.
    pub jukebox: bool,
    /// Confluence temporal streaming.
    pub confluence: bool,
    /// Ignite record/replay restoration.
    pub ignite: Option<IgniteConfig>,
    /// Ideal front-end: perfect L1-I, perfect BTB, pre-trained CBP.
    pub ideal: bool,
}

/// A named front-end configuration: mechanisms plus the state policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEndConfig {
    /// Display name (matches the paper's figure legends).
    pub name: String,
    /// Active mechanisms.
    pub select: FrontEndSelect,
    /// Cross-invocation state policy.
    pub policy: StatePolicy,
}

impl FrontEndConfig {
    fn base(name: &str) -> Self {
        FrontEndConfig {
            name: name.to_string(),
            select: FrontEndSelect {
                fdp: false,
                boomerang: false,
                jukebox: false,
                confluence: false,
                ignite: None,
                ideal: false,
            },
            policy: StatePolicy::lukewarm(),
        }
    }

    /// Baseline: next-line prefetching only.
    pub fn nl() -> Self {
        FrontEndConfig::base("NL")
    }

    /// Decoupled front-end with FTQ-driven L1-I prefetching.
    pub fn fdp() -> Self {
        let mut c = FrontEndConfig::base("FDP");
        c.select.fdp = true;
        c
    }

    /// Boomerang (FDP + BTB prefill).
    pub fn boomerang() -> Self {
        let mut c = FrontEndConfig::base("Boomerang");
        c.select.fdp = true;
        c.select.boomerang = true;
        c
    }

    /// Jukebox on the NL baseline.
    pub fn jukebox() -> Self {
        let mut c = FrontEndConfig::base("Jukebox");
        c.select.jukebox = true;
        c
    }

    /// Boomerang combined with Jukebox.
    pub fn boomerang_jukebox() -> Self {
        let mut c = FrontEndConfig::base("Boomerang + JB");
        c.select.fdp = true;
        c.select.boomerang = true;
        c.select.jukebox = true;
        c
    }

    /// Confluence temporal streaming on the NL baseline.
    pub fn confluence() -> Self {
        let mut c = FrontEndConfig::base("Confluence");
        c.select.confluence = true;
        c
    }

    /// Ignite on FDP (the paper's "Ignite").
    pub fn ignite() -> Self {
        let mut c = FrontEndConfig::base("Ignite");
        c.select.fdp = true;
        c.select.ignite = Some(IgniteConfig::default());
        c
    }

    /// Ignite with the TAGE tables additionally preserved across
    /// invocations (the paper's "Ignite + TAGE" opportunity study).
    pub fn ignite_tage() -> Self {
        let mut c = FrontEndConfig::ignite();
        c.name = "Ignite + TAGE".to_string();
        c.policy.warm_tage = true;
        c
    }

    /// Ignite on top of Boomerang instead of plain FDP — the paper notes
    /// its implementation "could equally be used with Boomerang" (§5.3).
    pub fn ignite_boomerang() -> Self {
        let mut c = FrontEndConfig::base("Ignite + Boomerang");
        c.select.fdp = true;
        c.select.boomerang = true;
        c.select.ignite = Some(IgniteConfig::default());
        c
    }

    /// Confluence combined with Ignite (§6.5).
    pub fn confluence_ignite() -> Self {
        let mut c = FrontEndConfig::base("Confluence + Ignite");
        c.select.confluence = true;
        c.select.ignite = Some(IgniteConfig::default());
        c
    }

    /// Ideal front-end: perfect L1-I and BTB, pre-trained CBP.
    pub fn ideal() -> Self {
        let mut c = FrontEndConfig::base("Ideal");
        c.select.ideal = true;
        c.policy.warm_bim = true;
        c.policy.warm_tage = true;
        c
    }

    /// Overrides the cross-invocation state policy, renaming the config.
    pub fn with_policy(mut self, suffix: &str, policy: StatePolicy) -> Self {
        self.name = format!("{} {}", self.name, suffix);
        self.policy = policy;
        self
    }

    /// Installs a metadata fault-injection plan on the config's Ignite
    /// instance (robustness ablations). The name is suffixed so swept
    /// configurations stay distinguishable.
    ///
    /// # Panics
    ///
    /// Panics if this configuration does not include Ignite.
    pub fn with_faults(mut self, suffix: &str, faults: ignite_core::FaultPlan) -> Self {
        let ignite = self.select.ignite.as_mut().expect("fault plans apply to Ignite configs only");
        ignite.faults = faults;
        if !suffix.is_empty() {
            self.name = format!("{} [{}]", self.name, suffix);
        }
        self
    }

    /// Overrides Ignite's BIM initialization policy (Fig. 11 ablations).
    ///
    /// # Panics
    ///
    /// Panics if this configuration does not include Ignite.
    pub fn with_bim_policy(mut self, policy: BimInitPolicy) -> Self {
        let ignite =
            self.select.ignite.as_mut().expect("BIM policy applies to Ignite configs only");
        ignite.replay.bim_policy = policy;
        self.name = format!(
            "{} ({})",
            self.name,
            match policy {
                BimInitPolicy::None => "BTB only",
                BimInitPolicy::WeaklyNotTaken => "BIM wNT",
                BimInitPolicy::WeaklyTaken => "BIM wT",
            }
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lukewarm_flushes_everything() {
        let p = StatePolicy::lukewarm();
        assert!(!p.warm_caches && !p.warm_btb && !p.warm_bim && !p.warm_tage);
    }

    #[test]
    fn back_to_back_keeps_everything() {
        let p = StatePolicy::back_to_back();
        assert!(p.warm_caches && p.warm_btb && p.warm_bim && p.warm_tage);
    }

    #[test]
    fn named_configs_have_expected_mechanisms() {
        assert!(!FrontEndConfig::nl().select.fdp);
        assert!(FrontEndConfig::boomerang().select.boomerang);
        assert!(FrontEndConfig::boomerang().select.fdp);
        assert!(FrontEndConfig::jukebox().select.jukebox);
        assert!(!FrontEndConfig::jukebox().select.fdp, "Jukebox rides the NL baseline");
        let bjb = FrontEndConfig::boomerang_jukebox();
        assert!(bjb.select.boomerang && bjb.select.jukebox);
        assert!(FrontEndConfig::ignite().select.ignite.is_some());
        assert!(FrontEndConfig::ignite().select.fdp, "Ignite is implemented on FDP");
        assert!(FrontEndConfig::ideal().select.ideal);
    }

    #[test]
    fn ignite_tage_preserves_tage() {
        let c = FrontEndConfig::ignite_tage();
        assert!(c.policy.warm_tage);
        assert!(!c.policy.warm_btb, "only TAGE is preserved; the BTB is restored by replay");
    }

    #[test]
    fn bim_policy_override() {
        use ignite_uarch::bimodal::BimInitPolicy;
        let c = FrontEndConfig::ignite().with_bim_policy(BimInitPolicy::WeaklyNotTaken);
        assert_eq!(c.select.ignite.unwrap().replay.bim_policy, BimInitPolicy::WeaklyNotTaken);
        assert!(c.name.contains("wNT"));
    }

    #[test]
    #[should_panic(expected = "Ignite configs only")]
    fn bim_policy_requires_ignite() {
        FrontEndConfig::nl().with_bim_policy(BimInitPolicy::WeaklyTaken);
    }

    #[test]
    fn fault_plan_override() {
        let plan = ignite_core::FaultPlan::bit_flips(0.01, 42);
        let c = FrontEndConfig::ignite().with_faults("flip 1e-2", plan);
        assert_eq!(c.select.ignite.unwrap().faults, plan);
        assert!(c.name.contains("flip 1e-2"));
    }

    #[test]
    #[should_panic(expected = "Ignite configs only")]
    fn fault_plan_requires_ignite() {
        FrontEndConfig::fdp().with_faults("", ignite_core::FaultPlan::none());
    }

    #[test]
    fn with_policy_renames() {
        let c = FrontEndConfig::boomerang_jukebox()
            .with_policy("+ warm BTB", StatePolicy::lukewarm_warm_btb());
        assert!(c.name.contains("warm BTB"));
        assert!(c.policy.warm_btb);
    }
}
