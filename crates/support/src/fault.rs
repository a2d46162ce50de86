//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] decides, purely from `(seed, site, index)`, whether
//! an injection point fires. Decisions are keyed off the workspace's
//! SplitMix64 stream ([`crate::rng::SplitMix`]), so a recorded
//! `(SL_FAULT_SEED, SL_FAULT_RATE)` pair replays the exact same fault
//! pattern on every run — fault drills are as reproducible as the
//! seeded test corpora.
//!
//! Injection points in the workspace (all no-ops when the rate is 0):
//!
//! * `"par.worker"` — panics a parallel sweep item inside
//!   [`crate::par::try_par_map`]'s isolation boundary, exercising the
//!   catch-and-pinpoint path;
//! * `"buchi.complement"` — fails a rank-based complementation
//!   mid-construction with a typed error;
//! * `"buchi.incl.antichain"` — fails a budgeted inclusion search at an
//!   insertion attempt with a typed error (unbudgeted searches never
//!   consult it);
//! * `"buchi.quotient_cache"` — invalidates a memoized simulation
//!   quotient, forcing a (behavior-preserving) recomputation;
//! * `"sl.service.request"` — rejects a daemon request at intake with a
//!   typed error.
//!
//! Environment knobs: `SL_FAULT_SEED` (u64, default 0) and
//! `SL_FAULT_RATE` (probability in `[0, 1]`, default 0 = disabled),
//! read once per process by [`global`].

use crate::error::SlError;
use crate::rng::{SplitMix, GOLDEN_GAMMA};
use std::sync::OnceLock;

/// A deterministic fault-injection plan: a seed plus a firing rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// A plan that never fires (the default for production paths).
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan { seed: 0, rate: 0.0 }
    }

    /// A plan firing with probability `rate` (clamped to `[0, 1]`),
    /// deterministically in `(seed, site, index)`.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// Reads `SL_FAULT_SEED` / `SL_FAULT_RATE`; unset or unparsable
    /// values yield the disabled plan.
    #[must_use]
    pub fn from_env() -> Self {
        let seed = std::env::var("SL_FAULT_SEED")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let rate = std::env::var("SL_FAULT_RATE")
            .ok()
            .and_then(|raw| raw.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        FaultPlan::new(seed, rate)
    }

    /// Whether any site can ever fire under this plan.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// The firing decision for invocation `index` of `site`: a pure
    /// function of `(seed, site, index)` — independent of thread
    /// interleaving, call order, and every other site.
    #[must_use]
    pub fn should_fault(&self, site: &str, index: u64) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let mut rng = SplitMix::new(
            self.seed
                ^ fnv1a(site.as_bytes())
                ^ index.wrapping_mul(GOLDEN_GAMMA),
        );
        // 53 uniform mantissa bits -> [0, 1).
        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.rate
    }

    /// Panics with a recognizable message if the site fires — the
    /// injection shape for panic-isolation drills. The message prefix
    /// `sl-fault:` lets reports distinguish injected panics from real
    /// ones.
    pub fn inject_panic(&self, site: &str, index: u64) {
        if self.should_fault(site, index) {
            panic!("sl-fault: injected panic at {site}#{index}");
        }
    }

    /// Returns a typed [`SlError::FaultInjected`] if the site fires —
    /// the injection shape for error-propagation drills.
    ///
    /// # Errors
    ///
    /// [`SlError::FaultInjected`] when `(seed, site, index)` fires.
    pub fn inject_error(&self, site: &'static str, index: u64) -> Result<(), SlError> {
        if self.should_fault(site, index) {
            Err(SlError::FaultInjected { site, index })
        } else {
            Ok(())
        }
    }
}

/// The process-wide plan, read once from `SL_FAULT_SEED` /
/// `SL_FAULT_RATE`. Library injection points consult this; tests that
/// need a specific pattern construct explicit [`FaultPlan`]s instead.
pub fn global() -> &'static FaultPlan {
    static PLAN: OnceLock<FaultPlan> = OnceLock::new();
    PLAN.get_or_init(FaultPlan::from_env)
}

/// FNV-1a over the site name: stable, allocation-free site hashing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        for i in 0..1000 {
            assert!(!plan.should_fault("par.worker", i));
        }
        assert!(!plan.is_enabled());
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::new(7, 1.0);
        for i in 0..100 {
            assert!(plan.should_fault("anything", i));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_site_dependent() {
        let plan = FaultPlan::new(2003, 0.5);
        let a: Vec<bool> = (0..256).map(|i| plan.should_fault("site.a", i)).collect();
        let b: Vec<bool> = (0..256).map(|i| plan.should_fault("site.a", i)).collect();
        assert_eq!(a, b, "same (seed, site, index) must replay identically");
        let c: Vec<bool> = (0..256).map(|i| plan.should_fault("site.b", i)).collect();
        assert_ne!(a, c, "different sites draw independent streams");
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::new(42, 0.1);
        let fired = (0..10_000)
            .filter(|&i| plan.should_fault("rate.check", i))
            .count();
        assert!((500..2000).contains(&fired), "10% of 10k, got {fired}");
    }

    #[test]
    fn inject_error_is_typed() {
        let plan = FaultPlan::new(1, 1.0);
        let err = plan.inject_error("drill", 9).unwrap_err();
        assert_eq!(
            err,
            SlError::FaultInjected {
                site: "drill",
                index: 9
            }
        );
        FaultPlan::disabled().inject_error("drill", 9).unwrap();
    }

    #[test]
    fn inject_panic_fires_with_marker() {
        let plan = FaultPlan::new(1, 1.0);
        let caught = std::panic::catch_unwind(|| plan.inject_panic("drill", 0)).unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.starts_with("sl-fault:"), "{message}");
    }

    #[test]
    fn rate_clamps() {
        assert!(FaultPlan::new(0, 7.5).should_fault("x", 0));
        assert!(!FaultPlan::new(0, -3.0).is_enabled());
    }
}
