//! Property: fault injection never aborts the process. For arbitrary
//! seeds, a formation campaign of injected faults (IR corruption, profile
//! corruption, mid-trial corruption) must classify every fault as
//! detected, rolled back, or survived — with zero escapes (panics) and
//! zero undetected miscompiles.

use chf_core::chaos::{run_campaign, FormationTarget};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn injected_faults_are_contained(seed in any::<u64>()) {
        let report = run_campaign(seed, 5, 1, &FormationTarget::default());
        prop_assert!(
            report.ok(),
            "campaign under seed {seed} escaped containment: {report}"
        );
    }

    /// The fault stream is a pure function of the seed: re-running a
    /// campaign reproduces its classification exactly (the property that
    /// makes `CHF_FAULT_SEED` a usable bug report).
    #[test]
    fn campaigns_are_replayable(seed in any::<u64>()) {
        let target = FormationTarget::default();
        let a = run_campaign(seed, 3, 1, &target);
        let b = run_campaign(seed, 3, 1, &target);
        prop_assert_eq!(a.by_kind, b.by_kind);
        prop_assert_eq!(a.unattributed_aborts, b.unattributed_aborts);
    }
}
