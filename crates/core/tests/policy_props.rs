//! Properties of the profile-guided policy layer.
//!
//! 1. **Uniform-profile equivalence**: with no profile signal (all edge
//!    weights zero), the hot-first policy's scores tie at 0.0 and its
//!    `(depth, order)` tie-break *is* breadth-first — so formation under
//!    hot-first must be byte-identical to breadth-first, transform counts
//!    included. This pins the fallback contract that makes `HF` safe to
//!    run on unprofiled code.
//! 2. **Ledger containment**: for arbitrary programs and caps, the trial
//!    ledger never overruns its budget, and formation under a binding
//!    budget still preserves behaviour.

use chf_core::convergent::{form_hyperblocks_with_profile, FormationConfig, SeedOrder};
use chf_core::policy::{BreadthFirst, HotFirst};
use chf_ir::testgen::{generate, GenConfig};
use chf_sim::functional::run;
use chf_sim::functional::RunConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hot_first_equals_breadth_first_without_profile(seed in any::<u64>()) {
        let base = generate(seed, &GenConfig::default());
        // No profile applied: every block freq and edge count stays 0, the
        // "uniform" case. Run both policies with their pipeline-matched
        // seed orders (which also coincide at weight 0).
        let mut bf = base.clone();
        let bf_stats = form_hyperblocks_with_profile(
            &mut bf,
            &mut BreadthFirst,
            &FormationConfig::default(),
            None,
        );
        let mut hf = base.clone();
        let hf_config = FormationConfig {
            seed_order: SeedOrder::HotFirst,
            ..FormationConfig::default()
        };
        let hf_stats = form_hyperblocks_with_profile(&mut hf, &mut HotFirst, &hf_config, None);
        prop_assert_eq!(
            bf_stats.mtup(),
            hf_stats.mtup(),
            "transform counts diverged on seed {}",
            seed
        );
        prop_assert_eq!(
            format!("{bf}"),
            format!("{hf}"),
            "formed functions diverged on seed {}",
            seed
        );
    }

    #[test]
    fn trial_ledger_never_overruns(seed in any::<u64>(), cap in 0usize..24) {
        let mut f = generate(seed, &GenConfig::default());
        let orig = f.clone();
        let config = FormationConfig {
            trial_budget: Some(cap),
            ..FormationConfig::default()
        };
        let stats = form_hyperblocks_with_profile(&mut f, &mut BreadthFirst, &config, None);
        prop_assert!(
            stats.trials <= cap,
            "seed {}: {} trials exceed cap {}",
            seed,
            stats.trials,
            cap
        );
        chf_ir::verify::verify(&f)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
        for args in [[3, 7], [0, 0], [-5, 11]] {
            let a = run(&orig, &args, &[], &RunConfig::default()).unwrap();
            let b = run(&f, &args, &[], &RunConfig::default()).unwrap();
            prop_assert_eq!(a.digest(), b.digest(), "seed {} args {:?}", seed, args);
        }
    }
}
