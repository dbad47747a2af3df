//! The clean-block memo changes nothing. The standard pipeline skips the
//! blocks its block-local kernels already left clean; the same passes
//! behind a wrapper that implements only `Pass::run` never do. Both must
//! print the same function after the same number of rounds.

use chf::ir::function::Function;
use chf::ir::testgen::{generate, GenConfig};
use chf::opt::{constfold, copyprop, dce, gvn, jumpthread, predopt, strength, Pass, PassManager};

/// A pass with only the required methods, so it gets the uncached
/// `run_cached` default.
struct Uncached<P>(P);

impl<P: Pass> Pass for Uncached<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(&mut self, f: &mut Function) -> bool {
        self.0.run(f)
    }
}

fn uncached_standard() -> PassManager {
    PassManager::new(vec![
        Box::new(Uncached(constfold::ConstFold)),
        Box::new(Uncached(strength::Strength)),
        Box::new(Uncached(copyprop::CopyProp)),
        Box::new(Uncached(gvn::Gvn)),
        Box::new(Uncached(predopt::PredOpt)),
        Box::new(Uncached(jumpthread::JumpThread)),
        Box::new(Uncached(dce::Dce)),
    ])
}

fn assert_memo_changes_nothing(f: &Function, what: &str) {
    let mut cached = f.clone();
    let cached_rounds = PassManager::standard().run(&mut cached);
    let mut plain = f.clone();
    let plain_rounds = uncached_standard().run(&mut plain);
    assert_eq!(cached_rounds, plain_rounds, "{what}: round count");
    assert_eq!(
        cached.to_string(),
        plain.to_string(),
        "{what}: printed function"
    );
}

#[test]
fn memo_changes_nothing_on_generated_programs() {
    let cfg = GenConfig::default();
    for seed in 0..200 {
        assert_memo_changes_nothing(&generate(seed, &cfg), &format!("testgen seed {seed}"));
    }
}

#[test]
fn memo_changes_nothing_on_every_workload() {
    let suite: Vec<_> = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite())
        .collect();
    assert_eq!(suite.len(), 43);
    for w in suite {
        let mut f = w.function.clone();
        w.profile.apply(&mut f);
        assert_memo_changes_nothing(&f, &w.name);
    }
}
