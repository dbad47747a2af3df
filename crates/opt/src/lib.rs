#![warn(missing_docs)]
//! # chf-opt — scalar optimizations for hyperblock formation
//!
//! The `Optimize` step of the paper's `MergeBlocks` procedure (§4.2):
//! after each trial merge, the compiler "attempts to eliminate instructions
//! in the merged block" using *dominator-based global value numbering* and
//! *predicate optimizations* so the merged block fits the structural
//! constraints more often. This crate provides those passes plus the
//! classical cleanups they rely on:
//!
//! * [`constfold`] — constant folding and algebraic simplification;
//! * [`copyprop`] — predicate-aware copy propagation within blocks;
//! * [`gvn`] — local value numbering (predicate- and memory-aware) and
//!   dominator-scoped global value numbering over single-def registers;
//! * [`predopt`] — instruction merging across complementary predicates and
//!   predicate constant folding (from the dataflow-predication work the
//!   paper cites as \[25\]);
//! * [`strength`] — strength reduction (multiplies/divides by powers of two
//!   become shifts and masks, shortening dataflow chains);
//! * [`jumpthread`] — bypassing of empty forwarding blocks;
//! * [`dce`] — liveness-based dead-code elimination.
//!
//! All passes implement [`Pass`]; [`optimize`] runs the standard fixpoint
//! pipeline the convergent formation loop invokes after every merge. A
//! [`CleanBlocks`] memo lets repeated runs skip the blocks the block-local
//! kernels have already left unchanged, and carries the liveness solution
//! DCE refreshes instead of recomputing and the dominator trees global
//! value numbering reads (a [`DomCache`](chf_ir::dom::DomCache), rebuilt
//! only when the CFG changed). The five block-local kernels each cost time
//! linear in their block:
//! they keep per-register facts in per-thread, epoch-stamped
//! [`RegTable`](chf_ir::regtable::RegTable)s, reused across calls and never
//! zeroed, so no call pays for the register numbers a block uses.
//!
//! Every pass preserves observable behaviour (return value and final memory
//! image); the test suite enforces this over thousands of generated
//! programs.

use chf_ir::function::Function;

mod clean;
pub mod constfold;
pub mod copyprop;
pub mod dce;
pub mod gvn;
pub mod jumpthread;
pub mod predopt;
pub mod strength;

pub use clean::CleanBlocks;

/// A scalar optimization pass.
pub trait Pass {
    /// Diagnostic name of the pass.
    fn name(&self) -> &'static str;

    /// Run over `f`; returns `true` if anything changed.
    fn run(&mut self, f: &mut Function) -> bool;

    /// [`Pass::run`], skipping the blocks `clean` knows the pass's
    /// block-local kernel leaves unchanged. Changes `f` exactly as `run`
    /// does; the default ignores the memo.
    fn run_cached(&mut self, f: &mut Function, _clean: &mut CleanBlocks) -> bool {
        self.run(f)
    }
}

/// Runs a sequence of passes to a fixpoint (bounded by `max_rounds`).
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    max_rounds: usize,
}

impl PassManager {
    /// A pass manager over the given passes.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager {
            passes,
            max_rounds: 16,
        }
    }

    /// The standard pipeline used by convergent hyperblock formation.
    pub fn standard() -> Self {
        Self::new(vec![
            Box::new(constfold::ConstFold),
            Box::new(strength::Strength),
            Box::new(copyprop::CopyProp),
            Box::new(gvn::Gvn),
            Box::new(predopt::PredOpt),
            Box::new(jumpthread::JumpThread),
            Box::new(dce::Dce),
        ])
    }

    /// Limit fixpoint iteration.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Run all passes repeatedly until none changes anything (or the round
    /// budget is exhausted). Returns the number of rounds executed.
    pub fn run(&mut self, f: &mut Function) -> usize {
        self.run_cached(f, &mut CleanBlocks::new())
    }

    /// [`PassManager::run`] with a caller-owned memo, which may carry what
    /// it learned across calls on the same function.
    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> usize {
        for round in 0..self.max_rounds {
            let mut changed = false;
            for p in &mut self.passes {
                let c = p.run_cached(f, clean);
                debug_assert!(
                    chf_ir::verify::verify(f).is_ok(),
                    "pass {} broke the IR:\n{f}",
                    p.name()
                );
                changed |= c;
            }
            if !changed {
                return round + 1;
            }
        }
        self.max_rounds
    }
}

/// Run the standard scalar-optimization fixpoint over `f`.
///
/// This is the `Optimize` call of the paper's Figure 5.
pub fn optimize(f: &mut Function) {
    PassManager::standard().run(f);
}

/// A cheaper variant for the inner loop of convergent formation: two rounds
/// of the standard pipeline, which removes the redundancy a single merge
/// introduces without iterating to a full fixpoint. Formation runs it once
/// per committed merge, with one `clean` memo for the whole formation run,
/// so the blocks the merge left untouched skip the block-local kernels.
/// The compile pipeline runs the full [`optimize`] after formation.
pub fn optimize_quick(f: &mut Function, clean: &mut CleanBlocks) {
    PassManager::standard()
        .with_max_rounds(2)
        .run_cached(f, clean);
}

/// Block-scoped counterpart of [`optimize_quick`]: two rounds of the
/// standard pipeline restricted to block `b`. Analyses that must be global
/// to stay sound (liveness for DCE, dominators/invariants for global GVN)
/// are still computed over the whole function, but **only `b` is mutated**.
///
/// This is the trial optimizer of convergent formation's in-place
/// trial/commit path: a merge trial optimizes just the merged block to
/// decide whether it fits the structural constraints, and the decision must
/// not disturb any block outside the trial's snapshot (rollback restores
/// only the snapshot). The whole-function [`optimize_quick`] then runs once
/// per *committed* merge, not once per trial. Formation runs it only on
/// a merged block that does not fit unoptimized.
///
/// `live` is a liveness solution of some earlier state of `f` (or of a
/// clone of it); each DCE sweep [refreshes](chf_ir::liveness::Liveness::refresh)
/// it first, so only the blocks changed since then are solved again. On
/// return it describes `f` as of the last sweep: refresh it once more
/// before reading it, which costs nothing if that sweep removed nothing.
///
/// `doms` answers the global round's dominator and loop questions.
/// Formation passes its run's cache, which keeps the pre-trial tree for the
/// questions after a rollback, and whose tree of the trial's CFG serves the
/// first global round of a commit.
pub fn optimize_block_quick(
    f: &mut Function,
    b: chf_ir::ids::BlockId,
    live: &mut chf_ir::liveness::Liveness,
    doms: &mut chf_ir::dom::DomCache,
) {
    // Purely local rounds first (no whole-function analyses), then one
    // global round: scoped global value numbering, exit threading, and
    // liveness-based DCE, followed by a final local cleanup and DCE of
    // whatever the global round exposed. Dominators and loop membership are
    // looked up once per call, liveness refreshed once or twice.
    let local = |f: &mut Function| {
        let mut changed = false;
        changed |= constfold::fold_block(f.block_mut(b));
        changed |= strength::reduce_block(f.block_mut(b));
        changed |= copyprop::propagate_block(f.block_mut(b));
        changed |= gvn::value_number_block(f.block_mut(b));
        changed |= predopt::optimize_block(f.block_mut(b));
        changed
    };
    for _ in 0..2 {
        if !local(f) {
            break;
        }
    }
    let mut changed = false;
    let (dom, in_loops) = doms.tree_and_loops(f);
    changed |= gvn::run_global_with(f, Some(b), dom, in_loops);
    changed |= jumpthread::thread_block_exits(f, b);
    if dce::eliminate_in_block(f, b, live) || changed {
        local(f);
        dce::eliminate_in_block(f, b, live);
    }
    debug_assert!(
        chf_ir::verify::verify(f).is_ok(),
        "block-scoped optimization broke the IR:\n{f}"
    );
}

#[cfg(test)]
pub(crate) mod testutil {
    use chf_ir::function::Function;
    use chf_ir::testgen::{generate, GenConfig};
    use chf_sim::functional::{run, RunConfig};

    /// Assert that `transform` preserves observable behaviour on a swarm of
    /// generated programs and inputs.
    pub fn assert_preserves_behaviour(
        transform: impl Fn(&mut Function),
        seeds: std::ops::Range<u64>,
    ) {
        let cfg = GenConfig::default();
        for seed in seeds {
            let f0 = generate(seed, &cfg);
            let mut f1 = f0.clone();
            transform(&mut f1);
            chf_ir::verify::verify(&f1).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{f1}"));
            for args in [[0, 0], [1, 7], [13, 5], [100, 255], [-9, 3]] {
                let r0 = run(&f0, &args, &[], &RunConfig::default()).unwrap();
                let r1 = run(&f1, &args, &[], &RunConfig::default()).unwrap();
                assert_eq!(
                    r0.digest(),
                    r1.digest(),
                    "behaviour changed: seed {seed}, args {args:?}\nBEFORE:\n{f0}\nAFTER:\n{f1}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_preserves_behaviour() {
        testutil::assert_preserves_behaviour(optimize, 0..60);
    }

    #[test]
    fn optimize_is_idempotent_on_generated_programs() {
        use chf_ir::testgen::{generate, GenConfig};
        for seed in 0..20 {
            let mut f = generate(seed, &GenConfig::default());
            optimize(&mut f);
            let once = f.to_string();
            optimize(&mut f);
            assert_eq!(once, f.to_string(), "seed {seed}");
        }
    }

    #[test]
    fn a_quick_run_at_its_fixpoint_borrows_no_block_mutably() {
        use chf_ir::testgen::{generate, GenConfig};
        for seed in 0..30 {
            let mut f = generate(seed, &GenConfig::default());
            if seed % 2 == 0 {
                // An empty entry that forwards: jump threading resolves it
                // on every run but can neither remove it nor move an exit.
                let mut fwd = chf_ir::block::Block::new();
                fwd.exits.push(chf_ir::block::Exit::jump(f.entry));
                f.entry = f.add_block(fwd);
            }
            let mut clean = CleanBlocks::new();
            let mut last = String::new();
            while last != f.to_string() {
                last = f.to_string();
                optimize_quick(&mut f, &mut clean);
            }
            let before = f.block_versions().to_vec();
            optimize_quick(&mut f, &mut clean);
            assert_eq!(f.block_versions(), before, "seed {seed}");
        }
    }

    #[test]
    fn optimize_shrinks_code() {
        use chf_ir::testgen::{generate, GenConfig};
        let mut total_before = 0usize;
        let mut total_after = 0usize;
        for seed in 0..30 {
            let mut f = generate(seed, &GenConfig::default());
            total_before += f.static_size();
            optimize(&mut f);
            total_after += f.static_size();
        }
        assert!(
            total_after < total_before,
            "optimizer should remove instructions overall: {total_after} !< {total_before}"
        );
    }
}
