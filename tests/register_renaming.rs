//! Renaming registers commutes with every block-local kernel. The kernels
//! keep their per-register facts in tables indexed by register number, so
//! a kernel that let a number leak into its decisions, or a stale entry
//! from an earlier call survive, would read differently on a renamed block.
//! The blocks come from formed test-generator functions: formation without
//! the trial optimizer, so they keep the predication, redundancy and
//! duplicate exits that merging creates. Each block, and each state the
//! kernels take it through, is renamed injectively into `[0, 65535)`.

use chf::core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf::core::policy::BreadthFirst;
use chf::ir::block::Block;
use chf::ir::fxhash::FxHashMap;
use chf::ir::ids::Reg;
use chf::ir::testgen::{generate, GenConfig, SplitMix64};
use chf::opt::{constfold, copyprop, gvn, predopt, strength};
use chf::sim::functional::profile_run;

type Kernel = (&'static str, fn(&mut Block) -> bool);

const KERNELS: [Kernel; 6] = [
    ("fold_block", constfold::fold_block),
    ("reduce_block", strength::reduce_block),
    ("propagate_block", copyprop::propagate_block),
    ("value_number_block", gvn::value_number_block),
    ("predopt::optimize_block", predopt::optimize_block),
    ("dedupe_exits", Block::dedupe_exits),
];

/// An injective map from the registers `blk` names into `[0, 65535)`.
fn random_renaming(blk: &Block, rng: &mut SplitMix64) -> FxHashMap<Reg, Reg> {
    let mut regs: Vec<Reg> = Vec::new();
    let mut b = blk.clone();
    b.rename_regs(|r| {
        regs.push(r);
        r
    });
    let mut map = FxHashMap::default();
    let mut taken = FxHashMap::default();
    for r in regs {
        if map.contains_key(&r) {
            continue;
        }
        let to = loop {
            let to = Reg(rng.below(65535) as u32);
            if taken.insert(to, r).is_none() {
                break to;
            }
        };
        map.insert(r, to);
    }
    map
}

fn renamed(blk: &Block, map: &FxHashMap<Reg, Reg>) -> Block {
    let mut b = blk.clone();
    b.rename_regs(|r| map[&r]);
    b
}

#[test]
fn renaming_registers_commutes_with_every_block_kernel() {
    let gen = GenConfig {
        max_depth: 4,
        ..GenConfig::default()
    };
    let config = FormationConfig {
        iterative_opt: false,
        ..FormationConfig::default()
    };
    let mut rng = SplitMix64::new(0x5EED);
    let (mut checked, mut changed) = (0usize, 0usize);
    for seed in 0..40 {
        let mut f = generate(seed, &gen);
        let args: Vec<i64> = (0..f.params as i64).map(|a| 3 + 4 * a).collect();
        let profile = profile_run(&f, &args, &[]).expect("generated programs run");
        profile.apply(&mut f);
        form_hyperblocks_with_profile(&mut f, &mut BreadthFirst, &config, Some(&profile));
        for (b, blk) in f.blocks() {
            let mut state = blk.clone();
            for _round in 0..2 {
                for (name, kernel) in KERNELS {
                    let map = random_renaming(&state, &mut rng);
                    let mut plain = state.clone();
                    let c = kernel(&mut plain);
                    let mut other = renamed(&state, &map);
                    let c_other = kernel(&mut other);
                    assert_eq!(
                        (c_other, &other),
                        (c, &renamed(&plain, &map)),
                        "{name} on seed {seed} {b}"
                    );
                    checked += 1;
                    changed += usize::from(c);
                    state = plain;
                }
            }
        }
    }
    assert!(
        changed * 4 > checked,
        "too few kernel runs changed a block to show anything: {changed} of {checked}"
    );
}
