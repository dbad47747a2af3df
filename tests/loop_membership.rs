//! Global value numbering decides which blocks lie in a loop with the dense
//! `blocks_in_loops` walk instead of building a `LoopForest`. The two must
//! agree on every block, before and after formation has unrolled and peeled
//! the loops.

use chf::core::convergent::{form_hyperblocks, FormationConfig};
use chf::core::policy::BreadthFirst;
use chf::ir::dom::DomTree;
use chf::ir::function::Function;
use chf::ir::loops::{blocks_in_loops, LoopForest};
use chf::ir::testgen::{generate, GenConfig};

fn assert_membership_agrees(f: &Function, what: &str) {
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let in_loop = blocks_in_loops(&dom);
    assert_eq!(in_loop.len(), f.block_slots(), "{what}: slots");
    for b in f.block_ids() {
        assert_eq!(
            in_loop[b.index()],
            forest.depth(b) > 0,
            "{what}: membership of {b}"
        );
    }
}

/// Checks `f`, then forms hyperblocks in it and checks the result.
fn check_before_and_after_formation(mut f: Function, what: &str) {
    assert_membership_agrees(&f, what);
    form_hyperblocks(&mut f, &mut BreadthFirst, &FormationConfig::default());
    assert_membership_agrees(&f, &format!("{what} after formation"));
}

#[test]
fn loop_membership_matches_loop_forest_on_generated_programs() {
    for max_depth in [3, 4] {
        let cfg = GenConfig {
            max_depth,
            ..GenConfig::default()
        };
        for seed in 0..60 {
            check_before_and_after_formation(
                generate(seed, &cfg),
                &format!("testgen depth {max_depth} seed {seed}"),
            );
        }
    }
}

#[test]
fn loop_membership_matches_loop_forest_on_every_workload() {
    let suite: Vec<_> = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite())
        .collect();
    assert_eq!(suite.len(), 43);
    for w in suite {
        let mut f = w.function.clone();
        w.profile.apply(&mut f);
        check_before_and_after_formation(f, &w.name);
    }
}
