//! Global value numbering decides which blocks lie in a loop with the dense
//! `blocks_in_loops` walk, and formation classifies a merge from the
//! dominator tree alone, instead of building a `LoopForest`. Both must agree
//! with the forest on every block and edge, before and after formation has
//! unrolled and peeled the loops.

use chf::core::convergent::{form_hyperblocks_with_profile, FormationConfig};
use chf::core::duplication::{classify, DuplicationKind};
use chf::core::pipeline::{try_compile, CompileConfig};
use chf::core::policy::BreadthFirst;
use chf::ir::cfg::{predecessor_count, successors};
use chf::ir::dom::DomTree;
use chf::ir::function::Function;
use chf::ir::loops::{blocks_in_loops, LoopForest};
use chf::ir::profile::ProfileData;
use chf::ir::testgen::{generate, GenConfig};
use chf::sim::functional::{run, RunConfig};

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
    form_hyperblocks_with_profile(&mut f, &mut BreadthFirst, &FormationConfig::default(), None);
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

/// `classify` of every edge of `f` against the answer the natural-loop
/// forest gives: Figure 5's cases, with the forest's back edges and headers.
fn assert_classify_agrees(f: &Function, what: &str) {
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    for hb in f.block_ids() {
        for s in successors(f, hb) {
            let back_edge = forest.is_back_edge(hb, s);
            let expected = if back_edge {
                DuplicationKind::Unroll
            } else if predecessor_count(f, s) == 1 {
                DuplicationKind::None
            } else if forest.is_header(s) {
                DuplicationKind::Peel
            } else {
                DuplicationKind::Tail
            };
            assert_eq!(classify(f, &dom, hb, s), expected, "{what}: {hb} -> {s}");
        }
    }
}

/// Checks `classify` on `f` and on what `try_compile` makes of it under
/// `profile`.
fn check_classify_before_and_after_compiling(f: &Function, profile: &ProfileData, what: &str) {
    assert_classify_agrees(f, what);
    let compiled = try_compile(f, profile, &CompileConfig::convergent())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_classify_agrees(&compiled.function, &format!("{what} compiled"));
}

#[test]
fn classify_matches_loop_forest_on_generated_programs() {
    let cfg = GenConfig {
        max_depth: 4,
        ..GenConfig::default()
    };
    for seed in 0..200 {
        let f = generate(seed, &cfg);
        let args: Vec<i64> = (0..f.params as i64).map(|i| 3 * i - 2).collect();
        let profile = run(&f, &args, &[], &RunConfig::default()).unwrap().profile;
        check_classify_before_and_after_compiling(&f, &profile, &format!("testgen seed {seed}"));
    }
}

#[test]
fn classify_matches_loop_forest_on_every_workload() {
    let suite: Vec<_> = chf::workloads::microbenchmarks()
        .into_iter()
        .chain(chf::workloads::spec_suite())
        .collect();
    assert_eq!(suite.len(), 43);
    for w in suite {
        check_classify_before_and_after_compiling(&w.function, &w.profile, &w.name);
    }
}
