//! Property-based tests over the IR's core data structures and analyses.

use chf_ir::block::Exit;
use chf_ir::builder::FunctionBuilder;
use chf_ir::cfg::{predecessors, reachable, reverse_postorder};
use chf_ir::dom::DomTree;
use chf_ir::function::Function;
use chf_ir::ids::BlockId;
use chf_ir::instr::{Operand, Pred};
use chf_ir::liveness::Liveness;
use chf_ir::loops::LoopForest;
use chf_ir::parse::parse_function;
use chf_ir::testgen::{generate, GenConfig};
use chf_ir::verify::verify;
use chf_sim::functional::{run, RunConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn gen_config() -> impl Strategy<Value = GenConfig> {
    (1u32..4, 2u32..8, 0u64..6, 3u32..8, any::<bool>()).prop_map(
        |(max_depth, max_stmts, max_trips, num_vars, memory_ops)| GenConfig {
            max_depth,
            max_stmts,
            max_trips,
            num_vars,
            memory_ops,
        },
    )
}

/// Immediate dominators from dominator *sets*, independent of
/// [`DomTree`]: `Dom(entry) = {entry}` and `Dom(b) = {b} ∪ ⋂ Dom(p)` over
/// the reachable predecessors `p`, iterated from "every block" until nothing
/// changes. The idom of `b` is its strict dominator with the largest set.
fn naive_idoms(f: &Function) -> BTreeMap<BlockId, BlockId> {
    let all: BTreeSet<BlockId> = reachable(f).into_iter().collect();
    let mut doms: BTreeMap<BlockId, BTreeSet<BlockId>> =
        all.iter().map(|&b| (b, all.clone())).collect();
    doms.insert(f.entry, [f.entry].into());
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &all {
            if b == f.entry {
                continue;
            }
            let mut meet: Option<BTreeSet<BlockId>> = None;
            for &p in &all {
                if f.block(p).successors().any(|s| s == b) {
                    meet = Some(match meet {
                        None => doms[&p].clone(),
                        Some(m) => m.intersection(&doms[&p]).copied().collect(),
                    });
                }
            }
            let mut new = meet.expect("a reachable block has a reachable predecessor");
            new.insert(b);
            if new != doms[&b] {
                doms.insert(b, new);
                changed = true;
            }
        }
    }
    all.iter()
        .map(|&b| {
            let idom = doms[&b]
                .iter()
                .filter(|&&d| d != b)
                .max_by_key(|d| doms[d].len())
                .copied()
                .unwrap_or(b);
            (b, idom)
        })
        .collect()
}

/// A hand-built CFG with two exits to the same block and an exit to a
/// removed block: the dedup and skip rules of the successor lists decide
/// the DFS, so the reverse postorder is pinned.
#[test]
fn rpo_of_duplicate_and_dangling_exits_is_pinned() {
    let mut fb = FunctionBuilder::new("f", 1);
    let e = fb.create_block();
    let a = fb.create_block();
    let b = fb.create_block();
    let gone = fb.create_block();
    let j = fb.create_block();
    fb.switch_to(e);
    let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(0));
    fb.branch(c, a, b);
    fb.switch_to(a);
    fb.jump(j);
    fb.switch_to(b);
    fb.jump(j);
    fb.switch_to(gone);
    fb.ret(None);
    fb.switch_to(j);
    fb.ret(None);
    let mut f = fb.build().unwrap();
    // a: [c] → j, [c] → gone, → j; then `gone` is removed.
    f.block_mut(a).exits = vec![
        Exit::when(Pred::on_true(c), j),
        Exit::when(Pred::on_true(c), gone),
        Exit::jump(j),
    ];
    f.remove_block(gone);

    let dom = DomTree::compute(&f);
    assert_eq!(dom.rpo(), &[e, b, a, j]);
    assert_eq!(reverse_postorder(&f), vec![e, b, a, j]);
    assert_eq!(dom.preds(j), &[b, a]);
    assert!(!dom.is_reachable(gone));
    for x in [a, b, j] {
        assert_eq!(dom.idom(x), Some(e));
    }
    assert_eq!(naive_idoms(&f)[&j], e);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated program satisfies the structural invariants.
    #[test]
    fn generated_programs_verify(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        prop_assert!(verify(&f).is_ok());
    }

    /// Reverse postorder visits exactly the reachable blocks, starting at
    /// the entry, and predecessors/successors agree.
    #[test]
    fn rpo_and_reachability_agree(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let rpo = reverse_postorder(&f);
        let reach = reachable(&f);
        prop_assert_eq!(rpo.len(), reach.len());
        prop_assert_eq!(rpo[0], f.entry);
        for b in &rpo {
            prop_assert!(reach.contains(b));
        }
        let preds = predecessors(&f);
        for (b, ps) in &preds {
            for p in ps {
                prop_assert!(
                    f.block(*p).successors().any(|s| s == *b),
                    "pred edge {p} -> {b} has no matching successor"
                );
            }
        }
    }

    /// Dominator-tree sanity: the entry dominates every reachable block,
    /// immediate dominators strictly dominate their children, and
    /// domination is consistent with reachability.
    #[test]
    fn dominator_invariants(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let dom = DomTree::compute(&f);
        for b in reachable(&f) {
            prop_assert!(dom.dominates(f.entry, b), "entry must dominate {b}");
            prop_assert!(dom.dominates(b, b), "domination is reflexive");
            if b != f.entry {
                let idom = dom.idom(b).expect("reachable blocks have idoms");
                prop_assert!(dom.strictly_dominates(idom, b));
            }
        }
    }

    /// Immediate dominators equal the naive set-based solution on every
    /// reachable block, and exactly the reachable blocks are in the tree.
    #[test]
    fn idoms_match_naive_dominator_sets(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let dom = DomTree::compute(&f);
        let naive = naive_idoms(&f);
        for b in f.block_ids() {
            prop_assert_eq!(dom.is_reachable(b), naive.contains_key(&b), "{}", b);
        }
        for (b, idom) in naive {
            prop_assert_eq!(dom.idom(b), Some(idom), "idom of {}", b);
        }
    }

    /// Natural-loop invariants: the header is in the body, dominates every
    /// body block, and every back-edge source is in the body.
    #[test]
    fn loop_invariants(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        for l in &forest.loops {
            prop_assert!(l.body.contains(&l.header));
            for b in &l.body {
                prop_assert!(dom.dominates(l.header, *b), "header must dominate {b}");
            }
            for (u, v) in &l.back_edges {
                prop_assert_eq!(*v, l.header);
                prop_assert!(l.body.contains(u));
            }
        }
    }

    /// Liveness consistency: register reads are live-in; a block's live-out
    /// is the union of its successors' live-ins.
    #[test]
    fn liveness_invariants(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let lv = Liveness::compute(&f);
        for (b, blk) in f.blocks() {
            for r in lv.register_reads(b) {
                prop_assert!(lv.live_in(b).contains(&r));
            }
            let mut union = chf_ir::fxhash::FxHashSet::default();
            for s in blk.successors() {
                union.extend(lv.live_in(s).iter());
            }
            prop_assert_eq!(lv.live_out(b).to_set(), union, "live-out of {} mismatch", b);
        }
    }

    /// The printer and parser are inverse: print → parse → print is a
    /// fixpoint for freshly built functions.
    #[test]
    fn print_parse_round_trip(seed in any::<u64>(), cfg in gen_config()) {
        let f = generate(seed, &cfg);
        let text = f.to_string();
        let parsed = parse_function(&text).expect("printer output must parse");
        prop_assert_eq!(parsed.to_string(), text);
        // And the reparsed function behaves identically.
        let a = run(&f, &[3, 4], &[], &RunConfig::default()).unwrap();
        let b = run(&parsed, &[3, 4], &[], &RunConfig::default()).unwrap();
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Exit deduplication preserves observable behaviour.
    #[test]
    fn dedupe_exits_preserves_behaviour(
        seed in any::<u64>(),
        cfg in gen_config(),
        a in -50i64..50,
        b in -50i64..50,
    ) {
        let f0 = generate(seed, &cfg);
        let mut f1 = f0.clone();
        let ids: Vec<_> = f1.block_ids().collect();
        for id in ids {
            f1.block_mut(id).dedupe_exits();
        }
        prop_assert!(verify(&f1).is_ok());
        let r0 = run(&f0, &[a, b], &[], &RunConfig::default()).unwrap();
        let r1 = run(&f1, &[a, b], &[], &RunConfig::default()).unwrap();
        prop_assert_eq!(r0.digest(), r1.digest());
    }

    /// Execution is deterministic: the same program and inputs always give
    /// the same outcome and counters.
    #[test]
    fn execution_is_deterministic(seed in any::<u64>(), a in -100i64..100) {
        let f = generate(seed, &GenConfig::default());
        let r0 = run(&f, &[a, 1], &[], &RunConfig::default()).unwrap();
        let r1 = run(&f, &[a, 1], &[], &RunConfig::default()).unwrap();
        prop_assert_eq!(r0.digest(), r1.digest());
        prop_assert_eq!(r0.blocks_executed, r1.blocks_executed);
        prop_assert_eq!(r0.insts_executed, r1.insts_executed);
    }
}
