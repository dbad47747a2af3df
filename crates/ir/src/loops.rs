//! Natural loop discovery.
//!
//! Head duplication (paper §4.1) distinguishes three cases when merging a
//! successor `S` into a hyperblock `HB`:
//!
//! * `HB → S` is a back edge and `HB == S` — **unrolling**;
//! * `S` is a loop header and `HB → S` is not a back edge — **peeling**;
//! * otherwise — classical **tail duplication**.
//!
//! This module provides the loop structure those tests consult: back edges
//! (edges `u → v` where `v` dominates `u`), natural loop bodies, and the
//! nesting forest.

use crate::cfg::successors;
use crate::dom::DomTree;
use crate::function::Function;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::BlockId;

/// A natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: FxHashSet<BlockId>,
    /// The back edges `(latch, header)` defining this loop.
    pub back_edges: Vec<(BlockId, BlockId)>,
    /// Index of the enclosing loop in the forest, if nested.
    pub parent: Option<usize>,
}

impl Loop {
    /// Nesting depth (1 = outermost).
    fn depth_in(&self, forest: &LoopForest) -> usize {
        let mut d = 1;
        let mut cur = self.parent;
        while let Some(p) = cur {
            d += 1;
            cur = forest.loops[p].parent;
        }
        d
    }
}

/// All natural loops of a function, with nesting.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// The loops, outer loops before inner loops of the same header chain.
    pub loops: Vec<Loop>,
    header_index: FxHashMap<BlockId, usize>,
}

impl LoopForest {
    /// Discover natural loops using `dom`.
    ///
    /// Loops sharing a header are merged into a single [`Loop`] (standard
    /// natural-loop convention).
    pub fn compute(f: &Function, dom: &DomTree) -> LoopForest {
        // 1. find back edges
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        for u in f.block_ids() {
            if !dom.is_reachable(u) {
                continue;
            }
            for v in successors(f, u) {
                if dom.dominates(v, u) {
                    back_edges.push((u, v));
                }
            }
        }

        // 2. natural loop of each back edge; merge by header
        let preds = crate::cfg::predecessors(f);
        let mut by_header: FxHashMap<BlockId, Loop> = FxHashMap::default();
        for &(latch, header) in &back_edges {
            let entry = by_header.entry(header).or_insert_with(|| Loop {
                header,
                body: [header].into_iter().collect(),
                back_edges: Vec::new(),
                parent: None,
            });
            entry.back_edges.push((latch, header));
            // walk backwards from latch, not crossing header
            let mut stack = vec![latch];
            while let Some(b) = stack.pop() {
                if !entry.body.insert(b) {
                    continue;
                }
                if b == header {
                    continue;
                }
                for &p in preds.get(&b).into_iter().flatten() {
                    if dom.is_reachable(p) {
                        stack.push(p);
                    }
                }
            }
        }

        let mut loops: Vec<Loop> = by_header.into_values().collect();
        // Sort by body size descending so parents precede children.
        loops.sort_by(|a, b| {
            b.body
                .len()
                .cmp(&a.body.len())
                .then(a.header.cmp(&b.header))
        });

        // 3. nesting: the parent of L is the smallest loop strictly
        // containing L's header that is not L itself.
        let n = loops.len();
        for i in 0..n {
            let mut best: Option<usize> = None;
            for j in 0..n {
                if i == j {
                    continue;
                }
                if loops[j].body.contains(&loops[i].header)
                    && loops[j].header != loops[i].header
                    && loops[j].body.len() > loops[i].body.len()
                {
                    best = match best {
                        None => Some(j),
                        Some(k) if loops[j].body.len() < loops[k].body.len() => Some(j),
                        other => other,
                    };
                }
            }
            loops[i].parent = best;
        }

        let header_index = loops
            .iter()
            .enumerate()
            .map(|(i, l)| (l.header, i))
            .collect();
        LoopForest {
            loops,
            header_index,
        }
    }

    /// Convenience: compute dominators then loops.
    pub fn of(f: &Function) -> LoopForest {
        let dom = DomTree::compute(f);
        Self::compute(f, &dom)
    }

    /// Whether `b` is a loop header.
    pub fn is_header(&self, b: BlockId) -> bool {
        self.header_index.contains_key(&b)
    }

    /// The loop headed by `b`, if any.
    pub fn loop_of_header(&self, b: BlockId) -> Option<&Loop> {
        self.header_index.get(&b).map(|&i| &self.loops[i])
    }

    /// Whether `u → v` is a back edge of some loop.
    pub fn is_back_edge(&self, u: BlockId, v: BlockId) -> bool {
        self.loop_of_header(v)
            .map(|l| l.back_edges.iter().any(|&(lu, _)| lu == u))
            .unwrap_or(false)
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.body.contains(&b))
            .max_by_key(|l| l.depth_in(self))
    }

    /// Nesting depth of `b` (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> usize {
        self.innermost_containing(b)
            .map(|l| l.depth_in(self))
            .unwrap_or(0)
    }
}

/// Per block slot, whether the block lies in some natural loop: the same
/// answer as `LoopForest::compute(f, dom).depth(b) > 0`, without building
/// the forest's bodies, nesting or maps.
///
/// Each back edge `latch → header` (the header dominates the latch) marks
/// the blocks that reach the latch without passing the header. A walk stops
/// at blocks already marked: natural loops with different headers are
/// disjoint or nested, and headers are taken in reverse postorder, so a
/// marked block's loop was walked first and contains the rest of the walk.
pub fn blocks_in_loops(dom: &DomTree) -> Vec<bool> {
    let mut in_loop = vec![false; dom.slots()];
    let mut stack: Vec<BlockId> = Vec::new();
    for &header in dom.rpo() {
        for &latch in dom.preds(header) {
            if !dom.dominates(header, latch) {
                continue;
            }
            in_loop[header.index()] = true;
            stack.push(latch);
            while let Some(b) = stack.pop() {
                if !in_loop[b.index()] {
                    in_loop[b.index()] = true;
                    stack.extend_from_slice(dom.preds(b));
                }
            }
        }
    }
    in_loop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Operand;

    /// e -> h1; h1 -> h2 | exit; h2 -> h2 | h1back; h1back -> h1
    fn nested_loops() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let h1 = fb.create_block();
        let h2 = fb.create_block();
        let back = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        fb.jump(h1);
        fb.switch_to(h1);
        let c1 = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(10));
        fb.branch(c1, h2, exit);
        fb.switch_to(h2);
        let c2 = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(5));
        fb.branch(c2, h2, back);
        fb.switch_to(back);
        fb.jump(h1);
        fb.switch_to(exit);
        fb.ret(None);
        fb.build().unwrap()
    }

    #[test]
    fn finds_nested_loops() {
        let f = nested_loops();
        let lf = LoopForest::of(&f);
        assert_eq!(lf.loops.len(), 2);
        let (h1, h2) = (BlockId(1), BlockId(2));
        assert!(lf.is_header(h1));
        assert!(lf.is_header(h2));
        let outer = lf.loop_of_header(h1).unwrap();
        let inner = lf.loop_of_header(h2).unwrap();
        assert!(outer.body.contains(&h2));
        assert!(outer.body.contains(&BlockId(3)));
        assert!(!inner.body.contains(&h1));
        assert_eq!(inner.body.len(), 1); // self loop
    }

    #[test]
    fn back_edge_classification() {
        let f = nested_loops();
        let lf = LoopForest::of(&f);
        assert!(lf.is_back_edge(BlockId(2), BlockId(2))); // self loop
        assert!(lf.is_back_edge(BlockId(3), BlockId(1)));
        assert!(!lf.is_back_edge(BlockId(0), BlockId(1))); // entry edge
        assert!(!lf.is_back_edge(BlockId(1), BlockId(2))); // loop entry
    }

    #[test]
    fn nesting_depths() {
        let f = nested_loops();
        let lf = LoopForest::of(&f);
        assert_eq!(lf.depth(BlockId(0)), 0);
        assert_eq!(lf.depth(BlockId(1)), 1);
        assert_eq!(lf.depth(BlockId(2)), 2);
        assert_eq!(lf.depth(BlockId(4)), 0);
        let inner = lf.loop_of_header(BlockId(2)).unwrap();
        assert!(inner.parent.is_some());
    }

    #[test]
    fn no_loops_in_dag() {
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let x = fb.create_block();
        fb.switch_to(e);
        fb.jump(x);
        fb.switch_to(x);
        fb.ret(None);
        let f = fb.build().unwrap();
        let lf = LoopForest::of(&f);
        assert!(lf.loops.is_empty());
        assert_eq!(lf.depth(e), 0);
        assert!(lf.innermost_containing(x).is_none());
    }
}
