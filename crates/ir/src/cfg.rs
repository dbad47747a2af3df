//! CFG traversal utilities: successor/predecessor maps, orders, reachability.

use crate::block::Block;
use crate::function::Function;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::BlockId;
use std::collections::VecDeque;

/// Deduplicated successor list of a block, in first-appearance order.
pub fn successors(f: &Function, b: BlockId) -> Vec<BlockId> {
    // Blocks have a handful of exits at most; a linear scan over the
    // already-collected prefix beats hashing.
    let mut out: Vec<BlockId> = Vec::new();
    for s in f.block(b).successors() {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// Predecessor map for all live blocks (deduplicated per edge pair).
pub fn predecessors(f: &Function) -> FxHashMap<BlockId, Vec<BlockId>> {
    let mut preds: FxHashMap<BlockId, Vec<BlockId>> = FxHashMap::default();
    for id in f.block_ids() {
        preds.entry(id).or_default();
    }
    for id in f.block_ids() {
        for s in successors(f, id) {
            preds.entry(s).or_default().push(id);
        }
    }
    preds
}

/// Number of distinct predecessors of `b`.
pub fn predecessor_count(f: &Function, b: BlockId) -> usize {
    // Membership does not need the deduplicated successor list; an
    // allocation-free edge scan suffices (formation classifies every merge
    // candidate with this).
    f.block_ids()
        .filter(|&id| f.block(id).successors().any(|s| s == b))
        .count()
}

/// Blocks reachable from the entry.
pub fn reachable(f: &Function) -> FxHashSet<BlockId> {
    let mut seen = FxHashSet::default();
    let mut queue = VecDeque::new();
    queue.push_back(f.entry);
    seen.insert(f.entry);
    while let Some(b) = queue.pop_front() {
        for s in successors(f, b) {
            if f.contains_block(s) && seen.insert(s) {
                queue.push_back(s);
            }
        }
    }
    seen
}

/// Every block's deduplicated successor list, built once and flat-packed:
/// the list of block slot `i` is `flat[off[i]..off[i + 1]]`, in
/// first-appearance order, without removed targets. Holes have empty lists.
#[derive(Debug)]
pub(crate) struct SuccTable {
    off: Vec<u32>,
    flat: Vec<BlockId>,
}

impl SuccTable {
    pub(crate) fn build(f: &Function) -> SuccTable {
        let slots = f.block_slots();
        let mut off = Vec::with_capacity(slots + 1);
        let mut flat = Vec::new();
        off.push(0);
        for i in 0..slots {
            let start = flat.len();
            if let Some(blk) = f.try_block(BlockId(i as u32)) {
                for s in blk.successors() {
                    if f.contains_block(s) && !flat[start..].contains(&s) {
                        flat.push(s);
                    }
                }
            }
            off.push(flat.len() as u32);
        }
        SuccTable { off, flat }
    }

    /// Number of block slots the table covers.
    pub(crate) fn slots(&self) -> usize {
        self.off.len() - 1
    }

    /// Successors of `b`.
    #[inline]
    pub(crate) fn of(&self, b: BlockId) -> &[BlockId] {
        &self.flat[self.off[b.index()] as usize..self.off[b.index() + 1] as usize]
    }

    /// Whether the list of `b` is the one [`SuccTable::build`] would give
    /// `blk` as block `b` of `f`, found without building it.
    pub(crate) fn lists(&self, b: BlockId, f: &Function, blk: &Block) -> bool {
        let list = self.of(b);
        // While the lists agree, a target seen before in `blk` is one of
        // the first `seen` entries of `list`.
        let mut seen = 0;
        for s in blk.successors() {
            if !f.contains_block(s) || list[..seen].contains(&s) {
                continue;
            }
            if list.get(seen) != Some(&s) {
                return false;
            }
            seen += 1;
        }
        seen == list.len()
    }

    /// Reverse postorder of the subgraph reachable from `entry`.
    pub(crate) fn reverse_postorder(&self, entry: BlockId) -> Vec<BlockId> {
        let mut visited = vec![false; self.off.len() - 1];
        let mut post = Vec::new();
        // Iterative DFS with explicit stack to avoid recursion depth limits
        // on large unrolled CFGs.
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some((b, i)) = stack.pop() {
            if let Some(&s) = self.of(b).get(i) {
                stack.push((b, i + 1));
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        post.reverse();
        post
    }
}

/// Reverse postorder of the reachable subgraph, starting at the entry.
///
/// RPO is a valid iteration order for forward dataflow problems and the
/// basis of the dominator computation.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    SuccTable::build(f).reverse_postorder(f.entry)
}

/// Remove blocks unreachable from the entry. Returns the number removed.
pub fn remove_unreachable(f: &mut Function) -> usize {
    let live = reachable(f);
    let dead: Vec<BlockId> = f.block_ids().filter(|b| !live.contains(b)).collect();
    for b in &dead {
        f.remove_block(*b);
    }
    dead.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Operand;

    /// entry -> a -> c, entry -> b -> c, c -> ret; d unreachable
    fn diamond_with_dead() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let entry = b.create_block();
        let a = b.create_block();
        let bb = b.create_block();
        let c = b.create_block();
        let d = b.create_block();
        b.switch_to(entry);
        let cond = b.cmp_lt(Operand::Reg(b.param(0)), Operand::Imm(0));
        b.branch(cond, a, bb);
        b.switch_to(a);
        b.jump(c);
        b.switch_to(bb);
        b.jump(c);
        b.switch_to(c);
        b.ret(None);
        b.switch_to(d);
        b.jump(c);
        b.build_unverified()
    }

    #[test]
    fn successors_deduplicate() {
        let f = diamond_with_dead();
        assert_eq!(successors(&f, f.entry).len(), 2);
    }

    #[test]
    fn predecessors_cover_all_edges() {
        let f = diamond_with_dead();
        let preds = predecessors(&f);
        let c = BlockId(3);
        // a, b, and dead d all point at c
        assert_eq!(preds[&c].len(), 3);
        assert_eq!(predecessor_count(&f, c), 3);
        assert!(preds[&f.entry].is_empty());
    }

    #[test]
    fn reachability_excludes_dead() {
        let f = diamond_with_dead();
        let r = reachable(&f);
        assert_eq!(r.len(), 4);
        assert!(!r.contains(&BlockId(4)));
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let f = diamond_with_dead();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        let pos: FxHashMap<BlockId, usize> = rpo.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        // join must come after both arms
        assert!(pos[&BlockId(3)] > pos[&BlockId(1)]);
        assert!(pos[&BlockId(3)] > pos[&BlockId(2)]);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn remove_unreachable_drops_dead_only() {
        let mut f = diamond_with_dead();
        assert_eq!(remove_unreachable(&mut f), 1);
        assert_eq!(f.block_count(), 4);
        assert!(!f.contains_block(BlockId(4)));
    }

    #[test]
    fn rpo_handles_loops() {
        // entry -> loop -> loop | exit
        let mut b = FunctionBuilder::new("f", 1);
        let entry = b.create_block();
        let l = b.create_block();
        let x = b.create_block();
        b.switch_to(entry);
        b.jump(l);
        b.switch_to(l);
        let c = b.cmp_lt(Operand::Reg(b.param(0)), Operand::Imm(10));
        b.branch(c, l, x);
        b.switch_to(x);
        b.ret(None);
        let f = b.build().unwrap();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 3);
        assert_eq!(rpo[0], f.entry);
    }
}
