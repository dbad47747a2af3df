//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
//!
//! Storage is dense: immediate dominators and RPO numbers live in flat
//! vectors keyed by `BlockId::index()` (with a sentinel for unreachable
//! blocks and holes), so the hot `dominates` chain walk is pure array
//! indexing. Construction is dense too, because it is hot: global value
//! numbering builds a tree on every merge trial of convergent formation and
//! again in every commit-time optimization round. Successor lists are built
//! once into flat arrays, the DFS marks a `Vec<bool>`, and the predecessor
//! lists the solver and loop-membership walks need come from the same
//! arrays.

use crate::cfg::SuccTable;
use crate::function::Function;
use crate::ids::BlockId;

/// Sentinel for "not in the tree" (unreachable block or hole).
const ABSENT: u32 = u32::MAX;

/// Immediate-dominator tree of the reachable CFG.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[b.index()]` is the immediate dominator's slot, or `ABSENT`.
    /// The entry's idom is itself.
    idom: Vec<u32>,
    /// `rpo_index[b.index()]` is the RPO number, or `ABSENT` if unreachable.
    rpo_index: Vec<u32>,
    /// Reachable blocks in reverse postorder.
    rpo: Vec<BlockId>,
    /// Predecessors of `rpo[i]`, in RPO order of the predecessor:
    /// `pred_flat[pred_off[i]..pred_off[i + 1]]`.
    pred_off: Vec<u32>,
    pred_flat: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// Compute dominators for the reachable portion of `f`.
    pub fn compute(f: &Function) -> DomTree {
        let slots = f.block_slots();
        let succs = SuccTable::build(f);
        let rpo = succs.reverse_postorder(f.entry);
        let mut rpo_index = vec![ABSENT; slots];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }

        // Every successor of a reachable block is reachable, so the
        // predecessor lists need no filtering.
        let mut pred_off: Vec<u32> = vec![0; rpo.len() + 1];
        for &b in &rpo {
            for s in succs.of(b) {
                pred_off[rpo_index[s.index()] as usize + 1] += 1;
            }
        }
        for i in 1..pred_off.len() {
            pred_off[i] += pred_off[i - 1];
        }
        let mut cursor: Vec<u32> = pred_off[..rpo.len()].to_vec();
        let mut pred_flat: Vec<BlockId> = vec![BlockId(0); *pred_off.last().unwrap() as usize];
        for &b in &rpo {
            for s in succs.of(b) {
                let i = rpo_index[s.index()] as usize;
                pred_flat[cursor[i] as usize] = b;
                cursor[i] += 1;
            }
        }

        let mut idom = vec![ABSENT; slots];
        idom[f.entry.index()] = f.entry.index() as u32;

        let intersect = |idom: &[u32], rpo_index: &[u32], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a] as usize;
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b] as usize;
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in rpo.iter().enumerate().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &pred_flat[pred_off[i] as usize..pred_off[i + 1] as usize] {
                    // Only consider already-processed preds.
                    if idom[p.index()] == ABSENT {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p.index(),
                        Some(cur) => intersect(&idom, &rpo_index, cur, p.index()),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != ni as u32 {
                        idom[b.index()] = ni as u32;
                        changed = true;
                    }
                }
            }
        }

        DomTree {
            idom,
            rpo_index,
            rpo,
            pred_off,
            pred_flat,
            entry: f.entry,
        }
    }

    /// Number of block slots of the function the tree was computed for.
    pub fn slots(&self) -> usize {
        self.idom.len()
    }

    #[inline]
    fn in_tree(&self, b: BlockId) -> bool {
        self.idom.get(b.index()).is_some_and(|&i| i != ABSENT)
    }

    /// Immediate dominator of `b` (the entry's idom is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom.get(b.index()) {
            Some(&i) if i != ABSENT => Some(BlockId(i)),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.in_tree(a) || !self.in_tree(b) {
            return false;
        }
        let target = a.index() as u32;
        let entry = self.entry.index() as u32;
        let mut cur = b.index() as u32;
        loop {
            if cur == target {
                return true;
            }
            if cur == entry {
                return false;
            }
            cur = self.idom[cur as usize];
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Whether `b` was reachable when the tree was computed.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index.get(b.index()).is_some_and(|&i| i != ABSENT)
    }

    /// Blocks in reverse postorder (the order used during computation).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Distinct predecessors of `b`, in reverse postorder; empty when `b`
    /// is unreachable. Unreachable predecessors are not listed.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        match self.rpo_index.get(b.index()) {
            Some(&i) if i != ABSENT => {
                let i = i as usize;
                &self.pred_flat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
            }
            _ => &[],
        }
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> Vec<BlockId> {
        let p = b.index() as u32;
        self.idom
            .iter()
            .enumerate()
            .filter(|&(c, &i)| i == p && c != b.index() && i != ABSENT)
            .map(|(c, _)| BlockId(c as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Operand;

    /// Classic diamond: e -> {a, b} -> j
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let a = fb.create_block();
        let b = fb.create_block();
        let j = fb.create_block();
        fb.switch_to(e);
        let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        fb.branch(c, a, b);
        fb.switch_to(a);
        fb.jump(j);
        fb.switch_to(b);
        fb.jump(j);
        fb.switch_to(j);
        fb.ret(None);
        fb.build().unwrap()
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let d = DomTree::compute(&f);
        let (e, a, b, j) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(d.idom(a), Some(e));
        assert_eq!(d.idom(b), Some(e));
        assert_eq!(d.idom(j), Some(e));
        assert!(d.dominates(e, j));
        assert!(!d.dominates(a, j));
        assert!(d.dominates(j, j));
        assert!(!d.strictly_dominates(j, j));
    }

    #[test]
    fn loop_header_dominates_body() {
        // e -> h; h -> body | exit; body -> h
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let h = fb.create_block();
        let body = fb.create_block();
        let exit = fb.create_block();
        fb.switch_to(e);
        fb.jump(h);
        fb.switch_to(h);
        let c = fb.cmp_lt(Operand::Reg(fb.param(0)), Operand::Imm(10));
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.jump(h);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.build().unwrap();
        let d = DomTree::compute(&f);
        assert!(d.dominates(h, body));
        assert!(d.dominates(h, exit));
        assert_eq!(d.idom(body), Some(h));
        assert_eq!(d.children(h), vec![body, exit]);
    }

    #[test]
    fn unreachable_blocks_not_in_tree() {
        let mut fb = FunctionBuilder::new("f", 0);
        let e = fb.create_block();
        let dead = fb.create_block();
        fb.switch_to(e);
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        let f = fb.build().unwrap();
        let d = DomTree::compute(&f);
        assert!(!d.is_reachable(dead));
        assert!(!d.dominates(e, dead));
    }

    #[test]
    fn rpo_roundtrip() {
        let f = diamond();
        let d = DomTree::compute(&f);
        let rpo = d.rpo();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
    }
}
