//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm), and a
//! cache that builds it once per CFG.
//!
//! Storage is dense: immediate dominators and RPO numbers live in flat
//! vectors keyed by `BlockId::index()` (with a sentinel for unreachable
//! blocks and holes), so the hot `dominates` chain walk is pure array
//! indexing. Successor lists are built once into flat arrays, the DFS marks
//! a `Vec<bool>`, and the predecessor lists the solver and loop-membership
//! walks need come from the same arrays.
//!
//! Convergent formation asks for dominators many times per merge: to
//! classify the candidate edge, in the trial optimizer's global round on
//! the trial CFG, and in every global value-numbering round at commit. Most of those
//! questions are about a CFG the previous one already saw, because a commit
//! or a trial edits a few blocks and most edits leave exits alone. A
//! [`DomCache`] keeps the tree (and loop membership) of the last two CFGs
//! it was asked about and rebuilds only when the CFG changed.

use crate::cfg::SuccTable;
use crate::function::Function;
use crate::ids::BlockId;
use crate::loops::blocks_in_loops;

/// Sentinel for "not in the tree" (unreachable block or hole).
const ABSENT: u32 = u32::MAX;

/// Immediate-dominator tree of the reachable CFG.
#[derive(Clone, Debug, PartialEq)]
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
        Self::build(&SuccTable::build(f), f.entry)
    }

    /// The tree of the CFG with successor lists `succs` and entry `entry`.
    fn build(succs: &SuccTable, entry: BlockId) -> DomTree {
        let slots = succs.slots();
        let rpo = succs.reverse_postorder(entry);
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
        idom[entry.index()] = entry.index() as u32;

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
            entry,
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

/// The CFG a [`DomCache`] entry was built for: the entry block, and per
/// slot whether it holds a block and that block's successor list, in
/// [`SuccTable`] order. The slot versions last seen with this CFG make the
/// check cheap: equal versions mean equal content (see
/// [`Function::block_version`]), so only slots whose version moved are
/// compared.
#[derive(Debug)]
struct CfgKey {
    entry: BlockId,
    versions: Vec<u64>,
    live: Vec<bool>,
    succs: SuccTable,
}

impl CfgKey {
    fn of(f: &Function, succs: SuccTable) -> CfgKey {
        CfgKey {
            entry: f.entry,
            versions: f.block_versions().to_vec(),
            live: (0..f.block_slots())
                .map(|i| f.contains_block(BlockId(i as u32)))
                .collect(),
            succs,
        }
    }

    /// Whether `f` has this CFG. On a match the key adopts `f`'s versions,
    /// so the next check of an unchanged `f` compares versions only.
    fn matches(&mut self, f: &Function) -> bool {
        let now = f.block_versions();
        if f.entry != self.entry || now.len() != self.versions.len() {
            return false;
        }
        if now == self.versions.as_slice() {
            return true;
        }
        // A slot whose version did not move has its old content. Its list
        // also depends on which of its targets are live, but a slot whose
        // live state differs from the key has moved, and every moved slot
        // is compared here: if they all match, every slot does.
        let same = now
            .iter()
            .zip(&self.versions)
            .enumerate()
            .all(|(i, (n, o))| {
                let b = BlockId(i as u32);
                n == o
                    || match f.try_block(b) {
                        None => !self.live[i],
                        Some(blk) => self.live[i] && self.succs.lists(b, f, blk),
                    }
            });
        if same {
            self.versions.copy_from_slice(now);
        }
        same
    }
}

/// A cached [`DomTree`] with the loop membership derived from it.
#[derive(Debug)]
struct DomEntry {
    key: CfgKey,
    dom: DomTree,
    /// [`blocks_in_loops`] of `dom`, computed on first request.
    in_loops: Option<Vec<bool>>,
}

/// The dominator tree and loop membership of the last two CFGs asked
/// about.
///
/// A lookup checks the current CFG of `f` against the last entry, then the
/// one before it, and builds a new tree only when neither matches. The
/// second entry is what a rolled-back trial finds: the trial asks about its
/// own CFG, the next question is about the pre-trial CFG again.
///
/// A hit is exact. Two functions with the same entry, slot count, live
/// slots and deduplicated successor lists (in first-appearance order,
/// removed targets skipped) have the same reverse postorder and the same
/// tree, so every answer, [`DomTree::rpo`] order included, is the one
/// [`DomTree::compute`] would give. Test builds check each answer against
/// a fresh build. Versions only make the check cheap; a cache stays sound
/// whatever happens to the function between lookups, and across
/// functions.
#[derive(Debug, Default)]
pub struct DomCache {
    /// The entry that answered last, then the one before it.
    entries: [Option<DomEntry>; 2],
    /// Trees built so far.
    builds: usize,
}

impl DomCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dominator tree of `f`: equal to `DomTree::compute(f)`.
    pub fn tree(&mut self, f: &Function) -> &DomTree {
        &self.lookup(f).dom
    }

    /// The dominator tree of `f` and, per block slot, whether the block
    /// lies in a natural loop: equal to `DomTree::compute(f)` and
    /// [`blocks_in_loops`] of it.
    pub fn tree_and_loops(&mut self, f: &Function) -> (&DomTree, &[bool]) {
        let e = self.lookup(f);
        let in_loops = e.in_loops.get_or_insert_with(|| blocks_in_loops(&e.dom));
        // `lookup` checked `e.dom` against a fresh tree.
        debug_assert!(
            *in_loops == blocks_in_loops(&e.dom),
            "cached loop membership differs from a fresh one"
        );
        (&e.dom, in_loops)
    }

    fn lookup(&mut self, f: &Function) -> &mut DomEntry {
        let [last, before] = &mut self.entries;
        if !last.as_mut().is_some_and(|e| e.key.matches(f)) {
            if !before.as_mut().is_some_and(|e| e.key.matches(f)) {
                let succs = SuccTable::build(f);
                let dom = DomTree::build(&succs, f.entry);
                *before = Some(DomEntry {
                    key: CfgKey::of(f, succs),
                    dom,
                    in_loops: None,
                });
                self.builds += 1;
            }
            std::mem::swap(last, before);
        }
        let e = last.as_mut().expect("just filled");
        debug_assert!(
            e.dom == DomTree::compute(f),
            "cached dominator tree differs from a fresh one"
        );
        e
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

    /// Looks `f` up in `cache` and reports whether that built a tree.
    fn built(cache: &mut DomCache, f: &Function) -> bool {
        let before = cache.builds;
        assert_eq!(*cache.tree(f), DomTree::compute(f));
        cache.builds != before
    }

    #[test]
    fn an_edit_that_keeps_the_exits_hits() {
        let mut f = diamond();
        let mut cache = DomCache::new();
        assert!(built(&mut cache, &f));
        assert!(!built(&mut cache, &f));
        let a = BlockId(1);
        let r = f.new_reg();
        f.block_mut(a)
            .insts
            .push(crate::instr::Instr::mov(r, Operand::Imm(3)));
        assert!(!built(&mut cache, &f));
        let (_, in_loops) = cache.tree_and_loops(&f);
        assert_eq!(in_loops, vec![false; 4]);
    }

    #[test]
    fn a_retarget_a_removal_or_a_new_entry_misses() {
        let (e, a, j) = (BlockId(0), BlockId(1), BlockId(3));
        let mut f = diamond();
        let mut cache = DomCache::new();
        assert!(built(&mut cache, &f));
        f.block_mut(e).retarget_exits(a, j);
        assert!(built(&mut cache, &f));

        let mut f = diamond();
        let dead = f.add_block(f.block(j).clone());
        assert!(built(&mut cache, &f));
        f.remove_block(dead);
        assert!(built(&mut cache, &f));

        let mut f = diamond();
        assert!(built(&mut cache, &f));
        f.entry = a;
        assert!(built(&mut cache, &f));
    }

    #[test]
    fn a_rolled_back_trial_finds_the_tree_before_it() {
        let (e, a, j) = (BlockId(0), BlockId(1), BlockId(3));
        let mut f = diamond();
        let mut cache = DomCache::new();
        assert!(built(&mut cache, &f));
        let snap = f.snapshot_blocks([e]);
        let copy = f.duplicate_block(j);
        f.block_mut(e).retarget_exits(a, copy);
        assert!(built(&mut cache, &f));
        f.restore_blocks(snap);
        assert!(!built(&mut cache, &f), "the pre-trial entry answers");
        assert_eq!(cache.builds, 2);
    }
}
