//! Blocks and their exits.

use crate::ids::{BlockId, Reg};
use crate::instr::{Instr, Operand, Pred};

/// Where control transfers when an [`Exit`] fires.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExitTarget {
    /// Continue at another block.
    Block(BlockId),
    /// Leave the function, optionally returning a value.
    Return(Option<Operand>),
}

impl ExitTarget {
    /// The successor block, if this exit stays inside the function.
    pub fn block(self) -> Option<BlockId> {
        match self {
            ExitTarget::Block(b) => Some(b),
            ExitTarget::Return(_) => None,
        }
    }
}

/// One exit of a block: a (possibly predicated) branch.
///
/// On TRIPS every exit occupies an instruction slot and exactly one exit
/// fires per dynamic execution of the block. The final exit of a block must
/// be unpredicated so the exit set is total.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Exit {
    /// Guard; `None` means the exit always fires if reached.
    pub pred: Option<Pred>,
    /// Destination.
    pub target: ExitTarget,
    /// Profile: how many dynamic executions took this exit.
    pub count: f64,
}

impl Exit {
    /// Unconditional exit to `target`.
    pub fn jump(target: BlockId) -> Self {
        Exit {
            pred: None,
            target: ExitTarget::Block(target),
            count: 0.0,
        }
    }

    /// Predicated exit to `target`.
    pub fn when(pred: Pred, target: BlockId) -> Self {
        Exit {
            pred: Some(pred),
            target: ExitTarget::Block(target),
            count: 0.0,
        }
    }

    /// Unconditional return.
    pub fn ret(value: Option<Operand>) -> Self {
        Exit {
            pred: None,
            target: ExitTarget::Return(value),
            count: 0.0,
        }
    }

    /// Predicated return.
    pub fn ret_when(pred: Pred, value: Option<Operand>) -> Self {
        Exit {
            pred: Some(pred),
            target: ExitTarget::Return(value),
            count: 0.0,
        }
    }
}

/// A block: a sequence of predicated instructions plus a total set of exits.
///
/// Both classical basic blocks and TRIPS hyperblocks use this one type; a
/// basic block is simply a block in which no instruction is predicated and
/// the exits encode a single conditional or unconditional branch.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    /// Instructions, in program order. Program order is a valid dataflow
    /// (topological) order: every register use reads the nearest prior def.
    pub insts: Vec<Instr>,
    /// Exits, in priority order. The first exit whose predicate holds fires;
    /// the last exit must be unpredicated.
    pub exits: Vec<Exit>,
    /// Profile: dynamic execution count of this block (possibly fractional
    /// after duplication rescales profiles).
    pub freq: f64,
    /// Optional human-readable label, preserved through duplication.
    pub name: Option<String>,
}

impl Block {
    /// An empty block (no instructions, no exits yet).
    pub fn new() -> Self {
        Block::default()
    }

    /// Iterate over successor block ids (in-function edges only), in exit
    /// order, including duplicates if several exits share a target.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.exits.iter().filter_map(|e| e.target.block())
    }

    /// Number of instruction slots the block occupies, counting each exit as
    /// a branch instruction (as on TRIPS).
    pub fn size(&self) -> usize {
        self.insts.len() + self.exits.len()
    }

    /// Number of memory (load/store) instructions in the block.
    pub fn memory_ops(&self) -> usize {
        self.insts.iter().filter(|i| i.op.is_memory()).count()
    }

    /// Whether any instruction or exit is predicated.
    pub fn is_predicated(&self) -> bool {
        self.insts.iter().any(|i| i.pred.is_some()) || self.exits.iter().any(|e| e.pred.is_some())
    }

    /// Profiled weight of this block's edges into `target`: the sum of the
    /// recorded taken counts over every exit whose target is `target`.
    /// Zero when the edge exists but was never profiled — callers that need
    /// a probability should use [`Block::exit_probability`], which falls
    /// back to a uniform split.
    pub fn edge_weight_to(&self, target: BlockId) -> f64 {
        self.exits
            .iter()
            .filter(|e| e.target == ExitTarget::Block(target))
            .map(|e| e.count)
            .sum()
    }

    /// Total profiled outflow of the block: the sum of all exit counts
    /// (including returns). Equals the profiled execution count of the
    /// block when the profile is internally consistent.
    pub fn outflow(&self) -> f64 {
        self.exits.iter().map(|e| e.count).sum()
    }

    /// The largest profiled count on any single out-edge of this block —
    /// the "hottest successor edge" the profile-guided orderings consult.
    /// Zero for blocks with no exits or an unprofiled exit set.
    pub fn hottest_edge_weight(&self) -> f64 {
        self.exits.iter().map(|e| e.count).fold(0.0, f64::max)
    }

    /// Replace every exit targeting `from` with an exit targeting `to`.
    /// Returns the number of exits rewritten.
    pub fn retarget_exits(&mut self, from: BlockId, to: BlockId) -> usize {
        let mut n = 0;
        for e in &mut self.exits {
            if e.target == ExitTarget::Block(from) {
                e.target = ExitTarget::Block(to);
                n += 1;
            }
        }
        n
    }

    /// Positive-predicate implication facts from the block's instructions:
    /// for each register whose *last* def is an unpredicated `and` of two
    /// registers, firing on it implies firing on each conjunct
    /// (transitively). This is exactly the guard structure if-conversion
    /// builds, so exits guarded by a conjunction collapse into the exit
    /// guarded by a conjunct when both go to the same place.
    fn positive_implications(&self) -> crate::fxhash::FxHashMap<Reg, Vec<Reg>> {
        use crate::fxhash::FxHashMap;
        use crate::instr::{Opcode, Operand};
        // Per register: the registers its truth directly implies, according
        // to its last definition. `and a, b` implies both conjuncts;
        // `ne x, #0` and `mov x` are truth-preserving aliases of `x`.
        let mut direct: FxHashMap<Reg, Vec<Reg>> = FxHashMap::default();
        for inst in &self.insts {
            let Some(d) = inst.def() else { continue };
            direct.remove(&d);
            // Redefining d also invalidates facts that mention d on their
            // right-hand side: their registers' values have moved on.
            direct.retain(|_, v| !v.contains(&d));
            if inst.pred.is_some() {
                continue;
            }
            match (inst.op, inst.a, inst.b) {
                (Opcode::And, Some(Operand::Reg(a)), Some(Operand::Reg(b))) => {
                    direct.insert(d, vec![a, b]);
                }
                (Opcode::CmpNe, Some(Operand::Reg(x)), Some(Operand::Imm(0)))
                | (Opcode::Mov, Some(Operand::Reg(x)), None) => {
                    direct.insert(d, vec![x]);
                }
                _ => {}
            }
        }
        // Transitive closure (bounded by chain depth).
        let mut implied: FxHashMap<Reg, Vec<Reg>> = FxHashMap::default();
        for &r in direct.keys() {
            let mut out = Vec::new();
            let mut stack = vec![r];
            while let Some(x) = stack.pop() {
                for &y in direct.get(&x).into_iter().flatten() {
                    if !out.contains(&y) {
                        out.push(y);
                        stack.push(y);
                    }
                }
            }
            implied.insert(r, out);
        }
        implied
    }

    /// Remove redundant exits. Two rules, applied to a fixpoint:
    ///
    /// 1. a predicated exit whose entire suffix shares its target is
    ///    dropped (firing or falling through reach the same place);
    /// 2. a predicated exit whose *immediate successor* exit has the same
    ///    target and whose predicate is implied by this exit's predicate
    ///    (via the `and`-conjunction structure if-conversion builds) is
    ///    dropped.
    ///
    /// Counts fold into the surviving exit. Returns whether anything
    /// changed. This is the branch-removal cleanup that keeps merged
    /// hyperblocks' exit lists canonical — e.g. after both arms of a
    /// diamond merge, the two exits to the join collapse into one.
    pub fn dedupe_exits(&mut self) -> bool {
        let implied = self.positive_implications();
        let implies = |a: Option<Pred>, b: Option<Pred>| -> bool {
            match (a, b) {
                (_, None) => true,
                (Some(pa), Some(pb)) if pa.if_true && pb.if_true => {
                    pa.reg == pb.reg
                        || implied
                            .get(&pa.reg)
                            .map(|v| v.contains(&pb.reg))
                            .unwrap_or(false)
                }
                _ => false,
            }
        };
        let mut changed = false;
        loop {
            let n = self.exits.len();
            if n < 2 {
                return changed;
            }
            let mut drop_at: Option<usize> = None;
            'scan: for i in (0..n - 1).rev() {
                if self.exits[i].pred.is_none() {
                    continue;
                }
                // Rule 2: adjacent same-target with implication.
                if self.exits[i + 1].target == self.exits[i].target
                    && implies(self.exits[i].pred, self.exits[i + 1].pred)
                {
                    drop_at = Some(i);
                    break;
                }
                // Rule 1: uniform suffix.
                for j in i + 1..n {
                    if self.exits[j].target != self.exits[i].target {
                        continue 'scan;
                    }
                }
                drop_at = Some(i);
                break;
            }
            match drop_at {
                None => return changed,
                Some(i) => {
                    let removed = self.exits.remove(i);
                    self.exits[i].count += removed.count;
                    changed = true;
                }
            }
        }
    }

    /// Probability that a dynamic execution of this block takes `exit_idx`,
    /// according to the recorded profile. Falls back to a uniform split when
    /// the block was never executed in the profile.
    pub fn exit_probability(&self, exit_idx: usize) -> f64 {
        let total: f64 = self.exits.iter().map(|e| e.count).sum();
        if total <= 0.0 {
            if self.exits.is_empty() {
                0.0
            } else {
                1.0 / self.exits.len() as f64
            }
        } else {
            self.exits[exit_idx].count / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;
    use crate::instr::Instr;

    #[test]
    fn successors_skip_returns() {
        let mut b = Block::new();
        b.exits.push(Exit::when(Pred::on_true(Reg(0)), BlockId(1)));
        b.exits.push(Exit::ret(None));
        assert_eq!(b.successors().collect::<Vec<_>>(), vec![BlockId(1)]);
    }

    #[test]
    fn size_counts_exits_as_branches() {
        let mut b = Block::new();
        b.insts.push(Instr::mov(Reg(0), Operand::Imm(1)));
        b.exits.push(Exit::jump(BlockId(0)));
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn memory_ops_counted() {
        let mut b = Block::new();
        b.insts.push(Instr::load(Reg(1), Operand::Imm(0)));
        b.insts
            .push(Instr::store(Operand::Imm(0), Operand::Reg(Reg(1))));
        b.insts.push(Instr::mov(Reg(2), Operand::Imm(5)));
        assert_eq!(b.memory_ops(), 2);
    }

    #[test]
    fn retarget_rewrites_all_matching_exits() {
        let mut b = Block::new();
        b.exits.push(Exit::when(Pred::on_true(Reg(0)), BlockId(3)));
        b.exits.push(Exit::jump(BlockId(3)));
        assert_eq!(b.retarget_exits(BlockId(3), BlockId(7)), 2);
        assert!(b.successors().all(|s| s == BlockId(7)));
    }

    #[test]
    fn edge_weight_sums_parallel_edges() {
        let mut b = Block::new();
        let mut e0 = Exit::when(Pred::on_true(Reg(0)), BlockId(1));
        e0.count = 30.0;
        let mut e1 = Exit::when(Pred::on_true(Reg(1)), BlockId(1));
        e1.count = 12.0;
        let mut e2 = Exit::jump(BlockId(2));
        e2.count = 58.0;
        b.exits.push(e0);
        b.exits.push(e1);
        b.exits.push(e2);
        assert!((b.edge_weight_to(BlockId(1)) - 42.0).abs() < 1e-9);
        assert!((b.edge_weight_to(BlockId(2)) - 58.0).abs() < 1e-9);
        assert_eq!(b.edge_weight_to(BlockId(9)), 0.0);
        assert!((b.outflow() - 100.0).abs() < 1e-9);
        assert!((b.hottest_edge_weight() - 58.0).abs() < 1e-9);
    }

    #[test]
    fn edge_weight_zero_without_profile() {
        let mut b = Block::new();
        b.exits.push(Exit::jump(BlockId(1)));
        assert_eq!(b.edge_weight_to(BlockId(1)), 0.0);
        assert_eq!(b.outflow(), 0.0);
        assert_eq!(b.hottest_edge_weight(), 0.0);
    }

    #[test]
    fn exit_probability_uses_counts() {
        let mut b = Block::new();
        let mut e0 = Exit::when(Pred::on_true(Reg(0)), BlockId(1));
        e0.count = 30.0;
        let mut e1 = Exit::jump(BlockId(2));
        e1.count = 70.0;
        b.exits.push(e0);
        b.exits.push(e1);
        assert!((b.exit_probability(0) - 0.3).abs() < 1e-9);
        assert!((b.exit_probability(1) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn exit_probability_uniform_without_profile() {
        let mut b = Block::new();
        b.exits.push(Exit::jump(BlockId(1)));
        b.exits.push(Exit::jump(BlockId(2)));
        assert!((b.exit_probability(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dedupe_collapses_uniform_suffix() {
        let mut b = Block::new();
        let mut e0 = Exit::when(Pred::on_true(Reg(0)), BlockId(3));
        e0.count = 4.0;
        let mut e1 = Exit::jump(BlockId(3));
        e1.count = 6.0;
        b.exits.push(e0);
        b.exits.push(e1);
        assert!(b.dedupe_exits());
        assert_eq!(b.exits.len(), 1);
        assert!(b.exits[0].pred.is_none());
        assert!((b.exits[0].count - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dedupe_keeps_distinct_targets() {
        let mut b = Block::new();
        b.exits.push(Exit::when(Pred::on_true(Reg(0)), BlockId(1)));
        b.exits.push(Exit::jump(BlockId(2)));
        assert!(!b.dedupe_exits());
        assert_eq!(b.exits.len(), 2);
    }

    #[test]
    fn dedupe_handles_interleaved_targets() {
        // [p]->X, [q]->Y, ->X : cannot drop the first (q may redirect).
        let mut b = Block::new();
        b.exits.push(Exit::when(Pred::on_true(Reg(0)), BlockId(1)));
        b.exits.push(Exit::when(Pred::on_true(Reg(2)), BlockId(9)));
        b.exits.push(Exit::jump(BlockId(1)));
        assert!(!b.dedupe_exits());
        assert_eq!(b.exits.len(), 3);
        // [p]->X, [q]->X, ->X : collapses fully.
        let mut b = Block::new();
        b.exits.push(Exit::when(Pred::on_true(Reg(0)), BlockId(1)));
        b.exits.push(Exit::when(Pred::on_true(Reg(2)), BlockId(1)));
        b.exits.push(Exit::jump(BlockId(1)));
        assert!(b.dedupe_exits());
        assert_eq!(b.exits.len(), 1);
    }

    #[test]
    fn predication_detection() {
        let mut b = Block::new();
        b.exits.push(Exit::jump(BlockId(1)));
        assert!(!b.is_predicated());
        b.insts
            .push(Instr::mov(Reg(0), Operand::Imm(1)).predicated(Pred::on_true(Reg(1))));
        assert!(b.is_predicated());
    }
}
