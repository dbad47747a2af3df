//! Blocks and their exits.

use crate::ids::{BlockId, Reg};
use crate::instr::{Instr, Operand, Pred};
use crate::regtable::RegTable;
use std::cell::RefCell;

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

/// One register's positive-implication fact while [`Block::dedupe_exits`]
/// walks a block: how often the register has been defined so far, and the
/// registers its truth implies by its last definition, each with its own
/// definition count at that point. `and a, b` implies both conjuncts;
/// `ne x, #0` and `mov x` are truth-preserving aliases of `x`. A fact is
/// stale once any register it names is defined again.
#[derive(Copy, Clone, Default, Debug)]
struct Implies {
    defs: u32,
    of: [Option<(Reg, u32)>; 2],
}

/// Per-thread scratch of [`Block::dedupe_exits`].
#[derive(Debug)]
struct Implications {
    /// Whether `facts` describes the block of the current call.
    built: bool,
    facts: RegTable<Implies>,
    seen: RegTable<bool>,
    stack: Vec<Reg>,
}

thread_local! {
    static IMPLICATIONS: RefCell<Implications> = const {
        RefCell::new(Implications {
            built: false,
            facts: RegTable::new(),
            seen: RegTable::new(),
            stack: Vec::new(),
        })
    };
}

impl Implications {
    /// Whether firing on `from` implies firing on `to`, transitively
    /// through the facts that hold at the end of `insts`. Those are exactly
    /// the guard structure if-conversion builds, so exits guarded by a
    /// conjunction collapse into the exit guarded by a conjunct when both
    /// go to the same place.
    fn implies(&mut self, insts: &[Instr], from: Reg, to: Reg) -> bool {
        if !self.built {
            self.build(insts);
        }
        self.seen.clear();
        self.stack.clear();
        self.stack.push(from);
        while let Some(x) = self.stack.pop() {
            let fact = self.facts.get(x);
            if fact
                .of
                .iter()
                .flatten()
                .any(|&(r, defs)| self.facts.get(r).defs != defs)
            {
                continue;
            }
            for &(y, _) in fact.of.iter().flatten() {
                if y == to {
                    return true;
                }
                if !self.seen.get(y) {
                    self.seen.set(y, true);
                    self.stack.push(y);
                }
            }
        }
        false
    }

    fn build(&mut self, insts: &[Instr]) {
        use crate::instr::Opcode;
        self.facts.clear();
        for inst in insts {
            let Some(d) = inst.def() else { continue };
            let fact = self.facts.get_mut(d);
            fact.defs += 1;
            fact.of = [None; 2];
            if inst.pred.is_some() {
                continue;
            }
            let of = match (inst.op, inst.a, inst.b) {
                (Opcode::And, Some(Operand::Reg(a)), Some(Operand::Reg(b))) => [Some(a), Some(b)],
                (Opcode::CmpNe, Some(Operand::Reg(x)), Some(Operand::Imm(0)))
                | (Opcode::Mov, Some(Operand::Reg(x)), None) => [Some(x), None],
                _ => continue,
            };
            let of = of.map(|r| r.map(|r| (r, self.facts.get(r).defs)));
            self.facts.get_mut(d).of = of;
        }
        self.built = true;
    }
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

    /// Rewrite every register the block names through `map`: destinations,
    /// operands, instruction and exit guards, and returned values.
    pub fn rename_regs(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        for inst in &mut self.insts {
            for o in inst.a.iter_mut().chain(inst.b.iter_mut()) {
                if let Operand::Reg(r) = o {
                    *r = map(*r);
                }
            }
            if let Some(d) = inst.dst.as_mut() {
                *d = map(*d);
            }
            if let Some(p) = inst.pred.as_mut() {
                p.reg = map(p.reg);
            }
        }
        for e in &mut self.exits {
            if let Some(p) = e.pred.as_mut() {
                p.reg = map(p.reg);
            }
            if let ExitTarget::Return(Some(Operand::Reg(r))) = &mut e.target {
                *r = map(*r);
            }
        }
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
    ///
    /// One pass from the last exit to the first reaches the fixpoint:
    /// dropping exit `i` changes neither rule for the exits after it. The
    /// implication facts of rule 2 are built only when two adjacent exits
    /// with distinct positive guards share a target, in one walk over the
    /// instructions, into per-thread [`RegTable`]s that are never zeroed.
    /// So a call costs time linear in the block, whatever its register
    /// numbers.
    pub fn dedupe_exits(&mut self) -> bool {
        let n = self.exits.len();
        if n < 2 {
            return false;
        }
        IMPLICATIONS.with_borrow_mut(|facts| {
            facts.built = false;
            let mut changed = false;
            // `exits[w..]` are the exits kept so far; `suffix` is the target
            // they all share, if they share one.
            let mut w = n - 1;
            let mut suffix = Some(self.exits[w].target);
            for i in (0..n - 1).rev() {
                let e = self.exits[i];
                let next = self.exits[w];
                let drop = e.pred.is_some()
                    && (suffix == Some(e.target)
                        || (next.target == e.target
                            && match (e.pred, next.pred) {
                                (_, None) => true,
                                (Some(pa), Some(pb)) if pa.if_true && pb.if_true => {
                                    pa.reg == pb.reg || facts.implies(&self.insts, pa.reg, pb.reg)
                                }
                                _ => false,
                            }));
                if drop {
                    self.exits[w].count += e.count;
                    changed = true;
                } else {
                    if suffix != Some(e.target) {
                        suffix = None;
                    }
                    w -= 1;
                    self.exits[w] = e;
                }
            }
            self.exits.drain(..w);
            changed
        })
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
