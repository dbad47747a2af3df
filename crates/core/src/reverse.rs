//! Reverse if-conversion: block splitting (paper §6).
//!
//! When post-formation phases (spill code, fanout insertion) push a block
//! over the structural constraints, the Scale compiler performs reverse
//! if-conversion on the block and repeats register allocation. In this
//! representation predicates are ordinary registers, so a block can be
//! split at *any* instruction boundary: values computed in the first half
//! (including predicate registers) flow to the second half through
//! registers.

use crate::constraints::BlockConstraints;
use chf_ir::block::{Block, Exit};
use chf_ir::function::Function;
use chf_ir::ids::BlockId;

/// Split block `b` at instruction index `at`: the first `at` instructions
/// stay in `b`; the rest, plus all exits, move to a new block that `b`
/// jumps to. Returns the new block's id.
///
/// # Panics
/// Panics if `at` is out of range (`at > insts.len()`).
pub fn split_block(f: &mut Function, b: BlockId, at: usize) -> BlockId {
    let (tail_insts, exits, freq, name) = {
        let blk = f.block_mut(b);
        assert!(at <= blk.insts.len(), "split point out of range");
        let tail = blk.insts.split_off(at);
        let exits = std::mem::take(&mut blk.exits);
        (tail, exits, blk.freq, blk.name.clone())
    };
    let tail = Block {
        insts: tail_insts,
        exits,
        freq,
        name: name.map(|n| format!("{n}.tail")),
    };
    let new = f.add_block(tail);
    f.block_mut(b).exits.push(Exit::jump(new));
    new
}

/// Pick the split index in the middle half of block `b` that minimizes the
/// number of registers communicated across the cut (paper §9, "Basic block
/// splitting": "the compiler should seek to minimize cross-block
/// communication, thus minimizing register pressure and the resultant
/// spills").
///
/// A register crosses the cut at index `k` if it is defined before `k` and
/// used at-or-after `k` (or live out of the block).
pub fn best_split_point(f: &Function, b: BlockId) -> usize {
    let blk = f.block(b);
    let n = blk.insts.len();
    if n < 2 {
        return n / 2;
    }
    let live_out = chf_ir::liveness::Liveness::compute(f);
    let live_out = live_out.live_out(b);

    // For each register: last def index and last use index within the block
    // (use = operands, predicates, exits).
    use chf_ir::fxhash::FxHashMap;
    let mut first_def: FxHashMap<chf_ir::ids::Reg, usize> = FxHashMap::default();
    let mut last_use: FxHashMap<chf_ir::ids::Reg, usize> = FxHashMap::default();
    for (k, inst) in blk.insts.iter().enumerate() {
        for u in inst.uses() {
            last_use.insert(u, k);
        }
        if let Some(d) = inst.def() {
            first_def.entry(d).or_insert(k);
        }
    }
    for e in &blk.exits {
        if let Some(p) = e.pred {
            last_use.insert(p.reg, n);
        }
        if let chf_ir::block::ExitTarget::Return(Some(chf_ir::instr::Operand::Reg(r))) = e.target {
            last_use.insert(r, n);
        }
    }

    // Evaluate candidate cut points in the middle half (a cut near either
    // end barely shrinks the block).
    let (lo, hi) = (n / 4, (3 * n) / 4);
    let mut best = (usize::MAX, n / 2);
    for k in lo..=hi.max(lo + 1) {
        let mut crossing = 0usize;
        for (r, &d) in &first_def {
            if d < k {
                let used_later = last_use.get(r).map(|&u| u >= k).unwrap_or(false);
                if used_later || live_out.contains(r) {
                    crossing += 1;
                }
            }
        }
        if crossing < best.0 {
            best = (crossing, k);
        }
    }
    best.1
}

/// Repeatedly split any block that violates the size or memory-op
/// constraints until every block conforms (or blocks cannot shrink
/// further). Split points are chosen by [`best_split_point`]. Returns the
/// number of splits performed.
///
/// Register-bank violations are not fixable by splitting alone (splitting
/// can only increase cross-block register traffic) and are left to the
/// register allocator's spill logic; only size and memory violations are
/// handled here.
pub fn split_oversized(f: &mut Function, constraints: &BlockConstraints) -> usize {
    let mut splits = 0;
    let mut work: Vec<BlockId> = f.block_ids().collect();
    while let Some(b) = work.pop() {
        if !f.contains_block(b) {
            continue;
        }
        let blk = f.block(b);
        let too_big = blk.size() > constraints.effective_max_insts();
        let too_many_mem = blk.memory_ops() > constraints.max_memory_ops;
        if !(too_big || too_many_mem) {
            continue;
        }
        if blk.insts.len() < 2 {
            continue; // cannot split further
        }
        let at = best_split_point(f, b);
        let at = at.clamp(1, f.block(b).insts.len() - 1);
        let new = split_block(f, b, at);
        splits += 1;
        work.push(b);
        work.push(new);
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::{Instr, Operand, Pred};
    use chf_ir::verify::verify;
    use chf_sim::functional::{run, RunConfig};

    fn digest(f: &Function, args: &[i64]) -> (Option<i64>, Vec<(i64, i64)>) {
        run(f, args, &[], &RunConfig::default()).unwrap().digest()
    }

    fn big_block(n: usize) -> Function {
        let mut fb = FunctionBuilder::new("big", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let mut x = fb.param(0);
        for _ in 0..n {
            x = fb.add(Operand::Reg(x), Operand::Imm(1));
        }
        fb.ret(Some(Operand::Reg(x)));
        fb.build().unwrap()
    }

    #[test]
    fn split_preserves_behaviour() {
        let mut f = big_block(10);
        let orig = f.clone();
        let entry = f.entry;
        let new = split_block(&mut f, entry, 5);
        verify(&f).unwrap();
        assert_eq!(f.block(f.entry).insts.len(), 5);
        assert_eq!(f.block(new).insts.len(), 5);
        assert_eq!(digest(&f, &[7]), digest(&orig, &[7]));
    }

    #[test]
    fn split_predicated_block() {
        // Predicate defined in the first half, used in the second.
        let mut fb = FunctionBuilder::new("p", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let p = fb.cmp_gt(Operand::Reg(fb.param(0)), Operand::Imm(0));
        let out = fb.mov(Operand::Imm(0));
        fb.push(Instr::mov(out, Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        let orig = f.clone();
        let entry = f.entry;
        split_block(&mut f, entry, 2);
        verify(&f).unwrap();
        for a in [-1, 1] {
            assert_eq!(digest(&f, &[a]), digest(&orig, &[a]));
        }
    }

    #[test]
    fn split_oversized_until_conforming() {
        let mut f = big_block(300);
        let orig = f.clone();
        let c = BlockConstraints::trips();
        let n = split_oversized(&mut f, &c);
        assert!(n >= 2);
        verify(&f).unwrap();
        assert!(c.check_function(&f).is_ok());
        assert_eq!(digest(&f, &[3]), digest(&orig, &[3]));
    }

    #[test]
    fn split_at_boundaries() {
        let mut f = big_block(4);
        let entry = f.entry;
        let new = split_block(&mut f, entry, 0);
        verify(&f).unwrap();
        assert!(f.block(f.entry).insts.is_empty());
        assert_eq!(f.block(new).insts.len(), 4);
    }

    #[test]
    fn best_split_point_minimizes_crossing_values() {
        // First half computes many independent temporaries that all die at
        // one reduction point; cutting after the reduction crosses only one
        // value, cutting before it crosses many.
        let mut fb = FunctionBuilder::new("cut", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let mut vals = Vec::new();
        for k in 0..6 {
            vals.push(fb.add(Operand::Reg(fb.param(0)), Operand::Imm(k)));
        }
        let mut acc = fb.mov(Operand::Imm(0));
        for v in vals {
            acc = fb.add(Operand::Reg(acc), Operand::Reg(v));
        }
        // Tail: a chain only depending on acc.
        for _ in 0..6 {
            acc = fb.mul(Operand::Reg(acc), Operand::Imm(3));
        }
        fb.ret(Some(Operand::Reg(acc)));
        let f = fb.build().unwrap();
        let at = best_split_point(&f, f.entry);
        // The reduction finishes at instruction 13 (6 adds + mov + 6 adds);
        // the best cut in the middle half is at-or-after it, never inside
        // the wide first phase.
        assert!(at >= 12, "cut at {at} crosses the wide phase");
        // And splitting there still preserves behaviour.
        let mut g = f.clone();
        let entry = g.entry;
        split_block(&mut g, entry, at);
        verify(&g).unwrap();
        assert_eq!(digest(&g, &[5]), digest(&f, &[5]));
    }

    #[test]
    fn memory_violation_split() {
        let mut fb = FunctionBuilder::new("mem", 0);
        let e = fb.create_block();
        fb.switch_to(e);
        for i in 0..40 {
            fb.store(Operand::Imm(i), Operand::Imm(i * 2));
        }
        fb.ret(None);
        let mut f = fb.build().unwrap();
        let c = BlockConstraints::trips();
        assert!(c.check_function(&f).is_err());
        split_oversized(&mut f, &c);
        assert!(c.check_function(&f).is_ok());
    }
}
