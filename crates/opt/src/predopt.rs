//! Predicate optimizations (dataflow predication, the paper's \[25\]).
//!
//! Three rewrites over predicated blocks:
//!
//! 1. **Instruction merging** — identical instructions guarded by
//!    complementary predicates (`[p] X` / `[!p] X`) collapse to a single
//!    unpredicated `X`. This is the paper's example of an optimization
//!    "difficult to express in the control-flow domain": the two copies come
//!    from different control-flow paths that if-conversion put side by side.
//!
//! 2. **Predicate constant folding** — an instruction whose predicate
//!    register provably holds a constant either drops its guard (always
//!    executes) or disappears (never executes).
//!
//! 3. **Exit simplification** — exits with constant predicates are removed
//!    (never taken) or become the new default (always taken, making later
//!    exits unreachable). This implements branch removal inside hyperblocks.

use crate::clean::Kernel;
use crate::{CleanBlocks, Pass};
use chf_ir::block::Block;
use chf_ir::function::Function;
use chf_ir::fxhash::FxHashMap;
use chf_ir::ids::Reg;
use chf_ir::instr::{Instr, Opcode, Operand};

/// The predicate-optimization pass.
#[derive(Debug, Default)]
pub struct PredOpt;

/// Two instructions are mergeable if their bodies are identical and their
/// predicates are complementary.
fn mergeable(a: &Instr, b: &Instr) -> bool {
    if a.op != b.op || a.dst != b.dst || a.a != b.a || a.b != b.b {
        return false;
    }
    match (a.pred, b.pred) {
        (Some(pa), Some(pb)) => pa.is_complement_of(pb),
        _ => false,
    }
}

/// Registers touched (defined) by `inst`.
fn defines(inst: &Instr, r: Reg) -> bool {
    inst.def() == Some(r)
}

/// Whether any instruction in `insts[i+1..j]` invalidates merging `insts[i]`
/// with `insts[j]`: redefining an operand, the destination, or the predicate
/// register — or, for loads, writing memory.
fn merge_blocked(insts: &[Instr], i: usize, j: usize) -> bool {
    let subject = &insts[i];
    let mut watched: Vec<Reg> = subject.uses().collect();
    watched.extend(subject.def());
    let is_load = subject.op == Opcode::Load;
    let is_store = subject.op == Opcode::Store;
    for inst in &insts[i + 1..j] {
        if watched.iter().any(|r| defines(inst, *r)) {
            return true;
        }
        if (is_load || is_store) && inst.op == Opcode::Store {
            return true;
        }
    }
    false
}

fn merge_complementary(blk: &mut Block) -> bool {
    let mut changed = false;
    'restart: loop {
        let n = blk.insts.len();
        for i in 0..n {
            if blk.insts[i].pred.is_none() {
                continue;
            }
            for j in i + 1..n {
                if mergeable(&blk.insts[i], &blk.insts[j]) && !merge_blocked(&blk.insts, i, j) {
                    blk.insts[i].pred = None;
                    blk.insts.remove(j);
                    changed = true;
                    continue 'restart;
                }
            }
        }
        return changed;
    }
}

/// Constant values of registers at each point, from unpredicated
/// `mov reg, #imm` instructions (invalidated on redefinition).
fn fold_predicates(blk: &mut Block) -> bool {
    let mut consts: FxHashMap<Reg, i64> = FxHashMap::default();
    let mut changed = false;
    let mut keep: Vec<bool> = Vec::with_capacity(blk.insts.len());

    for inst in &mut blk.insts {
        // Resolve this instruction's predicate if constant.
        let mut retain = true;
        if let Some(p) = inst.pred {
            if let Some(&v) = consts.get(&p.reg) {
                if (v != 0) == p.if_true {
                    inst.pred = None;
                } else {
                    retain = false; // never executes
                }
                changed = true;
            }
        }
        keep.push(retain);
        if !retain {
            continue;
        }
        if let Some(d) = inst.def() {
            consts.remove(&d);
            if inst.op == Opcode::Mov && inst.pred.is_none() {
                if let Some(Operand::Imm(v)) = inst.a {
                    consts.insert(d, v);
                }
            }
        }
    }

    if keep.iter().any(|k| !k) {
        let mut idx = 0;
        blk.insts.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    // Exit simplification with the block-final constant environment.
    let mut new_exits = Vec::with_capacity(blk.exits.len());
    let mut truncated = false;
    for e in &blk.exits {
        let mut e = *e;
        match e.pred {
            Some(p) => match consts.get(&p.reg) {
                Some(&v) if (v != 0) == p.if_true => {
                    // Always taken: becomes the default; drop the rest.
                    e.pred = None;
                    new_exits.push(e);
                    truncated = true;
                    changed = true;
                    break;
                }
                Some(_) => {
                    // Never taken: drop this exit.
                    changed = true;
                }
                None => new_exits.push(e),
            },
            None => {
                new_exits.push(e);
                truncated = true;
                break;
            }
        }
    }
    debug_assert!(truncated, "default exit must remain");
    if new_exits.len() != blk.exits.len() || changed {
        blk.exits = new_exits;
    }
    changed
}

/// Run the predicate optimizations over one block: complementary-instruction
/// merging, predicate constant folding, and exit deduplication. Block-scoped
/// entry point for formation's trial optimizer; unlike the [`Pass`], it does
/// *not* remove blocks that become unreachable (the trial must not mutate
/// blocks outside its snapshot).
pub fn optimize_block(blk: &mut Block) -> bool {
    let mut changed = false;
    changed |= merge_complementary(blk);
    changed |= fold_predicates(blk);
    changed |= blk.dedupe_exits();
    changed
}

impl Pass for PredOpt {
    fn name(&self) -> &'static str {
        "predopt"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let changed = Kernel::PredOpt.each_block(f);
        if changed {
            chf_ir::cfg::remove_unreachable(f);
        }
        changed
    }

    fn run_cached(&mut self, f: &mut Function, clean: &mut CleanBlocks) -> bool {
        let changed = clean.run(f, Kernel::PredOpt);
        if changed {
            chf_ir::cfg::remove_unreachable(f);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chf_ir::builder::FunctionBuilder;
    use chf_ir::instr::Pred;

    #[test]
    fn complementary_instructions_merge() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        let out = fb.fresh_reg();
        fb.push(
            Instr::add(out, Operand::Reg(fb.param(0)), Operand::Imm(1))
                .predicated(Pred::on_true(p)),
        );
        fb.push(
            Instr::add(out, Operand::Reg(fb.param(0)), Operand::Imm(1))
                .predicated(Pred::on_false(p)),
        );
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        assert!(PredOpt.run(&mut f));
        let insts = &f.block(f.entry).insts;
        assert_eq!(insts.len(), 2);
        assert!(insts[1].pred.is_none());
    }

    #[test]
    fn merge_blocked_by_intervening_def() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p0 = fb.param(0);
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        let out = fb.fresh_reg();
        fb.push(Instr::add(out, Operand::Reg(p0), Operand::Imm(1)).predicated(Pred::on_true(p)));
        fb.mov_to(p0, Operand::Imm(7)); // operand changes between the pair
        fb.push(Instr::add(out, Operand::Reg(p0), Operand::Imm(1)).predicated(Pred::on_false(p)));
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        PredOpt.run(&mut f);
        assert_eq!(f.block(f.entry).insts.len(), 4, "must not merge");
    }

    #[test]
    fn complementary_stores_merge() {
        let mut fb = FunctionBuilder::new("f", 2);
        let e = fb.create_block();
        fb.switch_to(e);
        let p = fb.cmp_ne(Operand::Reg(fb.param(1)), Operand::Imm(0));
        fb.push(
            Instr::store(Operand::Imm(3), Operand::Reg(fb.param(0))).predicated(Pred::on_true(p)),
        );
        fb.push(
            Instr::store(Operand::Imm(3), Operand::Reg(fb.param(0))).predicated(Pred::on_false(p)),
        );
        fb.ret(None);
        let mut f = fb.build().unwrap();
        assert!(PredOpt.run(&mut f));
        let insts = &f.block(f.entry).insts;
        // cmp may remain (dce's job); the two stores must be one.
        assert_eq!(insts.iter().filter(|i| i.op == Opcode::Store).count(), 1);
    }

    #[test]
    fn constant_predicate_drops_guard() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let t = fb.mov(Operand::Imm(1));
        let out = fb.fresh_reg();
        fb.push(Instr::mov(out, Operand::Imm(5)).predicated(Pred::on_true(t)));
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        assert!(PredOpt.run(&mut f));
        assert!(f.block(f.entry).insts[1].pred.is_none());
    }

    #[test]
    fn never_executing_instruction_removed() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        fb.switch_to(e);
        let t = fb.mov(Operand::Imm(0));
        let out = fb.mov(Operand::Imm(7));
        fb.push(Instr::mov(out, Operand::Imm(5)).predicated(Pred::on_true(t)));
        fb.ret(Some(Operand::Reg(out)));
        let mut f = fb.build().unwrap();
        assert!(PredOpt.run(&mut f));
        assert_eq!(f.block(f.entry).insts.len(), 2);
    }

    #[test]
    fn constant_exit_simplifies_cfg() {
        let mut fb = FunctionBuilder::new("f", 1);
        let e = fb.create_block();
        let a = fb.create_block();
        let b = fb.create_block();
        fb.switch_to(e);
        let t = fb.mov(Operand::Imm(1));
        fb.branch(t, a, b);
        fb.switch_to(a);
        fb.ret(Some(Operand::Imm(1)));
        fb.switch_to(b);
        fb.ret(Some(Operand::Imm(0)));
        let mut f = fb.build().unwrap();
        assert!(PredOpt.run(&mut f));
        assert_eq!(f.block(f.entry).exits.len(), 1);
        assert!(f.block(f.entry).exits[0].pred.is_none());
        // b is now unreachable and removed.
        assert!(!f.contains_block(b));
    }

    #[test]
    fn behaviour_preserved_on_random_programs() {
        crate::testutil::assert_preserves_behaviour(
            |f| {
                PredOpt.run(f);
            },
            0..40,
        );
    }
}
