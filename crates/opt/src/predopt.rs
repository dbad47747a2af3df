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
use chf_ir::instr::{Instr, Opcode, Operand};
use chf_ir::regtable::RegTable;
use std::cell::RefCell;

/// The predicate-optimization pass.
#[derive(Debug, Default)]
pub struct PredOpt;

/// Per-thread scratch of the predicate optimizations, reused across calls
/// (see [`RegTable`]).
#[derive(Default)]
struct Scratch {
    /// `merge_complementary`: 1 + the position of each register's last
    /// definition among the instructions kept so far (0: none).
    last_def: RegTable<u32>,
    /// `fold_predicates`: the constant each register holds, if known.
    consts: RegTable<Option<i64>>,
    keep: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

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

/// Merge each predicated instruction `X` with the first later `X` under
/// the complementary predicate, if nothing between them redefines an
/// operand, the destination or the predicate register of `X` — or, for
/// loads and stores, writes memory. The first becomes unpredicated and the
/// second goes. Pairs merge in order of their first instruction.
///
/// One forward pass finds every pair. The only candidate partner of `X`
/// is the next definition of its destination (the next store, for a
/// store): any later one has that definition between. So at each
/// instruction the candidate subject is the last definition of its
/// destination (the last store) among the instructions kept so far, and
/// the pair is blocked iff one of the subject's operands was defined after
/// it (or, for a load, a store came after it). A merge never makes an
/// earlier pair valid, since its subject still defines what its removed
/// partner did, so pairs merge exactly as a scan that restarted from the
/// first instruction after each merge would merge them.
fn merge_complementary(blk: &mut Block, last_def: &mut RegTable<u32>) -> bool {
    last_def.clear();
    let mut last_store: Option<usize> = None;
    let mut changed = false;
    let mut w = 0;
    for r in 0..blk.insts.len() {
        let subject = match blk.insts[r].def() {
            Some(d) => (last_def.get(d) as usize).checked_sub(1),
            None if blk.insts[r].op == Opcode::Store => last_store,
            None => None,
        };
        if let Some(s) = subject {
            let x = &blk.insts[s];
            let blocked = x.uses().any(|u| last_def.get(u) as usize > s + 1)
                || (x.op == Opcode::Load && last_store.is_some_and(|m| m > s));
            if !blocked && mergeable(x, &blk.insts[r]) {
                blk.insts[s].pred = None;
                changed = true;
                continue;
            }
        }
        if let Some(d) = blk.insts[r].def() {
            last_def.set(d, w as u32 + 1);
        }
        if blk.insts[r].op == Opcode::Store {
            last_store = Some(w);
        }
        blk.insts.swap(w, r);
        w += 1;
    }
    blk.insts.truncate(w);
    changed
}

/// Constant values of registers at each point, from unpredicated
/// `mov reg, #imm` instructions (invalidated on redefinition).
fn fold_predicates(
    blk: &mut Block,
    consts: &mut RegTable<Option<i64>>,
    keep: &mut Vec<bool>,
) -> bool {
    consts.clear();
    keep.clear();
    let mut changed = false;

    for inst in &mut blk.insts {
        // Resolve this instruction's predicate if constant.
        let mut retain = true;
        if let Some(p) = inst.pred {
            if let Some(v) = consts.get(p.reg) {
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
            let v = match (inst.op, inst.pred, inst.a) {
                (Opcode::Mov, None, Some(Operand::Imm(v))) => Some(v),
                _ => None,
            };
            consts.set(d, v);
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
            Some(p) => match consts.get(p.reg) {
                Some(v) if (v != 0) == p.if_true => {
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
///
/// Linear in the block: each rewrite is one pass over per-thread
/// [`RegTable`]s that are never zeroed.
pub fn optimize_block(blk: &mut Block) -> bool {
    let mut changed = SCRATCH.with_borrow_mut(|s| {
        merge_complementary(blk, &mut s.last_def) | fold_predicates(blk, &mut s.consts, &mut s.keep)
    });
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
